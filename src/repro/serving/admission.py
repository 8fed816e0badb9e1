"""Load shedding at submit time: the engines' one admission policy.

A request is refused at the door, before it joins the queue, when the
queue is full or when its deadline cannot be met even if every request
ahead of it takes one estimated step.  Once queued, a request is
admitted into the running batch as capacity frees (the scheduler's
batch-size cap is the only bound there).
"""

from __future__ import annotations

from typing import Optional


class LoadSheddingAdmission:
    """Shed requests at submit time when the engine is visibly overloaded.

    :meth:`shed_reason` is consulted by :meth:`ServingEngine.submit` and
    :meth:`ClusterEngine.submit` *before* a request is queued.  Shedding
    at the door is the graceful-degradation half of SLO-aware admission:
    a bounded queue keeps worst-case waiting time bounded, and a request
    whose deadline cannot be met even if everything ahead of it runs at
    the estimated step rate is refused immediately (cheap, honest
    failure) rather than timed out after consuming queue capacity.

    The policy holds no engine state: each engine passes its own depth,
    and the cluster's is the aggregate across its workers
    (:meth:`repro.serving.cluster.ClusterEngine.aggregate_queue_depth`),
    so one instance may serve several engines.
    """

    def __init__(
        self,
        max_queue_depth: Optional[int] = None,
        est_step_s: Optional[float] = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if est_step_s is not None and est_step_s <= 0.0:
            raise ValueError(f"est_step_s must be positive, got {est_step_s}")
        self.max_queue_depth = max_queue_depth
        self.est_step_s = est_step_s

    def shed_reason(
        self, queue_depth: int, deadline_s: Optional[float] = None
    ) -> Optional[str]:
        """Why a new submission should be refused, or None to accept.

        ``queue_depth`` is the number of requests already waiting at
        the engine; ``deadline_s`` the submission's deadline budget.
        """
        if (
            self.max_queue_depth is not None
            and queue_depth >= self.max_queue_depth
        ):
            return "queue_full"
        if (
            self.est_step_s is not None
            and deadline_s is not None
            # Even the optimistic bound — every queued request taking a
            # single estimated step before this one starts — overshoots
            # the deadline: admitting it only manufactures a timeout.
            and self.est_step_s * queue_depth > deadline_s
        ):
            return "deadline_unreachable"
        return None
