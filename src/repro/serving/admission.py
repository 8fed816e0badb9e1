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

    ``depth_source`` makes the policy **cluster-aware**: when set (a
    zero-argument callable returning the aggregate queued-request count
    across every worker replica, e.g. :meth:`repro.serving.cluster.
    ClusterEngine.aggregate_queue_depth`), shedding decisions use the
    *fleet-wide* backlog rather than the depth the local caller passes
    in — a replica with a short local queue still sheds when the cluster
    as a whole is drowning.  Left ``None`` (the default), behavior is
    exactly the single-engine policy: only the caller-provided depth
    counts.
    """

    def __init__(
        self,
        max_queue_depth: Optional[int] = None,
        est_step_s: Optional[float] = None,
        depth_source=None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if est_step_s is not None and est_step_s <= 0.0:
            raise ValueError(f"est_step_s must be positive, got {est_step_s}")
        if depth_source is not None and not callable(depth_source):
            raise TypeError("depth_source must be callable (or None)")
        self.max_queue_depth = max_queue_depth
        self.est_step_s = est_step_s
        self.depth_source = depth_source

    def shed_reason(
        self, queue_depth: int, deadline_s: Optional[float] = None
    ) -> Optional[str]:
        """Why a new submission should be refused, or None to accept.

        ``queue_depth`` is the number of requests already waiting (at
        this replica); ``deadline_s`` the submission's remaining
        deadline budget.  With a ``depth_source`` bound, the effective
        depth is the larger of the local and aggregate views — the
        cluster-wide backlog can only tighten admission, never loosen a
        locally-full replica.
        """
        if self.depth_source is not None:
            queue_depth = max(int(queue_depth), int(self.depth_source()))
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
