"""Cost-based admission control backed by the accelerator performance model.

Continuous batching trades per-request latency for throughput: every
admitted sequence adds projection/FFN rows and attention reads to each
decode step.  :class:`CostModelAdmission` bounds that trade-off with the
cycle-level model from :mod:`repro.hardware.perf` — a request is admitted
only while the *modeled* decode-step latency at the grown batch size
stays within a budget, i.e. the same analytical machinery the paper uses
for encoder latency, applied to the serving regime (one query token per
sequence against a ``ctx_len``-deep KV cache).
"""

from __future__ import annotations

from typing import Optional

from ..hardware.config import BE120_CONFIG, AcceleratorConfig
from ..hardware.perf import ButterflyPerformanceModel
from ..models.config import ModelConfig


def estimate_decode_step_ms(
    model_config: ModelConfig,
    accel_config: AcceleratorConfig,
    batch: int,
    ctx_len: Optional[int] = None,
) -> float:
    """Modeled latency of one batched decode step, in milliseconds.

    Per decoder block, a step runs the Q/K/V/output projections and the
    two FFN butterflies over ``batch`` single-token rows on the BP
    (:meth:`ButterflyPerformanceModel.butterfly_linear`), plus an
    attention core of one query per sequence against ``ctx_len`` cached
    keys on the AP (falling back to the BP's multipliers when the
    configuration has no AP lanes, as in the all-FBfly design points).
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    ctx = model_config.max_len if ctx_len is None else ctx_len
    pm = ButterflyPerformanceModel(accel_config)
    d = model_config.d_hidden
    d_head = d // model_config.n_heads
    cycles = 0.0
    proj_shapes = [(d, d)] * 4 + [(d, model_config.d_ffn), (model_config.d_ffn, d)]
    for in_features, out_features in proj_shapes:
        cycles += pm.butterfly_linear(batch, in_features, out_features).total_cycles
    # Attention: QK^T and SV over the cached context, one query per row.
    mac_lanes = accel_config.attention_multipliers or accel_config.butterfly_multipliers
    qk_macs = batch * model_config.n_heads * ctx * d_head
    cycles += 2.0 * qk_macs / mac_lanes
    softmax_lanes = accel_config.pae or accel_config.pbe
    cycles += batch * model_config.n_heads * ctx / max(1, softmax_lanes)
    cycles *= model_config.n_total
    return cycles / (accel_config.clock_mhz * 1e3)


class LoadSheddingAdmission:
    """Shed requests at submit time when the engine is visibly overloaded.

    Batch-level admission (``admit``) delegates to an optional ``inner``
    policy; what this class adds is :meth:`shed_reason`, consulted by
    :meth:`ServingEngine.submit` *before* a request is queued.  Shedding
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
        inner=None,
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
        self.inner = inner
        self.max_queue_depth = max_queue_depth
        self.est_step_s = est_step_s
        self.depth_source = depth_source

    def admit(self, prospective_batch: int) -> bool:
        if self.inner is None:
            return True
        return self.inner.admit(prospective_batch)

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


class CostModelAdmission:
    """Admit requests while the modeled decode step fits a latency budget."""

    def __init__(
        self,
        model_config: ModelConfig,
        accel_config: Optional[AcceleratorConfig] = None,
        step_budget_ms: float = 1.0,
        ctx_len: Optional[int] = None,
    ) -> None:
        if step_budget_ms <= 0.0:
            raise ValueError(f"step_budget_ms must be positive, got {step_budget_ms}")
        self.model_config = model_config
        self.accel_config = accel_config or BE120_CONFIG
        self.step_budget_ms = step_budget_ms
        self.ctx_len = model_config.max_len if ctx_len is None else ctx_len

    def estimate_step_ms(self, batch: int) -> float:
        return estimate_decode_step_ms(
            self.model_config, self.accel_config, batch, self.ctx_len
        )

    def admit(self, prospective_batch: int) -> bool:
        """Whether a batch grown to ``prospective_batch`` stays in budget."""
        return self.estimate_step_ms(prospective_batch) <= self.step_budget_ms

    def max_batch_within_budget(self, limit: int = 256) -> int:
        """Largest batch the budget admits (0 if even one row exceeds it)."""
        batch = 0
        while batch < limit and self.admit(batch + 1):
            batch += 1
        return batch
