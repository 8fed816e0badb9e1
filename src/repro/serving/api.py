"""The ``Engine`` protocol: one serving API, any topology.

* :class:`Engine` — a :class:`typing.Protocol` naming the one supported
  serving API.  :class:`~repro.serving.engine.ServingEngine`
  (in-process) and :class:`~repro.serving.cluster.ClusterEngine`
  (supervised multi-worker) conform; front ends (the HTTP server in
  :mod:`repro.serving.server`, the CLI, the load harness) target the
  protocol only, so ``--workers 1`` and ``--workers N`` are the same
  code path.
* :class:`RequestHandle` — the type of the id ``submit`` returns: an
  ``int`` every engine method takes.  Its one accessor,
  ``handle.result()``, is ``engine.result(handle)``; it remains for the
  solo-run oracle of ``benchmarks/e2e``, and front ends call the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .requests import GenerationResult
    from .sampling import SamplingParams

__all__ = [
    "Engine",
    "RequestHandle",
]


class RequestHandle(int):
    """The id of one submitted request, bound to its engine.

    An ``int``: a dict key or an argument to any engine method.
    ``result()`` reads the request's result from the engine it came from.
    """

    def __new__(cls, request_id: int, engine) -> "RequestHandle":
        handle = super().__new__(cls, request_id)
        handle._engine = engine
        return handle

    def result(self) -> "GenerationResult":
        """The request's (possibly still-running) generation result."""
        return self._engine.result(int(self))


@runtime_checkable
class Engine(Protocol):
    """The one supported serving integration surface.

    Conformers: :class:`~repro.serving.engine.ServingEngine` (in-process
    continuous batching) and :class:`~repro.serving.cluster.
    ClusterEngine` (supervised multi-worker).  Front ends — the HTTP
    control plane, the CLI, the chaos oracle, the load harness — must
    target this protocol and nothing engine-specific, so single- and
    multi-worker serving are the same code path.

    Semantics shared by all conformers:

    * ``submit`` validates before any state change, sheds at the door
      when the admission policy refuses (the returned id is already
      final with ``finish_reason="shed"``), and pins per-request
      determinism (sampling seed) at submit time.
    * ``step`` advances the world without blocking indefinitely: one
      batched decode step in-process, one supervision cycle (pump
      events / detect deaths / dispatch) for the cluster.
    * ``drain`` stops admitting and finishes every in-flight request;
      ``close`` stops immediately and flushes still-live requests to
      ``finish_reason="cancelled"``.  Both are idempotent and neither
      leaves a ``stream`` iterator hanging.
    * ``metrics_snapshot``/``render_prometheus`` expose the always-on
      engine-local registry.
    """

    def submit(self, prompt, params: Optional["SamplingParams"] = None) -> int:
        """Queue a prompt; returns its id."""
        ...

    def stream(self, request_id: int) -> Iterator[int]:
        """Yield the request's tokens as they are generated."""
        ...

    def cancel(self, request_id: int) -> bool:
        """Cancel a queued/running request; ``False`` if unknown/final."""
        ...

    def result(self, request_id: int) -> "GenerationResult":
        """The request's (possibly still-running) result record."""
        ...

    def step(self) -> object:
        """Advance the engine one scheduling quantum."""
        ...

    @property
    def has_work(self) -> bool:
        """Whether any request is queued or in flight."""
        ...

    def drain(
        self, timeout_s: Optional[float] = None
    ) -> Dict[int, "GenerationResult"]:
        """Stop admitting, finish everything in flight, then stop."""
        ...

    def close(self) -> Dict[int, "GenerationResult"]:
        """Hard stop; flushes live requests to ``cancelled``."""
        ...

    def health(self) -> Dict[str, object]:
        """Liveness summary: ``healthy`` plus worker liveness detail."""
        ...

    def metrics_snapshot(self) -> Dict[str, object]:
        """Aggregate summary plus per-instrument registry state."""
        ...

    def render_prometheus(self) -> str:
        """Engine metrics in the Prometheus text exposition format."""
        ...
