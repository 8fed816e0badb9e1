"""The ``Engine`` protocol: one serving API, any topology.

* :class:`Engine` — a :class:`typing.Protocol` naming the one supported
  serving API.  :class:`~repro.serving.engine.ServingEngine`
  (in-process) and :class:`~repro.serving.cluster.ClusterEngine`
  (supervised multi-worker) conform; front ends (the HTTP server in
  :mod:`repro.serving.server`, the CLI, the load harness) target the
  protocol only, so ``--workers 1`` and ``--workers N`` are the same
  code path.
* :class:`RequestHandle` — the request id type ``submit`` returns.  It
  is an ``int`` carrying the engine reference: ``handle.stream()``,
  ``handle.finish_reason`` and ``handle.cancel()`` reach the engine,
  and ``engine.stream(int(handle))`` is the same call.  Handles pickle
  as plain ints (the cluster ships ids over worker pipes).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .requests import GenerationResult
    from .sampling import SamplingParams

__all__ = [
    "Engine",
    "RequestHandle",
]


class RequestHandle(int):
    """The id of one submitted request, bound to its engine.

    The handle *is* the request id (``int`` subclass): it works as a dict
    key, a pipe message field or an argument to any engine method.  Its
    accessors reach the engine it came from:

    ``handle.id``
        The request id as a plain ``int``.
    ``handle.stream()``
        Token iterator (drives the engine like ``engine.stream(id)``).
    ``handle.result()``
        The live :class:`~repro.serving.requests.GenerationResult`.
    ``handle.finish_reason``
        Terminal reason, or ``None`` while the request is in flight.
    ``handle.cancel()``
        Cancel the request; ``False`` if already finished.

    Handles reduce to plain ints under pickle: the engine reference is
    process-local (worker pipes and caches must not drag the engine
    along), and an unpickled id is still a valid argument to every
    engine method.
    """

    def __new__(cls, request_id: int, engine=None) -> "RequestHandle":
        handle = super().__new__(cls, request_id)
        handle._engine = engine
        return handle

    def __reduce__(self):
        # Pickle as the bare id: the engine reference is process-local.
        return (int, (int(self),))

    @property
    def id(self) -> int:
        """The request id as a plain ``int``."""
        return int(self)

    @property
    def engine(self):
        """The engine this request was submitted to."""
        return self._engine

    def _require_engine(self):
        if self._engine is None:
            raise RuntimeError(
                "this RequestHandle is detached (e.g. unpickled); call the "
                "engine directly with the bare id instead"
            )
        return self._engine

    def stream(self) -> Iterator[int]:
        """Yield this request's tokens as they are generated."""
        return self._require_engine().stream(int(self))

    def result(self) -> "GenerationResult":
        """The request's (possibly still-running) generation result."""
        return self._require_engine().result(int(self))

    @property
    def finish_reason(self) -> Optional[str]:
        """Terminal finish reason, or ``None`` while in flight."""
        return self.result().finish_reason

    @property
    def finished(self) -> bool:
        return self.result().finished

    def cancel(self) -> bool:
        """Cancel this request; ``False`` if unknown or already final."""
        return self._require_engine().cancel(int(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestHandle({int(self)})"



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
      when the admission policy refuses (the returned handle is already
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

    def submit(
        self, prompt, params: Optional["SamplingParams"] = None
    ) -> RequestHandle:
        """Queue a prompt; returns the typed request handle."""
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
