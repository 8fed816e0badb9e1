"""`RequestTable`: the one place a request's state changes.

Both engines own one.  :class:`~repro.serving.engine.ServingEngine`
adds the scheduler and resilience around it,
:class:`~repro.serving.cluster.ClusterEngine` the worker supervisor, the
transport and replay verification.  The table allocates ids, validates
prompts, sheds at the door, pins each request's sampling parameters and
absolute deadline, records tokens, and makes the one terminal transition
per request (:meth:`RequestTable.finish`, the only caller of
``metrics.on_finish`` in :mod:`repro.serving`).  Its :meth:`stream` loop
is both engines' ``stream``; an engine supplies only how to advance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from .admission import LoadSheddingAdmission
from .metrics import ServingMetrics
from .sampling import SamplingParams
from .scheduler import FINISH_CANCELLED, FINISH_DEADLINE, FINISH_SHED, validated_prompt


@dataclass
class GenerationResult:
    """Final state of one request: generated ids plus the finish reason."""

    request_id: int
    prompt: np.ndarray
    tokens: List[int] = field(default_factory=list)
    finish_reason: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.finish_reason is not None


class RequestTable:
    """Ids, results, pinned parameters and deadlines of one engine's requests.

    ``shed_counter`` names the counter a refusal at the door increments.
    ``admitting`` turns off at ``drain`` and ``close``; ``closed`` once
    :meth:`close` has flushed every live request.
    """

    def __init__(
        self,
        metrics: ServingMetrics,
        vocab_size: int,
        shed_counter: str,
    ) -> None:
        self.metrics = metrics
        self.vocab_size = vocab_size
        self.shed_counter = shed_counter
        self.results: Dict[int, GenerationResult] = {}
        self.params: Dict[int, SamplingParams] = {}
        self.expires_at: Dict[int, float] = {}
        self.live: Dict[int, None] = {}  # unfinished ids, in submit order
        self.next_id = 0
        self.admitting = True
        self.closed = False
        # The HTTP plane makes every engine call from its one loop thread;
        # this lock exists only for callers on the thread that started it
        # in a `ServerThread` (tests, benches, the CLI self-test).
        # Reentrant, because drain and stream step under it.
        self.lock = threading.RLock()

    @property
    def has_work(self) -> bool:
        return bool(self.live)

    def unfinished(self) -> List[int]:
        return list(self.live)

    def submit(
        self,
        prompt,
        params: SamplingParams,
        enqueue: Callable[[int, np.ndarray, SamplingParams], object],
        admission: Optional[LoadSheddingAdmission],
        queue_depth: Callable[[], int],
    ) -> int:
        """Register one request; returns its id.

        Validation and ``enqueue`` (the engine's hand-off of the request)
        run before any state changes, so a refusal burns no id.  An
        ``admission`` that refuses registers the request already finished
        as ``shed``, and ``enqueue`` is skipped.
        """
        with self.lock:
            if not self.admitting:
                raise RuntimeError("engine no longer admits requests")
            prompt = validated_prompt(prompt, self.vocab_size)
            request_id = self.next_id
            deadline_s = params.deadline_s
            reason = (
                admission.shed_reason(queue_depth(), deadline_s)
                if admission is not None else None
            )
            if reason is None:
                enqueue(request_id, prompt, params)
            self.next_id += 1
            self.results[request_id] = GenerationResult(request_id, prompt)
            self.params[request_id] = params
            self.live[request_id] = None
            self.metrics.on_submit(request_id, prompt_tokens=prompt.size)
            if reason is not None:
                self.finish(request_id, FINISH_SHED)
                self.metrics.registry.counter(self.shed_counter, reason=reason).inc()
            elif deadline_s is not None:
                self.expires_at[request_id] = self.metrics.clock() + deadline_s
            return request_id

    def append(self, request_id: int, token: int) -> None:
        self.results[request_id].tokens.append(int(token))
        self.metrics.on_token(request_id)

    def finish(self, request_id: int, reason: str) -> bool:
        """Make ``request_id`` terminal with ``reason``; False when it is
        unknown or already terminal, so every request finishes once."""
        if request_id not in self.live:
            return False
        del self.live[request_id]
        self.results[request_id].finish_reason = reason
        self.expires_at.pop(request_id, None)
        self.metrics.on_finish(request_id, reason)
        return True

    def remaining_s(self, request_id: int) -> Optional[float]:
        """Seconds left of the request's deadline; None without one."""
        expires_at = self.expires_at.get(request_id)
        return None if expires_at is None else expires_at - self.metrics.clock()

    def expire(self, drop: Callable[[int], object]) -> None:
        """Finish every live request past its deadline as ``deadline``;
        ``drop`` removes it from the engine's batch or worker."""
        if not self.expires_at:
            return
        now = self.metrics.clock()
        for request_id, expires_at in list(self.expires_at.items()):
            if now >= expires_at:
                drop(request_id)
                self.finish(request_id, FINISH_DEADLINE)
                self.metrics.registry.counter("serving_deadline_exceeded_total").inc()

    def run(self, advance: Callable[[], object], timeout_s: Optional[float]) -> None:
        """Call ``advance`` until no request is live; ``TimeoutError`` when
        ``timeout_s`` (engine clock) elapses first — a hung request is an
        error, not a silent stall."""
        clock = self.metrics.clock
        deadline = None if timeout_s is None else clock() + timeout_s
        while self.live:
            if deadline is not None and clock() > deadline:
                raise TimeoutError(
                    f"requests {self.unfinished()} unfinished after {timeout_s}s"
                )
            advance()

    def close(self) -> bool:
        """Stop admitting and finish every live request as ``cancelled``;
        False when already closed."""
        with self.lock:
            if self.closed:
                return False
            self.admitting = False
            self.closed = True
            for request_id in self.unfinished():
                self.finish(request_id, FINISH_CANCELLED)
            return True

    def stream(self, request_id: int, advance: Callable[[], object]) -> Iterator[int]:
        """Yield the request's tokens as they are recorded, calling
        ``advance`` while it is live.  A concurrent ``close`` finishes it,
        so the iterator ends instead of hanging."""
        if request_id not in self.results:
            raise KeyError(f"unknown request id {request_id}")
        result = self.results[request_id]
        emitted = 0
        while True:
            while emitted < len(result.tokens):
                yield result.tokens[emitted]
                emitted += 1
            if result.finished:
                return
            advance()
