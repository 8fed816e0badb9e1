"""Supervised multi-worker serving: process fault domains + failover.

:class:`ClusterEngine` promotes the resilience story from "survive a
faulted step" (PR 8's in-process rollback/retry) to "survive a dead
worker": it runs N :class:`~repro.serving.engine.ServingEngine` replicas
in child processes (:mod:`repro.serving.worker`), load-balances sessions
across them, exchanges heartbeats, and — when a worker dies — requeues
that worker's in-flight sessions onto survivors and **replays** them so
recovered outputs are token-bit-identical to a run that never failed.

Why replay is exact
    Every session's token stream is a pure function of (model weights,
    prompt, sampling-RNG seed): batched decode computes each row
    independently, and the cluster pins an explicit per-request seed
    (:func:`derive_request_seed`) before dispatch, so the replica-local
    request id — which differs across workers — never feeds the RNG.  A
    survivor replaying the recorded prompt therefore regenerates the
    dead worker's exact stream; the supervisor consumes the
    already-delivered prefix silently (verifying it token-by-token — a
    mismatch is a determinism bug and raises) and streams only the
    suffix onward.  This is PR 8's chaos-parity oracle extended across
    process death.

Failure detection & recovery
    A worker is declared dead on a missed-heartbeat timeout, a broken
    pipe, a nonzero/early exit (injected ``worker.step``
    :class:`~repro.faults.FatalFault`, real ``SIGKILL``), or a hung boot.
    Its sessions requeue onto survivors immediately; the process itself
    is respawned into the same slot under a restart budget with capped
    exponential backoff (kill-schedule fault rules are stripped from the
    respawn so an injected crash is one-shot per incarnation, not a
    crash loop).

Lifecycle
    ``drain()`` stops admitting, finishes every in-flight session, then
    stops the workers; ``close()`` is the idempotent hard stop.

Telemetry: per-worker restart counters, failover/requeue counters and a
heartbeat-age gauge live in the cluster-local registry exposed through
``metrics_snapshot()`` (same pattern as the engine's always-on metrics).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set

import numpy as np

from .. import faults
from ..faults import FaultRule, parse_fault_spec
from ..nn.quantized import check_mode
from ..telemetry import render_prometheus
from .api import RequestHandle
from .metrics import ServingMetrics
from .requests import GenerationResult, RequestTable
from .sampling import SamplingParams
from .scheduler import FINISH_CANCELLED, FINISH_DEADLINE, FINISH_ERROR
from .worker import WorkerConfig, child_environment, worker_main

__all__ = [
    "ClusterEngine",
    "derive_request_seed",
]

#: A booted worker silent this long is declared hung and killed.
HEARTBEAT_TIMEOUT_S = 5.0
#: A worker that has not said hello this long after its spawn is hung.
BOOT_TIMEOUT_S = 120.0
#: Respawns per slot before it retires; the k-th waits
#: ``min(RESTART_BACKOFF_CAP_S, RESTART_BACKOFF_BASE_S * 2**(k-1))``.
MAX_RESTARTS = 3
RESTART_BACKOFF_BASE_S = 0.05
RESTART_BACKOFF_CAP_S = 2.0
#: Sleep between two supervision cycles of :meth:`ClusterEngine.run`.
POLL_INTERVAL_S = 0.002


def derive_request_seed(cluster_seed: int, request_id: int) -> int:
    """Stable per-session sampling seed, independent of worker placement.

    Matches the scheduler's own per-request stream derivation
    (``SeedSequence([seed, request_id])``) but is pinned *before*
    dispatch, so a session replayed on a different worker — where it
    gets a different replica-local id — still draws the same stream.
    """
    seq = np.random.SeedSequence([int(cluster_seed), int(request_id)])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


class _Worker:
    """Supervisor-side handle of one worker slot (survives respawns)."""

    __slots__ = (
        "slot", "proc", "conn", "pid", "booted", "spawned_at", "last_seen",
        "restarts", "incarnation", "conn_broken", "retired",
        "next_spawn_at", "fault_rules", "stats", "stop_acked",
    )

    def __init__(self, slot: int, fault_rules: Optional[List[FaultRule]]):
        self.slot = slot
        self.proc = None
        self.conn = None
        self.pid: Optional[int] = None
        self.booted = False
        self.spawned_at = 0.0
        self.last_seen = 0.0
        self.restarts = 0
        self.incarnation = 0
        self.conn_broken = False
        self.retired = False
        self.next_spawn_at = 0.0
        self.fault_rules = fault_rules
        self.stats: Dict[str, float] = {}
        self.stop_acked = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.exitcode is None

    @property
    def dispatchable(self) -> bool:
        return (
            self.proc is not None
            and self.proc.exitcode is None
            and not self.conn_broken
            and not self.retired
        )


class ClusterEngine:
    """Run N serving-engine replicas in child processes under supervision.

    The submit/cancel/stream/run surface mirrors
    :class:`~repro.serving.engine.ServingEngine`; behind it the
    supervisor owns session placement, failure detection and failover.
    ``admission`` (:class:`~repro.serving.admission.LoadSheddingAdmission`)
    sheds at the cluster door on :meth:`aggregate_queue_depth`.
    Heartbeat, restart and polling periods are the module constants.

    ``worker_faults`` maps worker slots to fault specs (spec string or
    rule list) that *replace* the inherited schedule for that worker —
    this is how chaos tests aim a ``worker.step`` kill at one replica.
    By default each worker inherits the supervisor's installed injector
    (spec round-trip, fresh counters: each process fault domain runs its
    own schedule).

    ``start_method`` defaults to ``"spawn"`` — the realistic fault
    domain, nothing shared but the pickled model; ``"fork"`` is faster
    to boot for tests.
    """

    def __init__(
        self,
        model,
        workers: int = 2,
        max_batch_size: int = 8,
        admission=None,
        seed: int = 0,
        quantize: Optional[str] = None,
        resilience=None,
        start_method: str = "spawn",
        worker_faults: Optional[Dict[int, object]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if quantize is not None:
            check_mode(quantize)
        self.model = model
        self.n_workers = workers
        self.max_batch_size = max_batch_size
        self.admission = admission
        self.seed = seed
        self.quantize = quantize
        self.resilience = resilience
        self._ctx = multiprocessing.get_context(start_method)
        self.metrics = ServingMetrics()
        self.requests = RequestTable(
            self.metrics, model.config.vocab_size, "cluster_shed_total",
        )
        self._owner: Dict[int, int] = {}
        self._replay: Dict[int, int] = {}
        self._pending: Deque[int] = deque()

        # Workers get an *explicit* fault schedule (empty list uninstalls)
        # so each child deterministically mirrors the supervisor's state
        # even when a stale REPRO_FAULTS lingers in the environment.
        inherited: List[FaultRule] = (
            list(faults.get_injector().rules) if faults.active() else []
        )
        fault_seed = faults.get_injector().seed if faults.active() else 0
        self._fault_seed = fault_seed
        overrides = dict(worker_faults or {})
        self._workers: List[_Worker] = []
        # Pin the BLAS/OMP env *before* the first spawn: a spawned child
        # imports numpy with the inherited environment.
        pinned = child_environment()
        for var, value in pinned.items():
            os.environ.setdefault(var, value)
        for slot in range(workers):
            rules = overrides.get(slot, inherited)
            if isinstance(rules, str):
                rules = parse_fault_spec(rules)
            elif rules is not None:
                rules = list(rules)
            worker = _Worker(slot, rules)
            self._workers.append(worker)
            self._spawn(worker)

    # -- spawning ------------------------------------------------------
    def _worker_config(self, worker: _Worker) -> WorkerConfig:
        return WorkerConfig(
            worker_id=worker.slot,
            max_batch_size=self.max_batch_size,
            seed=self.seed,
            quantize=self.quantize,
            resilience=self.resilience,
            fault_rules=worker.fault_rules,
            fault_seed=self._fault_seed,
        )

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.model, self._worker_config(worker)),
            name=f"repro-worker-{worker.slot}",
            daemon=True,
        )
        proc.start()
        # Drop the parent's handle on the child end so a dead worker
        # reads as EOF instead of a silently idle pipe.
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        worker.pid = proc.pid
        worker.booted = False
        worker.conn_broken = False
        worker.stop_acked = False
        worker.incarnation += 1
        worker.spawned_at = time.monotonic()
        worker.last_seen = worker.spawned_at
        worker.stats = {}

    # -- submission API ------------------------------------------------
    @property
    def workers_alive(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    def kill_worker(self, slot: int) -> bool:
        """SIGKILL a worker process (chaos helper); False when the slot
        has no live process, ``ValueError`` for a slot it does not have."""
        if slot not in range(self.n_workers):
            raise ValueError(
                f"no worker slot {slot!r} in a {self.n_workers}-worker cluster")
        worker = self._workers[slot]
        if not worker.alive:
            return False
        os.kill(worker.proc.pid, signal.SIGKILL)
        return True

    def aggregate_queue_depth(self) -> int:
        """Cluster-wide queued-session count: supervisor backlog plus
        each worker's overflow beyond its decode capacity.

        Computed from supervisor-side assignment state (not heartbeat
        stats), so it is exact at submit time with no reporting lag.
        """
        assigned_overflow = sum(
            max(0, len(self._assigned(w)) - self.max_batch_size)
            for w in self._workers
        )
        return len(self._pending) + assigned_overflow

    def _assigned(self, worker: _Worker) -> Set[int]:
        return {
            gid for gid, slot in self._owner.items()
            if slot == worker.slot and gid in self.requests.live
        }

    def submit(
        self, prompt: np.ndarray, params: Optional[SamplingParams] = None
    ) -> RequestHandle:
        """Queue a session; returns its request handle.

        Shedding sees the aggregate queue depth.  The session's sampling
        seed is pinned here (:func:`derive_request_seed`) and its
        deadline in the supervisor's table, so neither placement nor
        failover affects its token stream or its budget.
        """
        with self.requests.lock:
            params = params or SamplingParams()
            if params.seed is None:
                params = replace(params, seed=derive_request_seed(
                    self.seed, self.requests.next_id))
            request_id = self.requests.submit(
                prompt, params, lambda rid, *_: self._pending.append(rid),
                self.admission, self.aggregate_queue_depth,
            )
            self.dispatch()
            return RequestHandle(request_id, self)

    def cancel(self, request_id: int) -> bool:
        """Cancel a pending or in-flight session; False if unknown/final."""
        with self.requests.lock:
            if not self.requests.finish(request_id, FINISH_CANCELLED):
                return False
            self._drop(request_id)
            return True

    def _drop(self, request_id: int) -> None:
        """Take a session out of the queue, or tell its worker to stop it."""
        self._replay.pop(request_id, None)
        if request_id in self._pending:
            self._pending.remove(request_id)
            return
        slot = self._owner.pop(request_id, None)
        if slot is not None:
            worker = self._workers[slot]
            if worker.alive and not worker.conn_broken:
                try:
                    worker.conn.send(("cancel", int(request_id)))
                except (BrokenPipeError, OSError):
                    worker.conn_broken = True

    def result(self, request_id: int) -> GenerationResult:
        return self.requests.results[request_id]

    # -- event pump ----------------------------------------------------
    def pump(self) -> None:
        """Drain every worker pipe; update results, stats and liveness."""
        with self.requests.lock:
            for worker in self._workers:
                if worker.conn is None or worker.conn_broken:
                    continue
                try:
                    while worker.conn.poll(0):
                        self._handle(worker, worker.conn.recv())
                except (EOFError, BrokenPipeError, OSError):
                    worker.conn_broken = True

    def _handle(self, worker: _Worker, msg) -> None:
        kind = msg[0]
        worker.last_seen = time.monotonic()
        if kind == "hello":
            worker.booted = True
            worker.pid = msg[1]
        elif kind == "heartbeat":
            worker.stats = dict(msg[1])
        elif kind == "events":
            for gid, token, finished, reason in msg[1]:
                self._apply_event(worker, gid, token, finished, reason)
        elif kind == "stopped":
            worker.stop_acked = True
            worker.stats.update(msg[1])
        elif kind == "fatal":
            # The worker is about to exit; treat the channel as gone and
            # let check_workers() run the death path.
            worker.conn_broken = True

    def _apply_event(
        self, worker: _Worker, gid: int, token, finished: bool, reason
    ) -> None:
        if gid not in self.requests.live:
            return
        result = self.requests.results[gid]
        if self._owner.get(gid) != worker.slot:
            # Stale sender: the session is no longer this worker's.  Its
            # events must not touch the replay counter the new owner is
            # advancing.
            return
        if token is not None:
            pos = self._replay.get(gid)
            if pos is not None and pos < len(result.tokens):
                # Replay suffix not reached yet: verify the regenerated
                # prefix against what was already delivered.
                if int(token) != result.tokens[pos]:
                    self.metrics.registry.counter(
                        "cluster_failover_prefix_mismatch_total"
                    ).inc()
                    raise RuntimeError(
                        f"failover replay diverged for session {gid} at "
                        f"token {pos}: got {int(token)}, delivered "
                        f"{result.tokens[pos]} (determinism bug)"
                    )
                self._replay[gid] = pos + 1
                self.metrics.registry.counter(
                    "cluster_replayed_tokens_total"
                ).inc()
                if self._replay[gid] == len(result.tokens):
                    del self._replay[gid]
            else:
                self._replay.pop(gid, None)
                self.requests.append(gid, token)
        if finished:
            pos = self._replay.get(gid)
            if (
                pos is not None and pos < len(result.tokens)
                # Only a *natural* finish short of the delivered prefix
                # indicts determinism; error/deadline/cancelled finishes
                # legitimately truncate a replay.
                and reason not in (
                    FINISH_ERROR, FINISH_DEADLINE, FINISH_CANCELLED
                )
            ):
                self.metrics.registry.counter(
                    "cluster_failover_prefix_mismatch_total"
                ).inc()
                raise RuntimeError(
                    f"failover replay of session {gid} finished after "
                    f"{pos} tokens but {len(result.tokens)} were already "
                    f"delivered (determinism bug)"
                )
            self._replay.pop(gid, None)
            self._owner.pop(gid, None)
            self.requests.finish(gid, reason)

    # -- supervision ---------------------------------------------------
    def check_workers(self) -> None:
        """Detect dead/hung workers, fail their sessions over, respawn."""
        with self.requests.lock:
            now = time.monotonic()
            for worker in self._workers:
                if worker.proc is None:
                    if not worker.retired and now >= worker.next_spawn_at \
                            and not self.requests.closed:
                        self._spawn(worker)
                    continue
                age = now - worker.last_seen
                self.metrics.registry.gauge(
                    "cluster_heartbeat_age_s", worker=worker.slot
                ).set(age)
                exited = worker.proc.exitcode is not None
                hung = age > (
                    HEARTBEAT_TIMEOUT_S if worker.booted else BOOT_TIMEOUT_S)
                if not (exited or worker.conn_broken or hung):
                    continue
                if hung and not exited:
                    worker.proc.kill()
                self._on_worker_death(worker, now)
            self.metrics.registry.gauge("cluster_workers_alive").set(
                self.workers_alive
            )

    def _on_worker_death(self, worker: _Worker, now: float) -> None:
        # Capture everything the dying worker managed to send first: the
        # delivered prefix must be exact for replay verification.
        try:
            while worker.conn.poll(0):
                self._handle(worker, worker.conn.recv())
        except (EOFError, BrokenPipeError, OSError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.conn = None
        worker.conn_broken = True
        worker.proc.join(timeout=5.0)
        worker.proc = None

        victims = sorted(self._assigned(worker))
        for gid in victims:
            self._owner.pop(gid, None)
            self._replay[gid] = 0
            self.metrics.registry.counter(
                "cluster_requeued_sessions_total"
            ).inc()
        # Requeue at the front, preserving original order: the oldest
        # sessions have the most delivered tokens to re-earn.
        self._pending.extendleft(reversed(victims))
        self.metrics.registry.counter(
            "cluster_worker_deaths_total", worker=worker.slot
        ).inc()
        if victims:
            self.metrics.registry.counter("cluster_failovers_total").inc()

        worker.restarts += 1
        if worker.restarts > MAX_RESTARTS:
            worker.retired = True
            return
        backoff = min(
            RESTART_BACKOFF_CAP_S,
            RESTART_BACKOFF_BASE_S * (2.0 ** (worker.restarts - 1)),
        )
        worker.next_spawn_at = now + backoff
        self.metrics.registry.counter(
            "cluster_worker_restarts_total", worker=worker.slot
        ).inc()
        if worker.fault_rules:
            # An injected worker-kill schedule is one-shot per
            # incarnation: respawning with it intact would be a
            # deterministic crash loop, not a recovery.
            worker.fault_rules = [
                r for r in worker.fault_rules if r.point != "worker.step"
            ]

    def dispatch(self) -> None:
        """Finish sessions past their deadline, then hand pending ones to
        the least-loaded dispatchable worker with what is left of their
        budget."""
        with self.requests.lock:
            self.requests.expire(self._drop)
            while self._pending:
                candidates = [w for w in self._workers if w.dispatchable]
                if not candidates:
                    return
                worker = min(
                    candidates, key=lambda w: (len(self._assigned(w)), w.slot)
                )
                gid = self._pending.popleft()
                params = self.requests.params[gid]
                remaining_s = self.requests.remaining_s(gid)
                if remaining_s is not None:
                    params = replace(params, deadline_s=max(remaining_s, 1e-6))
                try:
                    worker.conn.send(
                        ("submit", int(gid), self.requests.results[gid].prompt, params)
                    )
                except (BrokenPipeError, OSError):
                    worker.conn_broken = True
                    self._pending.appendleft(gid)
                    continue
                self._owner[gid] = worker.slot
                self.metrics.registry.counter(
                    "cluster_sessions_dispatched_total", worker=worker.slot
                ).inc()

    def step(self) -> List:
        """One supervision cycle (:class:`~repro.serving.api.Engine`
        protocol): pump worker events, run failure detection/respawn,
        expire deadlines and dispatch pending sessions.  Non-blocking;
        the caller paces the loop (see :meth:`run` / the HTTP
        dispatcher)."""
        with self.requests.lock:
            self.pump()
            self.check_workers()
            self.dispatch()
        return []

    @property
    def has_work(self) -> bool:
        """Whether any session is pending or in flight."""
        return self.requests.has_work

    def _advance(self, hook=None) -> None:
        """One supervision cycle and a poll interval; ``RuntimeError``
        when every worker is retired (restart budget exhausted) with
        sessions still unfinished."""
        self.step()
        if hook is not None:
            hook(self)
        with self.requests.lock:
            unfinished = self.requests.unfinished()
            if unfinished and all(w.retired for w in self._workers):
                raise RuntimeError(
                    f"all {self.n_workers} workers exhausted their restart "
                    f"budget with {len(unfinished)} sessions unfinished: "
                    f"{unfinished}"
                )
        time.sleep(POLL_INTERVAL_S)

    def run(
        self,
        timeout_s: Optional[float] = None,
        hook: Optional[Callable[["ClusterEngine"], None]] = None,
    ) -> Dict[int, GenerationResult]:
        """Drive supervision until every session is finished.

        ``hook`` runs once per supervision iteration (chaos tests and
        the recovery benchmark use it to kill workers at a chosen moment
        in the decode).  Raises ``TimeoutError`` listing unfinished
        sessions when ``timeout_s`` elapses, and ``RuntimeError`` when
        no worker is left to finish them.
        """
        self.requests.run(lambda: self._advance(hook), timeout_s)
        return dict(self.requests.results)

    def stream(self, request_id: int) -> Iterator[int]:
        """Yield a session's tokens as they arrive (drives supervision)."""
        return self.requests.stream(request_id, self._advance)

    # -- lifecycle -----------------------------------------------------
    def _stop_worker(self, worker: _Worker, timeout_s: float = 10.0) -> None:
        """Graceful stop: request, await the ack, reap; escalate if hung."""
        if worker.proc is None:
            return
        if worker.alive and not worker.conn_broken:
            try:
                worker.conn.send(("stop",))
                deadline = time.monotonic() + timeout_s
                while (
                    not worker.stop_acked
                    and worker.proc.exitcode is None
                    and time.monotonic() < deadline
                ):
                    try:
                        while worker.conn.poll(POLL_INTERVAL_S):
                            self._handle(worker, worker.conn.recv())
                    except (EOFError, BrokenPipeError, OSError):
                        worker.conn_broken = True
                        break
            except (BrokenPipeError, OSError):
                worker.conn_broken = True
        worker.proc.join(timeout=timeout_s)
        if worker.proc.exitcode is None:
            worker.proc.terminate()
            worker.proc.join(timeout=5.0)
        if worker.proc.exitcode is None:
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        worker.proc = None
        worker.retired = True

    def drain(self, timeout_s: Optional[float] = None) -> Dict[int, GenerationResult]:
        """Graceful shutdown: stop admitting, finish in-flight, stop.

        Idempotent; zero sessions dropped — every already-admitted
        session runs to its natural finish (failover included if a
        worker dies mid-drain) before the workers are stopped.
        """
        self.requests.admitting = False
        self.run(timeout_s)
        return self.close()

    def close(self) -> Dict[int, GenerationResult]:
        """Hard stop: idempotent; flushes unfinished sessions to
        ``finish_reason="cancelled"`` so no stream is left hanging."""
        with self.requests.lock:
            if not self.requests.closed:
                self.requests.admitting = False
                for worker in self._workers:
                    self._stop_worker(worker)
                self.requests.close()
                self._pending.clear()
                self._replay.clear()
                self._owner.clear()
            return dict(self.requests.results)

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- observability -------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Liveness summary (:class:`~repro.serving.api.Engine`
        protocol): healthy while at least one worker is alive and the
        cluster has not been closed."""
        alive = self.workers_alive
        return {
            "healthy": alive > 0 and not self.requests.closed,
            "workers_alive": alive,
            "workers_total": self.n_workers,
            "workers": {
                w.slot: {
                    "alive": w.alive,
                    "restarts": w.restarts,
                    "retired": w.retired,
                }
                for w in self._workers
            },
        }

    def render_prometheus(self) -> str:
        """Cluster-local metrics in the Prometheus text format
        (:class:`~repro.serving.api.Engine` protocol)."""
        return render_prometheus(self.metrics.registry)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Aggregate summary, cluster instruments and per-worker state."""
        return {
            "aggregate": self.metrics.aggregate(),
            "instruments": self.metrics.registry.snapshot(),
            "workers": {
                w.slot: {
                    "alive": w.alive,
                    "pid": w.pid,
                    "booted": w.booted,
                    "restarts": w.restarts,
                    "incarnation": w.incarnation,
                    "retired": w.retired,
                    "assigned": len(self._assigned(w)),
                    "heartbeat": dict(w.stats),
                }
                for w in self._workers
            },
            "pending": len(self._pending),
            "replaying": len(self._replay),
        }
