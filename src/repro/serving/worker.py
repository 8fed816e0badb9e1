"""Cluster worker: one serving replica in its own process fault domain.

:func:`worker_main` is the entry point the supervisor
(:class:`repro.serving.cluster.ClusterEngine`) spawns into a child
process.  It owns a private :class:`~repro.serving.engine.ServingEngine`
replica and speaks a small message protocol over a duplex
``multiprocessing`` pipe:

parent → child
    ``("submit", gid, prompt, params)``  queue a session (global id)
    ``("cancel", gid)``                  cancel a queued/running session
    ``("stop",)``                        close the engine and exit 0

child → parent
    ``("hello", pid)``                   boot complete, engine ready
    ``("events", [(gid, token, finished, reason), ...])``  step output
    ``("heartbeat", stats)``             liveness + queue/batch/fault stats
    ``("stopped", stats)``               graceful-stop acknowledgement
    ``("fatal", message)``               unexpected crash, about to exit

The worker traverses the ``worker.step`` fault point before every engine
step: an injected :class:`~repro.faults.FatalFault` there **kills the
process** (``os._exit``, no goodbye message — indistinguishable from a
``SIGKILL`` to the supervisor), which is how chaos tests exercise the
failover path without real signals.  Transient/fatal faults at the inner
serving points keep their PR-8 semantics inside the worker's own
resilient engine step.

:func:`child_environment` is the one env-prep helper shared by the
cluster and the tests: it pins the BLAS/OMP pools to one thread and
serializes the parent's live fault-injection and telemetry opt-ins into
``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` / ``REPRO_TELEMETRY``, so a
spawned child (or a subprocess-driven CLI) behaves exactly like the
process that launched it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faults
from ..faults import FatalFault, FaultRule, fault_point, rules_to_spec
from ..telemetry import enabled as telemetry_enabled

__all__ = [
    "BLAS_PIN_VARS",
    "WORKER_FAULT_EXIT",
    "WorkerConfig",
    "child_environment",
    "worker_main",
]

#: Thread-pool pins propagated into every worker (see scripts/verify.sh):
#: one BLAS thread is the byte-stable setting, and multi-core serving is
#: ``--workers N`` processes, one engine and one BLAS thread each.
BLAS_PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Seconds between two heartbeats, sent also while idle; the cluster
#: declares a worker hung after ``cluster.HEARTBEAT_TIMEOUT_S`` without one.
HEARTBEAT_INTERVAL_S = 0.05
#: How long an idle worker waits on its pipe before the next heartbeat check.
IDLE_POLL_S = 0.01

#: Exit code of a worker killed by an injected ``worker.step`` fatal
#: fault — distinguishable from real crashes (1) and signals (<0) in
#: supervisor logs, identical in recovery semantics.
WORKER_FAULT_EXIT = 23


def child_environment(base: Optional[dict] = None) -> Dict[str, str]:
    """Environment for a child process so its behavior matches the parent.

    Starts from ``base`` (default: a copy of ``os.environ``), then

    * pins every BLAS/OMP pool variable to ``"1"`` unless already set;
    * exports the parent's *installed* fault injector — even one
      installed via the API rather than ``REPRO_FAULTS`` — as a spec
      string plus its seed, so the child's import-time
      :func:`repro.faults.install_from_env` rebuilds the same schedule
      (with fresh counters: each fault domain runs its own schedule);
    * exports ``REPRO_TELEMETRY=1`` when telemetry is enabled here, and
      drops a stale opt-in when it is not.

    Used by the cluster before spawning workers and by tests that drive
    the CLI through ``subprocess``.
    """
    env = dict(os.environ if base is None else base)
    for var in BLAS_PIN_VARS:
        env.setdefault(var, "1")
    injector = faults.get_injector()
    if injector is not None and injector.rules:
        env["REPRO_FAULTS"] = rules_to_spec(injector.rules)
        env["REPRO_FAULTS_SEED"] = str(injector.seed)
    else:
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_SEED", None)
    if telemetry_enabled():
        env["REPRO_TELEMETRY"] = "1"
    else:
        env.pop("REPRO_TELEMETRY", None)
    return env


@dataclass
class WorkerConfig:
    """Everything a worker process needs beyond the model itself.

    ``fault_rules=None`` inherits whatever the child's environment (or,
    under the ``fork`` start method, the parent's installed injector)
    provides; an explicit list — possibly empty, which uninstalls —
    replaces it.
    """

    worker_id: int
    max_batch_size: int = 8
    seed: int = 0
    quantize: Optional[str] = None
    resilience: Optional[object] = None
    fault_rules: Optional[List[FaultRule]] = None
    fault_seed: int = 0


def _apply_worker_state(config: WorkerConfig) -> None:
    """Install the supervisor's fault schedule for this worker."""
    if config.fault_rules is not None:
        if config.fault_rules:
            faults.install(
                faults.FaultInjector(config.fault_rules, seed=config.fault_seed)
            )
        else:
            faults.uninstall()


def _translate(events, engine, gid_by_local: Dict[int, int]) -> List[Tuple]:
    """Step events as pipe tuples.  A finished event carries the reason
    the engine's table recorded: a row dropped for its deadline surfaces
    from the scheduler as ``cancelled``, but it finished as ``deadline``."""
    out = []
    for event in events:
        gid = gid_by_local.get(event.request_id)
        if gid is not None:
            reason = (
                engine.result(event.request_id).finish_reason
                if event.finished else None
            )
            out.append((gid, event.token, event.finished, reason))
    return out


def worker_main(conn, model, config: WorkerConfig) -> None:
    """Run one serving replica until told to stop (or killed).

    The loop interleaves three duties: drain supervisor commands from
    the pipe, advance the engine one step when it has work (forwarding
    the step's events), and emit a heartbeat every
    :data:`HEARTBEAT_INTERVAL_S` — also while idle, so a wedged worker and a
    quiet one are distinguishable.
    """
    try:
        _apply_worker_state(config)
        # Import after the fault schedule is installed so even
        # lazily-loaded modules see it.
        from .engine import ServingEngine

        engine = ServingEngine(
            model,
            max_batch_size=config.max_batch_size,
            seed=config.seed,
            quantize=config.quantize,
            resilience=config.resilience,
        )
        gid_by_local: Dict[int, int] = {}
        local_by_gid: Dict[int, int] = {}
        steps = 0
        last_heartbeat = 0.0
        conn.send(("hello", os.getpid()))
        while True:
            timeout = 0.0 if engine.has_work else IDLE_POLL_S
            while conn.poll(timeout):
                timeout = 0.0
                msg = conn.recv()
                kind = msg[0]
                if kind == "submit":
                    _, gid, prompt, params = msg
                    local = engine.submit(
                        np.asarray(prompt, dtype=np.int64), params
                    )
                    gid_by_local[local] = gid
                    local_by_gid[gid] = local
                    result = engine.result(local)
                    if result.finished:  # e.g. shed at the replica door
                        conn.send(("events", [
                            (gid, None, True, result.finish_reason)
                        ]))
                elif kind == "cancel":
                    local = local_by_gid.get(msg[1])
                    if local is not None and engine.cancel(local):
                        conn.send(("events", [
                            (msg[1], None, True, "cancelled")
                        ]))
                elif kind == "stop":
                    engine.close()
                    conn.send(("stopped", {"steps": steps}))
                    return
                else:
                    raise ValueError(f"unknown worker command {kind!r}")
            if engine.has_work:
                fault_point("worker.step", worker_id=config.worker_id)
                events = engine.step()
                steps += 1
                payload = _translate(events, engine, gid_by_local)
                if payload:
                    conn.send(("events", payload))
            now = time.monotonic()
            if now - last_heartbeat >= HEARTBEAT_INTERVAL_S:
                last_heartbeat = now
                injector = faults.get_injector()
                conn.send(("heartbeat", {
                    "steps": steps,
                    "queue_depth": engine.scheduler.queue_depth,
                    "batch_size": engine.scheduler.batch_size,
                    "faults_injected": (
                        injector.injected_total if injector else 0
                    ),
                }))
    except FatalFault:
        # Simulated process death: no farewell message, no cleanup —
        # from the supervisor's side this is exactly a SIGKILL.
        os._exit(WORKER_FAULT_EXIT)
    except (EOFError, BrokenPipeError, OSError):
        # Supervisor vanished; nothing useful left to do.
        os._exit(1)
    except BaseException as exc:  # pragma: no cover - defensive
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        os._exit(1)
