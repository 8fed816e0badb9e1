"""Deterministic fault injection: named points, seeded schedules, typed errors.

Production serving engines are hardened by *failure-injection tests* —
kill a worker mid-decode, drop a write between buffer and disk — and the
ROADMAP names exactly those tests as the prerequisite for the sharded
multi-worker engine.  This module is the substrate they drive: a seeded
:class:`FaultInjector` that raises typed faults at **named injection
points** threaded through the stack, on a schedule that is a pure
function of the spec and the seed (so a failing chaos run replays
bit-identically).

Follows the :mod:`repro.telemetry` opt-in contract:

* **Zero-cost when disabled.**  No injector is installed by default;
  :func:`fault_point` is one attribute load and a ``None`` check before
  returning, so instrumented hot paths (kernel GEMMs, decode steps) stay
  within noise of uninstrumented ones (gated by the ``fault_overhead``
  benchmark).
* **Opt-in via environment or API.**  ``REPRO_FAULTS="<spec>"`` installs
  an injector at import time (``REPRO_FAULTS_SEED`` seeds it);
  :func:`install` / :func:`use_faults` do the same from code.

Injection points are named ``subsystem.op`` after the telemetry span
convention (see CONTRIBUTING)::

    kernels.matmul            the kernel layer's one GEMM entry
    kernels.butterfly_apply   fused butterfly ladder entry
    serving.prefill           each request of a prefill wave, before its call
    serving.decode_step       batched single-token decode
    serving.sample            per-request token sampling
    worker.step               cluster worker engine-step loop (a ``fatal``
                              here kills the *process*, not a request —
                              the supervisor's failover path recovers)
    io.save                   checkpoint write, between temp file and rename

Spec strings are ``;``-separated rules, each
``point:kind[:key=value[,key=value...]]``::

    REPRO_FAULTS="serving.decode_step:transient:after=2,every=3,times=5"
    REPRO_FAULTS="io.save:fatal"  # first save dies

``kind`` is ``transient`` (retryable — the resilience layer rolls back
and retries) or ``fatal`` (not retryable — the victim request fails).
``after`` skips the first N traversals of the point, ``every`` fires on
each Nth traversal thereafter, ``times`` caps total fires (default 1;
0 = unlimited), and ``p`` fires probabilistically per traversal from the
injector's seeded stream (still deterministic for a fixed seed).

Faults raised here are *errors by construction*: :class:`TransientFault`
models recoverable glitches (a lost worker, a flaky kernel launch),
:class:`FatalFault` models unrecoverable ones (corrupted state).  The
serving resilience layer (:mod:`repro.serving.resilience`) turns the
former into bit-identical retries and the latter into single-request
failures instead of a poisoned batch.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .telemetry import counter_inc

__all__ = [
    "FaultError",
    "TransientFault",
    "FatalFault",
    "FaultRule",
    "FaultInjector",
    "INJECTION_POINTS",
    "KINDS",
    "STATE",
    "active",
    "fault_point",
    "get_injector",
    "install",
    "install_from_env",
    "parse_fault_spec",
    "rules_to_spec",
    "uninstall",
    "use_faults",
]

#: Known injection points (``subsystem.op``).  Rules naming an unknown
#: point fail fast at parse time — a typo'd chaos spec that silently
#: never fires is worse than an error.
INJECTION_POINTS = {
    "kernels.matmul",
    "kernels.butterfly_apply",
    "serving.prefill",
    "serving.decode_step",
    "serving.sample",
    "worker.step",
    "io.save",
}

KINDS = ("transient", "fatal")


class FaultError(Exception):
    """Base class of injected faults; carries the point and call context."""

    def __init__(self, point: str, context: Optional[dict] = None,
                 rule: Optional["FaultRule"] = None) -> None:
        self.point = point
        self.context = dict(context or {})
        self.rule = rule
        detail = f" [{self.context}]" if self.context else ""
        super().__init__(f"injected {self.kind} fault at {point}{detail}")

    kind = "fault"

    @property
    def request_id(self) -> Optional[int]:
        """The victim request, when the point is request-scoped."""
        rid = self.context.get("request_id")
        return int(rid) if rid is not None else None


class TransientFault(FaultError):
    """Recoverable: the resilience layer rolls back and retries."""

    kind = "transient"


class FatalFault(FaultError):
    """Unrecoverable: the affected request fails, the batch survives."""

    kind = "fatal"


_FAULT_CLASSES = {"transient": TransientFault, "fatal": FatalFault}


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: fire ``kind`` at ``point`` per the counters.

    A rule observes every traversal of its point.  Traversal ``h``
    (1-based) is *eligible* when ``h > after`` and
    ``(h - after - 1) % every == 0``; an eligible traversal fires unless
    ``times`` fires already happened (``times=0`` means unlimited) — or,
    with ``p`` set, fires with probability ``p`` from the injector's
    seeded stream instead of unconditionally.
    """

    point: str
    kind: str = "transient"
    after: int = 0
    every: int = 1
    times: int = 1
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; known: "
                f"{sorted(INJECTION_POINTS)}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, got {self.kind!r}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")


def parse_fault_spec(spec: str) -> List[FaultRule]:
    """Parse a ``;``-separated spec string into :class:`FaultRule` list.

    Each rule is ``point:kind[:key=value[,key=value...]]`` with keys
    ``after`` / ``every`` / ``times`` (ints) and ``p`` (float).
    """
    rules: List[FaultRule] = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split(":")
        if len(parts) < 2 or len(parts) > 3:
            raise ValueError(
                f"bad fault rule {raw!r}: expected "
                "'point:kind[:key=value,...]'"
            )
        point, kind = parts[0].strip(), parts[1].strip()
        kwargs: Dict[str, object] = {}
        if len(parts) == 3 and parts[2].strip():
            for pair in parts[2].split(","):
                if "=" not in pair:
                    raise ValueError(
                        f"bad fault option {pair!r} in rule {raw!r}: "
                        "expected key=value"
                    )
                key, value = (s.strip() for s in pair.split("=", 1))
                if key in ("after", "every", "times"):
                    kwargs[key] = int(value)
                elif key == "p":
                    kwargs[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} in rule {raw!r}; "
                        "known: after, every, times, p"
                    )
        rules.append(FaultRule(point=point, kind=kind, **kwargs))
    if not rules:
        raise ValueError(f"fault spec {spec!r} contains no rules")
    return rules


def rules_to_spec(rules: Sequence[FaultRule]) -> str:
    """Serialize rules back into a spec string (:func:`parse_fault_spec`
    inverse).  Round-tripping lets a supervisor hand its installed fault
    schedule to spawned worker processes via ``REPRO_FAULTS``."""
    parts: List[str] = []
    for rule in rules:
        opts = []
        if rule.after:
            opts.append(f"after={rule.after}")
        if rule.every != 1:
            opts.append(f"every={rule.every}")
        if rule.times != 1:
            opts.append(f"times={rule.times}")
        if rule.p is not None:
            opts.append(f"p={rule.p:g}")
        fields = [rule.point, rule.kind] + ([",".join(opts)] if opts else [])
        parts.append(":".join(fields))
    return ";".join(parts)


class FaultInjector:
    """Seeded, thread-safe scheduler of injected faults.

    ``check(point, context)`` advances every rule watching ``point`` and
    raises the first that fires.  All counters live here, so the
    schedule is global across threads (a ``ServerThread`` steps its
    engine off the caller's thread) and a rolled-back serving step
    *keeps* its consumed traversals — which is exactly what makes
    retry-after-rollback deterministic: the fault that already fired is
    spent.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: List[int] = [0] * len(self.rules)
        self._fired: List[int] = [0] * len(self.rules)
        self._injected: Dict[Tuple[str, str], int] = {}

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        return cls(parse_fault_spec(spec), seed=seed)

    # ------------------------------------------------------------------
    def check(self, point: str, context: Optional[dict] = None) -> None:
        """Advance rules watching ``point``; raise if one fires."""
        fire: Optional[Tuple[int, FaultRule]] = None
        with self._lock:
            for i, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                self._hits[i] += 1
                h = self._hits[i]
                if h <= rule.after or (h - rule.after - 1) % rule.every:
                    continue
                if rule.times and self._fired[i] >= rule.times:
                    continue
                if rule.p is not None and self._rng.random() >= rule.p:
                    continue
                if fire is None:  # first matching rule wins, later rules
                    fire = (i, rule)  # still consume their traversal
            if fire is not None:
                i, rule = fire
                self._fired[i] += 1
                key = (point, rule.kind)
                self._injected[key] = self._injected.get(key, 0) + 1
        if fire is not None:
            _, rule = fire
            counter_inc("faults_injected_total", point=point, kind=rule.kind)
            raise _FAULT_CLASSES[rule.kind](point, context, rule)

    # ------------------------------------------------------------------
    @property
    def injected_total(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready stats: fires per (point, kind) plus rule counters."""
        with self._lock:
            return {
                "injected_total": sum(self._injected.values()),
                "injected": {
                    f"{point}:{kind}": count
                    for (point, kind), count in sorted(self._injected.items())
                },
                "rules": [
                    {
                        "point": rule.point, "kind": rule.kind,
                        "hits": self._hits[i], "fired": self._fired[i],
                    }
                    for i, rule in enumerate(self.rules)
                ],
            }


# ----------------------------------------------------------------------
# Global installation (mirrors telemetry.STATE: one attribute load gates
# every instrumented hot path)
# ----------------------------------------------------------------------
class _State:
    __slots__ = ("injector",)

    def __init__(self) -> None:
        self.injector: Optional[FaultInjector] = None


STATE = _State()


def active() -> bool:
    """Whether an injector is installed (faults may fire)."""
    return STATE.injector is not None


def get_injector() -> Optional[FaultInjector]:
    return STATE.injector


def install(injector: FaultInjector) -> None:
    """Install ``injector`` process-wide; points start firing per spec."""
    STATE.injector = injector


def uninstall() -> None:
    """Remove the installed injector; every point returns to no-op."""
    STATE.injector = None


class use_faults:
    """Scope an injector: ``with use_faults("io.save:fatal"): ...``.

    Accepts an injector, a spec string, or a rule list; restores the
    previously installed injector (usually ``None``) on exit.
    """

    def __init__(self, injector, seed: int = 0) -> None:
        if isinstance(injector, str):
            injector = FaultInjector.from_spec(injector, seed=seed)
        elif isinstance(injector, (list, tuple)):
            injector = FaultInjector(injector, seed=seed)
        self.injector = injector
        self._prev: Optional[FaultInjector] = None

    def __enter__(self) -> FaultInjector:
        self._prev = STATE.injector
        STATE.injector = self.injector
        return self.injector

    def __exit__(self, *exc) -> bool:
        STATE.injector = self._prev
        return False


def fault_point(point: str, **context) -> None:
    """Traverse an injection point; raises when the installed schedule
    says so, returns immediately (no allocation) when none is installed.
    """
    injector = STATE.injector
    if injector is None:
        return
    injector.check(point, context)


def install_from_env() -> Optional[FaultInjector]:
    """Install an injector from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``."""
    spec = os.environ.get("REPRO_FAULTS")
    if not spec:
        return None
    seed = int(os.environ.get("REPRO_FAULTS_SEED", "0"))
    injector = FaultInjector.from_spec(spec, seed=seed)
    install(injector)
    return injector


install_from_env()
