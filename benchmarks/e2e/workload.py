"""The shape every workload has: seeded inputs, set-up with warm-up, a
measured window, an output oracle outside it, and standalone probes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import harness

#: ``--seconds`` the operation counts below are calibrated for on the
#: 2-core reference box; another value scales every count in proportion.
REFERENCE_SECONDS = 12


@dataclass
class Measured:
    """What one pass over the measured window produced."""

    window_s: float
    attempted: int
    #: tokens/s of each round or chronological group of the window.
    rates: Sequence[float]
    #: ``harness.summarize`` of the user-visible operation, in ms.
    op: Dict[str, object]
    #: tokens one operation handles; with ``ttft``/``itl`` unset the
    #: output arrives whole, so the first token arrives with the last
    #: (ttft = op) and the per-token time is op / tokens_per_op.
    tokens_per_op: float = 1.0
    ttft: Optional[Dict[str, object]] = None
    itl: Optional[Dict[str, object]] = None
    #: share of operations sent that met the latency limit; workloads
    #: without one count every operation that passes its oracle.
    slo_ok_share: Optional[float] = None
    #: whatever ``check`` needs to judge the outputs.
    outputs: object = None
    #: layer metrics read at the window's boundaries (traced pass).
    layer: Dict[str, float] = field(default_factory=dict)
    #: the speed probe's slowdown during each round or group; every rate
    #: and timing above is already rescaled by it.
    slowdowns: Sequence[float] = ()

    @property
    def tokens_per_s(self) -> float:
        return harness.steady_rate(self.rates)

    @classmethod
    def of_operations(
        cls, probe: harness.SpeedProbe, spans: Sequence[Tuple[float, float]],
        tokens_per_op: int, per_group: bool = True, **rest
    ) -> "Measured":
        """A closed loop of equal operations, ``spans[i]`` the start and
        end of operation ``i``, with the speed probe ticked in between."""
        rates, times, slowdowns = harness.rescaled_operations(
            probe, spans, tokens_per_op, per_group=per_group)
        rest.setdefault("window_s", spans[-1][1] - spans[0][0])
        return cls(
            attempted=len(spans), rates=rates, op=harness.summarize(times),
            tokens_per_op=tokens_per_op, slowdowns=slowdowns, **rest,
        )


class Workload:
    """One workload.  ``seed`` drives input generation only; the program
    under test sees just the generated inputs."""

    name = ""
    #: set-up is repeated this often and ``setup_s`` is the median.
    setup_repeats = 3

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.scale = seconds / REFERENCE_SECONDS
        self.input_hash = ""
        self.probe = harness.SpeedProbe()

    def count(self, per_reference_run: int, at_least: int = harness.GROUPS) -> int:
        """An operation count fixed by ``--seconds``, never by the clock,
        so two runs of one command take the same samples."""
        return max(at_least, round(per_reference_run * self.scale))

    def setup(self) -> None:
        """Build everything the window needs and warm it up."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` made (processes, sockets)."""

    def measure(self, tracer: harness.Tracer) -> Measured:
        raise NotImplementedError

    def check(self, measured: Measured) -> int:
        """Run the output oracle; return how many operations failed."""
        raise NotImplementedError

    def probes(self) -> Dict[str, float]:
        """Standalone timings of public functions at this workload's
        shapes (traced pass, outside the window)."""
        return {}

    def setup_layer_metrics(self) -> Dict[str, float]:
        """Layer metrics observed during the last ``setup``."""
        return {}

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()
