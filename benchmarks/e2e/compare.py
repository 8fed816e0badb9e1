"""Compare two sets of recorded runs, metric by metric.

    python benchmarks/e2e/compare.py --base A.jsonl [A2.jsonl ...] \\
                                     --change B.jsonl [B2.jsonl ...]

Each file holds results appended by ``run.py --record FILE``.  For every
(workload, end-to-end metric) pair the table gives the median and
quartiles of each side, the bound ``BENCHMARK.json`` fixes for the
metric, and a verdict by the rules of the choosing-metrics guide (§6.5,
§8):

``worse``       the change's median is worse than the base's by more
                than the bound (a share of the base's median);
``better``      each side has at least ten runs, the change wins at least
                nine tenths of the run pairs (run ``i`` of one side
                against run ``i`` of the other, ties counting for
                neither) and the medians differ by more than the
                distance between the base's quartiles;
``unresolved``  the distance between either side's quartiles is wider
                than the bound, so neither ``same`` nor ``worse`` can be
                told — unless every run of one side beats every run of
                the other, which settles it;
``same``        none of the above.

Metrics flagged exact in ``layers.py``, and the ``failed`` count, must
be identical in every run of one seed on both sides; any difference is
``changed``.
Exit status: 1 if any pair is ``worse`` or ``changed``, else 2 if any is
``unresolved``, else 0.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Dict, List, NamedTuple, Sequence, Tuple

import harness
from layers import LAYER_METRICS

WIN_SHARE = 0.9
#: No gain is claimed from fewer pairs of runs than this (§8).
MIN_PAIRS = 10


class Side(NamedTuple):
    q1: float
    median: float
    q3: float
    n: int


def side(values: Sequence[float]) -> Side:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them (a single run is its own median with no spread)."""
    if len(values) < 2:
        return Side(values[0], values[0], values[0], len(values))
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Side(q1, median, q3, len(values))


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one
    (workload, metric) pair; ``better`` names the good direction
    (``"lower"`` or ``"higher"``) and ``bound`` is a share of the base's
    median."""
    # Work on goodness g = +-value, so that higher is better throughout.
    sign = -1.0 if better == "lower" else 1.0
    good_base = [sign * v for v in base]
    good_change = [sign * v for v in change]
    a, b = side(good_base), side(good_change)
    allowed = bound * abs(a.median)
    gain = b.median - a.median
    if max(a.q3 - a.q1, b.q3 - b.q1) > allowed:
        if min(good_change) > max(good_base):
            return "better"
        if max(good_change) < min(good_base) and -gain > allowed:
            return "worse"
        return "unresolved"
    if -gain > allowed:
        return "worse"
    pairs = [y - x for x, y in zip(good_base, good_change) if y != x]
    wins = sum(1 for d in pairs if d > 0)
    if (min(len(base), len(change)) >= MIN_PAIRS and pairs
            and wins >= WIN_SHARE * len(pairs) and gain > a.q3 - a.q1):
        return "better"
    return "same"


def load(paths: Sequence[str]) -> Dict[Tuple[str, int], List[dict]]:
    """Recorded results by (workload, traced)."""
    runs: Dict[Tuple[str, int], List[dict]] = {}
    for result in harness.iter_jsonl(paths):
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def values(runs: Sequence[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def compare(base_paths: Sequence[str], change_paths: Sequence[str]) -> int:
    contract = harness.load_contract()
    base, change = load(base_paths), load(change_paths)
    counts = {"better": 0, "same": 0, "worse": 0, "unresolved": 0, "changed": 0}
    header = (f"{'workload':<12} {'metric':<16} {'base q1/median/q3':>36} "
              f"{'change q1/median/q3':>36} {'bound':>6}  verdict")
    print(header)
    for workload in (w["name"] for w in contract["workloads"]):
        a_runs, b_runs = base.get((workload, 0), []), change.get((workload, 0), [])
        if not a_runs or not b_runs:
            continue
        for spec in contract["end_to_end"]:
            a, b = values(a_runs, spec["name"]), values(b_runs, spec["name"])
            result = verdict(a, b, spec["better"], spec["bound"])
            counts[result] += 1
            sa, sb = side(a), side(b)
            print(f"{workload:<12} {spec['name']:<16} "
                  f"{sa.q1:>11.5g}/{sa.median:>11.5g}/{sa.q3:>11.5g} "
                  f"{sb.q1:>11.5g}/{sb.median:>11.5g}/{sb.q3:>11.5g} "
                  f"{spec['bound']:>6}  {result} (n={sa.n},{sb.n})")
        for trace in (0, 1):
            runs = base.get((workload, trace), []) + change.get((workload, trace), [])
            names = ["failed"] + [
                name for name, spec in LAYER_METRICS.items()
                if trace and spec.exact and workload in spec.measured_on]
            for seed in sorted({run["provenance"]["seed"] for run in runs}):
                same_seed = [r for r in runs if r["provenance"]["seed"] == seed]
                for name in names:
                    seen = ({run["failed"] for run in same_seed} if name == "failed"
                            else set(values(same_seed, name)))
                    if len(seen) > 1:
                        counts["changed"] += 1
                        print(f"{workload:<12} {name:<34} seed {seed}: exact "
                              f"metric differs between runs: {sorted(seen)}  changed")
    print(", ".join(f"{n} {name}" for name, n in counts.items()))
    if counts["worse"] or counts["changed"]:
        return 1
    return 2 if counts["unresolved"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="FILE",
                        help="recorded runs of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE",
                        help="recorded runs of the change")
    args = parser.parse_args(argv)
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
