"""The end-to-end benchmark: six workloads, kernels to HTTP.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--seconds N] [--trace 0|1] [--record FILE]

With ``--workload`` the workload runs in this process and the last line
of standard output is its result as one JSON object (the acceptance
driver's contract).  Without it every workload runs in a fresh
interpreter, untraced and — with ``--trace 1`` — traced, and every
metric is printed by name and unit.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
#: BLAS/OMP pool pins, the convention of scripts/verify.sh.
PIN_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def prepare_process() -> None:
    """Pin the BLAS/OMP pools to one thread (the repo convention; child
    processes inherit it), switch the program's opt-in telemetry and
    fault injection off, and put the program under test on the path.
    Runs before numpy is first imported."""
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    for name in PIN_VARS:
        os.environ[name] = "1"
    for name in ("REPRO_TELEMETRY", "REPRO_FAULTS"):
        os.environ.pop(name, None)


def workload_classes() -> dict:
    from wl_fabnet import EncodeLong, TrainFit
    from wl_http import HttpStream
    from wl_hwsim import HwSim
    from wl_serve import DecodeInt8, ServeOpen

    classes = (EncodeLong, TrainFit, ServeOpen, HttpStream, DecodeInt8, HwSim)
    return {cls.name: cls for cls in classes}


def user_visible_metrics(measured, setup_s: float, failed: int, rss_mb: float) -> dict:
    """What a user of the system sees in one untraced pass, each with a
    note (how the value was taken, from how many samples).  A ``p50`` is
    the steady level of the window's group medians (harness.py says
    why); a tail is the named percentile over every sample."""
    op = measured.op
    ttft = measured.ttft or op
    per_token = 1.0 / measured.tokens_per_op
    itl = measured.itl or {**op, "p50": op["p50"] * per_token,
                           "tail": op["tail"] * per_token}
    passed = (measured.attempted - failed) / measured.attempted
    slo = passed if measured.slo_ok_share is None else measured.slo_ok_share

    def timing(summary, key):
        q = 50 if key == "p50" else summary["tail_q"]
        return summary[key], f"p{q} of {summary['n']}"

    return {
        "setup_s": (setup_s, "median of set-ups, rescaled"),
        "tokens_per_s": (measured.tokens_per_s, "steady level of group rates"),
        "op_p50_ms": timing(op, "p50"),
        "op_tail_ms": timing(op, "tail"),
        "ttft_p50_ms": timing(ttft, "p50"),
        "ttft_tail_ms": timing(ttft, "tail"),
        "itl_p50_ms": timing(itl, "p50"),
        "itl_tail_ms": timing(itl, "tail"),
        "slo_ok_share": (slo, f"of {measured.attempted} sent"),
        "peak_rss_mb": (rss_mb, "ru_maxrss"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up (several times), warm up, measure, check; in the traced
    pass measure again with spans on and run the standalone probes."""
    import numpy as np

    import harness
    from layers import LAYER_METRICS

    started = harness.clock()
    contract = harness.load_contract()
    workload = workload_classes()[name](seed, seconds)
    setups = []
    try:
        probe = workload.probe
        for _ in range(workload.setup_repeats):
            workload.teardown()
            sampled = harness.clock()
            probe.sample()
            t0 = harness.clock()
            workload.setup()
            elapsed = harness.clock() - t0
            probe.sample()
            setups.append(elapsed / probe.slowdown(sampled, harness.clock()))
        measured = workload.measure(harness.Tracer(enabled=False))
        failed = workload.check(measured)
        attempted = measured.attempted
        noted = user_visible_metrics(
            measured, float(np.median(setups)), failed, workload.peak_rss_mb())
        if not trace:
            noted = {m["name"]: noted[m["name"]] for m in contract["end_to_end"]}
        else:
            # A fresh set-up, so the traced pass starts from the state
            # the untraced one started from (train_fit trains its model).
            workload.teardown()
            workload.setup()
            tracer = harness.Tracer()
            traced = workload.measure(tracer)
            failed += workload.check(traced)
            attempted += traced.attempted
            tracer.write_chrome(harness.OUT_DIR / f"trace_{name}.json")
            layer = dict.fromkeys(LAYER_METRICS, 0.0)
            layer.update(workload.setup_layer_metrics())
            layer.update(traced.layer)
            layer.update(workload.probes())
            layer["trace.coverage_share"] = tracer.coverage_share(traced.window_s)
            layer["trace.overhead_share"] = (
                1.0 - traced.tokens_per_s / measured.tokens_per_s)
            unknown = set(layer) - set(LAYER_METRICS)
            if unknown:
                raise RuntimeError(f"unregistered layer metrics: {sorted(unknown)}")
            noted = {
                key: noted.get(key) or (
                    float(value), "exact" if LAYER_METRICS[key].exact else "")
                for key, value in layer.items()
            }
    finally:
        workload.teardown()
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units.update({key: spec.unit for key, spec in LAYER_METRICS.items()})
    return {
        "workload": name,
        "trace": int(trace),
        "correct": bool(failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, (value, _) in noted.items()
        },
        "notes": {key: note for key, (_, note) in noted.items() if note},
        # The untraced window's per-group values behind the steady levels.
        "groups": {
            "slowdown": list(measured.slowdowns),
            "tokens_per_s": list(measured.rates),
            "op_ms": measured.op["groups"],
            **({"ttft_ms": measured.ttft["groups"]} if measured.ttft else {}),
            **({"itl_ms": measured.itl["groups"]} if measured.itl else {}),
        },
        "setup_runs_s": setups,
        "provenance": harness.provenance(
            seed, workload.input_hash, harness.clock() - started),
    }


def print_metrics(result: dict) -> None:
    """Every metric this workload measures, by name and unit.  (The JSON
    line carries all per-layer names; those of layers the workload does
    not run are 0 there and left out here.)"""
    from layers import LAYER_METRICS

    notes = result["notes"]
    for key, metric in result["metrics"].items():
        spec = LAYER_METRICS.get(key)
        if spec is None or result["workload"] in spec.measured_on:
            print(f"  {key:<34} {metric['value']:>16.6g} {metric['unit']:<8} "
                  f"{notes.get(key, '')}")


def run_one(args) -> int:
    import harness

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{result['workload']} (trace {result['trace']}): "
          f"{json.dumps(result['provenance'], sort_keys=True)}")
    print_metrics(result)
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = harness.OUT_DIR / f"result_{args.workload}_trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    contract_keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: result[key] for key in contract_keys}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up time, peak RSS and
    warm caches never leak from one workload into the next."""
    import harness

    names = [w["name"] for w in harness.load_contract()["workloads"]]
    status = 0
    for name in names:
        for trace in range(args.trace + 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.record:
                command += ["--record", args.record]
            done = subprocess.run(
                command, cwd=REPO_ROOT, capture_output=True, text=True)
            # Everything but the contract's JSON line is for people.
            print("\n".join(done.stdout.splitlines()[:-1]))
            if done.returncode != 0:
                status = 1
                print(f"{name} (trace {trace}) FAILED "
                      f"(exit {done.returncode})\n{done.stderr}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process (default: all six)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives input generation only")
    parser.add_argument("--seconds", type=int, default=None,
                        help="scales the operation counts (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 repeats the window with spans on and prints "
                             "the per-layer metrics")
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="append each full result as one JSON line "
                             "(the input of compare.py)")
    args = parser.parse_args(argv)
    prepare_process()
    import harness

    contract = harness.load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.workload is None:
        return run_all(args)
    known = [w["name"] for w in contract["workloads"]]
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
