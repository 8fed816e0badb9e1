"""The benchmark's own rules, checked without running a model: the
statistics, the seeded arrival plan, the span arithmetic, the shape of
``BENCHMARK.json`` and the verdicts of ``compare.py``."""

import json
import re

import numpy as np
import pytest

import compare
import harness
from layers import LAYER_METRICS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (9, None), (99, None), (100, 90), (199, 90), (200, 95), (999, 95),
    (1000, 99), (5000, 99),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_summarize_reports_percentile_and_count():
    summary = harness.summarize(harness.chronological(list(range(1, 201))))
    assert summary["tail_q"] == 95 and summary["n"] == 200
    assert summary["tail"] == pytest.approx(np.percentile(range(1, 201), 95))
    few = harness.summarize([[3.0, 1.0, 2.0]])
    assert (few["p50"], few["tail"], few["tail_q"], few["n"]) == (2.0, 2.0, 50, 3)
    with pytest.raises(ValueError):
        harness.summarize([[]])


def test_chronological_groups_are_contiguous_and_equal_to_within_one():
    groups = harness.chronological(list(range(21)))
    assert len(groups) == harness.GROUPS
    assert [x for g in groups for x in g] == list(range(21))
    assert {len(g) for g in groups} <= {2, 3}
    assert harness.chronological([5, 6, 7]) == [[5], [6], [7]]


def test_steady_level_ignores_a_slow_spell():
    """Five of eight groups run 1.5x slower; the reported level is still
    the undisturbed one, where the plain median is not."""
    quiet, slow = [10.0] * 10, [15.0] * 10
    groups = [slow] * 3 + [quiet] * 3 + [slow] * 2
    assert harness.summarize(groups)["p50"] == 10.0
    assert np.median(np.concatenate(groups)) == 15.0
    assert harness.steady_rate([100.0] * 3 + [66.0] * 5) == 100.0


def test_group_rates_use_each_groups_own_wall_time():
    # 8 operations of 10 tokens; the second half takes twice as long.
    ends = [1, 2, 3, 4, 6, 8, 10, 12]
    rates = harness.group_rates(0.0, ends, [10] * 8, groups=4)
    assert rates == [10.0, 10.0, 5.0, 5.0]
    with pytest.raises(ValueError):
        harness.group_rates(0.0, ends, [10] * 7)


def fake_probe(times, slowdowns):
    probe = harness.SpeedProbe()
    probe.times, probe.slowdowns = list(times), list(slowdowns)
    return probe


def test_probe_slowdown_is_the_median_of_the_samples_in_the_interval():
    probe = fake_probe([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.2, 3.0, 1.4, 2.0])
    assert probe.slowdown(1.5, 4.5) == 1.4
    assert probe.slowdown(0.0, 9.0) == 1.4
    # No sample inside: the nearest one on either side.
    assert probe.slowdown(2.2, 2.8) == pytest.approx(2.1)
    assert probe.slowdown(7.0, 8.0) == 2.0
    with pytest.raises(RuntimeError):
        harness.SpeedProbe().slowdown(0.0, 1.0)


def test_probe_ticks_at_most_once_per_period():
    probe = harness.SpeedProbe()
    probe.tick()
    probe.tick()
    assert len(probe.times) == len(probe.slowdowns) == 1
    assert probe.slowdowns[0] > 0
    probe.sample()
    assert len(probe.times) == 2


def test_rescaled_operations_divide_out_the_machines_slowdown():
    """The second half of the window ran on a machine twice as slow:
    rescaled, both halves read the same."""
    spans = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 6.0)]
    probe = fake_probe([0.5, 1.5, 3.0, 5.0], [1.0, 1.0, 2.0, 2.0])
    rates, times, slowdowns = harness.rescaled_operations(probe, spans, 10, groups=2)
    assert slowdowns == [1.0, 2.0]
    assert times == [[1000.0, 1000.0], [1000.0, 1000.0]]
    assert rates == [10.0, 10.0]


def test_poisson_plan_depends_on_the_seed_only():
    def plan(seed):
        return harness.poisson_arrivals(np.random.default_rng([seed, 2]), 30.0, 50)

    assert plan(7) == plan(7)
    assert plan(7) != plan(8)
    assert all(b > a for a, b in zip(plan(7), plan(7)[1:]))
    assert plan(7)[-1] == pytest.approx(50 / 30.0, rel=0.5)


def test_input_hash_covers_values_shape_and_dtype():
    a = np.arange(6).reshape(2, 3)
    assert harness.input_hash(a, [1, 2]) == harness.input_hash(a.copy(), [1, 2])
    assert harness.input_hash(a) != harness.input_hash(a.reshape(3, 2))
    assert harness.input_hash(a) != harness.input_hash(a.astype(np.int32))
    assert harness.input_hash(a, [1, 2]) != harness.input_hash(a, [1, 3])


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    tracer = harness.Tracer()
    with tracer.span("outer", request_id=3):
        tracer.add("inner", 10.0, 10.25)
        with tracer.span("inner"):
            tracer.add("leaf", 20.0, 20.5)
    (outer, o_start, o_end, o_parent, o_request, _), *rest = tracer.spans
    assert (outer, o_parent, o_request) == ("outer", -1, 3)
    assert [span[3] for span in rest] == [0, 0, 2]
    self_times = tracer.self_times()
    inner_span = tracer.spans[2]
    assert self_times["leaf"] == 0.5
    assert self_times["inner"] == pytest.approx(
        0.25 + (inner_span[2] - inner_span[1]) - 0.5)
    assert self_times["outer"] == pytest.approx(
        (o_end - o_start) - 0.25 - (inner_span[2] - inner_span[1]))
    assert tracer.count("inner") == 2
    assert tracer.coverage_share(sum(self_times.values())) == pytest.approx(1.0)


def test_disabled_tracer_records_nothing():
    tracer = harness.Tracer(enabled=False)
    with tracer.span("x"):
        tracer.add("y", 0.0, 1.0)
    assert tracer.spans == [] and tracer.total("x") == 0.0


def test_chrome_trace_round_trips(tmp_path):
    tracer = harness.Tracer()
    with tracer.span("a", request_id=1, track=2):
        pass
    tracer.write_chrome(tmp_path / "out" / "trace.json")
    (event,) = json.loads((tmp_path / "out" / "trace.json").read_text())["traceEvents"]
    assert event["name"] == "a" and event["ph"] == "X" and event["tid"] == 2
    assert event["args"] == {"parent": -1, "request_id": 1}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def contract():
    return harness.load_contract()


def test_contract_keys_counts_and_names(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"][-1].startswith(contract["paths"][0] + "/")
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_layer_table_matches_the_contract(contract):
    assert tuple(w["name"] for w in contract["workloads"]) == WORKLOADS
    listed = {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]}
    assert listed == {
        name: (spec.unit, spec.better) for name, spec in LAYER_METRICS.items()}
    assert all(set(m) == {"name", "unit", "better"} for m in contract["per_layer"])


def test_every_layer_metric_names_what_it_should_move(contract):
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    for name, spec in LAYER_METRICS.items():
        assert spec.measured_on and set(spec.measured_on) <= set(WORKLOADS), name
        for metric, workload in spec.moves:
            assert metric in end_to_end and workload in WORKLOADS, name
        if not spec.moves:
            # Only exact simulated statistics, ungated tails and the
            # recorder's own figures move nothing.
            assert (spec.exact or name.startswith("trace.")
                    or name.endswith("_tail_ms")), name


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


@pytest.mark.parametrize("change, better, expected", [
    ([v * 1.02 for v in BASE], "lower", "same"),
    ([v * 1.15 for v in BASE], "lower", "worse"),
    ([v * 0.85 for v in BASE], "higher", "worse"),
    ([v * 0.90 for v in BASE], "lower", "better"),
    ([v * 1.10 for v in BASE], "higher", "better"),
    # Inside the base's own quartile distance: no gain to claim.
    ([v - 0.3 for v in BASE], "lower", "same"),
    # Wins only half of the pairs.
    ([v + (3 if i % 2 else -3) for i, v in enumerate(BASE)], "lower", "same"),
])
def test_verdict_with_steady_runs(change, better, expected):
    assert compare.verdict(BASE, change, better, bound=0.1) == expected


def test_no_gain_is_claimed_from_fewer_than_ten_pairs():
    assert compare.verdict(BASE[:9], [v * 0.9 for v in BASE[:9]], "lower", 0.1) == "same"
    assert compare.verdict([100.0], [120.0], "lower", 0.1) == "worse"


def test_verdict_with_runs_spread_wider_than_the_bound():
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [v * 1.30 for v in noisy], "lower", 0.1) == "unresolved"
    # Every run of one side beats every run of the other: settled.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.1) == "better"
    assert compare.verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.1) == "worse"


def test_compare_reads_recorded_runs(tmp_path, capsys, contract):
    def record(path, scale, loss):
        lines = []
        for i, value in enumerate(BASE):
            metrics = {m["name"]: {"value": value * scale, "unit": m["unit"]}
                       for m in contract["end_to_end"]}
            lines.append(json.dumps({
                "workload": "train_fit", "trace": 0, "failed": 0,
                "metrics": metrics, "provenance": {"seed": i}}))
        lines.append(json.dumps({
            "workload": "train_fit", "trace": 1, "failed": 0,
            "metrics": {"training.final_loss": {"value": loss, "unit": "nat"}},
            "provenance": {"seed": 0}}))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    a = record(tmp_path / "a.jsonl", 1.0, 0.75)
    assert compare.compare([a], [record(tmp_path / "b.jsonl", 1.0, 0.75)]) == 0
    assert f"{len(contract['end_to_end'])} same" in capsys.readouterr().out
    assert compare.compare([a], [record(tmp_path / "c.jsonl", 1.0, 0.76)]) == 1
    assert "training.final_loss" in capsys.readouterr().out
