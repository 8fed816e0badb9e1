"""Fault-injection framework: specs, schedules, scoping, zero-cost off."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.faults import (
    INJECTION_POINTS,
    KINDS,
    FatalFault,
    FaultInjector,
    FaultRule,
    TransientFault,
    fault_point,
    parse_fault_spec,
    rules_to_spec,
    use_faults,
)

SRC = Path(faults.__file__).resolve().parent


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    assert not faults.active(), "another test leaked an installed injector"
    yield
    faults.uninstall()


class TestSpecParsing:
    def test_minimal_rule(self):
        (rule,) = parse_fault_spec("io.save:fatal")
        assert rule.point == "io.save"
        assert rule.kind == "fatal"
        assert (rule.after, rule.every, rule.times) == (0, 1, 1)

    def test_full_options(self):
        (rule,) = parse_fault_spec(
            "serving.decode_step:transient:after=2,every=3,times=5"
        )
        assert (rule.after, rule.every, rule.times) == (2, 3, 5)

    def test_multiple_rules(self):
        rules = parse_fault_spec(
            "serving.prefill:transient; serving.sample:fatal:times=2"
        )
        assert [r.point for r in rules] == ["serving.prefill", "serving.sample"]

    def test_probability_option(self):
        (rule,) = parse_fault_spec("kernels.matmul:transient:p=0.5,times=0")
        assert rule.p == 0.5
        assert rule.times == 0

    @pytest.mark.parametrize("spec", [
        "nonsense",                      # no kind
        "serving.prefill:weird",         # unknown kind
        "no.such.point:transient",       # unknown point
        "serving.prefill:transient:x=1",  # unknown option
        "serving.prefill:transient:every=0",  # invalid value
        "",                              # no rules at all
    ])
    def test_bad_specs_fail_fast(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)


class TestInjectionPoints:
    @pytest.mark.parametrize("point", sorted(INJECTION_POINTS))
    def test_every_point_is_fired_in_code(self, point):
        """A point no ``fault_point`` call names is a spec that parses
        and never fires."""
        call = re.compile(
            r"fault_point\(\s*['\"]" + re.escape(point) + "['\"]")
        assert any(call.search(path.read_text())
                   for path in SRC.rglob("*.py") if path.name != "faults.py")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("point", sorted(INJECTION_POINTS))
    def test_rule_round_trips_through_spec(self, point, kind):
        rule = FaultRule(point, kind, after=2, every=3, times=0, p=0.25)
        assert parse_fault_spec(rules_to_spec([rule])) == [rule]

    def test_default_options_are_left_out(self):
        assert rules_to_spec([FaultRule("io.save", "fatal")]) == "io.save:fatal"

    def test_rule_list_round_trips_in_order(self):
        spec = "serving.prefill:transient;kernels.matmul:fatal:every=2,times=3"
        rules = parse_fault_spec(spec)
        assert rules_to_spec(rules) == spec
        assert parse_fault_spec(rules_to_spec(rules)) == rules


class TestSchedule:
    def _fire_pattern(self, injector, point, n):
        pattern = []
        for _ in range(n):
            try:
                injector.check(point)
                pattern.append(0)
            except TransientFault:
                pattern.append(1)
        return pattern

    def test_after_every_times(self):
        injector = FaultInjector(
            [FaultRule("serving.sample", after=2, every=3, times=2)]
        )
        # eligible at traversals 3, 6, 9, ... capped at 2 fires
        assert self._fire_pattern(injector, "serving.sample", 10) == [
            0, 0, 1, 0, 0, 1, 0, 0, 0, 0,
        ]

    def test_deterministic_across_instances(self):
        make = lambda: FaultInjector.from_spec(
            "serving.decode_step:transient:p=0.4,times=0", seed=7
        )
        a = self._fire_pattern(make(), "serving.decode_step", 50)
        b = self._fire_pattern(make(), "serving.decode_step", 50)
        assert a == b
        assert sum(a) > 0

    def test_fatal_kind_raises_fatal(self):
        injector = FaultInjector([FaultRule("io.save", kind="fatal")])
        with pytest.raises(FatalFault):
            injector.check("io.save")

    def test_context_attached_to_fault(self):
        injector = FaultInjector([FaultRule("serving.prefill")])
        with pytest.raises(TransientFault) as exc:
            injector.check("serving.prefill", {"request_id": 41})
        assert exc.value.request_id == 41
        assert exc.value.point == "serving.prefill"

    def test_snapshot_counts_fires(self):
        injector = FaultInjector(
            [FaultRule("serving.sample", every=2, times=3)]
        )
        self._fire_pattern(injector, "serving.sample", 10)
        snap = injector.snapshot()
        assert snap["injected_total"] == 3
        assert snap["injected"] == {"serving.sample:transient": 3}
        assert snap["rules"][0]["hits"] == 10

    def test_first_matching_rule_wins_but_all_consume(self):
        injector = FaultInjector([
            FaultRule("serving.sample", kind="transient", times=1),
            FaultRule("serving.sample", kind="fatal", after=1, times=1),
        ])
        with pytest.raises(TransientFault):
            injector.check("serving.sample")
        # Second traversal: rule 1 is spent, rule 2's after=1 has passed.
        with pytest.raises(FatalFault):
            injector.check("serving.sample")


class TestInstallation:
    def test_disabled_fault_point_is_noop(self):
        assert not faults.active()
        fault_point("serving.decode_step", batch=4)  # must not raise

    def test_use_faults_scopes_installation(self):
        with use_faults("serving.sample:transient:times=1") as injector:
            assert faults.active()
            assert faults.get_injector() is injector
            with pytest.raises(TransientFault):
                for _ in range(3):
                    fault_point("serving.sample")
        assert not faults.active()

    def test_use_faults_restores_previous_injector(self):
        outer = FaultInjector.from_spec("io.save:fatal")
        faults.install(outer)
        with use_faults("serving.sample:transient"):
            assert faults.get_injector() is not outer
        assert faults.get_injector() is outer
        faults.uninstall()

    def test_use_faults_accepts_rule_list(self):
        with use_faults([FaultRule("io.save", kind="fatal")]):
            with pytest.raises(FatalFault):
                fault_point("io.save", path="x.npz")

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serving.prefill:transient:times=2")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        injector = faults.install_from_env()
        assert injector is not None
        assert injector.seed == 3
        assert faults.get_injector() is injector
        faults.uninstall()

    def test_install_from_env_noop_without_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.install_from_env() is None
        assert not faults.active()


class TestKernelPoints:
    def test_matmul_point_fires_through_backend(self):
        from repro.kernels.backend import matmul

        a = np.ones((4, 4))
        out = np.empty((4, 4))
        with use_faults("kernels.matmul:transient:times=1"):
            with pytest.raises(TransientFault):
                matmul(a, a, out)
            matmul(a, a, out)  # schedule spent
        np.testing.assert_allclose(out, a @ a)

    def test_butterfly_apply_point_fires(self):
        from repro.kernels import butterfly_apply, stage_halves

        rng = np.random.default_rng(0)
        halves = stage_halves(8)
        coeffs = [rng.normal(size=(4, 4)) for _ in halves]
        x = np.random.default_rng(1).normal(size=(2, 8))
        with use_faults("kernels.butterfly_apply:transient:times=1"):
            with pytest.raises(TransientFault):
                butterfly_apply(x, coeffs, halves)
            y, _ = butterfly_apply(x, coeffs, halves)
        y2, _ = butterfly_apply(x, coeffs, halves)
        np.testing.assert_array_equal(y, y2)
