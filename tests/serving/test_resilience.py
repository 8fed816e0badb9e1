"""Resilient serving: rollback/retry parity, fault isolation, deadlines,
shedding and submit-validation atomicity."""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.faults import FaultRule, TransientFault, use_faults
from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import (
    LoadSheddingAdmission,
    ResilienceConfig,
    SamplingParams,
    SchedulerSnapshot,
    ServingEngine,
    resilient_step,
)


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=28, n_classes=2, max_len=32, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )
    return build_butterfly_decoder(config).eval()


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    assert not faults.active(), "another test leaked an installed injector"
    yield
    faults.uninstall()


RESILIENCE = ResilienceConfig()


def _prompts(rng, n, vocab=28):
    return [rng.integers(1, vocab, size=4 + i % 5) for i in range(n)]


def _run_workload(model, prompts, *, resilience=RESILIENCE, max_new_tokens=8,
                  **engine_kwargs):
    engine = ServingEngine(model, max_batch_size=4, seed=0,
                           resilience=resilience, **engine_kwargs)
    rids = [
        engine.submit(p, SamplingParams(
            max_new_tokens=max_new_tokens, temperature=0.8, seed=i,
        ))
        for i, p in enumerate(prompts)
    ]
    return engine, rids, engine.run()


class TestRetryParity:
    """A retried step must be bit-identical to a never-faulted one."""

    @pytest.mark.parametrize("spec", [
        "serving.decode_step:transient:every=2,times=4",
        "serving.prefill:transient:every=3,times=3",
        "serving.sample:transient:every=7,times=3",
        "kernels.matmul:transient:every=40,times=3",
        "kernels.butterfly_apply:transient:every=35,times=3",
    ])
    def test_transient_faults_recover_bit_identically(self, model, rng, spec):
        prompts = _prompts(rng, 6)
        _, base_rids, baseline = _run_workload(model, prompts)
        with use_faults(spec) as injector:
            engine, rids, results = _run_workload(model, prompts)
        assert injector.injected_total >= 3
        for base_rid, rid in zip(base_rids, rids):
            assert results[rid].finish_reason == baseline[base_rid].finish_reason
            assert results[rid].tokens == baseline[base_rid].tokens
        retries = engine.metrics.registry.snapshot()[
            "serving_fault_retries_total"]["value"]
        assert retries >= injector.injected_total

    def test_no_request_hangs_under_mixed_schedule(self, model, rng):
        prompts = _prompts(rng, 8)
        spec = ("serving.prefill:transient:every=4,times=4;"
                "serving.decode_step:transient:every=3,times=6;"
                "serving.sample:transient:every=9,times=4")
        with use_faults(spec):
            engine, rids, results = _run_workload(model, prompts)
        assert not engine.has_work
        for rid in rids:
            assert results[rid].finished

    def test_metrics_still_consistent_after_recovery(self, model, rng):
        prompts = _prompts(rng, 5)
        with use_faults("serving.decode_step:transient:every=3,times=4"):
            engine, rids, results = _run_workload(model, prompts)
        agg = engine.metrics.aggregate()
        assert agg["completed"] == len(prompts)
        assert agg["errors"] == 0
        assert agg["total_new_tokens"] == sum(
            len(results[r].tokens) for r in rids
        )


class TestFaultIsolation:
    def test_exhausted_retries_fail_one_request_not_the_batch(self, model, rng):
        prompts = _prompts(rng, 4)
        _, base_rids, baseline = _run_workload(model, prompts)
        # 4 consecutive sample faults exhaust one round's budget exactly
        # (first attempt + max_retries=3), evicting a single victim.
        with use_faults("serving.sample:transient:every=1,times=4"):
            engine, rids, results = _run_workload(model, prompts)
        reasons = [results[r].finish_reason for r in rids]
        assert reasons.count("error") == 1
        survivors = [
            (b, r) for b, r in zip(base_rids, rids)
            if results[r].finish_reason != "error"
        ]
        assert survivors
        for base_rid, rid in survivors:
            assert results[rid].tokens == baseline[base_rid].tokens
        assert engine.metrics.aggregate()["errors"] == 1

    @pytest.mark.parametrize("max_retries", [1, 2, 5])
    def test_faults_within_the_budget_recover(self, model, rng, max_retries):
        prompts = _prompts(rng, 3)
        resilience = ResilienceConfig(max_retries=max_retries)
        _, base_rids, baseline = _run_workload(model, prompts)
        spec = f"serving.sample:transient:every=1,times={max_retries}"
        with use_faults(spec) as injector:
            engine, rids, results = _run_workload(
                model, prompts, resilience=resilience)
        assert injector.injected_total == max_retries
        for base_rid, rid in zip(base_rids, rids):
            assert results[rid].finish_reason == baseline[base_rid].finish_reason
            assert results[rid].tokens == baseline[base_rid].tokens
        assert engine.metrics.aggregate()["errors"] == 0

    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_one_fault_past_the_budget_fails_one_request(
        self, model, rng, max_retries
    ):
        prompts = _prompts(rng, 3)
        resilience = ResilienceConfig(max_retries=max_retries)
        spec = f"serving.sample:transient:every=1,times={max_retries + 1}"
        with use_faults(spec):
            engine, rids, results = _run_workload(
                model, prompts, resilience=resilience)
        reasons = [results[r].finish_reason for r in rids]
        assert reasons.count("error") == 1
        assert engine.metrics.aggregate()["errors"] == 1

    def test_fatal_fault_attributes_request_scoped_victim(self, model, rng):
        prompts = _prompts(rng, 3)
        with use_faults("serving.sample:fatal:after=4,times=1"):
            engine, rids, results = _run_workload(model, prompts)
        reasons = [results[r].finish_reason for r in rids]
        assert reasons.count("error") == 1
        assert sum(1 for r in reasons if r == "length") == 2
        errors = engine.metrics.registry.snapshot()[
            "serving_request_errors_total"]["value"]
        assert errors == 1

    def test_fatal_batch_scoped_fault_evicts_oldest_row(self, model, rng):
        prompts = _prompts(rng, 3)
        # decode_step carries no request_id; the oldest active row pays.
        with use_faults("serving.decode_step:fatal:after=2,times=1"):
            engine, rids, results = _run_workload(model, prompts)
        assert results[rids[0]].finish_reason == "error"
        assert all(results[r].finish_reason == "length" for r in rids[1:])

    def test_error_event_reaches_stream_consumers(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2, seed=0,
                               resilience=RESILIENCE)
        rid = engine.submit(rng.integers(1, 28, size=4),
                            SamplingParams(max_new_tokens=8, seed=0))
        with use_faults("serving.sample:transient:every=1,times=20"):
            tokens = list(engine.stream(rid))
        assert engine.result(rid).finish_reason == "error"
        assert tokens == engine.result(rid).tokens


class TestSnapshot:
    def test_snapshot_restores_scheduler_state(self, model, rng):
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        for i, p in enumerate(_prompts(rng, 3)):
            engine.submit(p, SamplingParams(max_new_tokens=8, seed=i))
        engine.step()  # build a live batch + cache
        scheduler = engine.scheduler
        snap = SchedulerSnapshot(scheduler)
        before = [(list(s.tokens), s.rng.bit_generator.state["state"])
                  for s in scheduler.active]
        lengths = scheduler.cache.lengths.copy()
        engine.step()  # mutate
        snap.restore()
        after = [(list(s.tokens), s.rng.bit_generator.state["state"])
                 for s in scheduler.active]
        assert after == before
        np.testing.assert_array_equal(scheduler.cache.lengths, lengths)

    def test_snapshot_restore_is_single_use(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        engine.submit(rng.integers(1, 28, size=4), SamplingParams(seed=0))
        snap = SchedulerSnapshot(engine.scheduler)
        snap.restore()
        with pytest.raises(RuntimeError):
            snap.restore()

    def test_resilient_step_reraises_with_no_victim(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        # Empty scheduler: an injected fault has nobody to evict.
        injector = faults.FaultInjector([FaultRule("serving.decode_step")])
        with use_faults(injector):
            with pytest.raises(TransientFault):
                raise TransientFault("serving.decode_step")
        assert resilient_step(engine.scheduler, RESILIENCE,
                              engine.metrics.registry) == []


class TestCounters:
    def test_one_exposition_names_each_series_once(self, model, rng):
        """With telemetry on, a recovered fault is counted once, in the
        engine's registry: the exposition names each (name, labels) once,
        every one under its ``# TYPE`` line."""
        previous = telemetry.set_registry(telemetry.Registry())
        try:
            with telemetry.use_telemetry():
                with use_faults("serving.decode_step:transient:every=2,times=3"):
                    engine, _, _ = _run_workload(model, _prompts(rng, 2))
                text = engine.render_prometheus()
        finally:
            telemetry.set_registry(previous)
        series = [line.split(" ")[0] for line in text.splitlines()
                  if line and not line.startswith("#")]
        assert len(series) == len(set(series)), text
        typed = {line.split(" ")[2] for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        for name in ("serving_fault_retries_total", "serving_fault_rollbacks_total"):
            assert series.count(name) == 1 and name in typed
        assert engine.metrics.registry.snapshot()[
            "serving_fault_retries_total"]["value"] == 3


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDeadlines:
    def test_expired_deadline_cancels_with_deadline_reason(self, model, rng):
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=2, seed=0, clock=clock)
        rid = engine.submit(
            rng.integers(1, 28, size=4),
            SamplingParams(max_new_tokens=50, seed=0, deadline_s=5.0),
        )
        engine.step()
        clock.now = 6.0
        engine.step()
        result = engine.result(rid)
        assert result.finish_reason == "deadline"
        assert not engine.has_work
        agg = engine.metrics.aggregate()
        assert agg["deadline_exceeded"] == 1
        assert agg["completed"] == 0

    def test_request_finishing_before_deadline_unaffected(self, model, rng):
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=2, seed=0, clock=clock)
        rid = engine.submit(
            rng.integers(1, 28, size=4),
            SamplingParams(max_new_tokens=3, seed=0, deadline_s=100.0),
        )
        engine.run()
        assert engine.result(rid).finish_reason == "length"
        assert engine.requests.expires_at == {}

    def test_queued_request_deadline_expires_without_decode(self, model, rng):
        clock = FakeClock()
        engine = ServingEngine(model, max_batch_size=1, seed=0, clock=clock)
        first = engine.submit(rng.integers(1, 28, size=4),
                              SamplingParams(max_new_tokens=30, seed=0))
        queued = engine.submit(
            rng.integers(1, 28, size=4),
            SamplingParams(max_new_tokens=30, seed=1, deadline_s=1.0),
        )
        engine.step()
        clock.now = 2.0
        engine.step()
        assert engine.result(queued).finish_reason == "deadline"
        assert not engine.result(first).finished

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(deadline_s=0.0)


class TestShedding:
    def test_queue_full_sheds_at_submit(self, model, rng):
        admission = LoadSheddingAdmission(max_queue_depth=2)
        engine = ServingEngine(model, max_batch_size=1, seed=0,
                               admission=admission)
        rids = [
            engine.submit(p, SamplingParams(max_new_tokens=4, seed=i))
            for i, p in enumerate(_prompts(rng, 5))
        ]
        shed = [r for r in rids if engine.result(r).finish_reason == "shed"]
        assert shed  # queue bounded at 2 + 0 running when submitting
        results = engine.run()
        kept = [r for r in rids if r not in shed]
        assert all(results[r].finish_reason == "length" for r in kept)
        agg = engine.metrics.aggregate()
        assert agg["shed"] == len(shed)
        assert agg["completed"] == len(kept)
        snap = engine.metrics.registry.snapshot()
        assert snap['serving_shed_total{reason=queue_full}']["value"] == len(shed)

    def test_unreachable_deadline_shed_at_submit(self, model, rng):
        admission = LoadSheddingAdmission(est_step_s=1.0)
        engine = ServingEngine(model, max_batch_size=1, seed=0,
                               admission=admission)
        engine.submit(rng.integers(1, 28, size=4),
                      SamplingParams(max_new_tokens=4, seed=0))
        engine.submit(rng.integers(1, 28, size=4),
                      SamplingParams(max_new_tokens=4, seed=1))
        # Two queued requests ahead at >= 1 s each against a 0.5 s budget.
        doomed = engine.submit(
            rng.integers(1, 28, size=4),
            SamplingParams(max_new_tokens=4, seed=2, deadline_s=0.5),
        )
        assert engine.result(doomed).finish_reason == "shed"

    def test_shed_request_never_reaches_scheduler(self, model, rng):
        admission = LoadSheddingAdmission(max_queue_depth=1)
        engine = ServingEngine(model, max_batch_size=1, seed=0,
                               admission=admission)
        engine.submit(rng.integers(1, 28, size=4), SamplingParams(seed=0))
        shed_rid = engine.submit(rng.integers(1, 28, size=4),
                                 SamplingParams(seed=1))
        assert engine.result(shed_rid).finish_reason == "shed"
        assert engine.scheduler.queue_depth == 1
        assert engine.result(shed_rid).tokens == []

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadSheddingAdmission(max_queue_depth=0)
        with pytest.raises(ValueError):
            LoadSheddingAdmission(est_step_s=0.0)

    @pytest.mark.parametrize("policy, depth, deadline_s, reason", [
        ({}, 100, 0.1, None),
        ({"max_queue_depth": 3}, 2, None, None),
        ({"max_queue_depth": 3}, 3, None, "queue_full"),
        # Four queued steps of 0.5 s just fit a 2 s budget.
        ({"est_step_s": 0.5}, 4, 2.0, None),
        ({"est_step_s": 0.5}, 4, 1.9, "deadline_unreachable"),
        ({"est_step_s": 0.5}, 4, None, None),
        # A full queue is reported before an unreachable deadline.
        ({"max_queue_depth": 3, "est_step_s": 1.0}, 3, 1.0, "queue_full"),
    ])
    def test_shed_reason(self, policy, depth, deadline_s, reason):
        admission = LoadSheddingAdmission(**policy)
        assert admission.shed_reason(depth, deadline_s) == reason


class TestSubmitValidation:
    """Satellite: a rejected submit must not mutate engine state."""

    def test_empty_prompt_burns_no_request_id(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        with pytest.raises(ValueError):
            engine.submit(np.array([], dtype=np.int64))
        assert engine.requests.next_id == 0
        assert engine.requests.results == {}
        assert engine.metrics.requests == {}
        rid = engine.submit(np.array([1, 2, 3]), SamplingParams(seed=0))
        assert rid == 0

    def test_scheduler_side_rejection_leaves_no_half_state(self, model, rng):
        engine = ServingEngine(model, max_batch_size=2, seed=0)

        def reject(request):
            raise ValueError("synthetic scheduler-side rejection")

        original = engine.scheduler.add_request
        engine.scheduler.add_request = reject
        with pytest.raises(ValueError):
            engine.submit(rng.integers(1, 28, size=4))
        assert engine.requests.next_id == 0
        assert engine.requests.results == {}
        assert engine.metrics.requests == {}
        assert engine.metrics.aggregate()["requests"] == 0
        engine.scheduler.add_request = original
        assert engine.submit(rng.integers(1, 28, size=4)) == 0


class TestChaosParityGate:
    """The acceptance oracle: >= 20 injected transient faults across
    prefill/decode/sample, zero hung or lost requests, and every
    recovered request bit-identical to the fault-free run."""

    def test_chaos_parity(self, model, rng):
        prompts = _prompts(rng, 8)
        _, base_rids, baseline = _run_workload(
            model, prompts, max_new_tokens=12,
        )
        spec = ("serving.prefill:transient:every=6,times=4;"
                "serving.decode_step:transient:every=3,times=12;"
                "serving.sample:transient:every=13,times=6")
        with use_faults(spec) as injector:
            engine, rids, results = _run_workload(
                model, prompts, max_new_tokens=12,
            )
        snap = injector.snapshot()
        assert snap["injected_total"] >= 20
        assert len(snap["injected"]) == 3  # all three points exercised
        assert not engine.has_work  # zero hung
        assert len(results) == len(prompts)  # zero lost
        for base_rid, rid in zip(base_rids, rids):
            result = results[rid]
            assert result.finished
            if result.finish_reason == "error":
                continue
            assert result.finish_reason == baseline[base_rid].finish_reason
            assert result.tokens == baseline[base_rid].tokens
