"""Supervised multi-worker serving: failover determinism, drain, restart
budgets, cluster-aware shedding and env propagation."""

import os
import time

import numpy as np
import pytest

from repro import faults
from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import (
    LoadSheddingAdmission,
    SamplingParams,
    ServingEngine,
)
from repro.serving import cluster as cluster_module
from repro.serving.cluster import ClusterEngine, derive_request_seed
from repro.serving.worker import BLAS_PIN_VARS, child_environment


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


def _prompts(n, vocab=28, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, vocab, size=4 + i % 5) for i in range(n)]


def _cluster(model, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("seed", 0)
    # fork keeps the suite fast on small runners; one test exercises the
    # default spawn path explicitly.
    kwargs.setdefault("start_method", "fork")
    return ClusterEngine(model, **kwargs)


def _submit_all(cluster, prompts, max_new_tokens=8):
    return [
        cluster.submit(p, SamplingParams(
            max_new_tokens=max_new_tokens, temperature=0.8,
        ))
        for p in prompts
    ]


def _counter(cluster, name):
    return int(
        cluster.metrics_snapshot()["instruments"]
        .get(name, {}).get("value", 0)
    )


class TestClusterBasics:
    def test_parity_with_single_engine(self, model):
        """A 2-worker cluster generates exactly what one engine would
        when the engine is fed the cluster's derived per-request seeds —
        placement never leaks into the token streams."""
        prompts = _prompts(6)
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        rids = [
            engine.submit(p, SamplingParams(
                max_new_tokens=8, temperature=0.8,
                seed=derive_request_seed(0, i),
            ))
            for i, p in enumerate(prompts)
        ]
        want = engine.run()
        with _cluster(model) as cluster:
            gids = _submit_all(cluster, prompts)
            got = cluster.run(timeout_s=120)
        for rid, gid in zip(rids, gids):
            assert got[gid].finish_reason == want[rid].finish_reason
            assert got[gid].tokens == want[rid].tokens

    def test_spawn_start_method(self, model):
        """The default spawn path (fresh interpreter, pickled model)
        boots, serves and drains — with a model that has already decoded
        in this process: its compiled inference program (closures over
        its layers) is derived state and must not travel in the pickle."""
        prompts = _prompts(4)
        want = ServingEngine(model, max_batch_size=4, seed=0)
        rids = [
            want.submit(p, SamplingParams(
                max_new_tokens=8, temperature=0.8,
                seed=derive_request_seed(0, i),
            ))
            for i, p in enumerate(prompts)
        ]
        expected = want.run()
        assert model._program.builds >= 1
        with _cluster(model, start_method="spawn") as cluster:
            gids = _submit_all(cluster, prompts)
            results = cluster.drain(timeout_s=300)
        assert all(results[g].finish_reason == "length" for g in gids)
        for rid, gid in zip(rids, gids):
            assert results[gid].tokens == expected[rid].tokens

    def test_submit_validation_and_unknown_session(self, model):
        with _cluster(model, workers=1) as cluster:
            with pytest.raises(ValueError):
                cluster.submit(np.array([], dtype=np.int64))
            with pytest.raises(KeyError):
                next(cluster.stream(99))
            assert not cluster.cancel(99)

    def test_cancel_pending_and_inflight(self, model):
        with _cluster(model) as cluster:
            gids = _submit_all(cluster, _prompts(4), max_new_tokens=16)
            assert cluster.cancel(gids[-1])
            results = cluster.run(timeout_s=120)
        assert results[gids[-1]].finish_reason == "cancelled"
        assert all(results[g].finish_reason == "length" for g in gids[:-1])


class TestFailover:
    def _baseline(self, model, prompts, max_new_tokens):
        with _cluster(model) as cluster:
            gids = _submit_all(cluster, prompts, max_new_tokens)
            results = cluster.run(timeout_s=120)
        return [results[g] for g in gids]

    def test_fatalfault_kill_is_bit_identical(self, model):
        """An injected worker.step fatal fault kills worker 1 mid-decode;
        its sessions fail over and finish token-bit-identically."""
        prompts = _prompts(6)
        want = self._baseline(model, prompts, 12)
        with _cluster(
            model, worker_faults={1: "worker.step:fatal:after=4"},
        ) as cluster:
            gids = _submit_all(cluster, prompts, 12)
            results = cluster.run(timeout_s=120)
            deaths = _counter(cluster, "cluster_worker_deaths_total{worker=1}")
            requeued = _counter(cluster, "cluster_requeued_sessions_total")
            replayed = _counter(cluster, "cluster_replayed_tokens_total")
            mismatches = _counter(
                cluster, "cluster_failover_prefix_mismatch_total")
        assert deaths == 1
        assert requeued >= 1
        assert replayed >= 1  # the kill landed mid-decode, not pre-work
        assert mismatches == 0
        for base, gid in zip(want, gids):
            assert results[gid].finish_reason == base.finish_reason
            assert results[gid].tokens == base.tokens

    def test_sigkill_is_bit_identical(self, model):
        """A real SIGKILL mid-decode: zero hung/lost sessions and
        bit-identical recovered outputs."""
        prompts = _prompts(6)
        want = self._baseline(model, prompts, 12)
        state = {"killed": False}

        def killer(cluster):
            if state["killed"]:
                return
            # Only pull the trigger once the victim has delivered tokens,
            # so the replay path is genuinely exercised.
            victim_tokens = sum(
                len(cluster.result(gid).tokens)
                for gid, slot in cluster._owner.items() if slot == 0
            )
            if victim_tokens >= 4:
                state["killed"] = cluster.kill_worker(0)

        with _cluster(model) as cluster:
            gids = _submit_all(cluster, prompts, 12)
            results = cluster.run(timeout_s=120, hook=killer)
            deaths = _counter(cluster, "cluster_worker_deaths_total{worker=0}")
            replayed = _counter(cluster, "cluster_replayed_tokens_total")
        assert state["killed"]
        assert deaths == 1
        assert replayed >= 1
        for base, gid in zip(want, gids):
            assert results[gid].finished, f"session {gid} hung/lost"
            assert results[gid].finish_reason == base.finish_reason
            assert results[gid].tokens == base.tokens

    def test_restart_budget_exhaustion_raises(self, model, monkeypatch):
        """When every worker burns its restart budget with sessions
        still live, run() raises instead of spinning forever."""
        monkeypatch.setattr(cluster_module, "MAX_RESTARTS", 0)
        with _cluster(
            model, workers=1,
            worker_faults={0: "worker.step:fatal:after=1"},
        ) as cluster:
            _submit_all(cluster, _prompts(2), max_new_tokens=16)
            with pytest.raises(RuntimeError, match="restart budget"):
                cluster.run(timeout_s=120)

    def test_killed_worker_respawns_into_slot(self, model, monkeypatch):
        """After a kill the slot comes back (fresh pid) and serves new
        sessions; the restart counter records the respawn."""
        monkeypatch.setattr(cluster_module, "RESTART_BACKOFF_BASE_S", 0.01)

        def slot_zero():
            return cluster.metrics_snapshot()["workers"][0]

        with _cluster(model) as cluster:
            gids = _submit_all(cluster, _prompts(4), max_new_tokens=8)
            pid_before = slot_zero()["pid"]
            assert cluster.kill_worker(0)
            cluster.run(timeout_s=120)
            deadline = time.monotonic() + 60
            while not slot_zero()["alive"]:
                cluster.pump()
                cluster.check_workers()
                assert time.monotonic() < deadline, "slot never respawned"
                time.sleep(0.01)
            assert slot_zero()["pid"] != pid_before
            assert _counter(
                cluster, "cluster_worker_restarts_total{worker=0}") == 1
            extra = cluster.submit(
                _prompts(1, seed=3)[0], SamplingParams(max_new_tokens=4))
            results = cluster.run(timeout_s=120)
            assert results[extra].finish_reason == "length"
            assert all(results[g].finished for g in gids)


class TestLifecycle:
    def test_drain_finishes_everything_and_is_idempotent(self, model):
        cluster = _cluster(model)
        gids = _submit_all(cluster, _prompts(5), max_new_tokens=10)
        results = cluster.drain(timeout_s=120)
        assert all(results[g].finish_reason == "length" for g in gids)
        # Idempotent: draining/closing again is a no-op with same results.
        again = cluster.drain(timeout_s=5)
        assert {g: r.tokens for g, r in again.items()} == \
            {g: r.tokens for g, r in results.items()}
        with pytest.raises(RuntimeError, match="no longer admits"):
            cluster.submit(np.array([1, 2, 3]))

    def test_close_flushes_unfinished_to_cancelled(self, model):
        cluster = _cluster(model)
        gids = _submit_all(cluster, _prompts(4), max_new_tokens=64)
        results = cluster.close()
        for gid in gids:
            assert results[gid].finished  # nothing left hanging
        assert cluster.close() is not None  # idempotent

    def test_kill_worker_refuses_a_slot_it_does_not_have(self, model):
        with _cluster(model) as cluster:
            for slot in (-1, 2):
                with pytest.raises(ValueError, match="slot"):
                    cluster.kill_worker(slot)
            assert cluster.workers_alive == 2


class TestClusterShedding:
    def test_sheds_on_aggregate_depth(self, model):
        """The cluster sheds on its aggregate queue depth, so shedding
        sees the fleet-wide backlog."""
        admission = LoadSheddingAdmission(max_queue_depth=4)
        with _cluster(
            model, workers=2, max_batch_size=1, admission=admission,
        ) as cluster:
            gids = _submit_all(cluster, _prompts(12), max_new_tokens=4)
            shed = [g for g in gids if cluster.result(g).finish_reason == "shed"]
            assert shed, "aggregate backlog never triggered shedding"
            results = cluster.run(timeout_s=120)
        served = [g for g in gids if g not in shed]
        assert all(results[g].finish_reason == "length" for g in served)
        assert _counter(cluster, "cluster_shed_total{reason=queue_full}") \
            == len(shed)

    def test_single_engine_shedding_unchanged(self, model):
        """The policy sheds on the depth the single engine passes."""
        admission = LoadSheddingAdmission(max_queue_depth=2)
        assert admission.shed_reason(1) is None
        assert admission.shed_reason(2) == "queue_full"
        engine = ServingEngine(
            model, max_batch_size=1, admission=admission, seed=0)
        prompts = _prompts(6)
        rids = [engine.submit(p, SamplingParams(max_new_tokens=2))
                for p in prompts]
        results = engine.run()
        reasons = [results[r].finish_reason for r in rids]
        assert "shed" in reasons and "length" in reasons

    def test_one_admission_serves_two_engines(self, model):
        """An admission shared by a cluster with a backlog and an idle
        engine sheds each on its own depth: the idle engine's first
        request is admitted."""
        admission = LoadSheddingAdmission(max_queue_depth=2)
        with _cluster(
            model, workers=1, max_batch_size=1, admission=admission,
        ) as cluster:
            _submit_all(cluster, _prompts(4), max_new_tokens=64)
            assert cluster.aggregate_queue_depth() >= 2
            engine = ServingEngine(
                model, max_batch_size=1, admission=admission, seed=0)
            rid = engine.submit(_prompts(1)[0], SamplingParams(max_new_tokens=2))
            assert engine.run()[rid].finish_reason == "length"


class TestEnvPropagation:
    def test_child_environment_pins_and_round_trips(self):
        base = {k: v for k, v in os.environ.items()
                if k not in BLAS_PIN_VARS}
        env = child_environment(base)
        for var in BLAS_PIN_VARS:
            assert env[var] == "1"
        # explicit settings win over the pin
        env2 = child_environment({"OMP_NUM_THREADS": "4"})
        assert env2["OMP_NUM_THREADS"] == "4"

    def test_child_environment_exports_installed_injector(self):
        spec = "worker.step:transient:after=3,every=2,times=5"
        with faults.use_faults(spec, seed=11):
            env = child_environment({})
            assert env["REPRO_FAULTS_SEED"] == "11"
            rules = faults.parse_fault_spec(env["REPRO_FAULTS"])
        assert len(rules) == 1
        rule = rules[0]
        assert (rule.point, rule.kind) == ("worker.step", "transient")
        assert (rule.after, rule.every, rule.times) == (3, 2, 5)
        # no injector -> stale opt-ins are dropped
        env = child_environment({"REPRO_FAULTS": "stale:fatal",
                                 "REPRO_FAULTS_SEED": "9"})
        assert "REPRO_FAULTS" not in env
        assert "REPRO_FAULTS_SEED" not in env

    def test_workers_inherit_installed_fault_schedule(self, model):
        """A transient schedule installed in the supervisor reaches the
        workers (each fault domain runs its own copy) — visible through
        heartbeat fault counters — and recovery stays bit-identical."""
        prompts = _prompts(4)
        with _cluster(model) as cluster:
            gids = _submit_all(cluster, prompts, max_new_tokens=8)
            want = cluster.run(timeout_s=120)
            baseline = [want[g].tokens for g in gids]
        with faults.use_faults(
            "serving.decode_step:transient:every=3,times=6", seed=0,
        ):
            with _cluster(model) as cluster:
                gids = _submit_all(cluster, prompts, max_new_tokens=8)
                results = cluster.run(timeout_s=120)
                injected = 0
                deadline = time.monotonic() + 10
                while injected == 0 and time.monotonic() < deadline:
                    # wait for a post-work heartbeat to carry the counts
                    cluster.pump()
                    injected = sum(
                        int(info["heartbeat"].get("faults_injected", 0))
                        for info in
                        cluster.metrics_snapshot()["workers"].values()
                    )
                    time.sleep(0.02)
        assert injected >= 1, "workers never saw the inherited schedule"
        assert [results[g].tokens for g in gids] == baseline


class TestEngineClose:
    """ServingEngine.close is idempotent and flushes pending finish
    events, so no stream is left hanging; drain finishes naturally."""

    def test_close_flushes_and_is_idempotent(self, model):
        engine = ServingEngine(model, max_batch_size=2, seed=0)
        rids = [engine.submit(p, SamplingParams(max_new_tokens=32))
                for p in _prompts(4)]
        for _ in range(3):
            engine.step()
        results = engine.close()
        assert all(results[r].finish_reason == "cancelled" for r in rids)
        assert engine.health()["healthy"] is False
        # streams terminate instead of hanging on a dead batch
        for rid in rids:
            tokens = list(engine.stream(rid))
            assert tokens == results[rid].tokens
        again = engine.close()
        assert {r: v.finish_reason for r, v in again.items()} == \
            {r: v.finish_reason for r, v in results.items()}
        assert engine.drain() == again
        with pytest.raises(RuntimeError, match="no longer admits"):
            engine.submit(np.array([1, 2]))

    def test_drain_finishes_naturally(self, model):
        engine = ServingEngine(model, max_batch_size=4, seed=0)
        rids = [engine.submit(p, SamplingParams(max_new_tokens=4))
                for p in _prompts(3)]
        results = engine.drain()
        assert all(results[r].finish_reason == "length" for r in rids)
        with pytest.raises(RuntimeError, match="no longer admits"):
            engine.submit(np.array([1, 2]))
