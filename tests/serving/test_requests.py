"""Deadlines through both engines: the request table pins each request's
absolute expiry at submit, so the reason and the budget survive the
cluster's pipe, its pending queue and a failover replay."""

import time

import numpy as np
import pytest

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams
from repro.serving import cluster as cluster_module
from repro.serving.cluster import ClusterEngine
from repro.serving.engine import ServingEngine
from repro.serving.scheduler import FINISH_DEADLINE


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        vocab_size=28, n_classes=2, max_len=32, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0,
    )
    return build_butterfly_decoder(config).eval()


def _engine(kind, model):
    if kind == "serving":
        return ServingEngine(model, max_batch_size=4, seed=0)
    return ClusterEngine(
        model, workers=2, max_batch_size=4, seed=0, start_method="fork",
    )


def _wait(engine, rid, timeout_s=30.0, hook=None):
    """Step ``engine`` until request ``rid`` is terminal."""
    deadline = time.monotonic() + timeout_s
    while not engine.result(rid).finished:
        assert time.monotonic() < deadline, "request never finished"
        engine.step()
        if hook is not None:
            hook()
        time.sleep(0.001)


@pytest.mark.parametrize("kind", ["serving", "cluster"])
def test_deadline_finishes_as_deadline_on_both_engines(kind, model):
    engine = _engine(kind, model)
    try:
        rid = engine.submit(
            np.array([3, 4, 5, 6]),
            SamplingParams(max_new_tokens=100_000, deadline_s=0.3),
        )
        _wait(engine, rid)
        assert engine.result(rid).finish_reason == FINISH_DEADLINE
        assert engine.metrics.aggregate()["deadline_exceeded"] == 1
    finally:
        engine.close()


def test_failover_keeps_the_original_deadline(model):
    """Kill the owning worker at ~2/3 of the budget: the replay on the
    survivor gets what is left of the budget, not a fresh one."""
    budget_s = 0.9
    cluster = _engine("cluster", model)
    try:
        rid = cluster.submit(
            np.array([3, 4, 5, 6]),
            SamplingParams(max_new_tokens=100_000, deadline_s=budget_s),
        )
        submitted = time.monotonic()
        killed = []

        def kill_owner_at_two_thirds():
            owner = cluster._owner.get(rid)
            if not killed and owner is not None \
                    and time.monotonic() - submitted >= budget_s * 2 / 3:
                killed.append(cluster.kill_worker(owner))

        _wait(cluster, rid, hook=kill_owner_at_two_thirds)
        elapsed = time.monotonic() - submitted
        assert killed == [True]
        assert cluster.result(rid).finish_reason == FINISH_DEADLINE
        assert elapsed < budget_s + 0.3
    finally:
        cluster.close()


def test_a_pending_session_past_its_deadline_finishes_in_the_supervisor(
        model, monkeypatch):
    """With no worker to dispatch to, the budget still runs out."""
    monkeypatch.setattr(cluster_module, "MAX_RESTARTS", 0)
    cluster = ClusterEngine(
        model, workers=1, max_batch_size=4, seed=0, start_method="fork",
    )
    try:
        cluster.kill_worker(0)
        cluster._workers[0].proc.join(timeout=10.0)
        rid = cluster.submit(
            np.array([3, 4, 5]),
            SamplingParams(max_new_tokens=8, deadline_s=0.1),
        )
        _wait(cluster, rid)
        assert cluster.result(rid).finish_reason == FINISH_DEADLINE
        assert cluster.result(rid).tokens == []
    finally:
        cluster.close()

