"""Registry semantics: instruments, labels, gating, determinism."""

import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    Reservoir,
    counter_inc,
    gauge_set,
    use_telemetry,
)


class TestCounter:
    def test_increments_accumulate(self):
        c = Registry().counter("kernels_hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Registry().counter("kernels_hits_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)

    def test_snapshot(self):
        c = Registry().counter("kernels_hits_total")
        c.inc(4)
        assert c.snapshot() == {"kind": "counter", "value": 4.0}


class TestGauge:
    def test_set_and_add(self):
        g = Registry().gauge("training_tokens_per_s")
        g.set(10.0)
        g.add(-3.0)
        assert g.value == 7.0


class TestReservoir:
    def test_exact_while_under_capacity(self):
        r = Reservoir(capacity=100)
        for v in range(10):
            r.add(float(v))
        assert sorted(r.values()) == [float(v) for v in range(10)]
        assert r.percentile(0) == 0.0
        assert r.percentile(100) == 9.0
        assert r.percentile(50) == pytest.approx(4.0, abs=1.0)

    def test_bounded_beyond_capacity(self):
        r = Reservoir(capacity=16)
        for v in range(1000):
            r.add(float(v))
        assert len(r.values()) == 16
        assert r.count == 1000

    def test_deterministic_sampling(self):
        def fill():
            r = Reservoir(capacity=8, seed=0)
            for v in range(500):
                r.add(float(v))
            return r.values()

        assert fill() == fill()

    def test_empty_percentile_is_none(self):
        assert Reservoir().percentile(50) is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Reservoir(capacity=0)


class TestHistogram:
    def test_bucket_assignment(self):
        h = Registry().histogram("serving_ttft_ms", boundaries=(1.0, 10.0))
        for v in (0.5, 0.9, 5.0, 100.0):
            h.observe(v)
        # Buckets: <=1, <=10, +Inf
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.4)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(26.6)

    def test_percentiles_exact_while_small(self):
        h = Registry().histogram("serving_ttft_ms")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=1.0)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Registry().histogram("bad_ms", boundaries=(10.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = Registry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_labels_separate_instruments(self):
        reg = Registry()
        ok = reg.counter("serving_finished_total", reason="length")
        stopped = reg.counter("serving_finished_total", reason="stop")
        assert ok is not stopped
        ok.inc()
        assert stopped.value == 0.0

    def test_label_order_is_canonical(self):
        reg = Registry()
        a = reg.counter("x_total", b="2", a="1")
        b = reg.counter("x_total", a="1", b="2")
        assert a is b

    def test_kind_collision_raises(self):
        reg = Registry()
        reg.counter("name_total")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("name_total")

    def test_snapshot_keys_include_labels(self):
        reg = Registry()
        reg.counter("plain_total").inc()
        reg.counter("labelled_total", mode="fast").inc(2)
        snap = reg.snapshot()
        assert snap["plain_total"]["value"] == 1.0
        assert snap["labelled_total{mode=fast}"]["value"] == 2.0

    def test_injectable_clock(self, fake_clock):
        reg = Registry(clock=fake_clock)
        fake_clock.advance(1.5)
        assert reg.clock() == 1.5

    def test_reset_drops_instruments(self):
        reg = Registry()
        reg.counter("a_total").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestGatedConveniences:
    def test_disabled_mode_never_touches_registry(self):
        with use_telemetry(False):
            counter_inc("kernels_hits_total")
            gauge_set("training_tokens_per_s", 5.0)
        assert telemetry.get_registry().snapshot() == {}

    def test_enabled_mode_records(self):
        with use_telemetry(True):
            counter_inc("kernels_hits_total", amount=3)
            gauge_set("training_tokens_per_s", 5.0)
        snap = telemetry.get_registry().snapshot()
        assert snap["kernels_hits_total"]["value"] == 3.0
        assert snap["training_tokens_per_s"]["value"] == 5.0

    def test_use_telemetry_restores_flag(self):
        telemetry.disable()
        with use_telemetry(True):
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_direct_instruments_live_while_disabled(self):
        # Engine-local registries (serving metrics) work without opt-in.
        with use_telemetry(False):
            reg = Registry()
            reg.counter("serving_tokens_total").inc()
            assert reg.snapshot()["serving_tokens_total"]["value"] == 1.0
