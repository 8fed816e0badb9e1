"""Prometheus text-format rendering."""

from repro.telemetry import Registry, render_prometheus


def test_counter_and_gauge_lines():
    reg = Registry()
    reg.counter("kernels_hits_total").inc(3)
    reg.gauge("training_tokens_per_s").set(1234.5)
    text = render_prometheus(reg)
    assert "# TYPE kernels_hits_total counter" in text
    assert "kernels_hits_total 3" in text
    assert "# TYPE training_tokens_per_s gauge" in text
    assert "training_tokens_per_s 1234.5" in text


def test_labels_rendered():
    reg = Registry()
    reg.counter("serving_finished_total", reason="length").inc(2)
    assert 'serving_finished_total{reason="length"} 2' in render_prometheus(reg)


def test_histogram_cumulative_buckets():
    reg = Registry()
    h = reg.histogram("serving_ttft_ms", boundaries=(1.0, 10.0))
    for v in (0.5, 5.0, 100.0):
        h.observe(v)
    text = render_prometheus(reg)
    assert '# TYPE serving_ttft_ms histogram' in text
    assert 'serving_ttft_ms_bucket{le="1"} 1' in text
    assert 'serving_ttft_ms_bucket{le="10"} 2' in text  # cumulative
    assert 'serving_ttft_ms_bucket{le="+Inf"} 3' in text
    assert "serving_ttft_ms_sum 105.5" in text
    assert "serving_ttft_ms_count 3" in text


def test_histogram_percentile_gauges():
    reg = Registry()
    h = reg.histogram("serving_ttft_ms")
    for v in range(1, 101):
        h.observe(float(v))
    text = render_prometheus(reg)
    assert "# TYPE serving_ttft_ms_p50 gauge" in text
    assert "serving_ttft_ms_p50 " in text
    assert "serving_ttft_ms_p95 " in text
    assert "serving_ttft_ms_p99 " in text


def test_empty_histogram_percentiles_are_nan():
    reg = Registry()
    reg.histogram("serving_ttft_ms")
    text = render_prometheus(reg)
    assert "serving_ttft_ms_p50 NaN" in text


def test_multiple_registries_in_one_scrape():
    a, b = Registry(), Registry()
    a.counter("a_total").inc()
    b.counter("b_total").inc()
    text = render_prometheus(a, b)
    assert "a_total 1" in text and "b_total 1" in text


def test_empty_registry_renders_empty():
    assert render_prometheus(Registry()) == ""
