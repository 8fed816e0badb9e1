"""Thread-safety: instruments and spans hammered from many threads."""

import threading

from repro import telemetry
from repro.telemetry import Registry, counter_inc, use_telemetry


class TestInstrumentHammer:
    def test_shared_counter_exact_under_contention(self):
        reg = Registry()
        counter = reg.counter("hammer_total")
        threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                counter.inc()

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == threads * per_thread

    def test_histogram_count_exact_under_contention(self):
        reg = Registry()
        hist = reg.histogram("hammer_ms")
        threads, per_thread = 8, 1000

        def work(seed):
            for i in range(per_thread):
                hist.observe(float((seed * per_thread + i) % 50))

        pool = [threading.Thread(target=work, args=(s,)) for s in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert hist.count == threads * per_thread
        assert sum(hist.bucket_counts) == threads * per_thread

    def test_gated_convenience_exact_under_contention(self):
        with use_telemetry(True):
            threads, per_thread = 8, 1000

            def work():
                for _ in range(per_thread):
                    counter_inc("gated_hammer_total")

            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            snap = telemetry.get_registry().snapshot()
        assert snap["gated_hammer_total"]["value"] == threads * per_thread

    def test_get_or_create_race_yields_one_instrument(self):
        reg = Registry()
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            seen.append(reg.counter("raced_total"))

        pool = [threading.Thread(target=work) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert all(inst is seen[0] for inst in seen)


class TestSpanHammer:
    def test_lock_free_spans_lose_nothing_under_contention(self):
        """``SpanCollector._open/_close`` take no lock: every span must
        still land exactly once, with a unique id and its own thread's
        parent.  More threads than cores, and a short switch interval so
        the interpreter preempts inside the span bookkeeping."""
        import sys

        threads, per_thread = 8, 500
        barrier = threading.Barrier(threads)

        def work(index):
            barrier.wait()
            for i in range(per_thread):
                with telemetry.span("outer", thread=index, i=i):
                    with telemetry.span("inner", thread=index, i=i):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_telemetry(True):
                pool = [threading.Thread(target=work, args=(t,))
                        for t in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(interval)
        records = telemetry.span_records()
        assert len(records) == 2 * threads * per_thread
        assert len({r.span_id for r in records}) == len(records)
        assert telemetry.get_collector().dropped == 0
        by_id = {r.span_id: r for r in records}
        for r in records:
            if r.name == "inner":
                parent = by_id[r.parent_id]
                assert parent.name == "outer" and parent.attrs == r.attrs
                assert parent.thread_id == r.thread_id
            else:
                assert r.parent_id is None and r.depth == 0


    def test_pool_workers_record_spans_on_their_own_stacks(self):
        """Spans opened concurrently on different threads (a
        ``ServerThread`` beside its caller) never parent each other."""
        barrier = threading.Barrier(8)
        results = [None] * 8

        def work(i):
            with telemetry.span("worker.task", index=i):
                barrier.wait(timeout=30)  # every span open at once
                results[i] = i * 2

        with use_telemetry(True):
            pool = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
            assert results == [i * 2 for i in range(8)]
            names = [r.name for r in telemetry.span_records()]
            assert names.count("worker.task") == 8
            # Per-thread stacks: none of the concurrent spans became
            # parents of each other.
            tree = telemetry.span_tree()
        assert set(tree) == {("worker.task",)}
        assert tree[("worker.task",)]["count"] == 8
