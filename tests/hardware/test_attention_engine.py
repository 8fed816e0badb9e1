"""Attention Engine: streaming QK/SV units vs one-shot softmax attention."""

import numpy as np
import pytest

from repro.hardware.functional import (
    AttentionEngine,
    AttentionProcessor,
    QKUnit,
    SVUnit,
)


def reference_attention(q, k, v):
    scores = q @ k.T / np.sqrt(q.shape[1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p @ v


class TestQKUnit:
    def test_score_row_is_softmaxed(self, rng):
        qk = QKUnit(pqk=4)
        q = rng.normal(size=8)
        k = rng.normal(size=(5, 8))
        row = qk.score_rows(q, k, 1.0 / np.sqrt(8))
        assert row.sum() == pytest.approx(1.0)
        assert (row > 0).all()

    def test_mac_count(self, rng):
        qk = QKUnit(pqk=4)
        qk.score_rows(rng.normal(size=8), rng.normal(size=(5, 8)), 1.0)
        assert qk.stats.qk_macs == 5 * 8
        assert qk.stats.softmax_elems == 5
        assert qk.stats.score_rows_emitted == 1

    def test_shape_mismatch(self, rng):
        qk = QKUnit(pqk=4)
        with pytest.raises(ValueError, match="shape"):
            qk.score_rows(rng.normal(size=7), rng.normal(size=(5, 8)), 1.0)

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError, match="pqk"):
            QKUnit(pqk=0)


class TestSVUnit:
    def test_context_row(self, rng):
        sv = SVUnit(psv=4)
        scores = rng.random(5)
        v = rng.normal(size=(5, 8))
        np.testing.assert_allclose(sv.context_rows(scores, v), scores @ v)
        assert sv.stats.sv_macs == 5 * 8

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="scores"):
            SVUnit(psv=2).context_rows(rng.random(4), rng.normal(size=(5, 8)))


class TestAttentionEngine:
    def test_matches_reference(self, rng):
        engine = AttentionEngine(pqk=4, psv=4)
        q = rng.normal(size=(6, 8))
        k = rng.normal(size=(6, 8))
        v = rng.normal(size=(6, 8))
        np.testing.assert_allclose(
            engine.attend(q, k, v), reference_attention(q, k, v), atol=1e-12
        )

    def test_incompatible_shapes(self, rng):
        engine = AttentionEngine()
        with pytest.raises(ValueError, match="incompatible"):
            engine.attend(rng.normal(size=(4, 8)), rng.normal(size=(4, 7)),
                          rng.normal(size=(4, 8)))

    def test_stats_aggregate(self, rng):
        engine = AttentionEngine(pqk=2, psv=2)
        engine.attend(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)),
                      rng.normal(size=(4, 8)))
        assert engine.stats.qk_macs == 4 * 4 * 8
        assert engine.stats.sv_macs == 4 * 4 * 8
        assert engine.stats.score_rows_emitted == 4


class TestVerifyMode:
    """verify=True: value + op-count parity against repro.kernels."""

    def test_verified_attend_passes(self, rng):
        engine = AttentionEngine(pqk=4, psv=4, verify=True)
        q = rng.normal(size=(6, 8))
        out = engine.attend(q, rng.normal(size=(6, 8)), rng.normal(size=(6, 8)))
        assert out.shape == (6, 8)

    def test_verified_attend_accumulates_across_calls(self, rng):
        """Per-call op-count deltas stay exact even with prior stats."""
        engine = AttentionEngine(pqk=2, psv=2, verify=True)
        for _ in range(3):
            engine.attend(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)),
                          rng.normal(size=(4, 8)))
        assert engine.stats.qk_macs == 3 * 4 * 4 * 8

    def test_value_divergence_raises(self, rng):
        engine = AttentionEngine(verify=True)

        class BrokenQK(QKUnit):
            def score_rows(self, q, keys, scale):
                return super().score_rows(q, keys, scale * 1.01)

        engine.qk = BrokenQK()
        with pytest.raises(RuntimeError, match="diverged from the kernel"):
            engine.attend(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)),
                          rng.normal(size=(4, 8)))

    def test_op_count_divergence_raises(self, rng):
        engine = AttentionEngine(verify=True)

        class Miscounting(QKUnit):
            def score_rows(self, q, keys, scale):
                row = super().score_rows(q, keys, scale)
                self.stats.qk_macs += 1  # phantom MAC
                return row

        engine.qk = Miscounting()
        with pytest.raises(RuntimeError, match="op counts diverged"):
            engine.attend(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)),
                          rng.normal(size=(4, 8)))

    def test_processor_threads_verify_flag(self, rng):
        ap = AttentionProcessor(pae=2, verify=True)
        assert all(e.verify for e in ap.engines)
        ap.attend_heads(rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4)),
                        rng.normal(size=(3, 5, 4)))


class TestAttentionProcessor:
    def test_multi_head_matches_reference(self, rng):
        ap = AttentionProcessor(pae=2, pqk=4, psv=4)
        q = rng.normal(size=(3, 5, 4))
        k = rng.normal(size=(3, 5, 4))
        v = rng.normal(size=(3, 5, 4))
        out = ap.attend_heads(q, k, v)
        for h in range(3):
            np.testing.assert_allclose(
                out[h], reference_attention(q[h], k[h], v[h]), atol=1e-12
            )

    def test_heads_distributed_round_robin(self, rng):
        ap = AttentionProcessor(pae=2, pqk=2, psv=2)
        ap.attend_heads(rng.normal(size=(4, 3, 4)), rng.normal(size=(4, 3, 4)),
                        rng.normal(size=(4, 3, 4)))
        # 4 heads over 2 engines: each engine saw 2 heads x 3 rows.
        for engine in ap.engines:
            assert engine.qk.stats.score_rows_emitted == 6

    def test_shape_validation(self, rng):
        ap = AttentionProcessor(pae=1)
        with pytest.raises(ValueError, match="heads"):
            ap.attend_heads(rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 4)),
                            rng.normal(size=(3, 4, 4)))

    def test_invalid_pae(self):
        with pytest.raises(ValueError, match="pae"):
            AttentionProcessor(pae=0)
