"""The stored-weight tier contract: the obligations of the stored format.

Each entry of ``nn.QUANT_MODES`` (int8 is the only one) is a *stored
format* for dense weights, served by one kernel (``quantized_linear``)
and one module (``QuantizedLinear``).  Whatever it does to precision, it
owes the caller the invariants below; the ``store_weight`` fixture
(``tests/conftest.py``) stores a weight in it.
"""

import numpy as np
import pytest

from repro import kernels, nn
from repro.kernels import quant as QK
from repro.models import ModelConfig, build_butterfly_decoder, build_dense_decoder
from repro.serving import SamplingParams, ServingEngine

@pytest.fixture
def store(store_weight, mode):
    return lambda w: store_weight(mode, w)


def _held(*arrays):
    return sum(a.nbytes for a in arrays)


def _decoder_config(dtype):
    return ModelConfig(
        vocab_size=28, n_classes=2, max_len=24, d_hidden=32,
        n_heads=4, r_ffn=2, n_total=2, seed=0, dtype=np.dtype(dtype).name,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", nn.QUANT_MODES)
class TestTierContract:
    def test_blocked_gemm_matches_reference(self, rng, store, mode, dtype):
        """The cache-blocked kernel computes the unblocked oracle's function."""
        for out_f, in_f in ((48, 32), (300, 128), (64, 520)):
            q, scales = store(rng.normal(size=(out_f, in_f)))
            bias = rng.normal(size=out_f).astype(dtype)
            x = rng.normal(size=(2, 5, in_f)).astype(dtype)
            packed = QK.pack_weight(q, scales, bias, itemsize=x.itemsize)
            got = QK.quantized_linear(x, packed, scales, bias)
            want = QK.quantized_linear_reference(x, q, scales, bias)
            assert got.dtype == dtype and got.shape == (2, 5, out_f)
            np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)

    def test_packed_holds_the_codes_and_nothing_more(self, rng, store, mode, dtype):
        """The layout is execution-only: the blocks the GEMM reads are
        the ``(out, in)`` codes they were packed from, element for
        element and byte for byte, and the kernel over them computes the
        unblocked oracle's function."""
        for out_f, in_f in ((100, 64), (300, 520), (5, 3)):
            q, scales = store(rng.normal(size=(out_f, in_f)))
            bias = rng.normal(size=out_f).astype(dtype)
            packed = QK.pack_weight(
                q, scales, bias, itemsize=np.dtype(dtype).itemsize)
            assert packed.shape == q.shape and packed.dtype == q.dtype
            assert packed.nbytes == q.nbytes
            np.testing.assert_array_equal(
                np.concatenate([block.T for _, _, block in packed.blocks]), q)
            x = rng.normal(size=(7, in_f)).astype(dtype)
            np.testing.assert_allclose(
                QK.quantized_linear(x, packed, scales, bias),
                QK.quantized_linear_reference(x, q, scales, bias),
                rtol=2e-5, atol=2e-5)

    def test_module_forward_equals_kernel_bytes(self, rng, store, mode, dtype):
        q, scales = store(rng.normal(size=(24, 16)))
        bias = rng.normal(size=24).astype(dtype)
        x = rng.normal(size=(3, 16)).astype(dtype)
        layer = nn.QuantizedLinear(q, scales, bias, dtype=dtype)
        with kernels.default_dtype(dtype), nn.no_grad():
            np.testing.assert_array_equal(
                layer(nn.Tensor(x)).data,
                QK.quantized_linear(x, layer.q_weight, scales, bias),
            )

    def test_weight_nbytes_is_sum_of_held_arrays(self, rng, store, mode, dtype):
        q, scales = store(rng.normal(size=(24, 16)))
        bias = rng.normal(size=24).astype(dtype)
        assert nn.QuantizedLinear(q, scales, bias).weight_nbytes() == _held(
            q, scales, bias
        )
        assert nn.QuantizedLinear(q, scales).weight_nbytes() == _held(q, scales)

    def test_training_mode_raises(self, rng, mode, dtype):
        config = _decoder_config(dtype)
        with config.dtype_context():
            for builder in (build_dense_decoder, build_butterfly_decoder):
                replica = nn.quantize_for_inference(
                    builder(config).eval(), mode=mode
                )
                replica.train(True)
                tokens = rng.integers(1, config.vocab_size, size=(1, 4))
                with pytest.raises(RuntimeError, match="inference-only"):
                    replica(tokens)

    def test_replica_served_batched_equals_served_solo(self, rng, mode, dtype):
        config = _decoder_config(dtype)
        with config.dtype_context():
            model = build_dense_decoder(config).eval()
        prompts = [rng.integers(1, config.vocab_size, size=4 + i) for i in range(4)]

        def serve(indices, max_batch_size):
            engine = ServingEngine(
                model, max_batch_size=max_batch_size, seed=0, quantize=mode
            )
            rids = [
                engine.submit(prompts[i], SamplingParams(
                    max_new_tokens=8, temperature=0.8, seed=i))
                for i in indices
            ]
            results = engine.run()
            return [results[rid].tokens for rid in rids]

        batched = serve(range(4), max_batch_size=4)
        for i in range(4):
            assert serve([i], max_batch_size=1) == [batched[i]], (mode, i)

