"""ButterflyLinear: equivalence with its dense expansion, padding, FLOPs."""

import numpy as np
import pytest

from repro import kernels, nn
from repro.butterfly.matrix import butterfly_flops
from repro.kernels.grouped import plan_cache_stats


class TestForwardEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
    def test_square_matches_dense_weight(self, n, rng):
        layer = nn.ButterflyLinear(n, n, rng=rng)
        x = rng.normal(size=(3, n))
        expected = x @ layer.dense_weight().T + layer.bias.data
        np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected, atol=1e-10)

    @pytest.mark.parametrize("d_in,d_out", [(6, 8), (8, 3), (5, 5), (10, 24)])
    def test_rectangular_matches_dense_weight(self, d_in, d_out, rng):
        layer = nn.ButterflyLinear(d_in, d_out, rng=rng)
        x = rng.normal(size=(4, d_in))
        expected = x @ layer.dense_weight().T + layer.bias.data
        np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected, atol=1e-10)

    def test_3d_input(self, rng):
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        out = layer(nn.Tensor(rng.normal(size=(2, 3, 8))))
        assert out.shape == (2, 3, 8)

    def test_wrong_input_dim_raises(self, rng):
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        with pytest.raises(ValueError, match="input dim"):
            layer(nn.Tensor(rng.normal(size=(2, 9))))

    def test_one_by_one_layer(self, rng):
        """``ButterflyLinear(1, 1)`` is a one-stage ``n = 2`` ladder: the
        recorded call and the frozen one both equal its dense weight."""
        layer = nn.ButterflyLinear(1, 1, rng=rng)
        assert layer.n == 2 and layer.halves == [1]
        x = rng.normal(size=(5, 1))
        expected = x @ layer.dense_weight().T + layer.bias.data
        xt = nn.Tensor(x, requires_grad=True)
        recorded = layer(xt)
        np.testing.assert_allclose(recorded.data, expected, atol=1e-12)
        recorded.sum().backward()
        np.testing.assert_allclose(xt.grad, np.full((5, 1), layer.dense_weight()[0, 0]),
                                   atol=1e-12)
        with nn.no_grad():
            np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected, atol=1e-12)

    def test_no_bias(self, rng):
        layer = nn.ButterflyLinear(4, 4, bias=False, rng=rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.dense_weight().T
        np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected, atol=1e-12)


class TestParameterization:
    def test_butterfly_size_next_pow2(self, rng):
        assert nn.ButterflyLinear(6, 8, rng=rng).n == 8
        assert nn.ButterflyLinear(9, 4, rng=rng).n == 16
        assert nn.ButterflyLinear(16, 16, rng=rng).n == 16

    def test_parameter_count_is_2nlogn_plus_bias(self, rng):
        layer = nn.ButterflyLinear(16, 16, rng=rng)
        assert layer.num_parameters() == 2 * 16 * 4 + 16

    def test_fewer_params_than_dense(self, rng):
        n = 256
        butterfly = nn.ButterflyLinear(n, n, rng=rng)
        assert butterfly.num_parameters() < n * n / 8

    def test_stage_parameters_in_order(self, rng):
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        assert [p.shape for p in layer.stage_parameters()] == [(4, 4)] * 3
        assert layer.halves == [1, 2, 4]

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="positive"):
            nn.ButterflyLinear(0, 4)


class TestGradients:
    def test_all_stages_receive_gradients(self, rng):
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        out = layer(nn.Tensor(rng.normal(size=(4, 8))))
        (out * out).sum().backward()
        for stage in layer.stage_parameters():
            assert stage.grad is not None
            assert np.abs(stage.grad).sum() > 0

    def test_gradient_matches_dense_path(self, rng):
        """d loss/d x through the butterfly equals the dense-weight version."""
        layer = nn.ButterflyLinear(8, 8, bias=False, rng=rng)
        x_val = rng.normal(size=(2, 8))
        x1 = nn.Tensor(x_val.copy(), requires_grad=True)
        (layer(x1) * 2.0).sum().backward()
        dense = layer.dense_weight()
        expected = 2.0 * np.ones((2, 8)) @ dense
        np.testing.assert_allclose(x1.grad, expected, atol=1e-10)

    def test_trainable_to_identity(self, rng):
        """A butterfly layer can fit a simple linear target by gradient descent."""
        layer = nn.ButterflyLinear(4, 4, bias=False, rng=rng)
        opt = nn.Adam(layer.parameters(), lr=0.05)
        target = np.eye(4)
        x = rng.normal(size=(64, 4))
        first_loss = None
        for step in range(150):
            out = layer(nn.Tensor(x))
            loss = ((out - nn.Tensor(x @ target.T)) ** 2).mean()
            if first_loss is None:
                first_loss = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first_loss * 0.05


class TestFlops:
    def test_flops_formula(self, rng):
        layer = nn.ButterflyLinear(16, 16, rng=rng)
        assert layer.flops(rows=3) == butterfly_flops(16, 3) + 3 * 16

    def test_flops_without_bias(self, rng):
        layer = nn.ButterflyLinear(16, 16, bias=False, rng=rng)
        assert layer.flops(rows=2) == butterfly_flops(16, 2)

    def test_to_butterfly_matrix_snapshot(self, rng):
        layer = nn.ButterflyLinear(8, 8, rng=rng)
        matrix = layer.to_butterfly_matrix()
        x = rng.normal(size=8)
        padded_out = matrix.apply(x)
        np.testing.assert_allclose(
            padded_out[:8],
            layer(nn.Tensor(x[None, :])).data[0] - layer.bias.data,
            atol=1e-10,
        )
        # Snapshot is a copy: mutating the layer does not affect it.
        layer.stage_parameters()[0].data[:] = 0.0
        np.testing.assert_allclose(matrix.apply(x), padded_out)


def _fresh_reference(layer, x):
    """Zero-pad, per-stage reference chain, slice, bias — from the layer's
    current weights, sharing no code with the frozen path."""
    padded = np.zeros(x.shape[:-1] + (layer.n,), dtype=x.dtype)
    padded[..., : layer.in_features] = x
    out = kernels.butterfly_apply_reference(
        padded, [p.data for p in layer.stage_parameters()], layer.halves)
    return out[..., : layer.out_features] + layer.bias.data


def _builds():
    return plan_cache_stats()["frozen_builds"]


class TestFrozenInference:
    """Under ``no_grad`` the layer runs its frozen ladder: built once per
    weight version, rebuilt by exactly the events that change the weights."""

    @pytest.mark.parametrize("d_in,d_out", [(32, 64), (64, 32), (24, 40), (128, 512)])
    @pytest.mark.parametrize("lead", [(1, 1), (4, 1), (1, 33), (3, 17)])
    def test_matches_reference_and_grad_path(self, rng, d_in, d_out, lead):
        layer = nn.ButterflyLinear(d_in, d_out, rng=rng)
        x = rng.normal(size=lead + (d_in,))
        with nn.no_grad():
            frozen = layer(nn.Tensor(x)).data
        assert frozen.shape == lead + (d_out,)
        np.testing.assert_allclose(frozen, _fresh_reference(layer, x), atol=1e-9)
        np.testing.assert_allclose(frozen, layer(nn.Tensor(x)).data, atol=1e-9)

    def test_second_call_does_not_rebuild(self, rng):
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        x = nn.Tensor(rng.normal(size=(4, 1, 32)))
        with nn.no_grad():
            before = _builds()
            hits = plan_cache_stats()["frozen_hits"]
            first = layer(x).data  # builds, then applies: one hit
            assert _builds() == before + 1
            assert plan_cache_stats()["frozen_hits"] == hits + 1
            second = layer(x).data
            assert _builds() == before + 1
            assert plan_cache_stats()["frozen_hits"] == hits + 2
        np.testing.assert_array_equal(first, second)

    def _assert_rebuilt_once_and_fresh(self, layer, x, before):
        with nn.no_grad():
            out = layer(nn.Tensor(x)).data
            assert _builds() == before + 1
            np.testing.assert_allclose(out, _fresh_reference(layer, x), atol=1e-9)
            np.testing.assert_array_equal(layer(nn.Tensor(x)).data, out)
            assert _builds() == before + 1

    def test_optimizer_step_invalidates(self, rng):
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        opt = nn.Adam(layer.parameters(), lr=0.1)
        x = rng.normal(size=(4, 1, 32))
        with nn.no_grad():
            stale = layer(nn.Tensor(x)).data
        (layer(nn.Tensor(x)) ** 2).sum().backward()
        opt.step()
        self._assert_rebuilt_once_and_fresh(layer, x, _builds())
        with nn.no_grad():
            assert np.abs(layer(nn.Tensor(x)).data - stale).max() > 1e-3

    def test_load_state_dict_invalidates(self, rng):
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        donor = nn.ButterflyLinear(32, 64, rng=rng)
        x = rng.normal(size=(4, 1, 32))
        with nn.no_grad():
            layer(nn.Tensor(x))
        layer.load_state_dict(donor.state_dict())
        self._assert_rebuilt_once_and_fresh(layer, x, _builds())
        with nn.no_grad():
            np.testing.assert_array_equal(
                layer(nn.Tensor(x)).data, donor(nn.Tensor(x)).data)

    def test_data_rebind_invalidates(self, rng):
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        x = rng.normal(size=(4, 1, 32))
        with nn.no_grad():
            layer(nn.Tensor(x))
        stage = layer.stage_parameters()[2]
        stage.data = stage.data * 0.5  # no version bump: identity alone
        self._assert_rebuilt_once_and_fresh(layer, x, _builds())

    def test_dtype_context_switch_invalidates(self, rng):
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        x = rng.normal(size=(4, 1, 32))
        with nn.no_grad():
            out64 = layer(nn.Tensor(x)).data
            with nn.default_dtype("float32"):
                before = _builds()
                out32 = layer(nn.Tensor(x)).data  # float32 input, float64 stages
                assert _builds() == before + 1
                layer(nn.Tensor(x))
                assert _builds() == before + 1
            np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-5)
            before = _builds()
            np.testing.assert_array_equal(layer(nn.Tensor(x)).data, out64)
            assert _builds() == before + 1

    def test_float32_model_runs_frozen_in_float32(self, rng):
        with nn.default_dtype("float32"):
            layer = nn.ButterflyLinear(128, 512, rng=rng)
            x = rng.normal(size=(2, 9, 128)).astype(np.float32)
            with nn.no_grad():
                out = layer(nn.Tensor(x)).data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, _fresh_reference(layer, x),
                                   rtol=2e-3, atol=2e-3)

    def test_copies_and_pickles_drop_the_ladder(self, rng):
        import copy
        import pickle
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        x = nn.Tensor(rng.normal(size=(4, 1, 32)))
        with nn.no_grad():
            expected = layer(x).data
        assert layer._frozen._entry is not None
        for clone in (copy.deepcopy(layer), pickle.loads(pickle.dumps(layer))):
            assert clone._frozen._entry is None
            with nn.no_grad():
                np.testing.assert_array_equal(clone(x).data, expected)
        assert layer._frozen._entry is not None

    def test_complex_input_runs_the_frozen_ladder(self, rng):
        """A complex result is a dtype like any other: one frozen ladder,
        built once, where it used to fall back to pad -> chain -> slice."""
        layer = nn.ButterflyLinear(24, 40, rng=rng)
        x = rng.normal(size=(3, 24)) + 1j * rng.normal(size=(3, 24))
        before = _builds()
        with nn.no_grad():
            out = layer(nn.Tensor(x, dtype=np.complex128)).data
            layer(nn.Tensor(x, dtype=np.complex128))
        assert _builds() == before + 1
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, _fresh_reference(layer, x), atol=1e-9)

    def test_batch_rows_bitwise_equal_to_solo_rows(self, rng):
        layer = nn.ButterflyLinear(32, 64, rng=rng)
        x = rng.normal(size=(5, 1, 32))
        with nn.no_grad():
            batched = layer(nn.Tensor(x)).data
            for row in range(5):
                solo = layer(nn.Tensor(x[row : row + 1])).data
                np.testing.assert_array_equal(batched[row], solo[0])


def _recorded_call(layer, xt):
    """``layer(xt)`` plus the kernel context its one ladder node saved."""
    contexts = []
    real = kernels.butterfly_apply

    def spy(*args, **kwargs):
        y, ctx = real(*args, **kwargs)
        contexts.append(ctx)
        return y, ctx

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "butterfly_apply", spy)
        out = layer(xt)
    (ctx,) = contexts  # one kernel call per layer call
    # One graph node between x and the bias add, whatever the fold.
    ladder_node, bias = out._parents
    assert bias is layer.bias
    assert ladder_node._parents == (xt, *layer.stage_parameters())
    return out, ctx


def _reachable_arrays(obj, seen):
    """Every ndarray a kernel context keeps alive, views counted as the
    buffer they pin."""
    if isinstance(obj, np.ndarray):
        while obj.base is not None:
            obj = obj.base
        seen[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _reachable_arrays(item, seen)
    elif isinstance(obj, kernels.GroupedContext):
        for name in obj.__slots__:
            _reachable_arrays(getattr(obj, name), seen)
    return seen


class TestTrainingPathUnchanged:
    """With gradients recorded the layer is one ladder node -> bias; the
    kernel entry owns the zero-pad and the output slice.  Which kernel runs
    under that node is the dispatch table below."""

    @pytest.mark.parametrize("d_in,d_out,rows,kind", [
        (6, 8, 4, "grouped"),         # inside the area budget, rows < in_features
        (24, 40, 3, "grouped"),
        (128, 512, 64, "grouped"),
        (256, 512, 256, "grouped"),   # over the area budget
    ])
    def test_forward_backward_bits(self, rng, d_in, d_out, rows, kind):
        """Shapes the dense rule leaves alone: the bits of zero-pad ->
        ladder -> slice, as they always were."""
        layer = nn.ButterflyLinear(d_in, d_out, rng=rng)
        stages = [p.data for p in layer.stage_parameters()]
        x = rng.normal(size=(rows, d_in))
        xt = nn.Tensor(x, requires_grad=True)
        before = _builds()
        out, layer_ctx = _recorded_call(layer, xt)
        assert layer_ctx[0] == kind
        grad = rng.normal(size=out.shape)
        out.backward(grad)
        assert _builds() == before  # nothing frozen on the recorded path

        padded = np.pad(x, [(0, 0), (0, layer.n - d_in)])
        y, ctx = kernels.butterfly_apply(padded, stages, layer.halves)
        assert ctx[0] == kind
        np.testing.assert_array_equal(out.data, y[:, :d_out] + layer.bias.data)
        full = np.zeros_like(y)
        full[:, :d_out] = grad
        gx, gstages = kernels.butterfly_apply_vjp(full, ctx)
        np.testing.assert_array_equal(xt.grad, gx[:, :d_in])
        for param, expected in zip(layer.stage_parameters(), gstages):
            np.testing.assert_array_equal(param.grad, expected)
        np.testing.assert_array_equal(layer.bias.grad, grad.sum(axis=0))

    @pytest.mark.parametrize("d_in,d_out,lead", [
        (128, 512, (2, 1024)),   # train_fit's FFN, up and down
        (512, 128, (2, 1024)),
        (128, 128, (2, 1024)),   # ... and its attention projections
        (64, 256, (64,)),        # rows == in_features
    ])
    def test_small_folds_run_densified(self, rng, d_in, d_out, lead):
        """Shapes the rule takes: the ladder runs on the identity's
        ``in_features`` rows, and the context keeps ``x`` by reference and
        nothing else of ``rows`` height."""
        layer = nn.ButterflyLinear(d_in, d_out, rng=rng)
        x = rng.normal(size=lead + (d_in,))
        xt = nn.Tensor(x, requires_grad=True)
        before = _builds()
        out, ctx = _recorded_call(layer, xt)
        assert ctx[0] == "dense"
        kept = _reachable_arrays(ctx, {})
        assert kept.pop(id(xt.data)) is xt.data
        rows = int(np.prod(lead))
        kept_bytes = sum(a.nbytes for a in kept.values())
        # W, the coefficients' copy and both tiers' prefix products:
        # O(in_features * n), where the chunked kernel keeps two rows x n
        # chunk inputs.
        assert kept_bytes <= 6 * d_in * layer.n * x.itemsize
        if rows >= 4 * d_in:
            assert kept_bytes < rows * layer.n * x.itemsize

        np.testing.assert_allclose(out.data, _fresh_reference(layer, x), atol=1e-9)
        grad = rng.normal(size=out.shape)
        out.backward(grad)
        assert _builds() == before
        dense = layer.dense_weight()
        np.testing.assert_allclose(xt.grad, grad @ dense, atol=1e-9)
        # Stage gradients against the chunked kernel on the padded input.
        padded = np.zeros((rows, layer.n))
        padded[:, :d_in] = x.reshape(rows, d_in)
        full = np.zeros((rows, layer.n))
        full[:, :d_out] = grad.reshape(rows, d_out)
        _, gctx = kernels.grouped_forward(
            padded, [p.data for p in layer.stage_parameters()],
            kernels.get_plan(layer.n, len(layer.halves)))
        _, gstages = kernels.grouped_vjp(full, gctx)
        for param, expected in zip(layer.stage_parameters(), gstages):
            np.testing.assert_allclose(param.grad, expected, rtol=1e-9, atol=1e-9)


class TestFaultPointTraversals:
    def test_one_traversal_per_ladder_call_per_decode_step(self):
        """A ``REPRO_FAULTS`` schedule on ``kernels.butterfly_apply`` counts
        one traversal per butterfly layer per decode step — what it counted
        before the ladder was frozen — so ``every=``/``after=`` schedules
        land on the same steps."""
        from repro.faults import use_faults
        from repro.models import ModelConfig, build_butterfly_decoder

        config = ModelConfig(vocab_size=28, max_len=32, d_hidden=32, n_heads=4,
                             r_ffn=2, n_total=2, seed=0)
        model = build_butterfly_decoder(config).eval()
        ladders = sum(isinstance(m, nn.ButterflyLinear)
                      for m in _walk_modules(model))
        assert ladders == 12
        tokens = np.zeros((3,), dtype=np.int64)
        with nn.no_grad():
            cache = model.make_cache(3)
            model.prefill(np.ones((3, 4), dtype=np.int64), cache)
            model.decode_step(tokens, cache)  # ladders built
            with use_faults("kernels.butterfly_apply:transient:after=1000000") as injector:
                for _ in range(5):
                    model.decode_step(tokens, cache)
            hits = injector.snapshot()["rules"][0]["hits"]
        assert hits == 5 * ladders


def _walk_modules(module):
    yield module
    for child in module._modules.values():
        yield from _walk_modules(child)
