"""Parity and gradcheck suite for the fused training-step kernels.

Every fused node (``linear_act``, ``gelu``, ``residual_layer_norm``,
``cross_entropy_logits``) is validated two ways:

* **finite differences** — the autograd gradient of the fused node must
  match a numeric gradient of its own forward;
* **composite parity** — forward values and all gradients must match the
  pre-fusion composite op chain (``use_fused(False)``), in both dtypes.

Plus the engine-level guarantees the fast path relies on: in-place
accumulation never writes through shared gradient arrays, eager release
frees the graph exactly once, the cached ``W^T`` is invalidated by
optimizer steps, and the segment-sum embedding backward matches
``np.add.at``.
"""

import numpy as np
import pytest

import repro.kernels as K
from repro import nn
from repro.nn import tensor as F
from repro.nn import Tensor

DTYPES = [np.float64, np.float32]
ATOL = {np.float64: 1e-10, np.float32: 1e-4}
FD_ATOL = {np.float64: 1e-6, np.float32: 2e-2}


def _tensors(rng, *shapes):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def _run_loss(out):
    loss = (out * out).sum() if out.size > 1 else out
    loss.backward()


class TestLinearActParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_matches_composite(self, dtype, use_bias):
        rng = np.random.default_rng(3)
        with K.default_dtype(dtype):
            x_np = rng.normal(size=(5, 7, 6))
            w_np = rng.normal(size=(4, 6))
            b_np = rng.normal(size=4) if use_bias else None
            results = {}
            for fused in (True, False):
                with K.use_fused(fused):
                    x = Tensor(x_np.copy(), requires_grad=True)
                    w = nn.Parameter(w_np.copy())
                    b = nn.Parameter(b_np.copy()) if use_bias else None
                    out = F.linear_act(x, w, b)
                    _run_loss(out)
                    results[fused] = (
                        out.data.copy(), x.grad.copy(), w.grad.copy(),
                        None if b is None else b.grad.copy(),
                    )
            atol = ATOL[dtype]
            for got, want in zip(results[True], results[False]):
                if want is None:
                    assert got is None
                    continue
                np.testing.assert_allclose(got, want, atol=atol, rtol=atol)

    def test_finite_difference(self, gradcheck):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        gradcheck(
            F.linear_act,
            x, w, b,
        )

    @pytest.mark.parametrize("activation,need_ctx", [
        ("swish", False), ("relu", False), ("gelu", True)])
    def test_rejects_unknown_activation(self, activation, need_ctx):
        """``relu`` went, and a GELU keeps no context: only tests ever
        asked a projection for either."""
        with pytest.raises(ValueError, match="activation"):
            K.linear_act_forward(np.zeros((2, 3)), np.zeros((2, 3)),
                                 activation=activation, need_ctx=need_ctx)

    def test_rejects_bad_bias_shape(self):
        x = Tensor(np.zeros((2, 3)))
        w = nn.Parameter(np.zeros((4, 3)))
        b = nn.Parameter(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="bias"):
            F.linear_act(x, w, b)

    def test_grad_accumulation_not_corrupted_by_scratch(self):
        """Accumulating into .grad across backwards must stay exact.

        The dW scratch buffer may be the parameter's current ``.grad``
        from the previous step; the kernel must then allocate fresh
        instead of overwriting the accumulated gradient in place.
        """
        rng = np.random.default_rng(11)
        x_np = rng.normal(size=(3, 4))
        w = nn.Parameter(rng.normal(size=(2, 4)))
        for _ in range(2):  # no zero_grad between iterations
            out = F.linear_act(Tensor(x_np), w)
            (out * out).sum().backward()
        single = None
        w2 = nn.Parameter(w.data.copy())
        out = F.linear_act(Tensor(x_np), w2)
        (out * out).sum().backward()
        single = w2.grad
        np.testing.assert_allclose(w.grad, 2 * single, atol=1e-12)


class TestGelu:
    """The one GELU chain: ``kernels.gelu_forward`` / ``gelu_vjp``, run by
    both ``nn.gelu`` and ``linear_act_forward(..., "gelu")``."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_the_seed_formula(self, dtype):
        rng = np.random.default_rng(5)
        z = (3.0 * rng.normal(size=(4, 9, 8))).astype(dtype)
        grad = rng.normal(size=z.shape).astype(dtype)
        with K.default_dtype(dtype), K.use_fused(False):
            seed_in = Tensor(z, requires_grad=True)
            seed_out = F.gelu(seed_in)
            seed_out.backward(grad)
        for need_ctx in (True, False):
            y, t = K.gelu_forward(z, need_ctx)
            assert y.dtype == dtype and (t is None) == (not need_ctx)
            np.testing.assert_allclose(y, seed_out.data, atol=ATOL[dtype],
                                       rtol=ATOL[dtype])
        _, t = K.gelu_forward(z)
        gz = K.gelu_vjp(grad, z, t)
        assert gz.dtype == t.dtype == dtype
        np.testing.assert_allclose(gz, seed_in.grad, atol=ATOL[dtype],
                                   rtol=ATOL[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_vjp_matches_finite_differences(self, dtype):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(3, 5)).astype(dtype)
        _, t = K.gelu_forward(z)
        gz = K.gelu_vjp(np.ones_like(z), z, t)
        z64, eps = z.astype(np.float64), 1e-6
        numeric = (K.gelu_forward(z64 + eps, False)[0]
                   - K.gelu_forward(z64 - eps, False)[0]) / (2 * eps)
        np.testing.assert_allclose(gz, numeric, atol=FD_ATOL[dtype])

    @pytest.mark.parametrize("need_ctx", [True, False])
    def test_inputs_are_never_written(self, need_ctx):
        """Also through a view: the chain's buffers are all its own."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 10))
        for z in (base, base[::2, 1:7], base.T):
            before = base.copy()
            y, _ = K.gelu_forward(z, need_ctx)
            grad = np.ones_like(y)
            K.gelu_vjp(grad, z, K.gelu_forward(z)[1])
            assert not np.shares_memory(y, base)
            np.testing.assert_array_equal(base, before)
            np.testing.assert_array_equal(grad, 1.0)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nn_gelu_and_linear_act_agree_to_the_byte(self, dtype):
        """Same pre-activation in, same bytes out, recording or not, into
        ``out`` or not."""
        rng = np.random.default_rng(8)
        with K.default_dtype(dtype):
            x = rng.normal(size=(5, 6)).astype(dtype)
            w = rng.normal(size=(4, 6)).astype(dtype)
            b = rng.normal(size=4).astype(dtype)
            pre = Tensor(F.linear_act(Tensor(x), nn.Parameter(w), nn.Parameter(b)).data,
                         requires_grad=True)
            plain = F.gelu(pre)
            with nn.no_grad():
                no_grad_plain = F.gelu(pre)
        fused = K.linear_act_forward(x, w, b, "gelu", need_ctx=False)[0]
        into = K.linear_act_forward(x, w, b, "gelu", need_ctx=False,
                                    out=np.empty_like(fused))[0]
        assert plain.dtype == dtype
        for other in (fused, into, no_grad_plain.data):
            assert other.tobytes() == plain.data.tobytes()

    def test_float32_fabnet_step_leaves_fc1_grads_float32(self):
        """``nn.gelu``'s backward once ran in float64 (a ``np.float64``
        constant is a strong scalar), and fc1's butterfly VJP with it."""
        from repro.models import ModelConfig, build_fabnet

        cfg = ModelConfig(vocab_size=16, n_classes=2, max_len=8, d_hidden=8,
                          n_heads=2, r_ffn=2, n_total=2, n_abfly=1,
                          dtype="float32")
        model = build_fabnet(cfg)
        tokens = np.random.default_rng(9).integers(0, 16, size=(2, 8))
        with cfg.dtype_context():
            nn.cross_entropy_logits(model(tokens), np.array([0, 1])).backward()
        for block in model.blocks:
            fc1 = block.ffn.fc1
            grads = [p.grad for p in fc1.stage_parameters()] + [fc1.bias.grad]
            assert [g.dtype for g in grads] == [np.float32] * len(grads)


class TestResidualLayerNormParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_composite(self, dtype):
        rng = np.random.default_rng(7)
        with K.default_dtype(dtype):
            x_np = rng.normal(size=(4, 5, 8))
            s_np = rng.normal(size=(4, 5, 8))
            results = {}
            for fused in (True, False):
                with K.use_fused(fused):
                    x = Tensor(x_np.copy(), requires_grad=True)
                    s = Tensor(s_np.copy(), requires_grad=True)
                    gamma = nn.Parameter(np.full(8, 1.3))
                    beta = nn.Parameter(np.full(8, 0.2))
                    out = F.residual_layer_norm(x, s, gamma, beta)
                    _run_loss(out)
                    results[fused] = (
                        out.data.copy(), x.grad.copy(), s.grad.copy(),
                        gamma.grad.copy(), beta.grad.copy(),
                    )
            atol = ATOL[dtype] * 100  # LN backward stacks a few reductions
            for got, want in zip(results[True], results[False]):
                np.testing.assert_allclose(got, want, atol=atol, rtol=atol)

    def test_finite_difference(self, gradcheck):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 6))
        s = rng.normal(size=(3, 6))
        gamma = rng.normal(size=6)
        beta = rng.normal(size=6)
        gradcheck(F.residual_layer_norm, x, s, gamma, beta)

    def test_rejects_shape_mismatch(self):
        x = Tensor(np.zeros((2, 4)))
        s = Tensor(np.zeros((2, 5)))
        p = nn.Parameter(np.ones(4))
        with pytest.raises(ValueError, match="residual"):
            F.residual_layer_norm(x, s, p, p)

    def test_shared_branch_gradients_stay_independent(self):
        """dx is dsub (one shared array); both residual branches must
        still accumulate independently when one branch fans out."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        g = nn.Parameter(np.ones(4))
        b = nn.Parameter(np.zeros(4))
        # x feeds both residual branches: grads must sum, not alias.
        out = F.residual_layer_norm(x, x * 1.0, g, b)
        (out * out).sum().backward()
        x2 = Tensor(x.data.copy(), requires_grad=True)
        with K.use_fused(False):
            out2 = F.residual_layer_norm(x2, x2 * 1.0, nn.Parameter(np.ones(4)),
                                         nn.Parameter(np.zeros(4)))
            (out2 * out2).sum().backward()
        np.testing.assert_allclose(x.grad, x2.grad, atol=1e-12)


class TestCrossEntropyLogitsParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_composite(self, dtype):
        rng = np.random.default_rng(17)
        with K.default_dtype(dtype):
            logits_np = rng.normal(size=(9, 6)) * 3
            targets = rng.integers(0, 6, size=9)
            results = {}
            for fused in (True, False):
                with K.use_fused(fused):
                    logits = Tensor(logits_np.copy(), requires_grad=True)
                    loss = F.cross_entropy_logits(logits, targets)
                    loss.backward()
                    results[fused] = (float(loss.data), logits.grad.copy())
            atol = ATOL[dtype]
            assert abs(results[True][0] - results[False][0]) < atol
            np.testing.assert_allclose(
                results[True][1], results[False][1], atol=atol, rtol=atol
            )

    def test_finite_difference(self):
        rng = np.random.default_rng(19)
        logits_np = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)
        logits = Tensor(logits_np.copy(), requires_grad=True)
        F.cross_entropy_logits(logits, targets).backward()
        eps = 1e-6
        numeric = np.zeros_like(logits_np)
        for i in range(5):
            for j in range(4):
                for sign, slot in ((+1, 0), (-1, 1)):
                    shifted = logits_np.copy()
                    shifted[i, j] += sign * eps
                    val = float(
                        F.cross_entropy_logits(Tensor(shifted), targets).data
                    )
                    numeric[i, j] += sign * val / (2 * eps)
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-6)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="batch, classes"):
            F.cross_entropy_logits(Tensor(np.zeros((2, 3, 4))), np.zeros(2))

    def test_rejects_target_shape(self):
        with pytest.raises(ValueError, match="targets"):
            F.cross_entropy_logits(Tensor(np.zeros((2, 3))), np.zeros(3))


class TestEmbeddingSegmentSum:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_add_at(self, dtype):
        rng = np.random.default_rng(23)
        with K.default_dtype(dtype):
            idx = rng.integers(0, 11, size=(4, 17))
            grad = rng.normal(size=(4, 17, 5)).astype(dtype)
            want = np.zeros((11, 5), dtype=dtype)
            np.add.at(want, idx.reshape(-1), grad.reshape(-1, 5))
            got = K.embedding_grad(idx, grad, 11)
            np.testing.assert_allclose(got, want, atol=ATOL[dtype])

    def test_empty_indices(self):
        got = K.embedding_grad(np.zeros((0,), dtype=np.int64),
                               np.zeros((0, 3)), 7)
        assert got.shape == (7, 3)
        assert not got.any()

    def test_embedding_op_uses_segment_sum_and_matches_composite(self):
        rng = np.random.default_rng(29)
        idx = rng.integers(0, 6, size=(3, 8))
        grads = {}
        for fused in (True, False):
            with K.use_fused(fused):
                w = nn.Parameter(rng.normal(size=(6, 4)))
                out = F.embedding(w, idx)
                out.backward(np.ones_like(out.data))
                grads[fused] = w.grad
        np.testing.assert_allclose(grads[True], grads[False], atol=1e-12)


class TestTransposeCache:
    def test_optimizer_step_invalidates_cache(self):
        """An in-place Adam step must bump the parameter version so the
        next forward recomputes W^T from the updated weights."""
        rng = np.random.default_rng(31)
        layer = nn.Linear(6, 4, rng=rng)
        opt = nn.Adam(layer.parameters(), lr=0.1)
        x = Tensor(rng.normal(size=(8, 6)))
        out1 = layer(x)
        assert getattr(layer.weight, "_wt_cache", None) is not None
        layer.zero_grad()
        out = layer(Tensor(rng.normal(size=(8, 6)), requires_grad=True))
        (out * out).sum().backward()
        version_before = layer.weight.version
        opt.step()
        assert layer.weight.version > version_before
        out2 = layer(x)
        expected = x.data @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out2.data, expected, atol=1e-12)
        assert not np.allclose(out1.data, out2.data)

    def test_load_state_dict_invalidates_cache(self):
        rng = np.random.default_rng(41)
        layer = nn.Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)))
        layer(x)  # prime the cache
        state = {k: v * 2.0 for k, v in layer.state_dict().items()}
        layer.load_state_dict(state)
        out = layer(x)
        np.testing.assert_allclose(
            out.data, x.data @ layer.weight.data.T + layer.bias.data,
            atol=1e-12,
        )

    def test_cached_transpose_is_reused_between_steps(self):
        rng = np.random.default_rng(43)
        layer = nn.Linear(5, 5, rng=rng)
        layer(Tensor(rng.normal(size=(2, 5))))
        cache1 = layer.weight._wt_cache
        layer(Tensor(rng.normal(size=(2, 5))))
        assert layer.weight._wt_cache is cache1

    def test_plain_tensor_weight_works_without_cache(self):
        rng = np.random.default_rng(47)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        out = F.linear_act(x, w)
        np.testing.assert_allclose(out.data, x.data @ w.data.T, atol=1e-12)
        (out * out).sum().backward()
        assert w.grad is not None and x.grad is not None


class TestEngineAccumulation:
    def test_shared_gradient_arrays_never_mutated(self):
        """add hands the same array to both parents; a later in-place
        accumulation into one must not corrupt the other."""
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        s = x + y
        t = s + x  # x receives two contributions, y exactly one
        t.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))
        np.testing.assert_allclose(y.grad, np.ones(3))

    def test_high_fanout_accumulation(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = x * 1.0
        for k in range(2, 6):
            out = out + x * float(k)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0 + 2 + 3 + 4 + 5])

    def test_eager_release_frees_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        mid = x * 2.0
        loss = mid.sum()
        loss.backward()
        assert mid._parents == ()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()

    def test_second_loss_through_released_subgraph_raises(self):
        """A second backward through a *shared* released interior node
        must raise, never silently drop its gradient contribution."""
        rng = np.random.default_rng(59)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = nn.Parameter(rng.normal(size=(2, 4)))
        h = F.linear_act(x, w)
        l1 = (h * h).sum()
        l2 = (h + h).sum()
        l1.backward()
        with pytest.raises(RuntimeError, match="freed"):
            l2.backward()

    def test_retain_graph_allows_second_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward(retain_graph=True)
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_released_tensor_behaves_as_detached_input(self):
        x = Tensor(np.ones(2), requires_grad=True)
        mid = x * 3.0
        mid.sum().backward()
        # Building new ops on the released interior tensor must not
        # resurrect the freed graph.
        out = mid * 2.0
        assert out._backward is None


class TestFusedToggle:
    def test_toggle_scopes_and_restores(self):
        assert K.fused_enabled()
        with K.use_fused(False):
            assert not K.fused_enabled()
            with K.use_fused(True):
                assert K.fused_enabled()
            assert not K.fused_enabled()
        assert K.fused_enabled()

    def test_graph_recorded_under_toggle_backprops_consistently(self):
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = nn.Parameter(rng.normal(size=(2, 4)))
        with K.use_fused(False):
            out = F.linear_act(x, w)
        # Toggle flipped back on before backward: composite graph must
        # still backpropagate through its recorded composite nodes.
        (out * out).sum().backward()
        assert x.grad is not None and w.grad is not None
