"""``encode_long`` and ``train_fit``: one FABNet shape run forwards only,
and forwards-and-backwards under the trainer."""

from __future__ import annotations

from typing import Dict

import numpy as np

import harness
from harness import clock, time_ms
from repro import kernels, nn
from repro.data import load_task
from repro.kernels.grouped import plan_cache_stats
from repro.models import ModelConfig, build_fabnet
from repro.training import Trainer
from workload import Measured, Workload

SEQ_LEN = 1024
#: 1 FBfly + 1 ABfly block, fp32, at the paper's long-sequence length.
FABNET = dict(
    max_len=SEQ_LEN, d_hidden=128, n_heads=4, r_ffn=4, n_total=2, n_abfly=1,
    dtype="float32", seed=0,
)
ORACLE_RTOL = 1e-4
#: fp32 gradients through two blocks at L=1024, fused vs composite.
GRAD_RTOL = 1e-3


def fabnet_probes(model, batch: int, backward: bool) -> Dict[str, float]:
    """Time the public kernel functions at the shapes this model gives
    them for ``batch`` sequences of ``SEQ_LEN`` tokens."""
    cfg = model.config
    rng = np.random.default_rng(0)

    def randn(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    rows = batch * SEQ_LEN
    fc1 = model.blocks[0].ffn.fc1
    coeffs = [p.data for p in fc1.stage_parameters()]
    x_bfly = randn(rows, fc1.n)
    d_head = cfg.d_hidden // cfg.n_heads
    q = randn(batch, cfg.n_heads, SEQ_LEN, d_head)
    macs = kernels.expected_macs(SEQ_LEN, SEQ_LEN, d_head)
    hidden = randn(batch, SEQ_LEN, cfg.d_hidden)
    wide = nn.Tensor(randn(batch, SEQ_LEN, cfg.d_hidden * cfg.r_ffn))
    norm = model.blocks[0].norm1
    pooled = randn(batch, cfg.d_hidden)
    head_w, head_b = model.head.weight.data, model.head.bias.data
    with cfg.dtype_context(), nn.no_grad():
        out = {
            "kernels.butterfly_apply_ms": time_ms(
                lambda: kernels.butterfly_apply(
                    x_bfly, coeffs, fc1.halves, need_ctx=False), 20),
            "kernels.butterfly_apply_flops": fc1.flops(rows),
            "kernels.attention_forward_ms": time_ms(
                lambda: kernels.attention_forward(q, q, q, need_ctx=False), 10),
            "kernels.attention_forward_flops": 2 * batch * cfg.n_heads * (
                macs["qk_macs"] + macs["sv_macs"]),
            "kernels.linear_act_forward_ms": time_ms(
                lambda: kernels.linear_act_forward(
                    pooled, head_w, head_b, need_ctx=False), 200),
            "kernels.residual_layer_norm_ms": time_ms(
                lambda: kernels.residual_layer_norm_forward(
                    hidden, hidden, norm.gamma.data, norm.beta.data,
                    need_ctx=False), 20),
            "nn.gelu_ms": time_ms(lambda: nn.gelu(wide), 10),
            "nn.fourier_mix_2d_ms": time_ms(
                lambda: nn.fourier_mix_2d(nn.Tensor(hidden)), 10),
        }
    if not backward:
        return out
    _, bfly_ctx = kernels.butterfly_apply(x_bfly, coeffs, fc1.halves)
    attn_out, attn_ctx = kernels.attention_forward(q, q, q)
    head_out, head_ctx = kernels.linear_act_forward(pooled, head_w, head_b)
    targets = rng.integers(0, cfg.n_classes, size=batch)
    tokens = rng.integers(0, cfg.vocab_size, size=(batch, SEQ_LEN))

    def cross_entropy():
        _, ctx = kernels.cross_entropy_logits_forward(head_out, targets)
        kernels.cross_entropy_logits_vjp(np.float32(1.0), ctx)

    out.update({
        "kernels.butterfly_apply_vjp_ms": time_ms(
            lambda: kernels.butterfly_apply_vjp(x_bfly, bfly_ctx), 10),
        "kernels.attention_vjp_ms": time_ms(
            lambda: kernels.attention_vjp(attn_out, attn_ctx), 5),
        "kernels.linear_act_vjp_ms": time_ms(
            lambda: kernels.linear_act_vjp(head_out, head_ctx), 200),
        "kernels.cross_entropy_ms": time_ms(cross_entropy, 200),
        "kernels.embedding_grad_ms": time_ms(
            lambda: kernels.embedding_grad(tokens, hidden, cfg.vocab_size), 10),
    })
    return out


def plan_cache_hit_rate(before: dict, after: dict) -> float:
    """Hit rate of the grouped-kernel plan cache over a window, from two
    ``plan_cache_stats()`` readings."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


class EncodeLong(Workload):
    name = "encode_long"
    VOCAB = 64
    FORWARDS = 180
    DISTINCT_INPUTS = 8

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        rng = np.random.default_rng([seed, 0])
        self.inputs = rng.integers(
            0, self.VOCAB, size=(self.DISTINCT_INPUTS, 1, SEQ_LEN))
        self.forwards = self.count(self.FORWARDS)
        self.input_hash = harness.input_hash(self.inputs, self.forwards)

    def setup(self) -> None:
        self.config = ModelConfig(vocab_size=self.VOCAB, n_classes=2, **FABNET)
        self.model = build_fabnet(self.config).eval()
        for tokens in self.inputs[:3]:
            self._forward(tokens)

    def _forward(self, tokens: np.ndarray) -> np.ndarray:
        with self.config.dtype_context(), nn.no_grad():
            return self.model(tokens).data

    def measure(self, tracer: harness.Tracer) -> Measured:
        logits, spans = [], []
        cache_before = plan_cache_stats()
        for i in range(self.forwards):
            start = clock()
            with tracer.span("models.encoder_forward", i):
                logits.append(self._forward(self.inputs[i % len(self.inputs)]))
            spans.append((start, clock()))
            self.probe.tick()
        return Measured.of_operations(
            self.probe, spans, SEQ_LEN,
            outputs=logits,
            layer={
                "models.encoder_forward_s": tracer.total("models.encoder_forward"),
                "kernels.plan_cache_hit_rate": plan_cache_hit_rate(
                    cache_before, plan_cache_stats()),
            },
        )

    def check(self, measured: Measured) -> int:
        """Every forward's logits against the composite (unfused) graph."""
        with kernels.use_fused(False):
            reference = [self._forward(tokens) for tokens in self.inputs]
        return sum(
            not np.allclose(out, reference[i % len(reference)],
                            rtol=ORACLE_RTOL, atol=1e-6)
            for i, out in enumerate(measured.outputs)
        )

    def probes(self) -> Dict[str, float]:
        return fabnet_probes(self.model, batch=1, backward=False)


class BatchFeeder:
    """The dataset handed to ``Trainer.fit``, noting when the trainer
    takes each batch and when it comes back for the next: in between is
    one optimizer step (forward, backward, update).  The speed probe
    ticks between steps.  Everything else is the wrapped
    :class:`~repro.data.TaskDataset`."""

    def __init__(self, dataset, probe: harness.SpeedProbe) -> None:
        self._dataset = dataset
        self._probe = probe
        self.spans = []
        self.first_batch = None

    def __getattr__(self, name):
        return getattr(self._dataset, name)

    def batches(self, batch_size, rng, split="train"):
        for batch in self._dataset.batches(batch_size, rng, split):
            if self.first_batch is None:
                self.first_batch = batch
            self._probe.sample()
            start = clock()
            yield batch
            self.spans.append((start, clock()))


class TimedEncoder:
    """Proxy around the model handed to ``Trainer``: one
    ``models.encoder_forward`` span per call (traced pass), and a sample
    of the speed probe after it — between forward and backward is the
    only moment inside an optimizer step that the benchmark is called."""

    def __init__(self, model, tracer: harness.Tracer, probe: harness.SpeedProbe) -> None:
        self._model = model
        self._tracer = tracer
        self._probe = probe

    def __getattr__(self, name):
        return getattr(self._model, name)

    def __call__(self, *args, **kwargs):
        with self._tracer.span("models.encoder_forward"):
            out = self._model(*args, **kwargs)
        self._probe.sample()
        return out


class TrainFit(Workload):
    name = "train_fit"
    BATCH = 2
    STEPS = 20
    LEARNING_RATE = 1e-3
    TEST_FRACTION = 0.25

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.steps = self.count(self.STEPS)
        # load_task holds out int(n * fraction) samples for the test
        # split; pick n so that exactly steps * BATCH are left to train on.
        n_train = self.steps * self.BATCH
        self.n_samples = next(
            n for n in range(n_train + 1, 2 * n_train + 2)
            if n - int(n * self.TEST_FRACTION) == n_train
        )
        self.input_hash = harness.input_hash(
            ["text", SEQ_LEN, self.n_samples, seed])

    def setup(self) -> None:
        t0 = clock()
        self.dataset = load_task(
            "text", seq_len=SEQ_LEN, n_samples=self.n_samples, seed=self.seed,
            test_fraction=self.TEST_FRACTION,
        )
        self.load_task_s = clock() - t0
        if self.dataset.n_train != self.steps * self.BATCH:
            raise RuntimeError(
                f"expected {self.steps * self.BATCH} training samples, "
                f"got {self.dataset.n_train}"
            )
        self.config = ModelConfig(
            vocab_size=self.dataset.vocab_size,
            n_classes=self.dataset.n_classes, **FABNET,
        )
        self.model = self._fresh_model()
        # Warm the plan caches and gradient scratch on a throwaway twin,
        # so the measured model starts from its seed weights.
        x, y = self.dataset.x_train[:self.BATCH], self.dataset.y_train[:self.BATCH]
        self._loss(self._fresh_model(), x, y).backward()

    def _fresh_model(self):
        return build_fabnet(self.config)

    def _loss(self, model, x, y):
        with self.config.dtype_context():
            return nn.cross_entropy_logits(model(x), y)

    def setup_layer_metrics(self) -> Dict[str, float]:
        return {"data.load_task_s": self.load_task_s}

    def measure(self, tracer: harness.Tracer) -> Measured:
        feeder = BatchFeeder(self.dataset, self.probe)
        model = TimedEncoder(self.model, tracer, self.probe)
        trainer = Trainer(
            model, lr=self.LEARNING_RATE, batch_size=self.BATCH, seed=0)
        cache_before = plan_cache_stats()
        t0 = clock()
        with tracer.span("training.fit"):
            result = trainer.fit(feeder, epochs=1)
        end = clock()
        spans = feeder.spans
        phases = result.phase_seconds
        # Two probe samples per third-of-a-second step say little about
        # one group of steps: the whole window shares one slowdown.
        return Measured.of_operations(
            self.probe, spans, self.BATCH * SEQ_LEN, per_group=False,
            window_s=end - t0,
            outputs=(result, feeder.first_batch),
            layer={
                "training.forward_s": phases["forward"],
                "training.backward_s": phases["backward"],
                "training.optimizer_s": phases["optimizer"],
                "training.eval_s": end - spans[-1][1],
                "training.steps": len(spans),
                "training.final_loss": result.train_losses[-1],
                "models.encoder_forward_s": tracer.total("models.encoder_forward"),
                "kernels.plan_cache_hit_rate": plan_cache_hit_rate(
                    cache_before, plan_cache_stats()),
            },
        )

    def _loss_and_grads(self, fused: bool, x, y):
        model = self._fresh_model()
        with kernels.use_fused(fused):
            loss = self._loss(model, x, y)
            loss.backward()
        return loss.item(), [p.grad for p in model.parameters()]

    def check(self, measured: Measured) -> int:
        """The fit took every step with finite losses and moved the
        weights; and on its first batch, from the seed weights, the fused
        graph's loss and every parameter gradient equal the composite
        graph's.  (Twenty steps at batch 2 do not reliably lower the
        loss, so 'last < first' is not an oracle here.)"""
        result, (x, y) = measured.outputs
        loss, grads = self._loss_and_grads(True, x, y)
        reference_loss, reference_grads = self._loss_and_grads(False, x, y)
        scale = max(np.abs(g).max() for g in reference_grads)
        trained = [p.data for p in self.model.parameters()]
        seed_weights = [p.data for p in self._fresh_model().parameters()]
        ok = (
            np.all(np.isfinite(result.train_losses))
            and measured.layer["training.steps"] == self.steps
            and all(np.all(np.isfinite(w)) for w in trained)
            and any(not np.array_equal(w, w0)
                    for w, w0 in zip(trained, seed_weights))
            and np.isclose(loss, reference_loss, rtol=ORACLE_RTOL)
            and all(
                np.allclose(g, ref, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)
                for g, ref in zip(grads, reference_grads)
            )
        )
        return 0 if ok else self.steps

    def probes(self) -> Dict[str, float]:
        return fabnet_probes(self.model, batch=self.BATCH, backward=True)
