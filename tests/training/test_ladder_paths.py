"""Which kernel runs a butterfly ladder inside a whole model.

A training step at the paper suite's small shape (``bench_table3``'s
FABNet: ``d_hidden`` 32, ``r_ffn`` 2, one ABfly block, batch 32) runs
every ladder on the fused kernels, densified or grouped, through the
fused training program and through the ``Tensor`` graph alike; a no-grad
forward runs only the layers' frozen ladders.  Read off the
``kernels.butterfly_apply`` spans.
"""

import numpy as np
import pytest

from repro import kernels, nn, telemetry
from repro.models import ModelConfig, build_fabnet

CONFIG = ModelConfig(vocab_size=16, n_classes=10, max_len=48, d_hidden=32,
                     n_heads=4, r_ffn=2, n_total=2, n_abfly=1, seed=0)
BATCH = 32


def _ladder_paths(run):
    """``run()``'s ``kernels.butterfly_apply`` spans' paths, in order."""
    telemetry.clear_all()
    try:
        with telemetry.use_telemetry(True):
            run()
        return [record.attrs["path"] for record in telemetry.span_records()
                if record.name == "kernels.butterfly_apply"]
    finally:
        telemetry.clear_all()


@pytest.fixture
def batch(rng):
    tokens = rng.integers(0, CONFIG.vocab_size, size=(BATCH, CONFIG.max_len))
    return tokens, rng.integers(0, CONFIG.n_classes, size=BATCH)


@pytest.mark.parametrize("fused", [True, False])
def test_a_training_step_runs_only_fused_ladders(batch, fused):
    tokens, labels = batch
    model = build_fabnet(CONFIG)
    ladders = sum(name.endswith(".stage_0") for name, _ in model.named_parameters())

    def step():
        with kernels.use_fused(fused):
            nn.cross_entropy_logits(model(tokens), labels).backward()

    paths = _ladder_paths(step)
    assert len(paths) == ladders
    assert set(paths) <= {"dense", "grouped"} and "dense" in paths
    assert all(p.grad is not None for p in model.parameters())


def test_a_no_grad_forward_runs_only_frozen_ladders(batch):
    tokens, _ = batch
    model = build_fabnet(CONFIG).eval()

    def forward():
        with nn.no_grad():
            model(tokens)

    paths = _ladder_paths(forward)
    assert paths and set(paths) == {"frozen"}
