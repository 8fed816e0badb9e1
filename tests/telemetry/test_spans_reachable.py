"""Every span in ``src/`` is reached: the reachability gate applied to spans.

The span names are read off the source — each ``span("...")`` or
``telemetry.span("...")`` call with a literal name, docstrings aside —
and every one must be recorded by some unit of work run with telemetry
on: a FABNet forward, a training step on the densified and on the
per-call grouped ladder, a serving run of the CLI's butterfly decoder
(fp and its int8 replica) and ``repro profile``.  A span that no such run
opens fails the test.
"""

import argparse
import ast
from pathlib import Path

import numpy as np

from repro import nn, telemetry
from repro.cli import _tiny_decoder, main
from repro.models import ModelConfig, build_fabnet
from repro.serving import SamplingParams, ServingEngine

SRC = Path(__file__).resolve().parents[2] / "src"


def span_names_in_source() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name, func = node.args[0], node.func
            called = (func.id if isinstance(func, ast.Name)
                      else getattr(func, "attr", None))
            if (called == "span" and isinstance(name, ast.Constant)
                    and isinstance(name.value, str)):
                names.add(name.value)
    return names


def recorded(unit) -> set:
    telemetry.clear_spans()
    telemetry.STATE.on = True
    unit()
    return {record.name for record in telemetry.span_records()}


def fabnet(d_hidden: int) -> tuple:
    config = ModelConfig(
        vocab_size=32, n_classes=2, max_len=64, d_hidden=d_hidden, n_heads=2,
        r_ffn=2, n_total=2, n_abfly=1, dtype="float32", seed=0,
    )
    return config, build_fabnet(config)


def forward():
    config, model = fabnet(32)
    tokens = np.random.default_rng(0).integers(0, 32, size=(2, 64))
    with config.dtype_context(), nn.no_grad():
        model.eval()(tokens)


def training_step(batch: int, seq: int):
    # d_hidden 32: the FFN's 32 -> 64 ladder densifies when the step
    # brings at least 32 rows and runs grouped on fewer.
    config, model = fabnet(32)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 32, size=(batch, seq))
    with config.dtype_context():
        nn.cross_entropy_logits(
            model.train()(tokens), rng.integers(0, 2, size=batch)).backward()


def serve(quantize):
    args = argparse.Namespace(d_hidden=32, n_total=2, seed=0)
    engine = ServingEngine(_tiny_decoder(args, 32), max_batch_size=2,
                           seed=0, quantize=quantize)
    for i in range(3):
        engine.submit(np.arange(1, 6) + i, SamplingParams(
            max_new_tokens=4, temperature=0.8, seed=i))
    engine.run()


def profile():
    assert main([
        "profile", "--workload", "serve", "--requests", "1",
        "--max-new-tokens", "2", "--max-batch-size", "1",
        "--d-hidden", "32", "--seq-len", "16",
    ]) == 0


def test_every_span_in_the_source_is_recorded_by_some_run(capsys):
    names = span_names_in_source()
    assert {"kernels.butterfly_apply", "serve.step",
            "profile.workload"} <= names
    reached = set()
    for unit in (forward, lambda: training_step(2, 64),
                 lambda: training_step(1, 16), lambda: serve(None),
                 lambda: serve("int8"), profile):
        reached |= recorded(unit)
    assert names - reached == set()
