"""Ablation: the fp16 datapath precision (paper Section VI-A).

The accelerator computes in 16-bit half-precision floating point.  This
bench measures the fp16 butterfly engine's relative error against the
float64 reference across butterfly sizes, and the end-effect on a trained
FABNet's predictions — quantifying the paper's implicit claim that fp16
is accuracy-neutral for these models.
"""

import numpy as np
from conftest import print_table

from repro.data import load_task
from repro.hardware import accuracy_under_fp16, quantization_error_report
from repro.models import ModelConfig, build_fabnet
from repro.training import train_model_on_task


def run_ablation():
    rng = np.random.default_rng(0)
    error_rows = []
    for n in (16, 64, 256, 1024):
        report = quantization_error_report(n, rng, rows=8)
        error_rows.append(
            (n, f"{report.max_rel_error:.2e}", f"{report.mean_rel_error:.2e}")
        )

    dataset = load_task("text", n_samples=200, seq_len=32, seed=0)
    config = ModelConfig(
        vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
        max_len=dataset.seq_len, d_hidden=32, n_heads=4, r_ffn=2,
        n_total=2, n_abfly=0, seed=0,
    )
    model = build_fabnet(config)
    train_model_on_task(model, dataset, epochs=3, lr=3e-3)
    report = accuracy_under_fp16(model.eval(), dataset.x_test, dataset.y_test)
    return error_rows, report


def test_ablation_fp16():
    error_rows, model_report = run_ablation()
    print_table(
        "Ablation: fp16 butterfly datapath error vs float64",
        ["butterfly size", "max rel err", "mean rel err"],
        error_rows,
    )
    print(f"trained FABNet: accuracy fp64={model_report['accuracy_fp64']:.3f} "
          f"fp16={model_report['accuracy_fp16']:.3f} "
          f"(delta {model_report['accuracy_delta']:+.3f}, "
          f"max logit err {model_report['max_logit_error']:.2e})")
    # Per-layer error stays in the sub-percent range at every size...
    assert all(float(r[1]) < 0.05 for r in error_rows)
    # ...and the model-level accuracy is unaffected.
    assert abs(model_report["accuracy_delta"]) < 0.05
