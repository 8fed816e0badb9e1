"""Figure 16: accuracy vs number of FBfly-compressed layers.

Paper finding: replacing the last k blocks of a 6-layer Transformer with
FBfly blocks keeps accuracy within noise of the dense model on LRA-Text
(and can even improve it), demonstrating the Fourier blocks' quality.

Scaled-down setting: synthetic LRA-Text, 6 blocks, tiny hidden size; the
assertion is the paper's qualitative claim — compression does not
collapse accuracy.
"""

from conftest import print_table

from repro.data import load_task
from repro.models import ModelConfig, build_hybrid_transformer
from repro.training import train_model_on_task

N_LAYERS = 6
COMPRESSED = (0, 2, 4, 6)


def run_sweep():
    dataset = load_task("text", n_samples=200, seq_len=32, seed=0)
    accuracies = {}
    for k in COMPRESSED:
        config = ModelConfig(
            vocab_size=dataset.vocab_size, n_classes=dataset.n_classes,
            max_len=dataset.seq_len, d_hidden=16, n_heads=2, r_ffn=2,
            n_total=N_LAYERS, n_abfly=0, seed=0,
        )
        model = build_hybrid_transformer(config, n_compressed=k)
        result = train_model_on_task(model, dataset, epochs=3, lr=2e-3, seed=0)
        accuracies[k] = result.best_test_accuracy
    return accuracies


def test_fig16_compressed_layers():
    accuracies = run_sweep()
    print_table(
        "Figure 16: accuracy vs #compressed (FBfly) layers — synthetic LRA-Text",
        ["compressed layers", "test accuracy"],
        [(k, f"{v:.3f}") for k, v in accuracies.items()],
    )
    dense = accuracies[0]
    # Paper shape: accuracy fluctuates but stays near the dense model.
    for k, acc in accuracies.items():
        assert acc > dense - 0.15, f"compressing {k} layers collapsed accuracy"
    assert max(accuracies.values()) > 0.6
