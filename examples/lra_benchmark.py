"""Compare Transformer, FNet and FABNet across synthetic LRA tasks.

Reproduces the *structure* of the paper's Table III at laptop scale:
train all three models on each synthetic Long-Range-Arena task and report
test accuracy side by side, plus each model's parameter count — showing
that FABNet matches the dense baselines with a fraction of the weights.

Run:  python examples/lra_benchmark.py            (all 5 tasks, ~minutes)
      python examples/lra_benchmark.py text image (subset)
"""

import sys

from repro.training import ExperimentConfig, results_table, run_matrix

# The image and pathfinder tasks take an 8x8 grid: 64 tokens.
TASK_SETTINGS = {
    "listops": dict(n_samples=400, seq_len=64),
    "text": dict(n_samples=320, seq_len=64),
    "retrieval": dict(n_samples=320, seq_len=32),
    "image": dict(n_samples=400, seq_len=64),
    "pathfinder": dict(n_samples=400, seq_len=64),
}

MODELS = ("transformer", "fnet", "fabnet")


def main() -> None:
    tasks = sys.argv[1:] or list(TASK_SETTINGS)
    results = run_matrix(
        ExperimentConfig(task, model, n_abfly=1, epochs=5,
                         **TASK_SETTINGS[task])
        for task in tasks for model in MODELS
    )
    print(results_table(results))


if __name__ == "__main__":
    main()
