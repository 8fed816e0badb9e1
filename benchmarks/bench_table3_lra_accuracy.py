"""Table III: accuracy of Transformer / FNet / FABNet on the LRA tasks.

Paper finding: FABNet matches the vanilla Transformer's average accuracy
(0.576) and beats FNet, while using a fraction of the compute.

Scaled-down setting: synthetic LRA tasks, tiny models, few epochs.  The
assertion is the ordering property the paper's conclusion rests on:
FABNet is competitive with the Transformer (within a small margin) on
average, despite its compression.
"""

import numpy as np
from conftest import print_table

from repro.training import ExperimentConfig, accuracy_by_model, run_matrix

# The image and pathfinder tasks take an 8x8 grid: 64 tokens.
TASKS = {
    "listops": dict(n_samples=320, seq_len=48),
    "text": dict(n_samples=280, seq_len=32),
    "retrieval": dict(n_samples=240, seq_len=24),
    "image": dict(n_samples=320, seq_len=64),
    "pathfinder": dict(n_samples=320, seq_len=64),
}
# Chance accuracy per task (10-way, binary x3, 10-way).
CHANCE = {"listops": 0.1, "text": 0.5, "retrieval": 0.5, "image": 0.1,
          "pathfinder": 0.5}
MODELS = ("transformer", "fnet", "fabnet")
PAPER_AVG = {"transformer": 0.576, "fnet": 0.544, "fabnet": 0.576}


def run_all():
    """The Table III grid; ``n_abfly`` applies to FABNet only."""
    return run_matrix(
        ExperimentConfig(task, model, n_abfly=1, epochs=5, **kwargs)
        for task, kwargs in TASKS.items() for model in MODELS
    )


def test_table3_lra_accuracy():
    results = run_all()
    scores = {name: {} for name in MODELS}
    for r in results:
        scores[r.config.model][r.config.task] = r.accuracy
    avgs = accuracy_by_model(results)
    rows = []
    for name in MODELS:
        rows.append(
            (name, *(f"{scores[name][t]:.3f}" for t in TASKS),
             f"{avgs[name]:.3f}", f"{PAPER_AVG[name]:.3f}")
        )
    print_table(
        "Table III: LRA accuracy (synthetic tasks, scaled down)",
        ["model", *TASKS, "avg", "paper avg"],
        rows,
    )
    chance_avg = float(np.mean(list(CHANCE.values())))
    # Paper ordering: FABNet ~ Transformer (avg 0.576 both); both learn
    # meaningfully above chance at this scaled-down setting.
    assert avgs["fabnet"] > chance_avg + 0.05
    assert avgs["transformer"] > chance_avg + 0.05
    assert avgs["fabnet"] > avgs["transformer"] - 0.08
