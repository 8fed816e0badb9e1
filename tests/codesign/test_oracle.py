"""Accuracy oracles: surrogate calibration and trained spot-check."""

import os
import subprocess
import sys

import pytest

from repro.codesign import (
    SurrogateAccuracyOracle,
    TASK_ACCURACY_CEILING,
    TASK_TRANSFORMER_ACCURACY,
    TrainedAccuracyOracle,
)
from repro.hardware.perf import WorkloadSpec


def spec(d_hidden=128, r_ffn=4, n_total=2, n_abfly=0):
    return WorkloadSpec(seq_len=512, d_hidden=d_hidden, r_ffn=r_ffn,
                        n_total=n_total, n_abfly=n_abfly, n_heads=4)


class TestSurrogate:
    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            SurrogateAccuracyOracle(task="audio")

    def test_accuracy_monotone_in_width(self):
        oracle = SurrogateAccuracyOracle(task="text", noise_scale=0.0)
        accs = [oracle.accuracy(spec(d_hidden=d)) for d in (64, 128, 256, 1024)]
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_accuracy_monotone_in_depth(self):
        oracle = SurrogateAccuracyOracle(task="text", noise_scale=0.0)
        a1 = oracle.accuracy(spec(n_total=1))
        a2 = oracle.accuracy(spec(n_total=4))
        assert a2 > a1

    def test_abfly_blocks_help(self):
        oracle = SurrogateAccuracyOracle(task="image", noise_scale=0.0)
        assert oracle.accuracy(spec(n_total=2, n_abfly=1)) > oracle.accuracy(
            spec(n_total=2, n_abfly=0)
        )

    def test_saturates_at_task_ceiling(self):
        oracle = SurrogateAccuracyOracle(task="text", noise_scale=0.0)
        big = oracle.accuracy(spec(d_hidden=1024, n_total=2))
        assert big == pytest.approx(TASK_ACCURACY_CEILING["text"], abs=0.005)

    def test_deterministic_per_point(self):
        oracle = SurrogateAccuracyOracle(task="text")
        assert oracle.accuracy(spec()) == oracle.accuracy(spec())

    def test_jitter_does_not_depend_on_the_hash_seed(self):
        """``hash`` of a str is salted per process; the jitter's seed is a
        stable digest, so two hash seeds give the same accuracy."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src")
        code = (
            "from repro.codesign import SurrogateAccuracyOracle\n"
            "from repro.hardware.perf import WorkloadSpec\n"
            "spec = WorkloadSpec(seq_len=512, d_hidden=128, n_total=2)\n"
            "print(repr(SurrogateAccuracyOracle(task='text').accuracy(spec)))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": src,
                                 "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "26")
        }
        assert len(outputs) == 1
        assert float(outputs.pop()) == SurrogateAccuracyOracle(task="text").accuracy(
            WorkloadSpec(seq_len=512, d_hidden=128, n_total=2))

    def test_table3_reference_values(self):
        assert TASK_TRANSFORMER_ACCURACY["text"] == 0.637
        assert TASK_ACCURACY_CEILING["retrieval"] == 0.801
        assert set(TASK_ACCURACY_CEILING) == set(TASK_TRANSFORMER_ACCURACY)

    def test_paper_fig18_winner_within_constraint(self):
        """{Dhid=64, Rffn=4, Ntotal=2} sits within ~1.5% of Transformer."""
        oracle = SurrogateAccuracyOracle(task="text", noise_scale=0.0)
        acc = oracle.accuracy(spec(d_hidden=64, r_ffn=4, n_total=2))
        assert acc >= TASK_TRANSFORMER_ACCURACY["text"] - 0.015


class TestTrainedOracle:
    def test_spot_check_returns_reasonable_accuracy(self):
        oracle = TrainedAccuracyOracle(task="text", seq_len=32, n_samples=120,
                                       epochs=2)
        acc = oracle.accuracy(spec(d_hidden=16, n_total=1, r_ffn=2))
        assert 0.4 <= acc <= 1.0

    def test_image_task_uses_grid(self):
        oracle = TrainedAccuracyOracle(task="image", seq_len=64, n_samples=100,
                                       epochs=1)
        acc = oracle.accuracy(spec(d_hidden=16, n_total=1, r_ffn=2))
        assert 0.0 <= acc <= 1.0
