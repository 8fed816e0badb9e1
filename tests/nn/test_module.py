"""Module system: registration, state dicts, train/eval propagation."""

import numpy as np
import pytest

from repro import nn


class TwoLayer(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.fc1 = nn.Linear(4, 8, rng=rng)
        self.fc2 = nn.Linear(8, 2, rng=rng)
        self.scale = nn.Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestRegistration:
    def test_named_parameters_walks_tree(self):
        model = TwoLayer()
        names = {name for name, _ in model.named_parameters()}
        assert names == {
            "scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
        }

    def test_parameters_are_parameters(self):
        assert all(isinstance(p, nn.Parameter) for p in TwoLayer().parameters())

    def test_num_parameters(self):
        model = TwoLayer()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2 + 1

    def test_zero_grad_clears_all(self):
        model = TwoLayer()
        out = model(nn.Tensor(np.ones((1, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestTrainEval:
    def test_train_flag_propagates(self):
        model = TwoLayer()
        model.eval()
        assert not model.training
        assert not model.fc1.training
        model.train()
        assert model.fc2.training

    def test_eval_returns_self(self):
        model = TwoLayer()
        assert model.eval() is model


class TestStateDict:
    def test_round_trip(self):
        a, b = TwoLayer(), TwoLayer()
        for p in a.parameters():
            p.data += 1.0
        b.load_state_dict(a.state_dict())
        x = nn.Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_copies(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"][:] = 99.0
        assert model.scale.data[0] == 1.0

    def test_load_rejects_missing_keys(self):
        model = TwoLayer()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_load_rejects_unexpected_keys(self):
        model = TwoLayer()
        state = model.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"] = np.zeros(2)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)


class TestContainers:
    def test_sequential_forward(self):
        rng = np.random.default_rng(0)
        seq = nn.Sequential(nn.Linear(3, 5, rng=rng), nn.GELU(), nn.Linear(5, 2, rng=rng))
        out = seq(nn.Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
        assert len(seq) == 3

    def test_sequential_registers_parameters(self):
        seq = nn.Sequential(nn.Linear(3, 5), nn.Linear(5, 2))
        assert len(list(seq.named_parameters())) == 4

    def test_module_list(self):
        ml = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(ml.named_parameters())) == 6
        ml.append(nn.Linear(2, 2))
        assert len(ml) == 4
        assert ml[3].out_features == 2

    def test_module_list_iteration(self):
        ml = nn.ModuleList([nn.GELU(), nn.LayerNorm(2)])
        kinds = [type(m).__name__ for m in ml]
        assert kinds == ["GELU", "LayerNorm"]

    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)
