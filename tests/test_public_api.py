"""Public API surface: imports, __all__ consistency, version."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.nn",
    "repro.butterfly",
    "repro.models",
    "repro.data",
    "repro.training",
    "repro.hardware",
    "repro.hardware.functional",
    "repro.codesign",
    "repro.analysis",
    "repro.serving",
    "repro.kernels",
    "repro.telemetry",
    "repro.faults",
]


class TestImports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        """Every name in __all__ must actually exist in the module."""
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], f"{module_name} exports missing names: {missing}"

    def test_top_level_all(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_top_level_names_resolve_after_a_bare_import(self):
        """In a fresh interpreter, where no test has imported a
        subpackage yet, every root name resolves and ``dir`` lists it."""
        probe = (
            "import repro\n"
            "print([n for n in repro.__all__\n"
            "       if not hasattr(repro, n) or n not in dir(repro)])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_key_entry_points_importable(self):
        from repro.butterfly import ButterflyMatrix, fft_butterfly  # noqa: F401
        from repro.cli import main  # noqa: F401
        from repro.hardware import ButterflyPerformanceModel  # noqa: F401
        from repro.hardware.functional import ButterflyAccelerator  # noqa: F401
        from repro.hardware.isa import compile_model  # noqa: F401
        from repro.io import load_model, save_model  # noqa: F401
        from repro.models import build_fabnet  # noqa: F401
        from repro.training import Trainer  # noqa: F401


class TestDocumentation:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_subpackage_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 10

    def test_public_classes_documented(self):
        from repro.hardware import AcceleratorConfig, ButterflyPerformanceModel
        from repro.models import EncoderClassifier, ModelConfig
        from repro.nn import ButterflyLinear, Tensor
        for cls in (AcceleratorConfig, ButterflyPerformanceModel,
                    EncoderClassifier, ModelConfig, ButterflyLinear, Tensor):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 10
