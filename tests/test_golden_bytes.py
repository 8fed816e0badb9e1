"""Golden bytes: what the encoder builders, the instruction streams and the
analytical models produce, pinned in ``tests/golden/manifest.json``.

Every entry depends only on numpy's RNG and Python float arithmetic (no
BLAS call, no timing), so it repeats on any machine: the parameter bytes
of each builder at fp32 and fp64 (the decoders' also at the ``decode_int8``
benchmark's shape, whose weights span many of an initializer's row-block
draws), the ``compile_model`` / ``compile_spec``
streams, and for the shapes the paper benches use the per-layer cycles of
``model_latency``, the baseline's layers, each platform's
attention/linear/other split, the FLOP and parameter counts of the model
each spec describes, and the saturation bandwidths.  Floats are
pinned by ``repr`` (which round-trips) and long lists by sha256.

A change that means to move an entry regenerates the manifest with
``PYTHONPATH=src python tests/test_golden_bytes.py --write`` and names
every moved entry in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.analysis.configs import (
    MAINSTREAM_MODELS,
    TASK_BASELINE_SPECS,
    TASK_FABNET_SPECS,
    TASK_FNET_SPECS,
)
from repro.analysis.flops import model_flops, model_params
from repro.hardware import (
    BE40_CONFIG,
    BE120_CONFIG,
    PAPER_CODESIGN_CONFIG,
    PLATFORMS,
    AcceleratorConfig,
    BaselineAccelerator,
    BaselineConfig,
    ButterflyPerformanceModel,
    WorkloadSpec,
    bert_spec,
    fabnet_spec,
    platform_breakdown,
    saturation_bandwidth_gbs,
)
from repro.hardware.isa import compile_model, compile_spec
from repro.hardware.sota import LRA_IMAGE_SPEC
from repro.models import (
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
    build_fabnet,
    build_fnet,
    build_hybrid_transformer,
    build_transformer,
)

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

CONFIGS = {
    # All-FBfly, and a FABNet whose ABfly block follows two FBfly blocks.
    "fb2": ModelConfig(vocab_size=16, n_classes=3, max_len=16, d_hidden=16,
                       n_heads=2, r_ffn=2, n_total=2, n_abfly=0, seed=3),
    "fb2ab1": ModelConfig(vocab_size=16, n_classes=3, max_len=16, d_hidden=16,
                          n_heads=2, r_ffn=2, n_total=3, n_abfly=1, seed=5),
}
#: The ``decode_int8`` benchmark's decoder: its FFN weights are 1M
#: elements each.
DECODER_CONFIGS = {
    **CONFIGS,
    "d512": ModelConfig(vocab_size=256, n_classes=2, max_len=96, d_hidden=512,
                        n_heads=8, r_ffn=4, n_total=2, seed=0),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _param_digest(model) -> str:
    h = hashlib.sha256()
    for name, param in model.named_parameters():
        data = param.data
        h.update(f"{name} {data.dtype} {data.shape}\n".encode())
        h.update(data.tobytes())
    return h.hexdigest()


def builder_entries() -> Dict[str, str]:
    out = {}
    for cfg_name, base in CONFIGS.items():
        for dtype in ("float32", "float64"):
            config = base.with_(dtype=dtype)
            key = f"builders/{cfg_name}/{dtype}"
            for name, build in (("transformer", build_transformer),
                                ("fnet", build_fnet), ("fabnet", build_fabnet)):
                out[f"{key}/{name}"] = _param_digest(build(config))
            for n_compressed in sorted({0, 1, config.n_total}):
                out[f"{key}/hybrid{n_compressed}"] = _param_digest(
                    build_hybrid_transformer(config, n_compressed))
    for cfg_name, base in DECODER_CONFIGS.items():
        for dtype in ("float32", "float64"):
            config = base.with_(dtype=dtype)
            for name, build in (("decoder", build_butterfly_decoder),
                                ("dense_decoder", build_dense_decoder)):
                out[f"builders/{cfg_name}/{dtype}/{name}"] = _param_digest(
                    build(config))
    return out


# The shapes the paper benches and the report time, by name.
def _specs() -> Dict[str, WorkloadSpec]:
    specs = {}
    for large in (False, True):
        size = "large" if large else "base"
        for seq in (128, 1024, 4096):
            specs[f"fabnet_{size}_{seq}"] = fabnet_spec(seq, large)
            specs[f"bert_{size}_{seq}"] = bert_spec(seq, large)
    for seq in (128, 1024):
        specs[f"abfly4_{seq}"] = WorkloadSpec(seq_len=seq, d_hidden=512, r_ffn=4,
                                              n_total=4, n_abfly=4, n_heads=8)
    specs["mixed_256"] = WorkloadSpec(seq_len=256, d_hidden=512, r_ffn=4,
                                      n_total=6, n_abfly=2, n_heads=8)
    for table, prefix in ((TASK_FABNET_SPECS, "task_fabnet"),
                          (TASK_FNET_SPECS, "task_fnet"),
                          (TASK_BASELINE_SPECS, "task_baseline")):
        for task, spec in table.items():
            specs[f"{prefix}_{task}"] = spec
    for name, spec in MAINSTREAM_MODELS.items():
        specs[f"mainstream_{name}"] = spec
    specs["lra_image"] = LRA_IMAGE_SPEC
    return specs


ACCEL_CONFIGS = {
    "bp128": AcceleratorConfig(pbe=128, pbu=4, pae=0, pqk=0, psv=0),
    "bp128_ap8": AcceleratorConfig(pbe=128, pbu=4),
    "codesign": PAPER_CODESIGN_CONFIG,
    "be40": BE40_CONFIG,
    "be120": BE120_CONFIG,
    "edge": AcceleratorConfig(pbe=32, pbu=4, pae=0, pqk=0, psv=0,
                              bandwidth_gbs=19.2),
    "pipe": AcceleratorConfig(pbe=32, pbu=4, pae=8, pqk=16, psv=16),
    "bw25": AcceleratorConfig(pbe=64, pbu=4, bandwidth_gbs=25.0),
}


def _refusal(fn: Callable[[], str]) -> str:
    try:
        return fn()
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def stream_entries() -> Dict[str, str]:
    out = {}
    for cfg_name, config in CONFIGS.items():
        program = compile_model(build_fabnet(config))
        out[f"streams/model/{cfg_name}"] = _sha(
            "\n".join(map(str, program.instructions)))
    for name, spec in _specs().items():
        out[f"streams/spec/{name}"] = _refusal(lambda: _sha(
            "\n".join(map(str, compile_spec(spec).instructions))))
    return out


def _layers(report) -> str:
    return _sha(repr([(layer.name, layer.compute_cycles, layer.memory_cycles,
                       layer.total_cycles) for layer in report.layers]))


def analytical_entries() -> Dict[str, str]:
    out = {}
    specs = _specs()
    baseline = BaselineAccelerator(BaselineConfig(n_multipliers=2048))
    for name, spec in specs.items():
        out[f"analytical/baseline/{name}"] = _layers(baseline.model_latency(spec))
        ops = model_flops(spec)
        out[f"analytical/flops/{name}"] = repr((ops.attention, ops.linear, ops.other))
        out[f"analytical/params/{name}"] = repr(model_params(spec))
        for platform_name, platform in PLATFORMS.items():
            parts = [platform_breakdown(platform, spec, batch) for batch in (1, 8)]
            out[f"analytical/platform/{platform_name}/{name}"] = repr(
                [(p.attention, p.linear, p.other) for p in parts])
        if not spec.butterfly:
            continue  # refused by compile_spec: see the streams group
        for cfg_name, config in ACCEL_CONFIGS.items():
            for pipeline, overlap in ((True, True), (False, True), (True, False)):
                model = ButterflyPerformanceModel(
                    config, fine_grained_pipeline=pipeline, overlap=overlap)
                key = f"analytical/latency/{name}/{cfg_name}/p{pipeline:d}o{overlap:d}"
                out[key] = _refusal(lambda: _layers(model.model_latency(spec)))
    return out


def saturation_entries() -> Dict[str, str]:
    out = {}
    specs = _specs()
    for name in ("fabnet_base_128", "fabnet_base_1024", "fabnet_large_128",
                 "fabnet_large_1024", "task_fabnet_image", "mixed_256",
                 "abfly4_1024", "lra_image"):
        for n_bes in (16, 32, 64, 120, 128):
            config = AcceleratorConfig(pbe=n_bes, pbu=4)
            out[f"saturation/{name}/pbe{n_bes}"] = repr(
                saturation_bandwidth_gbs(specs[name], config))
        config = ACCEL_CONFIGS["bp128"]  # no Attention Processor
        out[f"saturation/{name}/bp128"] = repr(
            saturation_bandwidth_gbs(specs[name], config))
    return out


GROUPS = {
    "builders": builder_entries,
    "streams": stream_entries,
    "analytical": analytical_entries,
    "saturation": saturation_entries,
}


def _all_entries() -> Dict[str, str]:
    out = {}
    for entries in GROUPS.values():
        out.update(entries())
    return out


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_entries_repeat_the_manifest(group):
    pinned = json.loads(MANIFEST.read_text())
    want = {k: v for k, v in pinned.items() if k.startswith(group + "/")}
    got = GROUPS[group]()
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} entries moved: " + ", ".join(
        f"{k}: {want.get(k)} -> {got.get(k)}" for k in moved[:10])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_bytes.py --write")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(_all_entries(), indent=1, sort_keys=True) + "\n")
