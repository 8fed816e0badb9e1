"""Model checkpointing: save/load weights + config to a single .npz file.

A checkpoint stores every named parameter plus the :class:`ModelConfig`
fields and the builder name, so ``load_model`` can reconstruct the exact
architecture and weights without pickling arbitrary objects.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict
from pathlib import Path
from typing import Union

import numpy as np

from .faults import fault_point
from .models import (
    MODEL_BUILDERS,
    ModelConfig,
    build_butterfly_decoder,
    build_dense_decoder,
)
from .nn.module import Module

_CONFIG_KEY = "__config_json__"
_BUILDER_KEY = "__builder__"

_ALL_BUILDERS = dict(MODEL_BUILDERS)
_ALL_BUILDERS["butterfly_decoder"] = build_butterfly_decoder
_ALL_BUILDERS["dense_decoder"] = build_dense_decoder


def save_model(
    model: Module, path: Union[str, Path], builder: str
) -> Path:
    """Serialize a model built by a registered builder.

    Args:
        model: the model to save; must expose ``.config`` (a ModelConfig).
        path: destination ``.npz`` file (suffix added if missing).
        builder: registered builder name ('transformer', 'fnet', 'fabnet',
            'butterfly_decoder', 'dense_decoder').

    The write is crash-safe: the archive is fully written to a temp file
    in the destination directory, then atomically renamed over ``path``
    with :func:`os.replace`.  A crash (or injected ``io.save`` fault) at
    any point leaves the previous checkpoint untouched.
    """
    if builder not in _ALL_BUILDERS:
        raise ValueError(
            f"unknown builder {builder!r}; choose from {sorted(_ALL_BUILDERS)}"
        )
    config = getattr(model, "config", None)
    if not isinstance(config, ModelConfig):
        raise TypeError("model must carry a ModelConfig as .config")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = {name: param.data for name, param in model.named_parameters()}
    payload[_CONFIG_KEY] = np.frombuffer(
        json.dumps(asdict(config)).encode(), dtype=np.uint8
    )
    payload[_BUILDER_KEY] = np.frombuffer(builder.encode(), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Same directory as the target so os.replace stays a same-filesystem
    # atomic rename.  np.savez gets an open handle, not the tmp name —
    # given a string path it would append another ".npz" to it.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        fault_point("io.save", path=str(path))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_model(path: Union[str, Path]) -> Module:
    """Rebuild a model saved by :func:`save_model` (architecture + weights)."""
    path = Path(path)
    with np.load(path) as archive:
        if _CONFIG_KEY not in archive or _BUILDER_KEY not in archive:
            raise ValueError(f"{path} is not a repro checkpoint")
        config_dict = json.loads(bytes(archive[_CONFIG_KEY].tobytes()).decode())
        builder_name = bytes(archive[_BUILDER_KEY].tobytes()).decode()
        state = {
            key: archive[key]
            for key in archive.files
            if key not in (_CONFIG_KEY, _BUILDER_KEY)
        }
    try:
        builder = _ALL_BUILDERS[builder_name]
    except KeyError:
        raise ValueError(f"checkpoint uses unknown builder {builder_name!r}")
    if builder_name in ("butterfly_decoder", "dense_decoder"):
        state = _migrate_decoder_keys(state)
    # Retired fields that checkpoints saved while they existed still
    # carry: ``backend`` picked a kernel execution strategy that never
    # changed numerics, and ``dropout`` drew only while training.
    for retired in ("backend", "dropout"):
        config_dict.pop(retired, None)
    # ``pooling`` chose mean or first-token (CLS) pooling; mean is the one
    # left, and a CLS-trained head read through mean pooling would give
    # other logits without a word.
    pooling = config_dict.pop("pooling", "mean")
    if pooling != "mean":
        raise ValueError(
            f"{path}: checkpoint config has pooling={pooling!r}; only mean "
            "pooling is supported")
    model = builder(ModelConfig(**config_dict))
    model.load_state_dict(state)
    return model


# Decoder checkpoints saved before decoders stacked the encoders' Block
# name each block's attention module `attn`, not `mixer`, and pre-serving
# ones keep its FFN under blocks.N.fc1.* / blocks.N.fc2.*; rewrite both to
# the current names.
_LEGACY_DECODER_KEYS = re.compile(r"^(blocks\.\d+\.)(?:attn|(fc[12]))\.")


def _migrate_decoder_keys(state: dict) -> dict:
    return {
        _LEGACY_DECODER_KEYS.sub(
            lambda m: m[1] + (f"ffn.{m[2]}." if m[2] else "mixer."), key): value
        for key, value in state.items()
    }
