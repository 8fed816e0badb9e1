"""Model zoo: vanilla Transformer, FNet, FABNet and hybrids."""

from .blocks import Block, FeedForward, block_layout
from .config import ModelConfig
from .decoder import (
    ButterflyDecoderLM,
    build_butterfly_decoder,
    build_dense_decoder,
)
from .encoder import (
    MODEL_BUILDERS,
    DualEncoderClassifier,
    EncoderClassifier,
    build_fabnet,
    build_fnet,
    build_hybrid_transformer,
    build_model,
    build_transformer,
)

__all__ = [
    "Block",
    "ButterflyDecoderLM",
    "MODEL_BUILDERS",
    "DualEncoderClassifier",
    "EncoderClassifier",
    "FeedForward",
    "ModelConfig",
    "block_layout",
    "build_butterfly_decoder",
    "build_dense_decoder",
    "build_fabnet",
    "build_fnet",
    "build_hybrid_transformer",
    "build_model",
    "build_transformer",
]
