"""Model zoo: vanilla Transformer, FNet, FABNet and hybrids."""

from .blocks import EncoderBlock, FeedForward, make_abfly_block, make_fbfly_block
from .config import FABNET_BASE, FABNET_LARGE, ModelConfig
from .decoder import (
    ButterflyDecoderLM,
    DecoderBlock,
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
    "ButterflyDecoderLM",
    "DecoderBlock",
    "FABNET_BASE",
    "FABNET_LARGE",
    "MODEL_BUILDERS",
    "DualEncoderClassifier",
    "EncoderBlock",
    "EncoderClassifier",
    "FeedForward",
    "ModelConfig",
    "build_butterfly_decoder",
    "build_dense_decoder",
    "build_fabnet",
    "build_fnet",
    "build_hybrid_transformer",
    "build_model",
    "build_transformer",
    "make_abfly_block",
    "make_fbfly_block",
]
