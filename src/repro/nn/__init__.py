"""A from-scratch numpy neural-network library (the PyTorch substitute).

Public surface: the :class:`Tensor` autograd type and functional ops, the
module system, layers (dense, butterfly, attention, Fourier mixing),
optimizers and losses.
"""

from .attention import FourierMixing, MultiHeadAttention
from .butterfly_layer import ButterflyLinear
from .layers import (
    GELU,
    Embedding,
    LayerNorm,
    Linear,
)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import Adam
from .quantized import (
    QUANT_MODES,
    QuantizationReport,
    QuantizedButterflyLinear,
    QuantizedLinear,
    quantize_for_inference,
    weight_memory_bytes,
)
from .tensor import (
    Tensor,
    accuracy,
    add,
    clip,
    butterfly_apply,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
    concat,
    cross_entropy_logits,
    embedding,
    exp,
    fourier_mix_2d,
    gelu,
    getitem,
    is_grad_enabled,
    layer_norm,
    linear_act,
    log,
    log_softmax,
    matmul,
    max_,
    mean,
    mul,
    no_grad,
    power,
    reshape,
    residual_layer_norm,
    scaled_dot_attention,
    softmax,
    sqrt,
    stack,
    sub,
    sum_,
    swapaxes,
    tanh,
    transpose,
    var,
    where,
)

__all__ = [
    "Adam",
    "ButterflyLinear",
    "Embedding",
    "FourierMixing",
    "GELU",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Parameter",
    "QuantizationReport",
    "QUANT_MODES",
    "QuantizedButterflyLinear",
    "QuantizedLinear",
    "Sequential",
    "Tensor",
    "accuracy",
    "butterfly_apply",
    "cross_entropy_logits",
    "default_dtype",
    "get_default_dtype",
    "linear_act",
    "no_grad",
    "quantize_for_inference",
    "residual_layer_norm",
    "scaled_dot_attention",
    "set_default_dtype",
    "weight_memory_bytes",
]
