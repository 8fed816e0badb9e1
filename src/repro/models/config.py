"""Model configuration shared by Transformer, FNet and FABNet."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of an encoder-only attention model.

    Mirrors the paper's notation: ``d_hidden`` is :math:`D_{hid}`,
    ``r_ffn`` is :math:`R_{ffn}`, ``n_total`` is :math:`N_{total}` and
    ``n_abfly`` is :math:`N_{ABfly}`.  Which blocks a builder stacks, in
    which order, is :func:`~repro.models.blocks.block_layout`'s to say
    (for FABNet, ``n_fbfly`` FBfly blocks, then ``n_abfly`` ABfly blocks);
    the vanilla Transformer and FNet builders read only ``n_total``.

    ``d_hidden`` must be a power of two, as butterfly layers need.  The
    paper's FABNet-Base width, 768, is not: the hardware pads it to 1024
    inside butterfly layers, and the analytical models
    (:func:`repro.hardware.fabnet_spec`) take 768 as it is.

    ``dtype`` selects the software arithmetic via the kernel layer's
    policy (:mod:`repro.kernels.dtype`): ``"float64"`` (default, tightest
    golden parity) or ``"float32"`` (faster; still wider than the
    accelerator's fixed-point datapath).  Wrap model construction *and*
    training in :meth:`dtype_context` so parameters and activations agree.
    """

    vocab_size: int = 64
    n_classes: int = 2
    max_len: int = 128
    d_hidden: int = 64
    n_heads: int = 4
    r_ffn: int = 4
    n_total: int = 2
    n_abfly: int = 0
    seed: int = 0
    dtype: str = "float64"

    def dtype_context(self):
        """Context manager scoping the kernel dtype policy to ``dtype``."""
        from ..kernels import default_dtype

        return default_dtype(self.dtype)

    def __post_init__(self) -> None:
        if self.d_hidden % self.n_heads != 0:
            raise ValueError(
                f"d_hidden={self.d_hidden} must be divisible by n_heads={self.n_heads}"
            )
        if not 0 <= self.n_abfly <= self.n_total:
            raise ValueError(
                f"n_abfly={self.n_abfly} must lie in [0, n_total={self.n_total}]"
            )
        if self.d_hidden & (self.d_hidden - 1):
            raise ValueError(
                f"d_hidden must be a power of two for butterfly layers, got {self.d_hidden}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )

    @property
    def d_ffn(self) -> int:
        return self.d_hidden * self.r_ffn

    @property
    def n_fbfly(self) -> int:
        return self.n_total - self.n_abfly

    def with_(self, **changes) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

