"""Instruction stream: the accelerator's runtime control.

The paper's engines are "configured at runtime via dedicated hardware
control": before each layer, control registers select FFT vs butterfly
mode, buffer address mappings and engine parallelism.  This module is
that control path:

* an **instruction set** (`Opcode`, `Instruction`) covering everything the
  accelerator does: configure engines, load/store tiles, execute
  butterfly/FFT/attention, post-process;
* a **compiler** (`compile_model`) from a FABNet
  :class:`~repro.models.encoder.EncoderClassifier` to a linear
  instruction stream, and the one place that refuses a model the machine
  cannot run (vanilla attention, dense FFNs).  `compile_spec` emits the
  same stream for a :class:`~repro.hardware.perf.WorkloadSpec`'s shape:
  both read the model's block layout
  (:func:`~repro.models.blocks.block_layout`) and share one cached stream
  per layout, built by one per-block emitter that wraps each of the
  block's layers (:func:`~repro.models.blocks.block_layers`) in its
  instructions;
* a **validator** (`validate_program`) of the structural invariants a
  hardware sequencer relies on (every EXEC preceded by a CONFIG of the
  right mode, layer-by-layer order, balanced load/store per layer).

The stream is what the host would ship to the device, and it is what both
models of the machine read: :meth:`ButterflyAccelerator.run
<repro.hardware.functional.ButterflyAccelerator.run>` replays a `Program`
instruction by instruction on the functional engines, and
:meth:`ButterflyPerformanceModel.model_latency
<repro.hardware.perf.ButterflyPerformanceModel.model_latency>` charges
each instruction of the same stream its cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..models.blocks import block_layers, block_layout
from ..models.encoder import EncoderClassifier
from ..nn.butterfly_layer import ButterflyLinear

if TYPE_CHECKING:
    from .perf import WorkloadSpec


class Opcode(Enum):
    """Operations the control sequencer can issue."""

    CONFIG_BFLY = "config_bfly"  # set BE muxes to butterfly-linear mode
    CONFIG_FFT = "config_fft"  # set BE muxes to FFT mode
    LOAD = "load"  # off-chip -> butterfly/attention buffers
    EXEC_BFLY = "exec_bfly"  # run butterfly linear transform on BP
    EXEC_FFT2 = "exec_fft2"  # run 2D FFT mixing on BP
    EXEC_ATTN = "exec_attn"  # run QK/softmax/SV on AP
    GELU = "gelu"  # activation unit
    ADD_NORM = "add_norm"  # PostP shortcut + LayerNorm
    STORE = "store"  # buffers -> off-chip


@dataclass(frozen=True)
class Instruction:
    """One control-sequencer instruction."""

    opcode: Opcode
    operand: str = ""  # tensor tag or layer path
    block: int = -1  # encoder block index, -1 for global

    def __str__(self) -> str:
        where = f"b{self.block}" if self.block >= 0 else "--"
        return f"{self.opcode.value:<12s} {where:<4s} {self.operand}"


@dataclass
class Program:
    """A compiled instruction stream and the model whose weights it runs."""

    instructions: List[Instruction] = field(default_factory=list)
    model: Optional[EncoderClassifier] = None

    def __len__(self) -> int:
        return len(self.instructions)

    def count(self, opcode: Opcode) -> int:
        return sum(1 for i in self.instructions if i.opcode == opcode)


# A butterfly or Fourier layer is a CONFIG of its engine mode, then LOAD,
# EXEC, STORE on the BP; every other kind of layer is one instruction.
_ENGINE_LAYERS = {"butterfly": (Opcode.CONFIG_BFLY, Opcode.EXEC_BFLY),
                  "fourier": (Opcode.CONFIG_FFT, Opcode.EXEC_FFT2)}
_ONE_INSTRUCTION = {"attention": Opcode.EXEC_ATTN, "gelu": Opcode.GELU,
                    "add_norm": Opcode.ADD_NORM}


def _emit_block(block_idx: int, mixing: str, butterfly_ffn: bool) -> List[Instruction]:
    """One block's control stream: the instructions of each of its
    :func:`~repro.models.blocks.block_layers`, the single description of
    a block that the simulator replays and the latency model charges.

    Raises ``TypeError`` for a block the butterfly accelerator cannot run
    (vanilla attention, a dense FFN): that is the baseline design's work.
    """
    if mixing not in ("fourier", "butterfly_attention"):
        raise TypeError(
            f"block mixing {mixing!r} is not executable on the "
            "butterfly accelerator (vanilla attention needs the baseline)"
        )
    if not butterfly_ffn:
        raise TypeError(
            "the butterfly accelerator only executes butterfly FFNs; "
            "dense layers belong to the baseline design"
        )
    out: List[Instruction] = []
    for tag, kind in block_layers(mixing, butterfly_ffn):
        if kind in _ENGINE_LAYERS:
            config, execute = _ENGINE_LAYERS[kind]
            out.extend(Instruction(op, tag, block_idx)
                       for op in (config, Opcode.LOAD, execute, Opcode.STORE))
        else:
            out.append(Instruction(_ONE_INSTRUCTION[kind], tag, block_idx))
    return out


@lru_cache(maxsize=None)
def _spec_stream(layout: Tuple[Tuple[str, bool], ...]) -> Tuple[Instruction, ...]:
    # Only a stream the machine can run is cached: a refusal raises anew.
    return tuple(inst for idx, (mixing, butterfly_ffn) in enumerate(layout)
                 for inst in _emit_block(idx, mixing, butterfly_ffn))


def compile_model(model: EncoderClassifier) -> Program:
    """Compile the encoder stack of a FABNet model: the cached stream of
    its layout (each block's mixing kind, and whether both FFN layers are
    butterflies), wrapped with the model whose weights it runs."""
    layout = tuple(
        (block.mixing_kind, all(isinstance(fc, ButterflyLinear)
                                for fc in (block.ffn.fc1, block.ffn.fc2)))
        for block in model.blocks)
    return Program(list(_spec_stream(layout)), model=model)


def compile_spec(spec: WorkloadSpec) -> Program:
    """The stream ``compile_model`` emits for a FABNet of ``spec``'s shape
    (``n_fbfly`` FBfly blocks, then ``n_abfly`` ABfly blocks), without its
    weights; the latency model folds over it.  A dense (``butterfly=False``)
    spec is refused as a dense model is."""
    return Program(list(_spec_stream(
        block_layout(spec.n_fbfly, spec.n_abfly, spec.butterfly))))


def validate_program(program: Program) -> List[str]:
    """Static checks a hardware sequencer would enforce.

    Returns a list of violations (empty = valid):
    * every EXEC_BFLY is preceded (since the last CONFIG_*) by CONFIG_BFLY;
    * every EXEC_FFT2 by CONFIG_FFT;
    * LOAD count equals STORE count (buffers drain);
    * block indices are non-decreasing (layer-by-layer schedule).
    """
    violations: List[str] = []
    mode: Optional[Opcode] = None
    last_block = -1
    for idx, inst in enumerate(program.instructions):
        if inst.opcode in (Opcode.CONFIG_BFLY, Opcode.CONFIG_FFT):
            mode = inst.opcode
        if inst.opcode == Opcode.EXEC_BFLY and mode is not Opcode.CONFIG_BFLY:
            violations.append(f"{idx}: EXEC_BFLY without CONFIG_BFLY")
        if inst.opcode == Opcode.EXEC_FFT2 and mode is not Opcode.CONFIG_FFT:
            violations.append(f"{idx}: EXEC_FFT2 without CONFIG_FFT")
        if inst.block >= 0:
            if inst.block < last_block:
                violations.append(f"{idx}: block index went backwards")
            last_block = max(last_block, inst.block)
    if program.count(Opcode.LOAD) != program.count(Opcode.STORE):
        violations.append("unbalanced LOAD/STORE")
    return violations
