"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper trains FABNet/FNet/Transformer with PyTorch, and we replace PyTorch
with this small, self-contained autograd engine.  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` walks the recorded graph in reverse topological
order and accumulates gradients.

Only the operations needed by the models in :mod:`repro.models` are
implemented, but each is implemented with full broadcasting support and is
verified against finite differences in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .. import kernels as _kernels
# get_default_dtype is used below; the other two are re-exported through
# repro.nn (redundant aliases mark them as intentional re-exports).
from ..kernels.dtype import default_dtype as default_dtype
from ..kernels.dtype import get_default_dtype
from ..kernels.dtype import set_default_dtype as set_default_dtype
from ..kernels.pool import check_out as _check_out
from ..kernels.pool import fresh as _fresh

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (for evaluation)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded."""
    return _GRAD_ENABLED


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce to the policy floating dtype (see :mod:`repro.kernels.dtype`).

    ``float64`` by default; ``float32`` throughout when the caller has
    opted in via :func:`repro.kernels.set_default_dtype`.
    """
    if dtype is None:
        dtype = get_default_dtype()
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size one.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
        dtype=None,
    ) -> None:
        """``data`` is coerced to ``dtype``, by default the ambient policy
        dtype (:mod:`repro.kernels.dtype`)."""
        self.data: np.ndarray = _as_array(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = requires_grad and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def backward(
        self, grad: Optional[ArrayLike] = None, retain_graph: bool = False
    ) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Unless ``retain_graph`` is set, each node's backward closure —
        and with it every saved activation — is released as soon as the
        node has propagated its gradient, so peak training memory decays
        *during* the backward pass instead of holding the whole forward
        graph alive until the loss tensor is garbage-collected.  A
        second ``backward()`` through a released graph raises
        ``RuntimeError`` (recompute the forward, or pass
        ``retain_graph=True`` on the first call).

        Interior gradients with fan-in are accumulated **in place** into
        an engine-owned buffer (``np.add(..., out=)``); buffers received
        from op backwards are never mutated, because ops may legally
        hand the same array to several parents (e.g. broadcast-free
        ``add``) — so a leaf's ``.grad`` is
        always its own copy, which a caller may scale in place.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # In the tensor's own dtype, not the ambient policy's: an fp32
        # model's loss backpropagates in fp32 outside any dtype context.
        grad = _as_array(grad, self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is not None:
                if node.requires_grad and node._backward is None:
                    # Leaf tensor: accumulate into an array it owns.
                    if node.grad is not None:
                        node_grad = np.add(node.grad, node_grad)
                    elif id(node) not in owned:
                        node_grad = node_grad.copy()
                    node.grad = node_grad
                if node._backward is not None:
                    node._accumulate_parent_grads(node_grad, grads, owned)
            if not retain_graph and node._backward is not None:
                # Eager release: drop the closure (and the activations it
                # saved) now that this node's gradient has been consumed.
                node._backward = _graph_freed
                node._parents = ()

    def _accumulate_parent_grads(
        self,
        grad: np.ndarray,
        grads: dict[int, np.ndarray],
        owned: set[int],
    ) -> None:
        parent_grads = self._backward(grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None:
                continue
            # Propagate into leaves, interior nodes, and *released* nodes
            # (parents cleared but _backward holds the freed sentinel) —
            # the latter must reach _graph_freed and raise rather than be
            # silently skipped as constants, or a second backward through
            # a shared subgraph would drop gradients without a sound.
            if not (
                parent.requires_grad
                or parent._parents
                or parent._backward is not None
            ):
                continue
            key = id(parent)
            buffer = grads.get(key)
            if buffer is None:
                # First contribution: keep the op's array as-is (it may be
                # a view or shared with a sibling parent — never write it).
                grads[key] = pgrad
            elif key in owned:
                # Engine-owned accumulation buffer: add in place.
                np.add(buffer, pgrad, out=buffer)
            else:
                # Second contribution: promote to an engine-owned buffer
                # so every further contribution accumulates in place.
                grads[key] = np.add(buffer, pgrad)
                owned.add(key)

    # ------------------------------------------------------------------
    # Operator overloads
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, _ensure_tensor(other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return add(_ensure_tensor(other), self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return sub(self, _ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(_ensure_tensor(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, _ensure_tensor(other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return mul(_ensure_tensor(other), self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, _ensure_tensor(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(_ensure_tensor(other), self)

    def __neg__(self) -> "Tensor":
        return mul(self, Tensor(-1.0, dtype=self.dtype))

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, _ensure_tensor(other))

    def __getitem__(self, index) -> "Tensor":
        return getitem(self, index)

    # Convenience methods mirroring the functional API.
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def log(self) -> "Tensor":
        return log(self)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return max_(self, axis=axis, keepdims=keepdims)


def _graph_freed(grad: np.ndarray):
    raise RuntimeError(
        "cannot backpropagate: this graph's buffers were freed by a previous "
        "backward() call (saved activations are released eagerly); recompute "
        "the forward pass or call backward(retain_graph=True)"
    )


def _ensure_tensor(value: ArrayLike) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _should_record(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` must be recorded in the graph.

    Shared by :func:`_make_result` and ops that precompute backward
    state (e.g. :func:`butterfly_apply`) so the two can never disagree.
    """
    return _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents)


def _make_result(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], tuple],
) -> Tensor:
    """Create an op result node, recording the graph only when needed.

    The result takes its operands' (promoted) dtype, not the ambient
    policy's: an fp32 model's activations, and a loss taken on its
    logits, stay fp32 wherever they are computed, and only what callers
    hand ``Tensor(...)`` themselves is coerced to the policy dtype.  An
    op that computed in anything else (a stray float64 scalar under NEP
    50) is cast back here, where ``tests/nn/test_dtype_discipline.py``
    sees it.
    """
    out = Tensor(data, dtype=np.result_type(*[p.data.dtype for p in parents]))
    if _should_record(parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = False
    return out


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(grad: np.ndarray):
        return _unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)

    return _make_result(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(grad: np.ndarray):
        return _unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape)

    return _make_result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * b.data, a.shape),
            _unbroadcast(grad * a.data, b.shape),
        )

    return _make_result(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad / b.data, a.shape),
            _unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return _make_result(data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    data = a.data**exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * a.data ** (exponent - 1),)

    return _make_result(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(grad: np.ndarray):
        return (grad / a.data,)

    return _make_result(data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT): the
    in-place ``exp2`` chain of :func:`repro.kernels.gelu_forward`, the one
    the programs run; a recorded node keeps its sigmoid for the VJP."""
    x = a.data
    data, s = _kernels.gelu_forward(x, need_ctx=_should_record((a,)))

    def backward(grad: np.ndarray):
        return (_kernels.gelu_vjp(grad, x, s),)

    return _make_result(data, (a,), backward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(grad: np.ndarray):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            return grad * b_data, grad * a_data
        if a_data.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            ga = (grad[..., None, :] * b_data).sum(axis=-1)
            ga = _unbroadcast(ga, a_data.shape)
            gb = a_data[..., :, None] * grad[..., None, :]
            return ga, _unbroadcast(gb, b_data.shape)
        if b_data.ndim == 1:
            ga = grad[..., :, None] * b_data
            gb = (a_data * grad[..., :, None]).sum(axis=tuple(range(a_data.ndim - 1)))
            return _unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)
        ga = grad @ np.swapaxes(b_data, -1, -2)
        gb = np.swapaxes(a_data, -1, -2) @ grad
        return _unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)

    return _make_result(data, (a, b), backward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    original = a.shape

    def backward(grad: np.ndarray):
        return (grad.reshape(original),)

    return _make_result(data, (a,), backward)


def transpose(a: Tensor, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(grad: np.ndarray):
        return (np.transpose(grad, inverse),)

    return _make_result(data, (a,), backward)


def _index_may_repeat(index) -> bool:
    """Whether an index expression can visit the same element twice.

    Only integer-array (fancy) indices can alias; slices, scalars and
    boolean masks cannot, so their scatter-back can use vectorized
    ``+=`` instead of the elementwise ``np.add.at`` loop.
    """
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if isinstance(item, (list, np.ndarray)) and np.asarray(item).dtype.kind in "iu":
            return True
    return False


def getitem(a: Tensor, index) -> Tensor:
    data = a.data[index]
    shape = a.shape
    scatter_add = _index_may_repeat(index)

    def backward(grad: np.ndarray):
        full = np.zeros(shape, grad.dtype)
        if scatter_add:
            np.add.at(full, index, grad)
        else:
            full[index] += grad
        return (full,)

    return _make_result(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: np.ndarray):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=axis))

    return _make_result(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        parts = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return _make_result(data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(grad: np.ndarray):
        g = grad
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % len(shape) for ax in axes)
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        full = np.empty(shape, grad.dtype)
        np.copyto(full, g)
        return (full,)

    return _make_result(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    total = sum_(a, axis=axis, keepdims=keepdims)
    # The scale in the sum's own dtype: a policy-dtype constant would
    # promote a float32 mean taken outside its dtype scope to float64.
    return total * Tensor(1.0 / count, dtype=total.dtype)


def max_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray):
        expanded = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == expanded).astype(grad.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        g = grad
        if not keepdims and axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.ndim for ax in axes)
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        elif not keepdims and axis is None:
            g = np.broadcast_to(grad, (1,) * a.ndim)
        return (mask * g,)

    return _make_result(data, (a,), backward)


# ----------------------------------------------------------------------
# Neural-network primitives
# ----------------------------------------------------------------------
def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * data).sum(axis=axis, keepdims=True)
        return (data * (grad - dot),)

    return _make_result(data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - logsum
    soft = np.exp(data)

    def backward(grad: np.ndarray):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return _make_result(data, (a,), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row-gather from an embedding table.

    ``indices`` is a plain integer array (token ids are never
    differentiated); the backward scatters through ``np.add.at``.  The
    training programs take :func:`repro.kernels.embedding_grad`'s
    sort/segment-sum instead.
    """
    indices = np.asarray(indices, dtype=np.int64)
    num_rows = weight.shape[0]
    if indices.size and not -num_rows <= indices.min() <= indices.max() < num_rows:
        raise IndexError(f"embedding ids must lie in [{-num_rows}, {num_rows})")
    data = np.empty(indices.shape + weight.shape[1:], weight.dtype)
    np.take(weight.data, indices, axis=0, out=data, mode="wrap")  # unbuffered

    def backward(grad: np.ndarray):
        full = np.zeros_like(weight.data)
        np.add.at(full, indices, grad)
        return (full,)

    return _make_result(data, (weight,), backward)


def layer_norm_forward(
    a: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5,
    out: Optional[np.ndarray] = None, take: Callable = _fresh,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """``(out, normed, inv)`` of an affine layer norm over the last axis.

    The array-level forward of :func:`layer_norm`, shared with the
    inference programs so both produce the same bytes.

    ``out`` is a C-contiguous array of ``a``'s shape and dtype that does
    not alias ``a``: the same arithmetic runs in it, it comes back with
    the bytes of the allocating call, and ``normed`` / ``inv`` — what a
    VJP would need — are ``None``.  Without it the arrays returned are
    ``take`` buffers.  The mean is ``np.mean``'s arithmetic, unwrapped
    (float16, which it would accumulate in float32, is refused); the
    variance is one ``np.vecdot`` of each centred row with itself, over
    ``n``.
    """
    if a.dtype == np.float16:
        raise TypeError("layer norm of a float16 input: cast it to float32")
    mu = np.add.reduce(a, axis=-1, keepdims=True)
    np.true_divide(mu, np.intp(a.shape[-1]), out=mu, casting="unsafe")
    if out is None:
        normed = take("ln.normed", a.shape, a.dtype)
    else:
        _check_out(out, a.shape, a.dtype, a)
        normed = out
    np.subtract(a, mu, out=normed)
    var = mu  # spent: it takes sum((a - mean)^2) / n
    np.vecdot(normed, normed, out=var[..., 0])
    var /= a.shape[-1]
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    normed *= inv
    if out is None:
        dtype = np.promote_types(a.dtype, np.promote_types(gamma.dtype, beta.dtype))
        y = np.multiply(normed, gamma, out=take("ln.y", a.shape, dtype))
        y += beta
        return y, normed, inv
    out *= gamma
    out += beta
    return out, None, None


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension with affine parameters;
    its backward is the residual norm's VJP (one of the sum's operands)."""
    data, normed, inv = layer_norm_forward(a.data, gamma.data, beta.data, eps)
    ctx = _kernels.ResidualLNContext(normed, inv, gamma.data, _fresh)

    def backward(grad: np.ndarray):
        gx, _, dgamma, dbeta = _kernels.residual_layer_norm_vjp(grad, ctx)
        return gx, dgamma, dbeta

    return _make_result(data, (a, gamma, beta), backward)


def linear_act(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """``x @ W^T + b`` as the composite ``transpose`` / ``matmul`` /
    bias-add graph.  The training programs run
    :func:`repro.kernels.linear_act_forward` instead."""
    if bias is not None and (bias.ndim != 1 or bias.shape[0] != weight.shape[0]):
        raise ValueError(
            f"bias must be 1-D of size {weight.shape[0]}, got shape {bias.shape}"
        )
    out = matmul(x, transpose(weight))
    return out if bias is None else add(out, bias)


def residual_layer_norm(
    x: Tensor, sub: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """``layer_norm(x + sub, gamma, beta)``: the residual close of every
    transformer sub-layer, as the composite graph."""
    if x.shape != sub.shape:
        raise ValueError(f"residual shapes differ: {x.shape} vs {sub.shape}")
    return layer_norm(add(x, sub), gamma, beta, eps=eps)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``(B, C)`` logits and integer ``(B,)``
    targets: ``log_softmax``, the targets' entries, their negated mean."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(
            f"cross_entropy_logits expects (batch, classes) logits, got {logits.shape}")
    batch = logits.shape[0]
    if targets.shape != (batch,):
        raise ValueError(f"targets must be ({batch},), got shape {targets.shape}")
    logp = log_softmax(logits, axis=-1)
    picked = getitem(logp, (np.arange(batch), targets))
    return -mean(picked)


def butterfly_apply(
    x: Tensor,
    coeffs: Sequence[Tensor],
    halves: Sequence[int],
    in_features: Optional[int] = None,
    out_features: Optional[int] = None,
) -> Tensor:
    """Apply a full ladder of butterfly stages as a single autograd op.

    ``coeffs[s]`` is the ``(4, n/2)`` stage tensor for pair stride
    ``halves[s]``; stages apply in order (``halves = [1, 2, ..., n/2]``
    for a complete butterfly matrix, the only ladder it takes).  It
    records one graph node for the whole ladder, which runs on
    :mod:`repro.kernels`' fused kernels: densified when the fold is small
    and the call brings at least ``in_features`` rows, grouped otherwise.

    ``in_features`` / ``out_features`` hand a layer's fold to the kernel,
    which owns the zero-pad to ``n`` and the output slice in both
    directions — a rectangular layer is still one graph node.
    """
    parents = (x, *coeffs)
    record = _should_record(parents)
    data, ctx = _kernels.butterfly_apply(
        x.data, [c.data for c in coeffs], halves, need_ctx=record,
        in_features=in_features, out_features=out_features,
    )

    def backward(grad: np.ndarray):
        gx, gcoeffs = _kernels.butterfly_apply_vjp(grad, ctx)
        return (gx, *gcoeffs)

    return _make_result(data, parents, backward)


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    *,
    causal: bool = False,
    key_mask: Optional[np.ndarray] = None,
    q_start: Optional[np.ndarray] = None,
    scale: Optional[float] = None,
    block: Optional[int] = None,
) -> Tensor:
    """Fused scaled-dot-product attention as a single autograd op.

    ``q`` is ``(B, H, Lq, Dh)``; ``k``/``v`` are ``(B, H, Lk, Dh)``.
    Compared to composing :func:`matmul`/:func:`softmax`/bias adds, this
    records **one** graph node, never materializes the full
    ``(B, H, Lq, Lk)`` softmax in the graph, and computes it one
    cache-sized query tile at a time (see
    :mod:`repro.kernels.attention`).  ``key_mask``
    is a boolean ``(B, Lk)`` validity mask; ``q_start`` gives per-row
    absolute query offsets for causal KV-cache continuation.
    """
    parents = (q, k, v)
    record = _should_record(parents)
    data, ctx = _kernels.attention_forward(
        q.data, k.data, v.data, causal=causal, key_mask=key_mask,
        q_start=q_start, scale=scale, block=block, need_ctx=record,
    )

    def backward(grad: np.ndarray):
        return _kernels.attention_vjp(grad, ctx)

    return _make_result(data, parents, backward)


def fourier_mix_2d(x: Tensor) -> Tensor:
    """FNet-style token mixing: real part of a 2D DFT over (seq, hidden).

    ``x`` has shape ``(..., seq, hidden)``.  Because the DFT matrix ``F`` is
    symmetric (``F.T == F``) and the input is real, the Jacobian of
    ``Re(F x F)`` is ``Re(F) (.) Re(F)`` and the backward pass is the same
    real-FFT mixing applied to the incoming gradient: one real-input
    kernel, :func:`repro.kernels.fourier_mix`, both ways.
    """
    data = _kernels.fourier_mix(x.data)

    def backward(grad: np.ndarray):
        return (_kernels.fourier_mix(grad),)

    return _make_result(data, (x,), backward)


def var(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance along ``axis`` (composite, differentiable)."""
    mu = mean(a, axis=axis, keepdims=True)
    sq = (a - mu) ** 2.0
    return mean(sq, axis=axis, keepdims=keepdims)
