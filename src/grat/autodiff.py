"""Dense float64 tensors with reverse-mode autodiff and an Adam optimizer.

Define-by-run: each op stores its parent tensors and a backward closure on
the output. backward() walks the recorded graph once in reverse topological
order; gradients accumulate additively across fan-out. Everything is float64.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_grad_enabled = True  # recording flag, process-wide; no_grad() clears it


@contextmanager
def no_grad():
    """Disable graph recording (cheap evaluation / generation).

    The flag is one per process, not per thread: grat runs no threads, and
    every recorded op reads it.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """n-d float64 array, optionally tracked for reverse-mode autodiff."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return take(self, idx)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(t: Tensor, grad: np.ndarray):
    if not t.requires_grad:
        return
    grad = _unbroadcast(np.asarray(grad, dtype=np.float64), t.data.shape)
    if t.grad is None:
        t.grad = np.array(grad)  # own buffer, never alias the incoming grad
    else:
        t.grad += grad


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    return out


def backward(loss: Tensor):
    """Fill .grad on every requires_grad tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("backward: loss was not recorded on the tape (requires_grad is False)")
    # iterative topo sort; recursion would overflow on long decode sequences
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise DimensionError(f"sub: incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.data.shape}")

    def bwd(g):
        _accumulate(a, g.T)

    return _make(a.data.T, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(data, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accumulate(a, g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), bwd)


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(data, (a,), bwd)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.shape[axis]

    def bwd(g):
        scaled = g / count
        if axis is None:
            _accumulate(a, np.broadcast_to(scaled, a.data.shape))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(scaled, axis), a.data.shape))

    return _make(data, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(_wrap(t) for t in tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        start = 0
        for t, extent in zip(tensors, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, start + extent)
            _accumulate(t, g[tuple(index)])
            start += extent

    return _make(data, tensors, bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), bwd)


def take(a: Tensor, idx) -> Tensor:
    """Basic/fancy indexing; backward scatter-adds (duplicates accumulate)."""
    a = _wrap(a)
    data = a.data[idx]

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _accumulate(a, buf)

    return _make(np.array(data), (a,), bwd)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids] for an integer id array."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise DimensionError(f"embedding_gather expects a 2-d table, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(
            f"embedding_gather: id out of range for table with {table.data.shape[0]} rows"
        )
    data = table.data[ids]

    def bwd(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        _accumulate(table, buf)

    return _make(data, (table,), bwd)


# ---------------------------------------------------------------------------
# normalization / softmax


def _softmax(x: np.ndarray, mask) -> np.ndarray:
    """softmax_rows's arithmetic; a mask shaped like x's trailing axes broadcasts."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape[x.ndim - mask.ndim:]:
            raise DimensionError(f"softmax mask shape {mask.shape} != input shape {x.shape}")
        x = np.where(mask, x, -np.inf)
    rowmax = np.max(x, axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)  # fully-masked rows
    expd = np.exp(x - rowmax)
    if mask is not None:
        expd = np.where(mask, expd, 0.0)
    denom = expd.sum(axis=-1, keepdims=True)
    return np.divide(expd, denom, out=np.zeros_like(expd), where=denom > 0.0)


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row softmax over the last axis, numerically stabilized.

    Masked positions get exactly 0. A fully-masked row yields an all-zero
    row rather than NaN; callers can detect such rows with
    ``~mask.any(axis=-1)``.
    """
    x = _wrap(x)
    data = _softmax(x.data, mask)

    def bwd(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - inner) * data)

    return _make(data, (x,), bwd)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         gamma: Tensor | None = None, beta: Tensor | None = None,
                         mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """All heads of edge-modulated scaled dot-product attention as one op.

    q is (n, heads*dk), k (nk, heads*dk) and v (nk, heads*dv), each viewed as
    (heads, rows, d). Per head, weights = softmax((gamma*QK^T + beta)/sqrt(dk))
    with gamma, beta and mask (n, nk) shared by every head; with gamma and beta
    both None the modulation is skipped. Masked weights are exactly 0 and a
    fully masked row is a zero row. Returns the (n, heads*dv) output and the
    (heads, n, nk) weights. The backward is written from the saved weights.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    (n, width), nk = q.data.shape, k.data.shape[0]
    if k.data.shape[1] != width or width % heads:
        raise DimensionError(f"attention: query {q.data.shape} and key {k.data.shape} "
                             f"widths do not split into {heads} equal heads")
    if v.data.shape[0] != nk or v.data.shape[1] % heads:
        raise DimensionError(f"attention: {v.data.shape} values for {k.data.shape} keys")
    scale = 1.0 / np.sqrt(width // heads)
    qh, kh, vh = (t.data.reshape(len(t.data), heads, -1).transpose(1, 0, 2) for t in (q, k, v))
    logits = qh @ kh.transpose(0, 2, 1)
    modulated = logits if gamma is None else gamma.data * logits + beta.data
    weights = _softmax(modulated * scale, mask)

    def bwd(g):
        gh = g.reshape(n, heads, -1).transpose(1, 0, 2)
        dweights = gh @ vh.transpose(0, 2, 1)
        dmod = (dweights - (dweights * weights).sum(axis=-1, keepdims=True)) * weights * scale
        dlogits = dmod if gamma is None else dmod * gamma.data
        _accumulate(q, (dlogits @ kh).transpose(1, 0, 2).reshape(n, width))
        # C order: on a column-major gradient the upstream matmul rounds differently
        dkeys = np.ascontiguousarray((qh.transpose(0, 2, 1) @ dlogits).transpose(2, 0, 1))
        _accumulate(k, dkeys.reshape(nk, width))
        _accumulate(v, (weights.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(nk, -1))
        if gamma is not None:
            _accumulate(gamma, (dmod * logits).sum(axis=0))
            _accumulate(beta, dmod.sum(axis=0))

    parents = (q, k, v) if gamma is None else (q, k, v, gamma, beta)
    out = (weights @ vh).transpose(1, 0, 2).reshape(n, -1)
    return _make(out, parents, bwd), weights


def log_softmax_rows(x: Tensor) -> Tensor:
    x = _wrap(x)
    rowmax = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - rowmax
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    soft = np.exp(data)

    def bwd(g):
        _accumulate(x, g - soft * g.sum(axis=-1, keepdims=True))

    return _make(data, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = np.square(x.data - mu).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    try:
        data = xhat * gain.data + bias.data
    except ValueError:
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
            f"do not broadcast over {x.data.shape}"
        ) from None

    def bwd(g):
        _accumulate(gain, g * xhat)
        _accumulate(bias, g)
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * term)

    return _make(data, (x, gain, bias), bwd)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction over a named parameter dict, state in place."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """One Adam update. Aborts (no mutation at all) on non-finite grads."""
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            grads[name] = g
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
