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
    if type(grad) is not np.ndarray or grad.dtype != np.float64:
        grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != t.data.shape:
        grad = _unbroadcast(grad, t.data.shape)
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


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a batch of rows x (n, n_in), w (n_in, n_out), b (n_out,)."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise DimensionError(f"affine: incompatible shapes {x.data.shape} @ {w.data.shape} "
                             f"+ {b.data.shape}")
    data = x.data @ w.data + b.data

    def bwd(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _make(data, (x, w, b), bwd)


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


def _is_basic_index(idx) -> bool:
    """Ints, slices and Ellipsis select each element at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is Ellipsis or isinstance(p, (int, np.integer, slice)) for p in parts)


def take(a: Tensor, idx) -> Tensor:
    """Basic/fancy indexing. The backward assigns for int/slice indices and
    scatter-adds for fancy ones (duplicates accumulate)."""
    a = _wrap(a)
    data = a.data[idx]
    basic = _is_basic_index(idx)

    def bwd(g):
        buf = np.zeros_like(a.data)
        if basic:
            buf[idx] = g
        else:
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


def _softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """softmax_rows's arithmetic; a boolean mask broadcasts against x.

    Masked entries become -inf, whose exp is exactly 0. A fully masked row
    has max -inf and sum 0; both are replaced so that the row comes out 0.
    """
    if mask is None:
        expd = np.exp(x - x.max(axis=-1, keepdims=True))
        return expd / expd.sum(axis=-1, keepdims=True)
    x = np.where(mask, x, -np.inf)
    rowmax = x.max(axis=-1, keepdims=True)
    rowmax[rowmax == -np.inf] = 0.0
    expd = np.exp(x - rowmax)
    denom = expd.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    return expd / denom


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row softmax over the last axis, numerically stabilized.

    Masked positions get exactly 0. A fully-masked row yields an all-zero
    row rather than NaN; callers can detect such rows with
    ``~mask.any(axis=-1)``.
    """
    x = _wrap(x)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.data.shape[x.data.ndim - mask.ndim:]:
            raise DimensionError(f"softmax mask shape {mask.shape} != input shape {x.data.shape}")
    data = _softmax(x.data, mask)

    def bwd(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - inner) * data)

    return _make(data, (x,), bwd)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         gamma: Tensor | None = None, beta: Tensor | None = None,
                         mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """All heads of edge-modulated scaled dot-product attention as one op,
    over a batch of B independent sequences.

    q is (B*n, heads*dk), k (B*nk, heads*dk) and v (B*nk, heads*dv): sequence
    b owns rows b*n.. of q and b*nk.. of k and v, each viewed as (heads, rows,
    d). Per sequence and head, weights = softmax((gamma*QK^T + beta)/sqrt(dk))
    with gamma, beta and mask (B, n, nk) shared by every head; (n, nk), or
    neither gamma nor mask given, is B = 1. With gamma and beta both None the
    modulation is skipped. Masked weights are exactly 0 and a fully masked row
    is a zero row. Returns the (B*n, heads*dv) output and the weights,
    (B, heads, n, nk), or (heads, n, nk) when B = 1 came from 2-d inputs. The
    backward is written from the saved weights.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    pairs = gamma.data if gamma is not None else mask
    lead = np.shape(pairs)[:-2] if pairs is not None else ()
    batch = lead[0] if lead else 1
    (rows, width), key_rows = q.data.shape, k.data.shape[0]
    if k.data.shape[1] != width or width % heads:
        raise DimensionError(f"attention: query {q.data.shape} and key {k.data.shape} "
                             f"widths do not split into {heads} equal heads")
    if v.data.shape[0] != key_rows or v.data.shape[1] % heads:
        raise DimensionError(f"attention: {v.data.shape} values for {k.data.shape} keys")
    if len(lead) > 1 or rows % batch or key_rows % batch:
        raise DimensionError(f"attention: {rows} query and {key_rows} key rows do not "
                             f"split into {batch} sequences")
    n, nk = rows // batch, key_rows // batch
    pair_shape = lead + (n, nk)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    for name, shape in (("gamma", gamma is not None and gamma.data.shape),
                        ("beta", beta is not None and beta.data.shape),
                        ("mask", mask is not None and mask.shape)):
        if shape and shape != pair_shape:
            raise DimensionError(f"attention: {name} shape {shape} != {pair_shape}")
    scale = 1.0 / np.sqrt(width // heads)
    qh, kh, vh = (t.data.reshape(batch, len(t.data) // batch, heads, -1).transpose(0, 2, 1, 3)
                  for t in (q, k, v))
    logits = qh @ kh.transpose(0, 1, 3, 2)
    scales = None if gamma is None else gamma.data.reshape(batch, 1, n, nk)
    modulated = logits if gamma is None else scales * logits + beta.data.reshape(batch, 1, n, nk)
    weights = _softmax(modulated * scale, None if mask is None else mask.reshape(batch, 1, n, nk))

    def bwd(g):
        gh = g.reshape(batch, n, heads, -1).transpose(0, 2, 1, 3)
        dweights = gh @ vh.transpose(0, 1, 3, 2)
        dmod = (dweights - (dweights * weights).sum(axis=-1, keepdims=True)) * weights * scale
        dlogits = dmod if gamma is None else dmod * scales
        _accumulate(q, (dlogits @ kh).transpose(0, 2, 1, 3).reshape(rows, width))
        # C order: on a column-major gradient the upstream matmul rounds differently
        dkeys = np.ascontiguousarray((qh.transpose(0, 1, 3, 2) @ dlogits).transpose(0, 3, 1, 2))
        _accumulate(k, dkeys.reshape(key_rows, width))
        _accumulate(v, (weights.transpose(0, 1, 3, 2) @ gh).transpose(0, 2, 1, 3)
                    .reshape(key_rows, -1))
        if gamma is not None:
            _accumulate(gamma, (dmod * logits).sum(axis=1).reshape(gamma.data.shape))
            _accumulate(beta, dmod.sum(axis=1).reshape(beta.data.shape))

    parents = (q, k, v) if gamma is None else (q, k, v, gamma, beta)
    out = (weights @ vh).transpose(0, 2, 1, 3).reshape(rows, -1)
    return _make(out, parents, bwd), weights.reshape(lead + weights.shape[1:])


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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5,
               residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    With residual, normalizes x + residual (a post-norm residual block) in
    the same op.
    """
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    summed = x.data
    if residual is not None:
        residual = _wrap(residual)
        try:
            summed = x.data + residual.data
        except ValueError:
            raise DimensionError(f"layer_norm: residual shape {residual.data.shape} "
                                 f"!= input shape {x.data.shape}") from None
    # sum / width is what ndarray.mean computes, without its Python-level overhead
    width = summed.shape[-1]
    centered = summed - summed.sum(axis=-1, keepdims=True) / width
    var = np.square(centered).sum(axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
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
        term = dxhat - dxhat.sum(axis=-1, keepdims=True) / width \
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / width)
        dx = inv * term
        _accumulate(x, dx)
        if residual is not None:
            _accumulate(residual, dx)

    parents = (x, gain, bias) if residual is None else (x, gain, bias, residual)
    return _make(data, parents, bwd)


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
