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


def _is_basic_index(idx) -> bool:
    """Ints, slices and Ellipsis select each element at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is Ellipsis or isinstance(p, (int, np.integer, slice)) for p in parts)


def take(a: Tensor, idx) -> Tensor:
    """a[idx], for basic (int, slice, Ellipsis) or fancy indices; an integer
    array gathers rows, as an embedding lookup does, and every id must name
    a row. The backward assigns for basic indices and scatter-adds for fancy
    ones (duplicates accumulate)."""
    a = _wrap(a)
    basic = _is_basic_index(idx)
    if basic:
        data = a.data[idx].copy()   # a view: own the data, as the fancy result does
    else:
        if (type(idx) is np.ndarray and idx.dtype.kind in "iu" and idx.size
                and (idx.min() < 0 or idx.max() >= a.data.shape[0])):
            raise ContractError(f"take: row id out of range for {a.data.shape[0]} rows")
        data = a.data[idx]

    def bwd(g):
        buf = np.zeros_like(a.data)
        if basic:
            buf[idx] = g
        else:
            np.add.at(buf, idx, g)
        _accumulate(a, buf)

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# normalization / softmax


def _softmax(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis; a boolean mask broadcasts against x.

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


def packed_rows(sizes, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The row layout of a packed batch: B sequences of sizes[b] rows stored
    back to back, so that sequence b's rows start at the sum of the earlier
    sizes. Returns those starts (B,) and the real cells of the padded grid,
    (B, width) with [b, i] true for i < sizes[b]; width defaults to the
    largest size. The grid's true cells, in C order, are the packed rows in
    order, so grid-shaped arrays pack as a[real] and the packed rows' grid
    rows (b*width + i) are np.flatnonzero(real).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    width = int(sizes.max(initial=0)) if width is None else width
    return np.cumsum(sizes) - sizes, np.arange(width) < sizes[:, None]


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         gamma: Tensor | None = None, beta: Tensor | None = None,
                         mask: np.ndarray | None = None, *,
                         sizes: tuple[Sequence[int], Sequence[int]]
                         ) -> tuple[Tensor, np.ndarray]:
    """All heads of edge-modulated scaled dot-product attention as one op,
    over a batch of B independent sequences.

    Per sequence and head, weights = softmax((gamma*QK^T + beta)/sqrt(dk)),
    with gamma, beta and mask (B, n, nk) shared by every head. With gamma
    and beta both None the modulation is skipped. Masked weights are exactly
    0 and a fully masked row is a zero row. The backward is written from the
    saved weights.

    sizes = (query sizes, key sizes), one pair per sequence, as lists of
    ints. q (query rows, heads*dk), k (key rows, heads*dk) and v (key rows,
    heads*dv) hold only the real rows, back to back (packed_rows), which are
    a prefix of each sequence: sequence b's queries are query position
    0..sizes[0][b]-1 of the (B, n, nk) grid, and likewise its keys. A
    sequence may have no query rows; its keys then get zero gradient. The
    op puts the rows into a zero grid, masks every padding row and column,
    and returns the output, and takes the q/k/v gradients, at the real rows
    only; gamma, beta and the weights keep the grid's shape. n and nk are
    gamma's or mask's last two extents, or else the largest sizes. Sizes
    that fill the grid pad nothing, and the rows run on it as they are.

    Returns the (query rows, heads*dv) output and the (B, heads, n, nk)
    weights.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    (rows, width), key_rows = q.data.shape, k.data.shape[0]
    if k.data.shape[1] != width or width % heads:
        raise DimensionError(f"attention: query {q.data.shape} and key {k.data.shape} "
                             f"widths do not split into {heads} equal heads")
    if v.data.shape[0] != key_rows or v.data.shape[1] % heads:
        raise DimensionError(f"attention: {v.data.shape} values for {k.data.shape} keys")
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    # builtins, not numpy: generation calls this per layer and step on short lists
    q_sizes, k_sizes = sizes
    batch = len(q_sizes)
    paired = batch and len(k_sizes) == batch
    q_top, k_top = (max(q_sizes), max(k_sizes)) if paired else (0, 0)
    pairs = gamma.data if gamma is not None else mask
    n, nk = (q_top, k_top) if pairs is None else pairs.shape[-2:]
    if (not paired or sum(q_sizes) != rows or sum(k_sizes) != key_rows or min(q_sizes) < 0
            or min(k_sizes) < 0 or q_top > n or k_top > nk):
        raise DimensionError(f"attention: {rows} query and {key_rows} key rows do not "
                             f"pack as sizes {list(q_sizes)} and {list(k_sizes)} "
                             f"into {batch} sequences of {n} and {nk} rows")
    for name, shape in (("gamma", gamma is not None and gamma.data.shape),
                        ("beta", beta is not None and beta.data.shape),
                        ("mask", mask is not None and mask.shape)):
        if shape and shape != (batch, n, nk):
            raise DimensionError(f"attention: {name} shape {shape} != {(batch, n, nk)}")
    # sizes that fill the grid leave nothing to pad
    packed = rows != batch * n or key_rows != batch * nk
    if not packed:
        qd, kd, vd = q.data, k.data, v.data
    else:
        real_q, real_k = packed_rows(q_sizes, n)[1], packed_rows(k_sizes, nk)[1]
        real = real_q[:, :, None] & real_k[:, None, :]
        mask = real if mask is None else mask & real
        q_at, k_at = np.flatnonzero(real_q), np.flatnonzero(real_k)
        qd, kd, vd = (np.zeros((batch * extent, t.data.shape[1])) for extent, t in
                      ((n, q), (nk, k), (nk, v)))
        qd[q_at], kd[k_at], vd[k_at] = q.data, k.data, v.data
    scale = 1.0 / np.sqrt(width // heads)
    # explicit head widths: -1 cannot be inferred for a grid without query rows
    qh, kh, vh = (data.reshape(batch, extent, heads, data.shape[1] // heads).transpose(0, 2, 1, 3)
                  for data, extent in ((qd, n), (kd, nk), (vd, nk)))
    logits = qh @ kh.transpose(0, 1, 3, 2)
    scales = None if gamma is None else gamma.data.reshape(batch, 1, n, nk)
    modulated = logits if gamma is None else scales * logits + beta.data.reshape(batch, 1, n, nk)
    weights = _softmax(modulated * scale, None if mask is None else mask.reshape(batch, 1, n, nk))

    def bwd(g):
        if packed:
            g, rows_g = np.zeros((batch * n, g.shape[1])), g
            g[q_at] = rows_g
        gh = g.reshape(batch, n, heads, g.shape[1] // heads).transpose(0, 2, 1, 3)
        dweights = gh @ vh.transpose(0, 1, 3, 2)
        dmod = (dweights - (dweights * weights).sum(axis=-1, keepdims=True)) * weights * scale
        dlogits = dmod if gamma is None else dmod * scales
        dq = (dlogits @ kh).transpose(0, 2, 1, 3).reshape(batch * n, width)
        # C order: on a column-major gradient the upstream matmul rounds differently
        dk = np.ascontiguousarray((qh.transpose(0, 1, 3, 2) @ dlogits).transpose(0, 3, 1, 2)
                                  ).reshape(batch * nk, width)
        dv = (weights.transpose(0, 1, 3, 2) @ gh).transpose(0, 2, 1, 3).reshape(batch * nk, -1)
        if packed:
            dq, dk, dv = dq[q_at], dk[k_at], dv[k_at]
        _accumulate(q, dq)
        _accumulate(k, dk)
        _accumulate(v, dv)
        if gamma is not None:
            _accumulate(gamma, (dmod * logits).sum(axis=1).reshape(gamma.data.shape))
            _accumulate(beta, dmod.sum(axis=1).reshape(beta.data.shape))

    parents = (q, k, v) if gamma is None else (q, k, v, gamma, beta)
    out = (weights @ vh).transpose(0, 2, 1, 3).reshape(batch * n, v.data.shape[1])
    if packed:
        out = out[q_at]
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
