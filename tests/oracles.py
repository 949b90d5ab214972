"""Independent oracles used by the test suite.

Every function here recomputes expected values by a route that shares no code
with the library: scalar loops, high-precision arithmetic, brute-force
enumeration, or central finite differences. There are two exceptions, each
built from the library's own elementary ops:
  - greedy_reference checks the cached search against the library's uncached
    teacher-forced pass;
  - film_attention and multi_head_film_reference rebuild attention one head at
    a time from matmul, transpose, mul, add and softmax_rows, with the tape
    deriving the backward, to check the fused all-heads op and its hand-written
    backward.
"""

from __future__ import annotations

import math

import numpy as np

from grat import autodiff as ad
from grat import decoder as dec
from grat.autodiff import Tensor
from grat.graph import Graph, TOK_EOG


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_row_highprec(row) -> list[float]:
    """Softmax of one row via mpmath at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        exps = [mpmath.e ** mpmath.mpf(float(x)) for x in row]
        total = sum(exps)
        return [float(e / total) for e in exps]


def finite_difference_grad(f, x: np.ndarray, indices, h: float = 1e-6) -> dict:
    """Central-difference df/dx[idx] for each idx in indices. f: () -> float."""
    grads = {}
    for idx in indices:
        orig = x[idx]
        x[idx] = orig + h
        up = f()
        x[idx] = orig - h
        down = f()
        x[idx] = orig
        grads[idx] = (up - down) / (2.0 * h)
    return grads


def relative_error(a: float, b: float, floor: float = 1e-4) -> float:
    """|a-b| relative to the larger magnitude, with a floor for tiny gradients
    (central differences at h=1e-6 carry ~1e-10 absolute roundoff noise)."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def adam_unrolled(param0: float, grad: float, steps: int, lr=1e-3, beta1=0.9,
                  beta2=0.999, eps=1e-8) -> float:
    """Hand-unrolled Adam recurrence on a single scalar with constant gradient."""
    p, m, v = param0, 0.0, 0.0
    for t in range(1, steps + 1):
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


def triangle_count_bruteforce(adjacency: np.ndarray) -> int:
    n = adjacency.shape[0]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if adjacency[i, j] and adjacency[j, k] and adjacency[i, k]:
                    count += 1
    return count


def greedy_reference(cfg, params, memory, max_nodes) -> dec.GeneratedGraph:
    """Uncached greedy decoding: every step re-decodes the whole prefix with
    decode_forward, then takes the argmax label and the argmax class per
    earlier node. A step adds (score + label) + edges, as the beam does."""
    allowed = dec._allowed_labels(params["dec.embed"].shape[0])
    labels, edges, score = (), np.zeros((0, 0), dtype=np.int64), 0.0
    with ad.no_grad():
        while True:
            node_logits, edge_logits = dec.decode_forward(
                cfg, params, memory, dec.build_decoder_batch(Graph(labels, edges)))
            label_lp = ad.log_softmax_rows(node_logits).data[-1]
            edge_lp = ad.log_softmax_rows(edge_logits).data[edge_logits.shape[0] - len(labels):]
            choice = dec._argmax_allowed(label_lp, allowed)
            if choice == TOK_EOG or len(labels) == max_nodes:
                return dec.GeneratedGraph(Graph(labels, edges), score + label_lp[TOK_EOG],
                                          truncated=choice != TOK_EOG)
            classes = [int(np.argmax(r)) for r in edge_lp]
            score = score + label_lp[choice] + sum(r[c] for r, c in zip(edge_lp, classes))
            labels = labels + (choice,)
            edges = dec._extend_edges(edges, [dec.edge_type_of_class(c) for c in classes])


def film_attention(q: Tensor, k: Tensor, v: Tensor, gamma: Tensor | None = None,
                   beta: Tensor | None = None, mask: np.ndarray | None = None
                   ) -> tuple[Tensor, Tensor]:
    """One head of edge-modulated scaled dot-product attention, op by op:
    softmax((gamma * QK^T + beta) / sqrt(d_k)) V, modulation skipped when
    gamma and beta are None. Returns (output, weights)."""
    logits = ad.matmul(q, ad.transpose(k))
    if gamma is not None:
        logits = ad.add(ad.mul(gamma, logits), beta)
    weights = ad.softmax_rows(ad.mul(logits, 1.0 / math.sqrt(q.shape[1])), mask=mask)
    return ad.matmul(weights, v), weights


def multi_head_film_reference(q: Tensor, k: Tensor, v: Tensor, heads: int,
                              gamma: Tensor | None = None, beta: Tensor | None = None,
                              mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """The per-head loop: slice each head's columns, run film_attention on
    them with the shared (gamma, beta, mask), concatenate the outputs."""
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    outs, weights = [], []
    for h in range(heads):
        out, w = film_attention(q[:, h * dk:(h + 1) * dk], k[:, h * dk:(h + 1) * dk],
                                v[:, h * dv:(h + 1) * dv], gamma, beta, mask)
        outs.append(out)
        weights.append(w.data)
    return ad.concat(outs, axis=1), np.stack(weights)
