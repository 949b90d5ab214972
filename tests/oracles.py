"""Independent oracles used by the test suite.

Every function here recomputes expected values by a route that shares no code
with the library: scalar loops, high-precision arithmetic, brute-force
enumeration, or central finite differences. There are six exceptions, each
built from the library's own elementary ops:
  - greedy_reference and beam_reference check the cached, batched search
    against the library's uncached teacher-forced pass, one hypothesis at a
    time;
  - evaluate_translation_reference scores a split one source at a time, each
    with its own batch-of-one search, to check the batched evaluation;
  - film_attention and multi_head_film_reference rebuild attention one head at
    a time from matmul, transpose, mul, add and softmax_rows, with the tape
    deriving the backward, to check the fused all-heads op and its hand-written
    backward;
  - affine_reference and add_layer_norm_reference compose the fused affine and
    residual layer-norm ops from matmul, add and the plain layer norm;
  - edge_gamma_beta_per_pair runs the FiLM conditioner MLP on every node pair,
    to check the library's one evaluation per edge type;
  - pretrain_losses and pretrain_loss_reference score masked-graph pretraining
    one corrupted graph at a time, each through its own encode, to check the
    batched pretrain_loss.
"""

from __future__ import annotations

import math

import numpy as np

from grat import autodiff as ad
from grat import decoder as dec
from grat.autodiff import Tensor
from grat.attention import encode
from grat.graph import Graph, N_RESERVED_LABELS, NO_BOND, SELF, TOK_CLS, TOK_EOG, VIRTUAL, \
    prepend_token
from grat.nn import affine
from grat.objectives import (MetricReport, cross_entropy_mean, exact_match, l1_mean,
                             property_forward)


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


def _grow_edges(edges: np.ndarray, classes) -> np.ndarray:
    """edges with one node appended, joined to node j by edge class classes[j]."""
    n = len(classes)
    grown = np.full((n + 1, n + 1), NO_BOND, dtype=np.int64)
    grown[:n, :n] = edges
    grown[n, n] = SELF
    for j, c in enumerate(classes):
        grown[n, j] = grown[j, n] = dec.edge_type_of_class(c)
    return grown


def _next_step_log_probs(cfg, params, memory, labels, edges):
    """Uncached: decode the whole prefix with decode_forward; return the next
    label's log-probs and the edge-class log-probs against nodes 1..m."""
    node_logits, edge_logits = dec.decode_forward(
        cfg, params, memory, dec.build_decoder_batch(Graph(labels, edges)))
    label_lp = ad.log_softmax_rows(node_logits).data[-1]
    edge_lp = ad.log_softmax_rows(edge_logits).data[edge_logits.shape[0] - len(labels):]
    return label_lp, edge_lp


def greedy_reference(cfg, params, memory, max_nodes) -> dec.GeneratedGraph:
    """Uncached greedy decoding: every step re-decodes the whole prefix with
    decode_forward, then takes the argmax label and the argmax class per
    earlier node. A step adds (score + label) + edges, as the beam does."""
    allowed = dec._allowed_labels(params["dec.embed"].shape[0])
    labels, edges, score = (), np.zeros((0, 0), dtype=np.int64), 0.0
    with ad.no_grad():
        while True:
            label_lp, edge_lp = _next_step_log_probs(cfg, params, memory, labels, edges)
            choice = dec._argmax_allowed(label_lp, allowed)
            if choice == TOK_EOG or len(labels) == max_nodes:
                return dec.GeneratedGraph(Graph(labels, edges), score + label_lp[TOK_EOG],
                                          truncated=choice != TOK_EOG)
            classes = [int(np.argmax(r)) for r in edge_lp]
            score = score + label_lp[choice] + sum(r[c] for r, c in zip(edge_lp, classes))
            labels = labels + (choice,)
            edges = _grow_edges(edges, classes)


def tuple_config_beam(rows, width):
    """Reference edge-configuration beam, one hypothesis at a time: every kept
    configuration times every class, as Python tuples in creation order,
    stably sorted by score and cut to width."""
    configs = [((), 0.0)]
    for row in rows:
        expanded = [(cfg + (c,), s + row[c]) for cfg, s in configs for c in range(len(row))]
        expanded.sort(key=lambda cs: -cs[1])
        configs = expanded[:width]
    return configs


def beam_reference(cfg, params, memory, width, max_nodes) -> list[dec.GeneratedGraph]:
    """Uncached beam search over tuples numbered in creation order.

    Each step re-decodes every live prefix with decode_forward. Each parent
    creates its <EOG> candidate, then, per real label in id order, one
    candidate per tuple_config_beam configuration; the pool sorts by
    (-score up to the label, creation number) and keeps width. <EOG>
    finishes its parent; finished graphs sort by (-score, creation number).
    """
    real_labels = range(N_RESERVED_LABELS, params["dec.embed"].shape[0])
    live = [((), np.zeros((0, 0), dtype=np.int64), 0.0)]
    finished, counter = [], 0
    with ad.no_grad():
        while live:
            pool = []   # (selection, number, parent, label, classes, config score)
            steps = []
            for h, (labels, edges, score) in enumerate(live):
                label_lp, edge_lp = _next_step_log_probs(cfg, params, memory, labels, edges)
                steps.append(label_lp)
                pool.append((score + label_lp[TOK_EOG], counter, h, TOK_EOG, (), 0.0))
                counter += 1
                if len(labels) == max_nodes:
                    continue
                configs = tuple_config_beam(edge_lp.tolist(), width)
                for label in real_labels:
                    for classes, config_score in configs:
                        pool.append((score + label_lp[label], counter, h, label, classes,
                                     config_score))
                        counter += 1
            pool.sort(key=lambda entry: (-entry[0], entry[1]))
            parents, live = live, []
            for selection, number, h, label, classes, config_score in pool[:width]:
                labels, edges, _ = parents[h]
                if label == TOK_EOG:
                    truncated = (len(labels) == max_nodes and
                                 max(steps[h][r] for r in real_labels) > steps[h][TOK_EOG])
                    finished.append((selection, number, dec.GeneratedGraph(
                        Graph(labels, edges), selection, truncated)))
                else:
                    live.append((labels + (label,), _grow_edges(edges, classes),
                                 selection + config_score))
    finished.sort(key=lambda entry: (-entry[0], entry[1]))
    return [result for _, _, result in finished[:width]]


def evaluate_translation_reference(model, pairs, max_nodes, beam_width) -> MetricReport:
    """evaluate_translation one source at a time: each source's best graph
    from its own TranslationModel.generate call."""
    matches = truncated = 0
    for srcs, tgt in pairs:
        best = model.generate(srcs, beam_width, max_nodes)[0]
        matches += exact_match(best.graph, tgt)
        truncated += best.truncated
    return MetricReport(exact_match_rate=matches / len(pairs),
                        counts={"pairs": len(pairs), "matches": matches,
                                "truncated": truncated})


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


def affine_reference(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as two recorded ops."""
    return ad.add(ad.matmul(x, w), b)


def add_layer_norm_reference(x: Tensor, residual: Tensor, gain: Tensor, bias: Tensor
                             ) -> Tensor:
    """layer_norm(x + residual) as two recorded ops."""
    return ad.layer_norm(ad.add(x, residual), gain, bias)


def edge_gamma_beta_per_pair(params: dict[str, Tensor], name: str, edge_matrix: np.ndarray,
                             n_layers: int) -> tuple[list[Tensor], list[Tensor]]:
    """attention.edge_gamma_beta with the conditioner MLP run on every pair:
    the one-hot layer is a row gather of each pair's type, then tanh and the
    output affine map run on all pairs."""
    shape = np.shape(edge_matrix)
    ids = np.asarray(edge_matrix, dtype=np.int64).reshape(-1)
    h = ad.add(ad.embedding_gather(params[f"{name}.onehot"], ids), params[f"{name}.b1"])
    raw = ad.affine(ad.tanh(h), params[f"{name}.out.w"], params[f"{name}.out.b"])
    gammas, betas = [], []
    for layer in range(n_layers):
        gammas.append(ad.reshape(ad.add(raw[:, 2 * layer], 1.0), shape))
        betas.append(ad.reshape(raw[:, 2 * layer + 1], shape))
    return gammas, betas


def pretrain_losses(cfg, params, sample, graph_targets=None) -> tuple[Tensor, Tensor, Tensor]:
    """One corrupted graph's recovery losses: (node_loss, edge_loss, graph_loss).

    The graph is encoded alone behind a prepended <CLS> token. Node and edge
    cross-entropies are taken at the corrupted positions only; graph_loss is
    the property head's MAE against graph_targets (tasks,). A loss with
    nothing to score is a constant zero.
    """
    h = encode(cfg, params, prepend_token(sample.graph, TOK_CLS, VIRTUAL))
    zero = Tensor(0.0)
    node_loss = zero
    if sample.node_targets:
        positions = sorted(sample.node_targets)
        logits = affine(params, "rec.fl", h[np.asarray(positions) + 1])
        node_loss = cross_entropy_mean(
            logits, np.array([sample.node_targets[i] for i in positions]))
    edge_loss = zero
    if sample.edge_targets:
        pairs = sorted(sample.edge_targets)
        reduced = affine(params, "rec.fp", h)
        lo = ad.embedding_gather(reduced, np.array([i + 1 for i, _ in pairs]))
        hi = ad.embedding_gather(reduced, np.array([j + 1 for _, j in pairs]))
        pair_logits = affine(params, "rec.fe2",
                             ad.relu(affine(params, "rec.fe1", ad.concat([lo, hi], axis=1))))
        classes = np.array([dec.edge_class_of_type(sample.edge_targets[p]) for p in pairs])
        edge_loss = cross_entropy_mean(pair_logits, classes)
    graph_loss = zero
    if graph_targets is not None:
        preds = property_forward(params, h[:1])
        graph_loss = l1_mean(preds, np.asarray(graph_targets, dtype=np.float64)[None])
    return node_loss, edge_loss, graph_loss


def pretrain_loss_reference(cfg, params, samples, graph_targets=None) -> Tensor:
    """Mean over the samples of each one's node + edge (+ graph) loss from
    pretrain_losses; graph_targets is (B, tasks) or None."""
    total = None
    for b, sample in enumerate(samples):
        node_loss, edge_loss, graph_loss = pretrain_losses(
            cfg, params, sample, None if graph_targets is None else graph_targets[b])
        example = ad.add(ad.add(node_loss, edge_loss), graph_loss)
        total = example if total is None else ad.add(total, example)
    return ad.mul(total, 1.0 / len(samples))
