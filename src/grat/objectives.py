"""Losses, masked-graph pretraining, and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .decoder import edge_class_of_type
from .graph import (Graph, MASK_EDGE, NO_BOND, TOK_CLS, TOK_MASK, VIRTUAL,
                    N_RESERVED_EDGES, N_RESERVED_LABELS, prepend_token)
from .attention import EncoderConfig, encode, readout_cls
from .nn import affine, init_affine


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer targets under row-wise log-softmax."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[0] != len(targets) or len(targets) == 0:
        raise ContractError(
            f"cross entropy: {logits.shape[0]} logit rows vs {len(targets)} targets")
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(targets)), targets] = 1.0
    picked = ad.mul(ad.log_softmax_rows(logits), Tensor(onehot))
    return ad.mul(ad.sum_(picked), -1.0 / len(targets))


def l1_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    return ad.mean(ad.absolute(ad.sub(pred, Tensor(target))))


def std_mae(per_task_mae: Mapping[str, float], per_task_std: Mapping[str, float]) -> float:
    """Mean over tasks of MAE_t / sigma_t."""
    if not per_task_mae:
        raise ContractError("std_mae of an empty task map")
    total = 0.0
    for task, mae in per_task_mae.items():
        sigma = per_task_std.get(task)
        if sigma is None or sigma <= 0.0:
            raise ContractError(f"std_mae: non-positive or missing std for task {task!r}")
        total += mae / sigma
    return total / len(per_task_mae)


def log_mae(per_task_mae: Mapping[str, float]) -> float:
    """Mean over tasks of ln(MAE_t)."""
    if not per_task_mae:
        raise ContractError("log_mae of an empty task map")
    for task, mae in per_task_mae.items():
        if mae <= 0.0:
            raise ContractError(f"log_mae: non-positive MAE for task {task!r}")
    return float(np.mean([math.log(m) for m in per_task_mae.values()]))


def exact_match(pred: Graph, target: Graph) -> bool:
    """Position-wise label and entrywise edge equality under canonical order."""
    return pred.labels == target.labels and np.array_equal(pred.edges, target.edges)


@dataclass
class MetricReport:
    per_task_mae: dict[str, float] = field(default_factory=dict)
    std_mae: float | None = None
    log_mae: float | None = None
    exact_match_rate: float | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_task_mae": self.per_task_mae,
            "std_mae": self.std_mae,
            "log_mae": self.log_mae,
            "exact_match_rate": self.exact_match_rate,
            "counts": self.counts,
        }


# ---------------------------------------------------------------------------
# masked-graph pretraining


@dataclass
class MaskedGraphSample:
    """Corrupted graph plus recovery targets at exactly the corrupted spots."""

    graph: Graph
    node_targets: dict[int, int]
    edge_targets: dict[tuple[int, int], int]


def mask_graph(g: Graph, rate: float, rng: np.random.Generator) -> MaskedGraphSample:
    """Corrupt a graph for recovery pretraining.

    Each ordinary node is masked independently with the given rate; when the
    draw selects none, the degenerate outcome is redrawn as a single
    uniformly-chosen node, which keeps the effective per-node rate close to
    the nominal one. A masked node's label becomes <MASK> and each of its
    incident real-typed edges becomes MASK_EDGE with probability 0.5.
    Reserved tokens, the SELF diagonal, and VIRTUAL edges are never touched.
    """
    if g.n == 0:
        raise ContractError("mask_graph of an empty graph")
    if not 0.0 < rate < 1.0:
        raise ContractError(f"mask rate must be in (0, 1), got {rate}")
    maskable = [i for i, lab in enumerate(g.labels) if lab >= N_RESERVED_LABELS]
    if not maskable:
        raise ContractError("mask_graph: no ordinary nodes to mask")
    picked = [i for i in maskable if rng.random() < rate]
    if not picked:
        picked = [maskable[int(rng.integers(len(maskable)))]]
    node_targets = {i: g.labels[i] for i in picked}
    labels = list(g.labels)
    for i in picked:
        labels[i] = TOK_MASK
    edges = np.array(g.edges)
    edge_targets: dict[tuple[int, int], int] = {}
    picked_set = set(picked)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if edges[i, j] >= N_RESERVED_EDGES and (i in picked_set or j in picked_set):
                if rng.random() < 0.5:
                    edge_targets[(i, j)] = int(edges[i, j])
                    edges[i, j] = edges[j, i] = MASK_EDGE
    corrupted = Graph(labels=tuple(labels), edges=edges,
                      node_features=g.node_features, edge_features=g.edge_features,
                      properties=g.properties)
    return MaskedGraphSample(graph=corrupted, node_targets=node_targets,
                             edge_targets=edge_targets)


def init_recovery_heads(cfg: EncoderConfig, n_labels: int, n_edge_classes: int,
                        rng: np.random.Generator, prefix: str = "rec",
                        pair_width: int = 32, fe_hidden: int = 64) -> dict[str, Tensor]:
    """Label head plus a pairwise edge head of the generation-head shape."""
    params: dict[str, Tensor] = {}
    init_affine(params, f"{prefix}.fl", rng, cfg.width, n_labels)
    init_affine(params, f"{prefix}.fp", rng, cfg.width, pair_width)
    init_affine(params, f"{prefix}.fe1", rng, 2 * pair_width, fe_hidden)
    init_affine(params, f"{prefix}.fe2", rng, fe_hidden, n_edge_classes)
    return params


def init_property_head(cfg: EncoderConfig, n_tasks: int, rng: np.random.Generator,
                       prefix: str = "prop", hidden: int = 64) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    init_affine(params, f"{prefix}.h", rng, cfg.width, hidden)
    init_affine(params, f"{prefix}.o", rng, hidden, n_tasks)
    return params


def property_forward(params: dict[str, Tensor], cls_vec: Tensor,
                     prefix: str = "prop") -> Tensor:
    """Graph-level property prediction from the <CLS> readout vector."""
    row = ad.reshape(cls_vec, (1, cls_vec.shape[0]))
    hidden = ad.relu(affine(params, f"{prefix}.h", row))
    out = affine(params, f"{prefix}.o", hidden)
    return ad.reshape(out, (out.shape[1],))


def pretrain_losses(cfg: EncoderConfig, params: dict[str, Tensor],
                    sample: MaskedGraphSample, graph_targets: np.ndarray | None = None,
                    enc_prefix: str = "enc", rec_prefix: str = "rec",
                    prop_prefix: str = "prop") -> tuple[Tensor, Tensor, Tensor]:
    """Recovery losses on a corrupted graph: (node_loss, edge_loss, graph_loss).

    The corrupted graph is encoded behind a prepended <CLS> token. Node and
    edge cross-entropies are taken at the corrupted positions only;
    graph_loss is the property head's MAE against graph_targets, or a
    constant zero when no targets are given.
    """
    if not sample.node_targets and not sample.edge_targets:
        raise ContractError("pretrain_losses: sample has no masked position")
    h = encode(cfg, params, prepend_token(sample.graph, TOK_CLS, VIRTUAL),
               prefix=enc_prefix)
    zero = Tensor(0.0)
    node_loss = zero
    if sample.node_targets:
        positions = sorted(sample.node_targets)
        rows = h[np.asarray(positions) + 1]
        logits = affine(params, f"{rec_prefix}.fl", rows)
        node_loss = cross_entropy_mean(
            logits, np.array([sample.node_targets[i] for i in positions]))
    edge_loss = zero
    if sample.edge_targets:
        pairs = sorted(sample.edge_targets)
        reduced = affine(params, f"{rec_prefix}.fp", h)
        lo = ad.embedding_gather(reduced, np.array([i + 1 for i, _ in pairs]))
        hi = ad.embedding_gather(reduced, np.array([j + 1 for _, j in pairs]))
        pair_logits = affine(params, f"{rec_prefix}.fe2",
                             ad.relu(affine(params, f"{rec_prefix}.fe1",
                                            ad.concat([lo, hi], axis=1))))
        classes = np.array([edge_class_of_type(sample.edge_targets[p]) for p in pairs])
        edge_loss = cross_entropy_mean(pair_logits, classes)
    graph_loss = zero
    if graph_targets is not None:
        preds = property_forward(params, readout_cls(h), prefix=prop_prefix)
        graph_loss = l1_mean(preds, np.asarray(graph_targets, dtype=np.float64))
    return node_loss, edge_loss, graph_loss
