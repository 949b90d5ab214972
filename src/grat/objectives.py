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
from .graph import (Graph, MASK_EDGE, TOK_CLS, TOK_MASK, VIRTUAL,
                    N_RESERVED_EDGES, N_RESERVED_LABELS, prepend_token)
from .attention import EncoderConfig, encode_batch, readout_cls
from .attention import encode  # noqa: F401  (an import site perfbench's tracer checks)
from .nn import affine, init_affine


def cross_entropy_mean(logits: Tensor, targets: np.ndarray,
                       weights: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of integer targets under row-wise log-softmax.

    With weights, the weighted sum of the rows' cross-entropies instead: one
    call then scores several groups of rows, each weighted by its share.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[0] != len(targets) or len(targets) == 0:
        raise ContractError(
            f"cross entropy: {logits.shape[0]} logit rows vs {len(targets)} targets")
    picked = np.zeros(logits.shape)
    picked[np.arange(len(targets)), targets] = (
        -1.0 / len(targets) if weights is None else -np.asarray(weights, dtype=np.float64))
    return ad.sum_(ad.mul(ad.log_softmax_rows(logits), Tensor(picked)))


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
    """Evaluation metrics; split names the dataset split they scored, when
    the report comes from a training run ("val", or "train" when the val
    split is empty)."""

    per_task_mae: dict[str, float] = field(default_factory=dict)
    std_mae: float | None = None
    log_mae: float | None = None
    exact_match_rate: float | None = None
    counts: dict[str, int] = field(default_factory=dict)
    split: str | None = None

    def to_dict(self) -> dict:
        return {
            "split": self.split,
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
    corrupted = Graph(labels=tuple(labels), edges=edges, node_features=g.node_features,
                      properties=g.properties)
    return MaskedGraphSample(graph=corrupted, node_targets=node_targets,
                             edge_targets=edge_targets)


def init_recovery_heads(cfg: EncoderConfig, n_labels: int, n_edge_classes: int,
                        rng: np.random.Generator) -> dict[str, Tensor]:
    """Label head plus a pairwise edge head, of fixed widths at every preset."""
    pair_width, hidden = 32, 64
    params: dict[str, Tensor] = {}
    init_affine(params, "rec.fl", rng, cfg.width, n_labels)
    init_affine(params, "rec.fp", rng, cfg.width, pair_width)
    init_affine(params, "rec.fe1", rng, 2 * pair_width, hidden)
    init_affine(params, "rec.fe2", rng, hidden, n_edge_classes)
    return params


def init_property_head(cfg: EncoderConfig, n_tasks: int, rng: np.random.Generator,
                       hidden: int = 64) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    init_affine(params, "prop.h", rng, cfg.width, hidden)
    init_affine(params, "prop.o", rng, hidden, n_tasks)
    return params


def property_forward(params: dict[str, Tensor], cls_rows: Tensor) -> Tensor:
    """Graph-level property predictions (B, tasks) from the <CLS> readout rows (B, d)."""
    hidden = ad.relu(affine(params, "prop.h", cls_rows))
    return affine(params, "prop.o", hidden)


def pretrain_loss(cfg: EncoderConfig, params: dict[str, Tensor],
                  samples: list[MaskedGraphSample],
                  graph_targets: np.ndarray | None = None) -> Tensor:
    """Mean over the corrupted graphs of each one's recovery loss, from one
    encoder pass over the graphs behind a prepended <CLS> token, whose rows
    come back packed (encode_batch): graph b's <CLS> row first, then its
    nodes.

    A graph's loss is its node cross-entropy at the masked nodes plus, when
    it has masked edges, its edge cross-entropy at those pairs, plus, with
    graph_targets (B, tasks), the property head's MAE against its row. Each
    graph's targets are weighted 1/B over their count, as in
    TranslationModel.batch_loss, so the batch loss is the mean of the
    per-graph losses. Every sample needs a masked node, as mask_graph makes.
    """
    if not all(s.node_targets for s in samples):
        raise ContractError("pretrain_loss: a sample has no masked node")
    graphs = [prepend_token(s.graph, TOK_CLS, VIRTUAL) for s in samples]
    sizes = [g.n for g in graphs]
    h = encode_batch(cfg, params, graphs)
    starts, _ = ad.packed_rows(sizes)
    share = 1.0 / len(samples)
    # graph b's node i is row starts[b] + i + 1, behind its <CLS>
    nodes = [(start + i + 1, label, share / len(s.node_targets))
             for start, s in zip(starts, samples) for i, label in sorted(s.node_targets.items())]
    pairs = [(start + i + 1, start + j + 1, edge_class_of_type(t), share / len(s.edge_targets))
             for start, s in zip(starts, samples) for (i, j), t in sorted(s.edge_targets.items())]
    rows, labels, weights = map(np.array, zip(*nodes))
    loss = cross_entropy_mean(affine(params, "rec.fl", h[rows]), labels, weights)
    if pairs:
        lo, hi, classes, weights = map(np.array, zip(*pairs))
        reduced = affine(params, "rec.fp", h)
        pair_rows = ad.concat([reduced[lo], reduced[hi]], axis=1)
        logits = affine(params, "rec.fe2", ad.relu(affine(params, "rec.fe1", pair_rows)))
        loss = ad.add(loss, cross_entropy_mean(logits, classes, weights))
    if graph_targets is not None:
        preds = property_forward(params, readout_cls(h, sizes))
        loss = ad.add(loss, l1_mean(preds, np.asarray(graph_targets, dtype=np.float64)))
    return loss
