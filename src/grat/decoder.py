"""Two-path autoregressive graph decoder.

A k-node target graph is laid out as one interleaved sequence of length 2k+1:

    pos 0    1    2    3    ...  2k-1  2k
        <G>  n1   <G>  n2   ...  nk    <G>

Generation steps are 1-based: step i reads its trigger token <G> at position
2(i-1) and predicts node i's label plus one edge class per earlier node.
Node tokens form the sub-graph encoding path (their representations h_j are
what later steps attend to); <G> tokens form the generation path (their
representations h'_i are read once and discarded).

The masking matrix makes a single teacher-forced pass equivalent to running
the steps sequentially:
  - strictly-future positions are blocked (causal),
  - node positions never attend to any <G> position,
  - a <G> position attends to itself and all earlier node positions only,
  - node pairs whose target edge is NO_BOND are blocked (the decoder has no
    usable no-bond type; disconnected nodes must not attend to each other).

The edge matrix feeds the same FiLM conditioner as the encoder: SELF on the
diagonal, the target graph's types between node positions (teacher forcing),
VIRTUAL from <G> positions to the nodes they may attend.

Generation runs the same equivalence the other way. Node positions never
attend to <G> and the mask is causal, so a node's per-layer states are final
once its label and edges are chosen. Beam search (greedy decoding is width 1)
caches each hypothesis's node rows and decodes only the pending rows of all
live hypotheses per step, in one batched pass, in the spirit of KV caching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapacityError, ContractError
from .graph import (Graph, NO_BOND, SELF, VIRTUAL, N_RESERVED_EDGES, N_RESERVED_LABELS,
                    TOK_EOG, TOK_G)
from .nn import affine, init_affine, init_embedding, init_layer_norm, positional_encoding
from .attention import (init_conditioner, edge_gamma_beta, multi_head_film_attention,
                        feed_forward)


@dataclass(frozen=True)
class DecoderConfig:
    """Mirror of the encoder configuration plus the generation-head widths.

    pair_width is the reduced per-node width fed pairwise into the edge head.
    Positional encoding defaults on: it imposes the canonical node order on
    the output sequence. max_context counts sequence positions (2k+1 for a
    k-node graph).
    """

    layers: int = 2
    heads: int = 4
    width: int = 64
    ff_width: int = 128
    cond_hidden: int = 16
    pair_width: int = 32
    fe_hidden: int = 64
    fe_activation: str = "tanh"  # saturating units pick up pairwise structure
    use_positional_encoding: bool = True
    max_context: int = 129

    def __post_init__(self):
        for name in ("layers", "heads", "width", "ff_width", "cond_hidden",
                     "pair_width", "fe_hidden", "max_context"):
            if getattr(self, name) <= 0:
                raise ContractError(f"DecoderConfig.{name} must be positive")
        if self.width % self.heads:
            raise ContractError(f"width {self.width} not divisible by heads {self.heads}")
        if self.fe_activation not in ("tanh", "relu"):
            raise ContractError(f"fe_activation must be 'tanh' or 'relu'")

    @property
    def head_width(self) -> int:
        return self.width // self.heads


# ---------------------------------------------------------------------------
# edge-class space of the edge head: class 0 predicts "no edge", classes
# 1..R map onto the R real edge types of the vocabulary


def n_edge_classes(n_edge_types: int) -> int:
    return n_edge_types - N_RESERVED_EDGES + 1


def edge_class_of_type(edge_id: int) -> int:
    if edge_id == NO_BOND:
        return 0
    if edge_id < N_RESERVED_EDGES:
        raise ContractError(f"edge type {edge_id} is reserved and has no prediction class")
    return edge_id - N_RESERVED_EDGES + 1


def edge_type_of_class(cls: int) -> int:
    return NO_BOND if cls == 0 else N_RESERVED_EDGES + cls - 1


@dataclass
class DecoderBatch:
    """Teacher-forced layout for one target graph (k nodes, 2k+1 positions).

    pair_steps/pair_nodes index the h' and h stacks for every edge decision
    (step i, earlier node j), ordered by step then node; the first
    k(k-1)/2 pairs (steps 1..k) carry training targets, the trailing pairs
    belong to the final <EOG> step and exist for generation only.
    """

    k: int
    tokens: np.ndarray
    edge_matrix: np.ndarray
    mask: np.ndarray
    node_targets: np.ndarray
    pair_steps: np.ndarray
    pair_nodes: np.ndarray
    pair_target_classes: np.ndarray

    @property
    def n_target_pairs(self) -> int:
        return len(self.pair_target_classes)


def _layout(labels: tuple[int, ...], edges: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokens, edge matrix and masking matrix of the interleaved sequence of a
    k-node graph; the one definition of the Fig. 1 layout."""
    k = len(labels)
    length = 2 * k + 1
    tokens = np.full(length, TOK_G, dtype=np.int64)
    if k:
        tokens[1::2] = labels

    edge_matrix = np.full((length, length), VIRTUAL, dtype=np.int64)
    if k:
        node_pos = np.arange(1, 2 * k, 2)
        edge_matrix[np.ix_(node_pos, node_pos)] = edges
    np.fill_diagonal(edge_matrix, SELF)

    # strictly earlier positions, never across a NO_BOND pair (<G> rows carry
    # VIRTUAL, so they see every earlier node) and never a <G> column; plus self
    mask = (edge_matrix != NO_BOND) & np.tri(length, k=-1, dtype=bool)
    mask[:, ::2] = False
    np.fill_diagonal(mask, True)
    return tokens, edge_matrix, mask


def build_decoder_batch(target: Graph) -> DecoderBatch:
    """Interleaved tokens, edge matrix, masking matrix, and targets (Fig. 1 layout)."""
    k = target.n
    for lab in target.labels:
        if lab < N_RESERVED_LABELS:
            raise ContractError(f"target graph contains reserved label id {lab}")
    tokens, edge_matrix, mask = _layout(target.labels, target.edges)
    node_targets = np.concatenate([np.asarray(target.labels, dtype=np.int64),
                                   np.array([TOK_EOG], dtype=np.int64)])
    steps, nodes, classes = [], [], []
    for i in range(1, k + 2):
        for j in range(1, i):
            steps.append(i - 1)
            nodes.append(j - 1)
            if i <= k:
                classes.append(edge_class_of_type(int(target.edges[i - 1, j - 1])))
    return DecoderBatch(
        k=k,
        tokens=tokens,
        edge_matrix=edge_matrix,
        mask=mask,
        node_targets=node_targets,
        pair_steps=np.asarray(steps, dtype=np.int64),
        pair_nodes=np.asarray(nodes, dtype=np.int64),
        pair_target_classes=np.asarray(classes, dtype=np.int64),
    )


def init_decoder_params(cfg: DecoderConfig, n_labels: int, n_edge_types: int,
                        rng: np.random.Generator, prefix: str = "dec") -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    init_embedding(params, f"{prefix}.embed", rng, n_labels, cfg.width)
    init_conditioner(params, f"{prefix}.cond", rng, n_edge_types, cfg.cond_hidden, cfg.layers)
    for i in range(cfg.layers):
        base = f"{prefix}.l{i}"
        for proj in ("q", "k", "v", "o"):
            init_affine(params, f"{base}.self.{proj}", rng, cfg.width, cfg.width)
            init_affine(params, f"{base}.cross.{proj}", rng, cfg.width, cfg.width)
        for ln in ("ln1", "ln2", "ln3"):
            init_layer_norm(params, f"{base}.{ln}", cfg.width)
        init_affine(params, f"{base}.ff1", rng, cfg.width, cfg.ff_width)
        init_affine(params, f"{base}.ff2", rng, cfg.ff_width, cfg.width)
    init_affine(params, f"{prefix}.fl", rng, cfg.width, n_labels)
    init_affine(params, f"{prefix}.fp", rng, cfg.width, cfg.pair_width)
    init_affine(params, f"{prefix}.fe1", rng, 2 * cfg.pair_width, cfg.fe_hidden)
    init_affine(params, f"{prefix}.fe2", rng, cfg.fe_hidden, n_edge_classes(n_edge_types))
    return params


def _layers(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor, x: Tensor,
            edge_matrix: np.ndarray, mask: np.ndarray, prefix: str,
            cached: list[np.ndarray] | None = None) -> tuple[Tensor, list[Tensor]]:
    """The decoder stack over the input rows x; returns the output rows and
    each layer's input rows.

    Self-attention keys and values come from x itself. With cached (per
    layer, an (h, c, width) array: c constant rows for each of h equal groups
    of x's rows), the key set is, group by group, its cached rows then its own
    rows of x; edge_matrix and mask then have one column per key. The cached
    rows carry no gradient, so that path is for inference only.
    """
    if encoder_h.shape[1] != cfg.width:
        raise ContractError(
            f"encoder width {encoder_h.shape[1]} != decoder width {cfg.width}")
    gammas, betas = edge_gamma_beta(params, f"{prefix}.cond", edge_matrix, cfg.layers)
    inputs = []
    for i in range(cfg.layers):
        base = f"{prefix}.l{i}"
        inputs.append(x)
        keys = None
        if cached is not None:
            groups, _, width = cached[i].shape
            keys = Tensor(np.concatenate([cached[i], x.data.reshape(groups, -1, width)],
                                         axis=1).reshape(-1, width))
        attn, _ = multi_head_film_attention(cfg, params, f"{base}.self", x,
                                            gammas[i], betas[i], mask, memory=keys)
        x = ad.layer_norm(ad.add(x, attn), params[f"{base}.ln1.g"], params[f"{base}.ln1.b"])
        cross, _ = multi_head_film_attention(cfg, params, f"{base}.cross", x,
                                             memory=encoder_h)
        x = ad.layer_norm(ad.add(x, cross), params[f"{base}.ln2.g"], params[f"{base}.ln2.b"])
        ff = feed_forward(params, base, x)
        x = ad.layer_norm(ad.add(x, ff), params[f"{base}.ln3.g"], params[f"{base}.ln3.b"])
    return x, inputs


def _edge_logits(cfg: DecoderConfig, params: dict[str, Tensor], prefix: str,
                 p_steps: Tensor, p_nodes: Tensor) -> Tensor:
    """Edge head over aligned rows of step and node dec.fp projections."""
    act = ad.tanh if cfg.fe_activation == "tanh" else ad.relu
    hidden = act(affine(params, f"{prefix}.fe1", ad.concat([p_steps, p_nodes], axis=1)))
    return affine(params, f"{prefix}.fe2", hidden)


def decode_forward(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor,
                   batch: DecoderBatch, prefix: str = "dec",
                   input_offsets: np.ndarray | None = None
                   ) -> tuple[Tensor, Tensor]:
    """One teacher-forced pass; returns (node_logits, edge_logits).

    node_logits has one row per <G> step (k+1 rows); edge_logits has one row
    per batch pair, aligned with batch.pair_steps/pair_nodes. input_offsets,
    when given, is added to the embedded input sequence (a diagnostic hook
    for position-targeted perturbation tests).
    """
    length = len(batch.tokens)
    if length > cfg.max_context:
        raise CapacityError(f"decoder sequence length {length} exceeds {cfg.max_context}")
    x = ad.embedding_gather(params[f"{prefix}.embed"], batch.tokens)
    if cfg.use_positional_encoding:
        x = ad.add(x, Tensor(positional_encoding(length, cfg.width)))
    if input_offsets is not None:
        x = ad.add(x, Tensor(input_offsets))
    x, _ = _layers(cfg, params, encoder_h, x, batch.edge_matrix, batch.mask, prefix)

    h_gen = x[np.arange(0, length, 2)]       # h'_i, one per step
    node_logits = affine(params, f"{prefix}.fl", h_gen)
    fe_out_width = params[f"{prefix}.fe2.w"].shape[1]
    if len(batch.pair_steps) == 0:
        return node_logits, Tensor(np.zeros((0, fe_out_width)))
    h_nodes = x[np.arange(1, length, 2)]     # h_j, one per generated node
    p_gen = affine(params, f"{prefix}.fp", h_gen)
    p_nodes = affine(params, f"{prefix}.fp", h_nodes)
    edge_logits = _edge_logits(cfg, params, prefix,
                               ad.embedding_gather(p_gen, batch.pair_steps),
                               ad.embedding_gather(p_nodes, batch.pair_nodes))
    return node_logits, edge_logits


# ---------------------------------------------------------------------------
# generation


@dataclass
class GeneratedGraph:
    """Decoded graph plus its cumulative log-probability.

    truncated marks generation that hit max_nodes while the model still
    preferred to grow; its score includes the <EOG> log-probability it was
    forced to take, keeping scores comparable across hypotheses.
    """

    graph: Graph
    score: float
    truncated: bool = False


def _allowed_labels(n_labels: int) -> np.ndarray:
    allowed = np.zeros(n_labels, dtype=bool)
    allowed[TOK_EOG] = True
    allowed[N_RESERVED_LABELS:] = True
    return allowed


def _argmax_allowed(log_probs: np.ndarray, allowed: np.ndarray) -> int:
    masked = np.where(allowed, log_probs, -np.inf)
    return int(np.argmax(masked))


def _extend_edges(edges: np.ndarray, new_types: list[int]) -> np.ndarray:
    n = edges.shape[0]
    grown = np.full((n + 1, n + 1), NO_BOND, dtype=np.int64)
    grown[:n, :n] = edges
    grown[n, n] = SELF
    for j, t in enumerate(new_types):
        grown[n, j] = grown[j, n] = t
    return grown


def _check_max_nodes(cfg: DecoderConfig, max_nodes: int):
    """A max_nodes-node prefix decodes 2*max_nodes+1 positions; reject a cap
    the decoder context cannot hold before any decoding starts."""
    if max_nodes < 1:
        raise ContractError("max_nodes must be >= 1")
    if 2 * max_nodes + 1 > cfg.max_context:
        raise CapacityError(f"max_nodes {max_nodes} needs {2 * max_nodes + 1} decoder "
                            f"positions, context limit is {cfg.max_context}")


@dataclass
class _Hypothesis:
    """A live prefix of m nodes. cache holds, per layer, the input rows of
    nodes 1..m-1, then their final dec.fp projections; node m is pending."""

    labels: tuple[int, ...]
    edges: np.ndarray
    score: float
    cache: tuple[np.ndarray, ...]


def _root(cfg: DecoderConfig) -> _Hypothesis:
    empty = tuple(np.zeros((0, cfg.width)) for _ in range(cfg.layers))
    return _Hypothesis((), np.zeros((0, 0), dtype=np.int64), 0.0,
                       empty + (np.zeros((0, cfg.pair_width)),))


def _step(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor,
          live: list[_Hypothesis], prefix: str
          ) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, ...]]]:
    """Decode the pending rows of every live hypothesis in one pass.

    All hypotheses hold m nodes. Their pending rows, node m and the next <G>,
    attend to a block-diagonal key set: per hypothesis its cached node rows,
    then its own pending rows. Returns the next label's log-probs (h, labels),
    the edge-class log-probs against nodes 1..m (h, m, classes), and each
    hypothesis's cache extended by node m.
    """
    m = len(live[0].labels)
    pos = np.arange(max(2 * m - 1, 0), 2 * m + 1)      # pending positions
    keys = np.append(np.arange(1, 2 * m, 2), 2 * m)    # node positions, then <G>
    n_hyp, n_pos, n_keys = len(live), len(pos), len(keys)
    grid = np.ix_(pos, keys)
    tokens = np.empty((n_hyp, n_pos), dtype=np.int64)
    edge_matrix = np.full((n_hyp, n_pos, n_hyp, n_keys), VIRTUAL, dtype=np.int64)
    mask = np.zeros((n_hyp, n_pos, n_hyp, n_keys), dtype=bool)
    for h, hyp in enumerate(live):
        hyp_tokens, hyp_edges, hyp_mask = _layout(hyp.labels, hyp.edges)
        tokens[h] = hyp_tokens[pos]
        edge_matrix[h, :, h] = hyp_edges[grid]
        mask[h, :, h] = hyp_mask[grid]
    x = ad.embedding_gather(params[f"{prefix}.embed"], tokens.reshape(-1))
    if cfg.use_positional_encoding:
        x = ad.add(x, Tensor(np.tile(positional_encoding(2 * m + 1, cfg.width)[pos],
                                     (n_hyp, 1))))
    cached = [np.stack([hyp.cache[i] for hyp in live]) for i in range(cfg.layers)]
    x, inputs = _layers(cfg, params, encoder_h, x, edge_matrix.reshape(n_hyp * n_pos, -1),
                        mask.reshape(n_hyp * n_pos, -1), prefix, cached)
    label_lp = ad.log_softmax_rows(affine(params, f"{prefix}.fl", x[n_pos - 1::n_pos])).data
    if m == 0:
        return label_lp, np.zeros((n_hyp, 0, 0)), [hyp.cache for hyp in live]
    p_rows = affine(params, f"{prefix}.fp", x).data.reshape(n_hyp, n_pos, -1)
    p_nodes = np.concatenate([np.stack([hyp.cache[-1] for hyp in live]), p_rows[:, :1]], axis=1)
    edge_logits = _edge_logits(cfg, params, prefix, Tensor(np.repeat(p_rows[:, 1], m, axis=0)),
                               Tensor(p_nodes.reshape(n_hyp * m, -1)))
    edge_lp = ad.log_softmax_rows(edge_logits).data.reshape(n_hyp, m, -1)
    node_m = [rows.data[::n_pos] for rows in inputs]   # node m's input row, per layer
    caches = [tuple(np.concatenate([hyp.cache[i], node_m[i][h:h + 1]])
                    for i in range(cfg.layers)) + (p_nodes[h],)
              for h, hyp in enumerate(live)]
    return label_lp, edge_lp, caches


def _edge_config_beam(edge_lp: list[list[float]], width: int) -> list[tuple[tuple[int, ...], float]]:
    """Top configurations of one class per row, beam-pruned at each row.

    Rows are independent given the prefix, so the best configuration is the
    per-row argmax; stable sorting keeps class-index order on ties.
    """
    configs: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    for row in edge_lp:
        expanded = [(cfg + (c,), s + row[c]) for cfg, s in configs for c in range(len(row))]
        expanded.sort(key=lambda cs: -cs[1])
        configs = expanded[:width]
    return configs


def generate_beam(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor,
                  width: int, max_nodes: int, prefix: str = "dec") -> list[GeneratedGraph]:
    """Beam search over joint (label, edge-classes) steps; width 1 is greedy.

    Hypothesis scores accumulate the label log-probability plus every chosen
    edge-class log-probability. Pruning at each step ranks candidates by the
    score up to and including the label choice; the current step's edge-class
    scores join the hypothesis immediately after selection. Ties break by
    creation order, which follows label/class index order, matching argmax.
    Only real labels and <EOG> can be selected, so every returned graph
    passes validation.

    Each step decodes only the pending rows of all live hypotheses, in one
    batched pass (_step): a node's per-layer states are final once it is
    chosen, since node positions never attend to <G> and the mask is causal.
    Candidates stay lazy (parent, label, classes) until they survive pruning;
    a surviving child takes its parent's cache, extended by the parent's
    newest node.
    """
    if width < 1:
        raise ContractError("beam width must be >= 1")
    _check_max_nodes(cfg, max_nodes)
    n_labels = params[f"{prefix}.embed"].shape[0]
    allowed = _allowed_labels(n_labels)
    real_labels = [i for i in range(n_labels) if allowed[i] and i != TOK_EOG]
    live = [_root(cfg)]
    finished: list[tuple[float, int, GeneratedGraph]] = []
    counter = 1
    with ad.no_grad():
        while live:
            label_lp, edge_lp, caches = _step(cfg, params, encoder_h, live, prefix)
            # (selection_key, order, parent index, label, edge classes, config score);
            # the <EOG> label finishes its parent
            pool: list[tuple[float, int, int, int, tuple[int, ...], float]] = []
            for h, hyp in enumerate(live):
                pool.append((hyp.score + label_lp[h, TOK_EOG], counter, h, TOK_EOG, (), 0.0))
                counter += 1
                if len(hyp.labels) == max_nodes:
                    continue
                configs = _edge_config_beam(edge_lp[h].tolist(), width)
                for label in real_labels:
                    selection = hyp.score + label_lp[h, label]
                    for classes, config_score in configs:
                        pool.append((selection, counter, h, label, classes, config_score))
                        counter += 1
            pool.sort(key=lambda entry: (-entry[0], entry[1]))
            parents, live = live, []
            for selection, order, h, label, classes, config_score in pool[:width]:
                parent = parents[h]
                if label == TOK_EOG:
                    truncated = (len(parent.labels) == max_nodes
                                 and _argmax_allowed(label_lp[h], allowed) != TOK_EOG)
                    finished.append((selection, order, GeneratedGraph(
                        Graph(parent.labels, parent.edges), score=selection,
                        truncated=truncated)))
                else:
                    live.append(_Hypothesis(
                        parent.labels + (label,),
                        _extend_edges(parent.edges, [edge_type_of_class(c) for c in classes]),
                        selection + config_score, caches[h]))
    finished.sort(key=lambda entry: (-entry[0], entry[1]))
    return [item for _, _, item in finished[:width]]
