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
VIRTUAL from <G> positions to the nodes they may attend. _layout is the one
definition of tokens, edge matrix and mask. Training lays out a mini-batch
of targets with one call, their labels and edges padded to the largest
target (decode_batch). Between attention calls the batch holds only each
target's 2k+1 real positions, packed back to back; only the attention op
sees the padded grid, where every position after a target's final <G> is
masked.

Generation runs the same equivalence the other way. Node positions never
attend to <G> and the mask is causal, so a node's per-layer states are final
once its label and edges are chosen. Beam search (greedy decoding is width 1)
caches each hypothesis's per-layer node keys and values and decodes only the
pending rows of all live hypotheses per step, in one batched pass.
One search serves R requests at once (generate_beams; generate_beam is its
batch of one): the live set holds the hypotheses of every request, which all
start together and so share a node count. In self-attention each hypothesis
is one sequence of the batch axis; in cross-attention each request is one,
its hypotheses' pending rows attending to its own packed encoder rows; a
finished request stays a sequence there, with no query rows. The live set is
a handful of arrays over hypotheses (labels, edges, scores, node cache),
grouped by request, that survivors index by parent, and one count of live
hypotheses per request. Ranking is per request, and ties break in creation
order, kept by stable sorts rather than by numbering the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapacityError, ContractError, is_int, require
from .graph import (Graph, NO_BOND, SELF, VIRTUAL, N_RESERVED_EDGES, N_RESERVED_LABELS,
                    TOK_EOG, TOK_G, pad_graphs)
from .nn import affine, init_affine, init_embedding, init_layer_norm, positional_encoding
from .attention import (init_conditioner, edge_gamma_beta, multi_head_film_attention,
                        feed_forward, project_keys_values)


@dataclass(frozen=True)
class DecoderConfig:
    """Mirror of the encoder configuration plus the generation-head widths.

    pair_width is the reduced per-node width fed pairwise into the edge head.
    The decoder always adds the positional encoding: it imposes the canonical
    node order on the output sequence. max_context counts sequence positions
    (2k+1 for a k-node graph).
    """

    layers: int = 2
    heads: int = 4
    width: int = 64
    ff_width: int = 128
    cond_hidden: int = 16
    pair_width: int = 32
    fe_hidden: int = 64
    max_context: int = 129

    def __post_init__(self):
        for name in ("layers", "heads", "width", "ff_width", "cond_hidden",
                     "pair_width", "fe_hidden", "max_context"):
            value = getattr(self, name)
            require(is_int(value) and value >= 1, f"DecoderConfig.{name}", "an integer >= 1",
                    value)
        if self.width % self.heads:
            raise ContractError(f"width {self.width} not divisible by heads {self.heads}")


# ---------------------------------------------------------------------------
# edge-class space of the edge head: class 0 predicts "no edge", classes
# 1..R map onto the R real edge types of the vocabulary


def n_edge_classes(n_edge_types: int) -> int:
    return n_edge_types - N_RESERVED_EDGES + 1


def edge_class_of_type(edge_ids):
    """The class of an edge type, elementwise over an array of types; the
    reserved types other than NO_BOND have none."""
    edge_ids = np.asarray(edge_ids)
    reserved = edge_ids[(edge_ids != NO_BOND) & (edge_ids < N_RESERVED_EDGES)]
    if reserved.size:
        raise ContractError(f"edge type {reserved[0]} is reserved and has no prediction class")
    return np.where(edge_ids == NO_BOND, 0, edge_ids - N_RESERVED_EDGES + 1)


def edge_type_of_class(cls):
    """The edge type of a class, elementwise over an array of classes."""
    return np.where(cls == 0, NO_BOND, N_RESERVED_EDGES + cls - 1)


@dataclass
class DecoderBatch:
    """A k-node target graph and its teacher-forcing targets.

    node_targets holds the label each of the k+1 <G> steps predicts: the
    target's labels, then <EOG>. pair_steps/pair_nodes index the h' and h
    stacks for every edge decision (step i, earlier node j), ordered by step
    then node. The first k(k-1)/2 pairs (steps 1..k) carry the training
    targets pair_target_classes. The trailing k pairs belong to the final
    <EOG> step and have no target; they are its edge predictions against
    every node, which prefix comparisons with a longer target read.
    """

    target: Graph
    node_targets: np.ndarray
    pair_steps: np.ndarray
    pair_nodes: np.ndarray
    pair_target_classes: np.ndarray

    @property
    def k(self) -> int:
        return self.target.n


def _layout(labels: np.ndarray, edges: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokens (B, 2k+1), edge matrices and masking matrices (B, 2k+1, 2k+1)
    of the interleaved sequences of B k-node graphs, given their labels
    (B, k) and edges (B, k, k); the one definition of the Fig. 1 layout."""
    n_graphs, k = labels.shape
    length = 2 * k + 1
    diagonal = np.arange(length)
    tokens = np.full((n_graphs, length), TOK_G, dtype=np.int64)
    tokens[:, 1::2] = labels
    edge_matrix = np.full((n_graphs, length, length), VIRTUAL, dtype=np.int64)
    edge_matrix[:, 1::2, 1::2] = edges
    edge_matrix[:, diagonal, diagonal] = SELF

    # strictly earlier positions, never across a NO_BOND pair (<G> rows carry
    # VIRTUAL, so they see every earlier node) and never a <G> column; plus self
    mask = (edge_matrix != NO_BOND) & np.tri(length, k=-1, dtype=bool)
    mask[:, :, ::2] = False
    mask[:, diagonal, diagonal] = True
    return tokens, edge_matrix, mask


def build_decoder_batch(target: Graph) -> DecoderBatch:
    """The target with its node and edge-class targets, in Fig. 1 order."""
    for lab in target.labels:
        if lab < N_RESERVED_LABELS:
            raise ContractError(f"target graph contains reserved label id {lab}")
    k = target.n
    steps, nodes = np.tril_indices(k + 1, -1)
    scored = k * (k - 1) // 2
    return DecoderBatch(
        target=target,
        node_targets=np.array(target.labels + (TOK_EOG,), dtype=np.int64),
        pair_steps=steps,
        pair_nodes=nodes,
        pair_target_classes=edge_class_of_type(target.edges[steps[:scored], nodes[:scored]]),
    )


def init_decoder_params(cfg: DecoderConfig, n_labels: int, n_edge_types: int,
                        rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    init_embedding(params, "dec.embed", rng, n_labels, cfg.width)
    init_conditioner(params, "dec.cond", rng, n_edge_types, cfg.cond_hidden, cfg.layers)
    for i in range(cfg.layers):
        base = f"dec.l{i}"
        for proj in ("q", "k", "v", "o"):
            init_affine(params, f"{base}.self.{proj}", rng, cfg.width, cfg.width)
            init_affine(params, f"{base}.cross.{proj}", rng, cfg.width, cfg.width)
        for ln in ("ln1", "ln2", "ln3"):
            init_layer_norm(params, f"{base}.{ln}", cfg.width)
        init_affine(params, f"{base}.ff1", rng, cfg.width, cfg.ff_width)
        init_affine(params, f"{base}.ff2", rng, cfg.ff_width, cfg.width)
    init_affine(params, "dec.fl", rng, cfg.width, n_labels)
    init_affine(params, "dec.fp", rng, cfg.width, cfg.pair_width)
    init_affine(params, "dec.fe1", rng, 2 * cfg.pair_width, cfg.fe_hidden)
    init_affine(params, "dec.fe2", rng, cfg.fe_hidden, n_edge_classes(n_edge_types))
    return params


def _cross_keys_values(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor
                       ) -> list[tuple[Tensor, Tensor]]:
    """Each layer's cross-attention keys and values: the encoder output is
    fixed for a whole pass or generation request, so it is projected once."""
    if encoder_h.shape[1] != cfg.width:
        raise ContractError(
            f"encoder width {encoder_h.shape[1]} != decoder width {cfg.width}")
    return [project_keys_values(params, f"dec.l{i}.cross", encoder_h)
            for i in range(cfg.layers)]


def _layers(cfg: DecoderConfig, params: dict[str, Tensor], cross_kv: list[tuple[Tensor, Tensor]],
            x: Tensor, edge_matrix: np.ndarray, mask: np.ndarray,
            sizes: tuple[list[int], list[int]], cross_sizes: tuple[list[int], list[int]],
            cached: list[np.ndarray] | None = None) -> tuple[Tensor, list[np.ndarray]]:
    """The decoder stack over the input rows x; returns the output rows and,
    with cached, each layer's self-attention keys and values of those rows
    (2L arrays). cross_kv is _cross_keys_values's output.

    x holds B sequences' rows packed back to back, and edge_matrix and mask
    are (B, rows, keys), one grid per sequence: in self-attention, sequence
    b's sizes[0][b] rows attend only to its own sizes[1][b] keys
    (ad.multi_head_attention). Without cached, the keys are the sequence's
    own rows. With cached (per layer, the keys then the values of c earlier
    rows, (B, c, width) arrays), every sequence has the same row count and
    sequence b's keys are its c cached rows, then its own rows; the cached
    rows carry no gradient, so that path is for inference only.

    Cross-attention runs per sequence of cross_sizes, (query rows of x,
    encoder rows of cross_kv) each, both packed.
    """
    gammas, betas = edge_gamma_beta(params, "dec.cond", edge_matrix, cfg.layers)
    projected = []
    for i in range(cfg.layers):
        base = f"dec.l{i}"
        kv = None
        if cached is not None:
            new = [t.data for t in project_keys_values(params, f"{base}.self", x)]
            projected += new
            groups, _, width = cached[2 * i].shape
            kv = tuple(Tensor(np.concatenate([old, rows.reshape(groups, -1, width)], axis=1)
                              .reshape(-1, width)) for old, rows in zip(cached[2 * i:], new))
        attn, _ = multi_head_film_attention(cfg, params, f"{base}.self", x, gammas[i], betas[i],
                                            mask, kv=kv, sizes=sizes)
        x = ad.layer_norm(x, params[f"{base}.ln1.g"], params[f"{base}.ln1.b"], residual=attn)
        cross, _ = multi_head_film_attention(cfg, params, f"{base}.cross", x, kv=cross_kv[i],
                                             sizes=cross_sizes)
        x = ad.layer_norm(x, params[f"{base}.ln2.g"], params[f"{base}.ln2.b"], residual=cross)
        ff = feed_forward(params, base, x)
        x = ad.layer_norm(x, params[f"{base}.ln3.g"], params[f"{base}.ln3.b"], residual=ff)
    return x, projected


def _edge_logits(params: dict[str, Tensor], p_steps: Tensor, p_nodes: Tensor) -> Tensor:
    """Edge head over aligned rows of step and node dec.fp projections."""
    hidden = ad.tanh(affine(params, "dec.fe1", ad.concat([p_steps, p_nodes], axis=1)))
    return affine(params, "dec.fe2", hidden)


def _check_encoder_sizes(encoder_h: Tensor, encoder_sizes, count: int):
    """encoder_h must pack count graphs of encoder_sizes rows, each at least one."""
    sizes = np.asarray(encoder_sizes)
    if not count or len(sizes) != count or sizes.min() < 1 or sizes.sum() != encoder_h.shape[0]:
        raise ContractError(f"encoder sizes {list(encoder_sizes)} do not pack "
                            f"{encoder_h.shape[0]} encoder rows of {count} graphs")


def decode_batch(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor,
                 encoder_sizes: list[int], batches: list[DecoderBatch]) -> tuple[Tensor, Tensor]:
    """One teacher-forced pass over B targets at once; returns (node_logits,
    edge_logits), graph by graph in batch order.

    encoder_h holds the B encoded graphs' rows packed back to back
    (encode_batch's output), encoder_sizes[b] rows for graph b, which are
    all that graph b's cross-attention sees. The targets are laid out
    together (_layout over pad_graphs), and each target's 2k+1 positions are
    packed back to back as well: only the attention op sees the padded
    grid, with padding masked, so a graph's logits do not depend on the
    rest of the batch. Per graph, node_logits has one row per <G> step (k+1
    rows) and edge_logits one row per pair, aligned with its
    pair_steps/pair_nodes.
    """
    n_graphs = len(batches)
    _check_encoder_sizes(encoder_h, encoder_sizes, n_graphs)
    lengths = [2 * b.k + 1 for b in batches]
    if max(lengths) > cfg.max_context:
        raise CapacityError(f"decoder sequence length {max(lengths)} exceeds {cfg.max_context}")
    tokens, edge_matrix, mask = _layout(*pad_graphs([b.target for b in batches]))
    starts, real = ad.packed_rows(lengths)
    tokens = tokens[real]
    x = params["dec.embed"][tokens]
    x = ad.add(x, Tensor(positional_encoding(real.shape[1], cfg.width)[np.nonzero(real)[1]]))
    x, _ = _layers(cfg, params, _cross_keys_values(cfg, params, encoder_h), x,
                   edge_matrix, mask, (lengths, lengths), (lengths, encoder_sizes))

    gen_rows = np.flatnonzero(tokens == TOK_G)      # the <G> positions, in order
    node_logits = affine(params, "dec.fl", x[gen_rows])
    # h'_i sits at position 2i, h_j at 2j+1 (1-based node j at 2j-1)
    p_rows = affine(params, "dec.fp", x)
    step_rows = np.concatenate([s + 2 * b.pair_steps for s, b in zip(starts, batches)])
    node_rows = np.concatenate([s + 2 * b.pair_nodes + 1 for s, b in zip(starts, batches)])
    edge_logits = _edge_logits(params, p_rows[step_rows], p_rows[node_rows])
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


def _extend_edges(edges: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Grow B edge matrices (B, n, n) by one node whose edge classes against
    nodes 1..n are classes (B, n); class 0 is NO_BOND."""
    n_graphs, n = classes.shape
    grown = np.full((n_graphs, n + 1, n + 1), SELF, dtype=np.int64)
    grown[:, :n, :n] = edges
    grown[:, n, :n] = grown[:, :n, n] = edge_type_of_class(classes)
    return grown


def _check_max_nodes(cfg: DecoderConfig, max_nodes: int):
    """A max_nodes-node prefix decodes 2*max_nodes+1 positions; reject a cap
    the decoder context cannot hold before any decoding starts."""
    if max_nodes < 1:
        raise ContractError("max_nodes must be >= 1")
    if 2 * max_nodes + 1 > cfg.max_context:
        raise CapacityError(f"max_nodes {max_nodes} needs {2 * max_nodes + 1} decoder "
                            f"positions, context limit is {cfg.max_context}")


def _step(cfg: DecoderConfig, params: dict[str, Tensor], cross_kv: list[tuple[Tensor, Tensor]],
          labels: np.ndarray, edges: np.ndarray, cache: list[np.ndarray],
          counts: list[int], key_sizes: list[int]
          ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Decode the pending rows of h live hypotheses of m nodes in one pass.

    labels (h, m) and edges (h, m, m) hold the prefixes. cache holds, per
    layer, the self-attention keys and then the values of nodes 1..m-1
    (h, m-1, width), then their final dec.fp projections; node m is
    pending. Each hypothesis is one sequence of the self-attention batch:
    its pending rows, node m and the next <G>, attend to its cached node
    keys, then its own pending rows. Hypotheses are grouped by request,
    counts[r] of them for request r, and each request is one sequence of
    cross-attention: its hypotheses' pending rows attend to its own
    key_sizes[r] encoder rows, packed in request order in cross_kv; a
    finished request has no hypotheses, so no rows attend to its encoder
    rows. Returns the next label's log-probs (h, labels), the edge-class
    log-probs against nodes 1..m (h, m, classes), and the cache extended by
    node m.
    """
    n_hyp, m = labels.shape
    pos = np.arange(max(2 * m - 1, 0), 2 * m + 1)      # pending positions
    keys = np.append(np.arange(1, 2 * m, 2), 2 * m)    # node positions, then <G>
    n_pos = len(pos)
    tokens, edge_matrix, mask = _layout(labels, edges)
    grid = (slice(None), pos[:, None], keys)
    x = params["dec.embed"][tokens[:, pos].reshape(-1)]
    x = ad.add(x, Tensor(np.tile(positional_encoding(2 * m + 1, cfg.width)[pos], (n_hyp, 1))))
    x, projected = _layers(cfg, params, cross_kv, x, edge_matrix[grid], mask[grid],
                           ([n_pos] * n_hyp, [len(keys)] * n_hyp),
                           ([count * n_pos for count in counts], key_sizes), cache[:-1])
    label_lp = ad.log_softmax_rows(affine(params, "dec.fl", x[n_pos - 1::n_pos])).data
    if m == 0:
        return label_lp, np.zeros((n_hyp, 0, 0)), cache
    p_rows = affine(params, "dec.fp", x).data.reshape(n_hyp, n_pos, -1)
    p_nodes = np.concatenate([cache[-1], p_rows[:, :1]], axis=1)
    edge_logits = _edge_logits(params, Tensor(np.repeat(p_rows[:, 1], m, axis=0)),
                               Tensor(p_nodes.reshape(n_hyp * m, -1)))
    edge_lp = ad.log_softmax_rows(edge_logits).data.reshape(n_hyp, m, -1)
    # node m's keys and values, per layer
    return label_lp, edge_lp, [np.concatenate([rows, new[::n_pos, None]], axis=1)
                               for rows, new in zip(cache, projected)] + [p_nodes]


def _edge_config_beam(edge_lp: np.ndarray, width: int
                      ) -> list[list[tuple[tuple[int, ...], float]]]:
    """Per hypothesis of edge_lp (hypotheses, rows, classes), the top
    configurations of one class per row, beam-pruned at each row.

    Rows are independent given the prefix, so the best configuration is the
    per-row argmax. Each row expands every kept configuration by every class
    in (configuration, class) order; stable sorting keeps that order on ties.
    """
    n_hyp, n_rows, n_classes = edge_lp.shape
    hyp = np.arange(n_hyp)[:, None]
    scores, classes = np.zeros((n_hyp, 1)), np.zeros((n_hyp, 1, n_rows), dtype=np.int64)
    for r in range(n_rows):
        expanded = (scores[:, :, None] + edge_lp[:, None, r]).reshape(n_hyp, -1)
        keep = np.argsort(-expanded, axis=1, kind="stable")[:, :width]
        parent, c = np.divmod(keep, n_classes)
        scores, classes = expanded[hyp, keep], classes[hyp, parent]
        classes[:, :, r] = c
    return [list(zip(map(tuple, cls), s)) for cls, s in zip(classes.tolist(), scores.tolist())]


def generate_beams(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor,
                   encoder_sizes: list[int], width: int, max_nodes: int
                   ) -> list[list[GeneratedGraph]]:
    """R independent beam searches over joint (label, edge-classes) steps,
    run as one live set; width 1 is greedy. Returns each request's graphs,
    best first.

    encoder_h holds the R encoded sources' rows packed back to back
    (encode_batch's output), encoder_sizes[r] rows for source r, which are
    all that request r's cross-attention sees.

    Hypothesis scores accumulate the label log-probability plus every chosen
    edge-class log-probability. Pruning at each step ranks a request's
    candidates by the score up to and including the label choice; the
    current step's edge-class scores join the hypothesis immediately after
    selection. Only real labels and <EOG> can be selected, so every returned
    graph passes validation.

    Ties break in creation order: by parent, then label id (<EOG> is id 1,
    before every real label), then edge configuration in _edge_config_beam's
    order, which follows class index order, matching argmax. The candidates
    of one (parent, label) pair share their ranking score, so one stable
    argsort over a request's (parent, label) scores, whose groups are then
    expanded into their configurations until width candidates are picked,
    gives that order without numbering the candidates. Finished graphs are
    kept in the order picked, so a stable sort by score keeps it too.

    The live set is held as arrays over the hypotheses of all requests,
    grouped by request: labels (h, m), edges (h, m, m), scores (h,) and
    _step's per-layer node cache; a surviving child takes its parent's row
    of each (a[parents]). counts holds each request's number of live
    hypotheses, 0 once it has no survivors; its encoder rows stay in
    cross-attention with no query rows. All requests start together, so
    every live hypothesis has m nodes. Each step decodes only the pending
    rows of all live hypotheses, in one batched pass (_step): a node's
    per-layer states are final once it is chosen, since node positions
    never attend to <G> and the mask is causal. Ranking, the room left in
    the beam and the finished graphs are per request.
    """
    if width < 1:
        raise ContractError("beam width must be >= 1")
    _check_max_nodes(cfg, max_nodes)
    n_req = len(encoder_sizes)
    _check_encoder_sizes(encoder_h, encoder_sizes, n_req)
    allowed = _allowed_labels(params["dec.embed"].shape[0])
    choices = np.flatnonzero(allowed)           # <EOG> first, then the real labels
    counts = [1] * n_req
    labels = np.zeros((n_req, 0), dtype=np.int64)
    edges = np.zeros((n_req, 0, 0), dtype=np.int64)
    scores = np.zeros(n_req)
    cache = ([np.zeros((n_req, 0, cfg.width))] * (2 * cfg.layers)
             + [np.zeros((n_req, 0, cfg.pair_width))])
    finished: list[list[GeneratedGraph]] = [[] for _ in range(n_req)]
    with ad.no_grad():
        cross_kv = _cross_keys_values(cfg, params, encoder_h)
        while True:
            label_lp, edge_lp, cache = _step(cfg, params, cross_kv, labels, edges, cache,
                                             counts, encoder_sizes)
            full = labels.shape[1] == max_nodes
            ids = choices[:1] if full else choices
            configs = [] if full else _edge_config_beam(edge_lp, width)
            selection = scores[:, None] + label_lp[:, ids]
            survivors = []   # (parent, label, edge classes, score), grouped by request
            lo = 0
            for r, count in enumerate(counts):
                first = len(survivors)
                room = width
                for flat in np.argsort(-selection[lo:lo + count], axis=None,
                                       kind="stable").tolist():
                    h, j = divmod(flat, len(ids))
                    h += lo
                    if ids[j] == TOK_EOG:
                        truncated = full and _argmax_allowed(label_lp[h], allowed) != TOK_EOG
                        finished[r].append(GeneratedGraph(Graph(labels[h], edges[h]),
                                                          score=selection[h, j],
                                                          truncated=truncated))
                        room -= 1
                    else:
                        picked = configs[h][:room]
                        survivors += [(h, ids[j], classes, selection[h, j] + config_score)
                                      for classes, config_score in picked]
                        room -= len(picked)
                    if not room:
                        break
                lo += count
                counts[r] = len(survivors) - first
            if not survivors:
                break
            parents, new_labels, classes, new_scores = zip(*survivors)
            parents = np.array(parents)
            labels = np.column_stack([labels[parents], new_labels])
            edges = _extend_edges(edges[parents], np.array(classes, dtype=np.int64))
            scores = np.array(new_scores)
            cache = [rows[parents] for rows in cache]
    for results in finished:
        results.sort(key=lambda result: -result.score)
    return [results[:width] for results in finished]


def generate_beam(cfg: DecoderConfig, params: dict[str, Tensor], encoder_h: Tensor,
                  width: int, max_nodes: int) -> list[GeneratedGraph]:
    """Beam search for one request (generate_beams of one); width 1 is greedy."""
    return generate_beams(cfg, params, encoder_h, [encoder_h.shape[0]], width, max_nodes)[0]
