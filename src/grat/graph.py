"""Graph data model: vocabularies, typed edge matrices, permutations, and the
JSON-lines record format.

Node labels and edge types are integer ids into closed vocabularies whose
reserved entries sit at fixed indices, so structural code (masks, special
tokens) never needs a vocabulary object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError, is_number

# reserved edge-type ids (fixed indices 0..4)
NO_BOND = 0
VIRTUAL = 1
SELF = 2
MASK_EDGE = 3
NO_EDGE = 4
RESERVED_EDGE_NAMES = ("<no-bond>", "<virtual>", "<self>", "<mask-edge>", "<no-edge>")
N_RESERVED_EDGES = len(RESERVED_EDGE_NAMES)

# reserved node-label ids (fixed indices 0..7)
TOK_G = 0
TOK_EOG = 1
TOK_CLS = 2
TOK_MASK = 3
TOK_PAD = 4
TOK_REACTANT = 5
TOK_REAGENT = 6
TOK_PRODUCT = 7
RESERVED_LABEL_NAMES = ("<G>", "<EOG>", "<CLS>", "<MASK>", "<PAD>",
                        "<REACTANT>", "<REAGENT>", "<PRODUCT>")
N_RESERVED_LABELS = len(RESERVED_LABEL_NAMES)
DELIMITER_IDS = (TOK_REACTANT, TOK_REAGENT, TOK_PRODUCT)
# reserved labels that may legitimately appear as prepended structural nodes
PREPENDABLE_IDS = (TOK_CLS,) + DELIMITER_IDS


class _Vocab:
    """Ordered name list with reserved entries pinned at the front."""

    _reserved: tuple[str, ...] = ()

    def __init__(self, extra_names: Sequence[str] = ()):
        names = list(self._reserved)
        for name in extra_names:
            if name in names:
                raise ContractError(f"duplicate or reserved vocabulary name {name!r}")
            names.append(name)
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.names == self.names

    def id(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContractError(f"unknown vocabulary name {name!r}") from None

    def name(self, idx: int) -> str:
        return self.names[idx]

    @property
    def real_names(self) -> tuple[str, ...]:
        return self.names[len(self._reserved):]


class EdgeTypeVocab(_Vocab):
    _reserved = RESERVED_EDGE_NAMES


class NodeLabelVocab(_Vocab):
    _reserved = RESERVED_LABEL_NAMES


@dataclass(frozen=True, eq=False)
class GraphPermutation:
    """Bijection over node indices; mapping[i] is the new index of node i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ContractError(f"not a permutation of 0..{len(self.mapping) - 1}: {self.mapping}")

    def __len__(self):
        return len(self.mapping)

    def __eq__(self, other):
        return isinstance(other, GraphPermutation) and other.mapping == self.mapping


@dataclass(eq=False)
class Graph:
    """Labeled nodes in canonical order plus a typed symmetric edge matrix.

    ``edges[i][j]`` holds an edge-type id, all that an edge carries; the
    diagonal is always SELF and unconnected pairs are NO_BOND. ``delim`` is
    metadata naming the delimiter token this graph travels under in
    multi-graph inputs (not a node).
    """

    labels: tuple[int, ...]
    edges: np.ndarray
    node_features: np.ndarray | None = None
    properties: dict[str, float] | None = None
    delim: int | None = None

    def __post_init__(self):
        self.labels = tuple(int(x) for x in self.labels)
        # copies: the graph freezes its arrays and must not freeze the caller's
        self.edges = np.array(self.edges, dtype=np.int64)
        n = len(self.labels)
        if self.edges.shape != (n, n):
            raise ContractError(f"edge matrix shape {self.edges.shape} for {n} nodes")
        self.edges.flags.writeable = False
        if self.node_features is not None:
            self.node_features = np.array(self.node_features, dtype=np.float64)
            if self.node_features.ndim != 2 or self.node_features.shape[0] != n:
                raise ContractError(f"node_features must be 2-d with one row per node ({n})")
            self.node_features.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.labels != other.labels or not np.array_equal(self.edges, other.edges):
            return False
        mine, theirs = self.node_features, other.node_features
        if (mine is None) != (theirs is None):
            return False
        if mine is not None and not np.array_equal(mine, theirs):
            return False
        return self.properties == other.properties and self.delim == other.delim


def graph_from_edge_list(labels: Sequence[int], edge_list: Iterable[tuple[int, int, int]],
                         **kwargs) -> Graph:
    """Build a Graph from (i, j, edge_type) triples; unlisted pairs NO_BOND."""
    n = len(labels)
    edges = np.full((n, n), NO_BOND, dtype=np.int64)
    np.fill_diagonal(edges, SELF)
    for i, j, t in edge_list:
        edges[i, j] = t
        edges[j, i] = t
    return Graph(labels=tuple(labels), edges=edges, **kwargs)


# the rules on reserved ids that validate and the JSON-lines parser share: the
# labels no node may carry, and the edge types that may not join two distinct
# nodes, with why
_FORBIDDEN_LABELS = frozenset(range(N_RESERVED_LABELS)) - frozenset(PREPENDABLE_IDS)
_EDGE_RULES = {VIRTUAL: "VIRTUAL between ordinary nodes", SELF: "SELF off the diagonal",
               MASK_EDGE: "MASK_EDGE in a fully-specified graph", NO_EDGE: "NO_EDGE, unused"}


def _edge_violation(t: int, label_i: int, label_j: int) -> str | None:
    """Why edge type t may not join nodes labelled label_i and label_j, or
    None; VIRTUAL may when either is a prependable structural node."""
    if t == VIRTUAL and (label_i in PREPENDABLE_IDS or label_j in PREPENDABLE_IDS):
        return None
    return _EDGE_RULES.get(t)


def validate(g: Graph, label_vocab: NodeLabelVocab | None = None,
             edge_vocab: EdgeTypeVocab | None = None) -> list[str]:
    """Return all invariant violations (empty list means the graph is valid).

    Reserved node labels are allowed only for prependable structural tokens
    (<CLS> and the graph delimiters); VIRTUAL edges only when incident to such
    a node; SELF only on the diagonal; MASK_EDGE and NO_EDGE never.
    """
    violations = []
    n = g.n
    for i, lab in enumerate(g.labels):
        if lab in _FORBIDDEN_LABELS:
            violations.append(f"node {i}: reserved label id {lab} not allowed in a graph")
        if label_vocab is not None and not 0 <= lab < len(label_vocab):
            violations.append(f"node {i}: label id {lab} out of vocabulary range")
    if n and not np.array_equal(g.edges, g.edges.T):
        bad = np.argwhere(g.edges != g.edges.T)
        i, j = map(int, bad[0])
        violations.append(f"edge matrix not symmetric at ({i}, {j})")
    diag = np.diagonal(g.edges)
    if n and not np.all(diag == SELF):
        i = int(np.argmax(diag != SELF))
        violations.append(f"diagonal entry ({i}, {i}) is {int(diag[i])}, expected SELF")
    for i, j in np.argwhere(np.triu(g.edges != NO_BOND, k=1)).tolist():
        why = _edge_violation(int(g.edges[i, j]), g.labels[i], g.labels[j])
        if why:
            violations.append(f"edge ({i}, {j}): reserved type {why}")
    if edge_vocab is not None:
        bad = (g.edges < 0) | (g.edges >= len(edge_vocab))
        for i, j in zip(*np.nonzero(np.triu(bad, k=1))):
            violations.append(f"edge id {int(g.edges[i, j])} at ({int(i)}, {int(j)}) out of range")
    return violations


def permute(g: Graph, perm: GraphPermutation) -> Graph:
    """Relabel nodes: node i becomes node perm.mapping[i]."""
    if len(perm) != g.n:
        raise ContractError(f"permutation size {len(perm)} != node count {g.n}")
    p = np.asarray(perm.mapping, dtype=np.int64)
    labels = [0] * g.n
    for i, lab in enumerate(g.labels):
        labels[p[i]] = lab
    edges = np.empty_like(g.edges)
    edges[np.ix_(p, p)] = g.edges
    node_features = None
    if g.node_features is not None:
        node_features = np.empty_like(g.node_features)
        node_features[p] = g.node_features
    return Graph(labels=tuple(labels), edges=edges, node_features=node_features,
                 properties=g.properties, delim=g.delim)


def prepend_token(g: Graph, token: int, link: int) -> Graph:
    """Insert a reserved token as new node 0, linked to every original node."""
    if not 0 <= token < N_RESERVED_LABELS:
        raise ContractError(f"prepend_token requires a reserved label id, got {token}")
    n = g.n
    edges = np.full((n + 1, n + 1), NO_BOND, dtype=np.int64)
    edges[1:, 1:] = g.edges
    edges[0, 1:] = link
    edges[1:, 0] = link
    edges[0, 0] = SELF
    node_features = None
    if g.node_features is not None:
        node_features = np.vstack([np.zeros((1, g.node_features.shape[1])), g.node_features])
    return Graph(labels=(token,) + g.labels, edges=edges, node_features=node_features,
                 properties=g.properties)


def pad_graphs(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Labels (B, n) and edge matrices (B, n, n) of B graphs padded to the
    largest, n nodes: TOK_PAD labels and NO_BOND edges after a graph's own."""
    n = max(g.n for g in graphs)
    labels = np.full((len(graphs), n), TOK_PAD, dtype=np.int64)
    edges = np.full((len(graphs), n, n), NO_BOND, dtype=np.int64)
    for b, g in enumerate(graphs):
        labels[b, :g.n] = g.labels
        edges[b, :g.n, :g.n] = g.edges
    return labels, edges


def concat_graphs(parts: Sequence[tuple[int, Graph]]) -> Graph:
    """Disjoint union with one delimiter node per part.

    Each delimiter is linked to its own part's nodes via VIRTUAL; all
    inter-part pairs are NO_BOND. Parts that carry node features must agree
    on their width; delimiters and featureless parts get zero rows.
    """
    if not parts:
        raise ContractError("concat_graphs requires at least one part")
    for token, _ in parts:
        if not 0 <= token < N_RESERVED_LABELS:
            raise ContractError(f"delimiter must be a reserved label id, got {token}")
    total = sum(g.n + 1 for _, g in parts)
    labels: list[int] = []
    edges = np.full((total, total), NO_BOND, dtype=np.int64)
    widths = {g.node_features.shape[1] for _, g in parts if g.node_features is not None}
    if len(widths) > 1:
        raise ContractError(f"concat_graphs parts carry node features of widths "
                            f"{sorted(widths)}; they must agree")
    feat_width = max(widths, default=0)
    node_features = np.zeros((total, feat_width)) if feat_width else None
    offset = 0
    for token, g in parts:
        start = offset + 1
        stop = start + g.n
        labels.append(token)
        labels.extend(g.labels)
        edges[start:stop, start:stop] = g.edges
        edges[offset, start:stop] = VIRTUAL
        edges[start:stop, offset] = VIRTUAL
        if node_features is not None and g.node_features is not None:
            node_features[start:stop] = g.node_features
        offset = stop
    np.fill_diagonal(edges, SELF)
    return Graph(labels=tuple(labels), edges=edges, node_features=node_features)


# ---------------------------------------------------------------------------
# JSON-lines serialization
#
# one graph per line:
#   {"nodes":["C","N",...],"edges":[[i,j,"<edge-name>"],...],
#    "feat":[[...],...]?,"props":{"name":float,...}?,"delim":"<REACTANT>"?}
# i<j per entry, diagonal never listed, omitted pairs are NO_BOND; feat and
# props hold finite numbers only.

_GRAPH_KEYS = {"nodes", "edges", "feat", "props", "delim"}


def graph_to_record(g: Graph, label_vocab: NodeLabelVocab, edge_vocab: EdgeTypeVocab) -> dict:
    record: dict = {
        "nodes": [label_vocab.name(lab) for lab in g.labels],
        "edges": [[int(i), int(j), edge_vocab.name(int(g.edges[i, j]))]
                  for i, j in zip(*np.nonzero(np.triu(g.edges != NO_BOND, k=1)))],
    }
    if g.node_features is not None:
        record["feat"] = [[float(x) for x in row] for row in g.node_features]
    if g.properties is not None:
        record["props"] = {k: float(v) for k, v in g.properties.items()}
    if g.delim is not None:
        record["delim"] = label_vocab.name(g.delim)
    return record


def graph_from_record(record, label_vocab: NodeLabelVocab, edge_vocab: EdgeTypeVocab,
                      lineno: int | None = None, target: bool = False) -> Graph:
    """Parse one graph record, raising DataError with lineno on the first
    fault. A translation target (target=True) may carry no reserved label at
    all, since the decoder predicts only real labels."""
    if not isinstance(record, dict):
        raise DataError("graph record must be a JSON object", line=lineno)
    unknown = set(record) - _GRAPH_KEYS
    if unknown:
        raise DataError(f"unknown keys {sorted(unknown)} in graph record", line=lineno)
    if "nodes" not in record or "edges" not in record:
        raise DataError("graph record requires 'nodes' and 'edges'", line=lineno)
    nodes = record["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise DataError("'nodes' must be a list of label strings", line=lineno)
    labels = []
    for i, name in enumerate(nodes):
        if name not in label_vocab:
            raise DataError(f"unknown node label {name!r}", line=lineno)
        labels.append(label_vocab.id(name))
        if labels[-1] in _FORBIDDEN_LABELS or (target and labels[-1] < N_RESERVED_LABELS):
            raise DataError(f"node {i}: reserved label {name} not allowed in a "
                            f"{'target' if target else 'graph'}", line=lineno)
    n = len(labels)
    edges = np.full((n, n), NO_BOND, dtype=np.int64)
    np.fill_diagonal(edges, SELF)
    if not isinstance(record["edges"], list):
        raise DataError("'edges' must be a list", line=lineno)
    seen_pairs = set()
    for entry in record["edges"]:
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], int) or not isinstance(entry[1], int)
                or not isinstance(entry[2], str)):
            raise DataError(f"edge entry must be [i, j, name], got {entry!r}", line=lineno)
        i, j, name = entry
        if not 0 <= i < j < n:
            raise DataError(f"edge entry ({i}, {j}) violates 0 <= i < j < {n}", line=lineno)
        if (i, j) in seen_pairs:
            raise DataError(f"duplicate edge entry ({i}, {j})", line=lineno)
        seen_pairs.add((i, j))
        if name not in edge_vocab:
            raise DataError(f"unknown edge name {name!r}", line=lineno)
        edge_type = edge_vocab.id(name)
        why = _edge_violation(edge_type, labels[i], labels[j])
        if why:
            raise DataError(f"edge ({i}, {j}): reserved type {why}", line=lineno)
        edges[i, j] = edges[j, i] = edge_type
    node_features = None
    if "feat" in record:
        feat = record["feat"]
        if (not isinstance(feat, list) or len(feat) != n
                or any(not isinstance(row, list) or not all(map(is_number, row)) for row in feat)
                or len({len(row) for row in feat}) > 1):
            raise DataError("'feat' must be a list of n equal-length rows of finite numbers",
                            line=lineno)
        if n:
            node_features = np.asarray(feat, dtype=np.float64)
    properties = None
    if "props" in record:
        props = record["props"]
        if not isinstance(props, dict) or any(
                not isinstance(k, str) or not is_number(v) for k, v in props.items()):
            raise DataError("'props' must map names to finite numbers", line=lineno)
        properties = {k: float(v) for k, v in props.items()}
    delim = None
    if "delim" in record:
        name = record["delim"]
        if not isinstance(name, str) or name not in label_vocab \
                or label_vocab.id(name) not in DELIMITER_IDS:
            raise DataError(f"'delim' must be a delimiter token, got {name!r}", line=lineno)
        delim = label_vocab.id(name)
    return Graph(labels=tuple(labels), edges=edges, node_features=node_features,
                 properties=properties, delim=delim)
