"""Synthetic dataset generators and JSON-lines dataset loaders.

Generators emit JSON-ready records (one per line when written); loaders scan
a file twice, first to build closed vocabularies from the names that occur,
then to parse strictly against them.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError
from .graph import (Graph, EdgeTypeVocab, NodeLabelVocab, NO_BOND, graph_from_edge_list,
                    graph_to_record, graph_from_record)

_EDGE_NAME_POOL = ("single", "double", "triple")


def label_names(n: int) -> list[str]:
    letters = list(string.ascii_uppercase)
    return letters[:n] if n <= 26 else letters + [f"L{i}" for i in range(n - 26)]


def edge_names(n: int) -> list[str]:
    return list(_EDGE_NAME_POOL[:n]) + [f"bond{i}" for i in range(4, n + 1)]


def random_connected_graph(rng: np.random.Generator, max_nodes: int, n_labels: int,
                           n_edge_types: int, label_vocab: NodeLabelVocab,
                           edge_vocab: EdgeTypeVocab, extra_density: float = 0.3) -> Graph:
    """Uniform random labeled tree (Pruefer decode) plus extra random edges."""
    n = int(rng.integers(1, max_nodes + 1))
    labels = [int(label_vocab.id(name))
              for name in rng.choice(label_names(n_labels), size=n)]
    type_ids = [edge_vocab.id(name) for name in edge_names(n_edge_types)]
    edge_list: list[tuple[int, int, int]] = []
    if n == 2:
        edge_list.append((0, 1, int(rng.choice(type_ids))))
    elif n > 2:
        prufer = rng.integers(0, n, size=n - 2)
        degree = np.ones(n, dtype=np.int64)
        for x in prufer:
            degree[x] += 1
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for x in prufer:
            leaf = leaves.pop(0)
            edge_list.append((min(leaf, int(x)), max(leaf, int(x)), int(rng.choice(type_ids))))
            degree[x] -= 1
            if degree[x] == 1:
                bisect.insort(leaves, int(x))
        u, v = leaves
        edge_list.append((min(u, v), max(u, v), int(rng.choice(type_ids))))
        tree_pairs = {(i, j) for i, j, _ in edge_list}
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in tree_pairs and rng.random() < extra_density:
                    edge_list.append((i, j, int(rng.choice(type_ids))))
    return graph_from_edge_list(labels, edge_list)


def _dataset_vocabs(n_labels: int, n_edge_types: int):
    return NodeLabelVocab(label_names(n_labels)), EdgeTypeVocab(edge_names(n_edge_types))


def _check_generator_args(seed: int, *sizes: int):
    """Every generator's arguments: a seed >= 0 and sizes >= 1."""
    if seed < 0 or min(sizes) < 1:
        raise ContractError(f"dataset generators need a seed >= 0 and sizes >= 1, "
                            f"got seed {seed} and sizes {list(sizes)}")


def _translation_records(n_graphs: int, max_nodes: int, n_labels: int, n_edge_types: int,
                         seed: int, shift: int) -> list[dict]:
    """Pairs of a random source graph and its copy, each target label name
    moved shift places along the label names (cyclically)."""
    _check_generator_args(seed, n_graphs, max_nodes, n_labels, n_edge_types)
    lv, ev = _dataset_vocabs(n_labels, n_edge_types)
    names = label_names(n_labels)
    rename = {name: names[(i + shift) % n_labels] for i, name in enumerate(names)}
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_graphs):
        g = random_connected_graph(rng, max_nodes, n_labels, n_edge_types, lv, ev)
        src = graph_to_record(g, lv, ev)
        src["delim"] = "<REACTANT>"
        tgt = graph_to_record(g, lv, ev)
        tgt["nodes"] = [rename[name] for name in tgt["nodes"]]
        records.append({"src": [src], "tgt": tgt})
    return records


def gen_copy_dataset(n_graphs: int, max_nodes: int, n_labels: int, n_edge_types: int,
                     seed: int) -> list[dict]:
    """Translation records whose target equals the source graph."""
    return _translation_records(n_graphs, max_nodes, n_labels, n_edge_types, seed, shift=0)


def gen_relabel_dataset(n_graphs: int, max_nodes: int, n_labels: int, n_edge_types: int,
                        seed: int) -> list[dict]:
    """Copy task with targets relabeled by a fixed rotation (label i -> i+1)."""
    return _translation_records(n_graphs, max_nodes, n_labels, n_edge_types, seed, shift=1)


PROPERTY_WEIGHT_STEP = 0.5  # label weight table: w_i = 1 + i * step


def label_weight(label_index: int) -> float:
    return 1.0 + PROPERTY_WEIGHT_STEP * label_index


def triangle_count(g: Graph) -> int:
    adj = (g.edges != NO_BOND) & ~np.eye(g.n, dtype=bool)
    return int(np.trace(adj.astype(np.int64) @ adj @ adj) // 6)


def gen_property_dataset(n_graphs: int, seed: int, max_nodes: int = 8,
                         n_labels: int = 3, n_edge_types: int = 2) -> list[dict]:
    """Graphs with two exact targets: a per-label weight sum and the triangle
    count (one linear and one nonlinear task)."""
    _check_generator_args(seed, n_graphs, max_nodes, n_labels, n_edge_types)
    lv, ev = _dataset_vocabs(n_labels, n_edge_types)
    names = label_names(n_labels)
    weight_of = {lv.id(name): label_weight(i) for i, name in enumerate(names)}
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_graphs):
        g = random_connected_graph(rng, max_nodes, n_labels, n_edge_types, lv, ev)
        props = {"wsum": float(sum(weight_of[lab] for lab in g.labels)),
                 "tri": float(triangle_count(g))}
        record = graph_to_record(g, lv, ev)
        record["props"] = props
        records.append(record)
    return records


def write_jsonl(path, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# loading


@dataclass
class GraphDataset:
    label_vocab: NodeLabelVocab
    edge_vocab: EdgeTypeVocab
    graphs: list[Graph]


@dataclass
class TranslationDataset:
    label_vocab: NodeLabelVocab
    edge_vocab: EdgeTypeVocab
    pairs: list[tuple[list[Graph], Graph]]


def _iter_records(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield lineno, json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed JSON: {exc.msg}", line=lineno) from None


def _collect_names(record, node_names: set, edge_names_seen: set, lineno: int):
    if not isinstance(record, dict):
        raise DataError("record must be a JSON object", line=lineno)
    node_names.update(n for n in record.get("nodes", []) if isinstance(n, str))
    for entry in record.get("edges", []):
        if isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], str):
            edge_names_seen.add(entry[2])


def scan_vocabs(path) -> tuple[NodeLabelVocab, EdgeTypeVocab]:
    """First pass: closed vocabularies from every name occurring in the file."""
    node_names: set[str] = set()
    edge_seen: set[str] = set()
    for lineno, record in _iter_records(path):
        if "src" in record or "tgt" in record:
            for part in record.get("src", []):
                _collect_names(part, node_names, edge_seen, lineno)
            if "tgt" in record:
                _collect_names(record["tgt"], node_names, edge_seen, lineno)
        else:
            _collect_names(record, node_names, edge_seen, lineno)
    node_names -= set(NodeLabelVocab._reserved)
    edge_seen -= set(EdgeTypeVocab._reserved)
    return NodeLabelVocab(sorted(node_names)), EdgeTypeVocab(sorted(edge_seen))


def load_dataset(path, vocabs: tuple[NodeLabelVocab, EdgeTypeVocab] | None = None
                 ) -> GraphDataset | TranslationDataset:
    """Load a JSON-lines dataset, detecting plain-graph vs translation records.

    Vocabularies are scanned from the file unless fixed ones are supplied
    (e.g. the vocabularies a checkpointed model was trained with).
    """
    lv, ev = scan_vocabs(path) if vocabs is None else vocabs
    graphs: list[Graph] = []
    pairs: list[tuple[list[Graph], Graph]] = []
    kind: str | None = None
    for lineno, record in _iter_records(path):
        is_pair = "src" in record or "tgt" in record
        if kind is None:
            kind = "pair" if is_pair else "graph"
        elif (kind == "pair") != is_pair:
            raise DataError("mixed record kinds in one dataset", line=lineno)
        if is_pair:
            if set(record) != {"src", "tgt"}:
                raise DataError("translation record requires exactly 'src' and 'tgt'",
                                line=lineno)
            if not isinstance(record["src"], list) or not record["src"]:
                raise DataError("'src' must be a non-empty list of graphs", line=lineno)
            srcs = [graph_from_record(part, lv, ev, lineno=lineno) for part in record["src"]]
            tgt = graph_from_record(record["tgt"], lv, ev, lineno=lineno, target=True)
            pairs.append((srcs, tgt))
        else:
            graphs.append(graph_from_record(record, lv, ev, lineno=lineno))
    if kind is None:
        raise DataError(f"dataset {path} is empty")
    if kind == "pair":
        return TranslationDataset(label_vocab=lv, edge_vocab=ev, pairs=pairs)
    return GraphDataset(label_vocab=lv, edge_vocab=ev, graphs=graphs)


def split_indices(n: int, seed: int) -> dict[str, list[int]]:
    """Deterministic 80/10/10 split by a per-line hash of (seed, line index).
    Every task trains on its train part, so an empty one is a DataError."""
    split: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    for i in range(n):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
        bucket = digest[0] % 10
        if bucket == 8:
            split["val"].append(i)
        elif bucket == 9:
            split["test"].append(i)
        else:
            split["train"].append(i)
    if not split["train"]:
        raise DataError(f"no training records: the split at seed {seed} puts none of the "
                        f"{n} records in train")
    return split
