"""Graph model: validation, permutation, JSON-lines record round trips and
parse errors, and the special-token prepend/concat operations."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grat import graph as gm
from grat.data import load_dataset
from grat.errors import ContractError, DataError
from grat.graph import (Graph, GraphPermutation, EdgeTypeVocab, NodeLabelVocab,
                        NO_BOND, VIRTUAL, SELF, MASK_EDGE,
                        TOK_CLS, TOK_REACTANT, TOK_REAGENT)


@pytest.fixture
def vocabs():
    return (NodeLabelVocab(["C", "N", "O"]), EdgeTypeVocab(["single", "double"]))


def label_ids(vocabs):
    lv, _ = vocabs
    return lv.id("C"), lv.id("N"), lv.id("O")


def random_graph(rng, vocabs, n=None, with_props=False, feature_width=0):
    lv, ev = vocabs
    n = int(rng.integers(1, 9)) if n is None else n
    labels = rng.choice(list(range(gm.N_RESERVED_LABELS, len(lv))), size=n)
    edges = np.full((n, n), NO_BOND, dtype=np.int64)
    np.fill_diagonal(edges, SELF)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                t = int(rng.choice(list(range(gm.N_RESERVED_EDGES, len(ev)))))
                edges[i, j] = edges[j, i] = t
    props = {"y": float(rng.normal())} if with_props else None
    feats = rng.normal(size=(n, feature_width)) if feature_width else None
    return Graph(labels=tuple(int(x) for x in labels), edges=edges, node_features=feats,
                 properties=props)


class TestVocab:
    def test_reserved_indices_are_fixed(self):
        ev = EdgeTypeVocab(["single"])
        assert ev.id("<no-bond>") == NO_BOND == 0
        assert ev.id("<virtual>") == VIRTUAL == 1
        assert ev.id("<self>") == SELF == 2
        assert ev.id("<mask-edge>") == MASK_EDGE == 3
        assert ev.id("<no-edge>") == gm.NO_EDGE == 4
        assert ev.id("single") == 5
        lv = NodeLabelVocab(["C"])
        assert lv.id("<G>") == 0 and lv.id("<EOG>") == 1 and lv.id("<CLS>") == 2
        assert lv.id("C") == len(gm.RESERVED_LABEL_NAMES)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ContractError):
            NodeLabelVocab(["C", "C"])
        with pytest.raises(ContractError):
            EdgeTypeVocab(["<self>"])


class TestValidate:
    def test_single_node_ok(self, vocabs):
        g = Graph(labels=(8,), edges=np.array([[SELF]]))
        assert gm.validate(g, *vocabs) == []

    def test_asymmetry_reported(self, vocabs):
        c, n_, _ = label_ids(vocabs)
        edges = np.array([[SELF, 5], [NO_BOND, SELF]])
        g = Graph(labels=(c, n_), edges=edges)
        out = gm.validate(g, *vocabs)
        assert len(out) == 1 and "symmetric" in out[0]

    def test_virtual_edge_reported(self, vocabs):
        c, n_, _ = label_ids(vocabs)
        g = gm.graph_from_edge_list([c, n_], [(0, 1, VIRTUAL)])
        out = gm.validate(g, *vocabs)
        assert len(out) == 1 and "VIRTUAL" in out[0]

    def test_mask_edge_reported(self, vocabs):
        c, n_, _ = label_ids(vocabs)
        g = gm.graph_from_edge_list([c, n_], [(0, 1, MASK_EDGE)])
        assert any("MASK_EDGE" in v for v in gm.validate(g, *vocabs))

    def test_reserved_label_reported(self, vocabs):
        g = Graph(labels=(gm.TOK_G,), edges=np.array([[SELF]]))
        assert any("reserved" in v for v in gm.validate(g, *vocabs))

    @pytest.mark.parametrize("edge_type, name", [(SELF, "SELF"), (gm.NO_EDGE, "NO_EDGE")])
    def test_self_off_diagonal_and_no_edge_reported(self, vocabs, edge_type, name):
        c, n_, _ = label_ids(vocabs)
        for labels in ([c, n_], [TOK_CLS, c]):
            g = gm.graph_from_edge_list(labels, [(0, 1, edge_type)])
            out = gm.validate(g, *vocabs)
            assert len(out) == 1 and name in out[0]


class TestReservedNamesInRecords:
    """A record parses exactly when validate accepts the graph it names;
    otherwise the DataError carries the line number."""

    def assert_parses_iff_valid(self, vocabs, record, graph):
        if gm.validate(graph, *vocabs):
            with pytest.raises(DataError, match="reserved.*line 7"):
                gm.graph_from_record(record, *vocabs, lineno=7)
        else:
            assert gm.graph_from_record(record, *vocabs, lineno=7) == graph

    @pytest.mark.parametrize("name", gm.RESERVED_LABEL_NAMES)
    def test_labels(self, vocabs, name):
        lv, _ = vocabs
        self.assert_parses_iff_valid(vocabs, {"nodes": ["C", name], "edges": []},
                                     gm.graph_from_edge_list([lv.id("C"), lv.id(name)], []))

    @pytest.mark.parametrize("name", gm.RESERVED_EDGE_NAMES)
    @pytest.mark.parametrize("first", ["N", "<CLS>"])
    def test_edges(self, vocabs, name, first):
        lv, ev = vocabs
        self.assert_parses_iff_valid(
            vocabs, {"nodes": [first, "C"], "edges": [[0, 1, name]]},
            gm.graph_from_edge_list([lv.id(first), lv.id("C")], [(0, 1, ev.id(name))]))


@pytest.mark.parametrize("feats", [np.ones(3), np.ones((2, 2)), np.ones((3, 2, 1))],
                         ids=["1-d", "row-count", "3-d"])
def test_node_features_must_be_one_row_per_node(feats):
    with pytest.raises(ContractError, match="node_features"):
        gm.graph_from_edge_list([8, 9, 10], [], node_features=feats)


def test_graph_copies_the_callers_arrays():
    edges = np.array([[SELF, NO_BOND], [NO_BOND, SELF]])
    feats = np.ones((2, 3))
    g = Graph(labels=(8, 9), edges=edges, node_features=feats)
    edges[0, 1] = edges[1, 0] = VIRTUAL
    feats[0, 0] = 2.0
    assert g.edges[0, 1] == NO_BOND and g.node_features[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        g.edges[0, 1] = VIRTUAL
    with pytest.raises(ValueError, match="read-only"):
        g.node_features[0, 0] = 2.0


class TestPermute:
    def test_identity(self, vocabs):
        rng = np.random.default_rng(0)
        g = random_graph(rng, vocabs, n=5)
        assert gm.permute(g, GraphPermutation((0, 1, 2, 3, 4))) == g

    def test_inverse_round_trip(self, vocabs):
        rng = np.random.default_rng(1)
        g = random_graph(rng, vocabs, n=6)
        perm = GraphPermutation(tuple(rng.permutation(6)))
        inverse = GraphPermutation(tuple(np.argsort(perm.mapping)))
        assert gm.permute(gm.permute(g, perm), inverse) == g

    @pytest.mark.parametrize("feats", [None, np.arange(6.0).reshape(3, 2)])
    def test_path_relabeling_matches_bruteforce(self, vocabs, feats):
        c, n_, o = label_ids(vocabs)
        g = gm.graph_from_edge_list([c, n_, o], [(0, 1, 5), (1, 2, 6)], node_features=feats)
        perm = GraphPermutation((2, 0, 1))
        got = gm.permute(g, perm)
        # brute-force relabel: entry (pi(i), pi(j)) carries old (i, j)
        expect = np.full((3, 3), NO_BOND, dtype=np.int64)
        for i in range(3):
            for j in range(3):
                expect[perm.mapping[i], perm.mapping[j]] = g.edges[i, j]
        assert np.array_equal(got.edges, expect)
        assert got.labels == (n_, o, c)
        if feats is None:
            assert got.node_features is None
        else:  # node i's feature row moves with it
            assert got.node_features.tolist() == [[2.0, 3.0], [4.0, 5.0], [0.0, 1.0]]

    def test_size_mismatch(self, vocabs):
        rng = np.random.default_rng(2)
        g = random_graph(rng, vocabs, n=4)
        with pytest.raises(ContractError):
            gm.permute(g, GraphPermutation((0, 1, 2)))

    def test_composition(self, vocabs):
        rng = np.random.default_rng(3)
        g = random_graph(rng, vocabs, n=7)
        p1 = GraphPermutation(tuple(rng.permutation(7)))
        p2 = GraphPermutation(tuple(rng.permutation(7)))
        # p2 after p1: node i goes to p2(p1(i))
        composed = GraphPermutation(tuple(p2.mapping[i] for i in p1.mapping))
        assert gm.permute(gm.permute(g, p1), p2) == gm.permute(g, composed)


def round_trip(g, lv, ev):
    """g through one JSON line: graph_to_record, dumps, loads, graph_from_record."""
    line = json.dumps(gm.graph_to_record(g, lv, ev), separators=(",", ":"))
    return gm.graph_from_record(json.loads(line), lv, ev)


class TestSerialize:
    def test_minimal_record(self, vocabs):
        g = gm.graph_from_record(json.loads('{"nodes":["C"],"edges":[],"props":{}}'), *vocabs)
        assert g.n == 1 and g.labels == (vocabs[0].id("C"),)
        assert g.properties == {}

    def test_edge_entry_sets_both_directions(self, vocabs):
        g = gm.graph_from_record(json.loads('{"nodes":["C","O"],"edges":[[0,1,"double"]]}'),
                                 *vocabs)
        double = vocabs[1].id("double")
        assert g.edges[0, 1] == double and g.edges[1, 0] == double

    @pytest.mark.parametrize("feature_width", [0, 3])
    def test_round_trip_random_graph(self, vocabs, feature_width):
        rng = np.random.default_rng(4)
        g = random_graph(rng, vocabs, n=8, with_props=True, feature_width=feature_width)
        assert round_trip(g, *vocabs) == g

    def test_delim_round_trip(self, vocabs):
        rng = np.random.default_rng(5)
        g = random_graph(rng, vocabs, n=3)
        g2 = Graph(labels=g.labels, edges=g.edges, delim=TOK_REACTANT)
        assert gm.graph_to_record(g2, *vocabs)["delim"] == "<REACTANT>"
        assert round_trip(g2, *vocabs) == g2

    @pytest.mark.parametrize("line,fragment", [
        ('{"nodes":["C"],"edges":[],"bogus":1}', "unknown keys"),
        ('{"nodes":["Zz"],"edges":[]}', "unknown node label"),
        ('{"nodes":["C","C"],"edges":[[0,1,"quadruple"]]}', "unknown edge name"),
        ('{"nodes":["C","C"],"edges":[[1,0,"single"]]}', "i < j"),
        ('{"nodes":["C","C"],"edges":[[0,1,"single"],[0,1,"double"]]}', "duplicate"),
        ('{"nodes":["C"],"edges":[[0,0,"single"]]}', "i < j"),
        ('{"nodes":["C"]}', "requires"),
        ('{"nodes":["C"],"edges":[],"delim":"<CLS>"}', "delim"),
        ('not json', "malformed JSON"),
        # feat and props hold finite numbers, feat in flat rows of one length
        ('{"nodes":["C","C"],"edges":[],"feat":[["a"],[1]]}', "'feat'"),
        ('{"nodes":["C"],"edges":[],"feat":[[null]]}', "'feat'"),
        ('{"nodes":["C"],"edges":[],"feat":[[NaN]]}', "'feat'"),
        ('{"nodes":["C"],"edges":[],"feat":[[-Infinity]]}', "'feat'"),
        ('{"nodes":["C"],"edges":[],"feat":[[true]]}', "'feat'"),
        ('{"nodes":["C","C"],"edges":[],"feat":[[[1]],[[1]]]}', "'feat'"),
        ('{"nodes":["C","C"],"edges":[],"feat":[[1],[1,2]]}', "'feat'"),
        ('{"nodes":["C"],"edges":[],"props":{"p":NaN}}', "'props'"),
        ('{"nodes":["C"],"edges":[],"props":{"p":Infinity}}', "'props'"),
        ('{"nodes":["C"],"edges":[],"props":{"p":null}}', "'props'"),
        ('{"nodes":["C"],"edges":[],"props":{"p":"1"}}', "'props'"),
        ('{"nodes":["C"],"edges":[],"props":{"p":true}}', "'props'"),
    ])
    def test_parse_errors(self, vocabs, tmp_path, line, fragment):
        # the bad record is line 2 of a dataset file, after a good one
        path = tmp_path / "graphs.jsonl"
        path.write_text('{"nodes":["C"],"edges":[]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=fragment) as err:
            load_dataset(path, vocabs)
        assert str(err.value).endswith("(line 2)")

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed):
        lv = NodeLabelVocab(["C", "N", "O"])
        ev = EdgeTypeVocab(["single", "double"])
        g = random_graph(np.random.default_rng(seed), (lv, ev), with_props=seed % 2 == 0)
        assert round_trip(g, lv, ev) == g


class TestPrepend:
    def test_cls_prepend(self, vocabs):
        c, n_, _ = label_ids(vocabs)
        g = gm.graph_from_edge_list([c, n_], [(0, 1, 5)])
        out = gm.prepend_token(g, TOK_CLS, VIRTUAL)
        assert out.n == 3
        assert out.labels[0] == TOK_CLS
        assert out.edges[0, 1] == VIRTUAL and out.edges[0, 2] == VIRTUAL
        assert out.edges[1, 2] == 5
        assert gm.validate(out, *vocabs) == []

    def test_prepend_to_empty(self):
        out = gm.prepend_token(Graph(labels=(), edges=np.zeros((0, 0))), TOK_CLS, VIRTUAL)
        assert out.n == 1 and out.labels == (TOK_CLS,)
        assert out.edges[0, 0] == SELF

    @pytest.mark.parametrize("feature_width", [0, 2])
    def test_prepend_preserves_all_pairs(self, vocabs, feature_width):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_graph(rng, vocabs, feature_width=feature_width)
            out = gm.prepend_token(g, TOK_CLS, VIRTUAL)
            assert out.n == g.n + 1
            for i in range(g.n):
                for j in range(g.n):
                    assert out.edges[i + 1, j + 1] == g.edges[i, j]
            if feature_width:  # the new node gets a zero row
                assert out.node_features.shape == (g.n + 1, feature_width)
                assert not out.node_features[0].any()
                assert np.array_equal(out.node_features[1:], g.node_features)
            else:
                assert out.node_features is None

    def test_non_reserved_token_rejected(self, vocabs):
        g = random_graph(np.random.default_rng(7), vocabs, n=2)
        with pytest.raises(ContractError):
            gm.prepend_token(g, vocabs[0].id("C"), VIRTUAL)


class TestConcat:
    def test_single_part_equals_prepend(self, vocabs):
        g = random_graph(np.random.default_rng(8), vocabs, n=4)
        got = gm.concat_graphs([(TOK_REACTANT, g)])
        expect = gm.prepend_token(g, TOK_REACTANT, VIRTUAL)
        assert got.labels == expect.labels
        assert np.array_equal(got.edges, expect.edges)

    def test_two_single_node_parts(self, vocabs):
        c, n_, _ = label_ids(vocabs)
        a = Graph(labels=(c,), edges=np.array([[SELF]]))
        b = Graph(labels=(n_,), edges=np.array([[SELF]]))
        out = gm.concat_graphs([(TOK_REACTANT, a), (TOK_REAGENT, b)])
        assert out.n == 4
        assert out.labels == (TOK_REACTANT, c, TOK_REAGENT, n_)
        assert out.edges[1, 3] == NO_BOND
        assert out.edges[0, 1] == VIRTUAL and out.edges[2, 3] == VIRTUAL
        assert out.edges[0, 2] == NO_BOND  # delimiters not linked to each other

    @pytest.mark.parametrize("feature_widths", [(0, 0, 0), (2, 2, 2), (2, 0, 2), (2, 0, 3)],
                             ids=["none", "all", "one-part-without", "mismatched"])
    def test_three_parts_block_structure(self, vocabs, feature_widths):
        rng = np.random.default_rng(9)
        parts = [(TOK_REACTANT, random_graph(rng, vocabs, feature_width=w))
                 for w in feature_widths]
        if len(set(feature_widths) - {0}) > 1:
            # zero-padding the narrower part would pass an encoder built for the wider
            with pytest.raises(ContractError, match="widths"):
                gm.concat_graphs(parts)
            return
        out = gm.concat_graphs(parts)
        assert gm.validate(out, *vocabs) == []
        # feature rows: zero for delimiters and for the nodes of a featureless part
        width = max(feature_widths)
        if width:
            expect = np.zeros((0, width))
            for _, g in parts:
                rows = np.zeros((g.n + 1, width))
                if g.node_features is not None:
                    rows[1:] = g.node_features
                expect = np.vstack([expect, rows])
            assert np.array_equal(out.node_features, expect)
        else:
            assert out.node_features is None
        # pairwise oracle: walk every pair, derive expectation from the layout
        spans = []
        offset = 0
        for _, g in parts:
            spans.append((offset, offset + 1 + g.n, g))
            offset += 1 + g.n
        for a_start, a_stop, ga in spans:
            for b_start, b_stop, gb in spans:
                for i in range(a_start, a_stop):
                    for j in range(b_start, b_stop):
                        got = out.edges[i, j]
                        if i == j:
                            assert got == SELF
                        elif a_start != b_start:
                            assert got == NO_BOND
                        elif i == a_start or j == a_start:
                            assert got == VIRTUAL
                        else:
                            assert got == ga.edges[i - a_start - 1, j - a_start - 1]

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            gm.concat_graphs([])
