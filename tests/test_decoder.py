"""Two-path decoder: batch layout against the documented matrix patterns,
parallel/sequential equivalence, causality, and greedy/beam generation."""

import dataclasses
import itertools

import numpy as np
import pytest

from grat import autodiff as ad
from grat import data
from grat import decoder as dec
from grat import graph as gm
from grat.attention import EncoderConfig, encode
from grat.autodiff import Tensor
from grat.decoder import DecoderConfig, build_decoder_batch, decode_forward
from grat.errors import CapacityError, ContractError
from grat.graph import Graph, NO_BOND, SELF, VIRTUAL, TOK_EOG, TOK_G
from grat.training import RunConfig, TranslationModel
from oracles import greedy_reference

CFG = DecoderConfig(layers=2, heads=2, width=8, ff_width=16, cond_hidden=4,
                    pair_width=4, fe_hidden=8)
N_LABELS = 11   # 8 reserved + 3 real
N_EDGE_TYPES = 7  # 5 reserved + 2 real
FIRST_LABEL = len(gm.RESERVED_LABEL_NAMES)
FIRST_EDGE = len(gm.RESERVED_EDGE_NAMES)


def make_params(seed=0, cfg=CFG, n_labels=N_LABELS, n_edge_types=N_EDGE_TYPES):
    return dec.init_decoder_params(cfg, n_labels, n_edge_types, np.random.default_rng(seed))


def random_target(rng, k=None, n_labels=3, n_edge_types=2, density=0.4):
    k = int(rng.integers(0, 7)) if k is None else k
    labels = [FIRST_LABEL + int(rng.integers(0, n_labels)) for _ in range(k)]
    edge_list = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < density:
                edge_list.append((i, j, FIRST_EDGE + int(rng.integers(0, n_edge_types))))
    return gm.graph_from_edge_list(labels, edge_list)


def random_memory(rng, n=5, width=CFG.width):
    return Tensor(rng.normal(size=(n, width)))


def assert_mask_layout(batch, target):
    """Fig. 1 masking rules, cell by cell: every position sees itself; no
    position sees the future or another <G> column; a <G> query sees every
    earlier node; a node query sees an earlier node unless their target
    edge is NO_BOND."""
    length = 2 * target.n + 1
    assert batch.mask.shape == (length, length)
    assert batch.mask.diagonal().all()
    for q in range(length):
        for c in range(length):
            if c == q:
                continue
            if c > q or c % 2 == 0:
                expect = False
            elif q % 2 == 0:
                expect = True
            else:
                expect = target.edges[q // 2, c // 2] != NO_BOND
            assert batch.mask[q, c] == expect, (q, c)


class TestEdgeClasses:
    def test_round_trip(self):
        assert dec.edge_class_of_type(NO_BOND) == 0
        assert dec.edge_type_of_class(0) == NO_BOND
        for t in (FIRST_EDGE, FIRST_EDGE + 1):
            assert dec.edge_type_of_class(dec.edge_class_of_type(t)) == t

    def test_reserved_types_have_no_class(self):
        with pytest.raises(ContractError):
            dec.edge_class_of_type(VIRTUAL)

    def test_class_count(self):
        assert dec.n_edge_classes(N_EDGE_TYPES) == 3  # 2 real + no-edge


class TestBatchLayout:
    def test_empty_target(self):
        batch = build_decoder_batch(gm.empty_graph())
        assert list(batch.tokens) == [TOK_G]
        assert list(batch.node_targets) == [TOK_EOG]
        assert batch.mask.shape == (1, 1) and batch.mask[0, 0]
        assert len(batch.pair_steps) == 0 and batch.n_target_pairs == 0

    def test_four_node_matrix_patterns(self):
        # 4-node chain a-b-c-d plus the d-a closing edge type
        target = gm.graph_from_edge_list(
            [FIRST_LABEL, FIRST_LABEL + 1, FIRST_LABEL + 2, FIRST_LABEL],
            [(0, 1, FIRST_EDGE), (1, 2, FIRST_EDGE + 1), (2, 3, FIRST_EDGE), (0, 3, FIRST_EDGE)])
        batch = build_decoder_batch(target)
        L = 9
        assert batch.tokens.shape == (L,)
        g_pos = list(range(0, L, 2))
        n_pos = list(range(1, L, 2))
        assert all(batch.tokens[p] == TOK_G for p in g_pos)
        # edge matrix: SELF diagonal, target types between node positions,
        # VIRTUAL from <G> positions to node positions
        assert all(batch.edge_matrix[p, p] == SELF for p in range(L))
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert batch.edge_matrix[n_pos[a], n_pos[b]] == target.edges[a, b]
        for gp in g_pos:
            for np_ in n_pos:
                if np_ != gp:
                    assert batch.edge_matrix[gp, np_] == VIRTUAL
        assert_mask_layout(batch, target)
        # targets: labels then <EOG>; edge classes follow the target matrix
        assert list(batch.node_targets) == list(target.labels) + [TOK_EOG]
        assert batch.n_target_pairs == 6
        expect = [dec.edge_class_of_type(int(target.edges[i, j]))
                  for i in range(1, 4) for j in range(i)]
        assert list(batch.pair_target_classes) == expect

    def test_mask_layout_on_random_targets(self):
        rng = np.random.default_rng(3)
        no_bond_pairs = 0
        for k in range(9):
            for _ in range(3):
                target = random_target(rng, k=k)
                no_bond_pairs += int((target.edges == NO_BOND).sum()) // 2
                assert_mask_layout(build_decoder_batch(target), target)
        assert no_bond_pairs > 0

    def test_g_row_unmasked_count_is_step_index(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            target = random_target(rng)
            batch = build_decoder_batch(target)
            for i in range(1, target.n + 2):
                row = batch.mask[2 * (i - 1)]
                assert row.sum() == i

    def test_step_i_emits_i_minus_1_edge_decisions(self):
        rng = np.random.default_rng(2)
        target = random_target(rng, k=5)
        batch = build_decoder_batch(target)
        for i in range(1, 7):
            assert int((batch.pair_steps == i - 1).sum()) == i - 1
        assert batch.n_target_pairs == 5 * 4 // 2

    def test_reserved_label_rejected(self):
        bad = Graph(labels=(TOK_G,), edges=np.array([[SELF]]))
        with pytest.raises(ContractError):
            build_decoder_batch(bad)


class TestDecodeForward:
    def test_empty_target_shapes(self):
        params = make_params()
        rng = np.random.default_rng(3)
        node_logits, edge_logits = decode_forward(
            CFG, params, random_memory(rng), build_decoder_batch(gm.empty_graph()))
        assert node_logits.shape == (1, N_LABELS)
        assert edge_logits.shape == (0, 3)

    def test_logits_finite(self):
        params = make_params(seed=4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            target = random_target(rng)
            node_logits, edge_logits = decode_forward(
                CFG, params, random_memory(rng), build_decoder_batch(target))
            assert np.all(np.isfinite(node_logits.data))
            assert np.all(np.isfinite(edge_logits.data))

    def test_parallel_equals_sequential_prefix(self):
        params = make_params(seed=6)
        rng = np.random.default_rng(7)
        for _ in range(10):
            target = random_target(rng)
            memory = random_memory(rng)
            full = build_decoder_batch(target)
            node_logits, edge_logits = decode_forward(CFG, params, memory, full)
            for i in range(1, target.n + 2):
                prefix = Graph(labels=target.labels[:i - 1],
                               edges=target.edges[:i - 1, :i - 1])
                pnode, pedge = decode_forward(CFG, params, memory,
                                              build_decoder_batch(prefix))
                assert np.max(np.abs(pnode.data[-1] - node_logits.data[i - 1])) < 1e-9
                if i > 1:
                    full_rows = edge_logits.data[full.pair_steps == i - 1]
                    assert np.max(np.abs(pedge.data[-(i - 1):] - full_rows)) < 1e-9

    def test_future_perturbation_changes_no_past_logit(self):
        params = make_params(seed=8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            target = random_target(rng, k=int(rng.integers(2, 7)))
            memory = random_memory(rng)
            j = int(rng.integers(1, target.n + 1))  # perturb node j (1-based)
            mutated_labels = list(target.labels)
            mutated_labels[j - 1] = FIRST_LABEL + (mutated_labels[j - 1] - FIRST_LABEL + 1) % 3
            edges = np.array(target.edges)
            for other in range(target.n):
                if other != j - 1:
                    cur = edges[j - 1, other]
                    new = NO_BOND if cur != NO_BOND else FIRST_EDGE
                    edges[j - 1, other] = edges[other, j - 1] = new
            mutated = Graph(labels=tuple(mutated_labels), edges=edges)
            base_n, base_e = decode_forward(CFG, params, memory,
                                            build_decoder_batch(target))
            mut_n, mut_e = decode_forward(CFG, params, memory,
                                          build_decoder_batch(mutated))
            batch = build_decoder_batch(target)
            past_steps = batch.pair_steps <= j - 1
            assert np.array_equal(base_n.data[:j], mut_n.data[:j])
            assert np.array_equal(base_e.data[past_steps], mut_e.data[past_steps])

    def test_g_isolation_offsets_change_only_own_step(self):
        params = make_params(seed=10)
        rng = np.random.default_rng(11)
        target = random_target(rng, k=4)
        memory = random_memory(rng)
        batch = build_decoder_batch(target)
        base_n, base_e = decode_forward(CFG, params, memory, batch)
        for step in range(1, 5):
            offsets = np.zeros((len(batch.tokens), CFG.width))
            offsets[2 * (step - 1)] = rng.normal(size=CFG.width)
            out_n, out_e = decode_forward(CFG, params, memory, batch,
                                          input_offsets=offsets)
            others = np.arange(5) != step - 1
            assert np.array_equal(base_n.data[others], out_n.data[others])
            other_pairs = batch.pair_steps != step - 1
            assert np.array_equal(base_e.data[other_pairs], out_e.data[other_pairs])
            assert not np.array_equal(base_n.data[step - 1], out_n.data[step - 1])


def teacher_forced_score(cfg, params, memory, target) -> float:
    """Independent scorer: sum of log-softmax at the target labels/classes."""
    batch = build_decoder_batch(target)
    with ad.no_grad():
        node_logits, edge_logits = decode_forward(cfg, params, memory, batch)
    node_lp = ad.log_softmax_rows(node_logits).data
    edge_lp = ad.log_softmax_rows(edge_logits).data
    total = 0.0
    for row, t in zip(node_lp, batch.node_targets):
        total += row[t]
    for row, c in zip(edge_lp[:batch.n_target_pairs], batch.pair_target_classes):
        total += row[c]
    return total


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


def greedy(cfg, params, memory, max_nodes) -> dec.GeneratedGraph:
    return dec.generate_beam(cfg, params, memory, width=1, max_nodes=max_nodes)[0]


def assert_greedy_equals_beam_one(model, srcs, max_nodes):
    """TranslationModel.generate at width 1 against generate_beam at width 1,
    bit for bit, and both against the uncached greedy_reference: same graph
    and truncated flag, score within 1e-9."""
    top = model.generate(srcs, 1, max_nodes)
    with ad.no_grad():
        enc_h = encode(model.enc_cfg, model.params, model.source_input(srcs))
    beam = dec.generate_beam(model.dec_cfg, model.params, enc_h, 1, max_nodes)
    assert len(top) == len(beam) == 1
    assert beam[0].graph == top[0].graph
    assert beam[0].truncated == top[0].truncated
    assert beam[0].score == top[0].score
    reference = greedy_reference(model.dec_cfg, model.params, enc_h, max_nodes)
    assert beam[0].graph == reference.graph
    assert beam[0].truncated == reference.truncated
    assert abs(beam[0].score - reference.score) < 1e-9


class TestGeneration:
    def test_rigged_eog_yields_empty_graph(self):
        params = make_params(seed=12)
        params["dec.fl.w"].data[:] = 0.0
        params["dec.fl.b"].data[:] = 0.0
        params["dec.fl.b"].data[TOK_EOG] = 50.0
        out = greedy(CFG, params, random_memory(np.random.default_rng(13)), max_nodes=8)
        assert out.graph.n == 0 and not out.truncated

    def test_generated_graph_always_validates(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            params = make_params(seed=seed)
            out = greedy(CFG, params, random_memory(rng), max_nodes=6)
            assert gm.validate(out.graph) == []

    def test_truncation_flag_on_cap(self):
        params = make_params(seed=15)
        params["dec.fl.w"].data[:] = 0.0
        params["dec.fl.b"].data[:] = 0.0
        params["dec.fl.b"].data[FIRST_LABEL] = 50.0  # never chooses <EOG>
        out = greedy(CFG, params, random_memory(np.random.default_rng(16)), max_nodes=3)
        assert out.truncated and out.graph.n == 3

    def test_beam_width_one_equals_greedy(self):
        lv = gm.NodeLabelVocab(["A", "B", "C"])
        ev = gm.EdgeTypeVocab(["single", "double"])
        enc_cfg = EncoderConfig(layers=1, heads=2, width=CFG.width, ff_width=16, cond_hidden=4)
        rng = np.random.default_rng(17)
        for seed in range(10):
            model = TranslationModel.build(enc_cfg, CFG, lv, ev, seed=100 + seed)
            src = random_target(rng, k=int(rng.integers(1, 6)))
            assert_greedy_equals_beam_one(model, [src], max_nodes=5)

    def test_beam_width_one_equals_greedy_where_association_differed(self, tmp_path):
        # the generate workloads' model at data seed 13: on source 1 the old
        # greedy loop scored -0x1.05915f6d1bd30p+10 and beam width 1
        # -0x1.05915f6d1bd2fp+10, since they added a step's terms in
        # different orders
        path = tmp_path / "sources.jsonl"
        data.write_jsonl(path, data.gen_copy_dataset(64, 6, 4, 2, 13))
        dataset = data.load_dataset(path)
        cfg = RunConfig(task="translate", preset="desk")
        model = TranslationModel.build(cfg.encoder_config(), cfg.decoder_config(),
                                       dataset.label_vocab, dataset.edge_vocab, 13)
        model.params["dec.fl.b"].data[TOK_EOG] = -1e3
        assert_greedy_equals_beam_one(model, dataset.pairs[1][0], max_nodes=8)

    def test_cached_greedy_matches_uncached_reference(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            params = make_params(seed=100 + seed)
            memory = random_memory(rng)
            reference = greedy_reference(CFG, params, memory, max_nodes=5)
            cached = greedy(CFG, params, memory, max_nodes=5)
            assert cached.graph == reference.graph
            assert cached.truncated == reference.truncated
            assert abs(cached.score - reference.score) < 1e-9

    def test_step_log_probs_match_decode_forward(self):
        # several prefixes of one size share each batched step, so a leak
        # across the block-diagonal key set would show as well
        params = make_params(seed=24)
        rng = np.random.default_rng(25)
        worst = 0.0
        with ad.no_grad():
            for k in range(7):
                memory = random_memory(rng)
                targets = [random_target(rng, k=k) for _ in range(3)]
                full = []
                for t in targets:
                    batch = build_decoder_batch(t)
                    node_logits, edge_logits = decode_forward(CFG, params, memory, batch)
                    full.append((batch, ad.log_softmax_rows(node_logits).data,
                                 ad.log_softmax_rows(edge_logits).data))
                live = [dec._root(CFG) for _ in targets]
                cross_kv = dec._cross_keys_values(CFG, params, memory, "dec")
                for i in range(k + 1):
                    label_lp, edge_lp, caches = dec._step(CFG, params, cross_kv, live, "dec")
                    assert edge_lp.shape[:2] == (len(targets), i)
                    for h, (batch, node_ref, edge_ref) in enumerate(full):
                        worst = max(worst, np.max(np.abs(label_lp[h] - node_ref[i])))
                        if i:
                            rows = edge_ref[batch.pair_steps == i]
                            worst = max(worst, np.max(np.abs(edge_lp[h] - rows)))
                    live = [dec._Hypothesis(t.labels[:i + 1], t.edges[:i + 1, :i + 1], 0.0,
                                            caches[h]) for h, t in enumerate(targets)]
        assert worst < 1e-9

    def test_repeated_beam_decode_is_bitwise_identical(self):
        params = make_params(seed=26)
        memory = random_memory(np.random.default_rng(27))

        def decode():
            return [(r.graph.labels, r.graph.edges.tobytes(), r.score, r.truncated)
                    for r in dec.generate_beam(CFG, params, memory, width=8, max_nodes=6)]

        first = decode()
        assert len(first) == 8
        assert decode() == first

    def test_beam_scores_non_increasing(self):
        params = make_params(seed=18)
        results = dec.generate_beam(CFG, params, random_memory(np.random.default_rng(19)),
                                    width=4, max_nodes=4)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_max_nodes_beyond_context_rejected_before_decoding(self, monkeypatch):
        cfg = dataclasses.replace(CFG, max_context=9)  # 2*4+1: holds 4 nodes
        params = make_params(seed=22, cfg=cfg)
        memory = random_memory(np.random.default_rng(23))
        greedy(cfg, params, memory, max_nodes=4)
        dec.generate_beam(cfg, params, memory, width=2, max_nodes=4)
        calls = []
        monkeypatch.setattr(dec, "_step", lambda *args, **kw: calls.append(args))
        with pytest.raises(CapacityError):
            greedy(cfg, params, memory, max_nodes=5)
        with pytest.raises(CapacityError):
            dec.generate_beam(cfg, params, memory, width=2, max_nodes=5)
        assert calls == []

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_edge_config_beam_matches_exhaustive_enumeration(self, width):
        # rows are independent, so pruning each row to `width` keeps the
        # overall top `width`; scores sum the rows left to right
        rng = np.random.default_rng(40 + width)
        for n_hyp, n_rows, n_classes in ((1, 0, 3), (1, 4, 3), (3, 3, 2), (8, 5, 3)):
            edge_lp = np.log(rng.dirichlet(np.ones(n_classes), size=(n_hyp, n_rows)))
            got = dec._edge_config_beam(edge_lp, width)
            assert len(got) == n_hyp
            for rows, configs in zip(edge_lp, got):
                scored = []
                for classes in itertools.product(range(n_classes), repeat=n_rows):
                    score = 0.0
                    for row, c in zip(rows, classes):
                        score += float(row[c])
                    scored.append((-score, classes))
                expect = [(classes, -neg) for neg, classes in sorted(scored)[:width]]
                assert configs == expect
            # tied scores keep the order in which each row creates them
            tied = np.round(edge_lp, 1)
            assert dec._edge_config_beam(tied, width) == [
                tuple_config_beam(rows, width) for rows in tied.tolist()]

    def test_beam_width_zero_rejected(self):
        params = make_params(seed=20)
        with pytest.raises(ContractError):
            dec.generate_beam(CFG, params, random_memory(np.random.default_rng(21)),
                              width=0, max_nodes=4)

    @pytest.mark.parametrize("n_real_labels,width", [(1, 4), (2, 8)])
    def test_beam_top_score_matches_exhaustive_enumeration(self, n_real_labels, width):
        # tiny vocab, max 2 nodes: the beam provably covers the whole space,
        # so its best score must equal the exhaustive maximum
        n_labels = len(gm.RESERVED_LABEL_NAMES) + n_real_labels
        n_edge_types = len(gm.RESERVED_EDGE_NAMES) + 1
        for seed in range(6):
            params = dec.init_decoder_params(CFG, n_labels, n_edge_types,
                                             np.random.default_rng(200 + seed))
            memory = random_memory(np.random.default_rng(300 + seed))
            graphs = [gm.empty_graph()]
            for a in range(n_real_labels):
                graphs.append(gm.graph_from_edge_list([FIRST_LABEL + a], []))
                for b in range(n_real_labels):
                    for bond in (None, FIRST_EDGE):
                        edge_list = [] if bond is None else [(0, 1, bond)]
                        graphs.append(gm.graph_from_edge_list(
                            [FIRST_LABEL + a, FIRST_LABEL + b], edge_list))
            best = max(teacher_forced_score(CFG, params, memory, g) for g in graphs)
            top = dec.generate_beam(CFG, params, memory, width=width, max_nodes=2)[0]
            assert not top.truncated
            assert abs(top.score - best) < 1e-9
