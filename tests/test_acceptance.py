"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5, 9 and 10 are here; the learning-run criteria 6-8 are not yet.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import math
import time

import numpy as np
import pytest

from grat import autodiff as ad
from grat import attention as att
from grat import data as dt
from grat import decoder as dec
from grat import graph as gm
from grat import objectives as obj
from grat import smiles as sm
from grat.autodiff import Tensor
from grat.checkpoint import load_checkpoint, save_checkpoint
from grat.decoder import DecoderConfig, build_decoder_batch, decode_forward
from grat.graph import Graph, GraphPermutation
from grat.training import (TranslationModel, config_from_dict, evaluate_property,
                           evaluate_translation, train)

from oracles import (finite_difference_grad, greedy_reference, multi_head_film_reference,
                     relative_error)

FIRST_LABEL = len(gm.RESERVED_LABEL_NAMES)
FIRST_EDGE = len(gm.RESERVED_EDGE_NAMES)


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_target(rng, k_max=6, n_labels=3, n_edge_types=2, k=None):
    k = int(rng.integers(0, k_max + 1)) if k is None else k
    labels = [FIRST_LABEL + int(rng.integers(0, n_labels)) for _ in range(k)]
    edge_list = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.4:
                edge_list.append((i, j, FIRST_EDGE + int(rng.integers(0, n_edge_types))))
    return gm.graph_from_edge_list(labels, edge_list)


def random_source_graph(rng, n=5, n_labels=3, n_edge_types=2):
    g = random_target(rng, k=n, n_labels=n_labels, n_edge_types=n_edge_types)
    return gm.prepend_token(g, gm.TOK_REACTANT, gm.VIRTUAL)


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle


def _mini_network(params, mask):
    """One forward touching every tensor op in the engine."""
    x, w1, b1, gain, bias, w2, table, gamma, beta = params
    h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
    h = ad.layer_norm(h, gain, bias)
    h = ad.relu(ad.add(h, 0.3))
    rows = ad.embedding_gather(table, np.array([0, 2, 1]))
    h = ad.concat([h, rows], axis=0)
    attw = ad.softmax_rows(ad.matmul(h, ad.transpose(h)), mask=mask)
    h = ad.mul(ad.matmul(attw, h), w2)
    film, _ = ad.multi_head_attention(h, ad.tanh(h), ad.sub(h, 0.2), 2, gamma, beta, mask)
    h = ad.add(h, film)
    top = ad.reshape(h[0:2], (2 * h.shape[1],))
    ls = ad.log_softmax_rows(ad.matmul(h, ad.transpose(ad.sub(h, 0.1))))
    return ad.add(ad.add(ad.mean(ad.absolute(top)), ad.sum_(ls)), ad.mean(h, axis=0)[1])


def _fused_network(params, mask):
    """The fused ops: affine, layer norm over a residual sum, and attention
    over a batch of two 3-row sequences. Kept apart from _mini_network, whose
    loss of several hundred would drown their gradients in finite-difference
    roundoff."""
    x, w, b, gain, bias, gamma, beta = params
    h = ad.layer_norm(ad.affine(x, w, b), gain, bias, residual=x)
    h = ad.concat([h, ad.tanh(x)], axis=0)
    out, _ = ad.multi_head_attention(h, ad.tanh(h), ad.sub(h, 0.2), 2, gamma, beta, mask)
    return ad.sum_(ad.tanh(out))


def test_criterion_1_gradient_oracle():
    start = time.time()
    worst = 0.0
    # 20 random mini-networks covering every op, the fused attention op with
    # non-identity FiLM among them, alone and over a batch of two sequences
    # (_fused_network)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = 4
        params = (
            Tensor(rng.normal(size=(3, d)), requires_grad=True),
            Tensor(rng.normal(size=(d, d)) * 0.5, requires_grad=True),
            Tensor(rng.normal(size=d) * 0.1, requires_grad=True),
            Tensor(rng.uniform(0.5, 1.5, size=d), requires_grad=True),
            Tensor(rng.normal(size=d) * 0.1, requires_grad=True),
            Tensor(rng.uniform(0.5, 1.5, size=(6, d)), requires_grad=True),
            Tensor(rng.normal(size=(3, d)), requires_grad=True),
            Tensor(rng.uniform(0.5, 1.5, size=(6, 6)), requires_grad=True),
            Tensor(rng.normal(size=(6, 6)) * 0.5, requires_grad=True),
        )
        mask = rng.random((6, 6)) > 0.2
        mask[:, 0] = True
        fused_params = (
            Tensor(rng.normal(size=(3, d)), requires_grad=True),
            Tensor(rng.normal(size=(d, d)) * 0.5, requires_grad=True),
            Tensor(rng.normal(size=d) * 0.1, requires_grad=True),
            Tensor(rng.uniform(0.5, 1.5, size=d), requires_grad=True),
            Tensor(rng.normal(size=d) * 0.1, requires_grad=True),
            Tensor(rng.uniform(0.5, 1.5, size=(2, 3, 3)), requires_grad=True),
            Tensor(rng.normal(size=(2, 3, 3)) * 0.5, requires_grad=True),
        )
        batch_mask = rng.random((2, 3, 3)) > 0.2
        batch_mask[:, :, 0] = True
        batch_mask[1, 2] = False  # a fully masked row
        for network, net_params, net_mask in ((_mini_network, params, mask),
                                              (_fused_network, fused_params, batch_mask)):
            loss = network(net_params, net_mask)
            ad.backward(loss)
            for t in net_params:
                picks = rng.choice(t.data.size, size=min(3, t.data.size), replace=False)
                idx = [np.unravel_index(int(i), t.data.shape) for i in picks]
                fd = finite_difference_grad(lambda: network(net_params, net_mask).item(),
                                            t.data, idx)
                for i, expect in fd.items():
                    worst = max(worst, relative_error(t.grad[i], expect))

    # full encoder + decoder at the desk preset
    cfg = config_from_dict({"task": "translate"})
    lv = gm.NodeLabelVocab(["A", "B", "C"])
    ev = gm.EdgeTypeVocab(["single", "double"])
    model = TranslationModel.build(cfg.encoder_config(), cfg.decoder_config(),
                                   lv, ev, seed=5)
    # a padded batch of two pairs of different sizes
    rng = np.random.default_rng(77)
    srcs = [random_source_graph(rng, n=5), random_source_graph(rng, n=3)]
    batches = [build_decoder_batch(random_target(rng, k=4)),
               build_decoder_batch(random_target(rng, k=2))]

    def full_loss():
        return model.batch_loss(srcs, batches)

    loss = full_loss()
    ad.backward(loss)
    rng_pick = np.random.default_rng(78)
    for name, p in model.params.items():
        assert p.grad is not None, f"no gradient for {name}"
        picks = rng_pick.choice(p.data.size, size=min(2, p.data.size), replace=False)
        idx = [np.unravel_index(int(i), p.data.shape) for i in picks]
        fd = finite_difference_grad(lambda: full_loss().item(), p.data, idx)
        for i, expect in fd.items():
            err = relative_error(p.grad[i], expect)
            assert err <= 1e-5, f"{name}[{i}]: AD {p.grad[i]} vs FD {expect}"
            worst = max(worst, err)
    elapsed = time.time() - start
    report(1, worst <= 1e-5 and elapsed < 120,
           f"max rel err {worst:.2e} over mini-nets + desk encoder/decoder, "
           f"{elapsed:.0f}s (< 120s)")


def test_criterion_2_identity_film_bitwise():
    rng = np.random.default_rng(2)
    all_equal, worst = True, 0.0
    for _ in range(100):
        heads = int(rng.choice([1, 2, 4]))
        nq, nk = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dk = int(rng.integers(1, 9))
        q = Tensor(rng.normal(size=(nq, heads * dk)))
        k = Tensor(rng.normal(size=(nk, heads * dk)))
        v = Tensor(rng.normal(size=(nk, heads * int(rng.integers(1, 9)))))
        mask = rng.random((nq, nk)) > 0.25 if rng.random() < 0.5 else None
        filmed, fw = ad.multi_head_attention(q, k, v, heads, Tensor(np.ones((nq, nk))),
                                             Tensor(np.zeros((nq, nk))), mask)
        plain, pw = ad.multi_head_attention(q, k, v, heads, mask=mask)
        reference, _ = multi_head_film_reference(q, k, v, heads, mask=mask)
        worst = max(worst, float(np.max(np.abs(plain.data - reference.data))))
        if not (np.array_equal(filmed.data, plain.data) and np.array_equal(fw, pw)):
            all_equal = False
            break
    report(2, all_equal and worst < 1e-12,
           f"identity FiLM bitwise equal to plain attention in the fused op, 100 cases; "
           f"plain within {worst:.1e} of the per-head reference")


def test_criterion_3_two_path_equivalence():
    dec_cfg = DecoderConfig(layers=2, heads=4, width=64, ff_width=128,
                            cond_hidden=16, pair_width=64, fe_hidden=256)
    params = dec.init_decoder_params(dec_cfg, 11, 7, np.random.default_rng(3))
    rng = np.random.default_rng(33)
    worst = 0.0
    with ad.no_grad():
        for _ in range(50):
            target = random_target(rng, k=int(rng.integers(0, 11)))
            memory = Tensor(rng.normal(size=(int(rng.integers(1, 8)), 64)))
            full = build_decoder_batch(target)
            node_logits, edge_logits = decode_forward(dec_cfg, params, memory, full)
            for i in range(1, target.n + 2):
                prefix = Graph(labels=target.labels[:i - 1],
                               edges=target.edges[:i - 1, :i - 1])
                pnode, pedge = decode_forward(dec_cfg, params, memory,
                                              build_decoder_batch(prefix))
                worst = max(worst, float(np.max(np.abs(
                    pnode.data[-1] - node_logits.data[i - 1]))))
                if i > 1:
                    rows = edge_logits.data[full.pair_steps == i - 1]
                    worst = max(worst, float(np.max(np.abs(pedge.data[-(i - 1):] - rows))))
    report(3, worst < 1e-9,
           f"teacher-forced vs sequential-prefix logits, max |diff| {worst:.2e} (< 1e-9)")


def test_criterion_4_causality_isolation():
    dec_cfg = DecoderConfig(layers=2, heads=2, width=32, ff_width=64,
                            cond_hidden=8, pair_width=16, fe_hidden=32)
    params = dec.init_decoder_params(dec_cfg, 11, 7, np.random.default_rng(4))
    rng = np.random.default_rng(44)
    exact = True
    for trial in range(50):
        k = int(rng.integers(2, 8))
        target = random_target(rng, k=k)
        memory = Tensor(rng.normal(size=(4, 32)))
        batch = build_decoder_batch(target)
        with ad.no_grad():
            base_n, base_e = decode_forward(dec_cfg, params, memory, batch)
        if trial % 2 == 0:
            # perturb a future node's label and edges, rebuild, compare prefix
            j = int(rng.integers(1, k + 1))
            labels = list(target.labels)
            labels[j - 1] = FIRST_LABEL + (labels[j - 1] - FIRST_LABEL + 1) % 3
            edges = np.array(target.edges)
            for other in range(k):
                if other != j - 1:
                    cur = edges[j - 1, other]
                    edges[j - 1, other] = edges[other, j - 1] = \
                        gm.NO_BOND if cur != gm.NO_BOND else FIRST_EDGE
            mutated = Graph(labels=tuple(labels), edges=edges)
            with ad.no_grad():
                mut_n, mut_e = decode_forward(dec_cfg, params, memory,
                                              build_decoder_batch(mutated))
            past = batch.pair_steps <= j - 1
            if not (np.array_equal(base_n.data[:j], mut_n.data[:j])
                    and np.array_equal(base_e.data[past], mut_e.data[past])):
                exact = False
                break
        else:
            # nudge one earlier <G> input; only that step's own logits may move
            step = int(rng.integers(1, k + 1))
            offsets = np.zeros((2 * batch.k + 1, dec_cfg.width))
            offsets[2 * (step - 1)] = rng.normal(size=dec_cfg.width)
            with ad.no_grad():
                out_n, out_e = decode_forward(dec_cfg, params, memory, batch,
                                              input_offsets=offsets)
            others = np.arange(k + 1) != step - 1
            other_pairs = batch.pair_steps != step - 1
            if not (np.array_equal(base_n.data[others], out_n.data[others])
                    and np.array_equal(base_e.data[other_pairs], out_e.data[other_pairs])):
                exact = False
                break
    report(4, exact, "future-node and earlier-<G> perturbations leave past logits "
                     "bitwise unchanged, 50 trials")


def test_criterion_5_permutation_invariance():
    cfg = config_from_dict({"task": "property"}).encoder_config()
    assert not cfg.use_positional_encoding
    params = att.init_encoder_params(cfg, 11, 7, np.random.default_rng(5))
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(5):
        g = random_target(rng, k=int(rng.integers(3, 9)))
        with_cls = gm.prepend_token(g, gm.TOK_CLS, gm.VIRTUAL)
        with ad.no_grad():
            base = att.readout_cls(att.encode(cfg, params, with_cls)).data
        for _ in range(20):
            inner = GraphPermutation(tuple(rng.permutation(g.n)))
            full = GraphPermutation((0,) + tuple(i + 1 for i in inner.mapping))
            with ad.no_grad():
                out = att.readout_cls(att.encode(
                    cfg, params, gm.permute(with_cls, full))).data
            worst = max(worst, float(np.max(np.abs(out - base))))
    report(5, worst <= 1e-8,
           f"readout under 20 node permutations x 5 graphs, max |diff| {worst:.2e} (<= 1e-8)")


def test_criterion_9_metrics_and_beam_width_one():
    ok_std = abs(obj.std_mae({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}) - 1.0) < 1e-12
    ok_log = abs(obj.log_mae({"a": math.e, "b": math.e}) - 1.0) < 1e-12
    enc_cfg = att.EncoderConfig(layers=1, heads=2, width=16, ff_width=32, cond_hidden=4)
    dec_cfg = DecoderConfig(layers=1, heads=2, width=16, ff_width=32, cond_hidden=4,
                            pair_width=8, fe_hidden=16)
    lv = gm.NodeLabelVocab(["A", "B", "C"])
    ev = gm.EdgeTypeVocab(["single", "double"])
    agree = True
    for seed in range(100):
        model = TranslationModel.build(enc_cfg, dec_cfg, lv, ev, seed=9000 + seed)
        srcs = [random_source_graph(np.random.default_rng(9500 + seed), n=3)]
        greedy = model.generate(srcs, 1, 4)[0]
        with ad.no_grad():
            memory = att.encode(enc_cfg, model.params, model.source_input(srcs))
        top = dec.generate_beam(dec_cfg, model.params, memory, width=1, max_nodes=4)[0]
        reference = greedy_reference(dec_cfg, model.params, memory, max_nodes=4)
        if not (top.graph == greedy.graph == reference.graph
                and top.truncated == greedy.truncated == reference.truncated
                and top.score == greedy.score
                and abs(top.score - reference.score) < 1e-9):
            agree = False
            break
    report(9, ok_std and ok_log and agree,
           "stdMAE/logMAE worked examples exact; beam-1 identical to greedy, score "
           "included, and within 1e-9 of uncached greedy, on 100 random models")


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    lv = gm.NodeLabelVocab(["C", "N", "O", "A", "B"])
    ev = gm.EdgeTypeVocab(["single", "double", "triple"])
    graphs_ok = True
    for i in range(1000):
        n = int(rng.integers(1, 10))
        g = random_target(rng, k=n, n_labels=5, n_edge_types=3)
        if i % 3 == 0:
            g = Graph(labels=g.labels, edges=g.edges,
                      properties={"y": float(rng.normal())}, delim=gm.TOK_REACTANT)
        if gm.parse(gm.serialize(g, lv, ev), lv, ev) != g:
            graphs_ok = False
            break

    ckpt_ok = True
    path = tmp_path / "roundtrip.ckpt"
    for i in range(1000):
        n_tensors = int(rng.integers(1, 4))
        params = {}
        for t in range(n_tensors):
            shape = tuple(int(x) for x in rng.integers(1, 5, size=2))
            params[f"p{t}"] = Tensor(rng.normal(size=shape), requires_grad=True)
        save_checkpoint(path, params, {"i": i})
        loaded = load_checkpoint(path)
        if not all(np.array_equal(loaded.params[k].data, params[k].data)
                   for k in params):
            ckpt_ok = False
            break

    corpus = [
        "C", "C=O", "C1CC1", "CC(=O)O", "N#N", "ClCCl", "BrC=CBr", "O=C=O",
        "C1CCCCC1", "C1=CC=CC=C1", "CC(C)(C)C", "C(F)(F)F", "S=P", "ICI",
        "CC(=O)NC", "C1CC1C2CC2", "C12CC1C2", "CC(C(C(C)))C", "HOH", "C#CC#C",
        "C(C(C(C)))", "CC(N(C)C)C", "O1CCOCC1", "C1CC2CCC1CC2", "FC(F)(F)C(F)(F)F",
        "S1SSSS1", "C(=O)(O)C(=O)O", "N(C)(C)C", "C#N", "P(O)(O)O",
        "C1CCC1", "C1CCCC1", "CCCCCCCCCC", "C(Br)(Cl)I", "CC=CC#CC",
        "C1=CC=CC=C1C2=CC=CC=C2", "NC(=O)C", "OS(=O)O", "CN1CCC1", "CC12CC1C2",
        "C(C)(C)(C)C", "ClC(Cl)(Cl)Cl", "NN=NN", "CC(=N)C", "SCC(S)CS",
        "O=C1CCC1", "C1C(C1)C", "CCC(CC)(CC)CC", "IC#CI", "HC(H)(H)H",
    ]
    assert len(corpus) == 50
    smiles_ok = True
    for s in corpus:
        g = sm.parse_smiles_lite(s)
        back = sm.parse_smiles_lite(sm.write_smiles_lite(g))
        if back != gm.permute(g, sm.dfs_order_permutation(g)):
            smiles_ok = False
            break
    report(10, graphs_ok and ckpt_ok and smiles_ok,
           "1000 graph serialize/parse + 1000 checkpoint round trips bit-exact; "
           "50-string corpus parse/write isomorphic")
