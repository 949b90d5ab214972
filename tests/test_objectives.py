"""Losses and metrics: MAE aggregates, exact match, masking statistics, and
the batched recovery loss against a log-softmax oracle and the per-graph
composition."""

import dataclasses
import math

import numpy as np
import pytest

from grat import autodiff as ad
from grat import graph as gm
from grat import objectives as obj
from grat.attention import EncoderConfig, init_encoder_params
from grat.autodiff import Tensor
from grat.errors import ContractError
from grat.graph import Graph, MASK_EDGE, NO_BOND, SELF, TOK_MASK
from oracles import pretrain_loss_reference

FIRST_LABEL = len(gm.RESERVED_LABEL_NAMES)
FIRST_EDGE = len(gm.RESERVED_EDGE_NAMES)
CFG = EncoderConfig(layers=1, heads=2, width=8, ff_width=16, cond_hidden=4)


def chain_graph(k=4, props=None, node_features=None):
    labels = [FIRST_LABEL + (i % 3) for i in range(k)]
    edge_list = [(i, i + 1, FIRST_EDGE + (i % 2)) for i in range(k - 1)]
    return gm.graph_from_edge_list(labels, edge_list, properties=props,
                                   node_features=node_features)


class TestAggregateMetrics:
    def test_std_mae_examples(self):
        assert abs(obj.std_mae({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}) - 1.0) < 1e-12
        assert abs(obj.std_mae({"a": 3.0}, {"a": 2.0}) - 1.5) < 1e-12

    def test_log_mae_examples(self):
        e = math.e
        assert abs(obj.log_mae({"a": e, "b": e}) - 1.0) < 1e-12

    def test_permutation_invariance_over_tasks(self):
        maes = {"a": 0.5, "b": 1.5, "c": 2.5}
        stds = {"a": 1.0, "b": 2.0, "c": 0.5}
        flipped_maes = dict(reversed(list(maes.items())))
        assert obj.std_mae(maes, stds) == obj.std_mae(flipped_maes, stds)
        assert obj.log_mae(maes) == obj.log_mae(flipped_maes)

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            obj.std_mae({"a": 1.0}, {"a": 0.0})
        with pytest.raises(ContractError):
            obj.log_mae({"a": 0.0})


class TestExactMatch:
    def test_graph_matches_itself(self):
        g = chain_graph()
        assert obj.exact_match(g, g)

    def test_flipped_edge_type_differs(self):
        g = chain_graph()
        edges = np.array(g.edges)
        edges[0, 1] = edges[1, 0] = FIRST_EDGE + 1
        assert not obj.exact_match(g, Graph(labels=g.labels, edges=edges))

    def test_isomorphic_but_permuted_differs(self):
        g = chain_graph()
        perm = gm.GraphPermutation((3, 2, 1, 0))
        assert not obj.exact_match(g, gm.permute(g, perm))


class TestMaskGraph:
    def test_tiny_rate_masks_exactly_one_node(self):
        # as rate -> 0 the resample floor leaves exactly one masked node;
        # at rate 1e-3 with this seed the draw is deterministic
        g = chain_graph(k=6)
        sample = obj.mask_graph(g, rate=1e-3, rng=np.random.default_rng(1))
        assert len(sample.node_targets) == 1

    def test_seeded_run_reproducible(self):
        g = chain_graph(k=6)
        a = obj.mask_graph(g, 0.3, np.random.default_rng(7))
        b = obj.mask_graph(g, 0.3, np.random.default_rng(7))
        assert a.graph == b.graph
        assert a.node_targets == b.node_targets and a.edge_targets == b.edge_targets

    @pytest.mark.parametrize("feats", [None, np.arange(16.0).reshape(8, 2)])
    def test_targets_exactly_at_corrupted_positions(self, feats):
        g = chain_graph(k=8, node_features=feats)
        sample = obj.mask_graph(g, 0.4, np.random.default_rng(2))
        # feature rows are not masked: they stay with their nodes
        if feats is None:
            assert sample.graph.node_features is None
        else:
            assert np.array_equal(sample.graph.node_features, feats)
        for i, lab in enumerate(sample.graph.labels):
            assert (lab == TOK_MASK) == (i in sample.node_targets)
        for i in range(8):
            for j in range(i + 1, 8):
                corrupted = sample.graph.edges[i, j] == MASK_EDGE
                assert corrupted == ((i, j) in sample.edge_targets)
                if corrupted:
                    assert sample.edge_targets[(i, j)] == g.edges[i, j]

    def test_diagonal_never_touched(self):
        g = chain_graph(k=5)
        sample = obj.mask_graph(g, 0.9, np.random.default_rng(3))
        assert np.all(np.diagonal(sample.graph.edges) == SELF)

    def test_monte_carlo_rate(self):
        g = chain_graph(k=10)
        rng = np.random.default_rng(4)
        hits = 0
        trials = 10_000
        for _ in range(trials):
            sample = obj.mask_graph(g, 0.15, rng)
            hits += len(sample.node_targets)
        freq = hits / (trials * 10)
        # conditioning on >=1 mask nudges the rate up slightly; 0.02 absorbs it
        assert abs(freq - 0.15) < 0.02

    def test_empty_graph_rejected(self):
        with pytest.raises(ContractError):
            obj.mask_graph(gm.empty_graph(), 0.15, np.random.default_rng(5))

    def test_bad_rate_rejected(self):
        with pytest.raises(ContractError):
            obj.mask_graph(chain_graph(), 0.0, np.random.default_rng(6))


def build_pretrain_params(seed=0, n_labels=11, n_edge_types=7):
    rng = np.random.default_rng(seed)
    params = init_encoder_params(CFG, n_labels, n_edge_types, rng)
    params.update(obj.init_recovery_heads(CFG, n_labels, 3, rng))
    params.update(obj.init_property_head(CFG, 2, rng, hidden=8))
    return params


def loss_and_grads(params, build):
    """build()'s loss value and every parameter's gradient after backward."""
    for p in params.values():
        p.zero_grad()
    loss = build()
    ad.backward(loss)
    return loss.item(), {name: p.grad for name, p in params.items()}


def without_edge_targets(sample):
    return dataclasses.replace(sample, edge_targets={})


class TestPretrainLosses:
    def test_uniform_logits_give_log_vocab(self):
        params = build_pretrain_params()
        params["rec.fl.w"].data[:] = 0.0
        params["rec.fl.b"].data[:] = 0.0
        samples = [without_edge_targets(obj.mask_graph(chain_graph(k=k), 0.5,
                                                       np.random.default_rng(8 + k)))
                   for k in (4, 2, 6)]
        loss = obj.pretrain_loss(CFG, params, samples)
        assert abs(loss.item() - math.log(11)) < 1e-12

    def test_absent_graph_targets_give_zero(self):
        params = build_pretrain_params(seed=1)
        sample = obj.mask_graph(chain_graph(k=4), 0.5, np.random.default_rng(9))
        _, grads = loss_and_grads(params, lambda: obj.pretrain_loss(CFG, params, [sample]))
        assert grads["prop.o.w"] is None and grads["prop.h.w"] is None
        assert grads["rec.fl.w"] is not None

    def test_hand_built_sample_matches_log_softmax_oracle(self):
        params = build_pretrain_params(seed=2)
        g = chain_graph(k=2)
        sample = obj.MaskedGraphSample(
            graph=Graph(labels=(TOK_MASK, g.labels[1]),
                        edges=np.array([[SELF, MASK_EDGE], [MASK_EDGE, SELF]])),
            node_targets={0: g.labels[0]},
            edge_targets={(0, 1): int(g.edges[0, 1])},
        )
        loss = obj.pretrain_loss(CFG, params, [sample])

        from grat.attention import encode
        h = encode(CFG, params, gm.prepend_token(sample.graph, gm.TOK_CLS, gm.VIRTUAL))
        fl = h.data[1] @ params["rec.fl.w"].data + params["rec.fl.b"].data
        lse = np.log(np.exp(fl - fl.max()).sum()) + fl.max()
        node_loss = lse - fl[g.labels[0]]

        red = h.data @ params["rec.fp.w"].data + params["rec.fp.b"].data
        pair = np.concatenate([red[1], red[2]])
        hid = np.maximum(pair @ params["rec.fe1.w"].data + params["rec.fe1.b"].data, 0.0)
        fe = hid @ params["rec.fe2.w"].data + params["rec.fe2.b"].data
        lse_e = np.log(np.exp(fe - fe.max()).sum()) + fe.max()
        from grat.decoder import edge_class_of_type
        edge_loss = lse_e - fe[edge_class_of_type(int(g.edges[0, 1]))]
        assert abs(loss.item() - (node_loss + edge_loss)) < 1e-10

    def test_no_masked_position_rejected(self):
        params = build_pretrain_params(seed=3)
        masked = obj.mask_graph(chain_graph(k=3), 0.5, np.random.default_rng(3))
        g = chain_graph(k=2)
        for targets in ({}, {(0, 1): int(g.edges[0, 1])}):
            unmasked = obj.MaskedGraphSample(graph=g, node_targets={}, edge_targets=targets)
            with pytest.raises(ContractError, match="no masked node"):
                obj.pretrain_loss(CFG, params, [masked, unmasked])

    def test_total_loss_grads_flow_into_encoder_and_heads(self):
        params = build_pretrain_params(seed=4)
        g = chain_graph(k=5, props=None)
        sample = obj.mask_graph(g, 0.5, np.random.default_rng(10))
        loss = obj.pretrain_loss(CFG, params, [sample], graph_targets=np.array([[0.5, -1.0]]))
        ad.backward(loss)
        for name in ("enc.embed", "enc.cond.onehot", "rec.fl.w", "rec.fe2.w", "prop.o.w"):
            assert params[name].grad is not None, name
            assert np.all(np.isfinite(params[name].grad)), name

    @pytest.mark.parametrize("sizes, edgeless, targets", [
        ((5, 1, 7, 3, 2), (), False),
        ((5, 1, 7, 3, 2), (), True),
        ((4, 6, 2), (1,), False),
        ((4, 6, 2), (1,), True),
        ((4, 1, 6, 2), (0, 1, 2, 3), False),
        ((4, 1, 6, 2), (0, 1, 2, 3), True),
        ((6,), (), True),
    ], ids=["ragged", "ragged-targets", "one-edgeless", "one-edgeless-targets",
            "no-masked-edge", "no-masked-edge-targets", "single"])
    def test_matches_per_graph_oracle(self, sizes, edgeless, targets):
        """One padded pass scores each graph as its own encode does: the loss
        and every gradient match the per-graph composition."""
        params = build_pretrain_params(seed=5)
        rng = np.random.default_rng(11)
        samples = [obj.mask_graph(chain_graph(k=k), 0.6, rng) for k in sizes]
        samples = [without_edge_targets(s) if b in edgeless else s
                   for b, s in enumerate(samples)]
        has_edges = [bool(s.edge_targets) for s in samples]
        assert not any(has_edges[b] for b in edgeless)
        assert any(has_edges) == (len(edgeless) < len(sizes))
        graph_targets = rng.normal(size=(len(sizes), 2)) if targets else None
        got, got_grads = loss_and_grads(
            params, lambda: obj.pretrain_loss(CFG, params, samples, graph_targets))
        expect, expect_grads = loss_and_grads(
            params, lambda: pretrain_loss_reference(CFG, params, samples, graph_targets))
        assert abs(got - expect) <= 1e-12
        for name, grad in expect_grads.items():
            if grad is None:
                assert got_grads[name] is None, name
            else:
                assert np.max(np.abs(got_grads[name] - grad)) <= 1e-12, name
