"""Edge-conditioned attention: FiLM identity equivalence, conditioner
semantics, masking, encoder equivariance, and gradient flow."""

import numpy as np
import pytest

from grat import attention as att
from grat import autodiff as ad
from grat import graph as gm
from grat.attention import EncoderConfig
from grat.autodiff import Tensor
from grat.errors import CapacityError, ContractError
from grat.graph import Graph, GraphPermutation, NO_BOND, SELF, TOK_CLS, VIRTUAL

from oracles import finite_difference_grad, relative_error, softmax_row_highprec

CFG = EncoderConfig(layers=2, heads=2, width=8, ff_width=16, cond_hidden=4)


def small_graph(rng, n=4, n_labels=3, n_edge_types=2, density=0.5):
    labels = [int(rng.integers(0, n_labels)) + len(gm.RESERVED_LABEL_NAMES)
              for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, len(gm.RESERVED_EDGE_NAMES) + int(rng.integers(0, n_edge_types))))
    return gm.graph_from_edge_list(labels, edges)


def make_params(cfg=CFG, n_labels=11, n_edge_types=7, seed=0):
    return att.init_encoder_params(cfg, n_labels, n_edge_types, np.random.default_rng(seed))


class TestConditioner:
    def test_zero_init_gives_identity_film(self):
        params = make_params()
        edges = np.array([[2, 5], [5, 2]])
        gammas, betas = att.edge_gamma_beta(params, "enc.cond", edges, CFG.layers)
        for g, b in zip(gammas, betas):
            assert np.array_equal(g.data, np.ones((2, 2)))
            assert np.array_equal(b.data, np.zeros((2, 2)))

    def test_same_edge_type_same_pair(self):
        params = make_params()
        rng = np.random.default_rng(1)
        params["enc.cond.out.w"].data[:] = rng.normal(size=params["enc.cond.out.w"].shape)
        edges = np.array([
            [2, 6, 0, 0],
            [6, 2, 0, 0],
            [0, 0, 2, 6],
            [0, 0, 6, 2]])
        gammas, betas = att.edge_gamma_beta(params, "enc.cond", edges, CFG.layers)
        for stack in (gammas, betas):
            for m in stack:
                assert m.data[0, 1] == m.data[2, 3]
                assert m.data[0, 1] != m.data[0, 0]

    def test_matches_per_pair_reevaluation_oracle(self):
        params = make_params(seed=3)
        rng = np.random.default_rng(4)
        params["enc.cond.out.w"].data[:] = rng.normal(size=params["enc.cond.out.w"].shape)
        params["enc.cond.out.b"].data[:] = rng.normal(size=params["enc.cond.out.b"].shape)
        edges = np.array([[2, 5, 0], [5, 2, 6], [0, 6, 2]])
        gammas, betas = att.edge_gamma_beta(params, "enc.cond", edges, CFG.layers)
        w1 = params["enc.cond.onehot"].data
        b1 = params["enc.cond.b1"].data
        w2 = params["enc.cond.out.w"].data
        b2 = params["enc.cond.out.b"].data
        for i in range(3):
            for j in range(3):
                onehot = np.zeros(w1.shape[0])
                onehot[edges[i, j]] = 1.0
                raw = np.tanh(onehot @ w1 + b1) @ w2 + b2
                for layer in range(CFG.layers):
                    assert abs(gammas[layer].data[i, j] - (1.0 + raw[2 * layer])) < 1e-12
                    assert abs(betas[layer].data[i, j] - raw[2 * layer + 1]) < 1e-12

    def test_unknown_edge_id_rejected(self):
        params = make_params()
        with pytest.raises(ContractError, match="edge id"):
            att.edge_gamma_beta(params, "enc.cond", np.array([[2, 99], [99, 2]]), CFG.layers)


class TestFilmAttention:
    def test_identity_film_bitwise_equal_to_plain(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            nq, nk, dk = rng.integers(1, 6), rng.integers(1, 6), int(rng.integers(1, 8))
            q = Tensor(rng.normal(size=(nq, dk)))
            k = Tensor(rng.normal(size=(nk, dk)))
            v = Tensor(rng.normal(size=(nk, dk)))
            mask = rng.random((nq, nk)) > 0.2 if rng.random() < 0.5 else None
            ones = Tensor(np.ones((nq, nk)))
            zeros = Tensor(np.zeros((nq, nk)))
            filmed, fw = att.film_attention(q, k, v, ones, zeros, mask)
            plain, pw = att.film_attention(q, k, v, mask=mask)
            assert np.array_equal(filmed.data, plain.data)
            assert np.array_equal(fw.data, pw.data)

    def test_single_surviving_key_returns_its_value(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(2, 4)))
        k = Tensor(rng.normal(size=(3, 4)))
        v = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([[False, True, False], [False, False, True]])
        ones, zeros = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        out, _ = att.film_attention(q, k, v, ones, zeros, mask)
        assert np.allclose(out.data[0], v.data[1], atol=0)
        assert np.allclose(out.data[1], v.data[2], atol=0)

    def test_hand_scalars_match_softmax_oracle(self):
        q = Tensor([[1.0, 0.0], [0.0, 2.0]])
        k = Tensor([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        v = Tensor(np.eye(3))
        gamma = Tensor([[1.5, 1.0, 0.5], [2.0, 1.0, 1.0]])
        beta = Tensor([[0.1, -0.2, 0.0], [0.0, 0.3, -0.1]])
        _, weights = att.film_attention(q, k, v, gamma, beta)
        logits = q.data @ k.data.T
        modulated = (gamma.data * logits + beta.data) / np.sqrt(2.0)
        for r in range(2):
            expect = softmax_row_highprec(modulated[r])
            assert np.max(np.abs(weights.data[r] - expect)) < 1e-12

    def test_fully_masked_query_row_is_zero(self):
        q = Tensor(np.ones((2, 3)))
        kv = Tensor(np.ones((2, 3)))
        mask = np.array([[False, False], [True, True]])
        ones, zeros = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))
        out, w = att.film_attention(q, kv, kv, ones, zeros, mask)
        assert np.array_equal(out.data[0], np.zeros(3))
        assert not np.any(np.isnan(out.data))
        assert ~mask[0].any()


class TestNeighborMask:
    def test_disabled_is_all_true(self):
        edges = np.array([[SELF, NO_BOND], [NO_BOND, SELF]])
        assert att.neighbor_mask(edges, False).all()

    def test_path_masks_non_neighbors(self):
        g = gm.graph_from_edge_list([8, 8, 8], [(0, 1, 5), (1, 2, 5)])
        m = att.neighbor_mask(g.edges, True)
        assert not m[0, 2] and not m[2, 0]
        assert m[0, 1] and m[1, 2] and m[0, 0] and m[1, 1]

    def test_random_matches_entrywise_oracle(self):
        rng = np.random.default_rng(7)
        g = small_graph(rng, n=6)
        m = att.neighbor_mask(g.edges, True)
        for i in range(6):
            for j in range(6):
                assert m[i, j] == (g.edges[i, j] != NO_BOND)


class TestEncode:
    def test_single_node_shape_and_finite(self):
        params = make_params()
        g = gm.graph_from_edge_list([8], [])
        h = att.encode(CFG, params, g)
        assert h.shape == (1, CFG.width)
        assert np.all(np.isfinite(h.data))

    def test_permutation_equivariance_without_positional_encoding(self):
        params = make_params(seed=8)
        rng = np.random.default_rng(9)
        g = small_graph(rng, n=6)
        h = att.encode(CFG, params, g)
        for _ in range(5):
            perm = GraphPermutation(tuple(rng.permutation(6)))
            hp = att.encode(CFG, params, gm.permute(g, perm))
            assert np.max(np.abs(hp.data[list(perm.mapping)] - h.data)) < 1e-8

    def test_positional_encoding_breaks_equivariance(self):
        cfg = EncoderConfig(layers=1, heads=2, width=8, ff_width=16, cond_hidden=4,
                            use_positional_encoding=True)
        params = att.init_encoder_params(cfg, 11, 7, np.random.default_rng(10))
        g = gm.graph_from_edge_list([8, 9, 10], [(0, 1, 5)])
        h = att.encode(cfg, params, g)
        perm = GraphPermutation((2, 1, 0))
        hp = att.encode(cfg, params, gm.permute(g, perm))
        assert np.max(np.abs(hp.data[list(perm.mapping)] - h.data)) > 1e-4

    def test_deterministic_for_identical_inputs(self):
        params = make_params(seed=11)
        rng = np.random.default_rng(12)
        g = small_graph(rng, n=5)
        twin = Graph(labels=g.labels, edges=g.edges.copy())
        assert np.array_equal(att.encode(CFG, params, g).data,
                              att.encode(CFG, params, twin).data)

    def test_capacity_error(self):
        cfg = EncoderConfig(layers=1, heads=1, width=4, ff_width=4, cond_hidden=2,
                            max_context=3)
        params = att.init_encoder_params(cfg, 11, 7, np.random.default_rng(13))
        g = gm.graph_from_edge_list([8, 8, 8, 8], [])
        with pytest.raises(CapacityError):
            att.encode(cfg, params, g)

    def test_attention_rows_sum_to_one_and_masked_pairs_zero(self):
        cfg = EncoderConfig(layers=2, heads=2, width=8, ff_width=16, cond_hidden=4,
                            neighbor_only=True)
        params = att.init_encoder_params(cfg, 11, 7, np.random.default_rng(14))
        g = gm.graph_from_edge_list([8, 9, 8, 10], [(0, 1, 5), (1, 2, 6), (2, 3, 5)])
        _, collected = att.encode(cfg, params, g, collect_attention=True)
        for layer_ws in collected:
            for w in layer_ws:
                assert np.max(np.abs(w.data.sum(axis=-1) - 1.0)) < 1e-12
                assert w.data[0, 2] == 0.0 and w.data[0, 3] == 0.0


class TestReadout:
    def test_returns_first_row(self):
        rng = np.random.default_rng(15)
        h = Tensor(rng.normal(size=(5, 8)))
        assert np.array_equal(att.readout_cls(h).data, h.data[0])
        assert att.readout_cls(h).shape == (8,)

    def test_cls_invariant_to_non_cls_permutations(self):
        params = make_params(seed=16)
        rng = np.random.default_rng(17)
        g = small_graph(rng, n=5)
        with_cls = gm.prepend_token(g, TOK_CLS, VIRTUAL)
        base = att.readout_cls(att.encode(CFG, params, with_cls)).data
        for _ in range(5):
            inner = GraphPermutation(tuple(rng.permutation(5)))
            full = GraphPermutation((0,) + tuple(i + 1 for i in inner.mapping))
            out = att.readout_cls(att.encode(CFG, params, gm.permute(with_cls, full))).data
            assert np.max(np.abs(out - base)) < 1e-8


def test_all_params_get_finite_grads_from_cls_loss():
    params = make_params(seed=18)
    rng = np.random.default_rng(19)
    g = small_graph(rng, n=4)
    with_cls = gm.prepend_token(g, TOK_CLS, VIRTUAL)

    def loss_value():
        return ad.sum_(ad.tanh(att.readout_cls(att.encode(CFG, params, with_cls)))).item()

    loss = ad.sum_(ad.tanh(att.readout_cls(att.encode(CFG, params, with_cls))))
    ad.backward(loss)
    rng_pick = np.random.default_rng(20)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name
        idx = np.unravel_index(int(rng_pick.integers(p.data.size)), p.data.shape)
        fd = finite_difference_grad(loss_value, p.data, [idx])
        assert relative_error(p.grad[idx], fd[idx]) <= 1e-5, name
