"""Edge-conditioned attention: FiLM identity equivalence, conditioner
semantics, masking, encoder equivariance, and gradient flow."""

import numpy as np
import pytest

from grat import attention as att
from grat import autodiff as ad
from grat import graph as gm
from grat.attention import EncoderConfig
from grat.autodiff import Tensor
from grat.errors import CapacityError, ContractError, DimensionError
from grat.graph import Graph, GraphPermutation, NO_BOND, SELF, TOK_CLS, VIRTUAL

from oracles import (finite_difference_grad, multi_head_film_reference, relative_error,
                     softmax_row_highprec)

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


def fused_and_reference(rng, heads, nq, nk, film=True, mask=None, dk=3, dv=2):
    """Forward and every input gradient of the fused op and of the per-head
    reference, on random inputs and a random upstream gradient."""
    inputs = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((nq, heads * dk), (nk, heads * dk), (nk, heads * dv))]
    if film:
        inputs += [Tensor(rng.uniform(0.5, 1.5, size=(nq, nk)), requires_grad=True),
                   Tensor(rng.normal(size=(nq, nk)), requires_grad=True)]
    upstream = Tensor(rng.normal(size=(nq, heads * dv)))
    results = []
    for fn in (ad.multi_head_attention, multi_head_film_reference):
        for t in inputs:
            t.grad = None
        out, weights = fn(*inputs[:3], heads, *inputs[3:], mask=mask)
        ad.backward(ad.sum_(ad.mul(out, upstream)))
        results.append([out.data, weights] + [t.grad for t in inputs])
    return results


class TestFilmAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("film", [True, False])
    def test_matches_per_head_reference(self, heads, film):
        rng = np.random.default_rng(21 + heads)
        for nq, nk in ((4, 4), (3, 7), (5, 2)):
            mask = rng.random((nq, nk)) > 0.3
            mask[0] = False  # a fully masked row
            for m in (None, mask):
                fused, reference = fused_and_reference(rng, heads, nq, nk, film, m)
                for got, expect in zip(fused, reference):
                    assert got.shape == expect.shape
                    assert np.max(np.abs(got - expect)) < 1e-12

    def test_fully_masked_query_row_is_zero(self):
        rng = np.random.default_rng(25)
        mask = np.array([[False, False, False], [True, False, True]])
        (out, weights, dq, *_), _ = fused_and_reference(rng, 2, 2, 3, mask=mask)
        assert np.array_equal(out[0], np.zeros(4))
        assert np.array_equal(weights[:, 0], np.zeros((2, 3)))
        assert np.array_equal(dq[0], np.zeros(6))
        assert np.array_equal(weights[:, 1] == 0.0, np.broadcast_to(~mask[1], (2, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(26)
        mask = rng.random((3, 5)) > 0.3
        mask[:, 0] = True
        q, k, v = (Tensor(rng.normal(size=(r, 8)), requires_grad=True) for r in (3, 5, 5))
        gamma = Tensor(rng.uniform(0.5, 1.5, size=(3, 5)), requires_grad=True)
        beta = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        upstream = rng.normal(size=(3, 8))

        def loss():
            out, _ = ad.multi_head_attention(q, k, v, 4, gamma, beta, mask)
            return ad.sum_(ad.mul(out, Tensor(upstream)))

        ad.backward(loss())
        for t in (q, k, v, gamma, beta):
            idx = [np.unravel_index(i, t.shape) for i in range(t.data.size)]
            fd = finite_difference_grad(lambda: loss().item(), t.data, idx)
            for i, expect in fd.items():
                assert relative_error(t.grad[i], expect) <= 1e-6

    def test_identity_film_bitwise_equal_to_plain(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            heads = int(rng.choice([1, 2, 4]))
            nq, nk, dk = rng.integers(1, 6), rng.integers(1, 6), int(rng.integers(1, 8))
            q = Tensor(rng.normal(size=(nq, heads * dk)))
            k = Tensor(rng.normal(size=(nk, heads * dk)))
            v = Tensor(rng.normal(size=(nk, heads * dk)))
            mask = rng.random((nq, nk)) > 0.2 if rng.random() < 0.5 else None
            ones = Tensor(np.ones((nq, nk)))
            zeros = Tensor(np.zeros((nq, nk)))
            filmed, fw = ad.multi_head_attention(q, k, v, heads, ones, zeros, mask)
            plain, pw = ad.multi_head_attention(q, k, v, heads, mask=mask)
            assert np.array_equal(filmed.data, plain.data)
            assert np.array_equal(fw, pw)

    def test_single_surviving_key_returns_its_value(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(2, 4)))
        k = Tensor(rng.normal(size=(3, 4)))
        v = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([[False, True, False], [False, False, True]])
        ones, zeros = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        out, _ = ad.multi_head_attention(q, k, v, 2, ones, zeros, mask)
        assert np.allclose(out.data[0], v.data[1], atol=0)
        assert np.allclose(out.data[1], v.data[2], atol=0)

    def test_hand_scalars_match_softmax_oracle(self):
        q = Tensor([[1.0, 0.0], [0.0, 2.0]])
        k = Tensor([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        v = Tensor(np.eye(3))
        gamma = Tensor([[1.5, 1.0, 0.5], [2.0, 1.0, 1.0]])
        beta = Tensor([[0.1, -0.2, 0.0], [0.0, 0.3, -0.1]])
        _, weights = ad.multi_head_attention(q, k, v, 1, gamma, beta)
        logits = q.data @ k.data.T
        modulated = (gamma.data * logits + beta.data) / np.sqrt(2.0)
        for r in range(2):
            expect = softmax_row_highprec(modulated[r])
            assert np.max(np.abs(weights[0, r] - expect)) < 1e-12

    def test_heads_must_split_the_widths(self):
        q, k = Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6)))
        with pytest.raises(DimensionError):
            ad.multi_head_attention(q, k, Tensor(np.ones((3, 6))), 4)
        with pytest.raises(DimensionError):
            ad.multi_head_attention(q, k, Tensor(np.ones((3, 5))), 2)
        with pytest.raises(DimensionError):
            ad.multi_head_attention(q, k, Tensor(np.ones((2, 6))), 2)


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
            assert layer_ws.shape == (cfg.heads, g.n, g.n)
            for w in layer_ws:
                assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12
                assert w[0, 2] == 0.0 and w[0, 3] == 0.0


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
