"""Edge-conditioned attention: FiLM identity equivalence, conditioner
semantics, masking, encoder equivariance, and gradient flow."""

import dataclasses
import functools

import numpy as np
import pytest

from grat import attention as att
from grat import autodiff as ad
from grat import graph as gm
from grat.attention import EncoderConfig
from grat.autodiff import Tensor
from grat.errors import CapacityError, ContractError, DimensionError
from grat.graph import Graph, GraphPermutation, NO_BOND, SELF, TOK_CLS, VIRTUAL

from oracles import (attention_of_one, edge_gamma_beta_per_pair, finite_difference_grad,
                     multi_head_film_reference, relative_error, softmax_row_highprec)

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

    # every shape holds more than one pair: on a single row numpy's matmul takes
    # its vector path, and the per-pair reference can round one ulp apart
    @pytest.mark.parametrize("shape", [(16, 13, 13), (8, 2, 9)],
                             ids=["batched-square", "decoder-step"])
    def test_table_matches_per_pair_oracle(self, shape):
        params = make_params(seed=5)
        rng = np.random.default_rng(6)
        for name in ("enc.cond.out.w", "enc.cond.out.b"):
            params[name].data = rng.normal(size=params[name].shape)
        edges = rng.integers(0, 7, size=shape)
        upstream = [Tensor(rng.normal(size=shape)) for _ in range(2 * CFG.layers)]
        results = []
        for fn in (att.edge_gamma_beta, edge_gamma_beta_per_pair):
            for p in params.values():
                p.grad = None
            gammas, betas = fn(params, "enc.cond", edges, CFG.layers)
            outputs = gammas + betas
            ad.backward(functools.reduce(ad.add, [ad.sum_(ad.mul(t, up))
                                                  for t, up in zip(outputs, upstream)]))
            results.append(([t.data for t in outputs],
                            {name: p.grad.copy() for name, p in params.items()
                             if ".cond." in name}))
        (outputs, grads), (ref_outputs, ref_grads) = results
        for got, expect in zip(outputs, ref_outputs):
            assert got.shape == shape and np.array_equal(got, expect)
        assert set(grads) == {"enc.cond.onehot", "enc.cond.b1", "enc.cond.out.w",
                              "enc.cond.out.b"}
        for name, expect in ref_grads.items():
            np.testing.assert_allclose(grads[name], expect, rtol=1e-12, atol=0, err_msg=name)

    def test_tape_does_not_grow_with_pairs(self, monkeypatch):
        """The MLP runs on the V rows of the edge vocabulary, whatever the
        number of pairs, so a larger edge matrix records no more nodes."""
        params = make_params()
        recorded, affine_rows = [], []
        make, affine = ad._make, ad.affine
        monkeypatch.setattr(ad, "_make", lambda *args: recorded.append(1) or make(*args))
        monkeypatch.setattr(ad, "affine",
                            lambda x, w, b: affine_rows.append(x.shape[0]) or affine(x, w, b))
        counts = []
        for shape in ((2, 2), (16, 13, 13)):
            before = len(recorded)
            att.edge_gamma_beta(params, "enc.cond", np.full(shape, SELF), CFG.layers)
            counts.append(len(recorded) - before)
        assert counts[0] == counts[1] > 0
        assert affine_rows == [params["enc.cond.onehot"].shape[0]] * 2


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
    for fn in (attention_of_one, multi_head_film_reference):
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

    @pytest.mark.parametrize("film", [True, False])
    def test_batch_matches_separate_calls(self, film):
        # a ragged batch: sequence b has sizes[b] queries and key_sizes[b] keys,
        # either padded to the longest with padding rows and columns masked
        # and sizes that fill the grid (padded), or packed back to back with
        # the real sizes given (packed), where the op must mask the padding
        # itself. The last sequence has keys but no queries, as a finished
        # request has in batched generation.
        rng = np.random.default_rng(31)
        heads, dk, dv = 2, 3, 2
        sizes, key_sizes = np.array([3, 5, 1, 0]), np.array([4, 2, 6, 3])
        batch, n, nk = 4, sizes.max(), key_sizes.max()
        real_q = np.arange(n) < sizes[:, None]
        real_k = np.arange(nk) < key_sizes[:, None]
        real = real_q[:, :, None] & real_k[:, None, :]
        structure = rng.random((batch, n, nk)) > 0.2
        padded = [rng.normal(size=shape) for shape in
                  ((batch * n, heads * dk), (batch * nk, heads * dk), (batch * nk, heads * dv))]
        pairs = ([rng.uniform(0.5, 1.5, size=(batch, n, nk)), rng.normal(size=(batch, n, nk))]
                 if film else [])
        # the loss reads real rows only, as the batched losses do
        upstream = rng.normal(size=(batch * n, heads * dv)) * real_q.reshape(-1, 1)
        alone = []
        for b in range(batch):
            rows = slice(b * n, b * n + sizes[b])
            keys = slice(b * nk, b * nk + key_sizes[b])
            cell = (b, slice(0, sizes[b]), slice(0, key_sizes[b]))
            parts = [Tensor(a[part], requires_grad=True)
                     for a, part in zip(padded + pairs, (rows, keys, keys, cell, cell))]
            out, weights = attention_of_one(*parts[:3], heads, *parts[3:], mask=structure[cell])
            ad.backward(ad.sum_(ad.mul(out, Tensor(upstream[rows]))))
            alone.append((out.data, weights, [t.grad for t in parts]))

        starts, key_starts = np.cumsum(sizes) - sizes, np.cumsum(key_sizes) - key_sizes
        for packed in (False, True):
            if packed:
                q_rows, k_rows = real_q.reshape(-1), real_k.reshape(-1)
                inputs = [Tensor(a[part], requires_grad=True)
                          for a, part in zip(padded, (q_rows, k_rows, k_rows))]
                layout = {"mask": structure, "sizes": (sizes.tolist(), key_sizes.tolist())}
                row_starts, key_row_starts, loss_rows = starts, key_starts, upstream[q_rows]
            else:
                inputs = [Tensor(a, requires_grad=True) for a in padded]
                layout = {"mask": structure & real, "sizes": ([n] * batch, [nk] * batch)}
                row_starts, key_row_starts = np.arange(batch) * n, np.arange(batch) * nk
                loss_rows = upstream
            inputs += [Tensor(a, requires_grad=True) for a in pairs]
            out, weights = ad.multi_head_attention(*inputs[:3], heads, *inputs[3:], **layout)
            ad.backward(ad.sum_(ad.mul(out, Tensor(loss_rows))))
            assert out.shape == (len(loss_rows), heads * dv)
            assert weights.shape == (batch, heads, n, nk)
            for b, (alone_out, alone_weights, alone_grads) in enumerate(alone):
                rows = slice(row_starts[b], row_starts[b] + sizes[b])
                keys = slice(key_row_starts[b], key_row_starts[b] + key_sizes[b])
                cell = (b, slice(0, sizes[b]), slice(0, key_sizes[b]))
                assert np.max(np.abs(out.data[rows] - alone_out), initial=0.0) < 1e-12
                assert np.max(np.abs(weights[b][:, cell[1], cell[2]] - alone_weights),
                              initial=0.0) < 1e-12
                for t, part, single in zip(inputs, (rows, keys, keys, cell, cell), alone_grads):
                    assert np.max(np.abs(t.grad[part] - single), initial=0.0) < 1e-12
                if not sizes[b]:    # keys that no query reads learn nothing
                    for t in inputs[1:3]:
                        assert t.grad[keys].size and not t.grad[keys].any()
            # padding pairs get zero weight and, with padding rows and keys,
            # exactly zero gradient
            assert not weights.transpose(1, 0, 2, 3)[:, ~real].any()
            if not packed:
                assert not inputs[0].grad[~real_q.reshape(-1)].any()
                for t in inputs[1:3]:
                    assert not t.grad[~real_k.reshape(-1)].any()
            for t in inputs[3:]:
                assert not t.grad[~real].any()

    def test_batch_shape_errors(self):
        q, k = Tensor(np.ones((6, 4))), Tensor(np.ones((4, 4)))
        with pytest.raises(DimensionError):  # a 2-d mask has no batch axis
            ad.multi_head_attention(q, k, k, 2, mask=np.ones((6, 4), dtype=bool),
                                    sizes=([6], [4]))
        with pytest.raises(DimensionError):  # the mask's batch is not the sizes'
            ad.multi_head_attention(q, k, k, 2, mask=np.ones((3, 3, 2), dtype=bool),
                                    sizes=([3, 3], [2, 2]))
        # packed: 5 query and 4 key rows of two sequences on a (2, 3, 3) grid
        q, grid = Tensor(np.ones((5, 4))), np.ones((2, 3, 3), dtype=bool)
        out, _ = ad.multi_head_attention(q, k, k, 2, mask=grid, sizes=([3, 2], [1, 3]))
        assert out.shape == (5, 4)
        for sizes in (([3, 1], [1, 3]),         # queries sum to 4, not 5
                      ([3, 2], [2, 3]),         # keys sum to 5, not 4
                      ([1, 4], [1, 3]),         # 4 queries exceed the grid's 3
                      ([3, 2], [4, 0]),         # 4 keys exceed the grid's 3
                      ([6, -1], [1, 3]),        # a negative count
                      ([3, 2, 0], [1, 3, 0]),   # three sequences on a grid of two
                      ([3, 2], [4]),            # one key count for two sequences
                      ([], [])):                # no sequences
            with pytest.raises(DimensionError):
                ad.multi_head_attention(q, k, k, 2, mask=grid, sizes=sizes)
        with pytest.raises(DimensionError):     # no grid: counts must still sum
            ad.multi_head_attention(q, k, k, 2, sizes=([3, 3], [1, 3]))

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
            out, _ = attention_of_one(q, k, v, 4, gamma, beta, mask)
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
            filmed, fw = attention_of_one(q, k, v, heads, ones, zeros, mask)
            plain, pw = attention_of_one(q, k, v, heads, mask=mask)
            assert np.array_equal(filmed.data, plain.data)
            assert np.array_equal(fw, pw)

    def test_single_surviving_key_returns_its_value(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(2, 4)))
        k = Tensor(rng.normal(size=(3, 4)))
        v = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([[False, True, False], [False, False, True]])
        ones, zeros = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        out, _ = attention_of_one(q, k, v, 2, ones, zeros, mask)
        assert np.allclose(out.data[0], v.data[1], atol=0)
        assert np.allclose(out.data[1], v.data[2], atol=0)

    def test_hand_scalars_match_softmax_oracle(self):
        q = Tensor([[1.0, 0.0], [0.0, 2.0]])
        k = Tensor([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
        v = Tensor(np.eye(3))
        gamma = Tensor([[1.5, 1.0, 0.5], [2.0, 1.0, 1.0]])
        beta = Tensor([[0.1, -0.2, 0.0], [0.0, 0.3, -0.1]])
        _, weights = attention_of_one(q, k, v, 1, gamma, beta)
        logits = q.data @ k.data.T
        modulated = (gamma.data * logits + beta.data) / np.sqrt(2.0)
        for r in range(2):
            expect = softmax_row_highprec(modulated[r])
            assert np.max(np.abs(weights[0, r] - expect)) < 1e-12

    def test_heads_must_split_the_widths(self):
        q, k = Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6)))
        with pytest.raises(DimensionError):
            attention_of_one(q, k, Tensor(np.ones((3, 6))), 4)
        with pytest.raises(DimensionError):
            attention_of_one(q, k, Tensor(np.ones((3, 5))), 2)
        with pytest.raises(DimensionError):
            attention_of_one(q, k, Tensor(np.ones((2, 6))), 2)


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

    @pytest.mark.parametrize("feature_width", [0, 3])
    def test_permutation_equivariance_without_positional_encoding(self, feature_width):
        cfg = dataclasses.replace(CFG, node_feature_dim=feature_width)
        params = make_params(cfg, seed=8)
        rng = np.random.default_rng(9)
        g = small_graph(rng, n=6)
        if feature_width:
            g = Graph(g.labels, g.edges, node_features=rng.normal(size=(6, feature_width)))
        h = att.encode(cfg, params, g)
        for _ in range(5):
            perm = GraphPermutation(tuple(rng.permutation(6)))
            hp = att.encode(cfg, params, gm.permute(g, perm))
            assert np.max(np.abs(hp.data[list(perm.mapping)] - h.data)) < 1e-8

    @pytest.mark.parametrize("options", [{}, {"node_feature_dim": 3},
                                         {"use_positional_encoding": True},
                                         {"neighbor_only": True}],
                             ids=["plain", "features", "positions", "neighbor-only"])
    def test_batch_rows_match_per_graph_encode(self, options):
        # graph b's rows follow the earlier graphs' rows, and equal its own pass
        cfg = dataclasses.replace(CFG, **options)
        params = make_params(cfg, seed=10)
        rng = np.random.default_rng(11)
        graphs = [small_graph(rng, n=n) for n in (3, 6, 1, 4)]
        if cfg.node_feature_dim:
            graphs = [Graph(g.labels, g.edges, node_features=rng.normal(size=(g.n, 3)))
                      for g in graphs]
        h = att.encode_batch(cfg, params, graphs).data
        assert h.shape == (sum(g.n for g in graphs), cfg.width)
        start = 0
        for g in graphs:
            alone = att.encode(cfg, params, g).data
            assert np.max(np.abs(h[start:start + g.n] - alone)) < 1e-12
            start += g.n

    def test_node_features_reach_the_output(self):
        cfg = dataclasses.replace(CFG, node_feature_dim=2)
        params = make_params(cfg, seed=20)
        g = gm.graph_from_edge_list([8, 9, 10], [(0, 1, 5)], node_features=np.ones((3, 2)))
        other = Graph(g.labels, g.edges, node_features=np.array([[1.0, 1.0], [1.0, 1.0],
                                                                [1.0, -1.0]]))
        h, h_other = att.encode(cfg, params, g).data, att.encode(cfg, params, other).data
        assert np.max(np.abs(h - h_other)) > 1e-3

    @pytest.mark.parametrize("encoder_width, graph_width", [(0, 3), (3, 0), (3, 2)],
                             ids=["unconfigured", "missing", "mismatched"])
    def test_node_features_the_encoder_cannot_use_rejected(self, encoder_width, graph_width):
        cfg = dataclasses.replace(CFG, node_feature_dim=encoder_width)
        params = make_params(cfg)
        feats = np.ones((2, graph_width)) if graph_width else None
        g = gm.graph_from_edge_list([8, 9], [(0, 1, 5)], node_features=feats)
        with pytest.raises(ContractError, match=f"node features of width {encoder_width}, "
                                                f"graph has width {graph_width}"):
            att.encode(cfg, params, g)

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
        _, collected = att.encode_batch(cfg, params, [g], collect_attention=True)
        for layer_ws in collected:
            assert layer_ws.shape == (1, cfg.heads, g.n, g.n)
            for w in layer_ws[0]:
                assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12
                assert w[0, 2] == 0.0 and w[0, 3] == 0.0


class TestReadout:
    def test_returns_first_row(self):
        rng = np.random.default_rng(15)
        h = Tensor(rng.normal(size=(5, 8)))
        assert np.array_equal(att.readout_cls(h, [5]).data, h.data[:1])
        assert att.readout_cls(h, [5]).shape == (1, 8)
        # packed graphs of 2 and 3 rows: each graph's first row
        assert np.array_equal(att.readout_cls(h, [2, 3]).data, h.data[[0, 2]])

    def test_cls_invariant_to_non_cls_permutations(self):
        params = make_params(seed=16)
        rng = np.random.default_rng(17)
        g = small_graph(rng, n=5)
        with_cls = gm.prepend_token(g, TOK_CLS, VIRTUAL)
        base = att.readout_cls(att.encode(CFG, params, with_cls), [with_cls.n]).data
        for _ in range(5):
            inner = GraphPermutation(tuple(rng.permutation(5)))
            full = GraphPermutation((0,) + tuple(i + 1 for i in inner.mapping))
            out = att.readout_cls(att.encode(CFG, params, gm.permute(with_cls, full)),
                                  [with_cls.n]).data
            assert np.max(np.abs(out - base)) < 1e-8


def test_all_params_get_finite_grads_from_cls_loss():
    params = make_params(seed=18)
    rng = np.random.default_rng(19)
    g = small_graph(rng, n=4)
    with_cls = gm.prepend_token(g, TOK_CLS, VIRTUAL)

    def loss_value():
        h = att.encode(CFG, params, with_cls)
        return ad.sum_(ad.tanh(att.readout_cls(h, [with_cls.n]))).item()

    loss = ad.sum_(ad.tanh(att.readout_cls(att.encode(CFG, params, with_cls), [with_cls.n])))
    ad.backward(loss)
    rng_pick = np.random.default_rng(20)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name
        idx = np.unravel_index(int(rng_pick.integers(p.data.size)), p.data.shape)
        fd = finite_difference_grad(loss_value, p.data, [idx])
        assert relative_error(p.grad[idx], fd[idx]) <= 1e-5, name
