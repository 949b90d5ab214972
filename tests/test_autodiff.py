"""Tensor engine: op semantics, backward rules against finite differences,
masked softmax contracts, and the Adam recurrence."""

import numpy as np
import pytest

from grat import autodiff as ad
from grat.autodiff import Tensor
from grat.errors import ContractError, DimensionError, NumericError

from oracles import (adam_unrolled, add_layer_norm_reference, affine_reference,
                     finite_difference_grad, matmul, matmul_triple_loop, relative_error,
                     reshape, softmax_row_highprec, softmax_rows, transpose)


def test_matmul_identity():
    m = Tensor([[3.0, -1.0], [2.5, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_sum():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - matmul_triple_loop(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_symmetry_and_single_survivor():
    out = softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=0)
    masked = softmax_rows(Tensor([[7.3, 100.0]]), mask=np.array([[True, False]]))
    assert np.array_equal(masked.data, [[1.0, 0.0]])


def test_softmax_matches_highprec_oracle():
    row = [1.0, 2.0, 3.0]
    got = softmax_rows(Tensor([row])).data[0]
    expect = softmax_row_highprec(row)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 9)) * 10)
    mask = rng.random((6, 9)) > 0.3
    mask[0] = True
    out = softmax_rows(x, mask=mask)
    sums = out.data.sum(axis=-1)
    live = mask.any(axis=-1)
    assert np.all(np.abs(sums[live] - 1.0) < 1e-12)
    assert np.all(out.data[~mask] == 0.0)


def test_softmax_fully_masked_row_is_zero_not_nan():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    mask = np.array([[False, False], [True, True]])
    out = softmax_rows(x, mask=mask)
    assert np.array_equal(out.data[0], [0.0, 0.0])
    assert not np.any(np.isnan(out.data))


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((2, 5), 3.7))
    out = ad.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.allclose(out.data, 0.0)


def test_elementwise_basics():
    assert ad.tanh(Tensor(0.0)).data == 0.0
    table = Tensor(np.arange(12.0).reshape(4, 3))
    row = ad.take(table, np.array([2]))
    assert np.array_equal(row.data, [[6.0, 7.0, 8.0]])


def test_backward_sum_gives_ones_and_square_gives_2w():
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    ad.backward(ad.sum_(w))
    assert np.array_equal(w.grad, np.ones(3))
    w.grad = None
    ad.backward(ad.sum_(ad.mul(w, w)))
    assert np.array_equal(w.grad, 2 * w.data)


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.mul(w, 2.0))


def test_gradient_accumulates_across_fanout():
    w = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.add(ad.mul(w, 2.0), ad.mul(w, 5.0))
    ad.backward(ad.sum_(y))
    assert np.array_equal(w.grad, [7.0])


def _composite_network(params, mask):
    """Touches every op: matmul, add, sub, mul, tanh, relu, abs, concat,
    slice, gather, reshape, transpose, softmax (masked), log-softmax,
    layer_norm, mean, sum."""
    x, w1, b1, gain, bias, w2, table = params
    h = ad.tanh(ad.add(matmul(x, w1), b1))
    h = ad.layer_norm(h, gain, bias)
    h = ad.relu(ad.add(h, 0.3))
    rows = ad.take(table, np.array([0, 2, 1]))
    h = ad.concat([h, rows], axis=0)
    att = softmax_rows(matmul(h, transpose(h)), mask=mask)
    h = matmul(att, h)
    h = ad.mul(h, w2)
    top = h[0:2]
    flat = reshape(top, (top.data.size,))
    ls = ad.log_softmax_rows(matmul(h, transpose(ad.sub(h, 0.1))))
    return ad.add(ad.add(ad.mean(ad.absolute(flat)), ad.sum_(ls)), ad.mean(h, axis=0)[1])


def test_composite_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    d = 4
    x = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(d, d)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=d) * 0.1, requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, size=d), requires_grad=True)
    bias = Tensor(rng.normal(size=d) * 0.1, requires_grad=True)
    w2 = Tensor(rng.uniform(0.5, 1.5, size=(6, d)), requires_grad=True)
    table = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    mask = rng.random((6, 6)) > 0.2
    mask[:, 0] = True
    params = (x, w1, b1, gain, bias, w2, table)

    loss = _composite_network(params, mask)
    ad.backward(loss)

    for tensor in params:
        flat_idx = [np.unravel_index(i, tensor.data.shape)
                    for i in rng.choice(tensor.data.size, size=min(4, tensor.data.size),
                                        replace=False)]
        fd = finite_difference_grad(
            lambda: _composite_network(params, mask).item(), tensor.data, flat_idx)
        for idx, expect in fd.items():
            assert relative_error(tensor.grad[idx], expect) <= 1e-5


def _grads(build, inputs, upstream):
    """Output and input gradients of build(*inputs) under sum(out * upstream)."""
    for t in inputs:
        t.grad = None
    out = build(*inputs)
    ad.backward(ad.sum_(ad.mul(out, Tensor(upstream))))
    return out.data, [t.grad.copy() for t in inputs]


@pytest.mark.parametrize("fused, reference, shapes", [
    (ad.affine, affine_reference, [(5, 3), (3, 4), (4,)]),
    (lambda x, r, g, b: ad.layer_norm(x, g, b, residual=r), add_layer_norm_reference,
     [(5, 6), (5, 6), (6,), (6,)]),
])
def test_fused_ops_match_composed_forms(fused, reference, shapes):
    rng = np.random.default_rng(11)
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    upstream = rng.normal(size=fused(*inputs).shape)
    out, grads = _grads(fused, inputs, upstream)
    ref_out, ref_grads = _grads(reference, inputs, upstream)
    assert np.abs(out - ref_out).max() <= 1e-12
    for got, expect in zip(grads, ref_grads):
        assert np.abs(got - expect).max() <= 1e-12


def test_fused_op_shape_errors():
    with pytest.raises(DimensionError):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
    with pytest.raises(DimensionError):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                      residual=Tensor(np.ones((3, 3))))


@pytest.mark.parametrize("idx", [0, slice(1, 4), slice(None, None, 2), (slice(None), 1),
                                 (2, slice(0, 2)), (Ellipsis, 2), np.array([0, 2, 2, 4])])
def test_take_backward_matches_scatter_add(idx):
    # basic indices assign their gradient, fancy ones scatter-add duplicates
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    out = ad.take(a, idx)
    upstream = rng.normal(size=out.shape)
    ad.backward(ad.sum_(ad.mul(out, Tensor(upstream))))
    expect = np.zeros((5, 3))
    np.add.at(expect, idx, upstream)
    assert np.array_equal(a.grad, expect)


@pytest.mark.parametrize("ids", [np.array([0, 4]), np.array([[1], [-1]])],
                         ids=["past-the-end", "negative"])
def test_take_rejects_row_ids_out_of_range(ids):
    with pytest.raises(ContractError, match="out of range for 4 rows"):
        ad.take(Tensor(np.zeros((4, 3))), ids)


def test_no_grad_suppresses_recording():
    w = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.sum_(ad.mul(w, w))
    assert not y.requires_grad
    with pytest.raises(ContractError):
        ad.backward(y)


def test_determinism_forward_and_grads():
    def run():
        rng = np.random.default_rng(42)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)))
        loss = ad.sum_(ad.tanh(matmul(x, w)))
        ad.backward(loss)
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


class TestAdam:
    def test_first_step_is_lr_times_sign(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.05, eps=0.0)
        p.grad = np.array([0.3, -4.0])
        opt.step()
        assert np.allclose(p.data, [1.0 - 0.05, -2.0 + 0.05], atol=1e-15)

    def test_zero_grad_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = ad.Adam({"p": p})
        p.grad = np.zeros(2)
        opt.step()
        opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_two_steps_match_unrolled_recurrence(self):
        p = Tensor(np.array([0.7]), requires_grad=True)
        opt = ad.Adam({"p": p}, lr=1e-3)
        for _ in range(2):
            p.grad = np.array([0.9])
            opt.step()
        expect = adam_unrolled(0.7, 0.9, steps=2, lr=1e-3)
        assert abs(p.data[0] - expect) < 1e-12

    def test_nan_grad_aborts_with_parameter_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([1.0]), requires_grad=True)
        opt = ad.Adam({"alpha": p, "beta": q})
        p.grad = np.array([1.0])
        q.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="beta"):
            opt.step()
        assert opt.t == 0
        assert np.array_equal(p.data, [1.0])
