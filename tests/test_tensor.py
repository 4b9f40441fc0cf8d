import inspect
import math
import re
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import ref_attention
from scipy.special import erf, log_softmax

from bicameral import tensor as T
from bicameral.gradcheck import check_gradients, numeric_gradient, run_op_battery
from bicameral.tensor import (AdamState, GraphError, ShapeError, Tensor,
                              adam_step, build_graph)


def rand(rng, *shape, lo=-2.0, hi=2.0, grad=True):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def probe(rng, shape):
    """A fixed random linear functional of a [*shape] output:
    binary_cross_entropy is linear in its label argument."""
    w = Tensor(rng.uniform(0.15, 0.85, size=shape))
    return lambda out: T.binary_cross_entropy(w, out)


def total(out):
    """sum(out) plus a constant: with p = 1 / (1 + e) and unit weights,
    binary_cross_entropy(p, y) has slope log((1 - p) / p) = 1 in each y."""
    p = Tensor(np.full(out.shape, 1.0 / (1.0 + math.e)))
    return T.binary_cross_entropy(p, out, weights=np.ones(out.shape[:-1]))


def attention_weights(scores):
    """The causal attention weights for a [T, T] score matrix: one head
    with k = v = I, so the op returns the weights themselves."""
    t = len(scores)
    eye = Tensor(np.eye(t))
    return T.causal_attention(Tensor(np.asarray(scores) * math.sqrt(t)), eye, eye, 1).data


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_zero(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[0.0], [0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_grad_of_sum_is_rowsums_of_b(self):
        rng = np.random.default_rng(7)
        a = rand(rng, 3, 4)
        b = rand(rng, 4, 2)
        total(T.matmul(a, b)).backward()
        # d sum(a @ b) / da broadcasts the row sums of b across a's rows
        expected = np.tile(b.data.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_gradcheck_fd(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        res = check_gradients("matmul", lambda: total(T.matmul(a, b)),
                              [a, b], step=1e-5, rtol=1e-6)
        assert res.ok, res.row()

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_group_forms_match_per_member_products(self):
        rng = np.random.default_rng(12)
        a, w = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 2))
        grouped = T.matmul(Tensor(a), Tensor(w)).data
        for ix in np.ndindex(2, 3):
            np.testing.assert_allclose(grouped[ix], a[ix] @ w, rtol=1e-12)

    # the towers' widths, the 27-wide vocabulary head and a 1-wide score head
    @pytest.mark.parametrize("k, p", [(64, 64), (64, 256), (256, 64), (64, 27), (32, 1)])
    def test_rows_are_bitwise_invariant_across_lengths(self, k, p):
        rng = np.random.default_rng(k + p)
        a, w = Tensor(rng.normal(size=(100, k))), Tensor(rng.normal(size=(k, p)))
        full = T.matmul(a, w).data
        for t in range(1, 101):
            assert T.matmul(Tensor(a.data[:t]), w).data.tobytes() == full[:t].tobytes()
            row = T.matmul(Tensor(a.data[t - 1:t]), w, start=t - 1).data
            assert row.tobytes() == full[t - 1:t].tobytes()

    # the last case is a per-member right operand, which no op needs
    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3, 4)), ((2, 3, 4), (3, 4, 5)),
                                        ((2, 3, 4), (5, 2)),
                                        ((2, 2, 3, 4), (2, 3, 4, 5)),
                                        ((2, 2, 3, 4), (2, 4, 5)),
                                        ((2, 3, 4), (2, 4, 5))])
    def test_group_shape_errors(self, shapes):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros(shapes[0])), Tensor(np.zeros(shapes[1])))


class TestSoftmax:
    """The max-subtracted softmax inside ``causal_attention``."""

    def test_uniform_on_equal_logits(self):
        out = attention_weights(np.zeros((3, 3)))
        np.testing.assert_allclose(out[2], [1 / 3] * 3, atol=1e-15)

    def test_no_overflow_on_extreme_logits(self):
        out = attention_weights([[0.0, 0.0], [1000.0, 0.0]])
        np.testing.assert_allclose(out[1], [1.0, 0.0], atol=1e-12)

    def test_against_high_precision_formula(self):
        with mpmath.workdps(50):
            exps = [mpmath.exp(x) for x in (1, 2, 3)]
            expected = [float(e / sum(exps)) for e in exps]
        out = attention_weights([[0.0] * 3, [0.0] * 3, [1.0, 2.0, 3.0]])
        np.testing.assert_allclose(out[2], expected, rtol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2]), st.data())
    def test_rows_sum_to_one(self, t, n_heads, data):
        # scores up to ~1e200 in size: exp would overflow without the max
        qk = arrays(np.float64, (2, t, 4), elements=st.floats(-1e100, 1e100))
        q, k = data.draw(qk), data.draw(qk)
        row = data.draw(arrays(np.float64, 4, elements=st.floats(-10, 10)))
        v = np.broadcast_to(row, (2, t, 4))
        out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), n_heads).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, np.broadcast_to(row, out.shape),
                                   rtol=1e-12, atol=1e-12)

    def test_masked_entries_get_zero_probability(self):
        out = attention_weights(np.random.default_rng(4).normal(size=(4, 4)))
        assert not np.triu(out, k=1).any()
        assert (out[np.tril_indices(4)] > 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-12)


class TestCausalAttention:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_matches_per_head_reference(self, n_heads, lead):
        rng = np.random.default_rng(n_heads)
        q, k, v = (rng.normal(size=lead + (5, 8)) for _ in range(3))
        got = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), n_heads).data
        for ix in np.ndindex(*lead):
            np.testing.assert_allclose(got[ix], ref_attention(q[ix], k[ix], v[ix], n_heads),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 31, 32, 33, 64, 65, 100])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_matches_reference_across_blocks(self, t, lead):
        rng = np.random.default_rng(t)
        q, k, v = (rng.normal(size=lead + (t, 8)) for _ in range(3))
        got = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        for ix in np.ndindex(*lead):
            np.testing.assert_allclose(got[ix], ref_attention(q[ix], k[ix], v[ix], 2),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_later_rows_leave_earlier_rows_bitwise_equal(self, lead):
        # 70 rows cross two block boundaries
        rng = np.random.default_rng(5)
        for t in (6, 70):
            q, k, v = (rng.normal(size=lead + (t, 8)) for _ in range(3))
            out = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
            for i in range(t):
                k2, v2 = k.copy(), v.copy()
                k2[..., i + 1:, :] = rng.normal(scale=100.0, size=k2[..., i + 1:, :].shape)
                v2[..., i + 1:, :] = rng.normal(scale=100.0, size=v2[..., i + 1:, :].shape)
                out2 = T.causal_attention(Tensor(q), Tensor(k2), Tensor(v2), 2).data
                assert out2[..., :i + 1, :].tobytes() == out[..., :i + 1, :].tobytes()

    @pytest.mark.parametrize("t", [1, 32, 33, 100, 256])
    def test_output_is_bitwise_equal_with_and_without_a_graph(self, t):
        rng = np.random.default_rng(t)
        q, k, v = (rng.normal(size=(2, t, 16)) for _ in range(3))

        def run(grad):
            return T.causal_attention(*(Tensor(x, requires_grad=grad) for x in (q, k, v)), 4)

        with_graph = run(True)
        assert with_graph.requires_grad
        with T.no_grad():
            without = run(True)
        assert not without.requires_grad
        for other in (without, run(False)):
            assert other.data.tobytes() == with_graph.data.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_queries_of_the_last_rows_match_the_full_pass(self, n):
        rng = np.random.default_rng(n)
        for t in (n, 33, 64, 70):
            q, k, v = (rng.normal(size=(2, t, 16)) for _ in range(3))
            full = T.causal_attention(Tensor(q), Tensor(k), Tensor(v), 4).data
            last = T.causal_attention(Tensor(q[:, t - n:]), Tensor(k), Tensor(v), 4).data
            assert last.tobytes() == full[:, t - n:].tobytes()

    def test_gradcheck_with_queries_of_the_last_rows(self):
        rng = np.random.default_rng(41)
        q, k, v = rand(rng, 5, 4), rand(rng, 37, 4), rand(rng, 37, 4)
        loss = probe(rng, (5, 4))
        res = check_gradients("causal_attention", lambda: loss(T.causal_attention(q, k, v, 2)),
                              [q, k, v])
        assert res.ok, res.row()

    def test_gradcheck_across_a_block_boundary(self):
        rng = np.random.default_rng(40)
        q, k, v = rand(rng, 40, 4), rand(rng, 40, 4), rand(rng, 40, 4)
        loss = probe(rng, (40, 4))
        res = check_gradients("causal_attention", lambda: loss(T.causal_attention(q, k, v, 2)),
                              [q, k, v])
        assert res.ok, res.row()

    def test_no_grad_pass_keeps_no_weight_matrix(self):
        # the [4, 256, 256] weights alone would take 2 MiB
        rng = np.random.default_rng(8)
        q, k, v = (Tensor(rng.normal(size=(256, 64))) for _ in range(3))
        tracemalloc.start()
        try:
            with T.no_grad():
                T.causal_attention(q, k, v, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_masked_keys_pass_no_gradient(self):
        rng = np.random.default_rng(6)
        q, k, v = rand(rng, 2, 5, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 4)
        out = T.causal_attention(q, k, v, 2)
        # only positions 0 and 1 of each row carry loss
        w = Tensor(rng.uniform(0.15, 0.85, size=out.shape))
        T.binary_cross_entropy(w, out, weights=[[1.0, 1.0, 0, 0, 0]] * 2).backward()
        for grad in (k.grad, v.grad):
            assert not grad[:, 2:].any() and grad[:, :2].all()
        assert not q.grad[:, 2:].any()

    @pytest.mark.parametrize("shapes, n_heads", [(((4, 6), (4, 6), (5, 6)), 2),
                                                 (((4, 6), (4, 6), (4, 6)), 4),
                                                 (((6,), (6,), (6,)), 1),
                                                 (((5, 6), (4, 6), (4, 6)), 2),
                                                 (((2, 4, 6), (3, 4, 6), (3, 4, 6)), 2)])
    def test_shape_errors(self, shapes, n_heads):
        with pytest.raises(ShapeError):
            T.causal_attention(*(Tensor(np.zeros(s)) for s in shapes), n_heads)


class TestLayerNorm:
    def test_constant_row_maps_to_zeros(self):
        out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])

    def test_two_point_row(self):
        eps = T.LAYER_NORM_EPS
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, np.array([[1.0, -1.0]]) / math.sqrt(1 + eps),
                                   rtol=1e-15)

    def test_row_statistics_pre_affine(self):
        # row variance is kept well above eps so the guard's bias cannot
        # push the normalized variance outside the 1e-6 window
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-10.0, 10.0, size=(4, 32)))
        out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x, g, b = rand(rng, 3, 6), rand(rng, 6, lo=0.5, hi=1.5), rand(rng, 6)
        loss = probe(rng, (3, 6))
        res = check_gradients("layer_norm", lambda: loss(T.layer_norm(x, g, b)), [x, g, b])
        assert res.ok, res.row()


def old_layer_norm(x, gain, bias, g):
    """The previous formulas of ``layer_norm``: output and the gradients
    for x, gain and bias under the upstream gradient g."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat = (x - mu) * inv_std
    gh = g * gain
    term = gh - np.mean(gh, axis=-1, keepdims=True) \
        - xhat * np.mean(gh * xhat, axis=-1, keepdims=True)
    lead = tuple(range(x.ndim - 1))
    return (xhat * gain + bias, inv_std * term, np.sum(g * xhat, axis=lead),
            np.sum(g, axis=lead))


def old_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * x * x)
    return x * cdf, g * (cdf + x * pdf)


class TestBitwiseAgainstOldFormulas:
    SHAPES = [(1, 1), (3, 8), (2, 5, 16), (4, 3, 2, 7), (160, 64), (2, 33, 32)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        x = rng.normal(scale=3.0, size=shape)
        gain, bias, g = rng.normal(size=shape[-1]), rng.normal(size=shape[-1]), \
            rng.normal(size=shape)
        tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
        out = T.layer_norm(tx, tg, tb)
        out._backward_fn(g)
        for got, want in zip((out.data, tx.grad, tg.grad, tb.grad),
                             old_layer_norm(x, gain, bias, g)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        x, g = rng.normal(scale=3.0, size=shape), rng.normal(size=shape)
        tx = Tensor(x, requires_grad=True)
        out = T.gelu(tx)
        out._backward_fn(g)
        want_out, want_grad = old_gelu(x, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert tx.grad.tobytes() == want_grad.tobytes()


class TestConcatLast:
    def test_simple(self):
        out = T.concat_last(Tensor([[1.0]]), Tensor([[2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_empty_second_operand(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.concat_last(a, Tensor(np.zeros((2, 0))))
        np.testing.assert_array_equal(out.data, a.data)

    def test_gradcheck_random_shapes(self):
        rng = np.random.default_rng(9)
        for p, q in [(1, 3), (4, 2), (2, 2)]:
            a, b = rand(rng, 3, p), rand(rng, 3, q)
            loss = probe(rng, (3, p + q))
            res = check_gradients("concat", lambda: loss(T.concat_last(a, b)), [a, b])
            assert res.ok, res.row()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat_last(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))


class TestCrossEntropy:
    def test_uniform_logits_give_log_v(self):
        out = T.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert out.item() == pytest.approx(math.log(4), rel=1e-12)

    def test_confident_logits_give_near_zero(self):
        logits = np.zeros((2, 5))
        logits[0, 3] = 1000.0
        logits[1, 1] = 1000.0
        out = T.cross_entropy(Tensor(logits), [3, 1])
        assert out.item() < 1e-12

    def test_against_log_softmax_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.uniform(-2, 2, size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        expected = -log_softmax(logits, axis=-1)[np.arange(6), targets].mean()
        out = T.cross_entropy(Tensor(logits), targets)
        assert out.item() == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError, match="out of range"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_uniform_weights_equal_unweighted_mean(self):
        rng = np.random.default_rng(21)
        logits = rng.uniform(-2, 2, size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        plain = T.cross_entropy(Tensor(logits), targets).item()
        weighted = T.cross_entropy(Tensor(logits), targets, weights=np.full(5, 0.2)).item()
        assert weighted == pytest.approx(plain, rel=1e-12)

    def test_zero_weights_drop_positions(self):
        rng = np.random.default_rng(22)
        logits = Tensor(rng.uniform(-2, 2, size=(4, 6)), requires_grad=True)
        targets = rng.integers(0, 6, size=4)
        out = T.cross_entropy(logits, targets, weights=[0.5, 0.0, 0.5, 0.0])
        kept = T.cross_entropy(Tensor(logits.data[[0, 2]]), targets[[0, 2]]).item()
        assert out.item() == pytest.approx(kept, rel=1e-12)
        out.backward()
        assert not logits.grad[[1, 3]].any() and logits.grad[[0, 2]].any()

    def test_grouped_logits_match_each_row(self):
        rng = np.random.default_rng(23)
        logits = rng.uniform(-2, 2, size=(3, 4, 5))
        targets = rng.integers(0, 5, size=(3, 4))
        group = Tensor(logits, requires_grad=True)
        loss = T.cross_entropy(group, targets)
        loss.backward()
        rows = [Tensor(logits[g], requires_grad=True) for g in range(3)]
        per_row = []
        for row, ids in zip(rows, targets):
            row_loss = T.cross_entropy(row, ids)
            per_row.append(row_loss.item())
            row_loss.backward()
        assert loss.item() == pytest.approx(np.mean(per_row), rel=1e-12)
        for g, row in enumerate(rows):
            np.testing.assert_allclose(group.grad[g], row.grad / 3, rtol=1e-12)

    @pytest.mark.parametrize("targets, weights", [
        (np.zeros((2, 3), dtype=int), None),   # targets of the wrong shape
        (np.zeros(2, dtype=int), None),
        (np.zeros((2, 4), dtype=int), np.ones(8)),   # weights of the wrong shape
        (np.zeros((2, 4), dtype=int), np.ones((2, 4, 1)))])
    def test_bad_shapes_raise(self, targets, weights):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros((2, 4, 3))), targets, weights=weights)


class TestBinaryCrossEntropy:
    def test_coin_flip(self):
        out = T.binary_cross_entropy(Tensor([0.5]), Tensor([0.5]))
        assert out.item() == pytest.approx(math.log(2), rel=1e-12)

    def test_perfect_prediction(self):
        out = T.binary_cross_entropy(Tensor([1.0]), Tensor([1.0]))
        assert out.item() == pytest.approx(0.0, abs=1e-6)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(17)
        p = rng.uniform(0.05, 0.95, size=(4, 3))
        y = rng.uniform(0.0, 1.0, size=(4, 3))
        expected = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
        out = T.binary_cross_entropy(Tensor(p), Tensor(y))
        assert out.item() == pytest.approx(expected, rel=1e-12)

    def test_weighted_sum_over_positions(self):
        p = np.array([[[0.2, 0.7], [0.4, 0.9]]])
        y = np.array([[[0.0, 1.0], [1.0, 1.0]]])
        w = np.array([[0.25, 0.0]])
        got = T.binary_cross_entropy(Tensor(p), Tensor(y), weights=w).item()
        assert math.isclose(got, 0.25 * -(math.log(0.8) + math.log(0.7)), rel_tol=1e-12)
        with pytest.raises(ShapeError, match="weights"):
            T.binary_cross_entropy(Tensor(p), Tensor(y), weights=np.ones((1, 2, 2)))

    def test_clamped_entries_pass_no_gradient(self):
        p = Tensor([0.0, 0.5], requires_grad=True)
        T.binary_cross_entropy(p, Tensor([0.0, 0.0])).backward()
        assert p.grad[0] == 0.0 and p.grad[1] != 0.0


class TestBackward:
    def test_double_backward_is_an_error(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = total(T.gelu(x))
        loss.backward()
        with pytest.raises(GraphError, match="already ran"):
            loss.backward()

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            T.gelu(x).backward()

    def test_each_node_visited_exactly_once(self, monkeypatch):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.gelu(x)
        z = T.add(y, y)      # y is shared by two consumers
        loss = total(T.add(z, y))
        n_nodes = len(build_graph(loss))

        visits = []

        class Recording(list):
            # backward takes each node off the end of build_graph's list
            def pop(self):
                visits.append(super().pop())
                return visits[-1]

        monkeypatch.setattr(T, "build_graph", lambda root: Recording(build_graph(root)))
        loss.backward()
        assert len(visits) == n_nodes
        assert len({id(v) for v in visits}) == n_nodes

    def test_gradient_accumulates_across_shared_consumers(self):
        x = Tensor([3.0], requires_grad=True)
        loss = total(T.add(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    @pytest.mark.parametrize("sum_first", [True, False])
    def test_add_gives_each_parent_its_own_gradient(self, sum_first):
        # a is used again after add(a, b), so a's gradient grows after b's is
        # stored; the two must not be one array
        a = Tensor([0.5, -1.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        s, h = T.add(a, b), T.gelu(a)
        loss = total(T.add(s, h) if sum_first else T.add(h, s))
        loss.backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_allclose(b.grad, [1.0, 1.0])
        x = a.data
        gelu_slope = (0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
                      + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(a.grad, 1.0 + gelu_slope, rtol=1e-12)

    def test_interior_gradients_released_leaf_gradients_kept(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.add(x, x)
        loss = total(y)
        loss.backward()
        assert y.grad is None and y._parents == () and y._backward_fn is None
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_frozen_inputs_build_no_graph(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        out = T.matmul(a, b)
        assert not out.requires_grad
        assert out._parents == ()


class TestNoGrad:
    def test_builds_no_graph_inside_only(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with T.no_grad():
            inside = T.matmul(x, Tensor([[1.0], [2.0]]))
        assert not inside.requires_grad and inside._parents == ()
        assert T.matmul(x, Tensor([[1.0], [2.0]])).requires_grad

    def test_setting_is_per_thread(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                entered.set()
                release.wait(timeout=10.0)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=10.0)
            x = Tensor([1.0, 2.0], requires_grad=True)
            assert T.add(x, x).requires_grad
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert not worker.is_alive()


class TestDeterminism:
    def test_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-2, 2, size=(5, 8))
        g = rng.uniform(0.5, 1.5, size=8)
        b = rng.uniform(-1, 1, size=8)

        def run():
            t = T.layer_norm(Tensor(x), Tensor(g), Tensor(b))
            t = T.causal_attention(t, t, T.gelu(t), 2)
            return t.data

        assert np.array_equal(run(), run())


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        g = np.array([0.5, -1.0])
        state = AdamState.for_params([p])
        adam_step([p], [g], state, lr=0.1)

        m = 0.1 * g
        v = 0.001 * g * g
        expected = np.array([1.0, -2.0]) - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)
        assert state.step == 1

    def test_none_gradient_treated_as_zero(self):
        p = Tensor([1.0], requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [None], state, lr=0.1)
        np.testing.assert_allclose(p.data, [1.0])


class TestOpBattery:
    def test_every_differentiable_op_passes_fd(self):
        results = run_op_battery(seed=0)
        bad = [r.row() for r in results if not r.ok]
        assert not bad, bad

    def test_every_op_has_a_case(self):
        # an op is a function that records its name on the nodes it makes
        ops = set(re.findall(r'_make\(.*"(\w+)"\)$', inspect.getsource(T), re.M))
        assert ops == {"add", "matmul", "concat_last", "embedding_lookup", "gelu",
                       "sigmoid", "layer_norm", "causal_attention", "cross_entropy",
                       "binary_cross_entropy"}
        assert ops <= {r.name.split(" ")[0] for r in run_op_battery(seed=0)}


class TestMiscOps:
    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            T.embedding_lookup(Tensor(np.zeros((3, 2))), np.array([0, 3]))

    def test_embedding_grad_scatters_with_repeats(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        total(T.embedding_lookup(table, np.array([1, 1, 0]))).backward()
        np.testing.assert_allclose(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_numeric_gradient_helper_on_quadratic(self):
        # the finite-difference oracle itself: d/dx (x . x) = 2x
        x = Tensor(np.array([1.0, -0.5, 2.0]), requires_grad=True)
        num = numeric_gradient(
            lambda: T.matmul(Tensor(x.data[None, :]), Tensor(x.data[:, None])), x)
        np.testing.assert_allclose(num, 2.0 * x.data, rtol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
    def test_sigmoid_range_and_symmetry(self, row):
        out = T.sigmoid(Tensor(row)).data
        assert np.all(out > 0.0) and np.all(out < 1.0)
        flipped = T.sigmoid(Tensor(-np.asarray(row))).data
        np.testing.assert_allclose(out + flipped, 1.0, atol=1e-12)
