"""Tensor ops, the tape, and every backward rule against finite differences."""

import weakref

import numpy as np
import pytest

from jaeger.encoders import attention_bias
from jaeger.errors import ContractError, IndexOutOfRange, ShapeError
from jaeger.numerics import (Tape, Tensor, _emit, add, bce_with_logits, concat_last,
                             embedding_lookup, feed_forward, linear, masked_mean_rows,
                             merge_rows, mul, reshape, residual_norm, seeded_init,
                             self_attention, sgd_step, softmax_in_place, sum_all,
                             xavier_bound)

from fdcheck import assert_grads_match, finite_difference, random_param


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference product for 2-D operands."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestTensor:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_of_one_value_in_any_shape(self, shape):
        got = Tensor(np.full(shape, 2.5, dtype=np.float32)).item()
        assert type(got) is float and got == 2.5

    def test_item_needs_one_value(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(2)).item()


class TestMatmul:
    def test_against_naive_loops(self):
        """linear's np-backed product agrees with the written-out triple loop."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, k, n = rng.integers(1, 7, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = linear(Tensor(a), Tensor(b), Tensor(np.zeros(n))).data
            np.testing.assert_allclose(got, naive_matmul(a, b), rtol=1e-12)

    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        got = linear(Tensor(a), Tensor(np.eye(3)), Tensor(np.zeros(3))).data
        np.testing.assert_array_equal(got, a)

    def test_vector_cases_match_numpy(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4)
        m = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        np.testing.assert_allclose(linear(Tensor(v), Tensor(m), Tensor(b)).data, v @ m + b)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)

    def test_vector_gradients(self):
        rng = np.random.default_rng(3)
        v = random_param(rng, 4)
        m = random_param(rng, 4, 3)
        b = random_param(rng, 3)
        w = Tensor(rng.normal(size=3), dtype=np.float64)
        assert_grads_match([v, m, b], lambda: sum_all(mul(linear(v, m, b), w)))

    def test_stacked_input_gradients(self):
        """A matrix applied to a stack of inputs gets one gradient of its own shape."""
        rng = np.random.default_rng(16)
        a = random_param(rng, 2, 3, 4)
        m = random_param(rng, 4, 5)
        b = random_param(rng, 5)
        w = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64)
        assert_grads_match([a, m, b], lambda: sum_all(mul(linear(a, m, b), w)))
        assert a.grad.shape == (2, 3, 4) and m.grad.shape == (4, 5) and b.grad.shape == (5,)


class TestConcat:
    def test_values(self):
        got = concat_last(Tensor([1.0, 2.0]), Tensor([3.0, 4.0, 5.0])).data
        np.testing.assert_array_equal(got, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_width_addition(self):
        a = Tensor(np.zeros(32, dtype=np.float32))
        b = Tensor(np.zeros(48, dtype=np.float32))
        assert concat_last(a, b).shape == (80,)

    def test_empty_second_operand(self):
        a = np.arange(4.0)
        got = concat_last(Tensor(a), Tensor(np.zeros(0))).data
        np.testing.assert_array_equal(got, a)

    def test_slices_recover_inputs_bit_exactly(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 5)).astype(np.float32)
        b = rng.normal(size=(3, 2)).astype(np.float32)
        cat = concat_last(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(cat.data[:, 0:5], a)
        np.testing.assert_array_equal(cat.data[:, 5:7], b)

    def test_leading_shape_mismatch(self):
        for a, b in (((2, 3), (4, 3)), ((2, 3), (3,))):  # the second: a matrix and a vector
            with pytest.raises(ShapeError):
                concat_last(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        a = random_param(rng, 2, 3)
        b = random_param(rng, 2, 4)
        w = Tensor(rng.normal(size=(2, 7)), dtype=np.float64)
        assert_grads_match([a, b], lambda: sum_all(mul(concat_last(a, b), w)))


class TestSoftmax:
    """softmax_in_place, the softmax self_attention computes its weights with."""

    def test_uniform_row(self):
        got = softmax_in_place(np.array([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3], rtol=1e-6)

    def test_extreme_logits_stay_finite(self):
        got = softmax_in_place(np.array([1000.0, 0.0]))
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        a = softmax_in_place(x.copy())
        b = softmax_in_place(x + 100.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.normal(scale=5.0, size=(3, 8)).astype(np.float32)
            sums = softmax_in_place(x).sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_masked_entries_are_exactly_zero(self):
        x = np.array([1.0, -np.inf, 2.0, -np.inf])
        got = softmax_in_place(x)
        assert got[1] == 0.0 and got[3] == 0.0
        np.testing.assert_allclose(got.sum(), 1.0, rtol=1e-12)

    def test_gradients(self):
        """The closed-form softmax gradient, which self_attention's backward applies to
        its scores, reaching x through q and k."""
        rng = np.random.default_rng(8)
        x = random_param(rng, 3, 5, 4)
        p = {name: Tensor(a) for name, a in attention_weights(rng, 4, np.float64).items()}
        wq, wk = p["wq"], p["wk"]
        w = Tensor(rng.normal(size=(3, 5, 4)), dtype=np.float64)
        bias = np.zeros((3, 1, 5, 5))
        assert_grads_match([x, wq, wk], lambda: sum_all(mul(
            self_attention(x, *(p[n] for n in ATTENTION_PARAMS), bias, 2), w)))


ATTENTION_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def attention_weights(rng: np.random.Generator, d: int, dtype) -> dict:
    """Random (d, d) weights and (d,) biases for self_attention, by parameter name."""
    return {name: (rng.normal(size=(d, d) if name[0] == "w" else d) / np.sqrt(d)).astype(dtype)
            for name in ATTENTION_PARAMS}


def attention_mask_bias(keys: np.ndarray, causal: bool, dtype) -> np.ndarray:
    """The encoders' (..., 1, L, L) bias for (..., L) key masks: one head axis of size 1."""
    return attention_bias(keys[..., None, :], causal, dtype)


def rows_times(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w as every affine layer computes it: a matrix one row at a time, a stack at once."""
    return np.concatenate([a[i:i + 1] @ w for i in range(len(a))]) if a.ndim == 2 else a @ w


def composed_attention(x, p, bias, n_heads, g):
    """Output and input gradients of self_attention, written out as its separate steps.

    Forward: the q, k and v products, head split, q·kᵀ, scale by 1/√d_head,
    bias add, max-shifted softmax, product with v, head merge and the output
    product. Backward: each step's own rule in reverse, with the upstream
    gradient g of the output; q, k and v's gradients are joined into one
    (..., L, 3d) array that goes back through the concatenated weights as
    one product.
    """
    shape, d = x.shape, x.shape[-1]
    split = (*shape[:-1], n_heads, d // n_heads)
    q, k, v = (rows_times(x, p["w" + n]) + p["b" + n] for n in "qkv")
    qh, kh, vh = (a.reshape(split).swapaxes(-3, -2) for a in (q, k, v))
    kt = kh.swapaxes(-2, -1)
    c = x.dtype.type(1.0 / np.sqrt(split[-1]))
    scores = np.matmul(qh, kt) * c + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(y, vh).swapaxes(-3, -2).reshape(shape)
    out = rows_times(ctx, p["wo"]) + p["bo"]

    g2, ctx2 = g.reshape(-1, d), ctx.reshape(-1, d)
    g_ctx = (g2 @ p["wo"].T).reshape(split).swapaxes(-3, -2)
    g_y, g_vh = np.matmul(g_ctx, vh.swapaxes(-1, -2)), np.matmul(y.swapaxes(-1, -2), g_ctx)
    g_scores = y * (g_y - (g_y * y).sum(axis=-1, keepdims=True))
    g_scaled = g_scores * c
    g_qh, g_kt = np.matmul(g_scaled, kt.swapaxes(-1, -2)), np.matmul(qh.swapaxes(-1, -2), g_scaled)
    g_qkv = np.concatenate([gh.swapaxes(-3, -2).reshape(shape)
                            for gh in (g_qh, g_kt.swapaxes(-2, -1), g_vh)], axis=-1)
    g_qkv = g_qkv.reshape(-1, 3 * d)
    w_qkv = np.concatenate([p["wq"], p["wk"], p["wv"]], axis=1)
    g_w, g_b = x.reshape(-1, d).T @ g_qkv, g_qkv.sum(axis=0)
    grads = {"x": (g_qkv @ w_qkv.T).reshape(shape), "wo": ctx2.T @ g2, "bo": g2.sum(axis=0)}
    for i, n in enumerate("qkv"):
        grads["w" + n], grads["b" + n] = g_w[:, i * d:(i + 1) * d], g_b[i * d:(i + 1) * d]
    return out, grads


def run_attention(x, p, bias, n_heads, g):
    """self_attention's output and the gradients the tape gives for upstream g, by name."""
    ts = {"x": Tensor(x), **{name: Tensor(p[name]) for name in ATTENTION_PARAMS}}
    with Tape() as tape:
        out = self_attention(*ts.values(), bias, n_heads)
        tape.backward(sum_all(mul(out, Tensor(g))), list(ts.values()))
    return out.data, {name: t.grad for name, t in ts.items()}


def attention_args(rng, shape, dtype=np.float64):
    """A float64 parameter x of this shape and self_attention's eight weights, in order."""
    p = attention_weights(rng, shape[-1], dtype)
    return [random_param(rng, *shape)] + [Tensor(p[name]) for name in ATTENTION_PARAMS]


def assert_attention_grads_match(args, forward):
    """Every input's gradient against finite differences. bk adds one value to all of
    a query's scores, which the softmax cancels: its gradient is zero, and its finite
    difference is roundoff, so both are checked against zero instead."""
    bk = args[4]
    assert_grads_match([a for a in args if a is not bk], forward)
    with Tape() as tape:
        tape.backward(forward(), [bk])
    assert np.abs(bk.grad).max() < 1e-12
    assert np.abs(finite_difference([bk], forward)[0]).max() < 1e-9


class TestAttention:
    """self_attention: the q, k and v products, the attention core and the output projection."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [False, True], ids=["bidirectional", "causal"])
    def test_bit_identical_to_the_composed_steps(self, dtype, causal):
        """Stacked and row-wise (2-D) inputs, PAD keys, 2 and 3 heads (d_head 6 and 4,
        so the 1/√d_head scale rounds)."""
        rng = np.random.default_rng(30)
        for shape in ((2, 3, 6, 12), (6, 12)):
            keys = np.ones(shape[:-1], dtype=bool)
            keys[..., 4:] = False  # PAD keys; every query still sees key 0
            if len(shape) > 2:
                keys[1, 2, 5] = True
            bias = attention_mask_bias(keys, causal, dtype)
            x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
            p = attention_weights(rng, shape[-1], dtype)
            for n_heads in (2, 3):
                out, grads = run_attention(x, p, bias, n_heads, g)
                want_out, want_grads = composed_attention(x, p, bias, n_heads, g)
                assert out.dtype == dtype
                np.testing.assert_array_equal(out, want_out)
                for name, want in want_grads.items():
                    assert grads[name].dtype == dtype
                    np.testing.assert_array_equal(grads[name], want, err_msg=name)

    def test_masked_key_gets_no_weight(self):
        """A PAD key's row never reaches another row's output, and with no upstream
        gradient on its own row, its input gets exactly zero gradient."""
        rng = np.random.default_rng(31)
        x, g = (rng.normal(size=(5, 4)) for _ in range(2))
        g[2] = 0.0
        p = attention_weights(rng, 4, np.float64)
        bias = attention_mask_bias(np.array([True, True, False, True, True]), False,
                                   np.float64)
        out, grads = run_attention(x, p, bias, 2, g)
        x2 = x.copy()
        x2[2] = 1e3
        others = [0, 1, 3, 4]
        np.testing.assert_array_equal(run_attention(x2, p, bias, 2, g)[0][others], out[others])
        assert not grads["x"][2].any()

    def test_gradients(self):
        rng = np.random.default_rng(32)
        args = attention_args(rng, (2, 4, 6))
        w = Tensor(rng.normal(size=(2, 4, 6)), dtype=np.float64)
        bias = attention_mask_bias(np.array([[True] * 4, [True, True, True, False]]), False,
                                   np.float64)
        assert_attention_grads_match(args, lambda: sum_all(mul(self_attention(*args, bias, 3),
                                                               w)))

    def test_causal_gradients(self):
        rng = np.random.default_rng(33)
        args = attention_args(rng, (5, 4))
        w = Tensor(rng.normal(size=(5, 4)), dtype=np.float64)
        bias = attention_mask_bias(np.ones(5, dtype=bool), True, np.float64)
        assert_attention_grads_match(args, lambda: sum_all(mul(self_attention(*args, bias, 2),
                                                               w)))

    def test_large_scores_stay_finite(self):
        rng = np.random.default_rng(34)
        p = attention_weights(rng, 8, np.float32)
        p["wq"] *= 1e3
        x = rng.normal(size=(6, 8)).astype(np.float32)
        bias = attention_mask_bias(np.ones(6, dtype=bool), False, np.float32)
        out = self_attention(Tensor(x), *(Tensor(p[n]) for n in ATTENTION_PARAMS), bias, 2).data
        assert np.isfinite(out).all()

    def test_is_one_record(self):
        """x and the eight weights are the record's inputs; the bias is a plain array."""
        args = attention_args(np.random.default_rng(35), (3, 4))
        with Tape() as tape:
            self_attention(*args, np.zeros((1, 3, 3)), 2)
        assert [(rec.op, len(rec.input_ids)) for rec in tape.records] == [("self_attention", 9)]

    @pytest.mark.parametrize("x_shape,name,w_shape,n_heads", [
        ((3, 8), "wk", (9, 8), 2),
        ((3, 8), "wv", (8, 6), 2),
        ((3, 8), "wk", (1, 8, 8), 2),
        ((3, 8), "wq", (8, 8), 3),
        ((8,), "wq", (8, 8), 2),
    ], ids=["k-length", "v-width", "k-lead", "heads", "vector"])
    def test_bad_shapes_rejected(self, x_shape, name, w_shape, n_heads):
        p = {n: Tensor(np.zeros(8 if n[0] == "b" else (8, 8))) for n in ATTENTION_PARAMS}
        p[name] = Tensor(np.zeros(w_shape))
        with pytest.raises(ShapeError) as err:
            self_attention(Tensor(np.zeros(x_shape)), *p.values(), np.zeros((1, 1)), n_heads)
        assert str(x_shape) in str(err.value)

    def test_bias_that_does_not_fit_rejected(self):
        args = attention_args(np.random.default_rng(36), (3, 8))
        with pytest.raises(ShapeError):
            self_attention(*args, np.zeros((1, 4, 4)), 2)


def composed_residual_norm(x, y, gamma, beta, g, eps=1e-5):
    """Output and x, y, gamma, beta gradients of residual_norm as separate steps:
    the add, then layer norm's forward and backward."""
    s = x + y
    xc = s - s.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + x.dtype.type(eps))
    xhat = xc * inv
    dxhat = g * gamma
    gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    rows = (-1, x.shape[-1])
    return xhat * gamma + beta, [gx, gx, (g * xhat).reshape(rows).sum(axis=0),
                                 g.reshape(rows).sum(axis=0)]


class TestLayerNorm:
    """residual_norm: layer_norm(x + y) as one record."""

    def test_constant_row_maps_to_beta(self):
        """Zero variance is absorbed by eps instead of dividing by zero."""
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        got = residual_norm(Tensor([1.5] * 4), Tensor([0.5] * 4), gamma, beta).data
        np.testing.assert_allclose(got, 0.0, atol=1e-7)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(loc=3.0, scale=2.5, size=(2, 5, 16))
        gamma, beta = Tensor(np.ones(16)), Tensor(np.zeros(16))
        got = residual_norm(Tensor(x), Tensor(y), gamma, beta).data
        np.testing.assert_allclose(got.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(got.var(axis=-1), 1.0, atol=1e-4)

    def test_gamma_beta_apply(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        got = residual_norm(x, Tensor(np.zeros((1, 2))), Tensor([2.0, 2.0]),
                            Tensor([0.5, 0.5])).data
        np.testing.assert_allclose(got, [[2.5, -1.5]], atol=1e-4)

    def test_param_width_mismatch(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            residual_norm(x, x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            residual_norm(x, Tensor(np.zeros(3)), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x, y = random_param(rng, 4, 6), random_param(rng, 4, 6)
        gamma = random_param(rng, 6)
        beta = random_param(rng, 6)
        w = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
        assert_grads_match([x, y, gamma, beta],
                           lambda: sum_all(mul(residual_norm(x, y, gamma, beta), w)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6,), (5, 6), (2, 3, 5, 6)])
    def test_bit_identical_to_the_composed_steps(self, dtype, shape):
        rng = np.random.default_rng(37)
        x, y, g = (rng.normal(size=shape).astype(dtype) for _ in range(3))
        gamma, beta = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
        ts = [Tensor(a) for a in (x, y, gamma, beta)]
        with Tape() as tape:
            out = residual_norm(*ts)
            assert [rec.op for rec in tape.records] == ["residual_norm"]
            tape.backward(sum_all(mul(out, Tensor(g))), ts)
        want_out, want_grads = composed_residual_norm(x, y, gamma, beta, g)
        np.testing.assert_array_equal(out.data, want_out)
        for t, want in zip(ts, want_grads):
            assert t.grad.dtype == dtype
            np.testing.assert_array_equal(t.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 8, 32, 33, 80, 129])
    def test_bytes_match_the_mean_formula_at_every_width(self, dtype, width):
        """Each mean is a sum and a divide by the width, with the same bytes as
        ndarray.mean, forward and backward, on rows far from zero mean."""
        rng = np.random.default_rng(width)
        x, y, g = (rng.normal(loc=5.0, scale=3.0, size=(3, 4, width)).astype(dtype)
                   for _ in range(3))
        gamma, beta = (rng.normal(size=width).astype(dtype) for _ in range(2))
        ts = [Tensor(a) for a in (x, y, gamma, beta)]
        with Tape() as tape:
            out = residual_norm(*ts)
            tape.backward(sum_all(mul(out, Tensor(g))), ts)
        want_out, want_grads = composed_residual_norm(x, y, gamma, beta, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert [t.grad.tobytes() for t in ts] == [w.tobytes() for w in want_grads]


def composed_feed_forward(x, w1, b1, w2, b2, g):
    """Output and x, w1, b1, w2, b2 gradients of feed_forward as separate steps:
    an affine layer, the relu and a second affine layer, each with its own rule."""
    pre = rows_times(x, w1) + b1
    h = np.maximum(pre, 0)
    out = rows_times(h, w2) + b2
    w2m = w2.reshape(len(w2), -1)
    g2 = g.reshape(-1, w2m.shape[1])
    gh = (g2 @ w2m.T).reshape(h.shape) * (pre > 0)
    gh2, x2 = gh.reshape(-1, w1.shape[1]), x.reshape(-1, w1.shape[0])
    return out, [(gh2 @ w1.T).reshape(x.shape), x2.T @ gh2, gh2.sum(axis=0),
                 (h.reshape(-1, len(w2)).T @ g2).reshape(w2.shape),
                 g2.sum(axis=0).reshape(b2.shape)]


class TestRelu:
    """feed_forward: affine, relu, affine as one record."""

    @staticmethod
    def identity_layers(d: int):
        return [Tensor(a) for a in (np.eye(d), np.zeros(d), np.eye(d), np.zeros(d))]

    def test_values(self):
        got = feed_forward(Tensor([-2.0, 0.0, 3.5]), *self.identity_layers(3)).data
        np.testing.assert_array_equal(got, [0.0, 0.0, 3.5])

    def test_gradients_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5,
                   dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        assert_grads_match([x], lambda: sum_all(mul(feed_forward(x, *self.identity_layers(4)),
                                                    w)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w2_shape", [
        ((5,), (6, 3)), ((7, 5), (6, 3)), ((2, 3, 5), (6, 3)), ((30, 5), (6,)), ((2, 3, 5), (6,)),
    ], ids=["vector", "rows", "stack", "rows-vector-weight", "stack-vector-weight"])
    def test_bit_identical_to_the_composed_steps(self, dtype, x_shape, w2_shape):
        rng = np.random.default_rng(38)
        x = rng.normal(size=x_shape).astype(dtype)
        w1, b1 = rng.normal(size=(5, 6)).astype(dtype), rng.normal(size=6).astype(dtype)
        w2 = rng.normal(size=w2_shape).astype(dtype)
        b2 = rng.normal(size=w2_shape[1:]).astype(dtype)
        g = rng.normal(size=x_shape[:-1] + w2_shape[1:]).astype(dtype)
        ts = [Tensor(a) for a in (x, w1, b1, w2, b2)]
        with Tape() as tape:
            out = feed_forward(*ts)
            assert [rec.op for rec in tape.records] == ["feed_forward"]
            tape.backward(sum_all(mul(out, Tensor(g))), ts)
        want_out, want_grads = composed_feed_forward(x, w1, b1, w2, b2, g)
        np.testing.assert_array_equal(out.data, want_out)
        for t, want in zip(ts, want_grads):
            assert t.grad.dtype == dtype and t.grad.shape == t.data.shape
            np.testing.assert_array_equal(t.grad, want)

    @pytest.mark.parametrize("x_shape,w2_shape", [((3, 4), (5, 2)), ((2, 3, 4), (5, 2)),
                                                  ((3, 4), (5,)), ((2, 3, 4), (5,))],
                             ids=["rows", "stack", "rows-vector-weight", "stack-vector-weight"])
    def test_gradients(self, x_shape, w2_shape):
        rng = np.random.default_rng(39)
        args = [random_param(rng, *s) for s in (x_shape, (4, 5), (5,), w2_shape, w2_shape[1:])]
        c = Tensor(rng.normal(size=x_shape[:-1] + w2_shape[1:]), dtype=np.float64)
        assert_grads_match(args, lambda: sum_all(mul(feed_forward(*args), c)))

    def test_computes_each_row_alone(self):
        """A candidate's score must not depend on how many rows share the call."""
        rng = np.random.default_rng(40)
        x = rng.normal(size=(30, 12)).astype(np.float32)
        w1, b1 = rng.normal(size=(12, 8)).astype(np.float32), np.zeros(8, dtype=np.float32)
        w2, b2 = rng.normal(size=8).astype(np.float32), np.float32(0.25)
        layers = [Tensor(a) for a in (w1, b1, w2, b2)]
        whole = feed_forward(Tensor(x), *layers).data
        for i in range(len(x)):
            np.testing.assert_array_equal(feed_forward(Tensor(x[i:i + 1]), *layers).data,
                                          whole[i:i + 1])

    def test_bad_shapes_rejected(self):
        for x, w1, w2 in (((3, 4), (5, 6), (6, 2)), ((3, 4), (4, 6), (5, 2)),
                          ((3, 4), (4,), (3, 2))):
            args = [np.zeros(s) for s in (x, w1, w1[1:], w2, w2[1:])]
            with pytest.raises(ShapeError):
                feed_forward(Tensor(args[0]), *map(Tensor, args[1:]))


class TestConstantInputs:
    """A plain array input is a constant: no node id, and no gradient is computed for it."""

    @pytest.mark.parametrize("op", ["linear", "feed_forward"])
    def test_constant_gets_no_id_and_no_gradient(self, op):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 4))
        layers = [random_param(rng, *s) for s in ((4, 5), (5,), (5, 2), (2,))]
        fn = linear if op == "linear" else feed_forward
        params = layers[:2] if op == "linear" else layers
        with Tape() as tape:
            out = fn(x, *params)
            (rec,) = tape.records
            grads = rec.backward_fn(np.ones_like(out.data))
            assert rec.input_ids[0] == -1 and grads[0] is None
            assert len(grads) == len(params) + 1
        c = Tensor(rng.normal(size=out.shape), dtype=np.float64)
        assert_grads_match(params, lambda: sum_all(mul(fn(x, *params), c)))
        np.testing.assert_array_equal(fn(x, *params).data, fn(Tensor(x), *params).data)


class TestEmbedding:
    def test_gathers_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        got = embedding_lookup(table, [2, 0, 2]).data
        np.testing.assert_array_equal(got, table.data[[2, 0, 2]])

    def test_out_of_range_names_the_id(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexOutOfRange) as err:
            embedding_lookup(table, [1, 9])
        assert "9" in str(err.value)

    def test_duplicate_ids_accumulate_gradient(self):
        """A row looked up twice receives the sum of both upstream grads."""
        table = Tensor(np.zeros((3, 2)), dtype=np.float64)
        with Tape() as tape:
            loss = sum_all(embedding_lookup(table, [1, 1, 2]))
            tape.backward(loss, [table])
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])

    def test_gradients(self):
        rng = np.random.default_rng(12)
        table = random_param(rng, 5, 3)
        w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        assert_grads_match([table],
                           lambda: sum_all(mul(embedding_lookup(table, [0, 2, 2, 4]), w)))


class TestBce:
    def test_zero_logit_gives_log_two(self):
        for target in (0.0, 1.0):
            got = bce_with_logits(Tensor([0.0]), np.array([target])).item()
            np.testing.assert_allclose(got, np.log(2.0), rtol=1e-6)

    def test_confident_correct_is_near_zero(self):
        got = bce_with_logits(Tensor([20.0]), np.array([1.0])).item()
        assert got < 1e-8

    def test_extreme_logits_stay_finite(self):
        got = bce_with_logits(Tensor([1000.0, -1000.0]), np.array([1.0, 0.0])).item()
        assert np.isfinite(got) and got < 1e-8

    def test_mean_reduction(self):
        z = np.array([0.0, 0.0, 0.0, 0.0])
        got = bce_with_logits(Tensor(z), np.zeros(4)).item()
        np.testing.assert_allclose(got, np.log(2.0), rtol=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bce_with_logits(Tensor([0.0, 1.0]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            bce_with_logits(Tensor(np.zeros(0)), np.zeros(0))

    def test_gradients(self):
        rng = np.random.default_rng(13)
        z = random_param(rng, 6)
        t = (rng.random(6) > 0.5).astype(np.float64)
        assert_grads_match([z], lambda: bce_with_logits(z, t))

    def test_gradient_formula(self):
        """d/dz of the mean loss is (sigmoid(z) - y) / n."""
        z = Tensor(np.array([0.5, -1.5, 2.0]), dtype=np.float64)
        t = np.array([1.0, 0.0, 1.0])
        with Tape() as tape:
            tape.backward(bce_with_logits(z, t), [z])
        expect = (1.0 / (1.0 + np.exp(-z.data)) - t) / 3.0
        np.testing.assert_allclose(z.grad, expect, rtol=1e-12)

    def test_weighted_sum(self):
        z = np.array([0.5, -1.5, 2.0, 0.0])
        t = np.array([1.0, 0.0, 0.0, 1.0])
        w = np.array([0.25, 0.25, 0.125, 0.5])
        per = [bce_with_logits(Tensor([zi], dtype=np.float64), np.array([ti])).item()
               for zi, ti in zip(z, t)]
        got = bce_with_logits(Tensor(z, dtype=np.float64), t, w).item()
        np.testing.assert_allclose(got, np.dot(w, per), rtol=1e-12)

    def test_weighted_gradients(self):
        rng = np.random.default_rng(16)
        z = random_param(rng, 6)
        t = (rng.random(6) > 0.5).astype(np.float64)
        w = rng.random(6)
        assert_grads_match([z], lambda: bce_with_logits(z, t, w))

    def test_weight_count_mismatch(self):
        with pytest.raises(ShapeError):
            bce_with_logits(Tensor([0.0, 1.0]), np.array([1.0, 0.0]), np.ones(3))


class TestSmallOps:
    def test_add_bias_broadcast(self):
        x = Tensor(np.ones((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(add(x, b).data, [[2, 3, 4], [2, 3, 4]])

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_linear_matches_manual(self):
        rng = np.random.default_rng(14)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, x @ w + b)

    @pytest.mark.parametrize("x_shape", [(4,), (3, 4), (2, 3, 4), (2, 3, 5, 4)],
                             ids=["vector", "matrix", "stack", "two-leading-axes"])
    def test_linear_gradients(self, x_shape):
        """One record whose backward gives x, w and b their gradients."""
        rng = np.random.default_rng(24)
        x, w, b = random_param(rng, *x_shape), random_param(rng, 4, 5), random_param(rng, 5)
        c = Tensor(rng.normal(size=x_shape[:-1] + (5,)), dtype=np.float64)
        assert_grads_match([x, w, b], lambda: sum_all(mul(linear(x, w, b), c)))
        with Tape() as tape:
            linear(x, w, b)
        assert [rec.op for rec in tape.records] == ["linear"]

    def test_linear_computes_each_matrix_row_alone(self):
        """A row's result must not depend on how many rows share the call: one
        row alone would go through GEMV, which rounds unlike a GEMM row."""
        rng = np.random.default_rng(25)
        # The shape of a small model's bbox projection, where the two paths differ.
        x = rng.normal(size=(9, 4)).astype(np.float32)
        w, b = rng.normal(size=(4, 8)).astype(np.float32), np.zeros(8, dtype=np.float32)
        whole = linear(Tensor(x), Tensor(w), Tensor(b)).data
        for i in range(len(x)):
            np.testing.assert_array_equal(
                linear(Tensor(x[i:i + 1]), Tensor(w), Tensor(b)).data[0], whole[i])

    @pytest.mark.parametrize("width", [4, 32, 80])
    def test_linear_computes_each_row_alone_with_a_vector_weight(self, width):
        """A (d,) weight gives one value per row, each its own one-row product,
        as the scorer's output layer needs for candidate invariance."""
        rng = np.random.default_rng(28)
        x = rng.normal(size=(30, width)).astype(np.float32)
        v, b = rng.normal(size=width).astype(np.float32), np.float32(0.25)
        whole = linear(Tensor(x), Tensor(v), Tensor(b)).data
        assert whole.shape == (30,)
        np.testing.assert_allclose(whole, x @ v + b, rtol=1e-5, atol=1e-5)
        for i in range(len(x)):
            np.testing.assert_array_equal(
                linear(Tensor(x[i:i + 1]), Tensor(v), Tensor(b)).data, whole[i:i + 1])

    @pytest.mark.parametrize("x_shape", [(4,), (3, 4), (2, 3, 4), (2, 3, 5, 4)],
                             ids=["vector", "matrix", "stack", "two-leading-axes"])
    def test_linear_vector_weight_gradients(self, x_shape):
        """A (d,) weight and a () bias, as in the scorer's output layer, get
        gradients of their own shapes whatever the input's leading axes."""
        rng = np.random.default_rng(29)
        x, w, b = random_param(rng, *x_shape), random_param(rng, 4), random_param(rng)
        c = Tensor(rng.normal(size=x_shape[:-1]), dtype=np.float64)
        assert_grads_match([x, w, b], lambda: sum_all(mul(linear(x, w, b), c)))
        assert (x.grad.shape, w.grad.shape, b.grad.shape) == (x_shape, (4,), ())

    def test_merge_rows_places_each_part_row(self):
        a, b = np.arange(6.0).reshape(3, 2), -np.arange(4.0).reshape(2, 2)
        index = np.array([4, 0, 2, 1, 3])
        got = merge_rows([Tensor(a), Tensor(b)], index).data
        np.testing.assert_array_equal(got[index], np.concatenate([a, b]))

    def test_merge_rows_gradients_are_one_record(self):
        rng = np.random.default_rng(26)
        a, b = random_param(rng, 2, 3), random_param(rng, 3, 3)
        index = np.array([1, 4, 0, 3, 2])
        c = Tensor(rng.normal(size=(5, 3)), dtype=np.float64)
        assert_grads_match([a, b], lambda: sum_all(mul(merge_rows([a, b], index), c)))
        with Tape() as tape:
            merge_rows([a, b], index)
        assert [rec.op for rec in tape.records] == ["merge_rows"]

    def test_merge_rows_needs_a_permutation(self):
        parts = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3)))]
        for index in ([0, 1], [0, 1, 1], [0, 1, 3]):
            with pytest.raises(ShapeError):
                merge_rows(parts, index)

    def test_linear_rejects_bad_shapes(self):
        for x, w, b in (((3, 4), (5, 2), (2,)), ((3, 4), (4,), (1,)), ((3, 4), (4, 2), (3,)),
                        ((3, 4), (5,), ()), ((3, 4), (4, 2, 2), (2, 2))):
            with pytest.raises(ShapeError):
                linear(Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b)))

    def test_assorted_gradients(self):
        rng = np.random.default_rng(15)
        x = random_param(rng, 4, 3)
        b = random_param(rng, 3)
        s = random_param(rng, 4)
        mask = np.array([True, False, True, True])
        w = Tensor(rng.normal(size=3), dtype=np.float64)

        assert_grads_match([x, b], lambda: sum_all(add(x, b)))
        assert_grads_match([x], lambda: sum_all(mul(masked_mean_rows(x, mask), w)))

    def test_batched_and_broadcast_gradients(self):
        rng = np.random.default_rng(17)
        x = random_param(rng, 2, 3, 4)
        col = random_param(rng, 2, 1, 4)
        row = random_param(rng, 4)
        mask = np.array([[True, False, True], [False, True, False]])
        w = Tensor(rng.normal(size=(4, 3, 2)), dtype=np.float64)
        v = Tensor(rng.normal(size=(2, 4)), dtype=np.float64)

        assert_grads_match([x, col], lambda: sum_all(mul(add(x, col), x)))
        assert_grads_match([x, row], lambda: sum_all(mul(mul(x, row), x)))
        assert_grads_match([x], lambda: sum_all(mul(reshape(x, (4, 3, 2)), w)))
        assert_grads_match([x], lambda: sum_all(mul(masked_mean_rows(x, mask), v)))

    def test_broadcast_values_match_numpy(self):
        rng = np.random.default_rng(18)
        a, b = rng.normal(size=(2, 1, 4)), rng.normal(size=(3, 1))
        np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)
        np.testing.assert_array_equal(mul(Tensor(a), Tensor(b)).data, a * b)

    def test_batched_masked_mean_matches_each_entry(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 5, 2))
        mask = rng.random((3, 5)) > 0.4
        mask[:, 0] = True
        got = masked_mean_rows(Tensor(x), mask).data
        for i in range(3):
            np.testing.assert_allclose(got[i], x[i][mask[i]].mean(axis=0), rtol=1e-12)

    def test_reshape_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_masked_mean_requires_a_row(self):
        with pytest.raises(ContractError):
            masked_mean_rows(Tensor(np.zeros((2, 3))), np.array([False, False]))


class TestTapeAndBackward:
    def test_square_gradient(self):
        x = Tensor(np.array(3.0), dtype=np.float64)
        with Tape() as tape:
            tape.backward(mul(x, x), [x])
        np.testing.assert_array_equal(x.grad, 6.0)

    def test_unused_param_gets_exact_zero(self):
        x = Tensor(np.array([1.0, 2.0]))
        unused = Tensor(np.array([[5.0]]))
        with Tape() as tape:
            tape.backward(sum_all(mul(x, x)), [x, unused])
        np.testing.assert_array_equal(unused.grad, [[0.0]])

    def test_reused_node_accumulates(self):
        """y = x + x must deposit both path gradients into x."""
        x = Tensor(np.array([1.0, 1.0]))
        with Tape() as tape:
            tape.backward(sum_all(add(x, x)), [x])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3))
        with Tape() as tape:
            y = add(x, x)
            with pytest.raises(ContractError):
                tape.backward(y, [x])

    def test_off_tape_loss_rejected(self):
        x = Tensor(np.array(1.0))
        with pytest.raises(ContractError):
            Tape().backward(x, [x])

    def test_record_ids_are_topologically_ordered(self):
        """Each record's inputs carry smaller ids than its output."""
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3))
        with Tape() as tape:
            z = add(mul(x, y), x)
            _ = sum_all(z)
        outputs = [rec.output_id for rec in tape.records]
        assert len(set(outputs)) == len(outputs)
        for rec in tape.records:
            assert all(i < rec.output_id for i in rec.input_ids)

    def test_no_tape_means_no_tracking(self):
        x = Tensor(np.ones(3))
        y = add(x, x)
        assert y._tape is None

    def test_backward_consumes_the_tape(self):
        """A finished tape drops its records, so a second sweep is refused."""
        x = Tensor(np.array(2.0), dtype=np.float64)
        with Tape() as tape:
            loss = mul(x, x)
            tape.backward(loss, [x])
        assert tape.records == []
        with pytest.raises(ContractError):
            tape.backward(loss, [x])

    def test_sweep_frees_each_record_once_swept(self):
        """A late record's saved arrays are gone before the sweep reaches earlier records."""
        x = Tensor(np.ones(3), dtype=np.float64)
        seen = []

        def probe_bwd(g):
            seen.append(saved() is None)
            return (g,)

        with Tape() as tape:
            early = _emit("probe", (x,), x.data.copy(), probe_bwd)
            other = Tensor(np.full(3, 2.0))
            saved = weakref.ref(other.data)
            late = mul(early, other)
            del other
            assert saved() is not None
            tape.backward(sum_all(late), [x])
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_shape_only_backward_rules_keep_no_input_alive(self):
        """add and sum_all need only shapes to go backward, so they hold no activations."""
        x = Tensor(np.ones(3), dtype=np.float64)
        b = Tensor(np.ones(3), dtype=np.float64)
        with Tape() as tape:
            first, second = mul(x, x), mul(x, x)
            refs = [weakref.ref(first.data), weakref.ref(second.data)]
            total = add(sum_all(first), sum_all(add(second, b)))
            del first, second
            assert [r() for r in refs] == [None, None]
            tape.backward(total, [x, b])
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_params_reusable_across_tapes(self):
        x = Tensor(np.array(2.0), dtype=np.float64)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(mul(x, x), [x])
            np.testing.assert_allclose(x.grad, 4.0)


class TestSgd:
    def test_update_rule(self):
        p = Tensor(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -1.0], dtype=np.float32)
        sgd_step([p], 0.1)
        np.testing.assert_allclose(p.data, [0.95, 2.1], rtol=1e-6)

    def test_zero_gradient_is_identity(self):
        p = Tensor(np.array([1.25, -0.5]))
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        sgd_step([p], 0.9)
        np.testing.assert_array_equal(p.data, before)


class TestSeededInit:
    def test_replay_is_bit_identical(self):
        a = seeded_init((4, 5), "xavier_uniform", 42, "w")
        b = seeded_init((4, 5), "xavier_uniform", 42, "w")
        np.testing.assert_array_equal(a.data, b.data)

    def test_streams_differ(self):
        a = seeded_init((4, 5), "xavier_uniform", 42, "w1")
        b = seeded_init((4, 5), "xavier_uniform", 42, "w2")
        assert not np.array_equal(a.data, b.data)

    def test_xavier_bound_for_square(self):
        """fan_in = fan_out = 3 gives bound sqrt(6/6) = 1."""
        assert xavier_bound((3, 3)) == 1.0
        vals = seeded_init((3, 3), "xavier_uniform", 0, "sq").data
        assert np.abs(vals).max() <= 1.0

    def test_samples_respect_bound(self):
        b = xavier_bound((32, 48))
        vals = seeded_init((32, 48), "xavier_uniform", 1, "r").data
        assert np.abs(vals).max() <= b
        assert np.abs(vals).max() > 0.8 * b

    def test_zeros_and_ones(self):
        np.testing.assert_array_equal(seeded_init((2, 2), "zeros", 0).data, np.zeros((2, 2)))
        np.testing.assert_array_equal(seeded_init((3,), "ones", 0).data, np.ones(3))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ContractError):
            seeded_init((2,), "normal", 0)
