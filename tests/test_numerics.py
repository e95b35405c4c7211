"""Tensor ops, the tape, and every backward rule against finite differences."""

import weakref
from typing import Callable, NamedTuple

import numpy as np
import pytest

from jaeger.encoders import attention_bias
from jaeger.errors import ContractError, IndexOutOfRange, ShapeError
from jaeger.numerics import (Tape, Tensor, _emit, add, bce_with_logits, concat_last,
                             embedding_lookup, feed_forward, linear, masked_mean_rows,
                             merge_rows, reshape, residual_norm, seeded, self_attention,
                             sgd_step, softmax_in_place, xavier_bound)

from conftest import project
from fdcheck import assert_grads_match, random_param


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
        assert_grads_match([v, m, b], lambda: project(linear(v, m, b), w))

    def test_stacked_input_gradients(self):
        """A matrix applied to a stack of inputs gets one gradient of its own shape."""
        rng = np.random.default_rng(16)
        a = random_param(rng, 2, 3, 4)
        m = random_param(rng, 4, 5)
        b = random_param(rng, 5)
        w = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64)
        assert_grads_match([a, m, b], lambda: project(linear(a, m, b), w))
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

    def test_scalars_rejected(self):
        """A 0-d operand has no last axis to join along."""
        for a, b in (((), ()), ((), (3,)), ((3,), ())):
            with pytest.raises(ShapeError, match="concat_last"):
                concat_last(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        a = random_param(rng, 2, 3)
        b = random_param(rng, 2, 4)
        w = Tensor(rng.normal(size=(2, 7)), dtype=np.float64)
        assert_grads_match([a, b], lambda: project(concat_last(a, b), w))


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

    @pytest.mark.parametrize("n_keys", [1, 5, 8, 24])
    def test_a_nan_makes_its_row_nan(self, n_keys):
        """Wherever the NaN sits among a row's keys, masked ones included, that row
        comes out all NaN and the other rows as they would alone."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(n_keys, 3, n_keys)).astype(np.float32)
        x[:, 1, n_keys // 2:] = -np.inf
        x[:, 1, 0] = 0.0
        alone = softmax_in_place(x.copy())
        for i in range(n_keys):
            x[i, i % 3, i] = np.nan
        got = softmax_in_place(x)
        nan_rows = np.zeros((n_keys, 3), dtype=bool)
        nan_rows[np.arange(n_keys), np.arange(n_keys) % 3] = True
        assert np.isnan(got[nan_rows]).all()
        np.testing.assert_array_equal(got[~nan_rows], alone[~nan_rows])

    def test_gradients(self):
        """The closed-form softmax gradient, which self_attention's backward applies to
        its scores, reaching x through q and k."""
        rng = np.random.default_rng(8)
        x = random_param(rng, 3, 5, 4)
        p = {name: Tensor(a) for name, a in attention_weights(rng, 4, np.float64).items()}
        wq, wk = p["wq"], p["wk"]
        w = Tensor(rng.normal(size=(3, 5, 4)), dtype=np.float64)
        bias = np.zeros((3, 1, 5, 5))
        assert_grads_match([x, wq, wk], lambda: project(
            self_attention(x, x, *(p[n] for n in ATTENTION_PARAMS), bias, 2), w))


ATTENTION_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")


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


def ones_rows(a: np.ndarray) -> np.ndarray:
    """The (k,) sum of a (..., k) array over its leading axes, as ones(R) @ a."""
    a2 = a.reshape(-1, a.shape[-1])
    return np.ones(len(a2), dtype=a.dtype) @ a2


def ones_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True) as a @ ones(k)."""
    k = a.shape[-1]
    return (a.reshape(-1, k) @ np.ones(k, dtype=a.dtype)).reshape(*a.shape[:-1], 1)


class Sums(NamedTuple):
    """How a composed backward takes its sums: over leading axes, and over the last one."""
    rows: Callable[[np.ndarray], np.ndarray]
    last: Callable[[np.ndarray], np.ndarray]


ONES = Sums(ones_rows, ones_last)  # the ones-vector products every backward rule sums with
NUMPY = Sums(lambda a: a.reshape(-1, a.shape[-1]).sum(axis=0),  # ndarray.sum, to bound ONES by
             lambda a: a.sum(axis=-1, keepdims=True))


def composed_attention(xq, xkv, p, bias, n_heads, g, sums=ONES):
    """Output and input gradients of self_attention, written out as its separate steps.

    Forward: the q product of the query rows xq, the k and v products of the key
    rows xkv, head split, q·kᵀ, scale by 1/√d_head, bias add, max-shifted softmax,
    product with v, head merge and the output product. Backward: each step's own
    rule in reverse, with the upstream gradient g of the output; q's gradient goes
    back through wq as one product, and k's and v's, joined into one (..., L, 2d)
    array, through the concatenated weights as another. When xq is xkv, the one
    tensor's gradient is the sum of the two. Its sums are taken by sums.
    """
    d = xkv.shape[-1]
    split = (*xkv.shape[:-2], -1, n_heads, d // n_heads)  # a (..., d) xq is one row
    q, v = (rows_times(x, p["w" + n]) + p["b" + n] for x, n in ((xq, "q"), (xkv, "v")))
    k = rows_times(xkv, p["wk"])  # keys carry no bias
    qh, kh, vh = (a.reshape(split).swapaxes(-3, -2) for a in (q, k, v))
    kt = kh.swapaxes(-2, -1)
    c = xq.dtype.type(1.0 / np.sqrt(split[-1]))
    scores = np.matmul(qh, kt) * c + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(y, vh).swapaxes(-3, -2).reshape(xq.shape)
    out = rows_times(ctx, p["wo"]) + p["bo"]

    g2, ctx2 = g.reshape(-1, d), ctx.reshape(-1, d)
    g_ctx = (g2 @ p["wo"].T).reshape(split).swapaxes(-3, -2)
    g_y, g_vh = np.matmul(g_ctx, vh.swapaxes(-1, -2)), np.matmul(y.swapaxes(-1, -2), g_ctx)
    g_scores = y * (g_y - sums.last(g_y * y))
    g_scaled = g_scores * c
    g_qh, g_kt = np.matmul(g_scaled, kt.swapaxes(-1, -2)), np.matmul(qh.swapaxes(-1, -2), g_scaled)
    g_q = g_qh.swapaxes(-3, -2).reshape(-1, d)
    g_kv = np.concatenate([gh.swapaxes(-3, -2).reshape(xkv.shape)
                           for gh in (g_kt.swapaxes(-2, -1), g_vh)], axis=-1).reshape(-1, 2 * d)
    w_kv = np.concatenate([p["wk"], p["wv"]], axis=1)
    g_w, g_b = xkv.reshape(-1, d).T @ g_kv, sums.rows(g_kv)
    grads = {"xq": (g_q @ p["wq"].T).reshape(xq.shape), "xkv": (g_kv @ w_kv.T).reshape(xkv.shape),
             "wq": xq.reshape(-1, d).T @ g_q, "bq": sums.rows(g_q), "wk": g_w[:, :d],
             "wv": g_w[:, d:], "bv": g_b[d:], "wo": ctx2.T @ g2, "bo": sums.rows(g2)}
    if xq is xkv:
        grads["xq"] = grads["xkv"] = grads["xq"] + grads["xkv"]
    return out, grads


def run_attention(xq, xkv, p, bias, n_heads, g):
    """self_attention's output and the gradients the tape gives for upstream g, by name.
    When xq is xkv, one tensor goes in as both, as in a full block."""
    ts = {"xq": Tensor(xq)}
    ts["xkv"] = ts["xq"] if xkv is xq else Tensor(xkv)
    ts.update((name, Tensor(p[name])) for name in ATTENTION_PARAMS)
    with Tape() as tape:
        out = self_attention(*ts.values(), bias, n_heads)
        tape.backward(project(out, g), list(ts.values()))
    return out.data, {name: t.grad for name, t in ts.items()}


def attention_args(rng, shape, dtype=np.float64):
    """A float64 parameter x of this shape and self_attention's seven weights, in order."""
    p = attention_weights(rng, shape[-1], dtype)
    return [random_param(rng, *shape)] + [Tensor(p[name]) for name in ATTENTION_PARAMS]


class TestAttention:
    """self_attention: the q, k and v products, the attention core and the output projection."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [False, True], ids=["bidirectional", "causal"])
    def test_bit_identical_to_the_composed_steps(self, dtype, causal):
        """Stacked and row-wise (2-D) inputs, PAD keys, 2 and 3 heads (d_head 6 and 4,
        so the 1/√d_head scale rounds), at the key counts the encoders run (8, 16 and
        24), one key and the odd counts 5 and 13."""
        rng = np.random.default_rng(30)
        for shape in (s for n in (1, 5, 6, 8, 13, 16, 24)
                      for s in ((2, 3, n, 12), (4, n, 12), (n, 12))):
            n_keys = shape[-2]
            keys = np.ones(shape[:-1], dtype=bool)
            keys[..., n_keys - n_keys // 3:] = False  # PAD keys; every query still sees key 0
            if len(shape) > 2:
                keys.reshape(-1, n_keys)[-1, -1] = True
            bias = attention_mask_bias(keys, causal, dtype)
            x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
            p = attention_weights(rng, shape[-1], dtype)
            for n_heads in (2, 3):
                out, grads = run_attention(x, x, p, bias, n_heads, g)
                want_out, want_grads = composed_attention(x, x, p, bias, n_heads, g)
                assert out.dtype == dtype
                np.testing.assert_array_equal(out, want_out)
                for name, want in want_grads.items():
                    assert grads[name].dtype == dtype
                    np.testing.assert_array_equal(grads[name], want, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_separate_query_rows_are_bit_identical_to_the_composed_steps(self, dtype):
        """One (..., d) query row per sequence, as a pooled block passes, and (..., Lq, d)
        rows, over PAD keys; the bias is the key mask alone, with a query axis of size 1."""
        rng = np.random.default_rng(37)
        for q_shape, kv_shape in (((4, 12), (4, 24, 12)), ((2, 3, 12), (2, 3, 8, 12)),
                                  ((4, 5, 12), (4, 16, 12)), ((12,), (13, 12)),
                                  ((3, 12), (13, 12))):
            n_keys = kv_shape[-2]
            keys = np.ones(kv_shape[:-1], dtype=bool)
            keys[..., n_keys - n_keys // 3:] = False
            bias = np.where(keys, 0.0, -np.inf).astype(dtype)[..., None, None, :]
            xq, xkv, g = (rng.normal(size=s).astype(dtype) for s in (q_shape, kv_shape, q_shape))
            p = attention_weights(rng, 12, dtype)
            for n_heads in (2, 3):
                out, grads = run_attention(xq, xkv, p, bias, n_heads, g)
                want_out, want_grads = composed_attention(xq, xkv, p, bias, n_heads, g)
                assert out.shape == q_shape and out.dtype == dtype
                np.testing.assert_array_equal(out, want_out)
                for name, want in want_grads.items():
                    np.testing.assert_array_equal(grads[name], want, err_msg=name)

    @pytest.mark.parametrize("q_shape", [(2, 6), (2, 3, 6)], ids=["one-row", "three-rows"])
    def test_gradients_with_separate_query_rows(self, q_shape):
        rng = np.random.default_rng(38)
        xq = random_param(rng, *q_shape)
        args = attention_args(rng, (2, 4, 6))
        keys = np.array([[True] * 4, [True, True, False, False]])
        bias = np.where(keys, 0.0, -np.inf)[:, None, None, :]
        w = Tensor(rng.normal(size=q_shape), dtype=np.float64)
        assert_grads_match([xq, *args], lambda: project(self_attention(xq, *args, bias, 3), w))

    def test_masked_key_gets_no_weight(self):
        """A PAD key's row never reaches another row's output, and with no upstream
        gradient on its own row, its input gets exactly zero gradient."""
        rng = np.random.default_rng(31)
        x, g = (rng.normal(size=(5, 4)) for _ in range(2))
        g[2] = 0.0
        p = attention_weights(rng, 4, np.float64)
        bias = attention_mask_bias(np.array([True, True, False, True, True]), False,
                                   np.float64)
        out, grads = run_attention(x, x, p, bias, 2, g)
        x2 = x.copy()
        x2[2] = 1e3
        others = [0, 1, 3, 4]
        np.testing.assert_array_equal(run_attention(x2, x2, p, bias, 2, g)[0][others], out[others])
        assert not grads["xq"][2].any()

    def test_gradients(self):
        rng = np.random.default_rng(32)
        args = attention_args(rng, (2, 4, 6))
        w = Tensor(rng.normal(size=(2, 4, 6)), dtype=np.float64)
        bias = attention_mask_bias(np.array([[True] * 4, [True, True, True, False]]), False,
                                   np.float64)
        assert_grads_match(args, lambda: project(self_attention(args[0], *args, bias, 3), w))

    def test_causal_gradients(self):
        rng = np.random.default_rng(33)
        args = attention_args(rng, (5, 4))
        w = Tensor(rng.normal(size=(5, 4)), dtype=np.float64)
        bias = attention_mask_bias(np.ones(5, dtype=bool), True, np.float64)
        assert_grads_match(args, lambda: project(self_attention(args[0], *args, bias, 2), w))

    def test_large_scores_stay_finite(self):
        rng = np.random.default_rng(34)
        p = attention_weights(rng, 8, np.float32)
        p["wq"] *= 1e3
        x = rng.normal(size=(6, 8)).astype(np.float32)
        bias = attention_mask_bias(np.ones(6, dtype=bool), False, np.float32)
        xt = Tensor(x)
        out = self_attention(xt, xt, *(Tensor(p[n]) for n in ATTENTION_PARAMS), bias, 2).data
        assert np.isfinite(out).all()

    def test_is_one_record(self):
        """The query rows, the key/value rows and the seven weights are the record's
        inputs; the bias is a plain array."""
        args = attention_args(np.random.default_rng(35), (3, 4))
        with Tape() as tape:
            self_attention(args[0], *args, np.zeros((1, 3, 3)), 2)
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
        x = Tensor(np.zeros(x_shape))
        with pytest.raises(ShapeError) as err:
            self_attention(x, x, *p.values(), np.zeros((1, 1)), n_heads)
        assert str(x_shape) in str(err.value)

    def test_bias_that_does_not_fit_rejected(self):
        args = attention_args(np.random.default_rng(36), (3, 8))
        with pytest.raises(ShapeError):
            self_attention(args[0], *args, np.zeros((1, 4, 4)), 2)

    @pytest.mark.parametrize("n_heads", [0, -2])
    def test_head_count_below_one_rejected(self, n_heads):
        args = attention_args(np.random.default_rng(36), (3, 8))
        with pytest.raises(ShapeError, match="self_attention"):
            self_attention(args[0], *args, np.zeros((1, 3, 3)), n_heads)


def composed_residual_norm(x, y, gamma, beta, g, eps=1e-5, sums=ONES):
    """Output and x, y, gamma, beta gradients of residual_norm as separate steps:
    the add, then layer norm's forward and backward. The forward's means are
    ndarray.mean; the backward's are a sum by sums and a divide by the width."""
    s = x + y
    xc = s - s.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + x.dtype.type(eps))
    xhat = xc * inv
    dxhat = g * gamma
    d = x.shape[-1]
    gx = inv * (dxhat - sums.last(dxhat) / d - xhat * (sums.last(dxhat * xhat) / d))
    return xhat * gamma + beta, [gx, gx, sums.rows(g * xhat), sums.rows(g)]


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

    def test_scalars_rejected(self):
        """0-d x and y have no last axis to normalize, even beside (0,) gamma and beta."""
        x = Tensor(np.float32(1.0))
        empty = Tensor(np.zeros(0, dtype=np.float32))
        with pytest.raises(ShapeError, match="residual_norm"):
            residual_norm(x, x, empty, empty)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x, y = random_param(rng, 4, 6), random_param(rng, 4, 6)
        gamma = random_param(rng, 6)
        beta = random_param(rng, 6)
        w = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
        assert_grads_match([x, y, gamma, beta],
                           lambda: project(residual_norm(x, y, gamma, beta), w))

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
            tape.backward(project(out, g), ts)
        want_out, want_grads = composed_residual_norm(x, y, gamma, beta, g)
        np.testing.assert_array_equal(out.data, want_out)
        for t, want in zip(ts, want_grads):
            assert t.grad.dtype == dtype
            np.testing.assert_array_equal(t.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 8, 32, 33, 80, 129])
    def test_bytes_match_the_mean_formula_at_every_width(self, dtype, width):
        """Each mean is a sum and a divide by the width, on rows far from zero mean:
        the forward's with the same bytes as ndarray.mean, the backward's with
        the same bytes as a ones-vector product and a divide."""
        rng = np.random.default_rng(width)
        x, y, g = (rng.normal(loc=5.0, scale=3.0, size=(3, 4, width)).astype(dtype)
                   for _ in range(3))
        gamma, beta = (rng.normal(size=width).astype(dtype) for _ in range(2))
        ts = [Tensor(a) for a in (x, y, gamma, beta)]
        with Tape() as tape:
            out = residual_norm(*ts)
            tape.backward(project(out, g), ts)
        want_out, want_grads = composed_residual_norm(x, y, gamma, beta, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert [t.grad.tobytes() for t in ts] == [w.tobytes() for w in want_grads]


def composed_feed_forward(x, w1, b1, w2, b2, g, sums=ONES):
    """Output and x, w1, b1, w2, b2 gradients of feed_forward as separate steps:
    an affine layer, the relu and a second affine layer, each with its own rule;
    the bias gradients are sums by sums."""
    pre = rows_times(x, w1) + b1
    h = np.maximum(pre, 0)
    out = rows_times(h, w2) + b2
    w2m = w2.reshape(len(w2), -1)
    g2 = g.reshape(-1, w2m.shape[1])
    gh = (g2 @ w2m.T).reshape(h.shape) * (pre > 0)
    gh2, x2 = gh.reshape(-1, w1.shape[1]), x.reshape(-1, w1.shape[0])
    return out, [(gh2 @ w1.T).reshape(x.shape), x2.T @ gh2, sums.rows(gh2),
                 (h.reshape(-1, len(w2)).T @ g2).reshape(w2.shape),
                 sums.rows(g2).reshape(b2.shape)]


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
        assert_grads_match([x], lambda: project(feed_forward(x, *self.identity_layers(4)), w))

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
            tape.backward(project(out, g), ts)
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
        assert_grads_match(args, lambda: project(feed_forward(*args), c))

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


def scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max |want|: an error on the gradient's own scale."""
    return float(np.abs(got.astype(np.float64) - want).max() / np.abs(want).max())


class TestOnesSumsAgainstNumpy:
    """Backward sums are ones-vector products, which round differently from
    ndarray.sum. At the benchmark's content stacks (120, 16, 32) and (120, 8, 32)
    and question stacks (8, 24, 48) and (8, 24, 32), every gradient of the four
    affine and norm ops stays within BOUND of the NUMPY formulas, on its own scale.

    The worst measured over 30 seeds, either BLAS thread count, was 20.4 ulps of
    the largest entry in float64 and 19.6 in float32, both on a sum down 1,920
    rows (a bias or gamma gradient); every other gradient stayed within 3 ulps.
    """

    BOUND = {np.float64: 1e-12, np.float32: 32 * float(np.finfo(np.float32).eps)}
    STACKS = [(120, 16, 32), (120, 8, 32), (8, 24, 48), (8, 24, 32)]

    @staticmethod
    def assert_within_bound(grads: dict, want: dict, dtype):
        for name, w in want.items():
            assert grads[name].dtype == dtype
            err = scaled_error(grads[name], w)
            assert err <= TestOnesSumsAgainstNumpy.BOUND[dtype], f"{name}: {err:.3e}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", STACKS, ids=["x".join(map(str, s)) for s in STACKS])
    def test_self_attention(self, dtype, shape):
        rng = np.random.default_rng(42)
        n_keys = shape[-2]
        keys = np.ones(shape[:-1], dtype=bool)
        keys[::2, n_keys - n_keys // 4:] = False  # every other entry ends in PAD keys
        for causal in (False, True):
            bias = attention_mask_bias(keys, causal, dtype)
            x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
            p = attention_weights(rng, shape[-1], dtype)
            grads = run_attention(x, x, p, bias, 2, g)[1]
            self.assert_within_bound(grads, composed_attention(x, x, p, bias, 2, g, sums=NUMPY)[1],
                                     dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", STACKS, ids=["x".join(map(str, s)) for s in STACKS])
    def test_residual_norm(self, dtype, shape):
        rng = np.random.default_rng(43)
        x, y, g = (rng.normal(size=shape).astype(dtype) for _ in range(3))
        gamma, beta = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
        ts = [Tensor(a) for a in (x, y, gamma, beta)]
        with Tape() as tape:
            tape.backward(project(residual_norm(*ts), g), ts)
        want = composed_residual_norm(x, y, gamma, beta, g, sums=NUMPY)[1]
        self.assert_within_bound({i: t.grad for i, t in enumerate(ts)}, dict(enumerate(want)),
                                 dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", STACKS, ids=["x".join(map(str, s)) for s in STACKS])
    def test_feed_forward(self, dtype, shape):
        """A transformer block's layers, (d, 2d) and (2d, d)."""
        rng = np.random.default_rng(44)
        d = shape[-1]
        x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        w1, w2 = ((rng.normal(size=s) / np.sqrt(s[0])).astype(dtype)
                  for s in ((d, 2 * d), (2 * d, d)))
        b1, b2 = (rng.normal(size=n).astype(dtype) for n in (2 * d, d))
        ts = [Tensor(a) for a in (x, w1, b1, w2, b2)]
        with Tape() as tape:
            tape.backward(project(feed_forward(*ts), g), ts)
        want = composed_feed_forward(x, w1, b1, w2, b2, g, sums=NUMPY)[1]
        self.assert_within_bound({i: t.grad for i, t in enumerate(ts)}, dict(enumerate(want)),
                                 dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", STACKS, ids=["x".join(map(str, s)) for s in STACKS])
    def test_linear(self, dtype, shape):
        """A (d, d) weight and a (d,) one."""
        rng = np.random.default_rng(45)
        d = shape[-1]
        x = rng.normal(size=shape).astype(dtype)
        for w_shape in ((d, d), (d,)):
            w = (rng.normal(size=w_shape) / np.sqrt(d)).astype(dtype)
            g = rng.normal(size=shape[:-1] + w_shape[1:]).astype(dtype)
            ts = [Tensor(a) for a in (x, w, np.zeros(w_shape[1:], dtype=dtype))]
            with Tape() as tape:
                tape.backward(project(linear(*ts), g), ts)
            w2, g2 = w.reshape(d, -1), g.reshape(-1, w.size // d)
            want = [(g2 @ w2.T).reshape(shape), (x.reshape(-1, d).T @ g2).reshape(w_shape),
                    NUMPY.rows(g2).reshape(w_shape[1:])]
            self.assert_within_bound({i: t.grad for i, t in enumerate(ts)},
                                     dict(enumerate(want)), dtype)


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
        assert_grads_match(params, lambda: project(fn(x, *params), c))
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

    @pytest.mark.parametrize("ids", [[1.7, 2.2], [1.0, 2.0], [True, False]],
                             ids=["fractional", "whole-floats", "bools"])
    def test_non_integer_ids_rejected(self, ids):
        """Float ids would be truncated to rows, and bools read as rows 0 and 1."""
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(ShapeError, match="embedding_lookup"):
            embedding_lookup(table, ids)

    def test_duplicate_ids_accumulate_gradient(self):
        """A row looked up twice receives the sum of both upstream grads."""
        table = Tensor(np.zeros((3, 2)), dtype=np.float64)
        with Tape() as tape:
            loss = project(embedding_lookup(table, [1, 1, 2]), np.ones((3, 2)))
            tape.backward(loss, [table])
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("id_shape", [(0,), (9,), (4, 6), (2, 3, 5)],
                             ids=["empty", "rank-1", "rank-2", "rank-3"])
    def test_backward_bytes_match_add_at_on_the_table(self, dtype, id_shape):
        """Repeated ids, and upstream gradients holding -0.0: a row that gets only
        -0.0 comes out +0.0 from np.add.at into zeros, so signs are compared too."""
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(5, 4)).astype(dtype))
        ids = rng.integers(0, 4, size=id_shape)  # row 4 is never looked up
        g = rng.normal(size=(*id_shape, 4)).astype(dtype)
        g[ids == 0] = -0.0
        g[rng.random(g.shape) < 0.2] = -0.0
        with Tape() as tape:
            embedding_lookup(table, ids)
        (got,) = tape.records[0].backward_fn(g)
        want = np.zeros_like(table.data)
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 4))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_gradients(self):
        rng = np.random.default_rng(12)
        table = random_param(rng, 5, 3)
        w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        assert_grads_match([table],
                           lambda: project(embedding_lookup(table, [0, 2, 2, 4]), w))


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
        assert_grads_match([x, w, b], lambda: project(linear(x, w, b), c))
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
        assert_grads_match([x, w, b], lambda: project(linear(x, w, b), c))
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
        assert_grads_match([a, b], lambda: project(merge_rows([a, b], index), c))
        with Tape() as tape:
            merge_rows([a, b], index)
        assert [rec.op for rec in tape.records] == ["merge_rows"]

    def test_merge_rows_needs_a_permutation(self):
        parts = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3)))]
        for index in ([0, 1], [0, 1, 1], [0, 1, 3]):
            with pytest.raises(ShapeError):
                merge_rows(parts, index)

    def test_merge_rows_needs_a_part(self):
        with pytest.raises(ShapeError, match="merge_rows"):
            merge_rows([], [])

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

        assert_grads_match([x, b], lambda: project(add(x, b), np.ones((4, 3))))
        assert_grads_match([x], lambda: project(masked_mean_rows(x, mask), w))

    def test_batched_and_broadcast_gradients(self):
        rng = np.random.default_rng(17)
        x = random_param(rng, 2, 3, 4)
        col = random_param(rng, 2, 1, 4)
        mask = np.array([[True, False, True], [False, True, False]])
        w = Tensor(rng.normal(size=(4, 3, 2)), dtype=np.float64)
        v = Tensor(rng.normal(size=(2, 4)), dtype=np.float64)
        u = rng.normal(size=(2, 3, 4))

        assert_grads_match([x, col], lambda: project(add(x, col), u))
        assert_grads_match([x], lambda: project(reshape(x, (4, 3, 2)), w))
        assert_grads_match([x], lambda: project(masked_mean_rows(x, mask), v))

    def test_broadcast_values_match_numpy(self):
        rng = np.random.default_rng(18)
        a, b = rng.normal(size=(2, 1, 4)), rng.normal(size=(3, 1))
        np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)

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
        x = Tensor(np.array([3.0]), dtype=np.float64)
        with Tape() as tape:
            tape.backward(linear(x, x, Tensor(np.zeros(()))), [x])
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_unused_param_gets_exact_zero(self):
        x = Tensor(np.array([1.0, 2.0]))
        unused = Tensor(np.array([[5.0]]))
        with Tape() as tape:
            tape.backward(linear(x, x, Tensor(np.zeros(()))), [x, unused])
        np.testing.assert_array_equal(unused.grad, [[0.0]])

    def test_reused_node_accumulates(self):
        """y = x + x must deposit both path gradients into x."""
        x = Tensor(np.array([1.0, 1.0]))
        with Tape() as tape:
            tape.backward(project(add(x, x), np.ones(2)), [x])
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
            z = add(add(x, y), x)
            _ = project(z, np.ones(3))
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
        x = Tensor(np.array([2.0]), dtype=np.float64)
        with Tape() as tape:
            loss = linear(x, x, Tensor(np.zeros(())))
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
            late = linear(early, other, Tensor(np.zeros(())))
            del other
            assert saved() is not None
            tape.backward(late, [x])
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_shape_only_backward_rules_keep_no_input_alive(self):
        """add needs only shapes to go backward, so it holds no activations."""
        x = Tensor(np.ones(3), dtype=np.float64)
        b = Tensor(np.ones(3), dtype=np.float64)
        with Tape() as tape:
            first, second = add(x, x), add(x, x)
            refs = [weakref.ref(first.data), weakref.ref(second.data)]
            total = project(add(first, add(second, b)), np.ones(3))
            del first, second
            assert [r() for r in refs] == [None, None]
            tape.backward(total, [x, b])
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_params_reusable_across_tapes(self):
        x = Tensor(np.array([2.0]), dtype=np.float64)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(linear(x, x, Tensor(np.zeros(()))), [x])
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
        a = seeded(42)("w", (4, 5), "xavier_uniform")
        b = seeded(42)("w", (4, 5), "xavier_uniform")
        np.testing.assert_array_equal(a.data, b.data)

    def test_streams_differ(self):
        a = seeded(42)("w1", (4, 5), "xavier_uniform")
        b = seeded(42)("w2", (4, 5), "xavier_uniform")
        assert not np.array_equal(a.data, b.data)

    def test_xavier_bound_for_square(self):
        """fan_in = fan_out = 3 gives bound sqrt(6/6) = 1."""
        assert xavier_bound((3, 3)) == 1.0
        vals = seeded(0)("sq", (3, 3), "xavier_uniform").data
        assert np.abs(vals).max() <= 1.0

    def test_samples_respect_bound(self):
        b = xavier_bound((32, 48))
        vals = seeded(1)("r", (32, 48), "xavier_uniform").data
        assert np.abs(vals).max() <= b
        assert np.abs(vals).max() > 0.8 * b

    def test_zeros_and_ones(self):
        np.testing.assert_array_equal(seeded(0)("", (2, 2), "zeros").data, np.zeros((2, 2)))
        np.testing.assert_array_equal(seeded(0)("", (3,), "ones").data, np.ones(3))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ContractError):
            seeded(0)("", (2,), "normal")
