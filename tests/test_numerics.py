"""Tensor ops, the tape, and every backward rule against finite differences."""

import weakref

import numpy as np
import pytest

from jaeger.errors import ContractError, IndexOutOfRange, ShapeError
from jaeger.numerics import (Tape, Tensor, _emit, add, bce_with_logits,
                             concat_last, embedding_lookup, layer_norm, linear,
                             masked_mean_rows, matmul, mul, relu, reshape, rowwise_matmul, scale,
                             seeded_init, sgd_step, softmax_last, sum_all, transpose,
                             xavier_bound)

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


class TestMatmul:
    def test_against_naive_loops(self):
        """np-backed matmul agrees with the written-out triple loop."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, k, n = rng.integers(1, 7, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = matmul(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, naive_matmul(a, b), rtol=1e-12)

    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        got = matmul(Tensor(a), Tensor(np.eye(3))).data
        np.testing.assert_array_equal(got, a)

    def test_vector_cases_match_numpy(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4)
        m = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        np.testing.assert_allclose(linear(Tensor(v), Tensor(m), Tensor(b)).data, v @ m + b)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        a = random_param(rng, 3, 4)
        b = random_param(rng, 4, 2)
        w = Tensor(rng.normal(size=(3, 2)), dtype=np.float64)
        assert_grads_match([a, b], lambda: sum_all(mul(matmul(a, b), w)))

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

    def test_vectors_and_a_stack_against_one_matrix_rejected(self):
        """Only equal-leading-dimension stacks remain; affine layers go through linear."""
        for a, b in (((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4, 5)),
                     ((3, 4), (2, 4, 5)), ((2, 3, 4, 5), (3, 2, 5, 2))):
            with pytest.raises(ShapeError) as err:
                matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))
            assert str(a) in str(err.value) and str(b) in str(err.value)

    def test_stacks_with_equal_leading_dimensions(self):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 5, 2))
        np.testing.assert_array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
        x, y = random_param(rng, 2, 3, 4), random_param(rng, 2, 4, 5)
        w = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64)
        assert_grads_match([x, y], lambda: sum_all(mul(matmul(x, y), w)))


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
        with pytest.raises(ShapeError):
            concat_last(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        a = random_param(rng, 2, 3)
        b = random_param(rng, 2, 4)
        w = Tensor(rng.normal(size=(2, 7)), dtype=np.float64)
        assert_grads_match([a, b], lambda: sum_all(mul(concat_last(a, b), w)))


class TestSoftmax:
    def test_uniform_row(self):
        got = softmax_last(Tensor([0.0, 0.0, 0.0])).data
        np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3], rtol=1e-6)

    def test_extreme_logits_stay_finite(self):
        got = softmax_last(Tensor([1000.0, 0.0])).data
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        a = softmax_last(Tensor(x)).data
        b = softmax_last(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.normal(scale=5.0, size=(3, 8)).astype(np.float32)
            sums = softmax_last(Tensor(x)).data.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_masked_entries_are_exactly_zero(self):
        x = np.array([1.0, -np.inf, 2.0, -np.inf])
        got = softmax_last(Tensor(x)).data
        assert got[1] == 0.0 and got[3] == 0.0
        np.testing.assert_allclose(got.sum(), 1.0, rtol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = random_param(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
        assert_grads_match([x], lambda: sum_all(mul(softmax_last(x), w)))


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        """Zero variance is absorbed by eps instead of dividing by zero."""
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        got = layer_norm(Tensor([2.0, 2.0, 2.0, 2.0]), gamma, beta).data
        np.testing.assert_allclose(got, 0.0, atol=1e-7)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=3.0, scale=2.5, size=(5, 16))
        gamma, beta = Tensor(np.ones(16)), Tensor(np.zeros(16))
        got = layer_norm(Tensor(x), gamma, beta).data
        np.testing.assert_allclose(got.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(got.var(axis=-1), 1.0, atol=1e-4)

    def test_gamma_beta_apply(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        got = layer_norm(x, Tensor([2.0, 2.0]), Tensor([0.5, 0.5])).data
        np.testing.assert_allclose(got, [[2.5, -1.5]], atol=1e-4)

    def test_param_width_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x = random_param(rng, 4, 6)
        gamma = random_param(rng, 6)
        beta = random_param(rng, 6)
        w = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
        assert_grads_match([x, gamma, beta],
                           lambda: sum_all(mul(layer_norm(x, gamma, beta), w)))


class TestRelu:
    def test_values(self):
        got = relu(Tensor([-2.0, 0.0, 3.5])).data
        np.testing.assert_array_equal(got, [0.0, 0.0, 3.5])

    def test_gradients_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5,
                   dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        assert_grads_match([x], lambda: sum_all(mul(relu(x), w)))


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


class TestRowwiseMatmul:
    def test_values_are_the_row_by_row_product(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(5, 7)).astype(np.float32)
        w = rng.normal(size=(7, 3)).astype(np.float32)
        v = rng.normal(size=7).astype(np.float32)
        got = rowwise_matmul(Tensor(x), Tensor(w)).data
        np.testing.assert_array_equal(got, (x[:, :, None] * w).sum(axis=1))
        np.testing.assert_allclose(got, x @ w, rtol=1e-5, atol=1e-5)
        np.testing.assert_array_equal(rowwise_matmul(Tensor(x), Tensor(v)).data,
                                      (x * v).sum(axis=1))

    def test_a_row_does_not_depend_on_the_other_rows(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 40)).astype(np.float32)
        w = rng.normal(size=(40, 16)).astype(np.float32)
        whole = rowwise_matmul(Tensor(x), Tensor(w)).data
        for i in range(9):
            np.testing.assert_array_equal(rowwise_matmul(Tensor(x[i:i + 1]), Tensor(w)).data,
                                          whole[i:i + 1])

    def test_gradients(self):
        rng = np.random.default_rng(22)
        x = random_param(rng, 4, 5)
        w = random_param(rng, 5, 3)
        v = random_param(rng, 5)
        c = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        u = Tensor(rng.normal(size=4), dtype=np.float64)
        assert_grads_match([x, w], lambda: sum_all(mul(rowwise_matmul(x, w), c)))
        assert_grads_match([x, v], lambda: sum_all(mul(rowwise_matmul(x, v), u)))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            rowwise_matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ShapeError):
            rowwise_matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


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

    @pytest.mark.parametrize("x_shape", [(4,), (3, 4), (2, 3, 4)],
                             ids=["vector", "matrix", "stack"])
    def test_linear_gradients(self, x_shape):
        """One record whose backward gives x, w and b their gradients."""
        rng = np.random.default_rng(24)
        x, w, b = random_param(rng, *x_shape), random_param(rng, 4, 5), random_param(rng, 5)
        c = Tensor(rng.normal(size=x_shape[:-1] + (5,)), dtype=np.float64)
        assert_grads_match([x, w, b], lambda: sum_all(mul(linear(x, w, b), c)))
        with Tape() as tape:
            linear(x, w, b)
        assert [rec.op for rec in tape.records] == ["linear"]

    def test_linear_rejects_bad_shapes(self):
        for x, w, b in (((3, 4), (5, 2), (2,)), ((3, 4), (4,), (1,)), ((3, 4), (4, 2), (3,))):
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
        assert_grads_match([x], lambda: sum_all(scale(x, -2.5)))
        assert_grads_match([x], lambda: sum_all(mul(masked_mean_rows(x, mask), w)))
        assert_grads_match([x], lambda: sum_all(transpose(x)))

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
        assert_grads_match([x], lambda: sum_all(mul(transpose(x, 0, 2), w)))
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

    def test_reshape_and_transpose_reject_bad_shapes(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            reshape(x, (4, 2))
        with pytest.raises(ShapeError):
            transpose(x, 0, 2)

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
