"""Question fusion, candidate scoring, and answer-set extraction."""

import numpy as np
import pytest

from jaeger.errors import ContractError, ShapeError
from jaeger.fusion import (init_fusion, pair_features, per_candidate_mult_count,
                           predict_answer_set, reduce_dim, score_candidates)
from jaeger.numerics import Tensor, embedding_lookup, seeded
from jaeger.rng import Xoshiro256


def random_features(seed: int, n: int, b=2, d_q=6, d_c=5, d_v=3):
    """b reduced questions, n candidate rows of width d_c + d_v, and each candidate's
    question (owner) and row (rows)."""
    rng = np.random.default_rng(seed)
    q = Tensor(rng.normal(size=(b, d_q)).astype(np.float32))
    feats = Tensor(rng.normal(size=(n, d_c + d_v)).astype(np.float32))
    return q, feats, rng.integers(0, b, size=n), np.arange(n)


def score(q, feats, owner, rows, params):
    """The logit of each pair (owner[i], rows[i]): pair_features, then the scorer."""
    return score_candidates(pair_features(q, feats, owner, rows), params)


class TestReduce:
    def test_identity_weights_pass_through(self):
        params = init_fusion(4, 4, 5, 3, 8, seeded(0))
        params.reduce_w.data[:] = np.eye(4, dtype=np.float32)
        params.reduce_b.data[:] = 0.0
        q = Tensor(np.array([[1.0, -2.0, 3.0, 0.5], [0.0, 4.0, -1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(reduce_dim(q, params).data, q.data)

    def test_output_width(self):
        params = init_fusion(80, 32, 5, 3, 8, seeded(0))
        out = reduce_dim(Tensor(np.zeros((3, 80), dtype=np.float32)), params)
        assert out.shape == (3, 32)

    def test_wrong_input_width_rejected(self):
        """So is a (q,) vector: one question is a (1, q) stack."""
        params = init_fusion(80, 32, 5, 3, 8, seeded(0))
        for shape in ((3, 79), (80,)):
            with pytest.raises(ShapeError):
                reduce_dim(Tensor(np.zeros(shape, dtype=np.float32)), params)

    def test_reduction_cuts_scorer_work(self):
        """Scoring from the reduced width must cost fewer multiplications."""
        full = per_candidate_mult_count(80, 32, 16, 32)
        reduced = per_candidate_mult_count(32, 32, 16, 32)
        assert reduced < full


class TestScoreCandidates:
    def test_one_logit_per_candidate(self):
        params = init_fusion(6, 6, 5, 3, 8, seeded(1))
        q, feats, owner, rows = random_features(1, n=4)
        logits = score(q, feats, owner, rows, params)
        assert logits.shape == (4,)
        assert np.isfinite(logits.data).all()

    def test_no_candidates(self):
        params = init_fusion(6, 6, 5, 3, 8, seeded(1))
        q, feats, owner, rows = random_features(1, n=0)
        logits = score(q, feats, owner, rows, params)
        assert logits.shape == (0,)

    def test_permutation_equivariance_is_bit_exact(self):
        """Shuffling the pairs (owner and rows together) shuffles the logits, nothing
        else; so does shuffling the candidate rows themselves."""
        params = init_fusion(6, 6, 5, 3, 8, seeded(2))
        for n in (6, 30):
            q, feats, owner, rows = random_features(2, n=n)
            base = score(q, feats, owner, rows, params).data
            perm = Xoshiro256(9, "perm")
            order = list(range(n))
            perm.shuffle(order)
            shuffled = score(q, feats, owner[order], rows[order], params).data
            np.testing.assert_array_equal(shuffled, base[order])
            moved = score(q, Tensor(feats.data[order]), owner[order], rows, params).data
            np.testing.assert_array_equal(moved, base[order])

    def test_appending_candidates_never_moves_existing_logits(self):
        params = init_fusion(6, 6, 5, 3, 8, seeded(3))
        for n in (4, 1):
            q, feats, owner, rows = random_features(3, n=n)
            base = score(q, feats, owner, rows, params).data
            _, extra, extra_owner, extra_rows = random_features(4, n=3)
            grown = score(q, Tensor(np.concatenate([feats.data, extra.data])),
                          np.concatenate([owner, extra_owner]),
                          np.concatenate([rows, n + extra_rows]), params).data
            np.testing.assert_array_equal(grown[:n], base)

    def test_gathered_rows_score_like_their_own_stack(self):
        """A pair's logit depends on its question row and candidate row alone: a row
        gathered twice, or for two questions, scores as in its own one-pair call."""
        params = init_fusion(6, 6, 5, 3, 8, seeded(5))
        q, feats, _, _ = random_features(5, n=4, b=3)
        owner, rows = np.array([2, 0, 2, 1, 0]), np.array([3, 3, 0, 1, 3])
        logits = score(q, feats, owner, rows, params).data
        for i, (o, r) in enumerate(zip(owner, rows)):
            alone = score(Tensor(q.data[o:o + 1]), Tensor(feats.data[r:r + 1]), [0], [0],
                          params).data
            np.testing.assert_array_equal(logits[i:i + 1], alone)

    def test_looked_up_pair_rows_score_bit_for_bit_as_in_the_whole_matrix(self):
        """Scoring rows looked up from a pair matrix, as forward does with its
        sample_features entry, gives exactly those rows' logits from the whole."""
        params = init_fusion(6, 6, 5, 3, 8, seeded(6))
        q, feats, owner, rows = random_features(6, n=30, b=5)
        pairs = pair_features(q, feats, owner, rows)
        whole = score_candidates(pairs, params).data
        for ids in (np.arange(0, 7), np.arange(7, 8), np.arange(8, 30), np.array([29, 3, 3])):
            part = score_candidates(embedding_lookup(pairs, ids), params).data
            np.testing.assert_array_equal(part, whole[ids])

    def test_row_count_mismatch_rejected(self):
        q, feats, owner, rows = random_features(1, n=4)
        for bad_owner, bad_rows in ((owner[:3], rows), (owner, rows[:3]),
                                    (owner.reshape(2, 2), rows.reshape(2, 2))):
            with pytest.raises(ShapeError):
                pair_features(q, feats, bad_owner, bad_rows)


class TestPredictAnswerSet:
    def test_threshold_half_keeps_nonnegative_logits(self):
        assert predict_answer_set(np.array([2.0, -1.0, 0.3])) == {0, 2}

    def test_zero_logit_is_included(self):
        """sigmoid(0) = 0.5 sits exactly at the default threshold."""
        assert predict_answer_set(np.array([0.0, -0.1])) == {0}

    def test_all_below_gives_empty_set(self):
        assert predict_answer_set(np.array([-5.0, -0.2, -1.0])) == set()

    def test_empty_logits(self):
        assert predict_answer_set(np.zeros(0)) == set()

    def test_custom_threshold(self):
        logits = np.array([np.log(3.0), 0.0])
        assert predict_answer_set(logits, threshold=0.7) == {0}
        assert predict_answer_set(logits, threshold=0.4) == {0, 1}

    def test_accepts_tensor_input(self):
        assert predict_answer_set(Tensor([1.0, -1.0])) == {0}

    def test_bad_threshold_rejected(self):
        for t in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ContractError):
                predict_answer_set(np.zeros(1), threshold=t)

    def test_matrix_logits_rejected(self):
        with pytest.raises(ShapeError):
            predict_answer_set(np.zeros((2, 2)))
