"""Transformer blocks, pooling rules, and the content and visual encoders."""

import numpy as np
import pytest

from jaeger.encoders import (EncoderConfig, attention_bias, encode_content,
                             encode_question_bidir, encode_question_causal, encode_visual,
                             init_block, init_content, init_encoder, init_visual,
                             multi_head_attention, run_blocks, transformer_block)
from jaeger.errors import ContractError, ShapeError
from jaeger.numerics import Tensor, linear, mul, seeded, sum_all
from jaeger.text import build_vocab, encode_text

from fdcheck import assert_grads_match

CFG = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq=16)
CAUSAL_CFG = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq=16, causal=True)
VOCAB = build_vocab(["a study of soil and rain", "what is the parent of beta"])


class TestEncoderConfig:
    def test_d_head(self):
        assert EncoderConfig(12, 3, 1, 8, 4).d_head == 4

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ContractError):
            EncoderConfig(d_model=10, n_heads=3, n_layers=1, d_ff=8, max_seq=4)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ContractError):
            EncoderConfig(d_model=0, n_heads=1, n_layers=1, d_ff=8, max_seq=4)
        with pytest.raises(ContractError):
            EncoderConfig(d_model=8, n_heads=2, n_layers=0, d_ff=8, max_seq=4)


class TestAttentionBias:
    def test_pad_columns_blocked(self):
        bias = attention_bias(np.array([True, True, False]), False, np.float32).data
        assert np.all(bias[:, 2] == -np.inf)
        assert np.all(bias[:, :2] == 0.0)

    def test_causal_blocks_future(self):
        bias = attention_bias(np.array([True, True, True]), True, np.float32).data
        assert bias[0, 1] == -np.inf and bias[0, 2] == -np.inf and bias[1, 2] == -np.inf
        assert bias[1, 0] == 0.0 and bias[2, 0] == 0.0 and bias[2, 1] == 0.0
        assert np.all(np.diag(bias) == 0.0)


class TestAttention:
    def test_single_position_reduces_to_value_path(self):
        """With one visible token the attention weight is exactly 1, so the
        output is just the value projection followed by the output projection."""
        cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq=4)
        blk = init_block(cfg, seeded(3), prefix="t")
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 8)).astype(np.float32))
        got = multi_head_attention(x, np.array([True]), blk, cfg).data
        want = linear(linear(x, blk.wv, blk.bv), blk.wo, blk.bo).data
        np.testing.assert_array_equal(got, want)

    def test_output_shape(self):
        blk = init_block(CFG, seeded(1), prefix="t")
        x = Tensor(np.zeros((5, 8), dtype=np.float32))
        out = multi_head_attention(x, np.ones(5, dtype=bool), blk, CFG)
        assert out.shape == (5, 8)

    def test_gradients_through_block(self):
        cfg = EncoderConfig(d_model=4, n_heads=2, n_layers=1, d_ff=8, max_seq=5)
        blk = init_block(cfg, seeded(11, np.float64), prefix="g")
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        mask = np.array([True, True, False])
        w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        params = [x] + list(vars(blk).values())
        assert_grads_match(params,
                           lambda: sum_all(mul(transformer_block(x, mask, blk, cfg), w)),
                           tol=1e-4)


class TestTransformerBlock:
    def test_preserves_shape(self):
        blk = init_block(CFG, seeded(2), prefix="t")
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        out = transformer_block(x, np.ones(6, dtype=bool), blk, CFG)
        assert out.shape == (6, 8)

    def test_wrong_width_rejected(self):
        blk = init_block(CFG, seeded(2), prefix="t")
        with pytest.raises(ShapeError):
            transformer_block(Tensor(np.zeros((3, 4), dtype=np.float32)),
                              np.ones(3, dtype=bool), blk, CFG)

    def test_sequence_over_max_rejected(self):
        cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq=4)
        blk = init_block(cfg, seeded(2), prefix="t")
        with pytest.raises(ContractError):
            transformer_block(Tensor(np.zeros((5, 8), dtype=np.float32)),
                              np.ones(5, dtype=bool), blk, cfg)


class TestQuestionEncoders:
    def test_bidir_is_deterministic(self):
        params = init_encoder(CFG, len(VOCAB), seeded(5), prefix="q")
        ids, mask = encode_text("a study of soil", VOCAB, 12)
        a = encode_question_bidir(ids, mask, params, CFG).data
        b = encode_question_bidir(ids, mask, params, CFG).data
        np.testing.assert_array_equal(a, b)

    def test_bidir_rejects_causal_config(self):
        params = init_encoder(CAUSAL_CFG, len(VOCAB), seeded(5), prefix="q")
        ids, mask = encode_text("a", VOCAB, 8)
        with pytest.raises(ContractError):
            encode_question_bidir(ids, mask, params, CAUSAL_CFG)

    def test_causal_rejects_bidir_config(self):
        params = init_encoder(CFG, len(VOCAB), seeded(5), prefix="q")
        ids, mask = encode_text("a", VOCAB, 8)
        with pytest.raises(ContractError):
            encode_question_causal(ids, mask, params, CFG)

    def test_causal_rejects_all_pad(self):
        params = init_encoder(CAUSAL_CFG, len(VOCAB), seeded(5), prefix="q")
        with pytest.raises(ContractError):
            encode_question_causal(np.zeros(4, dtype=np.int64),
                                   np.zeros(4, dtype=bool), params, CAUSAL_CFG)

    def test_pad_extension_changes_little(self):
        """Padding a sequence further must not change the pooled feature
        beyond float32 summation noise."""
        params = init_encoder(CFG, len(VOCAB), seeded(6), prefix="q")
        text = "a study of soil"
        short = encode_text(text, VOCAB, 8)
        long = encode_text(text, VOCAB, 16)
        a = encode_question_bidir(*short, params, CFG).data
        b = encode_question_bidir(*long, params, CFG).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)

    def test_causal_pad_extension(self):
        params = init_encoder(CAUSAL_CFG, len(VOCAB), seeded(6), prefix="q")
        text = "what is rain"
        short = encode_text(text, VOCAB, 8)
        long = encode_text(text, VOCAB, 16)
        a = encode_question_causal(*short, params, CAUSAL_CFG).data
        b = encode_question_causal(*long, params, CAUSAL_CFG).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)

    def test_causal_future_invariance_is_bit_exact(self):
        """Perturbing token t+1 cannot move any hidden row at or before t."""
        params = init_encoder(CAUSAL_CFG, len(VOCAB), seeded(7), prefix="q")
        ids, mask = encode_text("a study of soil and rain", VOCAB, 10)
        base = run_blocks(ids, mask, params, CAUSAL_CFG).data
        t = 4
        changed = ids.copy()
        changed[t + 1] = (changed[t + 1] + 1) % len(VOCAB)
        other = run_blocks(changed, mask, params, CAUSAL_CFG).data
        np.testing.assert_array_equal(base[: t + 1], other[: t + 1])
        assert not np.array_equal(base[t + 1], other[t + 1])

    def test_bidir_sees_the_future(self):
        """The bidirectional pool must react to late tokens."""
        params = init_encoder(CFG, len(VOCAB), seeded(7), prefix="q")
        a_ids, mask = encode_text("a study of soil", VOCAB, 10)
        b_ids = a_ids.copy()
        b_ids[4] = (b_ids[4] + 1) % len(VOCAB)
        a = encode_question_bidir(a_ids, mask, params, CFG).data
        b = encode_question_bidir(b_ids, mask, params, CFG).data
        assert not np.array_equal(a, b)

    def test_outputs_stay_finite(self):
        params = init_encoder(CFG, len(VOCAB), seeded(8), prefix="q")
        texts = ["a", "soil rain", "what is the parent of beta", "study of a study",
                 "rain rain rain rain rain rain"]
        for text in texts:
            ids, mask = encode_text(text, VOCAB, 12)
            out = encode_question_bidir(ids, mask, params, CFG).data
            assert np.isfinite(out).all()


class TestContentEncoder:
    def setup_method(self):
        self.params = init_content(CFG, len(VOCAB), seeded(9), prefix="c")
        self.ids, self.mask = encode_text("a study of soil", VOCAB, 10)

    def test_deterministic(self):
        box = (0.1, 0.2, 0.6, 0.4)
        a = encode_content(self.ids, self.mask, box, self.params, CFG).data
        b = encode_content(self.ids, self.mask, box, self.params, CFG).data
        np.testing.assert_array_equal(a, b)

    def test_bbox_moves_the_feature(self):
        a = encode_content(self.ids, self.mask, (0.1, 0.2, 0.6, 0.4), self.params, CFG).data
        b = encode_content(self.ids, self.mask, (0.3, 0.5, 0.9, 0.8), self.params, CFG).data
        assert not np.array_equal(a, b)

    def test_zeroed_bbox_weights_ignore_geometry(self):
        params = init_content(CFG, len(VOCAB), seeded(9), prefix="c")
        params.bbox_w.data[:] = 0.0
        a = encode_content(self.ids, self.mask, (0.1, 0.2, 0.6, 0.4), params, CFG).data
        b = encode_content(self.ids, self.mask, (0.3, 0.5, 0.9, 0.8), params, CFG).data
        np.testing.assert_array_equal(a, b)

    def test_degenerate_bbox_rejected(self):
        for box in [(0.5, 0.2, 0.5, 0.4), (0.1, 0.4, 0.6, 0.4), (0.6, 0.2, 0.1, 0.4)]:
            with pytest.raises(ContractError):
                encode_content(self.ids, self.mask, box, self.params, CFG)

    def test_bad_bbox_shape_rejected(self):
        with pytest.raises(ShapeError):
            encode_content(self.ids, self.mask, (0.1, 0.2, 0.6), self.params, CFG)

    def test_output_width(self):
        out = encode_content(self.ids, self.mask, (0.1, 0.2, 0.6, 0.4), self.params, CFG)
        assert out.shape == (CFG.d_model,)


class TestVisualEncoder:
    def test_output_width(self):
        params = init_visual(8, 16, 6, seeded(10), prefix="v")
        out = encode_visual(np.zeros(8), params)
        assert out.shape == (6,)

    def test_zero_params_give_zeros(self):
        params = init_visual(8, 16, 6, seeded(10), prefix="v")
        for t in (params.w1, params.b1, params.w2, params.b2):
            t.data[:] = 0.0
        out = encode_visual(np.ones(8), params)
        np.testing.assert_array_equal(out.data, np.zeros(6))

    def test_deterministic(self):
        params = init_visual(8, 16, 6, seeded(10), prefix="v")
        x = np.linspace(-1, 1, 8)
        np.testing.assert_array_equal(encode_visual(x, params).data,
                                      encode_visual(x, params).data)

    def test_wrong_width_rejected(self):
        params = init_visual(8, 16, 6, seeded(10), prefix="v")
        with pytest.raises(ShapeError):
            encode_visual(np.zeros(7), params)


def recording(seed: int, built: list):
    """seeded(seed) that also appends (name, tensor) for each tensor it builds."""
    draw = seeded(seed)

    def make(name, shape, scheme):
        built.append((name, draw(name, shape, scheme)))
        return built[-1][1]
    return make


class TestInit:
    def test_same_seed_same_weights(self):
        a, b = [], []
        init_encoder(CFG, len(VOCAB), recording(0, a), prefix="q")
        init_encoder(CFG, len(VOCAB), recording(0, b), prefix="q")
        assert len(a) == len(b)
        for (na, ta), (nb, tb) in zip(a, b):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_prefixes_decorrelate_weights(self):
        a = init_encoder(CFG, len(VOCAB), seeded(0), prefix="q1")
        b = init_encoder(CFG, len(VOCAB), seeded(0), prefix="q2")
        assert not np.array_equal(a.tok.data, b.tok.data)

    def test_named_covers_all_blocks(self):
        built = []
        init_encoder(CFG, len(VOCAB), recording(0, built), prefix="q")
        names = [n for n, _ in built]
        assert names[0] == "q.tok" and names[1] == "q.pos"
        assert len(names) == 2 + 16 * CFG.n_layers
        assert len(set(names)) == len(names)

    def test_content_named_includes_bbox(self):
        built = []
        init_content(CFG, len(VOCAB), recording(0, built), prefix="c")
        names = [n for n, _ in built]
        assert "c.bbox_w" in names and "c.bbox_b" in names
