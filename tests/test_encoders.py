"""Transformer blocks, pooling rules, and the content and visual encoders."""

import math
import warnings

import numpy as np
import pytest

from jaeger.encoders import (WIDTH_STEP, EncoderConfig, attention_bias, encode_content,
                             encode_question_bidir, encode_question_causal, encode_visual,
                             init_block, init_content, init_encoder, init_visual, run_blocks,
                             transformer_block)
from jaeger.errors import ContractError, ShapeError
from jaeger.numerics import Tape, Tensor, linear, masked_mean_rows, reshape, seeded, self_attention
from jaeger.text import build_vocab, encode_text

from conftest import project
from fdcheck import assert_grads_match

CFG = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq=16)
CAUSAL_CFG = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq=16, causal=True)
VOCAB = build_vocab(["a study of soil and rain", "what is the parent of beta"])


def block_bias(mask, causal=False, dtype=np.float32) -> np.ndarray:
    """The bias run_blocks gives each block: attention_bias with a head axis of size 1."""
    return attention_bias(np.asarray(mask)[..., None, :], causal, dtype)


def block_attention(x, bias, blk, cfg):
    """A full block's self_attention sublayer: x gives the queries, keys and values."""
    return self_attention(x, x, blk.wq, blk.bq, blk.wk, blk.wv, blk.bv, blk.wo, blk.bo, bias,
                          cfg.n_heads)


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
        bias = attention_bias(np.array([True, True, False]), False, np.float32)
        assert np.all(bias[:, 2] == -np.inf)
        assert np.all(bias[:, :2] == 0.0)

    def test_causal_blocks_future(self):
        bias = attention_bias(np.array([True, True, True]), True, np.float32)
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
        got = block_attention(x, block_bias([True]), blk, cfg).data
        want = linear(linear(x, blk.wv, blk.bv), blk.wo, blk.bo).data
        np.testing.assert_array_equal(got, want)

    def test_a_block_is_four_records(self):
        """self_attention takes the query rows, the key/value rows and the four
        projections' weights; the mask bias is a plain array, so no record takes it
        as an input."""
        blk = init_block(CFG, seeded(1), prefix="t")
        x = Tensor(np.zeros((2, 5, 8), dtype=np.float32))
        with Tape() as tape:
            transformer_block(x, x, block_bias(np.ones((2, 5), dtype=bool)), blk, CFG)
        assert [(r.op, len(r.input_ids)) for r in tape.records] == \
            [("self_attention", 9), ("residual_norm", 4), ("feed_forward", 5),
             ("residual_norm", 4)]

    def test_output_shape(self):
        blk = init_block(CFG, seeded(1), prefix="t")
        x = Tensor(np.zeros((5, 8), dtype=np.float32))
        out = block_attention(x, block_bias(np.ones(5, dtype=bool)), blk, CFG)
        assert out.shape == (5, 8)

    def test_gradients_through_block(self):
        cfg = EncoderConfig(d_model=4, n_heads=2, n_layers=1, d_ff=8, max_seq=5)
        blk = init_block(cfg, seeded(11, np.float64), prefix="g")
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        bias = block_bias(np.array([True, True, False]), dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        params = [x] + list(vars(blk).values())
        assert_grads_match(params,
                           lambda: project(transformer_block(x, x, bias, blk, cfg), w),
                           tol=1e-4)


class TestTransformerBlock:
    def test_preserves_shape(self):
        blk = init_block(CFG, seeded(2), prefix="t")
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        out = transformer_block(x, x, block_bias(np.ones(6, dtype=bool)), blk, CFG)
        assert out.shape == (6, 8)

    def test_wrong_width_rejected(self):
        blk = init_block(CFG, seeded(2), prefix="t")
        x = Tensor(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            transformer_block(x, x, block_bias(np.ones(3, dtype=bool)), blk, CFG)

    def test_sequence_over_max_rejected(self):
        cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq=4)
        blk = init_block(cfg, seeded(2), prefix="t")
        x = Tensor(np.zeros((5, 8), dtype=np.float32))
        with pytest.raises(ContractError):
            transformer_block(x, x, block_bias(np.ones(5, dtype=bool)), blk, cfg)


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

    def test_bidir_rejects_all_pad(self):
        """An all-PAD question has no key to attend to; it is refused, not pooled into NaN."""
        params = init_encoder(CFG, len(VOCAB), seeded(5), prefix="q")
        ids, mask = (np.stack([a, np.zeros_like(a)]) for a in encode_text("a", VOCAB, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="all-PAD"):
                encode_question_bidir(ids, mask, params, CFG)

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


ENCODERS = {"bidir": encode_question_bidir, "causal": encode_question_causal}


def question_stack(n: int, length: int, seed: int):
    """ids and mask of n questions of random tokens, each 1 to length tokens long."""
    rng = np.random.default_rng(seed)
    mask = np.arange(length) < rng.integers(1, length + 1, size=(n, 1))
    return np.where(mask, rng.integers(1, len(VOCAB), size=(n, length)), 0), mask


def full_then_pool(ids, mask, params, cfg):
    """The feature computed the long way: every block at every position, then the
    pooled row, position 0 (bidirectional) or the last non-PAD one (causal)."""
    hidden = run_blocks(ids, mask, params, cfg).data
    m = np.asarray(mask, dtype=bool)
    pos = m.shape[-1] - 1 - np.argmax(m[..., ::-1], axis=-1) if cfg.causal else \
        np.zeros(m.shape[:-1], dtype=np.int64)
    return np.take_along_axis(hidden, pos[..., None, None], axis=-2)[..., 0, :]


def question_cfg(kind: str, n_layers: int = 2, d_model: int = 8, max_seq: int = 16):
    return EncoderConfig(d_model=d_model, n_heads=2, n_layers=n_layers, d_ff=2 * d_model,
                         max_seq=max_seq, causal=kind == "causal")


@pytest.mark.parametrize("kind", ["bidir", "causal"])
class TestPooledQuestions:
    """A question encoder runs its last block with the pooled row alone as the query."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("lead", [(), (2, 3)], ids=["one", "2x3"])
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-6)],
                             ids=["float64", "float32"])
    def test_equals_the_full_stack_then_the_pooled_row(self, kind, n_layers, lead, dtype, atol):
        cfg = question_cfg(kind, n_layers)
        params = init_encoder(cfg, len(VOCAB), seeded(13, dtype), prefix="q")
        ids, mask = (a.reshape(*lead, 16) for a in question_stack(math.prod(lead), 16, n_layers))
        got = ENCODERS[kind](ids, mask, params, cfg)
        assert got.shape == (*lead, 8) and got.dtype == dtype
        np.testing.assert_allclose(got.data, full_then_pool(ids, mask, params, cfg),
                                   rtol=0, atol=atol)

    def test_a_question_is_bit_identical_alone_and_in_a_batch_of_40(self, kind):
        cfg = question_cfg(kind, d_model=48, max_seq=24)
        params = init_encoder(cfg, len(VOCAB), seeded(14), prefix="q")
        ids, mask = question_stack(40, 24, seed=15)
        feats = ENCODERS[kind](ids, mask, params, cfg).data
        for i in range(len(ids)):
            alone = ENCODERS[kind](ids[i:i + 1], mask[i:i + 1], params, cfg).data
            np.testing.assert_array_equal(feats[i], alone[0])

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_pad_extension_is_bit_exact(self, kind, n_layers):
        """More PAD after a question moves no bit of its feature, at the lengths 8, 16
        and 24 that a question runs at."""
        cfg = question_cfg(kind, n_layers, max_seq=24)
        params = init_encoder(cfg, len(VOCAB), seeded(6), prefix="q")
        for text in ("what is rain", "a study of soil and rain"):
            short, *longer = (ENCODERS[kind](*(a[None] for a in encode_text(text, VOCAB, n)),
                                             params, cfg).data for n in (8, 16, 24))
            for other in longer:
                np.testing.assert_array_equal(short, other)

    def test_gradients_through_the_pooled_block(self, kind):
        """The pooled row's gradient reaches the last block's keys and values, and
        through both, the blocks and embeddings before it."""
        cfg = question_cfg(kind, d_model=4, max_seq=6)
        params = init_encoder(cfg, len(VOCAB), seeded(16, np.float64), prefix="g")
        ids, mask = question_stack(3, 6, seed=17)
        w = Tensor(np.random.default_rng(18).normal(size=(3, 4)), dtype=np.float64)
        checked = [params.tok, params.pos,
                   *(t for blk in params.blocks for t in vars(blk).values())]
        assert_grads_match(checked, lambda: project(ENCODERS[kind](ids, mask, params, cfg), w),
                           tol=1e-4, per_param=6)


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


def element_stack(lengths, max_len: int, seed: int = 0):
    """ids, mask and bboxes of one element per length: random tokens, then PAD."""
    rng = np.random.default_rng(seed)
    n = len(lengths)
    mask = np.arange(max_len) < np.asarray(lengths, dtype=np.int64).reshape(n, 1)
    ids = np.where(mask, rng.integers(1, len(VOCAB), size=(n, max_len)), 0)
    corner = rng.uniform(0.0, 0.5, size=(n, 2))
    return ids, mask, np.concatenate([corner, corner + rng.uniform(0.1, 0.5, (n, 2))], axis=1)


def untrimmed_content(ids, mask, boxes, params, cfg):
    """The content feature computed over all L positions, PAD included."""
    proj = linear(Tensor(boxes, dtype=params.bbox_w.data.dtype), params.bbox_w, params.bbox_b)
    hidden = run_blocks(ids, mask, params, cfg, extra=reshape(proj, (len(ids), 1, cfg.d_model)))
    return masked_mean_rows(hidden, mask).data


CFG10 = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq=10)


@pytest.mark.parametrize("cfg", [CFG, CFG10], ids=["L16", "L10"])
class TestContentWidths:
    """Each element runs at its own width: its length rounded up to a multiple
    of WIDTH_STEP and capped at L, so at L = 16 widths 8 and 16 mix and at
    L = 10 widths 8 and 10."""

    MIXED = [3, 12, 8, 9, 16, 5, 2]

    def _stack(self, cfg, lengths=None, seed=0):
        lengths = [min(n, cfg.max_seq) for n in (lengths or self.MIXED)]
        return element_stack(lengths, cfg.max_seq, seed)

    def _params(self, cfg):
        return init_content(cfg, len(VOCAB), seeded(9), prefix="c")

    def test_the_stack_mixes_two_widths(self, cfg):
        _, mask, _ = self._stack(cfg)
        count = mask.sum(axis=-1)
        assert (count <= WIDTH_STEP).any() and (count > WIDTH_STEP).any()

    def test_each_element_equals_encoding_it_alone(self, cfg):
        params = self._params(cfg)
        ids, mask, boxes = self._stack(cfg)
        feats = encode_content(ids, mask, boxes, params, cfg).data
        for i in range(len(ids)):
            alone = encode_content(ids[i:i + 1], mask[i:i + 1], boxes[i:i + 1], params, cfg)
            np.testing.assert_array_equal(feats[i], alone.data[0])

    def test_a_shuffle_permutes_the_features_bit_for_bit(self, cfg):
        params = self._params(cfg)
        ids, mask, boxes = self._stack(cfg)
        feats = encode_content(ids, mask, boxes, params, cfg).data
        perm = np.random.default_rng(3).permutation(len(ids))
        shuffled = encode_content(ids[perm], mask[perm], boxes[perm], params, cfg).data
        np.testing.assert_array_equal(shuffled, feats[perm])

    def test_appending_the_other_width_moves_nothing(self, cfg):
        params = self._params(cfg)
        short = self._stack(cfg, [3, 8, 5], seed=1)
        long = self._stack(cfg, [12, 9, 16], seed=2)
        both = encode_content(*(np.concatenate(pair) for pair in zip(short, long)), params, cfg)
        for part, rows in ((short, both.data[:3]), (long, both.data[3:])):
            np.testing.assert_array_equal(rows, encode_content(*part, params, cfg).data)

    def test_close_to_the_untrimmed_computation(self, cfg):
        params = self._params(cfg)
        ids, mask, boxes = self._stack(cfg)
        np.testing.assert_allclose(encode_content(ids, mask, boxes, params, cfg).data,
                                   untrimmed_content(ids, mask, boxes, params, cfg),
                                   rtol=0, atol=1e-6)

    def test_leading_axes_and_an_empty_stack(self, cfg):
        params = self._params(cfg)
        ids, mask, boxes = self._stack(cfg, self.MIXED[:6])
        flat = encode_content(ids, mask, boxes, params, cfg).data
        stacked = encode_content(ids.reshape(2, 3, -1), mask.reshape(2, 3, -1),
                                 boxes.reshape(2, 3, 4), params, cfg)
        np.testing.assert_array_equal(stacked.data, flat.reshape(2, 3, cfg.d_model))
        assert encode_content(ids[:0], mask[:0], boxes[:0], params, cfg).shape == \
            (0, cfg.d_model)

    def test_gradients_through_a_mixed_width_stack(self, cfg):
        """Covers the gather of each group's bbox rows and the merge back."""
        small = EncoderConfig(d_model=4, n_heads=2, n_layers=1, d_ff=8, max_seq=cfg.max_seq)
        params = init_content(small, len(VOCAB), seeded(11, np.float64), prefix="g")
        ids, mask, boxes = self._stack(cfg, [3, 12, 9, 5])
        w = Tensor(np.random.default_rng(4).normal(size=(4, 4)), dtype=np.float64)
        checked = [params.tok, params.pos, params.bbox_w, params.bbox_b,
                   *vars(params.blocks[0]).values()]
        assert_grads_match(checked,
                           lambda: project(encode_content(ids, mask, boxes, params, small), w),
                           tol=1e-4)

    def test_mask_must_match_ids(self, cfg):
        ids, mask, boxes = self._stack(cfg)
        with pytest.raises(ShapeError):
            encode_content(ids, mask[:, :-1], boxes, self._params(cfg), cfg)


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
        assert len(names) == 2 + 15 * CFG.n_layers
        assert len(set(names)) == len(names)

    def test_content_named_includes_bbox(self):
        built = []
        init_content(CFG, len(VOCAB), recording(0, built), prefix="c")
        names = [n for n, _ in built]
        assert "c.bbox_w" in names and "c.bbox_b" in names
