"""Toy transformer encoders for questions, element content and visuals.

Blocks are post-norm: self-attention, residual add and layer norm,
feed-forward, residual add and layer norm, as four tape records. A
question encoder keeps one row per question, so its last block runs
that row alone as the query, over every position's keys and values.
Attention masks PAD keys always and future keys when the encoder is
causal; masked scores are set to -inf before the softmax so masked
weights are exactly zero, which makes causal and PAD invariance hold
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ContractError, ShapeError
from .numerics import (MakeParam, Tensor, add, embedding_lookup, feed_forward, linear,
                       make_params, masked_mean_rows, merge_rows, reshape, residual_norm,
                       self_attention)
from .text import embed_sequence


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    max_seq: int
    causal: bool = False

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_layers", "d_ff", "max_seq"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def init_block(cfg: EncoderConfig, make: MakeParam, prefix: str) -> SimpleNamespace:
    d, f = cfg.d_model, cfg.d_ff
    x, z, o = "xavier_uniform", "zeros", "ones"
    return make_params(make, prefix, {
        "wq": ((d, d), x), "bq": ((d,), z),
        "wk": ((d, d), x),
        "wv": ((d, d), x), "bv": ((d,), z),
        "wo": ((d, d), x), "bo": ((d,), z),
        "ln1_g": ((d,), o), "ln1_b": ((d,), z),
        "w1": ((d, f), x), "b1": ((f,), z),
        "w2": ((f, d), x), "b2": ((d,), z),
        "ln2_g": ((d,), o), "ln2_b": ((d,), z),
    })


def init_encoder(cfg: EncoderConfig, vocab_size: int, make: MakeParam,
                 prefix: str) -> SimpleNamespace:
    """Token and position tables (tok, pos), then the stack of block weights (blocks)."""
    enc = make_params(make, prefix, {"tok": ((vocab_size, cfg.d_model), "xavier_uniform"),
                                     "pos": ((cfg.max_seq, cfg.d_model), "xavier_uniform")})
    enc.blocks = [init_block(cfg, make, f"{prefix}.blk{i}") for i in range(cfg.n_layers)]
    return enc


def attention_bias(mask: np.ndarray, causal: bool, dtype) -> np.ndarray:
    """(..., L, L) additive bias: 0 where key j is visible to query i, -inf otherwise."""
    m = np.asarray(mask, dtype=bool)
    length = m.shape[-1]
    rule = np.tri(length, dtype=bool) if causal else np.ones((length, 1), dtype=bool)
    return np.where(m[..., None, :] & rule, 0.0, -np.inf).astype(dtype)


def transformer_block(xq: Tensor, xkv: Tensor, bias: np.ndarray, params: SimpleNamespace,
                      cfg: EncoderConfig) -> Tensor:
    """One post-norm block: the query rows xq attend to the (..., L, d_model) rows xkv.

    A full block passes one tensor as both. A pooled block passes one row per
    sequence, and only that row runs the residuals and the feed-forward. bias is
    the keys' attention bias with a head axis of size 1 (see run_blocks).
    """
    if xkv.data.ndim < 2 or xkv.data.shape[-1] != cfg.d_model:
        raise ShapeError(f"block input {xkv.data.shape} does not match d_model {cfg.d_model}")
    if xkv.data.shape[-2] > cfg.max_seq:
        raise ContractError(f"sequence of {xkv.data.shape[-2]} exceeds max_seq {cfg.max_seq}")
    p = params
    attn = self_attention(xq, xkv, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo, bias, cfg.n_heads)
    h = residual_norm(xq, attn, p.ln1_g, p.ln1_b)
    return residual_norm(h, feed_forward(h, p.w1, p.b1, p.w2, p.b2), p.ln2_g, p.ln2_b)


def run_blocks(ids, mask: np.ndarray, params: SimpleNamespace, cfg: EncoderConfig,
               extra: Tensor | None = None) -> Tensor:
    """Embed (..., L) ids, optionally add extra (broadcast over positions), run the stack."""
    x = embed_sequence(ids, params.tok, params.pos)
    if extra is not None:
        x = add(x, extra)
    # The mask gains a head axis of size 1, so one bias serves every head and block.
    bias = attention_bias(np.asarray(mask)[..., None, :], cfg.causal, x.data.dtype)
    for blk in params.blocks:
        x = transformer_block(x, x, bias, blk, cfg)
    return x


def _pool(ids, mask: np.ndarray, pos: np.ndarray, params: SimpleNamespace,
          cfg: EncoderConfig) -> Tensor:
    """The last hidden state at pos[...], the first or the last non-PAD position of
    each (..., L) sequence. That row sees every non-PAD key, causal or not, so the
    last block's bias for it is the bias's last row: the PAD mask alone."""
    m = np.asarray(mask, dtype=bool)
    if not m.any(axis=-1).all():
        raise ContractError("cannot pool an all-PAD sequence")
    x = embed_sequence(ids, params.tok, params.pos)
    bias = attention_bias(m[..., None, :], cfg.causal, x.data.dtype)
    for blk in params.blocks[:-1]:
        x = transformer_block(x, x, bias, blk, cfg)
    *lead, length, d = x.data.shape
    flat = np.arange(pos.size) * length + pos.reshape(-1)
    row = embedding_lookup(reshape(x, (pos.size * length, d)), flat.reshape(lead or 1))
    return reshape(transformer_block(row, x, bias[..., -1:, :], params.blocks[-1], cfg),
                   (*lead, d))


def encode_question_bidir(ids, mask: np.ndarray, params: SimpleNamespace,
                          cfg: EncoderConfig) -> Tensor:
    """Bidirectional question feature: the final CLS (position 0) vector.

    ids and mask have shape (..., L), one question per leading index.
    """
    if cfg.causal:
        raise ContractError("bidirectional encoder configured as causal")
    return _pool(ids, mask, np.zeros(np.shape(ids)[:-1], dtype=np.int64), params, cfg)


def encode_question_causal(ids, mask: np.ndarray, params: SimpleNamespace,
                           cfg: EncoderConfig) -> Tensor:
    """Causal question feature: the hidden state at each question's last non-PAD position."""
    if not cfg.causal:
        raise ContractError("causal encoder configured as bidirectional")
    m = np.asarray(mask, dtype=bool)
    last = m.shape[-1] - 1 - np.argmax(m[..., ::-1], axis=-1)
    return _pool(ids, m, last, params, cfg)


def init_content(cfg: EncoderConfig, vocab_size: int, make: MakeParam,
                 prefix: str) -> SimpleNamespace:
    """A text encoder's weights plus the bbox injection (bbox_w, bbox_b), built after them."""
    return SimpleNamespace(**vars(init_encoder(cfg, vocab_size, make, prefix)),
                           **vars(make_params(make, prefix, {
                               "bbox_w": ((4, cfg.d_model), "xavier_uniform"),
                               "bbox_b": ((cfg.d_model,), "zeros")})))


# An element runs over its length rounded up to a multiple of WIDTH_STEP, capped
# at L. The PAD columns dropped are whole blocks of numpy's 8-lane pairwise sum,
# so every sum over positions keeps its bits.
WIDTH_STEP = 8


def encode_content(ids, mask: np.ndarray, bbox, params: SimpleNamespace,
                   cfg: EncoderConfig) -> Tensor:
    """Element features: text plus bbox geometry, mean-pooled over non-PAD rows.

    ids and mask have shape (..., L) and bbox (..., 4), one element per
    leading index; the result has shape (..., d_model). The bbox is mapped
    through a learned affine layer and the result is added to every token
    embedding of its element before the block stack. Each width (see
    WIDTH_STEP) is one pass, which projects its own elements' boxes as one
    (r, 1, 4) constant; a merge restores element order.
    """
    ids = np.asarray(ids)
    box = np.asarray(bbox, dtype=np.float64)
    if box.shape != ids.shape[:-1] + (4,):
        raise ShapeError(f"bbox must have 4 coordinates per element, got shape {box.shape} "
                         f"for ids of shape {ids.shape}")
    x1, y1, x2, y2 = np.moveaxis(box, -1, 0)
    degenerate = ~((x1 < x2) & (y1 < y2))
    if degenerate.any():
        raise ContractError(f"degenerate bbox {tuple(box[degenerate][0].tolist())}")
    box = box.reshape(-1, 1, 4).astype(params.bbox_w.data.dtype)
    mask = np.asarray(mask)
    if mask.shape != ids.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match ids shape {ids.shape}")
    lead, length, d = ids.shape[:-1], ids.shape[-1], cfg.d_model
    ids, mask = ids.reshape(-1, length), mask.reshape(-1, length)
    width = np.minimum(-(-np.maximum(mask.sum(axis=-1), 1) // WIDTH_STEP) * WIDTH_STEP, length)
    widths = np.unique(width) if width.size else np.array([length])  # no elements: one empty group
    rows = [np.flatnonzero(width == w) for w in widths]

    def pooled(r, w):
        hidden = run_blocks(ids[r, :w], mask[r, :w], params, cfg,
                            extra=linear(box[r], params.bbox_w, params.bbox_b))
        return masked_mean_rows(hidden, mask[r, :w])

    feats = merge_rows([pooled(r, w) for r, w in zip(rows, widths)], np.concatenate(rows))
    return reshape(feats, (*lead, d))


def init_visual(d_in: int, d_hidden: int, d_out: int, make: MakeParam,
                prefix: str) -> SimpleNamespace:
    return make_params(make, prefix, {
        "w1": ((d_in, d_hidden), "xavier_uniform"), "b1": ((d_hidden,), "zeros"),
        "w2": ((d_hidden, d_out), "xavier_uniform"), "b2": ((d_out,), "zeros"),
    })


def encode_visual(descriptor, params: SimpleNamespace) -> Tensor:
    """relu affine then affine, mapping (..., d_in) raw descriptors to d_v."""
    x = np.asarray(descriptor, dtype=params.w1.data.dtype)
    if x.ndim == 0 or x.shape[-1] != params.w1.data.shape[0]:
        raise ShapeError(
            f"descriptor shape {x.shape} does not match input width {params.w1.data.shape[0]}")
    return feed_forward(x, params.w1, params.b1, params.w2, params.b2)
