"""Feature fusion: dimensionality reduction and scoring.

The two question features, concatenated by the model, are reduced to a
narrower width by a learned affine map and paired with each candidate
element's [content | visual] feature row. Every candidate is scored
independently by the same small perceptron, so logits never mix
information across candidates and the answer set is read off per
candidate.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import ContractError, ShapeError
from .numerics import (MakeParam, Tensor, concat_last, embedding_lookup, feed_forward, linear,
                       make_params, _sigmoid)


def init_fusion(q_width: int, d_reduced: int, d_content: int, d_visual: int,
                hidden: int, make: MakeParam, prefix: str = "fusion") -> SimpleNamespace:
    f_width = d_reduced + d_content + d_visual
    return make_params(make, prefix, {
        "reduce_w": ((q_width, d_reduced), "xavier_uniform"),
        "reduce_b": ((d_reduced,), "zeros"),
        "score_w1": ((f_width, hidden), "xavier_uniform"),
        "score_b1": ((hidden,), "zeros"),
        "score_w2": ((hidden,), "xavier_uniform"),
        "score_b2": ((), "zeros"),
    })


def reduce_dim(qfeat: Tensor, params: SimpleNamespace) -> Tensor:
    """Learned affine map of a (B, q) question stack down to the reduced width, row by row."""
    q = params.reduce_w.data.shape[0]
    if qfeat.data.ndim != 2 or qfeat.data.shape[1] != q:
        raise ShapeError(f"question stack {qfeat.data.shape} is not a (B, {q}) matrix")
    return linear(qfeat, params.reduce_w, params.reduce_b)


def pair_features(qreduced: Tensor, cand_feats: Tensor, owner, rows) -> Tensor:
    """The scorer's input: row i is [question owner[i] | candidate rows[i]].

    qreduced holds one reduced question per row and cand_feats one
    [content | visual] row per candidate. Both sides are gathered, then
    concatenated once: three tape records, whatever the number of pairs.
    """
    owner, rows = np.asarray(owner), np.asarray(rows)
    if owner.ndim != 1 or owner.shape != rows.shape:
        raise ShapeError(f"owner {owner.shape} and rows {rows.shape} must be equal-length vectors")
    return concat_last(embedding_lookup(qreduced, owner), embedding_lookup(cand_feats, rows))


def score_candidates(pairs: Tensor, params: SimpleNamespace) -> Tensor:
    """One logit per row of pair_features; no cross-candidate terms.

    All rows are scored in one feed_forward record, yet each row's logit is
    bit-identical no matter which other rows are present or in what order,
    so scoring any subset of a pair matrix gives that subset's logits.
    """
    return feed_forward(pairs, params.score_w1, params.score_b1, params.score_w2, params.score_b2)


def predict_answer_set(logits, threshold: float = 0.5) -> set[int]:
    """Candidate indices whose sigmoid score reaches the threshold.

    Scores exactly at the threshold are included. Non-finite logits, from
    weights that overflow the forward pass, are refused rather than read.
    """
    if not 0 < threshold < 1:
        raise ContractError(f"threshold must lie strictly in (0, 1), got {threshold}")
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if z.ndim != 1:
        raise ShapeError(f"logits must be a vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ContractError("non-finite logits: the model's weights overflow its forward pass")
    probs = _sigmoid(z.astype(np.float64))
    return {int(i) for i in np.flatnonzero(probs >= threshold)}


def per_candidate_mult_count(q_width: int, d_content: int, d_visual: int,
                             hidden: int) -> int:
    """Multiplications the scorer spends on one candidate."""
    return (q_width + d_content + d_visual) * hidden + hidden
