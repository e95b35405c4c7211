"""Assembly of the full pipeline: encoders, fusion and the forward pass."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig, VARIANTS
from .encoders import (EncoderConfig, encode_content, encode_question_bidir,
                       encode_question_causal, encode_visual, init_content, init_encoder,
                       init_visual)
from .errors import ContractError, ShapeError
from .fusion import init_fusion, pair_features, reduce_dim, score_candidates
from .numerics import ParamSource, Tensor, concat_last, seeded
from .text import Vocabulary, _encode_texts, encode_text


@dataclass(eq=False)
class EncodedCandidates:
    """Every candidate element of one document, converted to model inputs once.

    The arrays are stacked along a leading candidate axis: content_ids
    and content_masks are (n, max_content_len), bboxes (n, 4) and
    visuals (n, d_vis_in). All questions of the document share one
    instance, so a train batch or an eval chunk encodes them once.
    """

    content_ids: np.ndarray
    content_masks: np.ndarray
    bboxes: np.ndarray
    visuals: np.ndarray
    candidate_ids: list[int]

    @classmethod
    def concat(cls, parts: list["EncodedCandidates"]) -> "EncodedCandidates":
        """The parts' candidates stacked in order along the candidate axis."""
        return cls(*(np.concatenate([getattr(p, name) for p in parts]) for name in
                     ("content_ids", "content_masks", "bboxes", "visuals")),
                   candidate_ids=[i for p in parts for i in p.candidate_ids])


@dataclass
class EncodedSample:
    """One question of one document; candidates are shared with its other questions."""

    qid: str
    doc_id: str
    question_ids: np.ndarray
    question_mask: np.ndarray
    candidates: EncodedCandidates
    targets: np.ndarray
    gold: frozenset[int] = field(default_factory=frozenset)

    @property
    def candidate_ids(self) -> list[int]:
        return self.candidates.candidate_ids


def encode_candidates(doc, vocab: Vocabulary, cfg: TrainConfig) -> EncodedCandidates:
    """Tokenize every element of a document, in stored order, once."""
    return _encode_documents([doc], vocab, cfg)[0]


def _encode_documents(docs, vocab: Vocabulary, cfg: TrainConfig) -> list[EncodedCandidates]:
    """encode_candidates of each document, cut from arrays built once for all of them.

    One id/mask table holds each distinct element text once; every
    element's row is gathered from it.
    """
    for doc in docs:
        for el in doc.elements:
            if len(el.vis) != cfg.d_vis_in:
                raise ShapeError(f"element {el.id} of {doc.doc_id} has a visual descriptor of "
                                 f"width {len(el.vis)}, the model expects {cfg.d_vis_in}")
    elements = [el for doc in docs for el in doc.elements]
    table_row: dict[str, int] = {}
    rows = np.array([table_row.setdefault(el.text, len(table_row)) for el in elements],
                    dtype=np.intp)
    ids, masks = _encode_texts(list(table_row), vocab, cfg.max_content_len)
    n = len(elements)
    bboxes = np.array([el.bbox for el in elements], dtype=np.float64).reshape(n, 4)
    visuals = np.array([el.vis for el in elements], dtype=np.float64).reshape(n, cfg.d_vis_in)
    # Each document owns its arrays. Views would keep the split-wide buffers alive
    # through training, and benchmark pairs then measured slower train steps.
    out, start = [], 0
    for doc in docs:
        part = slice(start, start + len(doc.elements))
        out.append(EncodedCandidates(ids[rows[part]], masks[rows[part]], bboxes[part].copy(),
                                     visuals[part].copy(),
                                     candidate_ids=[el.id for el in doc.elements]))
        start = part.stop
    return out


def encode_sample(doc, question, vocab: Vocabulary, cfg: TrainConfig,
                  candidates: EncodedCandidates | None = None,
                  question_row: tuple[np.ndarray, np.ndarray] | None = None) -> EncodedSample:
    """One question's sample; each input is encoded here unless given.

    candidates default to encode_candidates(doc, ...) and question_row, the
    question's (ids, mask), to encode_text(question.question, ...); the sample
    holds the given arrays as they are. targets mark gold answer membership
    per candidate.
    """
    candidates = candidates or encode_candidates(doc, vocab, cfg)
    q_ids, q_mask = question_row or encode_text(question.question, vocab, cfg.max_question_len)
    gold = frozenset(question.answers)
    return EncodedSample(
        qid=question.qid, doc_id=doc.doc_id,
        question_ids=q_ids, question_mask=q_mask, candidates=candidates,
        targets=np.array([i in gold for i in candidates.candidate_ids], dtype=np.float64),
        gold=gold,
    )


class JaegerModel:
    """All trainable state for one pipeline variant.

    Parameter names are stable across runs and variants, so checkpoints
    and ablation comparisons can address weights by name.
    """

    def __init__(self, cfg: TrainConfig, vocab: Vocabulary, source: ParamSource | None = None):
        """Build every parameter from source; a fresh float32 draw from cfg.seed by default.

        The registry holds each tensor under the name it was built with, in
        build order, which is also the tensor order of a checkpoint.
        """
        if cfg.variant not in VARIANTS:
            raise ContractError(f"unknown variant {cfg.variant!r}")
        self.cfg = cfg
        self.vocab = vocab
        source = source or seeded(cfg.seed)
        self._named: dict[str, Tensor] = {}

        def make(name: str, shape: tuple[int, ...], scheme: str) -> Tensor:
            self._named[name] = tensor = source(name, shape, scheme)
            return tensor

        v = len(vocab)
        self.bidir_cfg = EncoderConfig(cfg.d_bidir, cfg.n_heads, cfg.n_layers,
                                       cfg.ff_multiplier * cfg.d_bidir,
                                       cfg.max_question_len, causal=False)
        self.causal_cfg = EncoderConfig(cfg.d_causal, cfg.n_heads, cfg.n_layers,
                                        cfg.ff_multiplier * cfg.d_causal,
                                        cfg.max_question_len, causal=True)
        self.content_cfg = EncoderConfig(cfg.d_content, cfg.n_heads, cfg.n_layers,
                                         cfg.ff_multiplier * cfg.d_content,
                                         cfg.max_content_len, causal=False)

        self.bidir = self.causal = None
        if cfg.variant in ("dual", "bidir_only"):
            self.bidir = init_encoder(self.bidir_cfg, v, make, "q_bidir")
        if cfg.variant in ("dual", "causal_only"):
            self.causal = init_encoder(self.causal_cfg, v, make, "q_causal")
        self.content = init_content(self.content_cfg, v, make, "content")
        self.visual = init_visual(cfg.d_vis_in, cfg.scorer_hidden, cfg.d_visual, make, "visual")
        self.fusion = init_fusion(cfg.question_width, cfg.d_reduced, cfg.d_content,
                                  cfg.d_visual, cfg.scorer_hidden, make)
        self.dtype = self.content.bbox_w.data.dtype

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._named)

    def parameters(self) -> list[Tensor]:
        return list(self._named.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Name to float32 array snapshot, in registry order."""
        return {name: np.array(p.data, dtype=np.float32, order="C")
                for name, p in self._named.items()}

    def question_features(self, samples: list[EncodedSample]) -> Tensor:
        """(B, width) question features: both encoders concatenated, or the one the variant has."""
        if not samples:
            raise ContractError("question_features needs at least one sample")
        ids = np.stack([s.question_ids for s in samples])
        mask = np.stack([s.question_mask for s in samples])
        feats = []
        if self.bidir is not None:
            feats.append(encode_question_bidir(ids, mask, self.bidir, self.bidir_cfg))
        if self.causal is not None:
            feats.append(encode_question_causal(ids, mask, self.causal, self.causal_cfg))
        return concat_last(*feats) if len(feats) == 2 else feats[0]

    def candidate_features(self, cands: EncodedCandidates) -> Tensor:
        """(n, d_content + d_visual) [content | visual] rows, one per candidate; no
        question enters them."""
        content = encode_content(cands.content_ids, cands.content_masks, cands.bboxes,
                                 self.content, self.content_cfg)
        return concat_last(content, encode_visual(cands.visuals, self.visual))

    def _pairs(self, samples: list[EncodedSample]) -> Tensor:
        """pair_features over every sample's candidates, sample after sample.

        The questions take one pass and each distinct EncodedCandidates, by
        identity, is encoded once, however many of the samples share it. Every
        row is computed alone, so no row depends on what else shares the pass.
        """
        qreduced = reduce_dim(self.question_features(samples), self.fusion)
        distinct = list(dict.fromkeys(s.candidates for s in samples))
        start = dict(zip(distinct, np.cumsum([0, *(len(c.candidate_ids) for c in distinct)])))
        feats = self.candidate_features(EncodedCandidates.concat(distinct))
        counts = [len(s.candidate_ids) for s in samples]
        rows = np.concatenate([start[s.candidates] + np.arange(n) for s, n in zip(samples, counts)])
        return pair_features(qreduced, feats, np.repeat(np.arange(len(samples)), counts), rows)

    def batch_logits(self, samples: list[EncodedSample]) -> Tensor:
        """Logits over every sample's candidates, sample after sample, in one pass.

        Questions are one leading axis and the distinct candidates another; the
        scorer gathers each question's row and its candidates' rows. Stacked
        products, the per-question reduction and the scorer's one-row products
        compute each row alone, so a question's logits are bit-identical to
        forward(sample) whatever else shares the batch.
        """
        return score_candidates(self._pairs(samples), self.fusion)

    def sample_features(self, samples: list[EncodedSample]) -> list[Tensor]:
        """Each sample's slice of batch_logits(samples), from one scorer call for all
        of them; every slice is bit-identical to forward(sample)."""
        logits = self.batch_logits(samples).data
        ends = np.cumsum([len(s.candidate_ids) for s in samples]).tolist()
        return [Tensor(logits[end - len(s.candidate_ids):end]) for s, end in zip(samples, ends)]

    def forward(self, sample: EncodedSample, features: Tensor | None = None) -> Tensor:
        """Logits over the sample's candidates, in candidate order: batch_logits([sample]).

        Given the sample's entry of sample_features, it returns that entry as it
        is. This pass-through stays only for perfbench's Bench._capture, which
        wraps forward to read each evaluated question's logits.
        """
        return self.batch_logits([sample]) if features is None else features
