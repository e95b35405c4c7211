"""Training loop, evaluation and their shared plumbing.

Everything is deterministic for a fixed config and corpus: the split,
the vocabulary, parameter init, batch order and gradient accumulation
order, so reruns produce bit-identical checkpoints and metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import TrainConfig
from ..data import Document, split_corpus
from ..errors import ContractError, TrainingDiverged
from ..fusion import predict_answer_set
from ..model import EncodedSample, JaegerModel, _encode_documents, encode_sample
from ..numerics import Tape, bce_with_logits, sgd_step
from ..rng import Xoshiro256
from ..text import Vocabulary, _encode_texts, build_vocab
from .metrics import ema


def corpus_texts(docs: list[Document]) -> list[str]:
    """All text the tokenizer should know: element bodies and questions."""
    texts = []
    for doc in docs:
        texts.extend(el.text for el in doc.elements)
        texts.extend(q.question for q in doc.questions)
    return texts


def three_way_split(corpus: list[Document], cfg: TrainConfig
                    ) -> tuple[list[Document], list[Document], list[Document]]:
    """train/val/test per the config ratios; absent trailing splits are empty."""
    parts = split_corpus(corpus, cfg.split_ratios, cfg.seed)
    train_docs = parts[0] if parts else []
    val_docs = parts[1] if len(parts) > 1 else []
    test_docs = parts[2] if len(parts) > 2 else []
    return train_docs, val_docs, test_docs


@dataclass
class TrainResult:
    model: JaegerModel
    metrics: list[dict] = field(default_factory=list)
    steps: int = 0


def encode_split(docs: list[Document], vocab: Vocabulary,
                 cfg: TrainConfig) -> list[EncodedSample]:
    """One sample per question; a document's questions share one EncodedCandidates.

    Element texts share one id table, and the split's distinct question texts
    another; each sample owns a copy of its question's row.
    """
    asked = [(doc, cands, q) for doc, cands in zip(docs, _encode_documents(docs, vocab, cfg))
             for q in doc.questions]
    table_row: dict[str, int] = {}
    rows = [table_row.setdefault(q.question, len(table_row)) for _, _, q in asked]
    ids, masks = _encode_texts(list(table_row), vocab, cfg.max_question_len)
    # Copies, not views, for the reason _encode_documents gives.
    return [encode_sample(doc, q, vocab, cfg, cands, (ids[r].copy(), masks[r].copy()))
            for (doc, cands, q), r in zip(asked, rows)]


def _batch_loss(model: JaegerModel, batch: list[EncodedSample]):
    """The mean over the batch of each question's mean BCE, from one pass over the batch."""
    counts = np.array([len(s.candidate_ids) for s in batch])
    if not counts.all():
        raise ContractError("every question in a batch needs at least one candidate")
    weights = np.repeat(1.0 / (len(batch) * counts), counts)
    targets = np.concatenate([s.targets for s in batch]).astype(model.dtype)
    return bce_with_logits(model.batch_logits(batch), targets, weights)


def train_step(model: JaegerModel, batch: list[EncodedSample], learning_rate: float,
               step: int) -> float:
    """One gradient step over a batch; aborts on a non-finite loss.

    numpy's floating-point warnings are silenced: a diverging step overflows
    on its way to the non-finite loss, and TrainingDiverged alone reports it.
    """
    params = model.parameters()
    with np.errstate(all="ignore"):
        with Tape() as tape:
            loss = _batch_loss(model, batch)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(f"non-finite loss at step {step}")
            tape.backward(loss, params)
        sgd_step(params, learning_rate)
    return value


EVAL_CHUNK = 64  # questions per encoder pass in evaluate; bounds the activations held


def evaluate(model: JaegerModel, samples: list[EncodedSample], split: str,
             threshold: float | None = None) -> dict:
    """EMA report {"split", "n", "ema"} over pre-encoded samples.

    Each chunk of EVAL_CHUNK questions and its distinct candidates is encoded in one
    pass and scored by one scorer call (model.sample_features), and each question's
    slice of those logits is bit-identical to model.forward(sample). The slices still
    pass through one model.forward call per question, in sample order, so a wrapper
    of forward sees every question's logits. One predict_answer_set call reads the
    answer sets of the whole chunk, split by each question's offset.
    numpy's floating-point warnings are silenced: predict_answer_set alone reports
    the non-finite logits of an overflowing model.
    """
    if not samples:
        raise ContractError(f"cannot evaluate an empty {split!r} split")
    tau = model.cfg.threshold if threshold is None else threshold
    predictions = []
    with np.errstate(all="ignore"):
        for at in range(0, len(samples), EVAL_CHUNK):
            chunk = samples[at:at + EVAL_CHUNK]
            logits = [model.forward(s, f).data for s, f in zip(chunk, model.sample_features(chunk))]
            predictions.extend({s.candidate_ids[i] for i in picked}
                               for s, picked in zip(chunk, _answer_sets(logits, tau)))
    return {"split": split, "n": len(samples),
            "ema": ema(predictions, [set(s.gold) for s in samples])}


def _answer_sets(logits: list[np.ndarray], threshold: float) -> list[np.ndarray]:
    """Each logit vector's predict_answer_set indices, from one call over them all."""
    ends = np.cumsum([len(z) for z in logits]).tolist()
    hit = np.zeros(ends[-1], dtype=bool)
    hit[list(predict_answer_set(np.concatenate(logits), threshold))] = True
    return [np.flatnonzero(hit[end - len(z):end]) for z, end in zip(logits, ends)]


def train(cfg: TrainConfig, corpus: list[Document]) -> TrainResult:
    """Fit a model on the train split of a corpus.

    Batches are drawn in a seeded shuffled order each epoch; metrics
    collect one row per epoch with the mean train loss and, when a val
    split exists, its EMA. Without one, the last batch is scored once
    after the final step, and non-finite logits raise TrainingDiverged.
    """
    if not corpus:
        raise ContractError("cannot train on an empty corpus")
    train_docs, val_docs, _ = three_way_split(corpus, cfg)
    if not train_docs:
        raise ContractError("the training split is empty")
    vocab = build_vocab(corpus_texts(train_docs), cfg.min_count)
    model = JaegerModel(cfg, vocab)
    samples = encode_split(train_docs, vocab, cfg)
    if not samples:
        raise ContractError("the training split has no questions")
    val_samples = encode_split(val_docs, vocab, cfg)
    vocab._counted = {}  # nothing reads the token lists again; a saved model never had them
    order_rng = Xoshiro256(cfg.seed, "batch-order")
    result = TrainResult(model=model)
    step = 0
    for epoch in range(cfg.epochs):
        order = list(range(len(samples)))
        order_rng.shuffle(order)
        epoch_losses = []
        for at in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[at:at + cfg.batch_size]]
            epoch_losses.append(train_step(model, batch, cfg.learning_rate, step))
            step += 1
            if cfg.max_steps is not None and step >= cfg.max_steps:
                break
        row = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if val_samples:
            row["val_ema"] = evaluate(model, val_samples, "val")["ema"]
        result.metrics.append(row)
        if cfg.max_steps is not None and step >= cfg.max_steps:
            break
    if not val_samples:  # no validation pass read the final weights: score the last batch
        with np.errstate(all="ignore"):
            if not np.isfinite(model.batch_logits(batch).data).all():
                raise TrainingDiverged(f"non-finite logits after step {step}: "
                                       "the model's weights overflow its forward pass")
    result.steps = step
    return result


def evaluate_checkpoint(model: JaegerModel, corpus: list[Document], split: str,
                        threshold: float | None = None) -> dict:
    """Evaluate a restored model on the named split of a corpus.

    The split is recomputed from the model's stored ratios and seed, so
    the same corpus file always yields the same held-out documents.
    """
    if split not in ("train", "val", "test"):
        raise ContractError(f"split must be train, val or test, got {split!r}")
    train_docs, val_docs, test_docs = three_way_split(corpus, model.cfg)
    docs = {"train": train_docs, "val": val_docs, "test": test_docs}[split]
    samples = encode_split(docs, model.vocab, model.cfg)
    if not samples:
        raise ContractError(f"the {split!r} split has no questions")
    return evaluate(model, samples, split, threshold)
