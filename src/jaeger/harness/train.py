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
from ..model import EncodedSample, JaegerModel, encode_candidates, encode_sample
from ..numerics import Tape, bce_with_logits, sgd_step
from ..rng import Xoshiro256
from ..text import Vocabulary, build_vocab
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
    vocab: Vocabulary
    metrics: list[dict] = field(default_factory=list)
    steps: int = 0


def encode_split(docs: list[Document], vocab: Vocabulary,
                 cfg: TrainConfig) -> list[EncodedSample]:
    """One sample per question; a document's questions share one EncodedCandidates."""
    samples = []
    for doc in docs:
        cands = encode_candidates(doc, vocab, cfg)
        samples.extend(encode_sample(doc, q, vocab, cfg, cands) for q in doc.questions)
    return samples


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
    """One gradient step over a batch; aborts on a non-finite loss."""
    params = model.parameters()
    with Tape() as tape:
        loss = _batch_loss(model, batch)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(f"non-finite loss at step {step}")
        tape.backward(loss, params)
    sgd_step(params, learning_rate)
    return value


def evaluate(model: JaegerModel, samples: list[EncodedSample], split: str,
             threshold: float | None = None) -> dict:
    """EMA report {"split", "n", "ema"} over pre-encoded samples.

    Each distinct EncodedCandidates is encoded once for all its questions.
    The features live only for this call: the next SGD step makes them stale.
    """
    if not samples:
        raise ContractError(f"cannot evaluate an empty {split!r} split")
    tau = model.cfg.threshold if threshold is None else threshold
    features = {}
    predictions, golds = [], []
    for s in samples:
        if s.candidates not in features:
            features[s.candidates] = model.candidate_features(s.candidates)
        logits = model.forward(s, features[s.candidates])
        picked = predict_answer_set(logits, tau)
        predictions.append({s.candidate_ids[i] for i in picked})
        golds.append(set(s.gold))
    return {"split": split, "n": len(samples), "ema": ema(predictions, golds)}


def train(cfg: TrainConfig, corpus: list[Document]) -> TrainResult:
    """Fit a model on the train split of a corpus.

    Batches are drawn in a seeded shuffled order each epoch; metrics
    collect one row per epoch with the mean train loss and, when a val
    split exists, its EMA.
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
    order_rng = Xoshiro256(cfg.seed, "batch-order")
    result = TrainResult(model=model, vocab=vocab)
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
