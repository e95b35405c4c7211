"""Memorization run: drive a small model to fit 32 samples exactly.

This is a capacity check, not a benchmark. The corpus is 8 documents
with 4 questions each and the whole corpus is the training split.
"""

from __future__ import annotations

import time

from ..config import TrainConfig
from ..data import GenConfig, generate_corpus
from .train import evaluate_checkpoint, train


def overfit_config(seed: int, learning_rate: float, max_steps: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=learning_rate,
        epochs=10_000,
        max_steps=max_steps,
        batch_size=8,
        seed=seed,
        d_bidir=24, d_causal=24, d_content=24, d_visual=12,
        d_reduced=16, scorer_hidden=32,
        n_heads=2, n_layers=2,
        max_question_len=20, max_content_len=12,
        split_ratios=(1.0,),
    )


def run_overfit(seed: int = 42, learning_rate: float = 0.05,
                max_steps: int = 2000) -> dict:
    """Train until the step budget, then report train-set EMA.

    The report records the learning rate actually used so the run's
    hyperparameters are auditable.
    """
    cfg = overfit_config(seed, learning_rate, max_steps)
    corpus = generate_corpus(seed, 8, GenConfig(n_pages=1, elements_per_page=(4, 6)),
                             questions_per_doc=4)
    started = time.monotonic()
    result = train(cfg, corpus)
    report = evaluate_checkpoint(result.model, corpus, "train")
    return {
        "split": report["split"],
        "n": report["n"],
        "train_ema": report["ema"],
        "learning_rate": cfg.learning_rate,
        "steps": result.steps,
        "seconds": time.monotonic() - started,
        "final_train_loss": result.metrics[-1]["train_loss"],
    }
