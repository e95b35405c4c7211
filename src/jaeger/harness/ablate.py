"""Encoder ablation: dual concatenation versus each encoder alone.

All three variants train from the same seed on the same splits with the
same budget; only the question branch (and with it the reduction input
width) changes. Rows report the numbers without asserting an ordering.
"""

from __future__ import annotations

from dataclasses import replace

from ..config import TrainConfig, VARIANTS
from ..data import Document
from ..errors import ContractError
from .train import evaluate_checkpoint, train


def ablate(cfg: TrainConfig, corpus: list[Document]) -> list[dict]:
    """One row per variant with val and test EMA."""
    if not corpus:
        raise ContractError("cannot ablate on an empty corpus")
    rows = []
    for variant in VARIANTS:
        vcfg = replace(cfg, variant=variant)
        model = train(vcfg, corpus).model
        rows.append({
            "variant": variant,
            "question_width": vcfg.question_width,
            "val_ema": evaluate_checkpoint(model, corpus, "val")["ema"],
            "test_ema": evaluate_checkpoint(model, corpus, "test")["ema"],
        })
    return rows


def format_ablation_table(rows: list[dict]) -> str:
    lines = [f"{'variant':<14} {'q width':>7} {'val EMA':>9} {'test EMA':>9}"]
    for row in rows:
        lines.append(f"{row['variant']:<14} {row['question_width']:>7} "
                     f"{row['val_ema']:>9.4f} {row['test_ema']:>9.4f}")
    return "\n".join(lines)
