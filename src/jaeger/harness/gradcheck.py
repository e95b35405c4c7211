"""Finite-difference verification of the whole pipeline's gradients.

The model is built in float64 and central differences with h=1e-5 are
compared against the tape's gradients. Every parameter tensor appears in
the report exactly once; entries within large tensors are subsampled
deterministically to keep the run fast, and samples_per_param=0 switches
to exhaustive checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import TrainConfig
from ..data import GenConfig, generate_document, generate_questions
from ..errors import ContractError
from ..model import JaegerModel, encode_sample
from ..numerics import Tape, bce_with_logits, seeded
from ..rng import Xoshiro256
from ..text import build_vocab
from .train import corpus_texts

H = 1e-5  # central-difference step
TOLERANCE = 1e-4  # largest relative error that passes (the c02 gate)
ENTRY_SEED = 7  # seeds the subsampling of entries within large tensors


def tiny_gradcheck_config() -> TrainConfig:
    """Small widths everywhere: d_model 16, 2 layers, 2 heads."""
    return TrainConfig(
        d_bidir=16, d_causal=16, d_content=16, d_visual=16, d_reduced=16,
        scorer_hidden=16, n_heads=2, n_layers=2,
        max_question_len=16, max_content_len=10, seed=7,
    )


@dataclass
class GradcheckRow:
    name: str
    n_checked: int
    max_rel_err: float


@dataclass
class GradcheckReport:
    tolerance: float
    rows: list[GradcheckRow] = field(default_factory=list)
    max_rel_err: float = 0.0
    worst_param: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _gradcheck_sample(cfg: TrainConfig):
    """A single question over a 4-element document, in float64."""
    gen = GenConfig(n_pages=1, elements_per_page=(4, 4), max_depth=4, d_vis=cfg.d_vis_in)
    doc = generate_document(cfg.seed, gen)
    doc.questions = generate_questions(doc, cfg.seed, 1)
    vocab = build_vocab(corpus_texts([doc]), cfg.min_count)
    model = JaegerModel(cfg, vocab, seeded(cfg.seed, np.float64))
    sample = encode_sample(doc, doc.questions[0], vocab, cfg)
    return model, sample


def run_gradcheck(cfg: TrainConfig | None = None,
                  samples_per_param: int = 48) -> GradcheckReport:
    """Compare tape gradients of the training loss against central differences."""
    if samples_per_param < 0:
        raise ContractError("samples_per_param must be 0 (exhaustive) or positive")
    cfg = cfg or tiny_gradcheck_config()
    model, sample = _gradcheck_sample(cfg)
    targets = sample.targets.astype(np.float64)
    params = model.named_parameters()

    with Tape() as tape:
        loss = bce_with_logits(model.forward(sample), targets)
        tape.backward(loss, list(params.values()))

    def loss_value() -> float:
        return bce_with_logits(model.forward(sample), targets).item()

    picker = Xoshiro256(ENTRY_SEED, "gradcheck-entries")
    report = GradcheckReport(tolerance=TOLERANCE)
    for name, p in params.items():
        n = p.data.size
        if samples_per_param == 0 or n <= samples_per_param:
            entries = list(range(n))
        else:
            pool = list(range(n))
            picker.shuffle(pool)
            entries = sorted(pool[:samples_per_param])
        flat = p.data.reshape(-1)
        grad_flat = p.grad.reshape(-1)
        worst = 0.0
        for i in entries:
            keep = flat[i]
            flat[i] = keep + H
            up = loss_value()
            flat[i] = keep - H
            down = loss_value()
            flat[i] = keep
            fd = (up - down) / (2.0 * H)
            analytic = float(grad_flat[i])
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, rel)
        report.rows.append(GradcheckRow(name=name, n_checked=len(entries),
                                        max_rel_err=worst))
        if not report.worst_param or worst > report.max_rel_err:
            report.max_rel_err = worst
            report.worst_param = name
    return report


def format_gradcheck(report: GradcheckReport) -> str:
    lines = [f"{'parameter':<24} {'entries':>7} {'max rel err':>12}"]
    for row in report.rows:
        lines.append(f"{row.name:<24} {row.n_checked:>7} {row.max_rel_err:>12.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"{verdict}: max rel err {report.max_rel_err:.3e} "
                 f"(tolerance {report.tolerance:.1e}) at {report.worst_param}")
    return "\n".join(lines)

