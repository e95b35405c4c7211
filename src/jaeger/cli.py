"""Command-line entry points.

Every command exits 0 on success and 1 on any handled error, printing
the reason to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import TrainConfig
from .data import GenConfig, QASample, generate_corpus, read_jsonl, write_jsonl
from .errors import ContractError, JaegerError
from .fusion import predict_answer_set
from .harness.ablate import ablate, format_ablation_table
from .harness.checkpoint import load_model, save_checkpoint
from .harness.gradcheck import format_gradcheck, run_gradcheck
from .harness.train import evaluate_checkpoint, train
from .model import encode_sample


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = GenConfig(
        n_pages=args.pages,
        elements_per_page=(args.min_elements, args.max_elements),
        max_depth=args.max_depth,
        d_vis=args.d_vis,
    )
    docs = generate_corpus(args.seed, args.docs, cfg, questions_per_doc=args.questions)
    write_jsonl(docs, args.out)
    n_questions = sum(len(d.questions) for d in docs)
    print(f"wrote {len(docs)} documents ({n_questions} questions) to {args.out}")
    return 0


def _load_train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig.from_json(args.config) if args.config else TrainConfig()


def _cmd_train(args: argparse.Namespace) -> int:
    # save_checkpoint writes beside --out, so a path it cannot replace fails before training.
    if os.path.isdir(args.out):
        raise ContractError(f"--out {args.out!r} is a directory")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ContractError(f"--out {args.out!r}: its directory does not exist")
    cfg = _load_train_config(args)
    corpus = read_jsonl(args.data)
    result = train(cfg, corpus)
    for row in result.metrics:
        extra = f" val_ema={row['val_ema']:.4f}" if "val_ema" in row else ""
        print(f"epoch {row['epoch']:>3} train_loss={row['train_loss']:.6f}{extra}")
    save_checkpoint(args.out, result.model)
    print(f"checkpoint written to {args.out} after {result.steps} steps")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.ckpt)
    corpus = read_jsonl(args.data)
    report = evaluate_checkpoint(model, corpus, args.split, args.threshold)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.ckpt)
    matches = read_jsonl(args.data, args.doc_id)
    if not matches:
        print(f"error: document {args.doc_id!r} not found in {args.data}", file=sys.stderr)
        return 1
    doc = matches[0]
    probe = QASample(qid="probe", qtype="children", target=-1, question=args.question,
                     answers=frozenset())
    sample = encode_sample(doc, probe, model.vocab, model.cfg)
    with np.errstate(all="ignore"):  # predict_answer_set refuses non-finite logits
        logits = model.forward(sample)
    picked = predict_answer_set(logits, model.cfg.threshold)
    predicted = sorted(sample.candidate_ids[i] for i in picked)
    print(json.dumps({"doc_id": doc.doc_id, "question": args.question,
                      "predicted": predicted}, sort_keys=True))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _load_train_config(args)
    corpus = read_jsonl(args.data)
    rows = ablate(cfg, corpus)
    print(format_ablation_table(rows))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = TrainConfig.from_json(args.config) if args.config else None
    report = run_gradcheck(cfg, samples_per_param=args.samples)
    print(format_gradcheck(report))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jaeger",
        description="Hierarchy question answering over synthetic documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic corpus")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--docs", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--pages", type=int, default=1)
    gen.add_argument("--min-elements", type=int, default=4)
    gen.add_argument("--max-elements", type=int, default=8)
    gen.add_argument("--max-depth", type=int, default=4)
    gen.add_argument("--questions", type=int, default=4)
    gen.add_argument("--d-vis", type=int, default=8)
    gen.set_defaults(fn=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a model and save a checkpoint")
    tr.add_argument("--config", default=None, help="JSON config; defaults otherwise")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(fn=_cmd_train)

    ev = sub.add_parser("eval", help="report EMA for a held-out split")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("val", "test"), required=True)
    ev.add_argument("--threshold", type=float, default=None)
    ev.set_defaults(fn=_cmd_eval)

    pr = sub.add_parser("predict", help="answer one question against one document")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--question", required=True)
    pr.add_argument("--doc-id", required=True)
    pr.add_argument("--data", required=True)
    pr.set_defaults(fn=_cmd_predict)

    ab = sub.add_parser("ablate", help="train and score all encoder variants")
    ab.add_argument("--config", default=None)
    ab.add_argument("--data", required=True)
    ab.set_defaults(fn=_cmd_ablate)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    gc.add_argument("--config", default=None)
    gc.add_argument("--samples", type=int, default=48,
                    help="entries checked per parameter; 0 means all")
    gc.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (JaegerError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
