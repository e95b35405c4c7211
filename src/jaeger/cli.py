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


def _check_out(path: str) -> None:
    """Refuse an --out the atomic write beside it cannot replace, before any work is done."""
    if os.path.isdir(path):
        raise ContractError(f"--out {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ContractError(f"--out {path!r}: its directory does not exist")


def _cmd_gen_data(args: argparse.Namespace) -> int:
    _check_out(args.out)
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
    _check_out(args.out)
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


# Each command once: its help line, its handler, and a function that adds its arguments.
COMMANDS = {
    "gen-data": ("generate a synthetic corpus", _cmd_gen_data, lambda p: (
        p.add_argument("--seed", type=int, required=True),
        p.add_argument("--docs", type=int, required=True),
        p.add_argument("--out", required=True),
        p.add_argument("--pages", type=int, default=1),
        p.add_argument("--min-elements", type=int, default=4),
        p.add_argument("--max-elements", type=int, default=8),
        p.add_argument("--max-depth", type=int, default=4),
        p.add_argument("--questions", type=int, default=4),
        p.add_argument("--d-vis", type=int, default=8))),
    "train": ("train a model and save a checkpoint", _cmd_train, lambda p: (
        p.add_argument("--config", default=None, help="JSON config; defaults otherwise"),
        p.add_argument("--data", required=True),
        p.add_argument("--out", required=True))),
    "eval": ("report EMA for a held-out split", _cmd_eval, lambda p: (
        p.add_argument("--ckpt", required=True),
        p.add_argument("--data", required=True),
        p.add_argument("--split", choices=("val", "test"), required=True),
        p.add_argument("--threshold", type=float, default=None))),
    "predict": ("answer one question against one document", _cmd_predict, lambda p: (
        p.add_argument("--ckpt", required=True),
        p.add_argument("--question", required=True),
        p.add_argument("--doc-id", required=True),
        p.add_argument("--data", required=True))),
    "ablate": ("train and score all encoder variants", _cmd_ablate, lambda p: (
        p.add_argument("--config", default=None),
        p.add_argument("--data", required=True))),
    "gradcheck": ("finite-difference gradient verification", _cmd_gradcheck, lambda p: (
        p.add_argument("--config", default=None),
        p.add_argument("--samples", type=int, default=48,
                       help="entries checked per parameter; 0 means all"))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only the named command's subparser, so a call builds none it does
    not use, or with all six when the word names none. Help, usage and errors read the
    same either way."""
    parser = argparse.ArgumentParser(
        prog="jaeger",
        description="Hierarchy question answering over synthetic documents.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # The usage line that an unrecognized argument prints names every command.
    every = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        summary, handler, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        add_arguments(p)
        p.set_defaults(fn=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except (JaegerError, OSError, MemoryError) as e:
        # A config too large to allocate ends in a MemoryError, which may have no text.
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
