"""Acceptance checks. Each test is one criterion and prints one PASS line.

Run with: python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from jaeger.cli import main
from jaeger.data import GenConfig, generate_document
from jaeger.fusion import init_fusion, pair_features, score_candidates
from jaeger.harness.checkpoint import load_model, save_checkpoint
from jaeger.harness.gradcheck import format_gradcheck, run_gradcheck
from jaeger.harness.metrics import ema
from jaeger.harness.overfit import run_overfit
from jaeger.harness.train import encode_split, three_way_split, train
from jaeger.config import TrainConfig
from jaeger.errors import CheckpointFormatError
from jaeger.model import JaegerModel
from jaeger.numerics import Tensor, concat_last, seeded, softmax_in_place
from jaeger.rng import Xoshiro256
from jaeger.text import build_vocab, encode_text
from jaeger.encoders import init_encoder, run_blocks, EncoderConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _passed(line: str) -> None:
    print(f"\n[PASS] {line}")


def _toy_train_config(**overrides) -> TrainConfig:
    base = dict(
        learning_rate=0.01, epochs=2, batch_size=4, seed=11,
        max_question_len=16, max_content_len=10,
        d_bidir=8, d_causal=8, d_content=8, d_visual=8,
        d_reduced=8, scorer_hidden=8, n_heads=2, n_layers=1,
        split_ratios=(0.6, 0.2, 0.2),
    )
    base.update(overrides)
    return TrainConfig(**base)


def _toy_corpus(tmp_path, seed=9):
    out = str(tmp_path / f"corpus-{seed}.jsonl")
    assert main(["gen-data", "--seed", str(seed), "--docs", "10", "--out", out,
                 "--min-elements", "4", "--max-elements", "5",
                 "--questions", "2"]) == 0
    return out


def test_c01_benchmark_fidelity_documented():
    """The README must state that published benchmark accuracy is out of
    scope here, since pretrained encoders and the real corpus are absent."""
    text = README.read_text(encoding="utf-8")
    assert "## Benchmark fidelity" in text
    section = text.split("## Benchmark fidelity", 1)[1]
    assert re.search(r"not (?:be )?(?:reproduc|comparab)", section)
    assert "pretrained" in section
    assert "synthetic" in section
    _passed("c01 benchmark fidelity: README documents that published-scale "
            "accuracy is not reproducible at desk scale")


@pytest.mark.slow
def test_c02_gradient_correctness():
    started = time.monotonic()
    report = run_gradcheck()
    elapsed = time.monotonic() - started
    assert report.passed, format_gradcheck(report)
    assert report.max_rel_err <= 1e-4
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"

    names = [row.name for row in report.rows]
    assert len(set(names)) == len(names)
    from jaeger.harness.gradcheck import tiny_gradcheck_config
    model = JaegerModel(tiny_gradcheck_config(), build_vocab(["alpha"]))
    assert names == list(model.named_parameters())
    _passed(f"c02 gradient correctness: max rel err {report.max_rel_err:.3e} "
            f"<= 1e-4 over {len(names)} parameter tensors in {elapsed:.1f}s")


@pytest.mark.slow
def test_c03_overfit_sanity():
    report = run_overfit(seed=42, learning_rate=0.05, max_steps=2000)
    assert report["n"] == 32
    assert report["train_ema"] >= 0.9, report
    assert report["seconds"] < 300.0, report
    assert report["learning_rate"] == 0.05
    _passed(f"c03 overfit sanity: train EMA {report['train_ema']:.3f} >= 0.9 "
            f"on 32 samples in {report['seconds']:.0f}s at recorded "
            f"lr {report['learning_rate']}")


def test_c04_ema_oracle_equivalence():
    rng = Xoshiro256(404, "ema-pairs")
    universe = list(range(10))
    predictions, golds = [], []
    for _ in range(1000):
        predictions.append({rng.choice(universe) for _ in range(rng.randint(0, 5))})
        if rng.random() < 0.5:
            golds.append(set(predictions[-1]))
        else:
            golds.append({rng.choice(universe) for _ in range(rng.randint(0, 5))})

    hits = 0
    for p, g in zip(predictions, golds):
        hits += 1 if p == g else 0
    expected = hits / 1000

    got = ema(predictions, golds)
    assert got == expected
    _passed(f"c04 EMA oracle equivalence: ema() == independent oracle "
            f"({got:.3f}) on 1000 random set pairs, exactly")


def test_c05_hierarchy_oracle_equivalence():
    from jaeger.data import hierarchy_oracle
    checked = 0
    for seed in range(100):
        cfg = GenConfig(n_pages=1 + seed % 2, elements_per_page=(4, 7))
        doc = generate_document(seed, cfg)
        for el in doc.elements:
            scan_children = frozenset(
                e.id for e in doc.elements if e.parent == el.id)
            scan_parent = frozenset() if el.parent is None else frozenset({el.parent})
            assert hierarchy_oracle(doc, "children", el.id) == scan_children
            assert hierarchy_oracle(doc, "parent", el.id) == scan_parent
            checked += 2
    _passed(f"c05 hierarchy oracle equivalence: {checked} (qtype, target) "
            f"queries over 100 documents match an exhaustive scan exactly")


def test_c06_determinism(tmp_path, capsys):
    a = _toy_corpus(tmp_path, seed=31)
    b = str(tmp_path / "again.jsonl")
    assert main(["gen-data", "--seed", "31", "--docs", "10", "--out", b,
                 "--min-elements", "4", "--max-elements", "5",
                 "--questions", "2"]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()

    cfg_file = tmp_path / "config.json"
    with open(cfg_file, "w", encoding="utf-8") as f:
        json.dump(_toy_train_config(epochs=1).to_dict(), f)
    logs = []
    for name in ("m1.ckpt", "m2.ckpt"):
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_file), "--data", a,
                     "--out", str(tmp_path / name)]) == 0
        logs.append(capsys.readouterr().out.replace(name, "CKPT"))
    assert logs[0] == logs[1]
    assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()
    with capsys.disabled():
        _passed("c06 determinism: gen-data rewrites byte-identical JSONL and "
                "train rewrites bit-identical checkpoints and metrics")


def test_c07_checkpoint_integrity(tmp_path):
    corpus_path = _toy_corpus(tmp_path)
    from jaeger.data import read_jsonl
    corpus = read_jsonl(corpus_path)
    cfg = _toy_train_config(epochs=1)
    result = train(cfg, corpus)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, result.model)
    restored = load_model(path)

    train_docs, _, _ = three_way_split(corpus, cfg)
    samples = encode_split(train_docs, result.model.vocab, cfg)
    for sample in samples[:5]:
        np.testing.assert_array_equal(result.model.forward(sample).data,
                                      restored.forward(sample).data)

    blob = Path(path).read_bytes()
    bad_magic = tmp_path / "bad.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    try:
        load_model(str(bad_magic))
        raise AssertionError("bad magic was accepted")
    except CheckpointFormatError:
        pass

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[: len(blob) - 9])
    try:
        load_model(str(truncated))
        raise AssertionError("truncated file was accepted")
    except CheckpointFormatError:
        pass

    _passed("c07 checkpoint integrity: save, load, predict is bit-identical; "
            "bad magic and truncation are rejected")


def test_c08_structural_invariants():
    rng = np.random.default_rng(808)

    for _ in range(50):
        d1, d2 = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        a = rng.normal(size=d1).astype(np.float32)
        b = rng.normal(size=d2).astype(np.float32)
        cat = concat_last(Tensor(a), Tensor(b)).data
        assert cat.shape == (d1 + d2,)
        np.testing.assert_array_equal(cat[:d1], a)
        np.testing.assert_array_equal(cat[d1:], b)

    vocab = build_vocab(["a study of soil and rain during winter"])
    causal_cfg = EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16,
                               max_seq=16, causal=True)
    params = init_encoder(causal_cfg, len(vocab), seeded(3), prefix="q")
    ids, mask = encode_text("a study of soil and rain", vocab, 10)
    base = run_blocks(ids, mask, params, causal_cfg).data
    for t in range(1, 7):
        changed = ids.copy()
        changed[t + 1] = (changed[t + 1] + 1) % len(vocab)
        other = run_blocks(changed, mask, params, causal_cfg).data
        np.testing.assert_array_equal(base[: t + 1], other[: t + 1])

    worst = 0.0
    for _ in range(1000):
        row = rng.normal(scale=5.0, size=int(rng.integers(2, 12))).astype(np.float32)
        total = float(softmax_in_place(row).sum())
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-6

    fparams = init_fusion(6, 6, 5, 3, 8, seeded(5))
    q = Tensor(rng.normal(size=(2, 6)).astype(np.float32))
    feats = Tensor(rng.normal(size=(7, 8)).astype(np.float32))
    owner, rows = rng.integers(0, 2, size=7), np.arange(7)
    logits = score_candidates(pair_features(q, feats, owner, rows), fparams).data
    order = list(range(7))
    Xoshiro256(1, "perm").shuffle(order)
    shuffled = score_candidates(pair_features(q, feats, owner[order], rows[order]),
                                fparams).data
    np.testing.assert_array_equal(shuffled, logits[order])

    _passed(f"c08 structural invariants: concat additivity and recovery are "
            f"bit-exact, causal outputs ignore future perturbations bit-exactly, "
            f"1000 softmax rows sum to 1 within {worst:.1e} <= 1e-6, and "
            f"candidate permutation equivariance is bit-exact")


def test_c09_ablation_report(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    cfg_file = tmp_path / "config.json"
    with open(cfg_file, "w", encoding="utf-8") as f:
        json.dump(_toy_train_config(epochs=1).to_dict(), f)

    started = time.monotonic()
    outputs = []
    for _ in range(2):
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg_file), "--data", corpus]) == 0
        outputs.append(capsys.readouterr().out)
    elapsed = time.monotonic() - started

    assert elapsed < 900.0, f"ablation took {elapsed:.0f}s"
    assert outputs[0] == outputs[1]
    celled = 0
    for variant in ("dual", "bidir_only", "causal_only"):
        row = next(line for line in outputs[0].splitlines()
                   if line.startswith(variant))
        celled += len(re.findall(r"\d\.\d{4}", row))
    assert celled == 6
    with capsys.disabled():
        _passed(f"c09 ablation report: 3x2 variant table emitted "
                f"deterministically in {elapsed:.1f}s, under the 15 min budget")
