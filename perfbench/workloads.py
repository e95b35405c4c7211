"""The benchmark's workloads, driven through jaeger's public functions.

Every workload runs the README pipeline in one process: generate a
corpus, train, save a checkpoint, evaluate, then answer questions with
cold ``jaeger predict`` calls. The workloads differ in document size and
in what the timed window holds; WORKLOADS.md gives the reasons.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jaeger import cli
from jaeger.config import TrainConfig
from jaeger.data import GenConfig, generate_corpus, write_jsonl
from jaeger.fusion import predict_answer_set
from jaeger.harness.checkpoint import load_model, save_checkpoint
from jaeger.harness.train import encode_split, evaluate, train
from jaeger.model import encode_sample
from jaeger.numerics import bce_with_logits

from tracing import Patches, Tracer

DOCS = 200
QUESTIONS_PER_DOC = 4
EVAL_SEED_OFFSET = 1_000_003
CHUNK_DOCS = 10
TRAINED_SETUPS = 3
# Fewest operations of each kind in one run, whatever --seconds says.
MINIMUM = {"train": 2, "eval": DOCS // CHUNK_DOCS, "predict": 20, "setup": 3}

# Every TrainConfig field a workload reads, so that a later change to a
# default cannot change a workload. max_steps is set per workload.
TRAIN_FIELDS = dict(
    learning_rate=0.05, epochs=1, batch_size=8, seed=42, threshold=0.5, variant="dual",
    min_count=1, max_question_len=24, max_content_len=16, d_bidir=32, d_causal=48,
    d_content=32, d_visual=16, d_vis_in=8, d_reduced=32, scorer_hidden=32, n_heads=2,
    n_layers=2, ff_multiplier=2, split_ratios=(0.8, 0.1, 0.1),
)


@dataclass(frozen=True)
class Workload:
    pages: int
    elements_per_page: tuple[int, int]
    train_steps: int
    # Share of the timed window each kind of operation gets; the first
    # kind runs first. Without "train", training happens in set-up.
    shares: dict[str, float]

    @property
    def train_in_setup(self) -> bool:
        return "train" not in self.shares


WORKLOADS = {
    "train": Workload(1, (4, 8), 60,
                      {"train": 0.6, "eval": 0.15, "predict": 0.2, "setup": 0.05}),
    "train-long-docs": Workload(3, (8, 12), 10,
                                {"train": 0.45, "eval": 0.35, "predict": 0.15, "setup": 0.05}),
    "infer": Workload(1, (4, 8), 30, {"eval": 0.35, "predict": 0.65}),
}

def deciles(values: list[float]) -> list[float]:
    """p10 .. p90, linearly interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")


# The host's speed changes from second to second (WORKLOADS.md, "Noise"),
# so every timed operation runs next to this fixed kernel and is reported
# in reference seconds: wall seconds x KERNEL_REF_S / kernel seconds.
# KERNEL_REF_S is the kernel's time on an uncontended core of the
# 2-core x86-64 host the baseline was taken on.
KERNEL_REF_S = 0.0012
_KERNEL_MATRIX = np.linspace(-1.0, 1.0, 32 * 32, dtype=np.float32).reshape(32, 32)


def kernel_s() -> float:
    """Wall time of a fixed mix of interpreter work and small matmuls."""
    start = time.perf_counter()
    total = 0
    for k in range(30_000):
        total += k
    for _ in range(100):
        _KERNEL_MATRIX @ _KERNEL_MATRIX
    return time.perf_counter() - start


def ref_s(seconds: float, kernel: float) -> float:
    return seconds * KERNEL_REF_S / kernel


def timed_with_kernel(fn):
    """(result, wall seconds, mean kernel seconds just before and after)."""
    before = kernel_s()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, (before + kernel_s()) / 2


class StepLog:
    """Times every train_step call, keeps its loss and runs the kernel after it."""

    def __init__(self):
        self.steps: list[tuple[float, float, float]] = []
        self.kernel_total = 0.0
        self._last = 0.0

    def start(self) -> None:
        self.steps.clear()
        self._last = kernel_s()
        self.kernel_total = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            loss = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            after = kernel_s()
            self.kernel_total += after
            self.steps.append((seconds, loss, (self._last + after) / 2))
            self._last = after
            return loss

        return timed


@dataclass
class TrainRun:
    wall_s: float  # without the kernels run between steps
    ref_s: float
    step_s: list[float]
    step_ref_s: list[float]
    losses: list[float]
    digest: str
    model: object = field(repr=False)
    traced: bool = False


@dataclass
class Chunk:
    index: int
    seconds: float
    ref_s: float
    questions: int
    candidates: int
    hits: int
    traced: bool


@dataclass
class Request:
    seconds: float
    ref_s: float
    traced: bool


def state_digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in model.state_arrays().items():
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def mean_candidates(docs) -> float:
    counts = [len(d.elements) for d in docs for _ in d.questions]
    return sum(counts) / len(counts)


class Bench:
    """One benchmark run of one workload.

    The timed window interleaves the operations of the workload: whole
    fixed-length train() calls, chunks of CHUNK_DOCS eval documents, cold
    predict requests and (where set-up is cheap) repeated set-ups. Each
    time, the kind furthest behind its share of the window goes next, so
    every metric samples the whole window. In a traced run every second
    operation of each kind is traced, and the untraced ones give the
    tracing overhead.
    """

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = TrainConfig(max_steps=self.wl.train_steps, **TRAIN_FIELDS)
        self.gen = GenConfig(n_pages=self.wl.pages, elements_per_page=self.wl.elements_per_page,
                             max_depth=4, d_vis=8)
        self.ckpt = str(work / "model.ckpt")
        self.data = str(work / "corpus.jsonl")
        self.tracer = Tracer()
        self.patches = Patches()
        self.log = StepLog()
        self.rng = random.Random(seed)
        self.model = None
        self.corpus_digest = None
        self.captured: list | None = None
        self.losses: dict[int, list[float]] = {}
        self.setup_s: list[float] = []
        self.runs: list[TrainRun] = []
        self.chunks: list[Chunk] = []
        self.requests: list[Request] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    @contextlib.contextmanager
    def _traced(self, phase: str, traced: bool):
        t = self.tracer
        t.phase, t.enabled = phase, traced
        t.op += 1
        try:
            yield
        finally:
            t.enabled = False

    def _fail(self, ops: int, note: str) -> None:
        self.failed += ops
        if len(self.notes) < 20:
            self.notes.append(note)

    def _capture(self, forward):
        """Keeps the logits of model.forward while an eval chunk asks for them."""

        def capturing(model, sample, *args, **kwargs):
            logits = forward(model, sample, *args, **kwargs)
            if self.captured is not None:
                self.captured.append((logits, sample.targets))
            return logits

        return capturing

    # -- operations -----------------------------------------------------

    def set_up(self) -> None:
        with self._traced("setup", self.trace):
            t0 = time.perf_counter()
            with self.tracer.span("data.generate_corpus"):
                self.corpus = generate_corpus(self.seed, DOCS, self.gen, QUESTIONS_PER_DOC)
            with self.tracer.span("data.generate_corpus"):
                self.eval_docs = generate_corpus(self.seed + EVAL_SEED_OFFSET, DOCS, self.gen,
                                                 QUESTIONS_PER_DOC)
            write_jsonl(self.corpus, self.data)
            if self.wl.train_in_setup:
                self._train_call(self.trace)
            self.setup_s.append(time.perf_counter() - t0)
        digest = hashlib.sha256(Path(self.data).read_bytes()).hexdigest()
        if self.corpus_digest is None:
            self.corpus_digest = digest
        elif digest != self.corpus_digest:
            self._fail(0, "generated corpus differs between set-ups")

    def train_call(self) -> None:
        traced = self.trace and len(self.runs) % 2 == 1
        with self._traced("train", traced):
            self._train_call(traced)

    def _train_call(self, traced: bool) -> None:
        """One fixed-length train() call from a fresh init; the first model is served."""
        self.log.start()
        result, wall, edge_kernel = timed_with_kernel(lambda: train(self.cfg, self.corpus))
        wall -= self.log.kernel_total
        if self.log.steps:
            step_s = [s for s, _, _ in self.log.steps]
            kernels = [k for _, _, k in self.log.steps]
            losses = [loss for _, loss, _ in self.log.steps]
        else:  # train_step is gone: fall back to what train() reports
            step_s = [wall / max(1, result.steps)] * result.steps
            kernels = [edge_kernel] * result.steps
            losses = [row["train_loss"] for row in result.metrics]
        step_ref = [ref_s(s, k) for s, k in zip(step_s, kernels)]
        call_kernel = (sum(kernels) + edge_kernel) / (len(kernels) + 1)
        call_ref = sum(step_ref) + ref_s(wall - sum(step_s), call_kernel)
        run = TrainRun(wall, call_ref, step_s, step_ref, losses, state_digest(result.model),
                       result.model, traced)
        steps = self.cfg.max_steps
        self.attempted += steps
        if self.runs and (run.losses != self.runs[0].losses or run.digest != self.runs[0].digest):
            self._fail(steps, f"train call {len(self.runs)} differs from call 0")
        elif result.steps != steps or not all(map(math.isfinite, losses)):
            self._fail(steps, f"train call {len(self.runs)}: {result.steps} steps, "
                              f"losses {losses[-3:]}")
        if self.model is None or self.wl.train_in_setup:
            was, self.tracer.enabled = self.tracer.enabled, self.trace
            with self.tracer.span("harness.checkpoint.save"):
                save_checkpoint(self.ckpt, run.model)
            self.tracer.enabled = was
        if self.model is None:
            self.model = load_model(self.ckpt)
            if state_digest(self.model) != run.digest:
                self._fail(1, "checkpoint roundtrip changed the weights")
        run.model = None
        self.runs.append(run)

    def eval_chunk(self) -> None:
        """encode_split + evaluate over the next CHUNK_DOCS eval documents."""
        index = len(self.chunks) % (len(self.eval_docs) // CHUNK_DOCS)
        docs = self.eval_docs[index * CHUNK_DOCS:(index + 1) * CHUNK_DOCS]
        questions = sum(len(d.questions) for d in docs)
        traced = self.trace and len(self.chunks) % 2 == 1
        first = index not in self.losses
        m = self.model
        self.captured = [] if first else None
        with self._traced("eval", traced):
            report, dt, kernel = timed_with_kernel(
                lambda: evaluate(m, encode_split(docs, m.vocab, m.cfg), "eval"))
        if first:
            self.losses[index] = [bce_with_logits(z, y.astype(m.dtype)).item()
                                  for z, y in self.captured]
        self.captured = None
        self.attempted += questions
        ema = report["ema"]
        hits = round(ema * report["n"])
        earlier = [c.hits for c in self.chunks if c.index == index]
        if (report["n"] != questions or not 0.0 <= ema <= 1.0
                or (earlier and hits != earlier[0])):
            self._fail(questions, f"eval chunk {index}: n={report['n']} ema={ema}")
        candidates = sum(len(d.elements) * len(d.questions) for d in docs)
        self.chunks.append(Chunk(index, dt, ref_s(dt, kernel), questions, candidates, hits,
                                 traced))

    def expected_reply(self, doc, question) -> dict:
        m = self.model
        sample = encode_sample(doc, question, m.vocab, m.cfg)
        picked = predict_answer_set(m.forward(sample), m.cfg.threshold)
        return {"doc_id": doc.doc_id, "question": question.question,
                "predicted": sorted(sample.candidate_ids[i] for i in picked)}

    def predict_once(self) -> None:
        """One cold `jaeger predict` call: loads the checkpoint and the corpus."""
        doc = self.rng.choice(self.corpus)
        question = self.rng.choice(doc.questions)
        argv = ["predict", "--ckpt", self.ckpt, "--data", self.data,
                "--doc-id", doc.doc_id, "--question", question.question]
        traced = self.trace and len(self.requests) % 2 == 1
        out = io.StringIO()

        def call():
            try:
                with self.tracer.span("cli.predict"), contextlib.redirect_stdout(out):
                    return cli.main(argv)
            except SystemExit as e:
                return e.code

        with self._traced("predict", traced):
            rc, dt, kernel = timed_with_kernel(call)
        self.requests.append(Request(dt, ref_s(dt, kernel), traced))
        self.attempted += 1
        try:
            reply = json.loads(out.getvalue())
        except json.JSONDecodeError:
            reply = None
        if rc != 0 or reply != self.expected_reply(doc, question):
            self._fail(1, f"predict {len(self.requests) - 1}: rc={rc} reply={reply!r}")

    # -- running --------------------------------------------------------

    def run(self) -> dict:
        self.patches.wrap("jaeger.harness.train", "train_step", self.log.wrap)
        self.patches.wrap("jaeger.model", "JaegerModel.forward", self._capture)
        if self.trace:
            self.tracer.install(self.patches)
        try:
            return self._run()
        finally:
            self.tracer.enabled = False
            self.patches.restore()

    def _count(self, kind: str) -> int:
        return len({"setup": self.setup_s, "train": self.runs, "eval": self.chunks,
                    "predict": self.requests}[kind])

    def _run(self) -> dict:
        # A set-up that trains happens before the window only, so that the
        # window of infer holds no training; a cheap one also recurs in it.
        for _ in range(TRAINED_SETUPS if self.wl.train_in_setup else 1):
            self.set_up()

        shares = self.wl.shares
        do = {"setup": self.set_up, "train": self.train_call, "eval": self.eval_chunk,
              "predict": self.predict_once}
        used = dict.fromkeys(shares, 0.0)
        last = dict.fromkeys(shares, 0.0)
        start = time.perf_counter()
        while True:
            short = [k for k in shares if self._count(k) < MINIMUM[k]]
            kind = min(short or shares, key=lambda k: used[k] / shares[k])
            if not short and time.perf_counter() - start + last[kind] > self.seconds:
                break
            t0 = time.perf_counter()
            do[kind]()
            last[kind] = time.perf_counter() - t0
            used[kind] += last[kind]
        window_s = time.perf_counter() - start

        losses = [x for index in sorted(self.losses) for x in self.losses[index]]
        if len(losses) != sum(len(d.questions) for d in self.eval_docs):
            self._fail(0, f"captured {len(losses)} eval losses")
        loss_final = sum(losses) / max(1, len(losses))
        if not math.isfinite(loss_final):
            self._fail(0, f"held-out loss is {loss_final}")
        first = {}
        for c in self.chunks:
            first.setdefault(c.index, c)
        ema = sum(c.hits for c in first.values()) / sum(c.questions for c in first.values())

        step_ms = [1000.0 * s for r in self.runs for s in r.step_s]
        lat_ms = [1000.0 * r.seconds for r in self.requests]
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "inputs": {
                "docs": len(self.corpus),
                "questions": sum(len(d.questions) for d in self.corpus),
                "candidates_per_question": mean_candidates(self.corpus),
                "corpus_bytes": Path(self.data).stat().st_size,
                "eval_docs": len(self.eval_docs),
                "eval_questions": len(losses),
                "eval_candidates_per_question": mean_candidates(self.eval_docs),
                "train_steps_per_call": self.cfg.max_steps,
            },
            "operations": {"set_ups": len(self.setup_s), "train_calls": len(self.runs),
                           "train_steps": len(step_ms), "eval_chunks": len(self.chunks),
                           "predict_requests": len(self.requests), "window_s": window_s},
            # The same figures in wall-clock time, for the reader.
            "wall": {
                "train.samples_per_s": (self.cfg.batch_size * len(step_ms)
                                        / sum(r.wall_s for r in self.runs)),
                "train.step_ms.p50": statistics.median(step_ms),
                "eval.samples_per_s": (sum(c.questions for c in self.chunks)
                                       / sum(c.seconds for c in self.chunks)),
                "predict.ms.p50": statistics.median(lat_ms),
                "predict.ms.p90": deciles(lat_ms)[-1],
                "kernel_vs_ref.p50": statistics.median(
                    x.seconds / x.ref_s for x in [*self.chunks, *self.requests]),
            },
            "hooks_missing": self.patches.missing,
            "notes": self.notes,
        }
        if self.trace:
            out["metrics"] = self.per_layer()
            out["spans"] = self.tracer.summary()
        else:
            step_ref_ms = [1000.0 * x for r in self.runs for x in r.step_ref_s]
            lat_ref_ms = [1000.0 * r.ref_s for r in self.requests]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": (statistics.median(self.setup_s), "s"),
                "train.samples_per_s": (self.cfg.batch_size * len(step_ref_ms)
                                        / sum(r.ref_s for r in self.runs), "1/ref_s"),
                "train.step_ms.p50": (statistics.median(step_ref_ms), "ref_ms"),
                "train.loss_final": (loss_final, "nat"),
                "eval.samples_per_s": (sum(c.questions for c in self.chunks)
                                       / sum(c.ref_s for c in self.chunks), "1/ref_s"),
                "eval.ema": (ema, "ratio"),
                "predict.ms.p50": (statistics.median(lat_ref_ms), "ref_ms"),
                "predict.ms.p90": (deciles(lat_ref_ms)[-1], "ref_ms"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        return out

    # -- per-layer metrics ----------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer figures from the traced operations only.

        Forward-path layers are per train step on the train workloads and
        per eval question or predict request on infer. Training layers are
        per train step, serving layers per predict request, and set-up
        layers per call.
        """
        t = self.tracer
        infer = self.wl.train_in_setup
        train_phase = ("setup",) if infer else ("train",)
        steps = sum(len(r.step_s) for r in self.runs if r.traced)
        questions = sum(c.questions for c in self.chunks if c.traced)
        requests = sum(1 for r in self.requests if r.traced)
        primary, ops = (("eval", "predict"), questions + requests) if infer else (
            ("train",), steps)

        def ms(name, phases, per):
            return 1000.0 * t.total_s(name, phases) / max(1, per)

        def share(phases):
            calls = t.calls("encoders.content", phases)
            return sum(len(t.content_keys[p]) for p in phases) / max(1, calls)

        def overhead(traced, untraced):
            if not traced or not untraced:
                return 0.0
            return statistics.median(traced) / statistics.median(untraced) - 1.0

        if infer:  # eval time per candidate, traced vs untraced chunks
            overhead_share = overhead(
                [c.ref_s / c.candidates for c in self.chunks if c.traced],
                [c.ref_s / c.candidates for c in self.chunks if not c.traced])
        else:
            overhead_share = overhead(
                [x for r in self.runs if r.traced for x in r.step_ref_s],
                [x for r in self.runs if not r.traced for x in r.step_ref_s])

        saves = t.calls("harness.checkpoint.save", ("setup", "train"))
        gens = t.calls("data.generate_corpus", ("setup",))
        values = {
            "encoders.content.ms": (ms("encoders.content", primary, ops), "ms"),
            "encoders.content.calls": (t.calls("encoders.content", primary) / max(1, ops),
                                       "count"),
            "encoders.content.unique_share": (share(primary), "ratio"),
            "encoders.content.unique_share.eval": (share(("eval",)), "ratio"),
            "encoders.content.unique_share.predict": (share(("predict",)), "ratio"),
            "encoders.bidir.ms": (ms("encoders.bidir", primary, ops), "ms"),
            "encoders.causal.ms": (ms("encoders.causal", primary, ops), "ms"),
            "encoders.visual.ms": (ms("encoders.visual", primary, ops), "ms"),
            "fusion.reduce.ms": (ms("fusion.reduce", primary, ops), "ms"),
            "fusion.score.ms": (ms("fusion.score", primary, ops), "ms"),
            "fusion.score.calls": (t.calls("fusion.score", primary) / max(1, ops), "count"),
            "model.forward.ms": (ms("model.forward", primary, ops), "ms"),
            "model.forward.self_ms": (
                1000.0 * t.total_s("model.forward", primary, self_time=True) / max(1, ops),
                "ms"),
            "model.encode_sample.ms": (ms("model.encode_sample", primary, ops), "ms"),
            "numerics.tape.records_per_step": (
                t.counts["numerics.tape.records"] / max(1, steps), "count"),
            "numerics.backward.ms": (ms("numerics.backward", train_phase, steps), "ms"),
            "numerics.sgd.ms": (ms("numerics.sgd", train_phase, steps), "ms"),
            "harness.train.step.ms": (ms("harness.train.step", train_phase, steps), "ms"),
            "numerics.seeded_init.ms": (ms("numerics.seeded_init", ("predict",), requests),
                                        "ms"),
            "harness.checkpoint.load.ms": (
                ms("harness.checkpoint.load", ("predict",), requests), "ms"),
            "data.read_jsonl.ms": (ms("data.read_jsonl", ("predict",), requests), "ms"),
            "cli.predict.ms": (ms("cli.predict", ("predict",), requests), "ms"),
            "harness.checkpoint.save.ms": (
                ms("harness.checkpoint.save", ("setup", "train"), saves), "ms"),
            "data.generate_corpus.ms": (ms("data.generate_corpus", ("setup",), gens), "ms"),
            "trace.overhead_share": (overhead_share, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
