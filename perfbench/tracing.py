"""In-memory spans around jaeger's layers, for the traced benchmark run.

Each hook replaces a public function at the place its caller looks it
up (``jaeger.model.encode_content`` rather than
``jaeger.encoders.encode_content``, because ``model.py`` imports it by
name), so the program itself is not edited. A hook whose target no
longer exists is listed in ``Tracer.missing`` instead of failing the run.

A span is ``(name, parent, phase, op, start, end, self_s)``: ``op`` is
the train step, eval pass or predict request the span belongs to, and
``self_s`` is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_tape(tracer: "Tracer", args) -> None:
    tracer.counts["numerics.tape.records"] += len(args[0].records)


def _new_step(tracer: "Tracer", args) -> None:
    tracer.op += 1


def _content_key(tracer: "Tracer", args) -> None:
    ids, _mask, bbox = args[:3]
    key = (np.asarray(ids).tobytes(), np.asarray(bbox, dtype=np.float64).tobytes())
    tracer.content_keys[tracer.phase].add(hash((tracer.op, key)))


# (module, attribute path, span name, optional per-call hook). Several
# entries may share a span name when callers import a function by name.
HOOKS = (
    ("jaeger.model", "encode_content", "encoders.content", _content_key),
    ("jaeger.model", "encode_question_bidir", "encoders.bidir", None),
    ("jaeger.model", "encode_question_causal", "encoders.causal", None),
    ("jaeger.model", "encode_visual", "encoders.visual", None),
    ("jaeger.model", "reduce_dim", "fusion.reduce", None),
    ("jaeger.model", "score_candidates", "fusion.score", None),
    ("jaeger.model", "JaegerModel.forward", "model.forward", None),
    ("jaeger.harness.train", "encode_sample", "model.encode_sample", None),
    ("jaeger.cli", "encode_sample", "model.encode_sample", None),
    ("jaeger.numerics", "Tape.backward", "numerics.backward", _count_tape),
    ("jaeger.harness.train", "sgd_step", "numerics.sgd", None),
    ("jaeger.encoders", "seeded_init", "numerics.seeded_init", None),
    ("jaeger.fusion", "seeded_init", "numerics.seeded_init", None),
    ("jaeger.harness.train", "train_step", "harness.train.step", _new_step),
    ("jaeger.cli", "load_model", "harness.checkpoint.load", None),
    ("jaeger.cli", "read_jsonl", "data.read_jsonl", None),
)


def resolve(module: str, path: str):
    """(owner, attribute name) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, path: str, make_wrapper) -> None:
        """Replace the function with make_wrapper(function), or list it as missing."""
        found = resolve(module, path)
        if found is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, name = found
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class Tracer:
    """Collects spans while ``enabled``; costs one branch per call when off."""

    def __init__(self):
        self.enabled = False
        self.phase = ""
        self.op = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.content_keys: dict[str, set[int]] = defaultdict(set)
        self._stack: list[list] = []

    def install(self, patches: Patches) -> None:
        for module, path, name, on_call in HOOKS:
            patches.wrap(module, path, lambda fn, n=name, c=on_call: self._wrap(fn, n, c))

    def _wrap(self, fn, name: str, on_call):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span; nests under the innermost open span."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((name, parent, self.phase, self.op, start, end,
                               end - start - frame[1]))

    def total_s(self, name: str, phases: tuple[str, ...], self_time: bool = False) -> float:
        if self_time:
            return sum(s[6] for s in self.spans if s[0] == name and s[2] in phases)
        return sum(s[5] - s[4] for s in self.spans if s[0] == name and s[2] in phases)

    def calls(self, name: str, phases: tuple[str, ...]) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[2] in phases)

    def summary(self) -> dict:
        """Per span name and phase: calls, total ms and self ms."""
        out: dict[str, dict] = {}
        for name, _parent, phase, _op, start, end, self_s in self.spans:
            row = out.setdefault(f"{phase}/{name}", {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += 1000.0 * (end - start)
            row["self_ms"] += 1000.0 * self_s
        return out
