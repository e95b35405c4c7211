"""Training determinism, metrics, checkpoints, gradcheck, and ablation."""

import dataclasses
import gc
import hashlib
import inspect
import json
import math
import os
import re
import struct
import warnings
import weakref
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import jaeger.fusion
import jaeger.harness.checkpoint
import jaeger.harness.train
import jaeger.model
from jaeger import numerics, rng
from jaeger.config import TrainConfig
from jaeger.data import GenConfig, generate_corpus, generate_document, generate_questions
from jaeger.encoders import WIDTH_STEP
from jaeger.errors import (CheckpointFormatError, CompatibilityError, ContractError,
                           JaegerError, ParseError, SchemaError, TrainingDiverged)
from jaeger.fusion import predict_answer_set
from jaeger.harness import gradcheck
from jaeger.harness.ablate import ablate, format_ablation_table
from jaeger.harness.checkpoint import load_checkpoint, load_model, save_checkpoint
from jaeger.harness.gradcheck import format_gradcheck, run_gradcheck, tiny_gradcheck_config
from jaeger.harness.metrics import ema
from jaeger.harness.train import (_answer_sets, _batch_loss, corpus_texts, encode_split,
                                  evaluate, evaluate_checkpoint, three_way_split, train,
                                  train_step)
from jaeger.model import EncodedCandidates, JaegerModel, encode_sample
from jaeger.numerics import Tape, Tensor, _sigmoid, bce_with_logits, seeded
from jaeger.text import build_vocab

from fdcheck import assert_grads_match


def small_config(**overrides) -> TrainConfig:
    base = dict(
        learning_rate=0.01, epochs=2, batch_size=4, seed=11,
        max_question_len=16, max_content_len=10,
        d_bidir=8, d_causal=8, d_content=8, d_visual=8, d_vis_in=8,
        d_reduced=8, scorer_hidden=8, n_heads=2, n_layers=1,
        split_ratios=(0.6, 0.2, 0.2),
    )
    base.update(overrides)
    return TrainConfig(**base)


def small_corpus(seed=5, n_docs=10):
    return generate_corpus(seed, n_docs, GenConfig(n_pages=1, elements_per_page=(4, 5)),
                           questions_per_doc=2)


def test_harness_train_is_the_submodule():
    """Nothing in jaeger.harness shadows it, so its names can be patched by path."""
    assert inspect.ismodule(jaeger.harness.train)


class TestEma:
    def test_exact_match_counts(self):
        assert ema([{1, 2}, {3}], [{1, 2}, {3}]) == 1.0

    def test_partial_overlap_scores_zero(self):
        assert ema([{1, 2}], [{1}]) == 0.0
        assert ema([{1}], [{1, 2}]) == 0.0

    def test_empty_sets_match(self):
        assert ema([set()], [set()]) == 1.0

    def test_fraction(self):
        assert ema([{1}, {2}, set(), {4}], [{1}, {9}, set(), {4}]) == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ema([{1}], [{1}, {2}])

    def test_no_predictions_rejected(self):
        with pytest.raises(ContractError):
            ema([], [])


class TestTrainConfig:
    def test_roundtrip(self):
        cfg = small_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_roundtrip(self, tmp_path):
        cfg = small_config(variant="causal_only")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert TrainConfig.from_json(path) == cfg

    def test_unknown_field_rejected(self):
        raw = small_config().to_dict()
        raw["momentum"] = 0.9
        with pytest.raises(SchemaError, match="momentum"):
            TrainConfig.from_dict(raw)

    def test_data_path_is_refused_as_unknown(self):
        """No checkpoint load_model accepts was written with data_path: the tensor files
        of that time hold the attention key bias, which loading refuses."""
        raw = small_config().to_dict()
        raw["data_path"] = "corpus.jsonl"
        with pytest.raises(SchemaError, match="unknown config field 'data_path'"):
            TrainConfig.from_dict(raw)

    def test_json_types_that_fit_are_accepted(self):
        """An int is a valid float, max_steps may be null, ratios may be a list."""
        cfg = TrainConfig.from_dict({"learning_rate": 1, "max_steps": None,
                                     "split_ratios": [1]})
        assert cfg.learning_rate == 1 and cfg.max_steps is None
        assert cfg.split_ratios == (1,)

    @pytest.mark.parametrize("field,value", [("n_heads", 2.0), ("variant", 1),
                                             ("split_ratios", [0.5, "0.5"]),
                                             ("split_ratios", 0.5), ("threshold", False)])
    def test_wrong_json_type_names_the_field(self, field, value):
        with pytest.raises(SchemaError, match=field):
            TrainConfig.from_dict({field: value})

    @pytest.mark.parametrize("raw", [5, None, [1, "a"], "x"])
    def test_non_object_rejected(self, raw):
        with pytest.raises(SchemaError, match="config must be a JSON object"):
            TrainConfig.from_dict(raw)

    def test_non_object_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(SchemaError, match="cfg.json must be a JSON object"):
            TrainConfig.from_json(path)

    def test_question_width_per_variant(self):
        assert small_config(variant="dual").question_width == 16
        assert small_config(variant="bidir_only").question_width == 8
        assert small_config(variant="causal_only").question_width == 8
        wide = small_config(d_bidir=32, d_causal=48)
        assert wide.question_width == 80

    def test_validation(self):
        with pytest.raises(ContractError):
            small_config(learning_rate=0.0)
        with pytest.raises(ContractError):
            small_config(threshold=1.0)
        with pytest.raises(ContractError):
            small_config(variant="triple")
        with pytest.raises(ContractError):
            small_config(n_heads=0)


class TestTraining:
    def test_rerun_is_bit_identical(self):
        corpus = small_corpus()
        cfg = small_config()
        a = train(cfg, corpus)
        b = train(cfg, corpus)
        assert a.metrics == b.metrics
        assert a.steps == b.steps
        for name, arr in a.model.state_arrays().items():
            np.testing.assert_array_equal(arr, b.model.state_arrays()[name])

    def test_loss_goes_down_while_memorizing(self):
        corpus = small_corpus(n_docs=4)
        cfg = small_config(learning_rate=0.05, epochs=8, split_ratios=(1.0,))
        result = train(cfg, corpus)
        losses = [row["train_loss"] for row in result.metrics]
        assert losses[-1] < losses[0]

    def test_vanishing_learning_rate_leaves_weights_at_init(self):
        """1e-46 is positive for the config check yet casts to float32 zero,
        so every update must be a bitwise no-op."""
        corpus = small_corpus(n_docs=4)
        cfg = small_config(learning_rate=1e-46, epochs=1, split_ratios=(1.0,))
        result = train(cfg, corpus)
        train_docs, _, _ = three_way_split(corpus, cfg)
        fresh = JaegerModel(cfg, build_vocab(corpus_texts(train_docs), cfg.min_count))
        for name, arr in fresh.state_arrays().items():
            np.testing.assert_array_equal(arr, result.model.state_arrays()[name])

    def test_max_steps_caps_training(self):
        corpus = small_corpus()
        result = train(small_config(max_steps=3, epochs=50), corpus)
        assert result.steps == 3

    def test_metrics_have_val_ema(self):
        corpus = small_corpus()
        result = train(small_config(epochs=1), corpus)
        assert set(result.metrics[0]) == {"epoch", "train_loss", "val_ema"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            train(small_config(), [])

    def test_divergence_names_the_step(self):
        corpus = small_corpus(n_docs=4)
        cfg = small_config(split_ratios=(1.0,))
        train_docs, _, _ = three_way_split(corpus, cfg)
        vocab = build_vocab(corpus_texts(train_docs), cfg.min_count)
        model = JaegerModel(cfg, vocab)
        model.fusion.score_w1.data[0, 0] = np.nan
        samples = encode_split(train_docs, vocab, cfg)
        with pytest.raises(TrainingDiverged, match="step 3"):
            train_step(model, samples[:2], cfg.learning_rate, step=3)

    def test_divergence_raises_no_numpy_warning(self):
        """Overflow on the way to a non-finite loss is reported by TrainingDiverged alone."""
        corpus = small_corpus(n_docs=4)
        cfg = small_config(split_ratios=(1.0,))
        train_docs, _, _ = three_way_split(corpus, cfg)
        model = JaegerModel(cfg, build_vocab(corpus_texts(train_docs), cfg.min_count))
        samples = encode_split(train_docs, model.vocab, cfg)
        train_step(model, samples[:2], 1e30, step=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged, match="step 1"):
                train_step(model, samples[:2], 1e30, step=1)


    def test_finished_tape_is_freed_without_the_cyclic_collector(self, monkeypatch):
        corpus = small_corpus(n_docs=4)
        cfg = small_config(split_ratios=(1.0,))
        train_docs, _, _ = three_way_split(corpus, cfg)
        vocab = build_vocab(corpus_texts(train_docs), cfg.min_count)
        model = JaegerModel(cfg, vocab)
        samples = encode_split(train_docs, vocab, cfg)
        tapes = []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr("jaeger.harness.train.Tape", WatchedTape)
        gc.disable()
        try:
            for step in range(2):
                train_step(model, samples[:2], cfg.learning_rate, step)
            assert len(tapes) == 2
            assert tapes[0]() is None
        finally:
            gc.enable()


def content_widths(cands) -> int:
    """Distinct content widths among candidates; the content encoder makes one pass per width."""
    count = cands.content_masks.sum(axis=-1)
    length = cands.content_masks.shape[-1]
    return np.unique(np.minimum(-(-count // WIDTH_STEP) * WIDTH_STEP, length)).size


def content_records(widths: int, n_layers: int) -> int:
    """Records of one encode_content call whose elements span this many widths.

    A pass is its elements' bbox projection, the token and position lookups
    and their add, the bbox add, 4 records per block (self_attention,
    residual_norm, feed_forward, residual_norm) and the pooled mean. A merge
    joins the passes.
    """
    return widths * (1 + 4 + 4 * n_layers + 1) + 1


def record_content_ids(monkeypatch) -> list:
    """The content_ids of every encode_content call, in call order."""
    calls = []
    original = jaeger.model.encode_content

    def recording(ids, *args, **kwargs):
        calls.append(np.asarray(ids).copy())
        return original(ids, *args, **kwargs)

    monkeypatch.setattr(jaeger.model, "encode_content", recording)
    return calls


class TestForward:
    def test_tape_records_do_not_grow_with_candidates(self):
        """Elements, heads and candidates are tensor axes, so a forward records
        the same ops for 4 candidates as for 30; a second content width adds one
        content encoder pass."""
        cfg = small_config()
        seen = []
        for pages, per_page, seed in ((1, 4, 3), (1, 4, 2), (3, 10, 5), (3, 10, 3)):
            doc = generate_document(seed, GenConfig(n_pages=pages,
                                                    elements_per_page=(per_page, per_page)))
            doc.questions = generate_questions(doc, seed, 1)
            vocab = build_vocab(corpus_texts([doc]))
            sample = encode_sample(doc, doc.questions[0], vocab, cfg)
            with Tape() as tape:
                JaegerModel(cfg, vocab).forward(sample)
            widths = content_widths(sample.candidates)
            seen.append((len(sample.candidate_ids), widths,
                         len(tape.records) - content_records(widths, cfg.n_layers)))
        assert [(n, w) for n, w, _ in seen] == [(4, 1), (4, 2), (30, 1), (30, 2)]
        assert {rest for _, _, rest in seen} == {seen[0][2]}

    @pytest.mark.parametrize("call", ["question_features", "sample_features", "batch_logits"])
    def test_no_samples_is_refused_by_name(self, call):
        """All three reach question_features first, which refuses an empty list
        instead of ending in numpy's bare stack error."""
        model = JaegerModel(small_config(), build_vocab(["a b c"]))
        with pytest.raises(ContractError, match="question_features needs at least one"):
            getattr(model, call)([])


class TestBatchedTrainStep:
    """A train step is one forward over the whole batch: questions and candidates are axes."""

    def _model_and_batch(self):
        """Eight questions: 1 to 9 candidates, a one-element document, two of one document."""
        gen = GenConfig(n_pages=1, elements_per_page=(2, 9))
        docs = generate_corpus(8, 5, gen, questions_per_doc=2)
        single = generate_document(4, GenConfig(n_pages=1, elements_per_page=(1, 1)))
        single.questions = generate_questions(single, 4, 1)
        docs.append(single)
        cfg = small_config()
        model = JaegerModel(cfg, build_vocab(corpus_texts(docs)))
        samples = encode_split(docs, model.vocab, cfg)
        batch = [samples[i] for i in (10, 0, 3, 4, 7, 1, 8, 5)]
        counts = [len(s.candidate_ids) for s in batch]
        assert 1 in counts and len(set(counts)) > 2
        assert batch[1].candidates is batch[5].candidates
        return model, batch

    def test_a_step_records_one_forward(self, monkeypatch):
        """The step's records are one question's forward, the loss, and one more
        content encoder pass for each content width the batch adds."""
        model, batch = self._model_and_batch()
        with Tape() as tape:
            model.forward(batch[0])
        n_layers = model.cfg.n_layers
        widths = content_widths(batch[0].candidates)
        batch_widths = content_widths(EncodedCandidates.concat([s.candidates for s in batch]))
        assert (widths, batch_widths) == (1, 2)
        one_forward = (len(tape.records) - content_records(widths, n_layers)
                       + content_records(batch_widths, n_layers))
        swept = []

        class CountingTape(Tape):
            def backward(self, loss, params):
                swept.append(len(self.records))
                return super().backward(loss, params)

        monkeypatch.setattr("jaeger.harness.train.Tape", CountingTape)
        train_step(model, batch, 0.01, 0)
        assert swept == [one_forward + 1]

    def test_constant_inputs_are_not_on_the_tape(self, monkeypatch):
        """The bbox and visual descriptor arrays enter their layers as constants:
        every leaf on the step's tape is a parameter, so no gradient is computed
        for them."""
        model, batch = self._model_and_batch()
        seen = {}

        class LeafTape(Tape):
            def backward(self, loss, params):
                ids = {i for rec in self.records for i in rec.input_ids}
                seen["leaves"] = ids - {rec.output_id for rec in self.records}
                seen["params"] = {p._tid for p in params if p._tape is self}
                seen["constants"] = [rec.op for rec in self.records if -1 in rec.input_ids]
                return super().backward(loss, params)

        monkeypatch.setattr("jaeger.harness.train.Tape", LeafTape)
        train_step(model, batch, 0.01, 0)
        assert seen["leaves"] - {-1} <= seen["params"]
        # The bbox of each content width's elements, then the descriptors.
        assert seen["constants"] == ["linear", "linear", "feed_forward"]

    def _default_step_ops(self, monkeypatch, corpus, widths):
        """The ops a dual step records at the default widths, on a first batch whose
        elements span this many content widths."""
        cfg = TrainConfig(learning_rate=0.05)
        model = JaegerModel(cfg, build_vocab(corpus_texts(corpus)))
        batch = encode_split(corpus, model.vocab, cfg)[:cfg.batch_size]
        assert content_widths(EncodedCandidates.concat([s.candidates for s in batch])) == widths
        ops = []

        class CountingTape(Tape):
            def backward(self, loss, params):
                ops.extend(rec.op for rec in self.records)
                return super().backward(loss, params)

        monkeypatch.setattr("jaeger.harness.train.Tape", CountingTape)
        train_step(model, batch, cfg.learning_rate, 0)
        return cfg, ops

    def test_an_affine_layer_is_one_record(self, monkeypatch):
        """At the default widths a dual step records one op per sublayer: a block
        is self_attention, residual_norm, feed_forward, residual_norm."""
        cfg, ops = self._default_step_ops(monkeypatch, small_corpus(n_docs=4), widths=1)
        blocks = 3 * cfg.n_layers  # bidir, causal and content encoders
        assert ops.count("self_attention") == blocks == 6
        assert ops.count("residual_norm") == 2 * blocks
        # One per block, the visual MLP and the scorer.
        assert ops.count("feed_forward") == blocks + 2 == 8
        assert ops.count("linear") == 2  # the bbox injection and the reduction
        assert len(ops) == 50

    def test_a_second_content_width_adds_one_content_pass(self, monkeypatch):
        """3-page documents mix content widths 8 and 16: the content encoder runs
        twice, each pass projecting its own elements' boxes, and one merge joins them."""
        corpus = generate_corpus(5, 2, GenConfig(n_pages=3, elements_per_page=(8, 12)),
                                 questions_per_doc=2)
        cfg, ops = self._default_step_ops(monkeypatch, corpus, widths=2)
        n_layers = cfg.n_layers
        assert len(ops) == 50 + content_records(2, n_layers) - content_records(1, n_layers) == 64
        assert ops.count("linear") == 3

    def test_every_op_numerics_can_record_is_recorded_by_a_step(self, monkeypatch):
        """Each op name numerics passes to _emit appears on one dual step's tape over
        3-page documents, so an op that nothing in the model calls fails here."""
        corpus = generate_corpus(5, 2, GenConfig(n_pages=3, elements_per_page=(8, 12)),
                                 questions_per_doc=2)
        _, ops = self._default_step_ops(monkeypatch, corpus, widths=2)
        emitted = set(re.findall(r'_emit\("(\w+)"', inspect.getsource(numerics)))
        assert len(emitted) > 1 and set(ops) == emitted

    def test_a_document_shared_by_two_questions_is_encoded_once(self, monkeypatch):
        """Two documents each have two questions in the batch: the step's one
        encode_content call holds their elements once, and each of those
        questions' logits equals forward(sample) bit for bit."""
        model, batch = self._model_and_batch()
        calls = record_content_ids(monkeypatch)
        train_step(model, batch, 0.01, 0)
        distinct = list(dict.fromkeys(s.candidates for s in batch))
        assert len(distinct) == len(batch) - 2 and len(calls) == 1
        np.testing.assert_array_equal(calls[0],
                                      np.concatenate([c.content_ids for c in distinct]))
        logits = model.batch_logits(batch).data
        at = np.cumsum([0] + [len(s.candidate_ids) for s in batch])
        shared = [i for i, s in enumerate(batch)
                  if sum(t.candidates is s.candidates for t in batch) == 2]
        assert len(shared) == 4
        for i in shared:
            np.testing.assert_array_equal(logits[at[i]:at[i + 1]], model.forward(batch[i]).data)

    def test_each_question_gets_its_own_logits_bit_for_bit(self):
        model, batch = self._model_and_batch()
        logits = model.batch_logits(batch).data
        at = 0
        for s in batch:
            n = len(s.candidate_ids)
            np.testing.assert_array_equal(logits[at:at + n], model.forward(s).data)
            at += n
        assert at == logits.size

    def test_a_one_element_document_scores_the_same_alone_and_in_a_batch(self):
        """Its candidate matrices have one row, which BLAS would send through
        GEMV, rounding unlike the same row inside a larger GEMM."""
        others = generate_corpus(8, 2, GenConfig(n_pages=1, elements_per_page=(4, 6)),
                                 questions_per_doc=1)
        singles = []
        for seed in range(8):
            doc = generate_document(seed, GenConfig(n_pages=1, elements_per_page=(1, 1)))
            doc.questions = generate_questions(doc, seed, 1)
            singles.append(doc)
        cfg = small_config()
        model = JaegerModel(cfg, build_vocab(corpus_texts(others + singles)))
        before, after = encode_split(others, model.vocab, cfg)
        at = len(before.candidate_ids)
        for doc in singles:
            s = encode_sample(doc, doc.questions[0], model.vocab, cfg)
            np.testing.assert_array_equal(model.batch_logits([before, s, after]).data[at:at + 1],
                                          model.forward(s).data)

    def test_loss_and_gradients_are_the_mean_of_per_question_ones(self):
        model, batch = self._model_and_batch()
        params = model.parameters()
        losses, grads = [], []
        for s in batch:
            with Tape() as tape:
                loss = bce_with_logits(model.forward(s), s.targets.astype(model.dtype))
                tape.backward(loss, params)
            losses.append(loss.item())
            grads.append([p.grad.astype(np.float64) for p in params])
        with Tape() as tape:
            loss = _batch_loss(model, batch)
            tape.backward(loss, params)
        np.testing.assert_allclose(loss.item(), np.mean(losses), rtol=1e-6)
        expect = [np.mean([g[i] for g in grads], axis=0) for i in range(len(params))]
        # The two sides sum in different orders in float32. An entry far below
        # the largest is a near-cancelling sum (a token-table entry reads
        # 2.3e-6), so its rounding is large on its own scale; the scale is the
        # largest entry.
        scale = max(np.abs(e).max() for e in expect)
        for p, e in zip(params, expect):
            np.testing.assert_allclose(p.grad, e, rtol=1e-5, atol=1e-5 * scale)

    def test_batch_loss_matches_finite_differences(self):
        """_batch_loss in float64 against central differences at c02's step and
        tolerance, on what c02's one question cannot reach: four questions of two
        documents whose elements take both content widths (8 and 16), so bias
        gradients sum over many rows, two passes merge, and the scorer gathers each
        question's features through owner. Three entries per parameter."""
        cfg = dataclasses.replace(tiny_gradcheck_config(), max_content_len=16)
        gen = GenConfig(n_pages=1, elements_per_page=(3, 4), max_depth=4, d_vis=cfg.d_vis_in)
        docs = generate_corpus(1, 2, gen, questions_per_doc=2)
        model = JaegerModel(cfg, build_vocab(corpus_texts(docs), cfg.min_count),
                            seeded(cfg.seed, np.float64))
        batch = encode_split(docs, model.vocab, cfg)
        assert len(batch) == 4 and len({s.doc_id for s in batch}) == 2
        assert content_widths(EncodedCandidates.concat([s.candidates for s in batch])) == 2
        assert_grads_match(model.parameters(), lambda: _batch_loss(model, batch),
                           tol=gradcheck.TOLERANCE, h=gradcheck.H, per_param=3)

    def test_a_question_without_candidates_is_refused(self):
        model, batch = self._model_and_batch()
        empty = dataclasses.replace(batch[0], candidates=dataclasses.replace(
            batch[0].candidates, content_ids=batch[0].candidates.content_ids[:0],
            content_masks=batch[0].candidates.content_masks[:0],
            bboxes=batch[0].candidates.bboxes[:0], visuals=batch[0].candidates.visuals[:0],
            candidate_ids=[]), targets=np.zeros(0))
        with pytest.raises(ContractError):
            train_step(model, batch[1:4] + [empty], 0.01, 0)


class TestEvaluate:
    def test_report_shape_and_replay(self):
        corpus = small_corpus()
        cfg = small_config(epochs=1)
        result = train(cfg, corpus)
        _, val_docs, _ = three_way_split(corpus, cfg)
        samples = encode_split(val_docs, result.model.vocab, cfg)
        report = evaluate(result.model, samples, "val")
        assert set(report) == {"split", "n", "ema"}
        assert report["split"] == "val"
        assert report["n"] == len(samples)
        hits = 0
        for s in samples:
            picked = predict_answer_set(result.model.forward(s), cfg.threshold)
            predicted = {s.candidate_ids[i] for i in picked}
            hits += predicted == set(s.gold)
        assert report["ema"] == hits / len(samples)

    def test_empty_split_rejected(self):
        corpus = small_corpus()
        result = train(small_config(epochs=1), corpus)
        with pytest.raises(ContractError):
            evaluate(result.model, [], "val")

    def test_checkpoint_split_routing(self, tmp_path):
        corpus = small_corpus()
        cfg = small_config(epochs=1)
        result = train(cfg, corpus)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model)
        restored = load_model(path)
        for split in ("train", "val", "test"):
            report = evaluate_checkpoint(restored, corpus, split)
            assert report["split"] == split
        with pytest.raises(ContractError):
            evaluate_checkpoint(restored, corpus, "holdout")


class TestSharedCandidateFeatures:
    """Eval encodes each chunk's questions and distinct candidates in one pass each."""

    def _model_and_corpus(self, n_docs=5, questions_per_doc=4, **overrides):
        corpus = generate_corpus(5, n_docs, GenConfig(n_pages=1, elements_per_page=(4, 5)),
                                 questions_per_doc=questions_per_doc)
        cfg = small_config(**overrides)
        return JaegerModel(cfg, build_vocab(corpus_texts(corpus))), corpus

    def _record_logits(self, model) -> dict:
        """qid -> logits of every forward evaluate makes on model."""
        seen = {}
        forward = model.forward

        def recording(sample, *args, **kwargs):
            logits = forward(sample, *args, **kwargs)
            seen[sample.qid] = logits.data.copy()
            return logits

        model.forward = recording
        return seen

    def _assert_each_alone(self, model, samples, seen):
        """Every sample's recorded logits equal model.forward(sample) on its own."""
        assert seen.keys() == {s.qid for s in samples}
        for s in samples:
            np.testing.assert_array_equal(seen[s.qid], model.forward(s).data)

    def test_evaluate_encodes_each_document_once(self, monkeypatch):
        model, corpus = self._model_and_corpus()
        samples = encode_split(corpus, model.vocab, model.cfg)
        assert len(samples) == 20
        calls = record_content_ids(monkeypatch)
        evaluate(model, samples, "val")
        assert len(calls) == 1
        np.testing.assert_array_equal(
            calls[0], np.concatenate([s.candidates.content_ids for s in samples[::4]]))

    def test_evaluate_checkpoint_encodes_each_document_once(self, monkeypatch):
        model, corpus = self._model_and_corpus(split_ratios=(1.0,))
        calls = record_content_ids(monkeypatch)
        report = evaluate_checkpoint(model, corpus, "train")
        assert report["n"] == 20
        assert len(calls) == 1
        docs, _, _ = three_way_split(corpus, model.cfg)
        np.testing.assert_array_equal(calls[0], np.concatenate(
            [encode_sample(doc, doc.questions[0], model.vocab, model.cfg)
             .candidates.content_ids for doc in docs]))

    def test_one_content_pass_per_chunk_and_a_straddling_document_in_both(self, monkeypatch):
        model, corpus = self._model_and_corpus(n_docs=44, questions_per_doc=3)
        samples = encode_split(corpus, model.vocab, model.cfg)
        chunk = jaeger.harness.train.EVAL_CHUNK
        assert len(samples) == 132 and samples[chunk - 1].candidates is samples[chunk].candidates
        calls = record_content_ids(monkeypatch)
        evaluate(model, samples, "val")
        assert len(calls) == 3
        for got, at in zip(calls, range(0, len(samples), chunk)):
            distinct = dict.fromkeys(s.candidates for s in samples[at:at + chunk])
            np.testing.assert_array_equal(got, np.concatenate([c.content_ids for c in distinct]))

    @pytest.mark.parametrize("variant", ["dual", "bidir_only", "causal_only"])
    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    def test_chunked_logits_equal_each_question_alone(self, n, variant):
        model, corpus = self._model_and_corpus(n_docs=44, questions_per_doc=3, variant=variant)
        samples = encode_split(corpus, model.vocab, model.cfg)[:n]
        seen = self._record_logits(model)
        report = evaluate(model, samples, "val")
        self._assert_each_alone(model, samples, seen)
        tau = model.cfg.threshold
        hits = sum({s.candidate_ids[i] for i in predict_answer_set(seen[s.qid], tau)}
                   == set(s.gold) for s in samples)
        assert report == {"split": "val", "n": n, "ema": hits / n}

    def test_shared_features_give_each_question_its_own_logits_bit_for_bit(self):
        model, corpus = self._model_and_corpus()
        samples = encode_split(corpus, model.vocab, model.cfg)
        reference = {q.qid: model.forward(encode_sample(doc, q, model.vocab, model.cfg)).data
                     for doc in corpus for q in doc.questions}
        seen = self._record_logits(model)
        evaluate(model, samples, "val")
        assert seen.keys() == reference.keys()
        for qid, logits in reference.items():
            np.testing.assert_array_equal(seen[qid], logits)

    def test_interleaved_order_gives_the_same_report_and_logits(self):
        model, corpus = self._model_and_corpus(n_docs=44, questions_per_doc=3)
        samples = encode_split(corpus, model.vocab, model.cfg)
        interleaved = samples[0::2] + samples[1::2][::-1]
        seen = self._record_logits(model)
        report = evaluate(model, samples, "val")
        first = dict(seen)
        seen.clear()
        assert evaluate(model, interleaved, "val") == report
        assert seen.keys() == first.keys()
        for qid, logits in first.items():
            np.testing.assert_array_equal(seen[qid], logits)
        self._assert_each_alone(model, interleaved, seen)

    def test_evaluate_calls_forward_once_per_question_in_order_bit_for_bit(self, monkeypatch):
        """The benchmark reads held-out logits by wrapping JaegerModel.forward on the
        class: evaluate must call it once per question, in sample order, and each
        call's logits must be that question's slice of batch_logits, bit for bit."""
        model, corpus = self._model_and_corpus(n_docs=44, questions_per_doc=3)
        samples = encode_split(corpus, model.vocab, model.cfg)[:130]
        chunk = jaeger.harness.train.EVAL_CHUNK
        assert len(samples) > 2 * chunk
        assert samples[chunk - 1].candidates is samples[chunk].candidates
        calls = []
        forward = JaegerModel.forward

        def capturing(self, sample, *args, **kwargs):
            logits = forward(self, sample, *args, **kwargs)
            calls.append((sample, logits.data.copy()))
            return logits

        monkeypatch.setattr(JaegerModel, "forward", capturing)
        evaluate(model, samples, "val")
        assert len(calls) == len(samples)
        assert all(got is s for (got, _), s in zip(calls, samples))
        whole = model.batch_logits(samples).data
        ends = np.cumsum([len(s.candidate_ids) for s in samples])
        for (s, logits), end in zip(calls, ends):
            np.testing.assert_array_equal(logits, whole[end - len(s.candidate_ids):end])

    def test_one_scorer_call_per_chunk_scores_each_question_bit_for_bit(self, monkeypatch):
        """Three chunks of 64, 64 and 2 questions, one document straddling the first
        boundary: three score_candidates calls, each over its chunk's pairs, and each
        question's logits equal forward(sample) alone, bit for bit."""
        model, corpus = self._model_and_corpus(n_docs=44, questions_per_doc=3)
        samples = encode_split(corpus, model.vocab, model.cfg)[:130]
        chunk = jaeger.harness.train.EVAL_CHUNK
        assert samples[chunk - 1].candidates is samples[chunk].candidates
        rows = []
        score = jaeger.model.score_candidates

        def counting(pairs, params):
            rows.append(pairs.data.shape[0])
            return score(pairs, params)

        monkeypatch.setattr(jaeger.model, "score_candidates", counting)
        seen = self._record_logits(model)
        evaluate(model, samples, "val")
        assert rows == [sum(len(s.candidate_ids) for s in samples[at:at + chunk])
                        for at in range(0, len(samples), chunk)]
        self._assert_each_alone(model, samples, seen)

    def test_a_repeated_question_text_gives_each_sample_its_own_arrays(self):
        """Questions of one text share a row of the split's question table, yet each
        sample owns a copy: writing to one leaves the other as it was."""
        model, corpus = self._model_and_corpus(n_docs=20)
        samples = encode_split(corpus, model.vocab, model.cfg)
        asked = [q.question for doc in corpus for q in doc.questions]
        first = {}
        one, other = next((first[text], s) for text, s in zip(asked, samples)
                          if first.setdefault(text, s) is not s)
        for name in ("question_ids", "question_mask"):
            a, b = getattr(one, name), getattr(other, name)
            np.testing.assert_array_equal(a, b)
            assert a.base is None and b.base is None
            kept = b.copy()
            a[...] = 0
            assert b[0] and (b == kept).all()  # b opens with CLS, unmasked

    def test_questions_of_one_document_share_its_candidates(self):
        model, corpus = self._model_and_corpus()
        samples = encode_split(corpus, model.vocab, model.cfg)
        by_doc: dict[str, set[int]] = {}
        for s in samples:
            by_doc.setdefault(s.doc_id, set()).add(id(s.candidates))
        assert len(by_doc) == 5
        assert all(len(ids) == 1 for ids in by_doc.values())
        assert len(set().union(*by_doc.values())) == 5
        for s, doc in zip(samples[::4], corpus):
            assert s.candidate_ids == [el.id for el in doc.elements]


class TestChunkAnswerSets:
    """evaluate reads a chunk's answer sets from one predict_answer_set call."""

    def _model_and_samples(self):
        corpus = small_corpus()
        model = JaegerModel(small_config(), build_vocab(corpus_texts(corpus)))
        return model, encode_split(corpus, model.vocab, model.cfg)

    def test_equal_each_question_read_alone(self):
        """At the default threshold, and at one that a candidate's sigmoid score hits
        exactly, which predict_answer_set includes. A question may have no candidates."""
        model, samples = self._model_and_samples()
        logits = [model.forward(s).data for s in samples] + [np.zeros(0, dtype=np.float32)]
        scores = _sigmoid(np.concatenate(logits).astype(np.float64))
        exact = float(np.sort(scores)[len(scores) // 2])
        assert (scores == exact).any() and (scores < exact).any()
        for tau in (0.5, exact):
            got = _answer_sets(logits, tau)
            assert len(got) == len(logits)
            for picked, z in zip(got, logits):
                assert set(picked.tolist()) == predict_answer_set(z, tau)
            assert sum(map(len, got)) == int((scores >= tau).sum())

    def test_evaluate_passes_a_threshold_one_score_hits_exactly(self):
        """The default threshold is covered by test_chunked_logits_equal_each_question_alone."""
        model, samples = self._model_and_samples()
        z = {s.qid: model.forward(s).data for s in samples}
        exact = float(_sigmoid(np.concatenate(list(z.values())).astype(np.float64)).max())
        hits = sum({s.candidate_ids[i] for i in predict_answer_set(z[s.qid], exact)}
                   == set(s.gold) for s in samples)
        assert evaluate(model, samples, "val", exact)["ema"] == hits / len(samples)

    def test_non_finite_logits_of_the_last_question_are_refused(self, monkeypatch):
        message = "non-finite logits: the model's weights overflow its forward pass"
        model, samples = self._model_and_samples()
        logits = [model.forward(s).data for s in samples]
        for bad in (np.inf, -np.inf, np.nan):
            last = logits[-1].copy()
            last[-1] = bad
            with pytest.raises(ContractError, match=message):
                _answer_sets(logits[:-1] + [last], 0.5)
        forward = JaegerModel.forward

        def overflowing(self, sample, *args, **kwargs):
            logits = forward(self, sample, *args, **kwargs)
            return Tensor(logits.data * np.inf) if sample is samples[-1] else logits

        monkeypatch.setattr(JaegerModel, "forward", overflowing)
        with pytest.raises(ContractError, match=message):
            evaluate(model, samples, "val")


def reseal(blob: bytes) -> bytes:
    """blob with its trailing SHA-256 rewritten as the digest of the bytes before
    it, so an edit made before the digest reaches the reader's own check."""
    body = blob[:-32]
    return body + hashlib.sha256(body).digest()


def section_offsets(blob: bytes) -> list[int]:
    """Offsets of a checkpoint's config section, vocabulary section and tensor count."""
    offsets = [8]
    for _ in range(2):
        offsets.append(offsets[-1] + 4 + struct.unpack_from("<I", blob, offsets[-1])[0])
    return offsets


def with_section(blob: bytes, index: int, data: bytes) -> bytes:
    """The checkpoint resealed with data as its config (index 0) or vocabulary (1)."""
    offsets = section_offsets(blob)
    return reseal(blob[:offsets[index]] + struct.pack("<I", len(data)) + data
                  + blob[offsets[index + 1]:])


def with_config(blob: bytes, edit) -> bytes:
    """The checkpoint resealed with edit applied to its parsed config dict."""
    start = section_offsets(blob)[0]
    (length,) = struct.unpack_from("<I", blob, start)
    config = json.loads(blob[start + 4:start + 4 + length])
    edit(config)
    return with_section(blob, 0, json.dumps(config).encode("utf-8"))


class TestCheckpoint:
    def _trained(self, tmp_path):
        corpus = small_corpus(n_docs=6)
        cfg = small_config(epochs=1)
        result = train(cfg, corpus)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model)
        return corpus, cfg, result, path

    def test_roundtrip_is_bit_exact(self, tmp_path):
        corpus, cfg, result, path = self._trained(tmp_path)
        restored = load_model(path)
        for name, arr in result.model.state_arrays().items():
            np.testing.assert_array_equal(arr, restored.state_arrays()[name])
        train_docs, _, _ = three_way_split(corpus, cfg)
        sample = encode_split(train_docs, result.model.vocab, cfg)[0]
        np.testing.assert_array_equal(result.model.forward(sample).data,
                                      restored.forward(sample).data)

    def test_restored_config_and_vocab_match(self, tmp_path):
        _, cfg, result, path = self._trained(tmp_path)
        arrays, restored_cfg, restored_vocab = load_checkpoint(path)
        assert restored_cfg == cfg
        assert restored_vocab.tokens == result.model.vocab.tokens
        assert set(arrays) == set(result.model.state_arrays())

    def test_a_save_writes_one_file_ending_in_the_digest_of_every_byte_before_it(
            self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        assert os.listdir(tmp_path) == ["model.ckpt"]
        blob = Path(path).read_bytes()
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()

    def test_bad_magic_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        blob = bytearray(Path(path).read_bytes())
        blob[:4] = b"NOPE"
        Path(path).write_bytes(reseal(bytes(blob)))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize("version", [0, 3, 4096])
    def test_other_version_rejected(self, tmp_path, version):
        _, _, _, path = self._trained(tmp_path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(reseal(blob[:4] + struct.pack("<I", version) + blob[8:]))
        with pytest.raises(CheckpointFormatError, match=f"unsupported version {version}$"):
            load_model(path)

    def test_format_1_tensor_file_is_refused_by_its_header(self, tmp_path):
        """A format-1 tensor file (here one with no tensors) is told to retrain,
        whether or not its sidecar and vocabulary lie beside it."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"JGR1" + struct.pack("<II", 1, 0))
        with pytest.raises(CheckpointFormatError,
                           match="is a format-1 checkpoint, which this build does not read; "
                                 "retrain it with the current code"):
            load_checkpoint(str(path))

    def test_edited_cut_or_extended_file_fails_its_digest(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        blob = Path(path).read_bytes()
        for damaged in (blob[:-1], blob + b"\x00", blob[:-40] + bytes([blob[-40] ^ 1])
                        + blob[-39:], blob[:40]):
            Path(path).write_bytes(damaged)
            with pytest.raises(CheckpointFormatError, match="does not match its SHA-256 digest"):
                load_model(path)

    def test_truncation_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(reseal(blob[: len(blob) // 2]))
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(reseal(blob[:-32] + b"\x00\x00\x00\x00" + blob[-32:]))
        with pytest.raises(CheckpointFormatError, match="4 trailing bytes"):
            load_model(path)

    def _with_tensor_records(self, tmp_path, count, records):
        """A fresh checkpoint's config and vocabulary, then count and records, sealed."""
        path = tmp_path / "built.ckpt"
        save_checkpoint(str(path), JaegerModel(small_config(), build_vocab(["alpha beta"])))
        blob = path.read_bytes()
        path.write_bytes(reseal(blob[:section_offsets(blob)[2]] + struct.pack("<I", count)
                                + records + bytes(32)))
        return str(path)

    def test_rank_beyond_numpy_rejected(self, tmp_path):
        """A 65-dimensional empty tensor needs no value bytes but cannot be built."""
        path = self._with_tensor_records(
            tmp_path, 1, struct.pack("<H", 1) + b"w" + struct.pack("<B", 65)
            + struct.pack("<65I", *[0] * 65))
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(path)

    def test_repeated_tensor_rejected(self, tmp_path):
        record = struct.pack("<H", 1) + b"w" + struct.pack("<BIf", 1, 1, 0.5)
        path = self._with_tensor_records(tmp_path, 2, record + record)
        with pytest.raises(CheckpointFormatError, match="repeats tensor 'w'"):
            load_checkpoint(path)

    def test_tensor_name_that_is_not_utf8_rejected(self, tmp_path):
        path = self._with_tensor_records(
            tmp_path, 1, struct.pack("<H", 1) + b"\xff" + struct.pack("<BIf", 1, 1, 0.5))
        with pytest.raises(CheckpointFormatError, match="not valid UTF-8"):
            load_checkpoint(path)

    def test_every_cut_and_every_flipped_byte_ends_in_a_jaeger_error(self, tmp_path):
        """The checkpoint cut at each length, and with each byte inverted in
        turn, never loads and never escapes as a bare exception. Width 4 keeps
        all 63 tensor headers but only a third of the value bytes, so each of
        the 10,654 loads is quick."""
        cfg = small_config(d_bidir=4, d_causal=4, d_content=4, d_visual=4, d_reduced=4,
                           scorer_hidden=4, max_question_len=8, max_content_len=8)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(str(path), JaegerModel(cfg, build_vocab(["alpha beta"])))
        blob = path.read_bytes()
        cuts = (blob[:n] for n in range(len(blob)))
        flips = (blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in range(len(blob)))
        for damaged in chain(cuts, flips):
            path.write_bytes(damaged)
            with pytest.raises(JaegerError):
                load_checkpoint(str(path))

    def test_width_mismatch_rejected(self, tmp_path):
        """A config that disagrees with the stored tensors must not load."""
        _, _, _, path = self._trained(tmp_path)
        blob = with_config(Path(path).read_bytes(),
                           lambda config: config.update(d_visual=12))
        Path(path).write_bytes(blob)
        with pytest.raises(CompatibilityError):
            load_model(path)

    @pytest.mark.parametrize("data", [b"{not json", b'{"seed": "caf\xff"}', b"", b"[" * 100_000],
                             ids=["not-json", "not-utf8", "empty", "nested-too-deep"])
    def test_config_that_is_not_json_names_the_file(self, tmp_path, data):
        _, _, _, path = self._trained(tmp_path)
        Path(path).write_bytes(with_section(Path(path).read_bytes(), 0, data))
        with pytest.raises(CheckpointFormatError,
                           match=r"model\.ckpt holds a config that is not UTF-8 JSON"):
            load_model(path)

    @pytest.mark.parametrize("config", [5, None, [1, "a"], "x"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, config):
        _, _, _, path = self._trained(tmp_path)
        Path(path).write_bytes(with_section(Path(path).read_bytes(), 0,
                                            json.dumps(config).encode("utf-8")))
        with pytest.raises(SchemaError, match=r"config in .*model\.ckpt must be a JSON object"):
            load_model(path)

    @pytest.mark.parametrize("field,value", [("momentum", 0.9), ("epochs", "3")],
                             ids=["unknown-field", "wrong-type"])
    def test_config_field_error_names_the_file(self, tmp_path, field, value):
        _, _, _, path = self._trained(tmp_path)
        Path(path).write_bytes(with_config(Path(path).read_bytes(),
                                           lambda config: config.update({field: value})))
        with pytest.raises(SchemaError, match=r"config in .*model\.ckpt:") as err:
            load_model(path)
        assert repr(field) in str(err.value)

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("learning_rate", -1.0),
                                             ("d_reduced", 0)])
    def test_config_out_of_range_names_the_file(self, tmp_path, field, value):
        _, _, _, path = self._trained(tmp_path)
        Path(path).write_bytes(with_config(Path(path).read_bytes(),
                                           lambda config: config.update({field: value})))
        with pytest.raises(ContractError, match=r"config in .*model\.ckpt") as err:
            load_model(path)
        assert field in str(err.value)

    @pytest.mark.parametrize("data, error, message", [
        (b"<pad>\n<unk>\n<cls>\n<sep>\ncaf\xff\n", ParseError, "is not valid UTF-8"),
        (b"alpha\nbeta\n", ContractError, "does not start with the reserved tokens"),
    ], ids=["not-utf8", "no-reserved-tokens"])
    def test_bad_vocabulary_names_the_file(self, tmp_path, data, error, message):
        _, _, _, path = self._trained(tmp_path)
        Path(path).write_bytes(with_section(Path(path).read_bytes(), 1, data))
        with pytest.raises(error, match=rf"vocabulary file in .*model\.ckpt {message}"):
            load_model(path)

    def _rewrite_tensors(self, path, edit):
        """Rewrite the tensor file with edit applied to its name-to-array map."""
        arrays, cfg, vocab = load_checkpoint(path)
        edit(arrays)
        save_checkpoint(path, SimpleNamespace(state_arrays=lambda: arrays, cfg=cfg, vocab=vocab))

    def test_missing_tensor_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        self._rewrite_tensors(path, lambda arrays: arrays.pop("content.blk0.w1"))
        with pytest.raises(CompatibilityError, match="content.blk0.w1"):
            load_model(path)

    # content.blk0.bk is a key bias, which checkpoints written before its removal hold.
    @pytest.mark.parametrize("name,shape", [("fusion.spare", (3,)), ("content.blk0.bk", (8,))],
                             ids=["spare", "key-bias"])
    def test_extra_tensor_rejected(self, tmp_path, name, shape):
        _, _, _, path = self._trained(tmp_path)
        self._rewrite_tensors(
            path, lambda arrays: arrays.__setitem__(name, np.zeros(shape, np.float32)))
        with pytest.raises(CompatibilityError, match=f"unexpected parameter '{re.escape(name)}'"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.update({"content.blk0.w9": a.pop("content.blk0.w1")}),
         "checkpoint is missing parameter 'content.blk0.w1'"),
        (lambda a: a.update({"content.blk0.w1": a["content.blk0.w1"].reshape(-1)}),
         "parameter 'content.blk0.w1' has shape {flat}, model expects {shape}"),
        (lambda a: a.update({"content.blk0.w1": a["content.blk0.w1"].reshape(-1),
                             "fusion.spare": np.zeros(3, np.float32)}),
         "parameter 'content.blk0.w1' has shape {flat}, model expects {shape}"),
        (lambda a: a.update({"fusion.spare": np.zeros(3, np.float32)}),
         "checkpoint has unexpected parameter 'fusion.spare'"),
    ], ids=["renamed", "reshaped", "reshaped-and-spare", "spare"])
    def test_load_check_reports_missing_or_misshapen_before_unexpected(
            self, tmp_path, edit, message):
        """A registered tensor the file lacks or holds in another shape is reported
        before a tensor the model does not register: a renamed tensor is
        missing under its old name, not unexpected under its new one."""
        _, _, _, path = self._trained(tmp_path)
        shape = load_checkpoint(path)[0]["content.blk0.w1"].shape
        self._rewrite_tensors(path, edit)
        message = message.format(flat=(math.prod(shape),), shape=shape)
        with pytest.raises(CompatibilityError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_loading_draws_no_initial_values(self, tmp_path, monkeypatch):
        """Every weight comes from the tensor file, so the draw engine is never called."""
        corpus, cfg, result, path = self._trained(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew initial values")

        monkeypatch.setattr(numerics, "uniform_streams", refuse)
        restored = load_model(path)
        train_docs, _, _ = three_way_split(corpus, cfg)
        sample = encode_split(train_docs, result.model.vocab, cfg)[0]
        np.testing.assert_array_equal(result.model.forward(sample).data,
                                      restored.forward(sample).data)


    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        """A save that fails while writing its temporary file leaves the old
        checkpoint whole, with no temporary file beside it."""
        corpus, cfg, result, path = self._trained(tmp_path)
        train_docs, _, _ = three_way_split(corpus, cfg)
        sample = encode_split(train_docs, result.model.vocab, cfg)[0]
        before = load_model(path).forward(sample).data
        files = sorted(os.listdir(tmp_path))

        def disk_full_at_the_temporary(file, mode="r", *args, **kwargs):
            if file.startswith(path + ".tmp-"):
                raise OSError(f"no space left for {file}")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(jaeger.harness.checkpoint, "open", disk_full_at_the_temporary,
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, JaegerModel(cfg, result.model.vocab))
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == files
        np.testing.assert_array_equal(load_model(path).forward(sample).data, before)

    def test_a_changed_config_digit_is_refused(self, tmp_path):
        """A config edited after the save, here its seed, does not load: loaded,
        it would split a corpus another way and score other questions."""
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, JaegerModel(small_config(seed=42), build_vocab(["alpha beta"])))
        edited = []
        for file in tmp_path.iterdir():
            data = file.read_bytes()
            if b'"seed": 42' in data:
                file.write_bytes(data.replace(b'"seed": 42', b'"seed": 43'))
                edited.append(file.name)
        assert len(edited) == 1
        with pytest.raises(CheckpointFormatError):
            load_model(path)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_save_whose_kth_rename_fails_leaves_a_loadable_checkpoint(
            self, tmp_path, monkeypatch, k):
        """Whichever os.replace of a save raises, the checkpoint on disk loads:
        as the old model if the save raised, as the new one if it did not."""
        doc = small_corpus(n_docs=1)[0]

        def logits(model):
            return model.forward(encode_sample(doc, doc.questions[0], model.vocab,
                                               model.cfg)).data

        old = JaegerModel(small_config(), build_vocab(["alpha beta"]))
        new = JaegerModel(small_config(seed=12), build_vocab(["gamma delta epsilon"]))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, old)
        files = sorted(os.listdir(tmp_path))
        replace, calls = os.replace, []

        def failing_at_k(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError(f"rename {k} failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_at_k)
        try:
            save_checkpoint(path, new)
            expected = new
        except OSError:
            expected = old
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == files
        np.testing.assert_array_equal(logits(load_model(path)), logits(expected))


class TestFreshInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_parameter_is_drawn_from_its_registry_name(self, dtype):
        """A fresh tensor equals a request of one to seeded with its registry name;
        loading a checkpoint by the same names relies on this."""
        cfg = small_config()
        vocab = build_vocab(["alpha beta"])
        model = JaegerModel(cfg, vocab, seeded(cfg.seed, dtype))
        default = JaegerModel(cfg, vocab).named_parameters()
        for name, p in model.named_parameters().items():
            if not p.data.any():
                scheme = "zeros"
            elif (p.data == 1).all():
                scheme = "ones"
            else:
                scheme = "xavier_uniform"
            expected = seeded(cfg.seed, dtype)(name, p.data.shape, scheme).data
            assert p.data.dtype == dtype
            np.testing.assert_array_equal(p.data, expected, err_msg=name)
            np.testing.assert_array_equal(default[name].data, expected.astype(np.float32),
                                          err_msg=name)

    # SHA-256 of a fresh model's state_arrays(), per variant: each name's UTF-8
    # bytes, then its values as little-endian float32, in registry order. No
    # file layout enters it, so it holds across checkpoint formats.
    @pytest.mark.parametrize("variant, digest", [
        ("dual", "960f7ba51cfeba7879f7954b0a43a4d3366535a490f7b6bea80c34a2dfd224ce"),
        ("bidir_only", "483d0e1b3981d4d59dfd1bf7f5aa0ae8bb7c2d22044eb7caa9b839dcb61220d8"),
        ("causal_only", "a92bc6339e16c81332110e35cc6809579498095f60155f485be981eefd661ddd"),
    ], ids=["dual", "bidir_only", "causal_only"])
    def test_fresh_state_arrays_are_pinned(self, variant, digest):
        model = JaegerModel(small_config(variant=variant), build_vocab(["alpha beta"]))
        h = hashlib.sha256()
        for name, arr in model.state_arrays().items():
            h.update(name.encode("utf-8"))
            h.update(arr.astype("<f4").tobytes())
        assert h.hexdigest() == digest

    # SHA-256 of a freshly initialised model's checkpoint file, per variant: its
    # config, its vocabulary, and its tensors in registry order, every name
    # with its shape and values. Fresh values are xoshiro draws cast to
    # float32, so the digests hold on any platform.
    @pytest.mark.parametrize("variant, digest", [
        ("dual", "46edfebc19a609c71d8488ad7a35d5909497780ee7ee10c7b6e515497db649da"),
        ("bidir_only", "fdab26882dcb3504263519a42f76aa9f432a13f2b803a9c6cda2e407f768e48f"),
        ("causal_only", "149e98cf71c55c1ba31e72002ccbe1bacfba235905e68fe5471aec858be3b0e7"),
    ], ids=["dual", "bidir_only", "causal_only"])  # a re-pin keeps the test ids
    def test_fresh_tensor_file_is_pinned(self, tmp_path, variant, digest):
        path = str(tmp_path / "fresh.ckpt")
        save_checkpoint(path, JaegerModel(small_config(variant=variant),
                                          build_vocab(["alpha beta"])))
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == digest

    def test_float64_fresh_tensors_are_pinned(self):
        """The float32 pins above hide low-bit changes in the float64 draws
        that gradcheck's model is built from; this digest covers every
        tensor's float64 bytes, in registry order."""
        model = JaegerModel(tiny_gradcheck_config(), build_vocab(["alpha beta"]),
                            seeded(7, np.float64))
        h = hashlib.sha256()
        for p in model.named_parameters().values():
            assert p.data.dtype == np.float64
            h.update(p.data.tobytes())
        assert h.hexdigest() == "01120747fa40f413918247199ab5ce1021566d869e55fd80165a27ed811f0949"

    def test_a_fresh_model_draws_in_one_engine_call_and_a_loaded_one_in_none(
            self, tmp_path, monkeypatch):
        """Fresh init sends the whole registry as one request, which draws every
        xavier stream in one uniform_streams call, in float32 and in float64 as
        gradcheck builds its model; loading draws nothing."""
        calls = []
        real = rng.uniform_streams

        def counting(requests):
            calls.append(len(requests))
            return real(requests)

        for module in (rng, numerics):
            monkeypatch.setattr(module, "uniform_streams", counting)
        vocab = build_vocab(["alpha beta"])
        model = JaegerModel(small_config(), vocab)
        drawn = [p for p in model.parameters() if p.data.any() and not (p.data == 1).all()]
        assert calls == [len(drawn)]
        calls.clear()
        cfg = tiny_gradcheck_config()
        assert JaegerModel(cfg, vocab, seeded(cfg.seed, np.float64)).dtype == np.float64
        assert len(calls) == 1
        path = str(tmp_path / "fresh.ckpt")
        save_checkpoint(path, model)
        calls.clear()
        load_model(path)
        assert calls == []


class TestGradcheck:
    def test_small_model_passes(self):
        cfg = small_config(seed=7)
        report = run_gradcheck(cfg=cfg, samples_per_param=4)
        assert report.passed, format_gradcheck(report)
        assert report.max_rel_err <= report.tolerance

    def test_every_parameter_is_covered_once(self):
        cfg = small_config(seed=7)
        report = run_gradcheck(cfg=cfg, samples_per_param=1)
        names = [row.name for row in report.rows]
        model = JaegerModel(cfg, build_vocab(["alpha beta"]))
        assert names == list(model.named_parameters())
        assert all(row.n_checked >= 1 for row in report.rows)

    def test_corrupted_backward_is_caught_and_localized(self, monkeypatch):
        """Scaling one concat backward must fail the check and implicate
        the fusion stage that owns the concat."""
        real_concat = numerics.concat_last

        def bad_concat(a, b):
            out = real_concat(a, b)
            tape = numerics.active_tape()
            if tape is not None and tape.records and tape.records[-1].output_id == out._tid:
                rec = tape.records[-1]
                orig = rec.backward_fn
                tape.records[-1] = dataclasses.replace(
                    rec,
                    backward_fn=lambda g, _o=orig: tuple(
                        None if x is None else 1.5 * np.asarray(x) for x in _o(g)))
            return out

        monkeypatch.setattr(jaeger.fusion, "concat_last", bad_concat)
        report = run_gradcheck(cfg=small_config(seed=7), samples_per_param=4)
        assert not report.passed
        assert any(row.name.startswith("fusion.") and row.max_rel_err > report.tolerance
                   for row in report.rows)

    def test_format_mentions_verdict(self):
        report = run_gradcheck(cfg=small_config(seed=7), samples_per_param=1)
        text = format_gradcheck(report)
        assert "PASS" in text or "FAIL" in text
        assert report.worst_param in text

    def test_negative_sampling_rejected(self):
        with pytest.raises(ContractError):
            run_gradcheck(samples_per_param=-1)


class TestAblate:
    def test_three_variants_reported(self):
        corpus = small_corpus()
        cfg = small_config(epochs=1)
        rows = ablate(cfg, corpus)
        assert [r["variant"] for r in rows] == ["dual", "bidir_only", "causal_only"]
        assert [r["question_width"] for r in rows] == [16, 8, 8]
        for row in rows:
            assert 0.0 <= row["val_ema"] <= 1.0
            assert 0.0 <= row["test_ema"] <= 1.0

    def test_deterministic(self):
        corpus = small_corpus()
        cfg = small_config(epochs=1)
        assert ablate(cfg, corpus) == ablate(cfg, corpus)

    def test_table_lists_all_rows(self):
        corpus = small_corpus()
        rows = ablate(small_config(epochs=1), corpus)
        table = format_ablation_table(rows)
        for row in rows:
            assert row["variant"] in table

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            ablate(small_config(), [])


class TestVariants:
    def test_single_encoder_variants_train_and_predict(self):
        corpus = small_corpus(n_docs=6)
        for variant in ("bidir_only", "causal_only"):
            cfg = small_config(epochs=1, variant=variant)
            result = train(cfg, corpus)
            _, val_docs, _ = three_way_split(corpus, cfg)
            samples = encode_split(val_docs, result.model.vocab, cfg)
            report = evaluate(result.model, samples, "val")
            assert 0.0 <= report["ema"] <= 1.0

    def test_variant_checkpoints_roundtrip(self, tmp_path):
        corpus = small_corpus(n_docs=6)
        cfg = small_config(epochs=1, variant="causal_only")
        result = train(cfg, corpus)
        path = str(tmp_path / "causal.ckpt")
        save_checkpoint(path, result.model)
        restored = load_model(path)
        train_docs, _, _ = three_way_split(corpus, cfg)
        sample = encode_split(train_docs, result.model.vocab, cfg)[0]
        np.testing.assert_array_equal(result.model.forward(sample).data,
                                      restored.forward(sample).data)


class TestCorpusTexts:
    def test_covers_elements_and_questions(self):
        corpus = small_corpus(n_docs=2)
        texts = corpus_texts(corpus)
        for doc in corpus:
            for el in doc.elements:
                assert el.text in texts
            for q in doc.questions:
                assert q.question in texts
