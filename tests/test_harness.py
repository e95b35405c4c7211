"""Training determinism, metrics, checkpoints, gradcheck, and ablation."""

import dataclasses
import gc
import hashlib
import inspect
import json
import os
import struct
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import jaeger.encoders
import jaeger.fusion
import jaeger.harness.train
import jaeger.model
from jaeger import numerics
from jaeger.config import TrainConfig
from jaeger.data import GenConfig, generate_corpus, generate_document, generate_questions
from jaeger.errors import (CheckpointFormatError, CompatibilityError, ContractError,
                           SchemaError, TrainingDiverged)
from jaeger.harness.ablate import ablate, format_ablation_table
from jaeger.harness.checkpoint import (config_path, load_checkpoint, load_model,
                                       save_checkpoint, vocab_path)
from jaeger.harness.gradcheck import format_gradcheck, run_gradcheck
from jaeger.harness.metrics import ema
from jaeger.harness.train import (_batch_loss, corpus_texts, encode_split, evaluate,
                                  evaluate_checkpoint, three_way_split, train, train_step)
from jaeger.model import JaegerModel, encode_sample
from jaeger.numerics import Tape, bce_with_logits, seeded, seeded_init
from jaeger.text import Vocabulary, build_vocab


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
        cfg.to_json(path)
        assert TrainConfig.from_json(path) == cfg

    def test_unknown_field_rejected(self):
        raw = small_config().to_dict()
        raw["momentum"] = 0.9
        with pytest.raises(SchemaError, match="momentum"):
            TrainConfig.from_dict(raw)

    def test_legacy_data_path_is_accepted(self):
        """Sidecars written before data_path was dropped still load."""
        raw = small_config().to_dict()
        assert "data_path" not in raw
        raw["data_path"] = "corpus.jsonl"
        assert TrainConfig.from_dict(raw) == small_config()

    def test_json_types_that_fit_are_accepted(self):
        """An int is a valid float, max_steps may be null, ratios may be a list."""
        cfg = TrainConfig.from_dict({"learning_rate": 1, "max_steps": None,
                                     "split_ratios": [1, 0.0]})
        assert cfg.learning_rate == 1 and cfg.max_steps is None
        assert cfg.split_ratios == (1, 0.0)

    @pytest.mark.parametrize("field,value", [("n_heads", 2.0), ("variant", 1),
                                             ("split_ratios", [0.5, "0.5"]),
                                             ("split_ratios", 0.5), ("threshold", False)])
    def test_wrong_json_type_names_the_field(self, field, value):
        with pytest.raises(SchemaError, match=field):
            TrainConfig.from_dict({field: value})

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


class TestForward:
    def test_tape_records_do_not_grow_with_candidates(self):
        """Elements, heads and candidates are tensor axes, so a forward
        records the same ops for 4 candidates as for 30."""
        cfg = small_config()
        seen = []
        for pages, per_page in ((1, 4), (3, 10)):
            doc = generate_document(3, GenConfig(n_pages=pages,
                                                 elements_per_page=(per_page, per_page)))
            doc.questions = generate_questions(doc, 3, 1)
            vocab = build_vocab(corpus_texts([doc]))
            sample = encode_sample(doc, doc.questions[0], vocab, cfg)
            with Tape() as tape:
                JaegerModel(cfg, vocab).forward(sample)
            seen.append((len(sample.candidate_ids), len(tape.records)))
        assert [n for n, _ in seen] == [4, 30]
        assert seen[0][1] == seen[1][1]


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
        model, batch = self._model_and_batch()
        with Tape() as tape:
            model.forward(batch[0])
        one_forward = len(tape.records)
        swept = []

        class CountingTape(Tape):
            def backward(self, loss, params):
                swept.append(len(self.records))
                return super().backward(loss, params)

        monkeypatch.setattr("jaeger.harness.train.Tape", CountingTape)
        train_step(model, batch, 0.01, 0)
        assert swept == [one_forward + 1]

    def test_an_affine_layer_is_one_record(self, monkeypatch):
        """At the default widths a dual step records one linear per affine layer
        and a matmul only for attention's two products per block."""
        cfg = TrainConfig(learning_rate=0.05)
        corpus = small_corpus(n_docs=4)
        model = JaegerModel(cfg, build_vocab(corpus_texts(corpus)))
        ops = []

        class CountingTape(Tape):
            def backward(self, loss, params):
                ops.extend(rec.op for rec in self.records)
                return super().backward(loss, params)

        monkeypatch.setattr("jaeger.harness.train.Tape", CountingTape)
        train_step(model, encode_split(corpus, model.vocab, cfg)[:cfg.batch_size],
                   cfg.learning_rate, 0)
        blocks = 3 * cfg.n_layers  # bidir, causal and content encoders
        # Six per block (q, k, v, output, two feed-forward), the bbox injection,
        # the visual MLP's two and the reduction.
        assert ops.count("linear") == 6 * blocks + 4 == 40
        assert ops.count("matmul") == 2 * blocks == 12
        assert len(ops) == 183

    def test_each_question_gets_its_own_logits_bit_for_bit(self):
        model, batch = self._model_and_batch()
        logits = model.batch_logits(batch).data
        at = 0
        for s in batch:
            n = len(s.candidate_ids)
            np.testing.assert_array_equal(logits[at:at + n], model.forward(s).data)
            at += n
        assert at == logits.size

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
        # Some true gradients are zero (a key bias cannot move a softmax), so
        # their entries are rounding noise; the scale is the largest entry.
        scale = max(np.abs(e).max() for e in expect)
        for p, e in zip(params, expect):
            np.testing.assert_allclose(p.grad, e, rtol=1e-5, atol=1e-5 * scale)

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
        samples = encode_split(val_docs, result.vocab, cfg)
        report = evaluate(result.model, samples, "val")
        assert set(report) == {"split", "n", "ema"}
        assert report["split"] == "val"
        assert report["n"] == len(samples)

        from jaeger.fusion import predict_answer_set
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
    """Eval encodes each document's elements once; its questions share the result."""

    def _model_and_corpus(self, **overrides):
        corpus = generate_corpus(5, 5, GenConfig(n_pages=1, elements_per_page=(4, 5)),
                                 questions_per_doc=4)
        cfg = small_config(**overrides)
        return JaegerModel(cfg, build_vocab(corpus_texts(corpus))), corpus

    def _count_content_calls(self, monkeypatch) -> list:
        calls = []
        original = jaeger.model.encode_content

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(jaeger.model, "encode_content", counting)
        return calls

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

    def test_evaluate_encodes_each_document_once(self, monkeypatch):
        model, corpus = self._model_and_corpus()
        samples = encode_split(corpus, model.vocab, model.cfg)
        assert len(samples) == 20
        calls = self._count_content_calls(monkeypatch)
        evaluate(model, samples, "val")
        assert len(calls) == 5

    def test_evaluate_checkpoint_encodes_each_document_once(self, monkeypatch):
        model, corpus = self._model_and_corpus(split_ratios=(1.0,))
        calls = self._count_content_calls(monkeypatch)
        report = evaluate_checkpoint(model, corpus, "train")
        assert report["n"] == 20
        assert len(calls) == 5

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
        model, corpus = self._model_and_corpus()
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
        sample = encode_split(train_docs, result.vocab, cfg)[0]
        np.testing.assert_array_equal(result.model.forward(sample).data,
                                      restored.forward(sample).data)

    def test_restored_config_and_vocab_match(self, tmp_path):
        _, cfg, result, path = self._trained(tmp_path)
        arrays, restored_cfg, restored_vocab = load_checkpoint(path)
        assert restored_cfg == cfg
        assert restored_vocab.tokens == result.vocab.tokens
        assert set(arrays) == set(result.model.state_arrays())

    def test_bad_magic_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_model(path)

    def test_truncation_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_model(path)

    def test_rank_beyond_numpy_rejected(self, tmp_path):
        """A 65-dimensional empty tensor needs no value bytes but cannot be built."""
        path = tmp_path / "deep.ckpt"
        path.write_bytes(b"JGR1" + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack("<B", 65) + struct.pack("<65I", *[0] * 65))
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(str(path))

    def test_width_mismatch_rejected(self, tmp_path):
        """A sidecar that disagrees with the stored tensors must not load."""
        _, _, _, path = self._trained(tmp_path)
        sidecar = json.load(open(config_path(path)))
        sidecar["config"]["d_visual"] = 12
        json.dump(sidecar, open(config_path(path), "w"))
        with pytest.raises(CompatibilityError):
            load_model(path)

    def test_sidecar_holds_the_digests_of_both_files(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        digests = json.load(open(config_path(path)))["sha256"]
        assert digests == {
            "tensors": hashlib.sha256(open(path, "rb").read()).hexdigest(),
            "vocab": hashlib.sha256(open(vocab_path(path), "rb").read()).hexdigest()}

    def test_same_size_vocabulary_from_another_run_rejected(self, tmp_path):
        _, _, result, path = self._trained(tmp_path)
        tokens = list(result.vocab.tokens)
        tokens[4], tokens[5] = tokens[5], tokens[4]
        other = Vocabulary(tokens[4:])
        assert len(other) == len(result.vocab) and other.tokens != result.vocab.tokens
        other.save(vocab_path(path))
        with pytest.raises(CheckpointFormatError, match="model.ckpt.vocab"):
            load_model(path)

    def test_tensor_file_from_another_run_rejected(self, tmp_path):
        corpus, cfg, _, path = self._trained(tmp_path)
        other = str(tmp_path / "other.ckpt")
        save_checkpoint(other, train(dataclasses.replace(cfg, learning_rate=0.02), corpus).model)
        os.replace(other, path)
        with pytest.raises(CheckpointFormatError, match="digest"):
            load_model(path)

    def test_renamed_digest_key_rejected(self, tmp_path):
        """A one-byte edit of the sidecar key must not let a tensor file from another run in."""
        corpus, cfg, _, path = self._trained(tmp_path)
        other = str(tmp_path / "other.ckpt")
        save_checkpoint(other, train(dataclasses.replace(cfg, learning_rate=0.02), corpus).model)
        os.replace(other, path)
        sidecar = json.load(open(config_path(path)))
        sidecar["sha257"] = sidecar.pop("sha256")
        json.dump(sidecar, open(config_path(path), "w"))
        with pytest.raises(CheckpointFormatError, match="sha256"):
            load_model(path)

    def test_sidecar_without_digests_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        sidecar = json.load(open(config_path(path)))
        del sidecar["sha256"]
        json.dump(sidecar, open(config_path(path), "w"))
        with pytest.raises(CheckpointFormatError, match="model.ckpt.json"):
            load_model(path)

    @pytest.mark.parametrize("key", ["tensors", "vocab"])
    def test_sidecar_missing_one_digest_rejected(self, tmp_path, key):
        _, _, _, path = self._trained(tmp_path)
        sidecar = json.load(open(config_path(path)))
        del sidecar["sha256"][key]
        json.dump(sidecar, open(config_path(path), "w"))
        with pytest.raises(CheckpointFormatError, match=key):
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

    def test_extra_tensor_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        self._rewrite_tensors(
            path, lambda arrays: arrays.__setitem__("fusion.spare", np.zeros(3, np.float32)))
        with pytest.raises(CompatibilityError, match="fusion.spare"):
            load_model(path)

    def test_loading_draws_no_initial_values(self, tmp_path, monkeypatch):
        """Every weight comes from the tensor file, so init is never called."""
        corpus, cfg, result, path = self._trained(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew initial values")

        for module in (numerics, jaeger.encoders, jaeger.fusion):
            if hasattr(module, "seeded_init"):
                monkeypatch.setattr(module, "seeded_init", refuse)
        restored = load_model(path)
        train_docs, _, _ = three_way_split(corpus, cfg)
        sample = encode_split(train_docs, result.vocab, cfg)[0]
        np.testing.assert_array_equal(result.model.forward(sample).data,
                                      restored.forward(sample).data)


    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        """A save that fails while writing a sidecar leaves the old checkpoint
        whole, with no temporary file beside it."""
        corpus, cfg, result, path = self._trained(tmp_path)
        train_docs, _, _ = three_way_split(corpus, cfg)
        sample = encode_split(train_docs, result.vocab, cfg)[0]
        before = load_model(path).forward(sample).data
        files = sorted(os.listdir(tmp_path))

        def disk_full(self, path):
            raise OSError(f"no space left for {path}")

        monkeypatch.setattr(Vocabulary, "save", disk_full)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, JaegerModel(cfg, result.vocab))
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == files
        np.testing.assert_array_equal(load_model(path).forward(sample).data, before)


class TestFreshInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_parameter_is_drawn_from_its_registry_name(self, dtype):
        """A fresh tensor equals seeded_init with its registry name as the
        stream; loading a checkpoint by the same names relies on this."""
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
            expected = seeded_init(p.data.shape, scheme, cfg.seed, name, dtype=dtype).data
            assert p.data.dtype == dtype
            np.testing.assert_array_equal(p.data, expected, err_msg=name)
            np.testing.assert_array_equal(default[name].data, expected.astype(np.float32),
                                          err_msg=name)

    # SHA-256 of a freshly initialised model's tensor file, per variant. The
    # bytes follow the registry: every name, in order, with its shape and
    # values. Fresh values are xoshiro draws cast to float32, so the digests
    # hold on any platform.
    @pytest.mark.parametrize("variant, digest", [
        ("dual", "557553b92b37cb6cfeb3ebfa84cc92abea9b83411091cb3d29b6d2c3300cd508"),
        ("bidir_only", "414114ed3114c25e42986a82edd5e71f87081eef991bb09b4fea120b1b1d5e2d"),
        ("causal_only", "d84d43ab0fe6e43a8fc2b921a77a8016e2d89df772e5502e3ef1e3003597d366"),
    ])
    def test_fresh_tensor_file_is_pinned(self, tmp_path, variant, digest):
        path = str(tmp_path / "fresh.ckpt")
        save_checkpoint(path, JaegerModel(small_config(variant=variant),
                                          build_vocab(["alpha beta"])))
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == digest


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
            samples = encode_split(val_docs, result.vocab, cfg)
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
        sample = encode_split(train_docs, result.vocab, cfg)[0]
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
