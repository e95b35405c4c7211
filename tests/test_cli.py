"""End-to-end command flows through the argparse entry point."""

import argparse
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jaeger
from jaeger.cli import build_parser, main
from jaeger.harness.checkpoint import load_model, save_checkpoint

from test_harness import reseal, section_offsets, with_section


TINY_CONFIG = {
    "learning_rate": 0.01, "epochs": 1, "batch_size": 4, "seed": 3,
    "max_question_len": 16, "max_content_len": 10,
    "d_bidir": 8, "d_causal": 8, "d_content": 8, "d_visual": 8,
    "d_reduced": 8, "scorer_hidden": 8, "n_heads": 2, "n_layers": 1,
    "split_ratios": [0.6, 0.2, 0.2],
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG) + "\n")
    return str(path)


def gen_corpus(tmp_path, name="corpus.jsonl", seed=9, docs=10):
    out = str(tmp_path / name)
    code = main(["gen-data", "--seed", str(seed), "--docs", str(docs),
                 "--out", out, "--min-elements", "4", "--max-elements", "5",
                 "--questions", "2"])
    assert code == 0
    return out


def run_cli(argv):
    """The CLI in a fresh process, with numpy's warnings shown on stderr as a real run shows them."""
    src = str(Path(jaeger.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-W", "default", "-c",
         "import sys; from jaeger.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})


COMMAND_NAMES = ["gen-data", "train", "eval", "predict", "ablate", "gradcheck"]


def exit_output(capsys, call):
    """The exit code and the (stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as ended:
        call()
    return ended.value.code, tuple(capsys.readouterr())


class TestParserOfTheInvokedCommand:
    """main builds only the subparser of the command it is given, and prints and parses
    what the parser of all six commands does."""

    @pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"]],
                             ids=["help", "missing-arguments", "unrecognized-argument"])
    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_prints_what_the_full_parser_prints(self, capsys, command, tail):
        argv = [command, *tail]
        if argv == ["gradcheck"]:  # every gradcheck argument is optional, so this would run
            argv = ["gradcheck", "--samples", "many"]
        expected = exit_output(capsys, lambda: build_parser().parse_args(argv))
        assert exit_output(capsys, lambda: main(argv)) == expected

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--seed", "7", "--docs", "3", "--out", "c.jsonl", "--d-vis", "4"],
        ["train", "--config", "cfg.json", "--data", "c.jsonl", "--out", "m.ckpt"],
        ["eval", "--ckpt", "m.ckpt", "--data", "c.jsonl", "--split", "test", "--threshold", "0.3"],
        ["predict", "--ckpt", "m.ckpt", "--data", "c.jsonl", "--doc-id", "doc-1",
         "--question", "which elements are the children of the title?"],
        ["ablate", "--data", "c.jsonl"],
        ["gradcheck", "--config", "cfg.json", "--samples", "0"],
    ], ids=COMMAND_NAMES)
    def test_parses_what_the_full_parser_parses(self, argv):
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["nope"], 2)],
                             ids=["no-command", "help", "unknown-command"])
    def test_any_other_word_lists_every_command(self, capsys, argv, code):
        expected = exit_output(capsys, lambda: build_parser().parse_args(argv))
        assert exit_output(capsys, lambda: main(argv)) == expected
        assert expected[0] == code
        assert "{gen-data,train,eval,predict,ablate,gradcheck}" in "".join(expected[1])

    def test_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "c.jsonl")
        monkeypatch.setattr(sys, "argv", ["jaeger", "gen-data", "--seed", "7", "--docs", "2",
                                          "--out", out])
        assert main() == 0
        assert capsys.readouterr().out.startswith("wrote 2 documents")
        for argv in [["predict", "--help"], []]:
            monkeypatch.setattr(sys, "argv", ["jaeger", *argv])
            expected = exit_output(capsys, lambda: build_parser().parse_args(argv))
            assert exit_output(capsys, main) == expected

    def test_a_command_word_builds_its_subparser_alone(self, monkeypatch):
        """Each add_argument call builds a help formatter, most of a parser's cost:
        predict's parser makes 6 (two -h and its four options), all six commands' 31."""
        counts = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            counts[-1] += 1
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        for command in ["predict", None]:
            counts.append(0)
            build_parser(command)
        assert counts == [6, 31]


class TestGenData:
    def test_writes_announced_corpus(self, tmp_path, capsys):
        out = gen_corpus(tmp_path)
        text = capsys.readouterr().out
        assert "10 documents" in text
        assert out in text
        with open(out) as f:
            assert sum(1 for _ in f) == 10

    def test_same_seed_same_bytes(self, tmp_path):
        a = gen_corpus(tmp_path, "a.jsonl", seed=4)
        b = gen_corpus(tmp_path, "b.jsonl", seed=4)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = gen_corpus(tmp_path, "a.jsonl", seed=4)
        b = gen_corpus(tmp_path, "b.jsonl", seed=5)
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_infeasible_layout_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen-data", "--seed", "1", "--docs", "1",
                     "--out", str(tmp_path / "x.jsonl"),
                     "--min-elements", "200", "--max-elements", "200"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["absent/x.jsonl", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_fails_before_generating(self, tmp_path, capsys, monkeypatch, out):
        """A corpus path that cannot be written is refused before any document is
        generated, and the error names --out, not a temporary file beside it."""
        out = str(tmp_path / out)
        monkeypatch.setattr("jaeger.cli.generate_corpus",
                            lambda *a, **k: pytest.fail("generate_corpus ran"))
        code = main(["gen-data", "--seed", "7", "--docs", "5", "--out", out])
        [line] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line.startswith("error:") and "--out" in line and repr(out) in line
        assert ".tmp-" not in line


class TestTrainEvalPredict:
    def test_full_flow(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")

        code = main(["train", "--config", tiny_config, "--data", corpus, "--out", ckpt])
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch   0" in out
        assert f"checkpoint written to {ckpt}" in out

        code = main(["eval", "--ckpt", ckpt, "--data", corpus, "--split", "val"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["split"] == "val"
        assert 0.0 <= report["ema"] <= 1.0
        assert report["n"] > 0

        doc_id = json.loads(Path(corpus).read_text().splitlines()[0])["doc_id"]
        code = main(["predict", "--ckpt", ckpt, "--data", corpus,
                     "--doc-id", doc_id,
                     "--question", "which elements are the children of the title?"])
        answer = json.loads(capsys.readouterr().out)
        assert code == 0
        assert answer["doc_id"] == doc_id
        assert isinstance(answer["predicted"], list)

    def test_predict_unknown_document(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", ckpt]) == 0
        capsys.readouterr()
        code = main(["predict", "--ckpt", ckpt, "--data", corpus,
                     "--doc-id", "doc-missing", "--question", "anything?"])
        captured = capsys.readouterr()
        assert code == 1
        assert "doc-missing" in captured.err

    def test_divergence_prints_one_error_line(self, tmp_path):
        """numpy's overflow warnings stay off stderr, which the real process shows."""
        corpus = gen_corpus(tmp_path)
        config = tmp_path / "diverge.json"
        config.write_text(json.dumps({**TINY_CONFIG, "learning_rate": 1e30}))
        run = run_cli(["train", "--config", str(config), "--data", corpus,
                       "--out", str(tmp_path / "m.ckpt")])
        assert run.returncode == 1
        assert run.stderr.splitlines() == ["error: non-finite loss at step 1"]

    def test_non_finite_logits_end_training_in_one_error_line(self, tmp_path):
        """One step at lr 1e30 still has a finite loss, but the validation pass
        after it gets non-finite logits: no val_ema, no checkpoint."""
        corpus = gen_corpus(tmp_path)
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps({**TINY_CONFIG, "learning_rate": 1e30, "max_steps": 1}))
        ckpt = tmp_path / "m.ckpt"
        run = run_cli(["train", "--config", str(config), "--data", corpus, "--out", str(ckpt)])
        assert run.returncode == 1
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "non-finite logits" in line
        assert "val_ema" not in run.stdout
        assert not ckpt.exists()

    def test_non_finite_logits_without_a_validation_split_end_in_one_error_line(self, tmp_path):
        """With no validation pass, the last batch is scored once after the final
        step. The weights stay finite (below 1e30), so only the logits show it."""
        corpus = str(tmp_path / "corpus.jsonl")
        assert main(["gen-data", "--seed", "3", "--docs", "12", "--out", corpus]) == 0
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps({"learning_rate": 1e30, "max_steps": 1,
                                      "split_ratios": [1.0]}))
        ckpt = tmp_path / "m.ckpt"
        run = run_cli(["train", "--config", str(config), "--data", corpus, "--out", str(ckpt)])
        assert run.returncode == 1
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "non-finite logits" in line
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", [
        ["eval", "--split", "test"],
        ["predict", "--question", "which elements are the children of the title?"],
    ], ids=["eval", "predict"])
    def test_a_model_with_non_finite_logits_is_refused(self, tmp_path, tiny_config, command):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus, "--out", ckpt]) == 0
        model = load_model(ckpt)
        for p in model.parameters():
            p.data = p.data * np.float32(1e30)
        save_checkpoint(ckpt, model)
        if command[0] == "predict":
            doc_id = json.loads(Path(corpus).read_text().splitlines()[0])["doc_id"]
            command = [*command, "--doc-id", doc_id]
        run = run_cli([*command, "--ckpt", ckpt, "--data", corpus])
        assert run.returncode == 1
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "non-finite logits" in line
        assert run.stdout == ""

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 596. GiB"), "error: Unable to allocate 596. GiB"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_running_out_of_memory_prints_one_error_line(self, tmp_path, tiny_config, capsys,
                                                         monkeypatch, error, line):
        """A config too large to allocate, such as max_question_len 100000, ends in
        a MemoryError from numpy or from Python itself. Training is replaced by one
        that raises it, since a real allocation of that size could exhaust memory."""
        corpus = gen_corpus(tmp_path)
        capsys.readouterr()

        def too_large(*args):
            raise error

        monkeypatch.setattr("jaeger.cli.train", too_large)
        code = main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("out", ["absent/m.ckpt", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_fails_before_training(self, tmp_path, tiny_config, capsys,
                                                  monkeypatch, out):
        """A checkpoint path that cannot be written is refused before any step
        runs, and the error names --out, not a temporary file beside it."""
        corpus = gen_corpus(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / out)
        monkeypatch.setattr("jaeger.cli.train", lambda *a: pytest.fail("training ran"))
        code = main(["train", "--config", tiny_config, "--data", corpus, "--out", out])
        [line] = capsys.readouterr().err.splitlines()
        assert code == 1
        assert line.startswith("error:") and repr(out) in line and ".tmp-" not in line

    def test_missing_checkpoint(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        code = main(["eval", "--ckpt", str(tmp_path / "absent.ckpt"),
                     "--data", corpus, "--split", "val"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_corpus_names_the_line(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        with open(corpus, "a") as f:
            f.write("{not json}\n")
        code = main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", str(tmp_path / "m.ckpt")])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 11" in captured.err


    def test_corrupt_line_names_the_file(self, tmp_path, tiny_config, capsys):
        corpus = tmp_path / "broken.jsonl"
        lines = Path(gen_corpus(tmp_path)).read_text().splitlines(keepends=True)[:3] + ["{bad\n"]
        corpus.write_text("".join(lines))
        code = main(["train", "--config", tiny_config, "--data", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "broken.jsonl" in err and "line 4" in err
        assert "Traceback" not in err


class TestPredictReadsUpToItsDocument:
    """predict checks every line up to its document and reads none after it."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("predict")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", str(config), "--data", corpus, "--out", ckpt]) == 0
        return ckpt, Path(corpus).read_bytes().splitlines(keepends=True)

    def _predict(self, tmp_path, ckpt, lines, doc_id, capsys):
        corpus = tmp_path / "served.jsonl"
        corpus.write_bytes(b"".join(lines))
        capsys.readouterr()
        code = main(["predict", "--ckpt", ckpt, "--data", str(corpus),
                     "--doc-id", doc_id, "--question", "what is the parent of the title?"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    def test_bad_line_after_the_document_is_not_read(self, tmp_path, trained, capsys):
        ckpt, lines = trained
        doc_id = json.loads(lines[2])["doc_id"]
        code, out, _ = self._predict(tmp_path, ckpt, lines[:3] + [b"{bad\n"] + lines[3:],
                                     doc_id, capsys)
        assert code == 0
        assert json.loads(out)["doc_id"] == doc_id

    @pytest.mark.parametrize("bad", [b"{bad\n", b"\xff\xfe{}\n"])
    def test_bad_line_before_the_document_names_it(self, tmp_path, trained, capsys, bad):
        ckpt, lines = trained
        doc_id = json.loads(lines[2])["doc_id"]
        code, _, err = self._predict(tmp_path, ckpt, lines[:1] + [bad] + lines[1:],
                                     doc_id, capsys)
        assert code == 1
        assert err.startswith("error:") and "served.jsonl line 2" in err

    def test_unknown_document_scans_every_line(self, tmp_path, trained, capsys):
        ckpt, lines = trained
        code, _, err = self._predict(tmp_path, ckpt, lines + [b"{bad\n"], "doc-missing", capsys)
        assert code == 1
        assert err.startswith("error:") and "line 11" in err

    def test_first_of_two_documents_with_one_id_answers(self, tmp_path, trained, capsys):
        ckpt, lines = trained
        doc_id = json.loads(lines[1])["doc_id"]
        twin = json.loads(lines[4])
        twin["doc_id"] = doc_id
        duplicated = lines[:5] + [json.dumps(twin).encode() + b"\n"] + lines[5:]
        code, out, _ = self._predict(tmp_path, ckpt, duplicated, doc_id, capsys)
        assert code == 0
        assert self._predict(tmp_path, ckpt, lines[1:2], doc_id, capsys) == (0, out, "")

    def test_element_that_is_not_an_object(self, tmp_path, trained, capsys):
        ckpt, lines = trained
        bad = b'{"doc_id":"d","elements":[5],"questions":[]}\n'
        code, _, err = self._predict(tmp_path, ckpt, lines[:2] + [bad], "d", capsys)
        assert code == 1
        assert err.startswith("error:") and "line 3.elements[0]" in err


class TestStackedInputBoundaries:
    def test_predict_on_a_document_without_elements(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", ckpt]) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps({"doc_id": "doc-empty", "elements": [],
                                     "questions": []}) + "\n")
        capsys.readouterr()
        code = main(["predict", "--ckpt", ckpt, "--data", str(empty),
                     "--doc-id", "doc-empty", "--question", "what is the parent of the title?"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["predicted"] == []

    @pytest.mark.parametrize("d_vis", [9, 16])
    def test_visual_width_mismatch_fails_cleanly(self, tmp_path, tiny_config, capsys, d_vis):
        """The model expects 8-wide descriptors; narrower and wider ones,
        dividing 8 evenly or not, end in one clean error."""
        corpus = str(tmp_path / "corpus.jsonl")
        assert main(["gen-data", "--seed", "9", "--docs", "10", "--out", corpus,
                     "--min-elements", "4", "--max-elements", "5", "--questions", "2",
                     "--d-vis", str(d_vis)]) == 0
        capsys.readouterr()
        code = main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "width" in err


class TestBadCheckpointAtTheBoundary:
    """A checkpoint that does not load ends eval and predict in one error: line."""

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: with_section(blob, 0, b"{not json"),
         "model.ckpt holds a config that is not UTF-8 JSON"),
        (lambda blob: with_section(blob, 1, b"<pad>\n<unk>\n<cls>\n<sep>\ncaf\xff\n"),
         "model.ckpt is not valid UTF-8"),
        (lambda blob: b"JGR1" + struct.pack("<II", 1, 0),
         "model.ckpt is a format-1 checkpoint, which this build does not read; retrain it"),
    ], ids=["config-json", "vocabulary-utf8", "format-1"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_ends_in_one_error_line(self, tmp_path, tiny_config, capsys, command, damage,
                                    message):
        corpus = gen_corpus(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", str(ckpt)]) == 0
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        capsys.readouterr()
        doc_id = json.loads(Path(corpus).read_text().splitlines()[0])["doc_id"]
        argv = {"eval": ["eval", "--ckpt", str(ckpt), "--data", corpus, "--split", "test"],
                "predict": ["predict", "--ckpt", str(ckpt), "--data", corpus,
                            "--doc-id", doc_id, "--question", "anything?"]}[command]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err


class TestBadJsonAtTheBoundary:
    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code = main(["train", "--config", str(config), "--data", str(tmp_path / "x.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "config.json" in err

    @pytest.mark.parametrize("field,value", [("epochs", "3"), ("epochs", True),
                                             ("learning_rate", "0.1"), ("max_steps", 2.5),
                                             pytest.param("split_ratios", [float("nan")],
                                                          id="split_ratios-NaN"),
                                             pytest.param("learning_rate", float("inf"),
                                                          id="learning_rate-Infinity"),
                                             pytest.param("split_ratios", [10 ** 400],
                                                          id="split_ratios-401-digits")])
    def test_config_field_of_wrong_type(self, tmp_path, capsys, field, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        code = main(["train", "--config", str(config), "--data", str(tmp_path / "x.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("raw,message", [
        ({"momentum": 0.9}, "unknown config field 'momentum'"),
        ({"epochs": "3"}, "config field 'epochs' must be int, got '3'"),
        ({"epochs": 0}, "epochs must be at least 1, got 0"),
    ], ids=["unknown-field", "wrong-type", "out-of-range"])
    def test_config_field_error_names_the_file(self, tmp_path, capsys, raw, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        code = main(["train", "--config", str(config), "--data", str(tmp_path / "x.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and message in err and "cfg.json" in err

    @pytest.mark.parametrize("raw,message", [
        ({"n_heads": 3}, "d_bidir 32 is not divisible by n_heads 3"),
        ({"max_content_len": 1}, "max_content_len must be at least 2"),
        ({"split_ratios": [0.0, 1.0]}, "split_ratios must be positive finite floats"),
        ({"split_ratios": [-0.5, 1.0]}, "split_ratios must be positive finite floats"),
        ({"split_ratios": [0.8, 0.3]}, "split_ratios sum to 1.1"),
    ], ids=["heads-do-not-divide-width", "content-len-below-cls-sep", "zero-ratio",
            "negative-ratio", "ratios-over-1"])
    def test_range_fault_found_at_model_build_names_the_file(self, tmp_path, capsys,
                                                             raw, message):
        """Faults that only the model's encoders, the text encoder or the corpus
        split would catch are refused with the config, so the error names its file."""
        corpus = gen_corpus(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        code = main(["train", "--config", str(config), "--data", corpus,
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and message in err and "cfg.json" in err
        assert not os.path.exists(tmp_path / "m.ckpt")


class TestJsonPastThePythonLimitsAtTheBoundary:
    """JSON nested past the recursion limit, in a corpus or a config, and a corpus number
    past the int-string limit end in one error: line naming the file, not a traceback."""

    DEEP = "[" * 100_000 + "\n"
    LONG_NUMBER = '{"doc_id": ' + "1" * 5_000 + "}\n"

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("limits")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG))
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", str(config), "--data", corpus, "--out", ckpt]) == 0
        return str(config), corpus, ckpt

    @pytest.mark.parametrize("name, text, argv", [
        ("deep.jsonl", DEEP, ["train", "--config", "{config}", "--data", "{bad}",
                              "--out", "{out}"]),
        ("deep.json", DEEP, ["train", "--config", "{bad}", "--data", "{corpus}",
                             "--out", "{out}"]),
        ("deep.json", DEEP, ["ablate", "--config", "{bad}", "--data", "{corpus}"]),
        ("deep.json", DEEP, ["gradcheck", "--config", "{bad}"]),
        ("deep.jsonl", DEEP, ["eval", "--ckpt", "{ckpt}", "--data", "{bad}", "--split", "test"]),
        ("deep.jsonl", DEEP, ["predict", "--ckpt", "{ckpt}", "--data", "{bad}",
                              "--doc-id", "d", "--question", "anything?"]),
        ("long.jsonl", LONG_NUMBER, ["train", "--config", "{config}", "--data", "{bad}",
                                     "--out", "{out}"]),
        ("long.jsonl", LONG_NUMBER, ["predict", "--ckpt", "{ckpt}", "--data", "{bad}",
                                     "--doc-id", "d", "--question", "anything?"]),
    ], ids=["train-data", "train-config", "ablate-config", "gradcheck-config", "eval-data",
            "predict-data", "train-data-long-number", "predict-data-long-number"])
    def test_ends_in_one_error_line_naming_the_file(self, tmp_path, trained, capsys, name,
                                                    text, argv):
        config, corpus, ckpt = trained
        bad = tmp_path / name
        bad.write_text(text)
        paths = {"config": config, "corpus": corpus, "ckpt": ckpt, "bad": str(bad),
                 "out": str(tmp_path / "m.ckpt")}
        capsys.readouterr()
        code = main([arg.format(**paths) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        [line] = err.splitlines()
        where = str(bad) + (" line 1" if name.endswith(".jsonl") else "")
        assert line.startswith("error: ") and where in line
        assert not (tmp_path / "m.ckpt").exists()


class TestInvalidUtf8AtTheBoundary:
    """Bytes that are not UTF-8 end in `error:` naming the file, not a traceback."""

    def _trained(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus, "--out", ckpt]) == 0
        capsys.readouterr()
        return corpus, ckpt

    def _predict(self, corpus, ckpt, capsys):
        doc_id = json.loads(Path(corpus).read_text().splitlines()[0])["doc_id"]
        code = main(["predict", "--ckpt", ckpt, "--data", corpus,
                     "--doc-id", doc_id, "--question", "anything?"])
        return code, capsys.readouterr().err

    def test_corpus_names_the_file_and_line(self, tmp_path, tiny_config, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_bytes(b"\xff\xfe{}\n")
        code = main(["train", "--config", tiny_config, "--data", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "bad.jsonl" in err and "line 1" in err

    def test_tensor_name(self, tmp_path, tiny_config, capsys):
        corpus, ckpt = self._trained(tmp_path, tiny_config, capsys)
        blob = bytearray(Path(ckpt).read_bytes())
        blob[section_offsets(blob)[2] + 6] = 0xFF  # first byte of the first tensor name
        Path(ckpt).write_bytes(reseal(bytes(blob)))
        code, err = self._predict(corpus, ckpt, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "model.ckpt has a tensor name that is not valid UTF-8" in err


def _edit_elements(corpus, out, key, value):
    """corpus with `key` of the first element of every document set to value, at out;
    value is a JSON literal, so it can spell what json.dumps would not write."""
    lines = []
    for line in Path(corpus).read_text().splitlines():
        record = json.loads(line)
        record["elements"][0][key] = "PLACEHOLDER"
        lines.append(json.dumps(record).replace('"PLACEHOLDER"', value))
    Path(out).write_text("\n".join(lines) + "\n")
    return str(out)


class TestCorpusValuesTheModelCannotTake:
    """A corpus value that UTF-8 or float32 cannot hold is refused as it is read,
    in one error: line naming the file and the line, before any work is done."""

    def test_lone_surrogate_stops_train_before_the_first_epoch(self, tmp_path, tiny_config):
        corpus = _edit_elements(gen_corpus(tmp_path), tmp_path / "surrogate.jsonl",
                                "text", '"alpha \\ud800 beta"')
        run = run_cli(["train", "--config", tiny_config, "--data", corpus,
                       "--out", str(tmp_path / "m.ckpt")])
        assert run.returncode == 1
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "surrogate.jsonl line 1" in line and "text" in line
        assert "epoch" not in run.stdout
        assert not list(tmp_path.glob("*.ckpt*"))

    def test_visual_value_beyond_float32_stops_train(self, tmp_path, tiny_config):
        corpus = _edit_elements(gen_corpus(tmp_path), tmp_path / "huge.jsonl", "vis",
                                "[1e39, 0, 0, 0, 0, 0, 0, 0]")
        run = run_cli(["train", "--config", tiny_config, "--data", corpus,
                       "--out", str(tmp_path / "m.ckpt")])
        assert run.returncode == 1
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "huge.jsonl line 1" in line and "vis" in line
        assert "epoch" not in run.stdout
        assert not list(tmp_path.glob("*.ckpt*"))

    @pytest.mark.parametrize("command", [
        ["eval", "--split", "test"],
        ["predict", "--question", "which elements are the children of the title?"],
    ], ids=["eval", "predict"])
    def test_visual_value_beyond_float32_is_not_blamed_on_the_model(self, tmp_path, tiny_config,
                                                                    command):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus, "--out", ckpt]) == 0
        huge = _edit_elements(corpus, tmp_path / "huge.jsonl", "vis",
                              "[3.5e38, 0, 0, 0, 0, 0, 0, 0]")
        if command[0] == "predict":
            doc_id = json.loads(Path(huge).read_text().splitlines()[0])["doc_id"]
            command = [*command, "--doc-id", doc_id]
        run = run_cli([*command, "--ckpt", ckpt, "--data", huge])
        assert run.returncode == 1
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "huge.jsonl line 1" in line and "vis" in line
        assert run.stdout == ""


class TestAblateCommand:
    def test_prints_all_variants(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        code = main(["ablate", "--config", tiny_config, "--data", corpus])
        out = capsys.readouterr().out
        assert code == 0
        for variant in ("dual", "bidir_only", "causal_only"):
            assert variant in out


class TestGradcheckCommand:
    def test_passes_on_healthy_model(self, tmp_path, tiny_config, capsys):
        code = main(["gradcheck", "--config", tiny_config, "--samples", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_bad_samples_value(self, capsys):
        code = main(["gradcheck", "--samples", "-2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
