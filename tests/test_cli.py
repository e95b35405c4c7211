"""End-to-end command flows through the argparse entry point."""

import json

import pytest

from jaeger.cli import main


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "learning_rate": 0.01, "epochs": 1, "batch_size": 4, "seed": 3,
        "max_question_len": 16, "max_content_len": 10,
        "d_bidir": 8, "d_causal": 8, "d_content": 8, "d_visual": 8,
        "d_reduced": 8, "scorer_hidden": 8, "n_heads": 2, "n_layers": 1,
        "split_ratios": [0.6, 0.2, 0.2],
    }) + "\n")
    return str(path)


def gen_corpus(tmp_path, name="corpus.jsonl", seed=9, docs=10):
    out = str(tmp_path / name)
    code = main(["gen-data", "--seed", str(seed), "--docs", str(docs),
                 "--out", out, "--min-elements", "4", "--max-elements", "5",
                 "--questions", "2"])
    assert code == 0
    return out


class TestGenData:
    def test_writes_announced_corpus(self, tmp_path, capsys):
        out = gen_corpus(tmp_path)
        text = capsys.readouterr().out
        assert "10 documents" in text
        assert out in text
        assert sum(1 for _ in open(out)) == 10

    def test_same_seed_same_bytes(self, tmp_path):
        a = gen_corpus(tmp_path, "a.jsonl", seed=4)
        b = gen_corpus(tmp_path, "b.jsonl", seed=4)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_different_seeds_differ(self, tmp_path):
        a = gen_corpus(tmp_path, "a.jsonl", seed=4)
        b = gen_corpus(tmp_path, "b.jsonl", seed=5)
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_infeasible_layout_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen-data", "--seed", "1", "--docs", "1",
                     "--out", str(tmp_path / "x.jsonl"),
                     "--min-elements", "200", "--max-elements", "200"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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

        doc_id = json.loads(open(corpus).readline())["doc_id"]
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

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
        lines = open(gen_corpus(tmp_path)).readlines()[:3] + ["{bad\n"]
        corpus.write_text("".join(lines))
        code = main(["train", "--config", tiny_config, "--data", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "broken.jsonl" in err and "line 4" in err
        assert "Traceback" not in err


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


class TestBadJsonAtTheBoundary:
    def test_malformed_sidecar(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus,
                     "--out", ckpt]) == 0
        (tmp_path / "model.ckpt.json").write_text("{not json")
        capsys.readouterr()
        doc_id = json.loads(open(corpus).readline())["doc_id"]
        code = main(["predict", "--ckpt", ckpt, "--data", corpus,
                     "--doc-id", doc_id, "--question", "anything?"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "model.ckpt.json" in err

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


class TestInvalidUtf8AtTheBoundary:
    """Bytes that are not UTF-8 end in `error:` naming the file, not a traceback."""

    def _trained(self, tmp_path, tiny_config, capsys):
        corpus = gen_corpus(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", tiny_config, "--data", corpus, "--out", ckpt]) == 0
        capsys.readouterr()
        return corpus, ckpt

    def _predict(self, corpus, ckpt, capsys):
        doc_id = json.loads(open(corpus).readline())["doc_id"]
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
        blob = bytearray(open(ckpt, "rb").read())
        blob[14] = 0xFF  # first byte of the first tensor name
        open(ckpt, "wb").write(bytes(blob))
        code, err = self._predict(corpus, ckpt, capsys)
        assert code == 1
        assert err.startswith("error:") and "model.ckpt" in err

    def test_vocabulary_sidecar(self, tmp_path, tiny_config, capsys):
        corpus, ckpt = self._trained(tmp_path, tiny_config, capsys)
        with open(ckpt + ".vocab", "ab") as f:
            f.write(b"caf\xff\n")
        code, err = self._predict(corpus, ckpt, capsys)
        assert code == 1
        assert err.startswith("error:") and "model.ckpt.vocab" in err


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
