"""Corrupt corpus and checkpoint files, and content element lengths, driven by hypothesis.

A flipped, dropped or inserted byte, or any JSON value in place of a
record or of the sidecar's config, must end in a JaegerError (which the
CLI prints as `error:` with exit 1) or in a file that still parses; any
other exception would reach the user as a traceback. Content elements of
any mix of lengths must each encode as they would alone.
"""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jaeger.config import TrainConfig
from jaeger.data import GenConfig, generate_corpus, read_jsonl, write_jsonl
from jaeger.encoders import EncoderConfig, encode_content, init_content
from jaeger.errors import JaegerError
from jaeger.harness.checkpoint import config_path, load_model, save_checkpoint, vocab_path
from jaeger.harness.train import corpus_texts
from jaeger.model import JaegerModel
from jaeger.numerics import seeded
from jaeger.text import build_vocab

from test_encoders import VOCAB, element_stack, untrimmed_content

# (kind, position, payload): positions wrap around the data's length.
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(b"")),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=8)),
)

# Any value json.loads can return, in place of one record or the sidecar config.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def mutate(data: bytes, mutation) -> bytes:
    kind, position, payload = mutation
    if kind == "flip":
        i = position % len(data)
        return data[:i] + bytes([data[i] ^ payload]) + data[i + 1:]
    if kind == "truncate":
        return data[:position % len(data)]
    i = position % (len(data) + 1)
    return data[:i] + payload + data[i:]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """A one-document corpus: a single line to corrupt."""
    docs = generate_corpus(3, 1, GenConfig(n_pages=1, elements_per_page=(3, 4)),
                           questions_per_doc=2)
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_jsonl(docs, str(path))
    return path


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus_file):
    """A freshly initialised tiny model's checkpoint, plus a scratch path to corrupt."""
    docs = read_jsonl(str(corpus_file))
    cfg = TrainConfig(max_question_len=16, max_content_len=10, d_bidir=8, d_causal=8,
                      d_content=8, d_visual=8, d_reduced=8, scorer_hidden=8, n_heads=2,
                      n_layers=1)
    root = tmp_path_factory.mktemp("ckpt")
    good = str(root / "good.ckpt")
    save_checkpoint(good, JaegerModel(cfg, build_vocab(corpus_texts(docs))))
    return good, str(root / "bad.ckpt")


@given(mutation=MUTATIONS)
def test_corrupt_corpus_line_raises_only_jaeger_errors(corpus_file, mutation):
    bad = corpus_file.with_name("bad.jsonl")
    bad.write_bytes(mutate(corpus_file.read_bytes(), mutation))
    try:
        read_jsonl(str(bad))
    except JaegerError:
        pass
    try:
        read_jsonl(str(bad), json.loads(corpus_file.read_text())["doc_id"])
    except JaegerError:
        pass


@pytest.mark.parametrize("field", ["elements", "questions"])
@given(value=JSON_VALUES)
def test_any_json_record_raises_only_jaeger_errors(corpus_file, field, value):
    record = json.loads(corpus_file.read_text())
    record[field][0] = value
    bad = corpus_file.with_name("record.jsonl")
    bad.write_text(json.dumps(record) + "\n")
    for doc_id in (None, record["doc_id"]):
        try:
            read_jsonl(str(bad), doc_id)
        except JaegerError:
            pass


@pytest.mark.parametrize("which", ["tensors", "config", "vocab"])
@given(mutation=MUTATIONS)
def test_corrupt_checkpoint_file_raises_only_jaeger_errors(checkpoint, which, mutation):
    good, bad = checkpoint
    for name in (lambda p: p, config_path, vocab_path):
        shutil.copyfile(name(good), name(bad))
    target = {"tensors": bad, "config": config_path(bad), "vocab": vocab_path(bad)}[which]
    with open(target, "rb") as f:
        data = f.read()
    with open(target, "wb") as f:
        f.write(mutate(data, mutation))
    try:
        load_model(bad)
    except JaegerError:
        pass


@given(value=JSON_VALUES)
def test_any_json_sidecar_config_raises_only_jaeger_errors(checkpoint, value):
    good, bad = checkpoint
    for name in (lambda p: p, vocab_path):
        shutil.copyfile(name(good), name(bad))
    with open(config_path(good), encoding="utf-8") as f:
        sidecar = json.load(f)
    sidecar["config"] = value
    with open(config_path(bad), "w", encoding="utf-8") as f:
        json.dump(sidecar, f)
    try:
        load_model(bad)
    except JaegerError:
        pass


@pytest.fixture(scope="module")
def content_encoders():
    """max_seq -> (config, params) of a small content encoder."""
    cfgs = [EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq=n) for n in (10, 16)]
    return {cfg.max_seq: (cfg, init_content(cfg, len(VOCAB), seeded(12), prefix="c"))
            for cfg in cfgs}


@given(lengths=st.lists(st.integers(1, 16), min_size=1, max_size=6),
       max_len=st.sampled_from([10, 16]), seed=st.integers(0, 2**16))
def test_any_element_lengths_encode_each_element_alone(content_encoders, lengths, max_len,
                                                       seed):
    cfg, params = content_encoders[max_len]
    ids, mask, boxes = element_stack([min(n, max_len) for n in lengths], max_len, seed)
    feats = encode_content(ids, mask, boxes, params, cfg).data
    for i in range(len(ids)):
        np.testing.assert_array_equal(
            feats[i], encode_content(ids[i:i + 1], mask[i:i + 1], boxes[i:i + 1], params, cfg)
            .data[0])
    np.testing.assert_allclose(feats, untrimmed_content(ids, mask, boxes, params, cfg),
                               rtol=0, atol=1e-6)
