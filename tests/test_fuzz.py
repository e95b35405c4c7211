"""Corrupt corpus and checkpoint files, and content element lengths, driven by hypothesis.

A flipped, dropped or inserted byte, or any JSON value in place of a
record or of the sidecar's config, must end in a JaegerError (which the
CLI prints as `error:` with exit 1) or in a file that still parses; any
other exception would reach the user as a traceback. Content elements of
any mix of lengths must each encode as they would alone. Every op that
numerics records, at any shape, returns the shape its docstring gives or
raises a JaegerError.
"""

import inspect
import json
import math
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jaeger import numerics
from jaeger.config import TrainConfig
from jaeger.data import GenConfig, generate_corpus, read_jsonl, write_jsonl
from jaeger.encoders import EncoderConfig, encode_content, init_content
from jaeger.errors import JaegerError
from jaeger.harness.checkpoint import config_path, load_model, save_checkpoint, vocab_path
from jaeger.harness.train import corpus_texts
from jaeger.model import JaegerModel
from jaeger.numerics import (Tensor, add, bce_with_logits, concat_last, embedding_lookup,
                             feed_forward, linear, masked_mean_rows, merge_rows, reshape,
                             residual_norm, seeded, self_attention)
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
def three_doc_corpus(tmp_path_factory):
    """A three-document corpus: asking for the last id skips or parses the lines before it."""
    docs = generate_corpus(5, 3, GenConfig(n_pages=1, elements_per_page=(3, 4)),
                           questions_per_doc=1)
    path = tmp_path_factory.mktemp("corpus3") / "corpus.jsonl"
    write_jsonl(docs, str(path))
    return path, [doc.doc_id for doc in docs]


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


@given(mutation=MUTATIONS)
def test_corrupt_line_before_the_asked_document_raises_only_jaeger_errors(three_doc_corpus,
                                                                          mutation):
    """Looking up the first or the last id of a corrupted corpus raises only JaegerErrors,
    and agrees with a full read whenever the whole file still parses."""
    path, ids = three_doc_corpus
    bad = path.with_name("bad.jsonl")
    bad.write_bytes(mutate(path.read_bytes(), mutation))
    try:
        everything = read_jsonl(str(bad))
    except JaegerError:
        everything = None
    for doc_id in (ids[0], ids[-1]):
        try:
            got = read_jsonl(str(bad), doc_id)
        except JaegerError:
            assert everything is None
            continue
        if everything is not None:
            assert got == [doc for doc in everything if doc.doc_id == doc_id][:1]


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


# Every op numerics records, on inputs of ranks 0-4 with sizes 0-5: each drawer
# builds the op's documented valid layout, as often as not replaces one argument's
# shape by any shape, and returns the call with the output shape the op's
# docstring gives for those inputs, or None where the docstring rules them out.
DIM = st.integers(0, 5)
SHAPES = st.lists(DIM, max_size=4).map(tuple)


def values(shape, dtype) -> np.ndarray:
    return np.random.default_rng(len(shape)).normal(size=shape).astype(dtype)


def tensor(shape, dtype) -> Tensor:
    return Tensor(values(shape, dtype))


def with_one_changed(draw, shapes: list) -> list:
    """The shapes, as often as not all kept, else one of them replaced by any shape."""
    i = draw(st.integers(-len(shapes) - 1, len(shapes) - 1))
    return [draw(SHAPES) if j == i else tuple(s) for j, s in enumerate(shapes)]


def broadcast(*shapes):
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        return None


def affine_out(x, w, b):
    """linear's output shape for x, w and b of these shapes, or None."""
    ok = x and len(w) in (1, 2) and x[-1] == w[0] and b == w[1:]
    return (*x[:-1], *w[1:]) if ok else None


def draw_add(draw, dtype):
    """Each operand drops some leading axes of a shape and sets some sizes to 1."""
    out = draw(SHAPES)
    sa, sb = with_one_changed(draw, [
        tuple(draw(st.sampled_from([n, 1])) for n in out[draw(st.integers(0, len(out))):])
        for _ in range(2)])
    return lambda: add(tensor(sa, dtype), tensor(sb, dtype)), broadcast(sa, sb)


def draw_concat_last(draw, dtype):
    lead = draw(st.lists(DIM, max_size=3))
    sa, sb = with_one_changed(draw, [(*lead, draw(DIM)), (*lead, draw(DIM))])
    ok = sa and len(sa) == len(sb) and sa[:-1] == sb[:-1]
    return (lambda: concat_last(tensor(sa, dtype), tensor(sb, dtype)),
            (*sa[:-1], sa[-1] + sb[-1]) if ok else None)


def draw_reshape(draw, dtype):
    s = draw(SHAPES)
    target = draw(st.one_of(st.permutations(s).map(tuple), SHAPES))
    return (lambda: reshape(tensor(s, dtype), target),
            target if math.prod(target) == math.prod(s) else None)


def draw_merge_rows(draw, dtype):
    tail = draw(st.lists(DIM, max_size=3))
    shapes = with_one_changed(draw, [(n, *tail) for n in draw(st.lists(DIM, max_size=3))])
    total = sum(s[0] for s in shapes if s)
    index = draw(st.one_of(st.permutations(range(total)),
                           st.lists(st.integers(-1, total), max_size=total + 1)))
    ok = shapes and all(s and s[1:] == shapes[0][1:] for s in shapes) and \
        sorted(index) == list(range(total))
    return (lambda: merge_rows([tensor(s, dtype) for s in shapes], index),
            (total, *shapes[0][1:]) if ok else None)


def draw_masked_mean_rows(draw, dtype):
    lead = draw(st.lists(DIM, max_size=2))
    length, d = draw(DIM), draw(DIM)
    xs, ms = with_one_changed(draw, [(*lead, length, d), (*lead, length)])
    mask = draw(arrays(bool, ms))
    ok = len(xs) >= 2 and ms == xs[:-1] and mask.any(axis=-1).all()
    return lambda: masked_mean_rows(tensor(xs, dtype), mask), (*xs[:-2], xs[-1]) if ok else None


def draw_embedding_lookup(draw, dtype):
    rows = draw(DIM)
    (table,) = with_one_changed(draw, [(rows, draw(DIM))])
    ids = draw(arrays(np.int64, tuple(draw(st.lists(DIM, max_size=3))),
                      elements=st.integers(-1, rows)))
    ids = ids.astype(dtype) if draw(st.booleans()) else ids
    ok = ids.ndim and (ids.size == 0 or ids.dtype.kind == "i") and len(table) == 2 and \
        ((0 <= ids) & (ids < table[0])).all()
    return lambda: embedding_lookup(tensor(table, dtype), ids), \
        (*ids.shape, table[1]) if ok else None


def draw_bce_with_logits(draw, dtype):
    n = draw(DIM)
    weighted = draw(st.booleans())
    zs, ts, ws = with_one_changed(draw, [(n,), (n,), (n,)])
    ok = len(zs) == 1 and ts == zs and (ws == zs or not weighted) and zs[0] >= 1
    return (lambda: bce_with_logits(tensor(zs, dtype), np.full(ts, 0.5, dtype),
                                    np.ones(ws, dtype) if weighted else None), () if ok else None)


def draw_linear(draw, dtype):
    k = draw(st.one_of(st.just(()), DIM.map(lambda n: (n,))))  # a (d,) weight has a () bias
    d = draw(DIM)
    xs, ws, bs = with_one_changed(draw, [(*draw(st.lists(DIM, max_size=3)), d), (d, *k), k])
    x = tensor(xs, dtype) if draw(st.booleans()) else values(xs, dtype)  # x may be a constant
    return lambda: linear(x, tensor(ws, dtype), tensor(bs, dtype)), affine_out(xs, ws, bs)


def draw_feed_forward(draw, dtype):
    k = draw(st.one_of(st.just(()), DIM.map(lambda n: (n,))))
    d, f = draw(DIM), draw(DIM)
    shapes = with_one_changed(draw, [(*draw(st.lists(DIM, max_size=3)), d), (d, f), (f,), (f, *k),
                                     k])
    xs, w1, b1, w2, b2 = shapes
    hidden = affine_out(xs, w1, b1) if len(w1) == 2 else None
    return (lambda: feed_forward(*(tensor(s, dtype) for s in shapes)),
            hidden and affine_out(hidden, w2, b2))


def draw_residual_norm(draw, dtype):
    d = draw(DIM)
    shapes = with_one_changed(draw, [(*draw(st.lists(DIM, max_size=3)), d)] * 2 + [(d,)] * 2)
    xs, ys, gs, bs = shapes
    ok = xs and xs[-1] and ys == xs and gs == bs == (xs[-1],)
    return lambda: residual_norm(*(tensor(s, dtype) for s in shapes)), xs if ok else None


def draw_self_attention(draw, dtype):
    lead = tuple(draw(st.lists(DIM, max_size=2)))
    n_heads = draw(st.integers(-1, 3))
    d = n_heads * draw(DIM) if n_heads > 0 else draw(DIM)
    rows = draw(st.one_of(st.just(()), DIM.map(lambda n: (n,))))  # (..., d) or (..., Lq, d)
    length = draw(DIM)
    weights = [(d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]
    bias = draw(st.sampled_from([(*lead, 1, 1, length), (1, length), ()]))
    shapes = with_one_changed(draw, [(*lead, *rows, d), (*lead, length, d), *weights, bias])
    qs, kvs, *ws, bias = shapes
    kv_lead = kvs[:-2]
    ok = len(kvs) >= 2 and kvs[-2] >= 1 and 1 <= n_heads <= kvs[-1] and kvs[-1] % n_heads == 0 \
        and qs[:len(kv_lead)] == kv_lead and len(qs) - len(kv_lead) in (1, 2) \
        and qs[-1] == kvs[-1] and ws == [(kvs[-1], kvs[-1])[:len(w)] for w in weights]
    scores = (*kv_lead, n_heads, math.prod(qs[len(kv_lead):-1]), kvs[-2]) if ok else None
    return (lambda: self_attention(*(tensor(s, dtype) for s in shapes[:-1]),
                                   values(bias, dtype), n_heads),
            qs if ok and broadcast(scores, bias) == scores else None)


OPS = {name[len("draw_"):]: fn for name, fn in globals().items() if name.startswith("draw_")}


def test_the_op_property_covers_every_op_numerics_records():
    assert set(OPS) == set(re.findall(r'_emit\("(\w+)"', inspect.getsource(numerics)))


@pytest.mark.parametrize("op", sorted(OPS))
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_each_op_returns_its_documented_shape_or_raises_a_jaeger_error(op, data, dtype):
    """Valid inputs give the documented shape in the inputs' dtype, with no numpy
    warning; any other input raises a JaegerError and nothing else."""
    call, want = OPS[op](data.draw, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except JaegerError as err:
            assert want is None, f"{op} refused inputs it documents, expecting {want}: {err}"
            return
    assert want is not None, f"{op} returned {out.shape} for inputs it does not document"
    assert out.shape == tuple(want) and out.dtype == dtype
