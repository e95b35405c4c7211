"""Tokenizer, vocabulary construction, and sequence encoding."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jaeger.harness.train
import jaeger.text
from jaeger.config import TrainConfig
from jaeger.data import Document, DocumentElement, GenConfig, QASample, generate_corpus
from jaeger.errors import ContractError, IndexOutOfRange, ShapeError
from jaeger.harness.train import corpus_texts, encode_split, three_way_split, train
from jaeger.model import encode_candidates, encode_sample
from jaeger.numerics import Tensor
from jaeger.text import (CLS_ID, PAD_ID, RESERVED, SEP_ID, UNK_ID, Vocabulary,
                         build_vocab, embed_sequence, encode_text, tokenize)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Alpha Beta") == ["alpha", "beta"]

    def test_punctuation_is_standalone(self):
        assert tokenize("alpha, beta.") == ["alpha", ",", "beta", "."]

    def test_digits_stay_inside_words(self):
        assert tokenize("alpha2 7b") == ["alpha2", "7b"]

    def test_question_mark(self):
        assert tokenize("what is x?") == ["what", "is", "x", "?"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("  \t\n ") == []

    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from("_İßΣ \u00a0\u2028.,?")),
                   max_size=40))
    def test_matches_the_per_character_loop(self, text):
        assert tokenize(text) == loop_tokenize(text)


def loop_tokenize(text: str) -> list[str]:
    """Reference tokenizer: runs of isalnum() characters are words, and every
    other character that is not isspace() is a token of its own."""
    out, cur = [], []
    for ch in text.lower():
        if ch.isalnum():
            cur.append(ch)
            continue
        if cur:
            out.append("".join(cur))
            cur = []
        if not ch.isspace():
            out.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def loop_encode_text(text: str, vocab: Vocabulary, max_len: int):
    """Reference encoder, one text at a time: [CLS] ids[:max_len - 2] [SEP] PAD... and its mask."""
    ids = [CLS_ID] + [vocab.lookup(t) for t in loop_tokenize(text)[:max_len - 2]] + [SEP_ID]
    n = len(ids)
    ids.extend([PAD_ID] * (max_len - n))
    mask = np.zeros(max_len, dtype=bool)
    mask[:n] = True
    return np.asarray(ids, dtype=np.int64), mask


def loop_vocab_tokens(texts, min_count: int = 1) -> tuple[str, ...]:
    """Reference vocabulary: one Counter update per text, then count-descending, token-ascending."""
    counts = Counter()
    for text in texts:
        counts.update(loop_tokenize(text))
    kept = sorted((t for t, c in counts.items() if c >= min_count), key=lambda t: (-counts[t], t))
    return RESERVED + tuple(kept)


class TestVocabulary:
    def test_reserved_tokens_come_first(self):
        vocab = Vocabulary(["alpha"])
        assert vocab.lookup("<pad>") == PAD_ID
        assert vocab.lookup("<unk>") == UNK_ID
        assert vocab.lookup("<cls>") == CLS_ID
        assert vocab.lookup("<sep>") == SEP_ID
        assert vocab.lookup("alpha") == len(RESERVED)

    def test_build_orders_by_count_then_token(self):
        vocab = build_vocab(["b a a", "c b a"])
        assert vocab.lookup("a") == 4
        assert vocab.lookup("b") == 5
        assert vocab.lookup("c") == 6

    def test_min_count_drops_rare_tokens(self):
        vocab = build_vocab(["b a a", "c b a"], min_count=2)
        assert vocab.lookup("a") == 4
        assert vocab.lookup("b") == 5
        assert vocab.lookup("c") == UNK_ID

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(["alpha beta"])
        assert vocab.lookup("gamma") == UNK_ID

    def test_duplicate_token_rejected(self):
        with pytest.raises(ContractError):
            Vocabulary(["alpha", "alpha"])

    def test_reserved_collision_rejected(self):
        with pytest.raises(ContractError):
            Vocabulary(["<pad>"])

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(["the quick brown fox", "the lazy dog"])
        path = tmp_path / "vocab.txt"
        path.write_bytes(vocab.to_bytes())
        loaded = Vocabulary.parse(path.read_bytes(), str(path))
        assert loaded.tokens == vocab.tokens
        assert len(loaded) == len(vocab)


class TestEncodeText:
    def test_short_text_layout(self):
        vocab = build_vocab(["a b"])
        ids, mask = encode_text("a b", vocab, max_len=6)
        a, b = vocab.lookup("a"), vocab.lookup("b")
        assert ids.tolist() == [CLS_ID, a, b, SEP_ID, PAD_ID, PAD_ID]
        assert mask.tolist() == [True, True, True, True, False, False]

    def test_truncation_keeps_sep_last(self):
        vocab = build_vocab(["a b c d e f"])
        ids, mask = encode_text("a b c d e f", vocab, max_len=4)
        assert len(ids) == 4
        assert ids[0] == CLS_ID
        assert ids[3] == SEP_ID
        assert mask.all()

    def test_empty_text(self):
        vocab = build_vocab(["a"])
        ids, mask = encode_text("", vocab, max_len=4)
        assert ids.tolist() == [CLS_ID, SEP_ID, PAD_ID, PAD_ID]
        assert mask.tolist() == [True, True, False, False]

    def test_oov_encodes_as_unk(self):
        vocab = build_vocab(["a"])
        ids, _ = encode_text("z", vocab, max_len=4)
        assert ids[1] == UNK_ID

    def test_max_len_too_small(self):
        vocab = build_vocab(["a"])
        with pytest.raises(ContractError):
            encode_text("a", vocab, max_len=1)

    def test_mask_matches_pad_positions(self):
        vocab = build_vocab(["alpha beta gamma delta"])
        ids, mask = encode_text("alpha beta", vocab, max_len=8)
        for i, tid in enumerate(ids):
            assert mask[i] == (tid != PAD_ID)


class TestEmbedSequence:
    def test_zero_tables_give_zeros(self):
        tok = Tensor(np.zeros((10, 4)))
        pos = Tensor(np.zeros((6, 4)))
        out = embed_sequence([1, 2, 3], tok, pos)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_sum_of_token_and_position(self):
        tok = Tensor(np.arange(8.0).reshape(4, 2))
        pos = Tensor(100.0 * np.arange(6.0).reshape(3, 2))
        out = embed_sequence([3, 0, 3], tok, pos)
        expect = tok.data[[3, 0, 3]] + pos.data[:3]
        np.testing.assert_array_equal(out.data, expect)

    def test_position_distinguishes_repeats(self):
        """The same token id at two positions embeds differently."""
        tok = Tensor(np.ones((4, 2)))
        pos = Tensor(np.arange(6.0).reshape(3, 2))
        out = embed_sequence([2, 2], tok, pos)
        assert not np.array_equal(out.data[0], out.data[1])

    def test_sequence_longer_than_positions(self):
        tok = Tensor(np.zeros((4, 2)))
        pos = Tensor(np.zeros((2, 2)))
        with pytest.raises(IndexOutOfRange):
            embed_sequence([0, 1, 2], tok, pos)


def assert_same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def loop_candidate_arrays(doc, vocab, cfg):
    """content_ids, content_masks, bboxes and visuals of a document, element by element."""
    n = len(doc.elements)
    texts = [loop_encode_text(el.text, vocab, cfg.max_content_len) for el in doc.elements]
    shape = (n, cfg.max_content_len)
    return (np.array([ids for ids, _ in texts], dtype=np.int64).reshape(shape),
            np.array([mask for _, mask in texts], dtype=bool).reshape(shape),
            np.array([el.bbox for el in doc.elements], dtype=np.float64).reshape(n, 4),
            np.array([el.vis for el in doc.elements], dtype=np.float64).reshape(n, cfg.d_vis_in))


def assert_sample_matches_loop(sample, doc, question, vocab, cfg):
    for got, want in zip((sample.candidates.content_ids, sample.candidates.content_masks,
                          sample.candidates.bboxes, sample.candidates.visuals),
                         loop_candidate_arrays(doc, vocab, cfg)):
        assert_same_array(got, want)
    q_ids, q_mask = loop_encode_text(question.question, vocab, cfg.max_question_len)
    assert_same_array(sample.question_ids, q_ids)
    assert_same_array(sample.question_mask, q_mask)
    gold = frozenset(question.answers)
    assert_same_array(sample.targets, np.array([el.id in gold for el in doc.elements],
                                               dtype=np.float64))
    assert (sample.qid, sample.doc_id, sample.gold) == (question.qid, doc.doc_id, gold)
    assert sample.candidate_ids == [el.id for el in doc.elements]


def assert_split_matches_loop(samples, docs, vocab, cfg):
    pairs = [(doc, q) for doc in docs for q in doc.questions]
    assert len(samples) == len(pairs)
    for sample, (doc, q) in zip(samples, pairs):
        assert_sample_matches_loop(sample, doc, q, vocab, cfg)


CFG = TrainConfig(max_question_len=8, max_content_len=6, d_vis_in=3, learning_rate=0.01,
                  epochs=1, batch_size=2, seed=2, d_bidir=8, d_causal=8, d_content=8,
                  d_visual=8, d_reduced=8, scorer_hidden=8, n_heads=2, n_layers=1,
                  split_ratios=(1.0,))


def element(i, text, vis=(0.5, 0.25, 0.125)):
    return DocumentElement(id=i, category="paragraph", page=0,
                           bbox=(0.1, 0.05 * i, 0.9, 0.05 * i + 0.04), text=text,
                           parent=None, vis=list(vis))


def question(qid, text, answers):
    return QASample(qid=qid, qtype="children", target=-1, question=text,
                    answers=frozenset(answers))


# Repeated texts within and across documents, truncation past max_len - 2,
# empty, whitespace-only and punctuation-only texts, a zero-element document,
# a dotted capital I and a final sigma.
EDGE_DOCS = [
    Document("d0", [element(0, "Soil and rain"), element(1, "soil and rain"),
                    element(2, "one two three four five six seven"), element(3, "")],
             [question("q0", "which elements hold soil?", {0, 1}),
              question("q1", "", set())]),
    Document("d1", [element(0, "Soil and rain"), element(1, "   \t"), element(2, "?!.,;"),
                    element(3, "İstanbul ΟΔΟΣ odos")],
             [question("q2", "what is under İstanbul ΟΔΟΣ, and where is the river?", {3})]),
    Document("d2", [], [question("q3", "children of nothing?", set())]),
    Document("d3", [element(7, "hail, rain. soil"), element(4, "one two three four five six")],
             [question("q4", "which elements mention hail?", {7}),
              question("q5", "soil soil soil soil soil soil soil soil soil", {4, 7})]),
]


class TestTextToArraysMatchesTheLoop:
    """The split's one id table and the shared tokenization give the per-text loop's bytes."""

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_build_vocab_matches_a_counter_per_text(self, min_count):
        texts = corpus_texts(EDGE_DOCS) * 2 + ["soil", "İ", "ΟΔΟΣ", ""]
        assert build_vocab(texts, min_count).tokens == loop_vocab_tokens(texts, min_count)

    @given(st.lists(st.text(alphabet=st.sampled_from("ab cİΣς.,?\t"), max_size=12), max_size=12),
           st.integers(1, 3))
    def test_build_vocab_matches_the_loop_on_any_texts(self, texts, min_count):
        assert build_vocab(texts, min_count).tokens == loop_vocab_tokens(texts, min_count)

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_edge_documents(self, min_count):
        # Tokens seen in d0 and d1 only; d3's unseen words and min_count 2 give UNK ids.
        vocab = build_vocab(corpus_texts(EDGE_DOCS[:2]), min_count)
        assert UNK_ID in np.concatenate(
            [s.candidates.content_ids.ravel() for s in encode_split(EDGE_DOCS, vocab, CFG)])
        assert_split_matches_loop(encode_split(EDGE_DOCS, vocab, CFG), EDGE_DOCS, vocab, CFG)

    def test_encode_candidates_and_encode_sample(self):
        vocab = build_vocab(corpus_texts(EDGE_DOCS[1:]), 1)
        for doc in EDGE_DOCS:
            cands = encode_candidates(doc, vocab, CFG)
            for got, want in zip((cands.content_ids, cands.content_masks, cands.bboxes,
                                  cands.visuals), loop_candidate_arrays(doc, vocab, CFG)):
                assert_same_array(got, want)
            for q in doc.questions:
                assert_sample_matches_loop(encode_sample(doc, q, vocab, CFG), doc, q, vocab, CFG)

    @pytest.mark.parametrize("pages", [1, 3])
    def test_generated_split(self, pages):
        docs = generate_corpus(3, 12, GenConfig(n_pages=pages, elements_per_page=(4, 8)),
                               questions_per_doc=3)
        cfg = TrainConfig(max_question_len=24, max_content_len=16, d_vis_in=8)
        vocab = build_vocab(corpus_texts(docs[:8]), 2)
        assert build_vocab(corpus_texts(docs[:8]), 2).tokens == loop_vocab_tokens(
            corpus_texts(docs[:8]), 2)
        assert_split_matches_loop(encode_split(docs, vocab, cfg), docs, vocab, cfg)

    @given(st.lists(st.lists(st.text(alphabet=st.sampled_from("ab cİΣ.?"), max_size=14),
                             max_size=4), min_size=1, max_size=4),
           st.integers(2, 7))
    def test_any_element_texts(self, doc_texts, max_len):
        docs = [Document(f"d{k}", [element(i, t) for i, t in enumerate(texts)],
                         [question(f"q{k}", "a b?", {0})])
                for k, texts in enumerate(doc_texts)]
        cfg = TrainConfig(max_question_len=8, max_content_len=max_len, d_vis_in=3)
        vocab = build_vocab([t for texts in doc_texts[1:] for t in texts])
        assert_split_matches_loop(encode_split(docs, vocab, cfg), docs, vocab, cfg)

    def test_train_shares_one_tokenization_with_the_same_bytes(self, monkeypatch):
        """train() counts its vocabulary and encodes both splits from one tokenization;
        the vocabulary and every sample still match the loop, one encode_sample per question."""
        docs = generate_corpus(4, 10, GenConfig(n_pages=1, elements_per_page=(4, 6)),
                               questions_per_doc=2) + EDGE_DOCS
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=4, seed=5, max_steps=1,
                          max_question_len=16, max_content_len=10, d_vis_in=3,
                          d_bidir=8, d_causal=8, d_content=8, d_visual=8, d_reduced=8,
                          scorer_hidden=8, n_heads=2, n_layers=1, min_count=2,
                          split_ratios=(0.7, 0.3))
        docs = [Document(d.doc_id, [element(el.id, el.text) for el in d.elements], d.questions)
                for d in docs]
        calls = []
        real = jaeger.harness.train.encode_sample

        def spy(doc, q, *args):
            calls.append((doc, q, real(doc, q, *args)))
            return calls[-1][2]

        monkeypatch.setattr(jaeger.harness.train, "encode_sample", spy)
        result = train(cfg, docs)
        train_docs, val_docs, _ = three_way_split(docs, cfg)
        assert result.model.vocab.tokens == loop_vocab_tokens(corpus_texts(train_docs), 2)
        split_questions = [(d, q) for d in train_docs + val_docs for q in d.questions]
        assert [(d, q) for d, q, _ in calls] == split_questions
        for doc, q, sample in calls:
            assert_sample_matches_loop(sample, doc, q, result.model.vocab, cfg)


SPLIT_CFG = TrainConfig(max_question_len=16, max_content_len=10, d_vis_in=3, learning_rate=0.01,
                        epochs=1, batch_size=4, seed=5, max_steps=1, d_bidir=8, d_causal=8,
                        d_content=8, d_visual=8, d_reduced=8, scorer_hidden=8, n_heads=2,
                        n_layers=1, min_count=2, split_ratios=(0.6, 0.2, 0.2))


def split_docs():
    """Generated documents and the EDGE_DOCS a train batch can hold, with visual descriptors
    of SPLIT_CFG's width."""
    docs = generate_corpus(4, 12, GenConfig(n_pages=1, elements_per_page=(4, 6)),
                           questions_per_doc=2) + [d for d in EDGE_DOCS if d.elements]
    return [Document(d.doc_id, [element(el.id, el.text) for el in d.elements], list(d.questions))
            for d in docs]


class TestVocabularyKeepsTheTokensItCounted:
    def test_train_tokenizes_each_text_of_both_splits_once(self, monkeypatch):
        """The vocabulary keeps the tokens of every train text it counted, and each
        validation text it never counted, element or question, is tokenized once for the
        split's id tables, however many questions ask it."""
        docs = split_docs()
        train_docs, val_docs, _ = three_way_split(docs, SPLIT_CFG)
        asked = val_docs[0].questions[0]
        val_docs[0].questions.append(QASample(qid="again", qtype=asked.qtype, target=asked.target,
                                              question=asked.question, answers=asked.answers))
        calls = Counter()
        real = jaeger.text.tokenize

        def spy(text):
            calls[text] += 1
            return real(text)

        monkeypatch.setattr(jaeger.text, "tokenize", spy)
        train(SPLIT_CFG, docs)
        counted = set(corpus_texts(train_docs))
        want = Counter(counted)
        want.update({el.text for d in val_docs for el in d.elements} - counted)
        want.update({q.question for d in val_docs for q in d.questions} - counted)
        assert calls == want
        assert set(calls) == set(corpus_texts(train_docs + val_docs))
        assert asked.question not in counted and calls[asked.question] == 1

    def test_built_and_parsed_vocabularies_encode_identical_arrays(self, tmp_path):
        """A parsed vocabulary keeps no tokens and tokenizes every text; the arrays are the
        built vocabulary's, byte for byte, on every split and on texts it never counted."""
        docs = split_docs()
        built = build_vocab(corpus_texts(three_way_split(docs, SPLIT_CFG)[0]), SPLIT_CFG.min_count)
        assert built.to_bytes() == train(SPLIT_CFG, docs).model.vocab.to_bytes()
        (tmp_path / "v.vocab").write_bytes(built.to_bytes())
        parsed = Vocabulary.parse((tmp_path / "v.vocab").read_bytes(), "v.vocab")
        assert parsed.tokens == built.tokens
        for split in three_way_split(docs, SPLIT_CFG):
            pairs = zip(encode_split(split, built, SPLIT_CFG),
                        encode_split(split, parsed, SPLIT_CFG), strict=True)
            for a, b in pairs:
                for name in ("question_ids", "question_mask", "targets"):
                    assert_same_array(getattr(a, name), getattr(b, name))
                for name in ("content_ids", "content_masks", "bboxes", "visuals"):
                    assert_same_array(getattr(a.candidates, name), getattr(b.candidates, name))
        never = ["never counted, these words", "İSTANBUL ΟΔΟΣ odos?", "\u2028"]
        edge = ["", "   \t", "İstanbul ΟΔΟΣ odos", *corpus_texts(EDGE_DOCS)]
        assert built._counted.keys() >= set(edge[:3]) and not built._counted.keys() & set(never)
        for text in edge + never:
            for max_len in (2, 6, 16):
                for got, want in zip(encode_text(text, built, max_len),
                                     encode_text(text, parsed, max_len)):
                    assert_same_array(got, want)

    def test_a_trained_model_keeps_no_token_lists(self):
        """train() drops the counted tokens once both splits are encoded: the model's
        vocabulary then tokenizes every text, as a parsed one does."""
        docs = split_docs()
        vocab = train(SPLIT_CFG, docs).model.vocab
        assert vocab._counted == {}
        assert build_vocab(corpus_texts(three_way_split(docs, SPLIT_CFG)[0]),
                           SPLIT_CFG.min_count)._counted


def test_visual_width_error_names_the_element_in_a_later_document():
    """The split's visual array is built in one call, after each width is checked:
    a ragged descriptor in the third document is still a ShapeError naming it."""
    docs = [Document(f"d{k}", [element(0, "a"), element(1, "b")], [question(f"q{k}", "a?", {0})])
            for k in range(4)]
    docs[2].elements[1].vis = [0.0] * 9
    with pytest.raises(ShapeError, match=r"^element 1 of d2 has a visual descriptor of width 9, "
                                         r"the model expects 3$"):
        encode_split(docs, build_vocab(["a b"]), CFG)
