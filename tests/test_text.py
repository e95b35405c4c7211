"""Tokenizer, vocabulary construction, and sequence encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jaeger.errors import ContractError, IndexOutOfRange
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
        vocab.save(path)
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
