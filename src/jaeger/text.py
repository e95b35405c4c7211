"""Word-level tokenizer, vocabulary and sequence embedding.

Tokenization lowercases, splits on whitespace and breaks punctuation out
as standalone tokens; digits stay attached to their word. The first four
vocabulary ids are fixed: PAD=0, UNK=1, CLS=2, SEP=3.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, IndexOutOfRange, ParseError
from .numerics import Tensor, add, embedding_lookup

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
CLS_TOKEN = "<cls>"
SEP_TOKEN = "<sep>"
RESERVED = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

_TOKEN = re.compile(r"[^\W_]+|\S")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens with punctuation split off.

    A word is a run of alphanumeric characters; every other character that
    is not whitespace is a token of its own.
    """
    return _TOKEN.findall(text.lower())


class Vocabulary:
    """Immutable token-to-id mapping with the reserved ids pinned first.

    One from build_vocab keeps each counted text's tokens for the encoders.
    to_bytes() leaves them out, so one from parse() tokenizes every text.
    """

    def __init__(self, tokens: Sequence[str]):
        all_tokens = list(RESERVED) + list(tokens)
        index: dict[str, int] = {}
        for i, tok in enumerate(all_tokens):
            if tok in index:
                raise ContractError(f"duplicate token {tok!r} in vocabulary")
            index[tok] = i
        self._tokens = tuple(all_tokens)
        self._index = index
        self._counted: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def lookup(self, token: str) -> int:
        """Id of a token, UNK_ID when out of vocabulary."""
        return self._index.get(token, UNK_ID)

    def to_bytes(self) -> bytes:
        """The vocabulary file: one token per line, in id order, as strict UTF-8."""
        return ("\n".join(self._tokens) + "\n").encode("utf-8")

    @classmethod
    def parse(cls, data: bytes, path: str) -> "Vocabulary":
        """A vocabulary from the bytes to_bytes() returns; path names the file in errors."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"vocabulary file {path} is not valid UTF-8 ({e.reason})") from None
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        while lines and lines[-1] == "":
            lines.pop()
        if tuple(lines[:4]) != RESERVED:
            raise ContractError(f"vocabulary file {path} does not start with the reserved tokens")
        return cls(lines[4:])


def build_vocab(corpus: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Vocabulary of all tokens seen at least min_count times.

    Ordered by descending count, then lexicographically, so the id
    assignment is deterministic for a given corpus. Each distinct text is
    tokenized once, and the vocabulary keeps its tokens.
    """
    if min_count < 1:
        raise ContractError(f"min_count must be at least 1, got {min_count}")
    texts = Counter(corpus)
    counted = dict(zip(texts, map(tokenize, texts)))
    counts = Counter(chain.from_iterable(
        counted[text] * n if n > 1 else counted[text] for text, n in texts.items()))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    vocab = Vocabulary(kept)
    vocab._counted = counted
    return vocab


def _unpadded_ids(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """[CLS] ids... [SEP] for one text, truncated so the SEP always fits max_len.

    Both encoders pad the result with PAD to max_len and mask what this returns.
    """
    if max_len < 2:
        raise ContractError(f"max_len must fit CLS and SEP, got {max_len}")
    tokens = vocab._counted[text] if text in vocab._counted else tokenize(text)
    get = vocab._index.get
    return [CLS_ID, *[get(t, UNK_ID) for t in tokens[:max_len - 2]], SEP_ID]


def encode_text(text: str, vocab: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-length id sequence [CLS] tokens... [SEP] PAD... plus its mask.

    Token lists longer than max_len - 2 are truncated so the SEP always
    survives. Only a text the vocabulary never counted is tokenized. Pure:
    identical inputs give identical arrays.
    """
    ids = _unpadded_ids(text, vocab, max_len)
    n = len(ids)
    mask = np.zeros(max_len, dtype=bool)
    mask[:n] = True
    return np.asarray(ids + [PAD_ID] * (max_len - n), dtype=np.int64), mask


def _encode_texts(texts: Sequence[str], vocab: Vocabulary,
                  max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(len(texts), max_len) ids and masks; row i is encode_text(texts[i], vocab, max_len).

    Only the texts the vocabulary never counted are tokenized.
    """
    rows = [_unpadded_ids(text, vocab, max_len) for text in texts]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    mask = np.arange(max_len) < lengths[:, None]
    ids = np.full((len(rows), max_len), PAD_ID, dtype=np.int64)
    ids[mask] = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return ids, mask


def embed_sequence(ids, token_table: Tensor, pos_table: Tensor) -> Tensor:
    """Token embeddings plus learned absolute position embeddings.

    ids has shape (..., L); the result has shape (..., L, d).
    """
    idx = np.asarray(ids, dtype=np.int64)
    length = idx.shape[-1]
    if length > pos_table.data.shape[0]:
        raise IndexOutOfRange(
            f"sequence of {length} exceeds the {pos_table.data.shape[0]} known positions")
    if token_table.data.shape[-1] != pos_table.data.shape[-1]:
        raise ContractError(
            f"token width {token_table.data.shape[-1]} != position width {pos_table.data.shape[-1]}")
    tok = embedding_lookup(token_table, idx)
    pos = embedding_lookup(pos_table, np.arange(length))
    return add(tok, pos)
