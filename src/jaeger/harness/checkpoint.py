"""Binary checkpoint format: one file, sealed by one digest.

Layout, all little-endian:

    magic "JGR1" | version u32
    config length u32, the training config as UTF-8 JSON
    vocabulary length u32, one token per line as UTF-8
    tensor count u32
    per tensor: name length u16, UTF-8 name, rank u8, dims u32 each,
                float32 values in row-major order
    SHA-256 of every byte before it (32 bytes)

The reader checks the magic and the version, then the digest, so a file
edited, cut or extended anywhere after the version does not load. It
then makes one bounds-checked pass over the sections and copies each
tensor's values once. Format 1, which kept the config and the vocabulary
in files beside the tensors, is refused: retrain such a checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from ..atomic import replacing
from ..config import TrainConfig
from ..errors import CheckpointFormatError, CompatibilityError
from ..model import JaegerModel
from ..numerics import ParamSource, ParamSpec
from ..text import Vocabulary

MAGIC = b"JGR1"
VERSION = 2
DIGEST_SIZE = 32


def save_checkpoint(path: str, model: JaegerModel) -> None:
    """Write the model's config, vocabulary and named tensors as one file.

    The file is built as bytes first, and its digest is of those bytes. It
    goes to a temporary and moves into place with one os.replace, so a
    failed save leaves the previous checkpoint whole.
    """
    config = json.dumps(model.cfg.to_dict(), sort_keys=True).encode("utf-8")
    vocab = model.vocab.to_bytes()
    arrays = model.state_arrays()
    parts = [MAGIC, struct.pack("<II", VERSION, len(config)), config,
             struct.pack("<I", len(vocab)), vocab, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f4").tobytes()]
    body = b"".join(parts)
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(body)
        f.write(hashlib.sha256(body).digest())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], TrainConfig, Vocabulary]:
    """Read tensors, config and vocabulary; rejects corrupt files."""
    with open(path, "rb") as f:
        blob = f.read()
    end, pos = len(blob), 0

    def claim(n: int) -> int:
        """Offset of the next n bytes, which the reader moves past; refuses a short file."""
        nonlocal pos
        if pos + n > end:
            raise CheckpointFormatError(f"{path} is truncated at byte {pos}")
        pos += n
        return pos - n

    magic = blob[claim(4):4]
    if magic != MAGIC:
        raise CheckpointFormatError(f"{path} has bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, claim(4))
    if version == 1:
        raise CheckpointFormatError(
            f"{path} is a format-1 checkpoint, which this build does not read; "
            f"retrain it with the current code")
    if version != VERSION:
        raise CheckpointFormatError(f"{path} has unsupported version {version}")
    end -= DIGEST_SIZE
    if end < pos or hashlib.sha256(memoryview(blob)[:end]).digest() != blob[end:]:
        raise CheckpointFormatError(
            f"{path} does not match its SHA-256 digest: it was changed or cut after it was saved")

    def section() -> bytes:
        """The bytes of the next length-prefixed section."""
        (length,) = struct.unpack_from("<I", blob, claim(4))
        start = claim(length)
        return blob[start:pos]

    config = section()
    try:
        raw = json.loads(config.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise CheckpointFormatError(f"{path} holds a config that is not UTF-8 JSON ({e})") from None
    cfg = TrainConfig.from_dict(raw, where=f"config in {path}")
    vocab = Vocabulary.parse(section(), f"in {path}")
    (count,) = struct.unpack_from("<I", blob, claim(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (length,) = struct.unpack_from("<H", blob, claim(2))
        start = claim(length)
        try:
            name = blob[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"{path} has a tensor name that is not valid UTF-8") from None
        if name in arrays:
            raise CheckpointFormatError(f"{path} repeats tensor {name!r}")
        (rank,) = struct.unpack_from("<B", blob, claim(1))
        dims = struct.unpack_from(f"<{rank}I", blob, claim(4 * rank))
        n_values = math.prod(dims)
        # Claimed outside the try: a truncation is a ValueError too, not a bad shape.
        values = np.frombuffer(blob, "<f4", n_values, claim(4 * n_values))
        try:
            arrays[name] = values.reshape(dims).copy()
        except ValueError:
            raise CheckpointFormatError(
                f"{path} tensor {name!r} has an unsupported shape of rank {rank}") from None
    if pos != end:
        raise CheckpointFormatError(f"{path} has {end - pos} trailing bytes")
    return arrays, cfg, vocab


def _checkpoint_source(arrays: dict[str, np.ndarray]) -> ParamSource:
    """Parameters taken from a checkpoint's tensors by name; nothing is drawn. Its one
    request is the whole registry: it refuses the first registered tensor that is
    missing or misshapen, then a tensor the model does not register."""
    def request(specs: list[ParamSpec]) -> list[np.ndarray]:
        for name, shape, _ in specs:
            if name not in arrays:
                raise CompatibilityError(f"checkpoint is missing parameter {name!r}")
            if arrays[name].shape != shape:
                raise CompatibilityError(
                    f"parameter {name!r} has shape {arrays[name].shape}, model expects {shape}")
        extra = sorted(set(arrays) - {name for name, _, _ in specs})
        if extra:
            raise CompatibilityError(f"checkpoint has unexpected parameter {extra[0]!r}")
        return [arrays[name] for name, _, _ in specs]
    return ParamSource(request)


def load_model(path: str) -> JaegerModel:
    """Rebuild a model from a checkpoint; raises CompatibilityError on mismatch."""
    arrays, cfg, vocab = load_checkpoint(path)
    return JaegerModel(cfg, vocab, _checkpoint_source(arrays))
