"""Binary checkpoint format.

Layout, all little-endian:

    magic "JGR1" | version u32 | tensor count u32
    per tensor: name length u16, UTF-8 name, rank u8, dims u32 each,
                float32 values in row-major order

The training config rides in a JSON sidecar at <path>.json and the
vocabulary at <path>.vocab, one token per line; the tensor file alone
does not identify the tokens it was trained with. The sidecar also holds
the SHA-256 of the tensor file and of the vocabulary file ("sha256":
{"tensors", "vocab"}), taken from the bytes written, so a sidecar or
vocabulary from another run does not load. A sidecar that lacks either
digest does not load either, nor one whose "format_version" is not the
int VERSION. The reader makes one bounds-checked pass
over the tensor file's bytes and copies each tensor's values once.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from ..atomic import replacing
from ..config import TrainConfig
from ..errors import CheckpointFormatError, CompatibilityError, SchemaError
from ..model import JaegerModel
from ..numerics import ParamSource, ParamSpec
from ..text import Vocabulary

MAGIC = b"JGR1"
VERSION = 1


def config_path(path: str) -> str:
    return path + ".json"


def vocab_path(path: str) -> str:
    return path + ".vocab"


def save_checkpoint(path: str, model: JaegerModel) -> None:
    """Write the model's named tensors, config sidecar and vocabulary.

    All three files are built as bytes first, so both digests are of the
    bytes written. They go to temporaries and only then move into place,
    so a failed save leaves the previous checkpoint whole.
    """
    tensors = _tensor_bytes(model.state_arrays())
    vocab = model.vocab.to_bytes()
    sidecar = {"format_version": VERSION, "config": model.cfg.to_dict(),
               "sha256": {"tensors": _sha256(tensors), "vocab": _sha256(vocab)}}
    config = (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")
    with replacing(path, config_path(path), vocab_path(path)) as temps:
        for tmp, data in zip(temps, (tensors, config, vocab)):
            with open(tmp, "wb") as f:
                f.write(data)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tensor_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f4").tobytes()]
    return b"".join(parts)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], TrainConfig, Vocabulary]:
    """Read tensors, config and vocabulary; rejects corrupt files."""
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def claim(n: int) -> int:
        """Offset of the next n bytes, which the reader moves past; refuses a short file."""
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointFormatError(f"{path} is truncated at byte {pos}")
        pos += n
        return pos - n

    magic = blob[claim(4):4]
    if magic != MAGIC:
        raise CheckpointFormatError(f"{path} has bad magic {magic!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<II", blob, claim(8))
    if version != VERSION:
        raise CheckpointFormatError(f"{path} has unsupported version {version}")
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
    if pos != len(blob):
        raise CheckpointFormatError(f"{path} has {len(blob) - pos} trailing bytes")

    with open(config_path(path), encoding="utf-8") as f:
        try:
            sidecar = json.load(f)
        except ValueError as e:
            raise CheckpointFormatError(f"{config_path(path)} is not valid JSON ({e})") from None
    if not isinstance(sidecar, dict) or "config" not in sidecar:
        raise SchemaError(f"{config_path(path)} is missing the config object")
    version = sidecar.get("format_version")
    if type(version) is not int or version != VERSION:  # true and 1.0 equal 1 in Python
        raise CheckpointFormatError(
            f"{config_path(path)} has format_version {version!r}, this build reads {VERSION}")
    cfg = TrainConfig.from_dict(sidecar["config"], where=f"config in {config_path(path)}")
    with open(vocab_path(path), "rb") as f:
        vocab_blob = f.read()
    digests = sidecar.get("sha256")
    for key, file, data in (("tensors", path, blob), ("vocab", vocab_path(path), vocab_blob)):
        if not isinstance(digests, dict) or key not in digests:
            raise CheckpointFormatError(
                f"{config_path(path)} has no sha256 digest for {key!r}")
        if digests[key] != _sha256(data):
            raise CheckpointFormatError(
                f"{file} does not match the digest in {config_path(path)}: "
                f"it was not saved with this checkpoint")
    vocab = Vocabulary.parse(vocab_blob, vocab_path(path))
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
