"""Binary checkpoint format.

Layout, all little-endian:

    magic "JGR1" | version u32 | tensor count u32
    per tensor: name length u16, UTF-8 name, rank u8, dims u32 each,
                float32 values in row-major order

The training config rides in a JSON sidecar at <path>.json and the
vocabulary at <path>.vocab, one token per line; the tensor file alone
does not identify the tokens it was trained with. The sidecar also holds
the SHA-256 of the tensor file and of the vocabulary file ("sha256":
{"tensors", "vocab"}), so a sidecar or vocabulary from another run does
not load. A sidecar that lacks either digest does not load either.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from ..atomic import replacing
from ..config import TrainConfig
from ..errors import CheckpointFormatError, CompatibilityError, SchemaError
from ..model import JaegerModel
from ..numerics import ParamSource, Tensor
from ..text import Vocabulary

MAGIC = b"JGR1"
VERSION = 1


def config_path(path: str) -> str:
    return path + ".json"


def vocab_path(path: str) -> str:
    return path + ".vocab"


def save_checkpoint(path: str, model: JaegerModel) -> None:
    """Write the model's named tensors, config sidecar and vocabulary.

    All three files are written to temporaries first and only then moved
    into place, so a failed save leaves the previous checkpoint whole.
    """
    blob = _tensor_bytes(model.state_arrays())
    with replacing(path, config_path(path), vocab_path(path)) as (tmp, tmp_config, tmp_vocab):
        with open(tmp, "wb") as f:
            f.write(blob)
        model.vocab.save(tmp_vocab)
        with open(tmp_vocab, "rb") as f:
            digests = {"tensors": _sha256(blob), "vocab": _sha256(f.read())}
        with open(tmp_config, "w", encoding="utf-8") as f:
            json.dump({"format_version": VERSION, "config": model.cfg.to_dict(),
                       "sha256": digests}, f, indent=2, sort_keys=True)
            f.write("\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tensor_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim)]
        parts += [struct.pack("<I", dim) for dim in arr.shape]
        parts.append(np.array(arr, dtype="<f4", order="C").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointFormatError(f"{self.path} is truncated at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], TrainConfig, Vocabulary]:
    """Read tensors, config and vocabulary; rejects corrupt files."""
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob, path)
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointFormatError(f"{path} has bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise CheckpointFormatError(f"{path} has unsupported version {version}")
    count = r.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"{path} has a tensor name that is not valid UTF-8") from None
        if name in arrays:
            raise CheckpointFormatError(f"{path} repeats tensor {name!r}")
        rank = r.u8()
        dims = tuple(r.u32() for _ in range(rank))
        n_values = 1
        for d in dims:
            n_values *= d
        raw = r.take(4 * n_values)
        try:
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        except ValueError:
            raise CheckpointFormatError(
                f"{path} tensor {name!r} has an unsupported shape of rank {rank}") from None
    if r.pos != len(blob):
        raise CheckpointFormatError(f"{path} has {len(blob) - r.pos} trailing bytes")

    with open(config_path(path), encoding="utf-8") as f:
        try:
            sidecar = json.load(f)
        except ValueError as e:
            raise CheckpointFormatError(f"{config_path(path)} is not valid JSON ({e})") from None
    if not isinstance(sidecar, dict) or "config" not in sidecar:
        raise SchemaError(f"{config_path(path)} is missing the config object")
    cfg = TrainConfig.from_dict(sidecar["config"])
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
    """Parameters taken from a checkpoint's tensors by name; nothing is drawn."""
    def make(name: str, shape: tuple[int, ...], scheme: str) -> Tensor:
        if name not in arrays:
            raise CompatibilityError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[name]
        if arr.shape != shape:
            raise CompatibilityError(
                f"parameter {name!r} has shape {arr.shape}, model expects {shape}")
        return Tensor(arr)
    return make


def load_model(path: str) -> JaegerModel:
    """Rebuild a model from a checkpoint; raises CompatibilityError on mismatch."""
    arrays, cfg, vocab = load_checkpoint(path)
    model = JaegerModel(cfg, vocab, _checkpoint_source(arrays))
    extra = sorted(set(arrays) - set(model.named_parameters()))
    if extra:
        raise CompatibilityError(f"checkpoint has unexpected parameter {extra[0]!r}")
    return model
