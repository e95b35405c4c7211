"""Exception types shared across the package, and the JSON parse that raises them."""

import json


class JaegerError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(JaegerError, ValueError):
    """Operands have incompatible shapes or widths."""


class ContractError(JaegerError, ValueError):
    """A documented precondition was violated."""


class IndexOutOfRange(JaegerError, IndexError):
    """A token id or position fell outside its table."""


class GenerationError(JaegerError, RuntimeError):
    """Synthetic document generation could not satisfy its layout constraints."""


class UnknownElementError(JaegerError, KeyError):
    """A referenced element id does not exist in the document."""


class ParseError(JaegerError, ValueError):
    """A serialized corpus line or vocabulary file is not valid JSON or UTF-8."""


class SchemaError(JaegerError, ValueError):
    """A record or config object does not match the expected fields."""


class CheckpointFormatError(JaegerError, ValueError):
    """A checkpoint file is corrupt or uses an unsupported layout."""


class CompatibilityError(JaegerError, ValueError):
    """Checkpoint tensors do not fit the receiving model."""


class TrainingDiverged(JaegerError, RuntimeError):
    """Training produced a non-finite loss."""


def parse_json(data: bytes | str, fail) -> object:
    """json.loads of text or UTF-8 bytes, raising fail(e) for what it refuses, deep nesting too."""
    try:
        return json.loads(data if isinstance(data, str) else data.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise fail(e) from None
