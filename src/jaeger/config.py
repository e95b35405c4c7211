"""Training configuration, shared by the model assembly and the harness."""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields

from .errors import ContractError, SchemaError, parse_json

VARIANTS = ("dual", "bidir_only", "causal_only")


def _fits(annotation: str, value) -> bool:
    """Whether a JSON value fits a TrainConfig field annotation; a bool is not a number."""
    if annotation == "int | None" and value is None:
        return True
    if annotation == "tuple[float, ...]":
        return isinstance(value, (list, tuple)) and all(_fits("float", v) for v in value)
    kinds = {"float": (int, float), "int": int, "int | None": int, "str": str}[annotation]
    return not isinstance(value, bool) and isinstance(value, kinds)


@dataclass
class TrainConfig:
    """Everything a run needs: optimizer, widths, data handling.

    The defaults mirror the desk-scale setup. The learning rate of 0.1
    leaves the empty-answer plateau on the README quick start's corpus
    within its 5 epochs; 0.5 diverged within 11 steps on seeds 1-3.
    """

    learning_rate: float = 0.1
    epochs: int = 5
    batch_size: int = 8
    max_steps: int | None = None
    seed: int = 42
    threshold: float = 0.5
    variant: str = "dual"
    min_count: int = 1
    max_question_len: int = 24
    max_content_len: int = 16
    d_bidir: int = 32
    d_causal: int = 48
    d_content: int = 32
    d_visual: int = 16
    d_vis_in: int = 8
    d_reduced: int = 32
    scorer_hidden: int = 32
    n_heads: int = 2
    n_layers: int = 2
    ff_multiplier: int = 2
    split_ratios: tuple[float, ...] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        self.split_ratios = tuple(self.split_ratios)
        # Python's json reads NaN, Infinity and integers too large for a float;
        # a bound on abs() refuses all three.
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ContractError(f"learning_rate must be a positive finite float, "
                                f"got {self.learning_rate}")
        # split_corpus checks the ratios too, but only after the corpus is read,
        # and its error does not name the config's file.
        if not self.split_ratios or \
                not all(0 < r <= sys.float_info.max for r in self.split_ratios):
            raise ContractError(f"split_ratios must be positive finite floats, "
                                f"got {list(self.split_ratios)}")
        if sum(self.split_ratios) > 1.0 + 1e-9:
            raise ContractError(f"split_ratios sum to {sum(self.split_ratios)}, more than 1")
        if self.epochs < 1:
            raise ContractError(f"epochs must be at least 1, got {self.epochs}")
        if not 0 < self.threshold < 1:
            raise ContractError(f"threshold must lie strictly in (0, 1), got {self.threshold}")
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("batch_size", "min_count", "d_bidir", "d_causal", "d_content",
                     "d_visual", "d_vis_in", "d_reduced", "scorer_hidden", "n_heads",
                     "n_layers", "ff_multiplier"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1, got {getattr(self, name)}")
        # Every encoded text holds CLS and SEP, and every encoder splits its
        # width into n_heads equal heads; the encoders and encode_text check
        # these too, but only here does the error name the config's file.
        for name in ("max_question_len", "max_content_len"):
            if getattr(self, name) < 2:
                raise ContractError(f"{name} must be at least 2 to fit CLS and SEP, "
                                    f"got {getattr(self, name)}")
        for name in ("d_bidir", "d_causal", "d_content"):
            if getattr(self, name) % self.n_heads:
                raise ContractError(f"{name} {getattr(self, name)} is not divisible by "
                                    f"n_heads {self.n_heads}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ContractError(f"max_steps must be at least 1, got {self.max_steps}")

    @property
    def question_width(self) -> int:
        """Pre-reduction question feature width for the configured variant."""
        if self.variant == "dual":
            return self.d_bidir + self.d_causal
        if self.variant == "bidir_only":
            return self.d_bidir
        return self.d_causal

    def to_dict(self) -> dict:
        d = asdict(self)
        d["split_ratios"] = list(self.split_ratios)
        return d

    @classmethod
    def from_dict(cls, raw: dict, where: str = "config") -> "TrainConfig":
        """Build from parsed JSON; where names the source in every schema or range error."""
        if not isinstance(raw, dict):
            raise SchemaError(f"{where} must be a JSON object, got {type(raw).__name__}")
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(raw) - set(known)
        if unknown:
            raise SchemaError(f"{where}: unknown config field {sorted(unknown)[0]!r}")
        for name, value in raw.items():
            if name in known and not _fits(known[name], value):
                raise SchemaError(
                    f"{where}: config field {name!r} must be {known[name]}, got {value!r}")
        try:
            return cls(**raw)
        except ContractError as e:
            raise ContractError(f"{where}: {e}") from None

    @classmethod
    def from_json(cls, path: str) -> "TrainConfig":
        with open(path, "rb") as f:
            raw = parse_json(f.read(), lambda e: SchemaError(f"{path} is not valid JSON ({e})"))
        return cls.from_dict(raw, where=path)
