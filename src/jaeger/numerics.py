"""Dense tensors with tape-based reverse-mode differentiation.

Values live in numpy arrays, float32 by default and float64 when a
gradient check needs the headroom. Ops execute eagerly; while a Tape is
active, each differentiable op appends a record holding the node ids
involved plus a closure mapping the upstream gradient to per-input
gradients. Records are appended in execution order, so walking them
newest-first is a reverse topological order of the computation DAG and
backward() is a single linear sweep.

Single-threaded by design; nothing here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, IndexOutOfRange, ShapeError
from .rng import Xoshiro256

Array = np.ndarray

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense row-major array, optionally tracked on the active tape.

    Parameters are tensors with requires_grad=True; backward() deposits
    d(loss)/d(param) into their .grad. Tensors produced by ops are plain
    values whose gradients exist only transiently on the tape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_tid")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            arr = np.asarray(data)
            if arr.dtype not in _REAL_DTYPES:
                arr = arr.astype(np.float32)
        else:
            arr = np.asarray(data, dtype=dtype)
        self.data: Array = arr
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._tape: "Tape | None" = None
        self._tid = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


@dataclass(frozen=True)
class TapeRecord:
    op: str
    input_ids: tuple[int, ...]
    output_id: int
    backward_fn: Callable[[Array], Sequence[Array | None]]


_ACTIVE: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _ACTIVE[-1] if _ACTIVE else None


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager around the forward pass, then call
    backward(loss, params). Node ids are assigned per tape, so parameter
    tensors can be reused across tapes; each new tape re-registers them.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []
        self._next_id = 0
        self._output_ids: set[int] = set()
        self._grad_targets: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE.pop()
        return False

    def node_id(self, t: Tensor) -> int:
        if t._tape is not self:
            t._tape = self
            t._tid = self._next_id
            self._next_id += 1
            if t.requires_grad:
                self._grad_targets.append(t)
        return t._tid

    def record(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, backward_fn) -> None:
        ids = tuple(self.node_id(t) for t in inputs)
        out_id = self.node_id(output)
        if out_id in self._output_ids:
            raise ContractError(f"node {out_id} already produced once on this tape")
        self._output_ids.add(out_id)
        self.records.append(TapeRecord(op, ids, out_id, backward_fn))

    def backward(self, loss: Tensor, params: Iterable[Tensor] | None = None) -> None:
        """Accumulate d(loss)/d(p) into p.grad for every tracked parameter.

        Parameters that do not reach the loss get an exact zero gradient.
        Extra tensors passed via params are zero-filled too, even if the
        forward pass never touched them.

        The sweep consumes the tape: each record is dropped once it has
        been swept, so the activations it saved are freed during the sweep
        rather than after it. Records close over tensors that point back
        at the tape, so keeping them would also leave a finished tape for
        the cyclic collector to free.
        """
        if loss.data.ndim != 0:
            raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
        if loss._tape is not self or loss._tid not in self._output_ids:
            raise ContractError("loss was not produced on this tape")
        grads: dict[int, Array] = {loss._tid: np.ones((), dtype=loss.data.dtype)}
        records, self.records = self.records, []
        self._output_ids = set()
        while records:
            rec = records.pop()
            g = grads.pop(rec.output_id, None)
            if g is None:
                continue
            for tid, gin in zip(rec.input_ids, rec.backward_fn(g)):
                if gin is None:
                    continue
                acc = grads.get(tid)
                grads[tid] = gin if acc is None else acc + gin
        targets = list(self._grad_targets)
        if params is not None:
            seen = {id(t) for t in targets}
            targets.extend(p for p in params if id(p) not in seen)
        for p in targets:
            g = grads.get(p._tid) if p._tape is self else None
            p.grad = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=p.data.dtype)


def _check_dtypes(op: str, *ts: Tensor) -> None:
    first = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != first:
            raise ContractError(f"{op}: mixed dtypes {first} and {t.data.dtype}")


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: Array, backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad or t._tape is tape for t in inputs):
        tape.record(op, inputs, out, backward_fn)
    return out


def _sum_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes that broadcasting added to an operand of this shape."""
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _broadcast(op: str, ufunc, a: Array, b: Array) -> Array:
    """ufunc(a, b) with numpy broadcasting; incompatible shapes raise ShapeError."""
    try:
        return ufunc(a, b)
    except ValueError:
        raise ShapeError(f"{op} shapes {a.shape} and {b.shape} are incompatible") from None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """c = a @ b with numpy matmul semantics.

    Supports 1-D x 2-D, 2-D x 1-D, 1-D x 1-D (dot product) and stacks of
    matrices, either with identical leading dimensions or against a
    single matrix, whose gradient is then summed over the stack.
    """
    _check_dtypes("matmul", a, b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError(f"matmul needs at least 1-D operands, got {ad.shape} and {bd.shape}")
    if (ad.ndim == 1 and bd.ndim > 2) or (bd.ndim == 1 and ad.ndim > 2):
        raise ShapeError(f"matmul does not mix vectors with stacks: {ad.shape} and {bd.shape}")
    inner_a = ad.shape[-1]
    inner_b = bd.shape[0] if bd.ndim == 1 else bd.shape[-2]
    if inner_a != inner_b:
        raise ShapeError(f"matmul inner dimensions differ: {ad.shape} and {bd.shape}")
    if ad.ndim > 2 and bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul stack dimensions differ: {ad.shape} and {bd.shape}")
    out = np.matmul(ad, bd)

    def bwd(g: Array):
        if ad.ndim == 1 and bd.ndim == 1:
            return g * bd, g * ad
        if ad.ndim == 1:
            return np.matmul(bd, g), np.outer(ad, g)
        if bd.ndim == 1:
            return np.outer(g, bd), np.matmul(ad.swapaxes(-1, -2), g)
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        return _sum_to(ga, ad.shape), _sum_to(gb, bd.shape)

    return _emit("matmul", (a, b), out, bwd)


def rowwise_matmul(x: Tensor, w: Tensor) -> Tensor:
    """x @ w for (n, F) rows against an (F, h) matrix or an (F,) vector, row by row.

    Each row is multiplied elementwise and summed over F rather than sent
    to BLAS, which picks its kernel and blocking from the row count (one
    row goes through GEMV), so a row's result would depend on how many
    other rows share the call. Only the backward pass uses GEMMs.
    """
    _check_dtypes("rowwise_matmul", x, w)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim not in (1, 2) or wd.shape[0] != xd.shape[1]:
        raise ShapeError(f"rowwise_matmul needs (n, F) rows and an (F, ...) weight, "
                         f"got {xd.shape} and {wd.shape}")
    out = (xd[:, :, None] * wd).sum(axis=1) if wd.ndim == 2 else (xd * wd).sum(axis=1)

    def bwd(g: Array):
        if wd.ndim == 1:
            return np.outer(g, wd), g @ xd
        return g @ wd.T, xd.T @ g

    return _emit("rowwise_matmul", (x, w), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with numpy broadcasting, e.g. a bias over the last axis or a scalar."""
    _check_dtypes("add", a, b)
    ad, bd = a.data, b.data
    out = _broadcast("add", np.add, ad, bd)
    sa, sb = ad.shape, bd.shape

    def bwd(g: Array):
        return _sum_to(g, sa), _sum_to(g, sb)

    return _emit("add", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    _check_dtypes("mul", a, b)
    ad, bd = a.data, b.data
    out = _broadcast("mul", np.multiply, ad, bd)

    def bwd(g: Array):
        return _sum_to(g * bd, ad.shape), _sum_to(g * ad, bd.shape)

    return _emit("mul", (a, b), out, bwd)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a plain Python scalar constant."""
    k = x.data.dtype.type(c)

    def bwd(g: Array):
        return (g * k,)

    return _emit("scale", (x,), x.data * k, bwd)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading dimensions must match."""
    _check_dtypes("concat_last", a, b)
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat_last leading shapes differ: {a.data.shape} and {b.data.shape}")
    d1 = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def bwd(g: Array):
        return g[..., :d1], g[..., d1:]

    return _emit("concat_last", (a, b), out, bwd)


def transpose(x: Tensor, axis1: int = -2, axis2: int = -1) -> Tensor:
    """Swap two axes; by default the last two, a matrix transpose."""
    nd = x.data.ndim
    if not (-nd <= axis1 < nd and -nd <= axis2 < nd) or axis1 % nd == axis2 % nd:
        raise ShapeError(f"cannot swap axes {axis1} and {axis2} of shape {x.data.shape}")

    def bwd(g: Array):
        return (g.swapaxes(axis1, axis2),)

    return _emit("transpose", (x,), x.data.swapaxes(axis1, axis2), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries in row-major order under a new shape; x itself if the shape is its own."""
    shape = tuple(int(d) for d in shape)
    if shape == x.data.shape:
        return x
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"cannot reshape {x.data.shape} to {shape}")

    before = x.data.shape

    def bwd(g: Array):
        return (g.reshape(before),)

    return _emit("reshape", (x,), x.data.reshape(shape), bwd)


def masked_mean_rows(x: Tensor, mask: Array) -> Tensor:
    """Mean of the rows of x selected by a boolean mask, over (..., L, d) stacks.

    The mask has shape (..., L) and every stack entry must select a row.
    """
    m = np.asarray(mask, dtype=bool)
    if x.data.ndim < 2 or m.shape != x.data.shape[:-1]:
        raise ShapeError(f"masked_mean_rows got x {x.data.shape} and mask {m.shape}")
    count = m.sum(axis=-1, keepdims=True)
    if (count == 0).any():
        raise ContractError("masked_mean_rows needs at least one selected row")
    w = m.astype(x.data.dtype) / count.astype(x.data.dtype)

    def bwd(g: Array):
        return (w[..., :, None] * g[..., None, :],)

    return _emit("masked_mean_rows", (x,), np.matmul(w[..., None, :], x.data)[..., 0, :], bwd)


def sum_all(x: Tensor) -> Tensor:
    """Sum every entry into a scalar."""

    shape, dtype = x.data.shape, x.data.dtype

    def bwd(g: Array):
        return (np.full(shape, g, dtype=dtype),)

    return _emit("sum_all", (x,), np.asarray(x.data.sum(), dtype=x.data.dtype), bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the gradient at exactly 0 is 0."""
    pos = x.data > 0

    def bwd(g: Array):
        return (g * pos,)

    return _emit("relu", (x,), np.maximum(x.data, 0), bwd)


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, shifted by the row max for stability.

    -inf entries come out as exactly 0, which is what attention masking
    relies on; each slice must keep at least one finite entry.
    """
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g: Array):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _emit("softmax_last", (x,), y, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale and shift.

    Uses population variance; eps is fixed by callers at 1e-5.
    """
    _check_dtypes("layer_norm", x, gamma, beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm params {gamma.data.shape}/{beta.data.shape} do not match width {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def bwd(g: Array):
        dxhat = g * gamma.data
        gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return gx, _sum_to(g * xhat, gamma.data.shape), _sum_to(g, beta.data.shape)

    return _emit("layer_norm", (x, gamma, beta), out, bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of an embedding table for ids of any shape; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim == 0:
        raise ShapeError("ids must be a sequence, got a scalar")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be a matrix, got shape {table.data.shape}")
    rows = table.data.shape[0]
    bad = (idx < 0) | (idx >= rows)
    if bad.any():
        raise IndexOutOfRange(
            f"id {int(idx[bad][0])} out of range for a table with {rows} rows")

    def bwd(g: Array):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, gt.shape[1]))
        return (gt,)

    return _emit("embedding_lookup", (table,), table.data[idx], bwd)


def _sigmoid(z: Array) -> Array:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(logits: Tensor, targets, weights=None) -> Tensor:
    """Binary cross-entropy over a vector of logits: the mean, or the weighted sum.

    Computed as max(z,0) - z*t + log(1+exp(-|z|)), which never
    exponentiates a positive argument. weights, one per logit, replace
    the mean's 1/n with a weight of their own.
    """
    z = logits.data
    t = np.asarray(targets.data if isinstance(targets, Tensor) else targets,
                   dtype=z.dtype)
    if z.ndim != 1 or t.shape != z.shape:
        raise ShapeError(f"logits {z.shape} and targets {t.shape} must be equal-length vectors")
    w = None if weights is None else np.asarray(weights, dtype=z.dtype)
    if w is not None and w.shape != z.shape:
        raise ShapeError(f"weights {w.shape} do not match logits {z.shape}")
    if z.size == 0:
        raise ContractError("bce_with_logits needs at least one logit")
    n = z.size
    per_logit = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    loss = per_logit.mean() if w is None else (w * per_logit).sum()

    def bwd(g: Array):
        return ((_sigmoid(z) - t) * (g / z.dtype.type(n) if w is None else g * w),)

    return _emit("bce_with_logits", (logits,), np.asarray(loss, dtype=z.dtype), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b for a vector or a stack of row vectors."""
    return add(matmul(x, w), b)


@dataclass(frozen=True)
class SgdConfig:
    """Plain gradient-descent settings; no momentum, no weight decay."""

    learning_rate: float

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")


def sgd_step(params: Sequence[Tensor], grads: Sequence[Array], cfg: SgdConfig) -> Sequence[Tensor]:
    """p <- p - learning_rate * g, in place; returns params for chaining."""
    if len(params) != len(grads):
        raise ShapeError(f"{len(params)} params but {len(grads)} grads")
    for p, g in zip(params, grads):
        g = np.asarray(g, dtype=p.data.dtype)
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} does not match param shape {p.data.shape}")
        p.data = p.data - p.data.dtype.type(cfg.learning_rate) * g
    return params


def xavier_bound(shape: Sequence[int]) -> float:
    """Uniform bound sqrt(6 / (fan_in + fan_out)) for a weight shape."""
    dims = tuple(int(d) for d in shape)
    if not dims:
        raise ContractError("xavier_bound needs at least one dimension")
    fan_in = dims[0]
    fan_out = dims[-1] if len(dims) > 1 else dims[0]
    return math.sqrt(6.0 / (fan_in + fan_out))


def seeded_init(shape: Sequence[int], scheme: str, seed: int, stream: str = "",
                dtype=np.float32) -> Tensor:
    """Deterministic parameter init; (seed, stream) fully determine the values.

    Draws happen in float64 and are then cast, so float32 and float64
    models share the same underlying sample sequence.
    """
    dims = tuple(int(d) for d in shape)
    if any(d < 0 for d in dims):
        raise ShapeError(f"negative dimension in shape {dims}")
    if scheme == "zeros":
        data = np.zeros(dims, dtype=dtype)
    elif scheme == "ones":
        data = np.ones(dims, dtype=dtype)
    elif scheme == "xavier_uniform":
        b = xavier_bound(dims)
        gen = Xoshiro256(seed, stream)
        n = int(np.prod(dims)) if dims else 1
        vals = np.array([gen.uniform(-b, b) for _ in range(n)], dtype=np.float64)
        data = vals.reshape(dims).astype(dtype)
    else:
        raise ContractError(f"unknown init scheme {scheme!r}")
    return Tensor(data, requires_grad=True)


# make(name, shape, scheme) builds the parameter registered as `name`, e.g.
# "q_bidir.blk0.wq": fresh init and checkpoint loading share one build path.
ParamSource = Callable[[str, tuple[int, ...], str], Tensor]


def seeded(seed: int, dtype=np.float32) -> ParamSource:
    """Fresh parameters: seeded_init with each tensor's name as its stream."""
    return lambda name, shape, scheme: seeded_init(shape, scheme, seed, name, dtype=dtype)


def make_params(make: ParamSource, prefix: str,
                layout: dict[str, tuple[tuple[int, ...], str]]) -> SimpleNamespace:
    """A {name: (shape, scheme)} layout built in order, each tensor as f"{prefix}.{name}".

    The tensors come back as attributes under their layout names, so the
    layout is the only place a parameter is declared.
    """
    return SimpleNamespace(**{name: make(f"{prefix}.{name}", shape, scheme)
                              for name, (shape, scheme) in layout.items()})
