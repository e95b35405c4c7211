"""Dense tensors with tape-based reverse-mode differentiation.

Values live in numpy arrays, float32 by default and float64 when a
gradient check needs the headroom. Ops execute eagerly; while a Tape is
active, every op appends a record holding the node ids involved plus a
closure mapping the upstream gradient to per-input gradients. Records
are appended in execution order, so walking them newest-first is a
reverse topological order of the computation DAG and backward() is a
single linear sweep.

Single-threaded by design; nothing here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, IndexOutOfRange, ShapeError
from .rng import stream_state, uniform_streams

Array = np.ndarray

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense row-major array, tracked on the active tape once an op uses it.

    Tape.backward(loss, params) deposits d(loss)/d(p) into p.grad for the
    parameters it is given. Tensors produced by ops are plain values whose
    gradients exist only transiently on the tape.
    """

    __slots__ = ("data", "grad", "_tape", "_tid")

    def __init__(self, data, dtype=None):
        if dtype is None:
            arr = np.asarray(data)
            if arr.dtype not in _REAL_DTYPES:
                arr = arr.astype(np.float32)
        else:
            arr = np.asarray(data, dtype=dtype)
        self.data: Array = arr
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
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


@dataclass(frozen=True)
class TapeRecord:
    op: str
    input_ids: tuple[int, ...]
    output_id: int
    backward_fn: Callable[[Array], Sequence[Array]]


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
        return t._tid

    def backward(self, loss: Tensor, params: Iterable[Tensor]) -> None:
        """Set p.grad = d(loss)/d(p) for each tensor in params, and for no other.

        A parameter the loss does not reach, including one the forward pass
        never touched, gets an exact zero gradient.

        The sweep consumes the tape: each record is dropped once it has
        been swept, so the activations it saved are freed during the sweep
        rather than after it. Records close over tensors that point back
        at the tape, so keeping them would also leave a finished tape for
        the cyclic collector to free.
        """
        if loss.data.ndim != 0:
            raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
        if loss._tape is not self or not self.records:
            raise ContractError("loss was not produced on this tape, or the tape was swept")
        grads: dict[int, Array] = {loss._tid: np.ones((), dtype=loss.data.dtype)}
        records, self.records = self.records, []
        while records:
            rec = records.pop()
            g = grads.pop(rec.output_id, None)
            if g is None:
                continue
            for tid, gin in zip(rec.input_ids, rec.backward_fn(g)):
                if gin is None:  # a constant input
                    continue
                acc = grads.get(tid)
                grads[tid] = gin if acc is None else acc + gin
        for p in params:
            g = grads.get(p._tid) if p._tape is self else None
            p.grad = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=p.data.dtype)


def _data(t: Tensor | Array) -> Array:
    """A tensor's values, or a constant input's own array."""
    return t.data if isinstance(t, Tensor) else t


def _check_dtypes(op: str, *ts: Tensor | Array) -> None:
    first = _data(ts[0]).dtype
    for t in ts[1:]:
        if _data(t).dtype != first:
            raise ContractError(f"{op}: mixed dtypes {first} and {_data(t).dtype}")


def _emit(op: str, inputs: tuple[Tensor | Array, ...], out_data: Array, backward_fn) -> Tensor:
    """Wrap an op's output; while a tape is active, record the op on it.

    An input that is a plain array is a constant: it gets no node id (-1),
    and backward_fn returns None in its place instead of computing a gradient.
    """
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        ids = tuple(tape.node_id(t) if isinstance(t, Tensor) else -1 for t in inputs)
        tape.records.append(TapeRecord(op, ids, tape.node_id(out), backward_fn))
    return out


def _sum_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes that broadcasting added to an operand of this shape."""
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with numpy broadcasting, e.g. a bias over the last axis or a scalar."""
    _check_dtypes("add", a, b)
    sa, sb = a.data.shape, b.data.shape
    try:
        out = np.add(a.data, b.data)
    except ValueError:
        raise ShapeError(f"add shapes {sa} and {sb} are incompatible") from None

    def bwd(g: Array):
        return _sum_to(g, sa), _sum_to(g, sb)

    return _emit("add", (a, b), out, bwd)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading dimensions must match."""
    _check_dtypes("concat_last", a, b)
    if not a.data.ndim or a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat_last needs (..., m) and (..., n) operands, got {a.data.shape} "
                         f"and {b.data.shape}")
    d1 = a.data.shape[-1]
    out = np.concatenate([a.data, b.data], axis=-1)

    def bwd(g: Array):
        return g[..., :d1], g[..., d1:]

    return _emit("concat_last", (a, b), out, bwd)


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


def merge_rows(parts: Sequence[Tensor], index) -> Tensor:
    """Stack (n_i, ...) parts and put stacked row j at row index[j]; index is a permutation."""
    if not parts or any(not p.data.ndim or p.data.shape[1:] != parts[0].data.shape[1:]
                        for p in parts):
        raise ShapeError(f"merge_rows needs one or more (n_i, ...) parts with one row shape, "
                         f"got {[p.data.shape for p in parts]}")
    _check_dtypes("merge_rows", *parts)
    stacked = np.concatenate([p.data for p in parts])
    idx = np.asarray(index, dtype=np.int64)
    if not np.array_equal(np.sort(idx), np.arange(len(stacked))):
        raise ShapeError(f"merge_rows index must permute the {len(stacked)} stacked rows")
    out = stacked[np.argsort(idx)]
    cuts = np.cumsum([len(p.data) for p in parts])[:-1]

    def bwd(g: Array):
        return np.split(g[idx], cuts)

    return _emit("merge_rows", tuple(parts), out, bwd)


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


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of an embedding table for ids of any shape; backward scatter-adds."""
    idx = np.asarray(ids)
    if idx.ndim == 0 or idx.size and idx.dtype.kind not in "iu":
        raise ShapeError(f"embedding_lookup needs a sequence of integer ids, got {idx.dtype} "
                         f"of shape {idx.shape}")
    idx = idx.astype(np.int64, copy=False)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be a matrix, got shape {table.data.shape}")
    rows = table.data.shape[0]
    bad = (idx < 0) | (idx >= rows)
    if bad.any():
        raise IndexOutOfRange(
            f"id {int(idx[bad][0])} out of range for a table with {rows} rows")

    def bwd(g: Array):
        # A 1-D np.add.at into the flat table adds each entry's contributions
        # in the order a 2-D one on the table does, so the bits match, at
        # about a quarter of its cost.
        d = table.data.shape[1]
        gt = np.zeros(rows * d, dtype=table.data.dtype)
        np.add.at(gt, (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1), g.reshape(-1))
        return (gt.reshape(rows, d),)

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


def _check_affine(op: str, x_shape: tuple[int, ...], wd: Array, bd: Array) -> None:
    if not x_shape or wd.ndim not in (1, 2) or x_shape[-1] != wd.shape[0] \
            or bd.shape != wd.shape[1:]:
        raise ShapeError(f"{op} needs (..., d) rows, a (d, k) weight and a (k,) bias "
                         f"or a (d,) weight and a () bias, got {x_shape}, {wd.shape} "
                         f"and {bd.shape}")


def _affine(xd: Array, wd: Array, bd: Array) -> Array:
    """x @ w + b, the affine rule of linear, feed_forward and self_attention.

    A matrix x goes through as a stack of (1, d) rows: BLAS picks its kernel
    from the row count (a single row takes GEMV), so a whole-matrix product
    would round a row differently depending on how many rows share the call.
    """
    out = np.matmul(xd[:, None, :], wd)[:, 0] if xd.ndim == 2 else np.matmul(xd, wd)
    out += bd
    return out


def _sum_rows(a: Array) -> Array:
    """The (k,) sum of a (..., k) gradient over its leading axes, as ones(R) @ a.

    Backward sums are ones-vector products: BLAS takes one call where numpy
    reduces a short row at a time or adds rows one by one. A product's
    rounding depends on how many rows share the call, so forward passes
    keep numpy's reductions.
    """
    a2 = a.reshape(-1, a.shape[-1])
    return np.ones(len(a2), dtype=a.dtype) @ a2


def _sum_last(a: Array) -> Array:
    """a.sum(axis=-1, keepdims=True) for a gradient, as a @ ones(k); see _sum_rows."""
    k = a.shape[-1]
    return (a.reshape(-1, k) @ np.ones(k, dtype=a.dtype)).reshape(*a.shape[:-1], 1)


def _affine_grads(g: Array, xd: Array, wd: Array, need_x: bool = True):
    """_affine's x (None unless need_x), w and b gradients, each one product over all
    rows: the leading axes flatten into rows."""
    w2 = wd.reshape(len(wd), -1)  # a (d,) weight as a (d, 1) matrix
    g2 = g.reshape(-1, w2.shape[1])
    gx = (g2 @ w2.T).reshape(xd.shape) if need_x else None
    return (gx, (xd.reshape(-1, len(wd)).T @ g2).reshape(wd.shape),
            _sum_rows(g2).reshape(wd.shape[1:]))


def linear(x: Tensor | Array, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b as one tape record, over (..., d) rows with a (d, k)
    weight and a (k,) bias or a (d,) weight and a () bias. x may be a constant.
    """
    _check_dtypes("linear", x, w, b)
    xd, wd = _data(x), w.data
    _check_affine("linear", xd.shape, wd, b.data)

    def bwd(g: Array):
        return _affine_grads(g, xd, wd, isinstance(x, Tensor))

    return _emit("linear", (x, w, b), _affine(xd, wd, b.data), bwd)


def feed_forward(x: Tensor | Array, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one tape record, with a (d, f) w1 and a (f, k)
    or (f,) w2 as in linear. x may be a constant. relu's gradient at 0 is 0.
    """
    _check_dtypes("feed_forward", x, w1, b1, w2, b2)
    xd = _data(x)
    if w1.data.ndim != 2:
        raise ShapeError(f"feed_forward needs a (d, f) first weight, got {w1.data.shape}")
    _check_affine("feed_forward", xd.shape, w1.data, b1.data)
    _check_affine("feed_forward", xd.shape[:-1] + w1.data.shape[1:], w2.data, b2.data)
    h = _affine(xd, w1.data, b1.data)
    np.maximum(h, 0, out=h)

    def bwd(g: Array):
        gh, gw2, gb2 = _affine_grads(g, h, w2.data)
        gh *= h > 0
        return (*_affine_grads(gh, xd, w1.data, isinstance(x, Tensor)), gw2, gb2)

    return _emit("feed_forward", (x, w1, b1, w2, b2), _affine(h, w2.data, b2.data), bwd)


def _mean_last(a: Array) -> Array:
    """a.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's Python wrapper."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def residual_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor,
                  eps: float = 1e-5) -> Tensor:
    """Layer norm of x + y as one tape record: the last axis goes to zero mean and
    unit population variance, then is scaled by gamma and shifted by beta.
    x and y get the same gradient array, which nothing writes into.
    """
    _check_dtypes("residual_norm", x, y, gamma, beta)
    d = x.data.shape[-1] if x.data.ndim else 0  # a 0-d x, like a 0-wide one, is refused
    if not d or y.data.shape != x.data.shape or gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"residual_norm needs equal (..., d) x and y with d >= 1 and (d,) "
                         f"gamma and beta, got {x.data.shape}, {y.data.shape}, "
                         f"{gamma.data.shape} and {beta.data.shape}")
    xhat = x.data + y.data
    xhat -= _mean_last(xhat)
    inv = 1.0 / np.sqrt(_mean_last(xhat * xhat) + x.data.dtype.type(eps))
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def bwd(g: Array):
        dxhat = g * gamma.data
        t = dxhat * xhat
        m1, m2 = _sum_last(dxhat), _sum_last(t)
        m1 /= d
        m2 /= d
        dxhat -= m1
        dxhat -= np.multiply(xhat, m2, out=t)
        dxhat *= inv
        return dxhat, dxhat, _sum_rows(g * xhat), _sum_rows(g)

    return _emit("residual_norm", (x, y, gamma, beta), out, bwd)


def softmax_in_place(s: Array) -> Array:
    """Softmax over the last axis, shifted by the row max for stability, written into s.

    -inf entries come out as exactly 0, which is what attention masking
    relies on; each slice must keep at least one finite entry.
    """
    # One reduce over a key-major copy, not numpy's per-row reduce; a max is
    # exact in any order, so the bits match s.max(axis=-1).
    s -= np.maximum.reduce(s.transpose(-1, *range(s.ndim - 1)).copy(), axis=0)[..., None]
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def self_attention(xq: Tensor, xkv: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor,
                   bv: Tensor, wo: Tensor, bo: Tensor, bias: Array, n_heads: int) -> Tensor:
    """Multi-head attention of the query rows xq over the key/value rows xkv, with
    its output projection, as one record; a full block passes one tensor as both.

    xkv is (..., L, d) with L >= 1, and xq (..., Lq, d), or (..., d) for one query
    per sequence, which is also the output's shape. q is one product of xq, and k and
    v one (d, 2d) product of xkv, the weights concatenated on each call. Per head of
    width d_head the weights are softmax(q·kᵀ / √d_head + bias), 0 for a visible key
    and -inf for a masked one, broadcast against the (..., n_heads, Lq, L) scores.

    Keys carry no bias: one would add the same q·b_k to every score in a
    query's row, which the softmax cancels. The k half of the concatenated
    bias is zeros.
    """
    params = (wq, bq, wk, wv, bv, wo, bo)
    _check_dtypes("self_attention", xq, xkv, *params)
    shape, kv_shape = xq.data.shape, xkv.data.shape
    lead, d = kv_shape[:-2], kv_shape[-1] if kv_shape else 0
    if len(kv_shape) < 2 or not kv_shape[-2] or not 1 <= n_heads <= d or d % n_heads or \
            len(shape) - len(lead) not in (1, 2) or shape[:len(lead)] + shape[-1:] != (*lead, d) \
            or [p.data.shape for p in params] != [(d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]:
        raise ShapeError(f"self_attention needs (..., [Lq,] d) and (..., L >= 1, d) rows, d "
                         f"divisible by {n_heads} >= 1 heads, (d, d) weights and (d,) biases, "
                         f"got {shape}, {kv_shape} and {[p.data.shape for p in params]}")
    wkv = np.concatenate([wk.data, wv.data], axis=1)
    q = _affine(xq.data, wq.data, bq.data)
    kv = _affine(xkv.data, wkv, np.concatenate([np.zeros(d, dtype=bv.data.dtype), bv.data]))
    lq, dh = math.prod(shape[len(lead):-1]), d // n_heads  # lq is 1 for (..., d) queries

    def heads(a: Array, rows: int, n: int) -> list[Array]:  # to n (..., n_heads, rows, dh)
        return [a.reshape(*lead, rows, n, n_heads, dh)[..., i, :, :].swapaxes(-3, -2)
                for i in range(n)]

    (qh,), (kh, vh) = heads(q, lq, 1), heads(kv, kv_shape[-2], 2)
    c = xq.data.dtype.type(1.0 / math.sqrt(dh))
    y = np.matmul(qh, kh.swapaxes(-2, -1))
    y *= c
    try:
        y += bias
    except ValueError:
        raise ShapeError(f"attention bias {np.shape(bias)} does not fit scores {y.shape}") from None
    softmax_in_place(y)
    ctx = np.matmul(y, vh).swapaxes(-3, -2).reshape(shape)

    def bwd(g: Array):
        gctx, gwo, gbo = _affine_grads(g, ctx, wo.data)
        (gh,) = heads(gctx, lq, 1)
        gq, gkv = np.empty_like(q), np.empty_like(kv)
        (gqh,), (gk, gv) = heads(gq, lq, 1), heads(gkv, kv_shape[-2], 2)
        gv[...] = np.matmul(y.swapaxes(-1, -2), gh)
        gs = np.matmul(gh, vh.swapaxes(-1, -2))
        gs -= _sum_last(gs * y)
        gs *= y
        gs *= c
        gk[...] = np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(-2, -1)
        gqh[...] = np.matmul(gs, kh)
        gxq, gwq, gbq = _affine_grads(gq, xq.data, wq.data)
        gxkv, gw, gb = _affine_grads(gkv, xkv.data, wkv)
        return gxq, gxkv, gwq, gbq, gw[:, :d], gw[:, d:], gb[d:], gwo, gbo

    return _emit("self_attention", (xq, xkv, *params), _affine(ctx, wo.data, bo.data), bwd)


def sgd_step(params: Sequence[Tensor], learning_rate: float) -> None:
    """p <- p - learning_rate * p.grad for each parameter, in place; no momentum or decay."""
    for p in params:
        p.data = p.data - p.data.dtype.type(learning_rate) * p.grad


def xavier_bound(shape: Sequence[int]) -> float:
    """Uniform bound sqrt(6 / (fan_in + fan_out)) for a weight shape."""
    dims = tuple(int(d) for d in shape)
    if not dims:
        raise ContractError("xavier_bound needs at least one dimension")
    fan_in = dims[0]
    fan_out = dims[-1] if len(dims) > 1 else dims[0]
    return math.sqrt(6.0 / (fan_in + fan_out))


# (name, shape, scheme) of one parameter, e.g. ("q_bidir.blk0.wq", (32, 32), "xavier_uniform").
ParamSpec = tuple[str, tuple[int, ...], str]
# make(name, shape, scheme) builds the parameter registered as `name`:
# JaegerModel's registrar, or a ParamSource called with one spec.
MakeParam = Callable[[str, tuple[int, ...], str], Tensor]


class ParamSource:
    """Where parameters come from: request(specs) answers a list of specs with one
    array per spec, in order.

    JaegerModel registers every tensor first and then sends its whole registry
    as one request, so fresh init and checkpoint loading share one build path.
    Called as make(name, shape, scheme), a source answers a request of one with a
    Tensor; that is how a tensor or a make_params layout is built outside a model.
    """

    def __init__(self, request: Callable[[list[ParamSpec]], list[Array]]):
        self.request = request

    def __call__(self, name: str, shape: tuple[int, ...], scheme: str) -> Tensor:
        return Tensor(self.request([(name, shape, scheme)])[0])


def seeded(seed: int, dtype=np.float32) -> ParamSource:
    """Fresh parameters: each xavier_uniform tensor takes its draws from
    stream_state(seed, name), and one uniform_streams call draws every stream
    of a request; zeros and ones tensors draw nothing.

    Draws happen in float64 and are then cast, so float32 and float64 models
    share the same underlying sample sequence.
    """
    def request(specs: list[ParamSpec]) -> list[Array]:
        shapes = [tuple(int(d) for d in shape) for _, shape, _ in specs]
        drawn = []
        for (name, _, scheme), dims in zip(specs, shapes):
            if any(d < 0 for d in dims):
                raise ShapeError(f"negative dimension in shape {dims}")
            if scheme == "xavier_uniform":
                b = xavier_bound(dims)
                drawn.append((stream_state(seed, name), math.prod(dims), -b, b))
            elif scheme not in ("zeros", "ones"):
                raise ContractError(f"unknown init scheme {scheme!r}")
        values = iter(uniform_streams(drawn))
        return [np.zeros(dims, dtype) if scheme == "zeros" else
                np.ones(dims, dtype) if scheme == "ones" else
                next(values).reshape(dims).astype(dtype)
                for (_, _, scheme), dims in zip(specs, shapes)]
    return ParamSource(request)


def make_params(make: MakeParam, prefix: str,
                layout: dict[str, tuple[tuple[int, ...], str]]) -> SimpleNamespace:
    """A {name: (shape, scheme)} layout built in order, each tensor as f"{prefix}.{name}".

    The tensors come back as attributes under their layout names, so the
    layout is the only place a parameter is declared. JaegerModel's make
    registers each tensor unfilled and fills them all from one request
    afterwards; a ParamSource as make answers one request per tensor.
    """
    return SimpleNamespace(**{name: make(f"{prefix}.{name}", shape, scheme)
                              for name, (shape, scheme) in layout.items()})
