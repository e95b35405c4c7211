"""Shared finite-difference oracle for gradient tests.

Central differences with a small h, evaluated in float64, are the
reference every backward rule is judged against.
"""

from __future__ import annotations

import numpy as np

from jaeger.numerics import Tape, Tensor


def finite_difference(params, forward, h: float = 1e-5, entries=None):
    """d(forward())/d(p) per entry, via central differences.

    entries, one sequence of flat indices per parameter, limits each
    parameter to those entries; the others are left 0.
    """
    grads = []
    for j, p in enumerate(params):
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size) if entries is None else entries[j]:
            keep = flat[i]
            flat[i] = keep + h
            up = forward().item()
            flat[i] = keep - h
            down = forward().item()
            flat[i] = keep
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(p.data.shape))
    return grads


def pick_entries(grad: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """At most n flat indices of a gradient: its largest entry and the rest drawn by rng."""
    flat = np.abs(grad.reshape(-1))
    top = int(flat.argmax())
    rest = rng.permutation(np.delete(np.arange(flat.size), top))[:n - 1]
    return np.sort(np.append(rest, top))


def assert_grads_match(params, forward, tol: float = 1e-5, h: float = 1e-5,
                       per_param: int | None = None):
    """Run the tape and compare every parameter gradient against the oracle.

    per_param checks that many entries of each parameter (pick_entries,
    drawn from a fixed seed) instead of all of them.
    """
    with Tape() as tape:
        loss = forward()
        tape.backward(loss, params)
    analytic = [p.grad.copy() for p in params]
    entries = None
    if per_param is not None:
        rng = np.random.default_rng(0)
        entries = [pick_entries(a, per_param, rng) for a in analytic]
    numeric = finite_difference(params, forward, h, entries)
    for j, (p, a, n) in enumerate(zip(params, analytic, numeric)):
        if entries is not None:
            a, n = a.reshape(-1)[entries[j]], n.reshape(-1)[entries[j]]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = float((np.abs(a - n) / denom).max())
        assert worst <= tol, f"rel err {worst:.3e} for param {j} of shape {p.data.shape}"


def param(values, rng=None) -> Tensor:
    """Float64 leaf parameter for gradient tests."""
    return Tensor(np.asarray(values, dtype=np.float64))


def random_param(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.normal(size=shape), dtype=np.float64)
