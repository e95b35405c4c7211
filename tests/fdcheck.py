"""Shared finite-difference oracle for gradient tests.

Central differences with a small h, evaluated in float64, are the
reference every backward rule is judged against.
"""

from __future__ import annotations

import numpy as np

from jaeger.numerics import Tape, Tensor


def finite_difference(params, forward, h: float = 1e-5):
    """d(forward())/d(p) per entry, via central differences."""
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = forward().item()
            flat[i] = keep - h
            down = forward().item()
            flat[i] = keep
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(p.data.shape))
    return grads


def assert_grads_match(params, forward, tol: float = 1e-5, h: float = 1e-5):
    """Run the tape and compare every parameter gradient against the oracle."""
    with Tape() as tape:
        loss = forward()
        tape.backward(loss, params)
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference(params, forward, h)
    for p, a, n in zip(params, analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = float((np.abs(a - n) / denom).max())
        assert worst <= tol, f"rel err {worst:.3e} for param of shape {p.data.shape}"


def param(values, rng=None) -> Tensor:
    """Float64 leaf parameter for gradient tests."""
    return Tensor(np.asarray(values, dtype=np.float64))


def random_param(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.normal(size=shape), dtype=np.float64)
