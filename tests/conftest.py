"""Shared pytest set-up: a deterministic hypothesis profile, and a loss helper.

Examples are derived from each test's source rather than drawn at
random and no example database is kept, so every run of the suite tries
the same inputs; max_examples bounds the fuzz tests' time.
"""

import numpy as np
from hypothesis import settings

from jaeger.numerics import Tensor, linear, reshape

settings.register_profile("jaeger", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("jaeger")


def project(out: Tensor, w) -> Tensor:
    """The scalar sum(out * w), a loss whose gradient with respect to out is w exactly.

    It is one linear record over out's entries as a vector, so a test
    needs no tape op of its own to turn an op's output into a loss.
    """
    n, dtype = out.data.size, out.data.dtype
    wd = w.data if isinstance(w, Tensor) else np.asarray(w, dtype=dtype)
    return linear(reshape(out, (n,)), Tensor(wd.reshape(-1)), Tensor(np.zeros((), dtype=dtype)))
