"""Shared pytest set-up: a deterministic hypothesis profile.

Examples are derived from each test's source rather than drawn at
random and no example database is kept, so every run of the suite tries
the same inputs; max_examples bounds the fuzz tests' time.
"""

from hypothesis import settings

settings.register_profile("jaeger", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("jaeger")
