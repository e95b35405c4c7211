"""File writes that replace their target only once the new content is whole."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replacing(*paths):
    """Yield one temporary path beside each target; replace the targets on success.

    Every temporary is written before the first os.replace, so a failure
    while writing any of them leaves all targets as they were. No
    temporary survives the block, whether it succeeds or raises.
    """
    temps = [f"{path}.tmp-{os.getpid()}" for path in paths]
    try:
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
