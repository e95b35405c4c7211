"""File writes that replace their target only once the new content is whole."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replacing(path: str):
    """Yield a temporary path beside path; move it onto path with one os.replace
    on success.

    A failure while writing the temporary, or in the os.replace itself,
    leaves path as it was. The temporary does not survive the block,
    whether it succeeds or raises.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
