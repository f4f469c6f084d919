"""Atomic file replacement for the outputs a crash must not leave half-written."""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Write to a temp file beside `path`, then rename it over `path`.

    Readers see either the previous file or the complete new one. A reader
    that still has the previous file open or mapped keeps its contents. On
    an exception the temp file is removed and `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
