"""Atomic file replacement for the outputs a crash must not leave half-written,
and the one CSV writer for every run-directory table."""
from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator


@contextmanager
def staged(*paths: str | Path) -> Iterator[tuple[Path, ...]]:
    """Yield a temp path beside each of `paths` for the body to write.

    When the body returns, each temp file is renamed over its path, in the
    order given. On an exception every temp file left is removed: an
    exception in the body leaves `paths` as the body left them, and a failed
    rename keeps the renames before it.
    """
    targets = [Path(p) for p in paths]
    tmps = tuple(p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in targets)
    try:
        yield tmps
        for tmp, path in zip(tmps, targets):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Write to a temp file beside `path`, then rename it over `path`.

    Readers see either the previous file or the complete new one. A reader
    that still has the previous file open or mapped keeps its contents. On
    an exception the temp file is removed and `path` is left untouched.
    """
    with staged(path) as (tmp,):
        with open(tmp, mode, **kwargs) as fh:
            yield fh


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace `path` with `lines` as UTF-8 text, each ended by "\\n", through
    `atomic_open`: an exception while `lines` is consumed leaves `path` as it was."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_csv(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    """Replace `path` with the `header` line, then each row's values formatted
    with `str` and joined by ",", through `write_lines`. `str` prints a float
    in its shortest round-trip form, and a numpy scalar as its digits."""
    write_lines(path, chain([header], (",".join(map(str, row)) for row in rows)))
