"""The pinned sha256 digests of the CLI's outputs, read from `pins.json`.

An output whose bytes pass through BLAS (the gate's products) is pinned per
OpenBLAS kernel, under the name that `scipy_openblas_get_corename64_`
returns; one that uses no BLAS (the corpus files, `costs.csv`, the config
snapshot) is stored once, under "any". A kernel the table does not hold
fails its pins with one line that names it.

`python3 tests/retake_pins.py` rewrites the table: it runs the pinned tests
under each kernel with TABLEROUTE_PINS_RECORD set, which makes `check`
append what it observed to that file before it compares.
"""
from __future__ import annotations

import ctypes
import json
import os
from pathlib import Path

import numpy as np
import pytest

TABLE = Path(__file__).with_name("pins.json")
SHARED = "any"
RECORD_ENV = "TABLEROUTE_PINS_RECORD"


def blas_kernel() -> str:
    """The name of the OpenBLAS kernel that numpy's bundled library runs."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        pytest.fail("no scipy_openblas64_ library beside numpy to name the BLAS kernel",
                    pytrace=False)
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def expected(table: dict, kernel: str, group: str):
    """The pinned value of `group` under `kernel`: a digest, or a dict of
    file name to digest that merges the shared and the kernel's entries."""
    shared = table[SHARED].get(group)
    if all(group not in pins for name, pins in table.items() if name != SHARED):
        return shared
    if kernel not in table:
        pytest.fail(f"tests/pins.json holds no pins for OpenBLAS kernel {kernel}",
                    pytrace=False)
    own = table[kernel][group]
    return {**(shared or {}), **own} if isinstance(own, dict) else own


def check(group: str, observed) -> None:
    """Assert that `observed` is the pinned value of `group` on this kernel."""
    kernel = blas_kernel()
    record = os.environ.get(RECORD_ENV)
    if record:
        with open(record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"kernel": kernel, "group": group, "observed": observed}) + "\n")
    assert observed == expected(json.loads(TABLE.read_text()), kernel, group)
