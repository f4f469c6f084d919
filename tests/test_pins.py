import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pins

TABLE = {
    "any": {"corpus": {"a.bin": "1"}, "evaluate": {"costs.csv": "2"}},
    "SkylakeX": {"evaluate": {"bench.csv": "3"}, "train": "4"},
    "Haswell": {"evaluate": {"bench.csv": "5"}, "train": "6"},
}


def test_kernel_pins_merge_with_the_shared_ones():
    assert pins.expected(TABLE, "Haswell", "evaluate") == {"costs.csv": "2", "bench.csv": "5"}
    assert pins.expected(TABLE, "SkylakeX", "train") == "4"


def test_shared_pins_hold_on_a_kernel_the_table_lacks():
    assert pins.expected(TABLE, "Zen", "corpus") == {"a.bin": "1"}


def test_a_kernel_the_table_lacks_fails_its_kernel_pins_naming_it():
    with pytest.raises(pytest.fail.Exception, match="^tests/pins.json holds no pins for "
                       "OpenBLAS kernel Zen$"):
        pins.expected(TABLE, "Zen", "evaluate")


def test_the_table_holds_every_kernel_it_pins_for_each_group():
    table = json.loads(pins.TABLE.read_text())
    kernels = [name for name in table if name != pins.SHARED]
    assert {"SkylakeX", "Haswell", "Sandybridge"} <= set(kernels)
    for name in kernels:
        assert table[name].keys() == table[kernels[0]].keys()


def test_blas_kernel_names_the_kernel_openblas_was_told_to_run():
    code = "import pins; print(pins.blas_kernel())"
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, check=True,
                         env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"},
                         capture_output=True, text=True).stdout
    assert out == "Sandybridge\n"
