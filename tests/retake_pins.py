"""Retake the pinned digests in tests/pins.json, once per OpenBLAS kernel.

    python3 tests/retake_pins.py [KERNEL ...]

Run it from the repository root after an intended output change. For each
kernel (by default SkylakeX, Haswell and Sandybridge; each must be one the
CPU can run) it runs the pinned tests in a pytest process of their own with
OPENBLAS_CORETYPE set to it, and `pins.check` records what every pin
observed. Pins stored once for all kernels ("any") must observe the same
digest under each kernel, or the script stops and writes nothing. Then it
rewrites the table; the diff shows each pin that moved, and each needs a
reason in CHANGES.md.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from pins import RECORD_ENV, SHARED, TABLE  # noqa: E402

DEFAULT_KERNELS = ("SkylakeX", "Haswell", "Sandybridge")
PINNED_TESTS = ["tests/test_cli.py", "tests/test_corpus.py", "tests/test_trainer.py",
                "-k", "pinned or legacy"]


def observe(kernel: str) -> dict:
    """{group: observed value} from the pinned tests run under `kernel`."""
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "pins.jsonl"
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, RECORD_ENV: str(record)}
        # A test whose pin moved fails; its record is what this script wants.
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        *PINNED_TESTS], env=env, check=False)
        seen = {}
        for line in record.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if entry["kernel"] != kernel:
                sys.exit(f"asked for OpenBLAS kernel {kernel}, but it ran {entry['kernel']}")
            seen[entry["group"]] = entry["observed"]
    return seen


def main(kernels: list[str]) -> int:
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    shared = table[SHARED]
    groups = {group for pins in table.values() for group in pins}
    new = {SHARED: {}}
    for kernel in kernels:
        seen = observe(kernel)
        if groups - set(seen):
            sys.exit(f"under {kernel} the pinned tests did not reach {sorted(groups - set(seen))}")
        own = {}
        for group, value in seen.items():
            keys = shared.get(group, {})
            if isinstance(value, dict):
                common = {k: v for k, v in value.items() if k in keys}
                value = {k: v for k, v in value.items() if k not in keys}
            elif group in shared:
                common, value = value, {}
            else:
                common = {}
            if common:
                if new[SHARED].setdefault(group, common) != common:
                    sys.exit(f"pin {group!r} is stored for every kernel, but {kernel} "
                             f"gives {common}, not {new[SHARED][group]}")
            if value:
                own[group] = value
        new[kernel] = own
    table.update(new)
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(DEFAULT_KERNELS)))
