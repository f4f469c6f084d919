"""Corpus data model and on-disk format.

A corpus directory holds:
    corpus.jsonl    one JSON record per example: a raw record's fields plus
                    path_scores (no embeddings or markdown inline)
    embeddings.bin  the embedding matrix: little-endian float32, row-major,
                    shape [N, 10112]; row i is the gate input of line i of
                    corpus.jsonl (question || text || vision)

Writing is serialized in example-id order, and embeddings are float32, so a
re-run with the same inputs reproduces the files bitwise. Raw and stored
records are read by one reader (`record_lines`, `parse_record`) and built
and checked by one constructor, `example_from_raw`. Older
writers' `manifest.json` and their records' `table_markdown` and
`expert_outputs` keys are ignored.
"""
from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import IngestError, InvalidArgumentError
from .fileio import staged
from .paths import INPUT_DIM, KNOWN_DATASETS

CORPUS_FILE = "corpus.jsonl"
SIDECAR_FILE = "embeddings.bin"
_ROW_BYTES = INPUT_DIM * np.dtype("<f4").itemsize
# Bytes per `os.sendfile` call when `CorpusWriter.append` copies a part file.
_COPY_BYTES = 1 << 30


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InvalidArgumentError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    @staticmethod
    def _cell(value: str) -> str:
        return str(value).replace("\n", " ").replace("|", "\\|")

    def to_markdown(self) -> str:
        header = "| " + " | ".join(self._cell(c) for c in self.columns) + " |"
        sep = "| " + " | ".join("---" for _ in self.columns) + " |"
        body = [
            "| " + " | ".join(self._cell(c) for c in row) + " |" for row in self.rows
        ]
        return "\n".join([header, sep, *body])

    def serialize(self) -> str:
        """Canonical structural form; the hash key for simulated embeddings."""
        return json.dumps(self.to_json(), separators=(",", ":"), ensure_ascii=False)

    def to_json(self) -> dict:
        return {"columns": list(self.columns), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "Table":
        if not (isinstance(obj, dict) and isinstance(obj.get("columns"), list)
                and isinstance(obj.get("rows"), list)
                and all(isinstance(row, list) for row in obj["rows"])):
            raise InvalidArgumentError("field 'table' is not an object with a 'columns' "
                                       "list and a list of 'rows' lists")
        return cls(
            columns=tuple(_text(c, "a 'table' column") for c in obj["columns"]),
            rows=tuple(tuple(_text(c, "a 'table' cell") for c in row) for row in obj["rows"]),
        )


def _text(value, what: str) -> str:
    """`value` as text: a string as is, a number through `str()`. A list,
    an object, a boolean or null raises InvalidArgumentError."""
    if type(value) is str:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise InvalidArgumentError(f"{what} is not text or a number: {value!r:.40}")


@dataclass
class RoutingExample:
    """One table-query instance with per-path correctness scores.

    `embedding` is the float32 [10112] gate input row, held in memory; a
    loaded example leaves it None and sets `sidecar_row` to (open sidecar,
    row index), which `read_rows` reads the row from.
    """

    id: str
    dataset: str
    question: str
    table: Table
    path_scores: tuple[int, int, int]
    gold_answer: str
    embedding: np.ndarray | None = None
    sidecar_row: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dataset not in KNOWN_DATASETS:
            raise InvalidArgumentError(f"unknown dataset tag {self.dataset!r}")
        if len(self.path_scores) != 3 or any(s not in (0, 1) for s in self.path_scores):
            raise InvalidArgumentError("path_scores must be three 0/1 entries")

    @cached_property
    def table_markdown(self) -> str:
        """The experts' and the agent's table input, built once, on first use."""
        return self.table.to_markdown()


def example_from_raw(raw: Mapping, path_scores: Sequence[int]) -> RoutingExample:
    """The example a raw or a stored record describes, with `path_scores`
    and no embedding yet. A missing or empty field, an `id`, `question`,
    `gold_answer`, column or cell that is neither text nor a number, a table
    that is not columns and rows lists or is ragged, an unknown dataset tag
    or bad path scores raise InvalidArgumentError; keys it does not name are
    ignored."""
    for name in ("id", "dataset", "question", "table", "gold_answer"):
        if raw.get(name) in (None, ""):
            raise InvalidArgumentError(f"missing field {name!r}")
    return RoutingExample(
        id=_text(raw["id"], "field 'id'"),
        dataset=raw["dataset"],
        question=_text(raw["question"], "field 'question'"),
        table=Table.from_json(raw["table"]),
        path_scores=tuple(path_scores),
        gold_answer=_text(raw["gold_answer"], "field 'gold_answer'"),
    )


def _example_to_json(ex: RoutingExample) -> dict:
    return {
        "id": ex.id,
        "dataset": ex.dataset,
        "question": ex.question,
        "table": ex.table.to_json(),
        "path_scores": list(ex.path_scores),
        "gold_answer": ex.gold_answer,
    }


def parse_record(path: Path, line_no: int, line: bytes, build: Callable | None = None):
    """The JSON object on one line of a raw or stored records file, or
    `build` of it.

    A line that is not a UTF-8 JSON object, or a record that `build` refuses
    (KeyError, TypeError or ValueError, as InvalidArgumentError is), raises
    IngestError "<path>:<line>: bad record (<reason>)".
    """
    try:
        rec = json.loads(line.decode("utf-8"))
        if not isinstance(rec, dict):
            raise TypeError("record is not a JSON object")
        return rec if build is None else build(rec)
    except (KeyError, TypeError, ValueError) as e:
        raise IngestError(f"{path}:{line_no}: bad record ({e})") from e


def _stored_example(rec: dict) -> RoutingExample:
    return example_from_raw(rec, rec["path_scores"])


def record_lines(path: Path) -> Iterator[tuple[int, bytes]]:
    """(line number, stripped line) of each non-empty line of a records file.

    Lines stay bytes: `parse_record` decodes the ones it parses.
    """
    if not path.exists():
        raise IngestError(f"no corpus file at {path}")
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                yield line_no, line


class _Sidecar(io.FileIO):
    """An open sidecar, closed when the last example that reads from it goes."""

    def __del__(self):
        self.close()


def _open_sidecar(directory: Path, n_records: int) -> _Sidecar:
    """The sidecar, opened, after checking that it holds exactly one row per record."""
    sidecar_path = directory / SIDECAR_FILE
    if not sidecar_path.exists():
        raise IngestError(f"missing embedding sidecar {sidecar_path}")
    sidecar = _Sidecar(sidecar_path)
    size = os.fstat(sidecar.fileno()).st_size
    if size != n_records * _ROW_BYTES:
        raise IngestError(
            f"embedding sidecar {sidecar_path} has {size} bytes, expected "
            f"{n_records * _ROW_BYTES} for {n_records} records"
        )
    return sidecar


class CorpusWriter:
    """Writes examples' rows and records to an open sidecar and records file.

    `add` writes one example; `append` copies the part files of another
    writer onto the end. Ids must ascend across both: `check_next` refuses
    an id not past the last one.
    """

    def __init__(self, rows: BinaryIO, records: TextIO):
        self.rows, self.records = rows, records
        self.last_id: str | None = None

    def check_next(self, example_id: str) -> None:
        """Raise IngestError unless `example_id` ascends past the last id, then make it the last."""
        if self.last_id is not None and example_id <= self.last_id:
            raise IngestError(f"duplicate example ids in corpus, or out of order: {example_id}")
        self.last_id = example_id

    def add(self, ex: RoutingExample) -> None:
        if ex.embedding is None or np.shape(ex.embedding) != (INPUT_DIM,):
            raise IngestError(f"example {ex.id} has no {INPUT_DIM}-dim embedding to write")
        self.check_next(ex.id)
        self.records.write(json.dumps(_example_to_json(ex), ensure_ascii=False,
                                      sort_keys=True) + "\n")
        self.rows.write(np.ascontiguousarray(ex.embedding, dtype="<f4"))

    def append(self, rows_part: Path, records_part: Path) -> None:
        """Copy the whole of the part files another writer wrote after this
        writer's rows and records, in the kernel (`os.sendfile`). Their ids
        must have passed this writer's `check_next` already."""
        for dest, part in ((self.rows, rows_part), (self.records, records_part)):
            dest.flush()
            with open(part, "rb") as src:
                while os.sendfile(dest.fileno(), src.fileno(), None, _COPY_BYTES):
                    pass


@contextmanager
def corpus_writer(directory: str | Path) -> Iterator[CorpusWriter]:
    """Stage a corpus in `directory` through a `CorpusWriter` on temp files.

    When the body returns, the previous `corpus.jsonl` is removed and both
    temp files are renamed into place, sidecar first, so a process killed
    between the renames leaves a directory that `load_corpus` rejects,
    never a new sidecar beside the previous records. An exception leaves the
    previous pair as it was.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus_path = directory / CORPUS_FILE
    with staged(directory / SIDECAR_FILE, corpus_path) as (sidecar_tmp, corpus_tmp):
        with open(sidecar_tmp, "wb") as rows, \
                open(corpus_tmp, "w", encoding="utf-8", newline="\n") as records:
            yield CorpusWriter(rows, records)
        corpus_path.unlink(missing_ok=True)


def write_corpus(directory: str | Path, examples: Sequence[RoutingExample]) -> None:
    """Write `examples` in id order through `corpus_writer`."""
    with corpus_writer(directory) as writer:
        for ex in sorted(examples, key=lambda e: e.id):
            writer.add(ex)


def load_corpus(directory: str | Path) -> list[RoutingExample]:
    """Load a corpus; each example reads its row from the sidecar (`attach_sidecar`)."""
    directory = Path(directory)
    corpus_path = directory / CORPUS_FILE
    examples = [parse_record(corpus_path, *where, _stored_example)
                for where in record_lines(corpus_path)]
    attach_sidecar(directory, examples)
    return examples


def attach_sidecar(directory: str | Path, examples: Sequence[RoutingExample]) -> None:
    """Point each example at its row of `directory`'s sidecar, row i for
    `examples[i]`.

    The sidecar must hold exactly one row per example, or IngestError is
    raised. It is opened, never mapped, and `read_rows` reads rows from the
    same open file even after a new sidecar is renamed over its path.
    """
    sidecar = _open_sidecar(Path(directory), len(examples))
    for i, ex in enumerate(examples):
        ex.sidecar_row = (sidecar, i)


def load_example(directory: str | Path, example_id: str) -> RoutingExample | None:
    """The one example with id `example_id`, or None if no record has it.

    Only lines that contain the id as a JSON string are parsed, and only the
    record whose parsed id equals it is built, pointed at its row of the
    sidecar as `attach_sidecar` does. Every non-empty line is still counted,
    so the sidecar must hold exactly one row per record, as for `load_corpus`.
    The first record with the id wins.
    """
    directory = Path(directory)
    corpus_path = directory / CORPUS_FILE
    needles = {json.dumps(example_id).encode(),
               json.dumps(example_id, ensure_ascii=False).encode("utf-8")}

    def build(rec: dict) -> RoutingExample | None:
        return _stored_example(rec) if rec.get("id") == example_id else None

    found: tuple[int, RoutingExample] | None = None
    n_records = 0
    for line_no, line in record_lines(corpus_path):
        if found is None and any(needle in line for needle in needles):
            ex = parse_record(corpus_path, line_no, line, build)
            if ex is not None:
                found = (n_records, ex)
        n_records += 1
    sidecar = _open_sidecar(directory, n_records)
    if found is None:
        return None
    i, ex = found
    ex.sidecar_row = (sidecar, i)
    return ex


def read_rows(examples: Sequence[RoutingExample], out: np.ndarray) -> np.ndarray:
    """Fill `out[:len(examples)]`, a C-contiguous float32 or float64 buffer,
    with the examples' rows and return that slice.

    A row held in `embedding` is copied; any other is read from its open
    sidecar with one positional read. Rows land straight in a float32 `out`,
    or in a one-row float32 stage that is cast (exactly) into a float64 one.
    A non-finite entry raises IngestError naming the first such example.
    """
    n = len(examples)
    stage = None if out.dtype == np.float32 else np.empty(out.shape[1], dtype=np.float32)
    for ex, dest in zip(examples, out[:n], strict=True):
        row = dest if stage is None else stage
        if ex.embedding is not None:
            row[:] = ex.embedding
        elif ex.sidecar_row is None:
            raise IngestError(f"example {ex.id}: embeddings not resolved")
        else:
            sidecar, i = ex.sidecar_row
            if os.preadv(sidecar.fileno(), [row], i * _ROW_BYTES) != _ROW_BYTES:
                raise IngestError(f"embedding sidecar {sidecar.name} ended before row {i}")
        if stage is not None:
            dest[:] = stage
    finite = np.isfinite(out[:n]).all(axis=1)
    if not finite.all():
        raise IngestError(f"example {examples[int(np.argmin(finite))].id}: non-finite embedding")
    return out[:n]


def split_by_dataset(examples: Iterable[RoutingExample]) -> dict[str, list[RoutingExample]]:
    groups: dict[str, list[RoutingExample]] = {}
    for ex in examples:
        groups.setdefault(ex.dataset, []).append(ex)
    return groups


def stratified_split(
    examples: Sequence[RoutingExample], val_fraction: float, seed: int
) -> tuple[list[RoutingExample], list[RoutingExample]]:
    """Deterministic train/val split, stratified per dataset tag."""
    if not 0.0 <= val_fraction < 1.0:
        raise InvalidArgumentError(f"val_fraction must be in [0, 1), got {val_fraction}")
    train: list[RoutingExample] = []
    val: list[RoutingExample] = []
    for dataset, group in sorted(split_by_dataset(examples).items()):
        group = sorted(group, key=lambda e: e.id)
        rng = np.random.Generator(np.random.PCG64(seed ^ hash_tag(dataset)))
        order = rng.permutation(len(group))
        n_val = int(round(val_fraction * len(group)))
        val_idx = set(order[:n_val].tolist())
        for i, ex in enumerate(group):
            (val if i in val_idx else train).append(ex)
    return train, val


def hash_tag(tag: str) -> int:
    """Small stable integer from a dataset tag, for seed mixing."""
    out = 0
    for ch in tag.encode("utf-8"):
        out = (out * 131 + ch) % (2**31)
    return out
