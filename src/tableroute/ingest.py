"""Corpus ingestion: embed every record, run all three paths to fill the
per-path correctness scores, and write the corpus directory."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import RoutingExample, example_from_raw, write_corpus
from .engine import EngineBackends, embed_example, fuse_outputs, generate_both
from .errors import IngestError, TableRouteError
from .experts import answers_match
from .fusion import AgentBackend
from .paths import KNOWN_DATASETS

log = logging.getLogger(__name__)

REQUIRED_RAW_FIELDS = ("id", "dataset", "question", "table", "gold_answer")


@dataclass
class IngestResult:
    examples: list[RoutingExample] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def skip_rate(self) -> float:
        total = len(self.examples) + len(self.skipped)
        return len(self.skipped) / total if total else 0.0


def read_raw_records(path: Path) -> list[dict]:
    """The records of a raw JSONL file, one JSON object per non-empty line.

    A line that is not a UTF-8 JSON object raises IngestError naming the file
    and line: one unreadable line fails the whole file, unlike a record with
    a missing field, which `ingest` skips.
    """
    records = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as e:  # UnicodeDecodeError is a ValueError too
                raise IngestError(f"{path}:{line_no}: not valid JSON ({e})") from e
            if not isinstance(rec, dict):
                raise IngestError(f"{path}:{line_no}: record is not a JSON object")
            records.append(rec)
    return records


def _validate_raw(raw: Mapping) -> str | None:
    for name in REQUIRED_RAW_FIELDS:
        if raw.get(name) in (None, ""):
            return f"missing field {name!r}"
    if raw["dataset"] not in KNOWN_DATASETS:
        return f"unknown dataset tag {raw['dataset']!r}"
    table = raw["table"]
    if not (
        isinstance(table, dict)
        and isinstance(table.get("columns"), list)
        and isinstance(table.get("rows"), list)
        and all(isinstance(row, list) for row in table["rows"])
    ):
        return "field 'table' is not an object with a 'columns' list and a list of 'rows' lists"
    return None


def ingest(
    raw_records: Sequence[Mapping],
    backends: EngineBackends,
    agent: AgentBackend,
    out_dir: str | Path,
    skip_threshold: float = 0.2,
) -> IngestResult:
    """Build a corpus directory from raw records.

    For each record: compute the three embeddings, run the text and image
    experts plus the fusion path, and score each against the gold answer.
    Bad records are skipped with a logged reason; if the skip rate exceeds
    `skip_threshold` the whole ingest fails. Deterministic per backend seeds.
    """
    result = IngestResult()
    for raw in sorted(raw_records, key=lambda r: str(r.get("id", ""))):
        raw_id = str(raw.get("id", "<missing id>"))
        reason = _validate_raw(raw)
        if reason is not None:
            log.warning("skipping %s: %s", raw_id, reason)
            result.skipped.append((raw_id, reason))
            continue
        try:
            example = _ingest_one(raw, backends, agent)
        except TableRouteError as e:
            log.warning("skipping %s: %s", raw_id, e)
            result.skipped.append((raw_id, str(e)))
            continue
        result.examples.append(example)

    if result.skip_rate > skip_threshold:
        raise IngestError(
            f"ingest skipped {len(result.skipped)} of "
            f"{len(result.examples) + len(result.skipped)} records "
            f"(threshold {skip_threshold:.0%})"
        )
    if not result.examples:
        raise IngestError("ingest produced no examples")
    write_corpus(out_dir, result.examples)
    return result


def _ingest_one(raw: Mapping, backends: EngineBackends, agent: AgentBackend) -> RoutingExample:
    example = example_from_raw(raw, (0, 0, 0))  # scored below, once all paths ran
    example.embedding, _ = embed_example(example, backends.embedders)
    out_t, out_v = generate_both(example, backends)
    fres = fuse_outputs(example, out_t, out_v, agent)
    gold = example.gold_answer
    example.path_scores = (
        int(answers_match(out_t.answer, gold)),
        int(answers_match(out_v.answer, gold)),
        int(answers_match(fres.final_answer, gold)),
    )
    example.cached_expert_outputs = {"text": out_t, "image": out_v}
    return example
