"""Corpus ingestion: embed every record, run all three paths to fill the
per-path correctness scores, and write the corpus directory."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import RoutingExample, Table, write_corpus
from .engine import EngineBackends
from .errors import IngestError, TableRouteError
from .experts import answers_match
from .fusion import AgentBackend, FusionRequest, fuse
from .gate import concat_input
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
    table = Table.from_json(raw["table"])
    markdown = table.to_markdown()
    serialized = table.serialize()
    tag = raw["dataset"]
    gold = str(raw["gold_answer"])
    example_id = str(raw["id"])

    embedding = concat_input(
        backends.question_embedder.embed(raw["question"], tag=tag),
        backends.text_embedder.embed(serialized, tag=tag),
        backends.vision_embedder.embed(serialized.encode("utf-8"), tag=tag),
    )

    kwargs = dict(example_id=example_id, gold_answer=gold, dataset_tag=tag)
    out_t = backends.text_generator.generate(markdown, raw["question"], **kwargs)
    out_v = backends.image_generator.generate(markdown, raw["question"], **kwargs)
    fres = fuse(
        FusionRequest(
            question=raw["question"],
            table_markdown=markdown,
            text_output=out_t,
            vision_output=out_v,
            dataset_tag=tag,
        ),
        agent,
        context={"example_id": example_id, "gold_answer": gold},
    )

    scores = (
        int(answers_match(out_t.answer, gold)),
        int(answers_match(out_v.answer, gold)),
        int(answers_match(fres.final_answer, gold)),
    )
    return RoutingExample(
        id=example_id,
        dataset=tag,
        question=str(raw["question"]),
        table=table,
        table_markdown=markdown,
        path_scores=scores,
        gold_answer=gold,
        embedding=embedding,
        cached_expert_outputs={"text": out_t, "image": out_v},
    )
