"""Corpus ingestion: embed every record, run all three paths to fill the
per-path correctness scores, and write the corpus directory."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import RoutingExample, attach_sidecar, corpus_writer, example_from_raw
from .engine import EMBED_BLOCK_ROWS, EngineBackends, embed_examples, fuse_outputs, generate_both
from .errors import IngestError, TableRouteError
from .experts import answers_match
from .fusion import AgentBackend
from .paths import INPUT_DIM

log = logging.getLogger(__name__)

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


def ingest(
    raw_records: Sequence[Mapping],
    backends: EngineBackends,
    agent: AgentBackend,
    out_dir: str | Path,
    *,
    skip_threshold: float,
) -> IngestResult:
    """Build a corpus directory from raw records.

    Records go in id order, in blocks of EMBED_BLOCK_ROWS: a block's three
    embeddings are computed in one `embed_examples` call, then each record
    runs the text and image experts plus the fusion path and is scored
    against the gold answer. A record that `corpus.example_from_raw`
    refuses, or whose embedding or scoring fails, is skipped with a logged
    reason; if the skip rate exceeds `skip_threshold` the whole ingest fails
    and the previous corpus stays. Each row is written once its block is scored, and
    the returned examples read theirs from the written sidecar.
    Deterministic per backend seeds.
    """
    result = IngestResult()
    raws = sorted(raw_records, key=lambda r: str(r.get("id", "")))
    # One block of rows, rewritten by every block once its rows are written.
    X = np.empty((EMBED_BLOCK_ROWS, INPUT_DIM), dtype=np.float32)
    with corpus_writer(out_dir) as add:
        for lo in range(0, len(raws), EMBED_BLOCK_ROWS):
            block = raws[lo:lo + EMBED_BLOCK_ROWS]
            for raw_id, outcome in _ingest_block(block, backends, agent, X):
                if isinstance(outcome, str):
                    log.warning("skipping %s: %s", raw_id, outcome)
                    result.skipped.append((raw_id, outcome))
                    continue
                add(outcome)
                outcome.embedding = None
                result.examples.append(outcome)

        if result.skip_rate > skip_threshold:
            raise IngestError(
                f"ingest skipped {len(result.skipped)} of "
                f"{len(result.examples) + len(result.skipped)} records "
                f"(threshold {skip_threshold:.0%})"
            )
        if not result.examples:
            raise IngestError("ingest produced no examples")
    attach_sidecar(out_dir, result.examples)
    return result


def _ingest_block(
    raws: Sequence[Mapping], backends: EngineBackends, agent: AgentBackend, X: np.ndarray
) -> list[tuple[str, RoutingExample | str]]:
    """Each raw record's id and its scored example, or the reason it is
    skipped, in order; an example's embedding is a row of `X`. The valid
    records are embedded in one call; if that raises, each is embedded
    alone before it is scored, so only the failing record is skipped."""
    outcomes = [(str(raw.get("id", "<missing id>")), _example_or_reason(raw)) for raw in raws]
    try:
        _embed_into([o for _, o in outcomes if not isinstance(o, str)], backends, X)
        embedded = True
    except TableRouteError:
        embedded = False
    for i, (raw_id, example) in enumerate(outcomes):
        if isinstance(example, str):
            continue
        try:
            if not embedded:
                _embed_into([example], backends, X[i:i + 1])
            _score(example, backends, agent)
        except TableRouteError as e:
            outcomes[i] = (raw_id, str(e))
    return outcomes


def _example_or_reason(raw: Mapping) -> RoutingExample | str:
    """The unscored example of `raw`, or why it is skipped: the message of
    the `example_from_raw` check it fails, the same checks a stored corpus
    record passes on load."""
    try:
        # path scores are set by `_score`, once all paths ran
        return example_from_raw(raw, (0, 0, 0))
    except TableRouteError as e:
        return str(e)


def _embed_into(
    examples: Sequence[RoutingExample], backends: EngineBackends, X: np.ndarray
) -> None:
    """Embed `examples` into the leading rows of `X`, and point each
    example's embedding at its row."""
    if examples:
        rows, _ = embed_examples(examples, backends.embedders, out=X[:len(examples)])
        for example, x in zip(examples, rows):
            example.embedding = x


def _score(example: RoutingExample, backends: EngineBackends, agent: AgentBackend) -> None:
    """Run the text and image experts and the fusion path on `example` and
    set its path scores against the gold answer."""
    out_t, out_v = generate_both(example, backends)
    fres = fuse_outputs(example, out_t, out_v, agent)
    gold = example.gold_answer
    example.path_scores = (
        int(answers_match(out_t.answer, gold)),
        int(answers_match(out_v.answer, gold)),
        int(answers_match(fres.final_answer, gold)),
    )
