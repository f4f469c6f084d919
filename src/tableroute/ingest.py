"""Corpus ingestion: embed every record, run all three paths to fill the
per-path correctness scores, and write the corpus directory. `ingest`
returns the ids it wrote and the records it skipped; the corpus itself is
read back with `corpus.load_corpus`."""
from __future__ import annotations

import logging
import os
import pickle
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .corpus import (CORPUS_FILE, SIDECAR_FILE, CorpusWriter, RoutingExample, corpus_writer,
                     example_from_raw)
from .engine import EMBED_BLOCK_ROWS, EngineBackends, embed_examples, fuse_outputs, generate_both
from .errors import IngestError, TableRouteError
from .experts import answers_match
from .fusion import AgentBackend
from .paths import INPUT_DIM

log = logging.getLogger(__name__)

Block = Sequence[Mapping]


@dataclass
class IngestResult:
    """The ids written, in corpus order, and each skipped record's id and reason."""

    ids: list[str] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def skip_rate(self) -> float:
        total = len(self.ids) + len(self.skipped)
        return len(self.skipped) / total if total else 0.0


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
    and the previous corpus stays. Each row is written once its block is
    scored; the result holds the written ids and the skips.

    The blocks are split into contiguous shares, one per usable CPU
    (`_shares`). This process scores the first share; each later one is
    scored by a `_Worker` forked here, whose rows, records and skips this
    process takes in share order. The files, skips, log lines, errors and
    result are those of a one-share run. Deterministic per backend seeds.
    """
    result = IngestResult()
    raws = sorted(raw_records, key=lambda r: str(r.get("id", "")))
    first, *rest = _shares([raws[lo:lo + EMBED_BLOCK_ROWS]
                            for lo in range(0, len(raws), EMBED_BLOCK_ROWS)])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers: list[_Worker] = []
    try:
        # Forked before any output file is opened, so no worker inherits a buffered writer.
        for share in rest:
            workers.append(_Worker.fork(share, backends, agent, out_dir))
        with corpus_writer(out_dir) as writer:
            for raw_id, outcome in _share_outcomes(first, backends, agent):
                if isinstance(outcome, str):
                    _skip(result, raw_id, outcome)
                    continue
                writer.add(outcome)
                result.ids.append(outcome.id)
            for worker in workers:
                worker.merge(writer, result)

            if result.skip_rate > skip_threshold:
                raise IngestError(
                    f"ingest skipped {len(result.skipped)} of "
                    f"{len(result.ids) + len(result.skipped)} records "
                    f"(threshold {skip_threshold:.0%})"
                )
            if not result.ids:
                raise IngestError("ingest produced no examples")
    finally:
        _stop(workers)
    return result


def _shares(blocks: Sequence[Block]) -> list[Sequence[Block]]:
    """`blocks` cut into contiguous shares of whole blocks, as even as they
    go: one per CPU this process may run on, no more than there are blocks,
    and one where `os.fork` or `os.sched_getaffinity` is missing."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    n = len(blocks)
    k = max(1, min(cpus, n))
    return [blocks[i * n // k:(i + 1) * n // k] for i in range(k)]


def _share_outcomes(
    share: Sequence[Block], backends: EngineBackends, agent: AgentBackend,
    parent: int | None = None,
) -> Iterator[tuple[str, RoutingExample | str]]:
    """Each record's raw id and outcome, as `_ingest_block` gives them, block
    by block through one block buffer. With `parent`, stop before the next
    block once this process is no longer that process's child."""
    X = np.empty((EMBED_BLOCK_ROWS, INPUT_DIM), dtype=np.float32)
    for block in share:
        if parent is not None and os.getppid() != parent:
            return
        yield from _ingest_block(block, backends, agent, X)


def _skip(result: IngestResult, raw_id: str, reason: str) -> None:
    log.warning("skipping %s: %s", raw_id, reason)
    result.skipped.append((raw_id, reason))


def _raw_id(raw: Mapping) -> str:
    return str(raw.get("id", "<missing id>"))


class _Worker:
    """A forked process scoring one share, as the caller sees it.

    The worker writes two part files beside the staged outputs, named by
    its pid: rows and records as `CorpusWriter` writes them. It logs
    nothing. When it is done it pickles `(reasons, error)` into its status
    pipe and exits with 0: one skip reason per record it scored, None for a
    record it wrote, and the exception it raised or None. No rows are
    pickled.
    """

    def __init__(self, share: Sequence[Block], pid: int, status_fd: int, out_dir: Path):
        self.share, self.pid = share, pid
        self.status = open(status_fd, "rb")
        self.parts = _part_paths(out_dir, pid)
        self.running = True

    @classmethod
    def fork(cls, share: Sequence[Block], backends: EngineBackends, agent: AgentBackend,
             out_dir: Path) -> "_Worker":
        parent = os.getpid()
        status_fd, status_out = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                _work(share, backends, agent, _part_paths(out_dir, os.getpid()), parent,
                      status_out)
        except OSError:
            os.close(status_fd)
            raise
        finally:
            os.close(status_out)
        return cls(share, pid, status_fd, out_dir)

    def merge(self, writer: CorpusWriter, result: IngestResult) -> None:
        """Wait for the worker, then take its records as the one-share run
        would: log each skip and check each written id through `writer`, in
        order, then raise what the worker raised, or append its part files
        to `writer`. A worker that ends otherwise than by exiting with 0,
        so without sending its outcomes, raises IngestError."""
        with self.status:
            payload = self.status.read()
        _, status = os.waitpid(self.pid, 0)
        self.running = False
        if status:
            raise IngestError(f"ingest worker {self.pid} ended with exit code "
                              f"{os.waitstatus_to_exitcode(status)}")
        reasons, error = pickle.loads(payload)
        raws = (raw for block in self.share for raw in block)
        for raw, reason in zip(raws, reasons):
            raw_id = _raw_id(raw)
            if reason is not None:
                _skip(result, raw_id, reason)
                continue
            writer.check_next(raw_id)
            result.ids.append(raw_id)
        if error is not None:
            raise error
        writer.append(*self.parts)


def _part_paths(out_dir: Path, pid: int) -> tuple[Path, Path]:
    """A worker's rows and records part files."""
    return tuple(out_dir / f".{name}.{pid}.part" for name in (SIDECAR_FILE, CORPUS_FILE))


def _work(share: Sequence[Block], backends: EngineBackends, agent: AgentBackend,
          parts: tuple[Path, Path], parent: int, status_out: int) -> NoReturn:
    """The body of a forked worker. It ends the process with `os._exit`, so
    it never unwinds into the caller's stack: with 0 once its outcomes are
    in the status pipe, with 1 if they cannot be sent. A worker whose
    parent has ended stops at its next block and removes its part files."""
    code, reasons, error = 1, [], None
    try:
        rows_part, records_part = parts
        with open(rows_part, "wb") as rows, \
                open(records_part, "w", encoding="utf-8", newline="\n") as records:
            writer = CorpusWriter(rows, records)
            for _, outcome in _share_outcomes(share, backends, agent, parent):
                if not isinstance(outcome, str):
                    writer.add(outcome)
                    outcome = None
                reasons.append(outcome)
    except BaseException as e:
        error = e
    try:
        with open(status_out, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps((reasons, error)))
        code = 0
    finally:
        if os.getppid() != parent:
            for part in parts:
                part.unlink(missing_ok=True)
        os._exit(code)


def _stop(workers: Sequence[_Worker]) -> None:
    """Kill the workers still running, reap them, and remove every worker's part files."""
    running = [w for w in workers if w.running]
    for w in running:
        os.kill(w.pid, signal.SIGKILL)
    for w in running:
        os.waitpid(w.pid, 0)
    for w in workers:
        w.status.close()
        for part in w.parts:
            part.unlink(missing_ok=True)


def _ingest_block(
    raws: Block, backends: EngineBackends, agent: AgentBackend, X: np.ndarray
) -> list[tuple[str, RoutingExample | str]]:
    """Each raw record's id and its scored example, or the reason it is
    skipped, in order; an example's embedding is a row of `X`. The valid
    records are embedded in one call; if that raises, each is embedded
    alone before it is scored, so only the failing record is skipped."""
    outcomes = [(_raw_id(raw), _example_or_reason(raw)) for raw in raws]
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
