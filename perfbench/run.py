"""Benchmark of the tableroute README pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload build --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the program is imported from `src/`. Every
run drives the `tableroute` CLI as separate processes, one after another from
this driver: a closed loop with one caller. The workload decides which stages
are set-up and which form the measured phase:

- build:    set-up make-synthetic (three times); measured ingest + train.
- evaluate: set-up make-synthetic, ingest, train; measured profile-cost,
            bench, analyze.
- lookup:   set-up make-synthetic, ingest, train; measured single-example
            route/infer calls on ids drawn from the seed.

Every run adds ingest calls until it has INGEST_SAMPLES of them, so that each
workload reports a steady `ingest_s`. They are spread over the run, half
before the measured phase and half after it; on lookup one goes between two
single-example calls. The host's speed drifts over tens of seconds, and a
median over the whole run follows that drift less than a burst of calls. The measured phase repeats
until `--seconds` have passed (at least once) and `wall_s` is the median
pass. Times are the CLI processes' wall times, not the checks between them. `--seed` only seeds the raw records and the lookup
ids; every program stage keeps the README's seed 7. Each run checks the
outputs' shape and sha256 hashes: repeats inside a run, runs at the same seed
(stored under `.perfbench/hashes/`) and the traced pass must all agree.

With `--trace 1` the run then repeats the workload's own stages once under
`perfbench/tracer.py`, which wraps the program's layer functions in that
child process, and reports per-layer metrics from the spans instead of the
end-to-end ones. The last line of stdout is the JSON result; the full report,
with machine facts, per-call timings and the span table, is written to
`.perfbench/results/`. `--smoke` runs a few dozen records, for the
benchmark's own test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

README_RECORDS = 2500
SMOKE_RECORDS = 42
PROGRAM_SEED = "7"
SETUP_REPEATS = 3  # build's set-up is cheap enough to repeat for a median
INGEST_SAMPLES = 9  # ingest calls per run, so ingest_s is a median on every workload
LOOKUP_IDS_PER_TAG = 1
IMPORT_REPEATS = 5
RUN_DEADLINE_S = 170  # a run must end within 180 s; calls still running then are killed
PATHS = ("text", "image", "fusion")
WORKLOADS = ("build", "evaluate", "lookup")
CLI_STAGES = ("make_synthetic", "ingest", "train", "profile_cost", "bench", "analyze",
              "route", "infer")
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MB = 1024 * 1024


@dataclass
class Call:
    stage: str
    phase: str  # setup, measured, rest or traced
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


class Run:
    """One benchmark run: CLI calls, checks and output hashes."""

    def __init__(self, workload: str, seed: int, seconds: float, n_records: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.n_records = n_records
        self.work = work
        self.calls: list[Call] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(work)
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def spawn(self, cmd: list[str], stdout: Path) -> tuple[int, float, float, float]:
        """Run `cmd` to completion; return its exit code, wall s, CPU s and own peak RSS MB."""
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024  # ru_maxrss is in KiB

    def cli(self, stage: str, phase: str, argv: list[str], trace_out: Path | None = None) -> str:
        """One tableroute CLI call; returns its stdout. A nonzero exit is a failed operation."""
        tag = f"{len(self.calls):03d}-{stage}"
        if trace_out is None:
            cmd = [sys.executable, "-m", "tableroute.cli", *argv]
        else:
            cmd = [sys.executable, str(TRACER), "--out", str(trace_out),
                   "--run-id", f"{self.workload}/{tag}", "--", *argv]
        rc, wall, cpu, rss = self.spawn(cmd, self.work / f"{tag}.out")
        self.calls.append(Call(stage, phase, argv, wall, cpu, rss, rc))
        stdout = (self.work / f"{tag}.out").read_text(encoding="utf-8", errors="replace")
        if not self.check(rc == 0, f"{stage} exited {rc}"):
            err = (self.work / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
            raise StageFailed(f"{' '.join(argv)} exited {rc}: {err[-2000:]}")
        return stdout

    def record_hash(self, key: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if key in self.hashes:
            self.check(self.hashes[key] == digest, f"hash of {key} differs between passes")
        else:
            self.hashes[key] = digest

    def hash_file(self, key: str, path: Path) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
            # Flush the output now, between timed calls, not during the next one.
            os.fsync(fh.fileno())
        self.record_hash(key, data)


class StageFailed(Exception):
    """A CLI call exited nonzero; the run stops and reports the failure."""


# ---------------------------------------------------------------------------
# Pipeline stages with their output checks
# ---------------------------------------------------------------------------


def make_synthetic(run: Run, phase: str, raw: Path, trace: Path | None = None) -> None:
    run.cli("make_synthetic", phase, ["make-synthetic", "--out", str(raw), "--n",
                                       str(run.n_records), "--all-tags", "--seed", str(run.seed)],
            trace)
    lines = raw.read_text(encoding="utf-8").splitlines()
    run.check(len(lines) == run.n_records, f"{raw.name} has {len(lines)} records")
    run.hash_file("raw.jsonl", raw)


def ingest(run: Run, phase: str, raw: Path, corpus: Path, trace: Path | None = None) -> None:
    run.cli("ingest", phase, ["ingest", "--raw", str(raw), "--out", str(corpus),
                               "--seed", PROGRAM_SEED], trace)
    lines = (corpus / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    n = sum(1 for line in lines if line.strip())
    run.check(n == run.n_records, f"corpus.jsonl has {n} records")
    for path in sorted(corpus.iterdir()):
        run.hash_file(f"corpus/{path.name}", path)


def train(run: Run, phase: str, corpus: Path, run_dir: Path, trace: Path | None = None) -> None:
    out = run.cli("train", phase, ["train", "--corpus", str(corpus), "--run-dir", str(run_dir),
                                    "--seed", PROGRAM_SEED], trace)
    m = re.search(r"trained (\d+) steps", out)
    rows = (run_dir / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
    run.check(m is not None and len(rows) == int(m.group(1)) > 0,
              f"history.csv has {len(rows)} rows for {m and m.group(1)} planned steps")
    acc = json.loads((run_dir / "val_metrics.json").read_text())["routing_accuracy"]
    run.check(0.0 <= acc <= 1.0, f"validation routing accuracy {acc}")
    for name in ("gate.ckpt", "history.csv", "val_metrics.json"):
        run.hash_file(name, run_dir / name)


def _csv_rows(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[1:]


def profile_cost(run: Run, phase: str, corpus: Path, run_dir: Path,
                 trace: Path | None = None) -> None:
    run.cli("profile_cost", phase, ["profile-cost", "--corpus", str(corpus), "--run-dir",
                                     str(run_dir), "--seed", PROGRAM_SEED], trace)
    paths = [row.split(",")[0] for row in _csv_rows(run_dir / "costs.csv")]
    run.check(tuple(paths) == PATHS, f"costs.csv paths {paths}")
    run.hash_file("costs.csv", run_dir / "costs.csv")


def bench(run: Run, phase: str, corpus: Path, run_dir: Path, ckpt: Path,
          trace: Path | None = None) -> None:
    run.cli("bench", phase, ["bench", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                              "--run-dir", str(run_dir), "--seed", PROGRAM_SEED], trace)
    rows = _csv_rows(run_dir / "bench.csv")
    # 7 datasets x 2 modes x (3 seeds + 1 average row)
    run.check(len(rows) == 56, f"bench.csv has {len(rows)} data rows")
    run.hash_file("bench.csv", run_dir / "bench.csv")


def analyze(run: Run, phase: str, corpus: Path, run_dir: Path, ckpt: Path,
            trace: Path | None = None) -> None:
    run.cli("analyze", phase, ["analyze", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                                "--run-dir", str(run_dir), "--seed", PROGRAM_SEED], trace)
    rows = _csv_rows(run_dir / "analysis.csv")
    run.check(len(rows) == 8, f"analysis.csv has {len(rows)} metric rows")
    run.hash_file("analysis.csv", run_dir / "analysis.csv")


def lookup_calls(raw: Path, seed: int) -> list[tuple[str, str]]:
    """Ids drawn from the seed, LOOKUP_IDS_PER_TAG per dataset tag: route each id,
    and infer every other one."""
    by_tag: dict[str, list[str]] = {}
    for line in raw.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        by_tag.setdefault(rec["dataset"], []).append(rec["id"])
    rng = random.Random(seed)
    ids = [i for tag in sorted(by_tag) for i in rng.sample(by_tag[tag], LOOKUP_IDS_PER_TAG)]
    calls = []
    for n, example_id in enumerate(ids):
        calls.append(("route", example_id))
        if n % 2 == 0:
            calls.append(("infer", example_id))
    return calls


def lookup(run: Run, phase: str, kind: str, example_id: str, corpus: Path, ckpt: Path,
           trace: Path | None = None) -> str:
    """One single-example CLI call; returns the routed path."""
    out = run.cli(kind, phase, [kind, "--corpus", str(corpus), "--checkpoint", str(ckpt),
                                "--id", example_id, "--seed", PROGRAM_SEED], trace)
    run.record_hash(f"{kind}/{example_id}", out.encode("utf-8"))
    reply = json.loads(out.strip().splitlines()[-1])
    if kind == "route":
        probs = reply["probabilities"]
        run.check(len(probs) == 3 and abs(sum(probs) - 1.0) < 1e-9,
                  f"route {example_id} probabilities {probs}")
        path = reply["path"]
    else:
        run.check(reply["example_id"] == example_id, f"infer {example_id} answered {reply}")
        path = reply["chosen_path"]
    run.check(path in PATHS, f"{kind} {example_id} chose {path!r}")
    return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Pipeline:
    """Paths of one run's pipeline outputs."""

    def __init__(self, work: Path, name: str):
        self.raw = work / name / "raw.jsonl"
        self.corpus = work / name / "corpus"
        self.run_dir = work / name / "run"
        self.ckpt = self.run_dir / "gate.ckpt"
        self.raw.parent.mkdir(parents=True, exist_ok=True)

    def remove(self) -> None:
        shutil.rmtree(self.raw.parent, ignore_errors=True)


def program_s(run: Run, fn) -> float:
    """Run `fn`; return the wall time of the CLI calls it made, not of the checks between
    them nor of the ingest samples (phase "rest") it interleaves."""
    first = len(run.calls)
    fn()
    return sum(c.wall_s for c in run.calls[first:] if c.phase != "rest")


def repeat_for(run: Run, unit) -> list[float]:
    """Run `unit(i)` until `run.seconds` have passed, at least once; return each pass's time."""
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < run.seconds:
        walls.append(program_s(run, lambda: unit(len(walls))))
    return walls


def build_stages(run: Run, phase: str, p: Pipeline, trace: Path | None = None) -> None:
    make_synthetic(run, phase, p.raw, trace and trace / "make_synthetic.json")
    ingest(run, phase, p.raw, p.corpus, trace and trace / "ingest.json")
    train(run, phase, p.corpus, p.run_dir, trace and trace / "train.json")


def evaluate_stages(run: Run, phase: str, p: Pipeline, trace: Path | None = None) -> None:
    profile_cost(run, phase, p.corpus, p.run_dir, trace and trace / "profile_cost.json")
    bench(run, phase, p.corpus, p.run_dir, p.ckpt, trace and trace / "bench.json")
    analyze(run, phase, p.corpus, p.run_dir, p.ckpt, trace and trace / "analyze.json")


def lookup_stages(run: Run, phase: str, p: Pipeline, calls, trace: Path | None = None,
                  between=lambda: None) -> list[str]:
    """The single-example calls in order, with `between()` run after each but the last."""
    paths = []
    for i, (kind, example_id) in enumerate(calls):
        if i:
            between()
        paths.append(lookup(run, phase, kind, example_id, p.corpus, p.ckpt,
                            trace and trace / f"{i:02d}-{kind}.json"))
    return paths


def ingest_samples(run: Run, raw: Path, upto: int) -> None:
    """Extra ingest calls until the run has `upto` of them. Runs spread them over
    the measured phase, so that their median spans the run."""
    done = ingest_count(run)
    for i in range(done, upto):
        q = Pipeline(run.work, f"ingest{i}")
        ingest(run, "rest", raw, q.corpus)
        q.remove()


def ingest_count(run: Run) -> int:
    return sum(c.stage == "ingest" for c in run.calls)


def run_build(run: Run, traced: Path | None) -> dict:
    setup = [program_s(run, lambda: make_synthetic(run, "setup", Pipeline(run.work, f"setup{k}").raw))
             for k in range(SETUP_REPEATS)]
    raw = Pipeline(run.work, "setup0").raw
    ingest_samples(run, raw, INGEST_SAMPLES // 2)
    passes: list[Pipeline] = []

    def one_pass(i: int) -> None:
        if passes:
            passes[-1].remove()
        passes.append(Pipeline(run.work, f"pass{i}"))
        ingest(run, "measured", raw, passes[-1].corpus)
        train(run, "measured", passes[-1].corpus, passes[-1].run_dir)

    walls = repeat_for(run, one_pass)
    p = passes[-1]
    ingest_samples(run, raw, INGEST_SAMPLES)
    result = {"setup_s": statistics.median(setup), "walls": walls, "corpus": p.corpus}
    if traced is not None:
        t = Pipeline(run.work, "traced")
        result["traced_s"] = program_s(run, lambda: build_stages(run, "traced", t, traced))
        result["untraced_s"] = setup[0] + walls[0]
        result["corpus"] = t.corpus
    return result


def run_evaluate(run: Run, traced: Path | None) -> dict:
    p = Pipeline(run.work, "main")
    setup_s = program_s(run, lambda: build_stages(run, "setup", p))
    ingest_samples(run, p.raw, INGEST_SAMPLES // 2)
    walls = repeat_for(run, lambda i: evaluate_stages(run, "measured", p))
    ingest_samples(run, p.raw, INGEST_SAMPLES)
    result = {"setup_s": setup_s, "walls": walls, "corpus": p.corpus}
    if traced is not None:
        t = Pipeline(run.work, "traced")
        t.corpus, t.ckpt = p.corpus, p.ckpt
        result["traced_s"] = program_s(run, lambda: evaluate_stages(run, "traced", t, traced))
        result["untraced_s"] = walls[0]
    return result


def run_lookup(run: Run, traced: Path | None) -> dict:
    p = Pipeline(run.work, "main")
    setup_s = program_s(run, lambda: build_stages(run, "setup", p))
    calls = lookup_calls(p.raw, run.seed)
    routed: list[list[str]] = []

    def one_more_ingest() -> None:
        """Spread the lookups over the run: one ingest sample between two calls."""
        ingest_samples(run, p.raw, min(ingest_count(run) + 1, INGEST_SAMPLES))

    walls = repeat_for(run, lambda i: routed.append(
        lookup_stages(run, "measured", p, calls, between=one_more_ingest)))
    if run.n_records >= README_RECORDS:
        # A gate trained on a few dozen smoke records need not use every path.
        run.check(set(routed[0]) == set(PATHS), f"lookup ids reach paths {sorted(set(routed[0]))}")
    ingest_samples(run, p.raw, INGEST_SAMPLES)
    result = {"setup_s": setup_s, "walls": walls, "corpus": p.corpus}
    if traced is not None:
        result["traced_s"] = program_s(run, lambda: lookup_stages(run, "traced", p, calls, traced))
        result["untraced_s"] = walls[0]
    return result


RUNNERS = {"build": run_build, "evaluate": run_evaluate, "lookup": run_lookup}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, result: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and, for the report, each one's sample count."""
    untraced = [c for c in run.calls if c.phase != "traced"]

    def walls(stage):
        return [c.wall_s for c in untraced if c.stage == stage]

    measured = [c for c in untraced if c.phase == "measured"]
    values = {
        "setup_s": (result["setup_s"], SETUP_REPEATS if run.workload == "build" else 1),
        "wall_s": (_median(result["walls"]), len(result["walls"])),
        "peak_rss_mb": (max(c.rss_mb for c in measured), len(measured)),
        "ingest_s": (_median(walls("ingest")), len(walls("ingest"))),
        "train_s": (_median(walls("train")), len(walls("train"))),
    }
    metrics = {name: {"value": v, "unit": "MB" if name.endswith("_mb") else "s"}
               for name, (v, _) in values.items()}
    detail = {"samples": {name: n for name, (_, n) in values.items()}}
    lookups = sorted(c.wall_s for c in untraced if c.stage in ("route", "infer"))
    if lookups:
        detail["lookup_p50_s"] = statistics.median(lookups)
        # the highest of these percentiles that has at least ten samples beyond it
        for pct in (99, 90):
            if len(lookups) * (100 - pct) >= 1000:
                detail[f"lookup_p{pct}_s"] = lookups[math.ceil(pct * len(lookups) / 100) - 1]
                break
    return metrics, detail


def _load_spans(traced: Path) -> tuple[dict[str, dict], dict[str, float]]:
    """Per span name: calls, total and self seconds; plus the summed counters."""
    table: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for path in sorted(traced.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        child_ns: dict[int, int] = {}
        for span_id, parent, _, start, end in doc["spans"]:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for span_id, _, name, start, end in doc["spans"]:
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return table, counters


def per_layer(run: Run, result: dict, traced: Path) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass, plus per-stage RSS from the untraced calls."""
    spans, counters = _load_spans(traced)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def per_call(name, scale, key="s"):
        return total(name, key) * scale / calls(name) if calls(name) else 0.0

    untraced = [c for c in run.calls if c.phase != "traced"]
    m: dict[str, tuple[float, str]] = {}
    m["cli.import_s"] = (import_time(run), "s")
    for stage in CLI_STAGES:
        m[f"cli.{stage}.rss_mb"] = (max((c.rss_mb for c in untraced if c.stage == stage),
                                        default=0.0), "MB")
    for stage in ("profile_cost", "bench", "analyze"):
        m[f"cli.{stage}_s"] = (_median([c.wall_s for c in untraced if c.stage == stage]), "s")
    m["cli.lookup_p50_s"] = (
        _median([c.wall_s for c in untraced if c.stage in ("route", "infer")]), "s")
    m["corpus.load_corpus.s"] = (total("corpus.load_corpus"), "s")
    m["corpus.load_corpus.rss_mb"] = (
        counters.get("corpus.load_corpus.rss_bytes", 0) / MB / max(calls("corpus.load_corpus"), 1),
        "MB")
    m["corpus.write_corpus.s"] = (total("corpus.write_corpus"), "s")
    m["corpus.disk_mb"] = (sum(f.stat().st_size for f in result["corpus"].iterdir()) / MB, "MB")
    m["synthetic.make_raw_records.s"] = (total("synthetic.make_raw_records"), "s")
    for name in ("experts.embed", "experts.generate", "fusion.fuse"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us"] = (per_call(name, 1e6), "us")
    m["fusion.agent_calls_per_fuse"] = (
        calls("fusion.complete") / calls("fusion.fuse") if calls("fusion.fuse") else 0.0, "ratio")
    m["fusion.degraded"] = (counters.get("fusion.fuse.degraded", 0), "count")
    m["ingest.ingest.s"] = (total("ingest.ingest"), "s")
    m["ingest.ingest.self_s"] = (total("ingest.ingest", "self_s"), "s")
    m["ingest.skipped"] = (counters.get("ingest.ingest.skipped", 0), "count")
    m["runconfig.backends_from_corpus.s"] = (total("runconfig.backends_from_corpus"), "s")
    m["gate.load_checkpoint.s"] = (total("gate.load_checkpoint"), "s")
    m["gate.save_checkpoint.s"] = (total("gate.save_checkpoint"), "s")
    m["gate.concat_input.calls"] = (calls("gate.concat_input"), "count")
    m["gate.concat_input.s"] = (total("gate.concat_input"), "s")
    m["gate.forward.calls"] = (calls("gate.forward"), "count")
    m["gate.forward.ms"] = (per_call("gate.forward", 1e3), "ms")
    m["gate.forward_batch.calls"] = (calls("gate.forward_batch"), "count")
    m["gate.forward_batch.rows_per_call"] = (
        counters.get("gate.forward_batch.rows", 0) / calls("gate.forward_batch")
        if calls("gate.forward_batch") else 0.0, "count")
    m["gate.forward_batch.s"] = (total("gate.forward_batch"), "s")
    m["gate.backward_batch.s"] = (total("gate.backward_batch"), "s")
    m["gate.pack_gradients.s"] = (total("gate.pack_gradients"), "s")
    m["numerics.adamw_step.calls"] = (calls("numerics.adamw_step"), "count")
    m["numerics.adamw_step.ms"] = (per_call("numerics.adamw_step", 1e3), "ms")
    # bytes moved by one step (read params, grads, m, v; write m, v, params) over its time
    adamw_s = total("numerics.adamw_step")
    m["numerics.adamw_step.gbps"] = (
        counters.get("numerics.adamw_step.bytes", 0) / adamw_s / 1e9 if adamw_s else 0.0, "GB/s")
    m["numerics.clip_grad_norm.ms"] = (per_call("numerics.clip_grad_norm", 1e3), "ms")
    m["trainer.train.s"] = (total("trainer.train"), "s")
    m["trainer.train.self_s"] = (total("trainer.train", "self_s"), "s")
    m["trainer.optimizer_steps"] = (counters.get("trainer.train.optimizer_steps", 0), "count")
    m["trainer.routed_paths.s"] = (total("trainer.routed_paths"), "s")
    m["engine.route.calls"] = (calls("engine.route"), "count")
    m["engine.route.ms"] = (per_call("engine.route", 1e3), "ms")
    m["engine.infer.calls"] = (calls("engine.infer"), "count")
    m["engine.infer.self_us"] = (per_call("engine.infer", 1e6, "self_s"), "us")
    adaptive = sum(counters.get(f"engine.infer.adaptive.{p}", 0) for p in PATHS)
    for path in PATHS:
        m[f"engine.path_share.{path}"] = (
            counters.get(f"engine.infer.adaptive.{path}", 0) / adaptive if adaptive else 0.0,
            "share")
    m["engine.run_efficiency_bench.s"] = (total("engine.run_efficiency_bench"), "s")
    m["engine.measure_all_costs.s"] = (total("engine.measure_all_costs"), "s")
    m["analysis.outcome_records.s"] = (total("analysis.outcome_records"), "s")
    m["trace.overhead_ratio"] = (result["traced_s"] / result["untraced_s"], "ratio")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}
    return metrics, {"spans": spans, "counters": counters}


def import_time(run: Run) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    walls = []
    for i in range(IMPORT_REPEATS):
        rc, wall, _, _ = run.spawn([sys.executable, "-c", "import tableroute.cli"],
                                run.work / f"import{i}.out")
        run.check(rc == 0, f"import tableroute.cli exited {rc}")
        walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# Machine facts, hash store, entry point
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "platform": platform.platform(),
    }


def compare_with_store(run: Run) -> None:
    """Every run at one seed and size must produce the same output hashes."""
    store = STATE / "hashes" / f"n{run.n_records}-seed{run.seed}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for key, digest in sorted(run.hashes.items()):
        if key in known:
            run.check(known[key] == digest, f"hash of {key} differs from an earlier run")
        else:
            known[key] = digest
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tableroute pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum duration of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_RECORDS} records instead of {README_RECORDS}")
    args = parser.parse_args(argv)

    if not (SRC / "tableroute" / "cli.py").is_file():
        print(f"error: no tableroute sources under {SRC}", file=sys.stderr)
        return 2

    n_records = SMOKE_RECORDS if args.smoke else README_RECORDS
    work = STATE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, n_records, work)
    traced = work / "spans" if args.trace else None
    if traced is not None:
        traced.mkdir()
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "records": n_records, "machine": machine_facts(),
                    "loadavg_1m_before": os.getloadavg()[0]}
    results = STATE / "results"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    metrics: dict = {}
    try:
        result = RUNNERS[args.workload](run, traced)
        metrics, report["end_to_end"] = end_to_end(run, result)
        if traced is not None:
            metrics, report["per_layer"] = per_layer(run, result, traced)
            shutil.rmtree(results / f"{name}-spans", ignore_errors=True)
            shutil.copytree(traced, results / f"{name}-spans")
        compare_with_store(run)
    except StageFailed as e:
        report["error"] = str(e)
    except Exception:  # a malformed output is a failed check; report it, do not crash
        report["error"] = traceback.format_exc()
        run.check(False, "the run's checks raised an exception")
    finally:
        report["loadavg_1m_after"] = os.getloadavg()[0]
        report["calls"] = [asdict(c) for c in run.calls]
        report["hashes"] = run.hashes
        report["failures"] = run.failures
        shutil.rmtree(work, ignore_errors=True)

    ok = not run.failures and "error" not in report
    summary = {"correct": ok, "attempted": run.attempted, "failed": len(run.failures),
               "metrics": metrics if ok else {}}
    report["result"] = summary
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(report, indent=1, default=str))
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
