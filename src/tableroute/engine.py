"""Adaptive inference pipeline, cost measurement, and the efficiency bench.

Per-instance latency is accounted in three phases:
    phase 1  parallel feature extraction: max of the three embedding times
    phase 2  gating (zero in non-adaptive mode)
    phase 3  generation: the chosen expert's time on a unimodal path, or
             max of both generation times plus the agent call on fusion
and the reported parallel latency is the sum of the three phases. Timings
are combined by formula from per-task durations, so results are identical
whether the tasks actually ran concurrently or not.
"""
from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import RoutingExample, split_by_dataset
from .errors import FusionUnavailableError, InferenceError, InvalidArgumentError, TableRouteError
from .experts import EmbeddingBackend, ExpertOutput, GenerationBackend, stable_digest64
from .fileio import write_lines
from .fusion import AgentBackend, FusionRequest, FusionResult, fuse
from .gate import GateParameters, compute_params, concat_input, forward_batch
from .numerics import softmax
from .paths import (
    INPUT_DIM,
    PATH_FUSION,
    PATH_IMAGE,
    PATH_NAMES,
    PATH_TEXT,
    DEFAULT_PATH_COSTS,
    QUESTION_DIM,
    TEXT_DIM,
    PathCostVector,
    choose_paths,
)
from .runconfig import BenchConfig, EngineConfig

MODE_ADAPTIVE = "adaptive"
MODE_NON_ADAPTIVE = "non_adaptive"


@dataclass
class EngineBackends:
    question_embedder: EmbeddingBackend
    text_embedder: EmbeddingBackend
    vision_embedder: EmbeddingBackend
    text_generator: GenerationBackend
    image_generator: GenerationBackend

    @property
    def embedders(self) -> tuple[EmbeddingBackend, EmbeddingBackend, EmbeddingBackend]:
        return self.question_embedder, self.text_embedder, self.vision_embedder


@dataclass(frozen=True)
class RouteDecision:
    path: str
    path_index: int
    logits: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class InferenceRecord:
    example_id: str
    chosen_path: str
    t_phase1: float
    t_phase2: float
    t_phase3: float
    parallel_latency: float
    final_answer: str
    output_tokens: int
    fusion_role: str | None = None
    degraded: bool = False

    def __post_init__(self):
        phases = self.t_phase1 + self.t_phase2 + self.t_phase3
        if abs(self.parallel_latency - phases) > 1e-9:
            raise InvalidArgumentError(
                f"parallel latency {self.parallel_latency} is not the phase sum {phases}"
            )
        if min(self.t_phase1, self.t_phase2, self.t_phase3) < 0:
            raise InvalidArgumentError("phase times must be >= 0")


def route_batch(
    gate: GateParameters,
    X: np.ndarray,
    costs: PathCostVector = DEFAULT_PATH_COSTS,
    gate_temperature: float = 1.0,
) -> list[RouteDecision]:
    """Pick a path for each row of the [B, 10,112] gate input `X` with one
    float64 gate call (`compute_params`): `choose_paths` over the logits,
    so ties go to the cheaper path. Non-finite inputs are rejected."""
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("gate input: non-finite entries")
    Z, _ = forward_batch(compute_params(gate), X, mode="eval")
    return [RouteDecision(PATH_NAMES[i], int(i), z, p)
            for i, z, p in zip(choose_paths(Z, costs), Z, softmax(Z, gate_temperature))]


def route(
    gate: GateParameters,
    x: np.ndarray,
    costs: PathCostVector = DEFAULT_PATH_COSTS,
    gate_temperature: float = 1.0,
) -> RouteDecision:
    """Route the one 10,112-dim gate input `x`: a one-row `route_batch`."""
    return route_batch(gate, np.ravel(x)[None, :], costs, gate_temperature)[0]


# Rows per `embed_examples` call when a caller embeds a whole corpus: bounds
# the float32 rows held at once (64 rows are 2.6 MB).
EMBED_BLOCK_ROWS = 64


def embed_examples(
    examples: Sequence[RoutingExample],
    embedders: Sequence[EmbeddingBackend],
    nonce: int = 0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float]]:
    """The examples' float32 gate input rows [B, 10,112], written into `out`
    if given, and each one's phase-1 time, the slowest of its three
    embedding calls. `embedders` are the question, text and vision
    embedders, in that order; each embeds the whole batch in one call,
    straight into its columns of the rows."""
    X = np.empty((len(examples), INPUT_DIM), dtype=np.float32) if out is None else out
    serialized = [ex.table.serialize() for ex in examples]
    payloads = ([ex.question for ex in examples], serialized,
                [s.encode("utf-8") for s in serialized])
    tags = [ex.dataset for ex in examples]
    columns = np.split(X, [QUESTION_DIM, QUESTION_DIM + TEXT_DIM], axis=1)
    parts, times = zip(*(
        embedder.embed_timed(p, tags, nonce, out=c)
        for embedder, p, c in zip(embedders, payloads, columns, strict=True)
    ))
    return concat_input(*parts, out=X), [max(t) for t in zip(*times)]


def _embed_phase(
    examples: Sequence[RoutingExample], embedders: Sequence[EmbeddingBackend], nonce: int
) -> tuple[np.ndarray, list[float]]:
    """`embed_examples`, with a backend failure raised as InferenceError
    naming the embedding phase and the examples."""
    try:
        return embed_examples(examples, embedders, nonce)
    except TableRouteError as e:
        ids = ", ".join(ex.id for ex in examples)
        raise InferenceError(f"backend failure in the embedding phase for example "
                             f"{ids}: {e}") from e


def _generate(
    backend: GenerationBackend, example: RoutingExample, nonce: int
) -> ExpertOutput:
    return backend.generate(
        example.table_markdown,
        example.question,
        example_id=example.id,
        gold_answer=example.gold_answer,
        dataset_tag=example.dataset,
        nonce=nonce,
    )


def generate_both(
    example: RoutingExample, backends: EngineBackends, nonce: int = 0
) -> tuple[ExpertOutput, ExpertOutput]:
    """The text expert's output, then the image expert's."""
    return (
        _generate(backends.text_generator, example, nonce),
        _generate(backends.image_generator, example, nonce),
    )


def fuse_outputs(
    example: RoutingExample,
    text_output: ExpertOutput,
    vision_output: ExpertOutput,
    agent: AgentBackend,
) -> FusionResult:
    """The fusion agent's answer to the example from both expert outputs."""
    request = FusionRequest(
        question=example.question,
        table_markdown=example.table_markdown,
        text_output=text_output,
        vision_output=vision_output,
        dataset_tag=example.dataset,
    )
    context = {"example_id": example.id, "gold_answer": example.gold_answer}
    return fuse(request, agent, context=context)


def infer(
    example: RoutingExample,
    gate: GateParameters | None,
    backends: EngineBackends,
    agent: AgentBackend,
    costs: PathCostVector = DEFAULT_PATH_COSTS,
    cfg: EngineConfig = EngineConfig(),
    mode: str = MODE_ADAPTIVE,
    nonce: int = 0,
) -> InferenceRecord:
    """Run one routed inference: a one-example `infer_batch`."""
    return infer_batch([example], gate, backends, agent, costs, cfg, mode, nonce)[0]


def infer_batch(
    examples: Sequence[RoutingExample],
    gate: GateParameters | None,
    backends: EngineBackends,
    agent: AgentBackend,
    costs: PathCostVector = DEFAULT_PATH_COSTS,
    cfg: EngineConfig = EngineConfig(),
    mode: str = MODE_ADAPTIVE,
    nonce: int = 0,
) -> list[InferenceRecord]:
    """Run routed inferences and account each one's three-phase parallel
    latency.

    Every example is embedded first, in one `embed_examples` call; adaptive
    mode then routes all of them with one gate call; generation and fusion
    follow per example, in order. `mode="non_adaptive"` bypasses the gate
    (phase 2 is zero) and always takes the fusion path. In `wallclock`
    timing every example's phase 2 is the wall time of the one gate call,
    which each of them waited for.
    """
    if mode not in (MODE_ADAPTIVE, MODE_NON_ADAPTIVE):
        raise InvalidArgumentError(f"unknown engine mode {mode!r}")
    if mode == MODE_ADAPTIVE and gate is None:
        raise InvalidArgumentError("adaptive mode needs a trained gate")
    if not examples:
        return []
    X, t1 = _embed_phase(examples, backends.embedders, nonce)
    return _infer_embedded(examples, X, t1, gate, backends, agent, costs, cfg, mode, nonce)


def _infer_embedded(
    examples: Sequence[RoutingExample],
    X: np.ndarray,
    t1: Sequence[float],
    gate: GateParameters | None,
    backends: EngineBackends,
    agent: AgentBackend,
    costs: PathCostVector,
    cfg: EngineConfig,
    mode: str,
    nonce: int,
) -> list[InferenceRecord]:
    """`infer_batch` after the embedding step: `X` and `t1` are the
    examples' `embed_examples` rows and phase-1 times."""
    if mode == MODE_ADAPTIVE:
        start = time.monotonic()
        decisions = route_batch(gate, X, costs, cfg.gate_temperature)
        t2 = time.monotonic() - start if cfg.timing == "wallclock" else cfg.gate_latency_s
        path_indices = [d.path_index for d in decisions]
    else:
        t2 = 0.0
        path_indices = [PATH_FUSION] * len(examples)

    return [
        _generate_phase(ex, path_idx, t, t2, backends, agent, nonce)
        for ex, t, path_idx in zip(examples, t1, path_indices)
    ]


def _generate_phase(
    example: RoutingExample,
    path_idx: int,
    t1: float,
    t2: float,
    backends: EngineBackends,
    agent: AgentBackend,
    nonce: int,
) -> InferenceRecord:
    partial = {
        "example_id": example.id,
        "chosen_path": PATH_NAMES[path_idx],
        "t_phase1": t1,
        "t_phase2": t2,
    }

    fusion_role: str | None = None
    degraded = False
    try:
        if path_idx in (PATH_TEXT, PATH_IMAGE):
            backend = backends.text_generator if path_idx == PATH_TEXT else backends.image_generator
            out = _generate(backend, example, nonce)
            t3 = out.latency_seconds
            final = out.answer
            tokens = out.output_tokens
        else:
            out_t, out_v = generate_both(example, backends, nonce)
            gen_time = max(out_t.latency_seconds, out_v.latency_seconds)
            try:
                fres = fuse_outputs(example, out_t, out_v, agent)
                t3 = gen_time + fres.api_latency_seconds
                final = fres.final_answer
                tokens = fres.output_tokens
                fusion_role = fres.role
                degraded = fres.degraded
            except FusionUnavailableError:
                # agent unreachable after retries: degrade to the text expert
                t3 = gen_time
                final = out_t.answer
                tokens = out_t.output_tokens
                degraded = True
    except TableRouteError as e:
        raise InferenceError(
            f"backend failure on {PATH_NAMES[path_idx]} path for example {example.id}: {e}",
            partial_record=partial,
        ) from e

    return InferenceRecord(
        example_id=example.id,
        chosen_path=PATH_NAMES[path_idx],
        t_phase1=t1,
        t_phase2=t2,
        t_phase3=t3,
        parallel_latency=t1 + t2 + t3,
        final_answer=final,
        output_tokens=tokens,
        fusion_role=fusion_role,
        degraded=degraded,
    )


# ---------------------------------------------------------------------------
# Path cost measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostMeasurement:
    path: str
    avg_latency_seconds: float
    avg_tps: float
    cost: float


def path_cost(avg_latency_seconds: float, avg_tps: float) -> float:
    """Composite path cost: 0.5 * latency + 0.5 / throughput."""
    if avg_latency_seconds <= 0 or avg_tps <= 0:
        raise InvalidArgumentError("latency and TPS must be > 0")
    return 0.5 * avg_latency_seconds + 0.5 * (1.0 / avg_tps)


def fusion_cost_inputs(
    text_latency: float, text_tps: float, image_latency: float, image_tps: float,
    api_overhead_s: float = EngineConfig.fusion_api_overhead_s,
) -> tuple[float, float]:
    """Fusion (latency, TPS) derived from the unimodal measurements.

    Latency assumes the two generators run in parallel plus the agent call;
    TPS is inherited from the slower (higher latency) model.
    """
    latency = max(text_latency, image_latency) + api_overhead_s
    tps = image_tps if image_latency >= text_latency else text_tps
    return latency, tps


def _tps(out: ExpertOutput) -> float:
    return out.output_tokens / out.latency_seconds


def measure_all_costs(
    testbed: Sequence[RoutingExample],
    backends: EngineBackends,
    warmup_runs: int = 5,
    timed_runs: int = 10,
    api_overhead_s: float = EngineConfig.fusion_api_overhead_s,
) -> tuple[PathCostVector, list[CostMeasurement]]:
    """Measure each path's average latency and TPS over the testbed.

    Runs `warmup_runs` discarded iterations, then `timed_runs` timed ones;
    each iteration runs both generators once on every testbed sample. Per-run
    means are averaged across the timed runs. The fusion row is derived from
    the two unimodal outputs per `fusion_cost_inputs`.
    """
    if not testbed:
        raise InvalidArgumentError("measure_all_costs: empty testbed")
    if timed_runs <= 0 or warmup_runs < 0:
        raise InvalidArgumentError("measure_all_costs: need timed_runs > 0 and warmup_runs >= 0")

    # Each path's (mean latency, mean TPS) of every timed run, in path order.
    run_means: list[list[tuple[float, float]]] = [[] for _ in PATH_NAMES]
    for run in range(warmup_runs + timed_runs):
        samples = []
        for ex in testbed:
            out_t, out_v = generate_both(ex, backends, run)
            text = (out_t.latency_seconds, _tps(out_t))
            image = (out_v.latency_seconds, _tps(out_v))
            samples.append((text, image, fusion_cost_inputs(*text, *image, api_overhead_s)))
        if run >= warmup_runs:
            for means, path_samples in zip(run_means, zip(*samples)):
                lats, tpss = zip(*path_samples)
                means.append((float(np.mean(lats)), float(np.mean(tpss))))

    measurements = []
    for path, means in zip(PATH_NAMES, run_means):
        lats, tpss = zip(*means)
        avg_latency, avg_tps = float(np.mean(lats)), float(np.mean(tpss))
        measurements.append(CostMeasurement(path, avg_latency, avg_tps,
                                            path_cost(avg_latency, avg_tps)))
    return PathCostVector(tuple(m.cost for m in measurements)), measurements


# ---------------------------------------------------------------------------
# Efficiency benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    dataset: str
    mode: str
    seed: int | str
    mean_latency_s: float
    mean_tps: float


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    summary: list[BenchRow] = field(default_factory=list)
    # Degraded inferences per (dataset, mode), over all seeds.
    degraded: Counter[tuple[str, str]] = field(default_factory=Counter)


def run_efficiency_bench(
    examples: Sequence[RoutingExample],
    gate: GateParameters,
    backends: EngineBackends,
    agent: AgentBackend,
    costs: PathCostVector = DEFAULT_PATH_COSTS,
    bench_cfg: BenchConfig = BenchConfig(),
    engine_cfg: EngineConfig = EngineConfig(),
) -> BenchReport:
    """Per-dataset latency/TPS for adaptive routing vs. always-fusion.

    Stratified sampling of `n_per_dataset` examples per dataset per seed;
    per-sample TPS is output_tokens / parallel_latency; per-cell means are
    averaged across seeds into summary rows, and each cell's degraded
    inferences are counted in `degraded`.
    """
    report = BenchReport()
    groups = split_by_dataset(examples)
    cell_values: dict[tuple[str, str], list[tuple[float, float]]] = {}

    for seed in bench_cfg.seeds:
        for dataset in sorted(groups):
            pool = sorted(groups[dataset], key=lambda e: e.id)
            n = min(bench_cfg.n_per_dataset, len(pool))
            if n < bench_cfg.n_per_dataset:
                warnings.warn(
                    f"dataset {dataset}: only {len(pool)} examples available, "
                    f"wanted {bench_cfg.n_per_dataset}; continuing with {n}"
                )
            rng = np.random.Generator(np.random.PCG64(stable_digest64("bench", seed, dataset)))
            idx = rng.choice(len(pool), size=n, replace=False)
            sample = [pool[i] for i in sorted(idx.tolist())]
            # Both modes embed the sample alike, so it is embedded once.
            X, t1 = _embed_phase(sample, backends.embedders, seed)
            for mode in (MODE_ADAPTIVE, MODE_NON_ADAPTIVE):
                records = _infer_embedded(
                    sample, X, t1, gate, backends, agent, costs, engine_cfg, mode, seed
                )
                mean_latency = float(np.mean([r.parallel_latency for r in records]))
                mean_tps = float(
                    np.mean([r.output_tokens / r.parallel_latency for r in records])
                )
                report.rows.append(BenchRow(dataset, mode, seed, mean_latency, mean_tps))
                report.degraded[dataset, mode] += sum(r.degraded for r in records)
                cell_values.setdefault((dataset, mode), []).append((mean_latency, mean_tps))

    for (dataset, mode), vals in sorted(cell_values.items()):
        lat = float(np.mean([v[0] for v in vals]))
        tps = float(np.mean([v[1] for v in vals]))
        report.summary.append(BenchRow(dataset, mode, "avg", lat, tps))
    return report


def write_bench_csv(report: BenchReport, path) -> None:
    lines = ["dataset,mode,seed,mean_latency_s,mean_tps"]
    for row in report.rows + report.summary:
        lines.append(
            f"{row.dataset},{row.mode},{row.seed},{row.mean_latency_s!r},{row.mean_tps!r}"
        )
    write_lines(path, lines)
