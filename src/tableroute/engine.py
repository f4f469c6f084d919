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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import RoutingExample, split_by_dataset
from .errors import (
    ConfigurationError,
    FusionUnavailableError,
    InferenceError,
    InvalidArgumentError,
    TransportError,
)
from .experts import EmbeddingBackend, ExpertOutput, GenerationBackend, stable_digest64
from .fileio import write_lines
from .fusion import AgentBackend, FusionRequest, FusionResult, fuse
from .gate import GateParameters, compute_params, concat_input, forward_batch
from .numerics import softmax
from .paths import (
    PATH_FUSION,
    PATH_IMAGE,
    PATH_NAMES,
    PATH_TEXT,
    DEFAULT_PATH_COSTS,
    PathCostVector,
    argmax_with_tiebreak,
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
    float64 gate call (`compute_params`), by argmax over that row's logits;
    ties go to the cheaper path. Non-finite inputs are rejected."""
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError("gate input: non-finite entries")
    Z, _ = forward_batch(compute_params(gate), X, mode="eval")
    decisions = []
    for z in Z:
        idx = argmax_with_tiebreak(z, costs)
        decisions.append(RouteDecision(
            path=PATH_NAMES[idx],
            path_index=idx,
            logits=z,
            probabilities=softmax(z, gate_temperature),
        ))
    return decisions


def route(
    gate: GateParameters,
    x: np.ndarray,
    costs: PathCostVector = DEFAULT_PATH_COSTS,
    gate_temperature: float = 1.0,
) -> RouteDecision:
    """Route the one 10,112-dim gate input `x`: a one-row `route_batch`."""
    return route_batch(gate, np.ravel(x)[None, :], costs, gate_temperature)[0]


def embed_example(
    example: RoutingExample, embedders: Sequence[EmbeddingBackend], nonce: int = 0
) -> tuple[np.ndarray, float]:
    """The example's gate input row and its phase-1 time, the slowest of the
    three embedding calls. `embedders` are the question, text and vision
    embedders, in that order."""
    serialized = example.table.serialize()
    question, text, vision = embedders
    e_q, t_q = question.embed_timed(example.question, tag=example.dataset, nonce=nonce)
    e_t, t_t = text.embed_timed(serialized, tag=example.dataset, nonce=nonce)
    e_v, t_v = vision.embed_timed(serialized.encode("utf-8"), tag=example.dataset, nonce=nonce)
    return concat_input(e_q, e_t, e_v), max(t_q, t_t, t_v)


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

    Every example is embedded first, in order; adaptive mode then routes all
    of them with one gate call; generation and fusion follow per example, in
    order. `mode="non_adaptive"` bypasses the gate (phase 2 is zero) and
    always takes the fusion path. In `wallclock` timing every example's
    phase 2 is the wall time of the one gate call, which each of them waited
    for.
    """
    if mode not in (MODE_ADAPTIVE, MODE_NON_ADAPTIVE):
        raise InvalidArgumentError(f"unknown engine mode {mode!r}")
    if mode == MODE_ADAPTIVE and gate is None:
        raise InvalidArgumentError("adaptive mode needs a trained gate")
    if not examples:
        return []
    embedded = [embed_example(ex, backends.embedders, nonce) for ex in examples]
    return _infer_embedded(examples, embedded, gate, backends, agent, costs, cfg, mode, nonce)


def _infer_embedded(
    examples: Sequence[RoutingExample],
    embedded: Sequence[tuple[np.ndarray, float]],
    gate: GateParameters | None,
    backends: EngineBackends,
    agent: AgentBackend,
    costs: PathCostVector,
    cfg: EngineConfig,
    mode: str,
    nonce: int,
) -> list[InferenceRecord]:
    """`infer_batch` after the embedding step: `embedded` holds each
    example's `embed_example` row and phase-1 time."""
    if mode == MODE_ADAPTIVE:
        start = time.monotonic()
        decisions = route_batch(
            gate, np.stack([x for x, _ in embedded]), costs, cfg.gate_temperature
        )
        t2 = time.monotonic() - start if cfg.timing == "wallclock" else cfg.gate_latency_s
        path_indices = [d.path_index for d in decisions]
    else:
        t2 = 0.0
        path_indices = [PATH_FUSION] * len(examples)

    return [
        _generate_phase(ex, path_idx, t1, t2, backends, agent, nonce)
        for ex, (_, t1), path_idx in zip(examples, embedded, path_indices)
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
    except (ConfigurationError, TransportError) as e:
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

    def __post_init__(self):
        expected = path_cost(self.avg_latency_seconds, self.avg_tps)
        if abs(self.cost - expected) > 1e-6:
            raise InvalidArgumentError("cost does not match the latency/TPS blend")


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


def measure_cost(
    path: str,
    testbed: Sequence[RoutingExample],
    backends: EngineBackends,
    warmup_runs: int = 5,
    timed_runs: int = 10,
    api_overhead_s: float = EngineConfig.fusion_api_overhead_s,
) -> CostMeasurement:
    """Measure one path's average latency and TPS over the testbed.

    Runs `warmup_runs` discarded iterations, then `timed_runs` timed ones;
    each iteration processes every testbed sample. Per-run means are averaged
    across the timed runs. The fusion row is derived from the two unimodal
    generators per `fusion_cost_inputs`.
    """
    if path not in PATH_NAMES:
        raise InvalidArgumentError(f"unknown path {path!r}")
    if not testbed:
        raise InvalidArgumentError("measure_cost: empty testbed")
    if timed_runs <= 0 or warmup_runs < 0:
        raise InvalidArgumentError("measure_cost: need timed_runs > 0 and warmup_runs >= 0")

    generators = {"text": backends.text_generator, "image": backends.image_generator}
    run_latency: list[float] = []
    run_tps: list[float] = []
    for run in range(warmup_runs + timed_runs):
        lats, tpss = [], []
        for ex in testbed:
            if path == "fusion":
                out_t, out_v = generate_both(ex, backends, run)
                lat, tps = fusion_cost_inputs(
                    out_t.latency_seconds, _tps(out_t),
                    out_v.latency_seconds, _tps(out_v),
                    api_overhead_s,
                )
            else:
                out = _generate(generators[path], ex, run)
                lat, tps = out.latency_seconds, _tps(out)
            lats.append(lat)
            tpss.append(tps)
        if run >= warmup_runs:
            run_latency.append(float(np.mean(lats)))
            run_tps.append(float(np.mean(tpss)))

    avg_latency = float(np.mean(run_latency))
    avg_tps = float(np.mean(run_tps))
    return CostMeasurement(
        path=path,
        avg_latency_seconds=avg_latency,
        avg_tps=avg_tps,
        cost=path_cost(avg_latency, avg_tps),
    )


def measure_all_costs(
    testbed: Sequence[RoutingExample],
    backends: EngineBackends,
    **kwargs,
) -> tuple[PathCostVector, list[CostMeasurement]]:
    measurements = [measure_cost(p, testbed, backends, **kwargs) for p in PATH_NAMES]
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
    warnings: list[str] = field(default_factory=list)


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
    averaged across seeds into summary rows.
    """
    report = BenchReport()
    groups = split_by_dataset(examples)
    cell_values: dict[tuple[str, str], list[tuple[float, float]]] = {}

    for seed in bench_cfg.seeds:
        for dataset in sorted(groups):
            pool = sorted(groups[dataset], key=lambda e: e.id)
            n = min(bench_cfg.n_per_dataset, len(pool))
            if n < bench_cfg.n_per_dataset:
                msg = (
                    f"dataset {dataset}: only {len(pool)} examples available, "
                    f"wanted {bench_cfg.n_per_dataset}; continuing with {n}"
                )
                warnings.warn(msg)
                report.warnings.append(msg)
            rng = np.random.Generator(np.random.PCG64(stable_digest64("bench", seed, dataset)))
            idx = rng.choice(len(pool), size=n, replace=False)
            sample = [pool[i] for i in sorted(idx.tolist())]
            # Both modes embed the sample alike, so it is embedded once.
            embedded = [embed_example(ex, backends.embedders, seed) for ex in sample]
            for mode in (MODE_ADAPTIVE, MODE_NON_ADAPTIVE):
                records = _infer_embedded(
                    sample, embedded, gate, backends, agent, costs, engine_cfg, mode, seed
                )
                mean_latency = float(np.mean([r.parallel_latency for r in records]))
                mean_tps = float(
                    np.mean([r.output_tokens / r.parallel_latency for r in records])
                )
                report.rows.append(BenchRow(dataset, mode, seed, mean_latency, mean_tps))
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
