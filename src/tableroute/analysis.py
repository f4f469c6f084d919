"""Policy diagnostics: complementarity, case partition, synergy, heuristic
alignment, and the resource-weight sweep."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import RoutingExample, split_by_dataset
from .errors import IncompleteDataError, InvalidArgumentError, UndefinedRateError
from .fileio import write_lines
from .gate import GateParameters
from .paths import PATH_NAMES, PathCostVector
from .trainer import PolicyEval, TrainConfig, evaluate_policy, routed_paths, train


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-instance outcome of the two unimodal paths plus the routed result."""

    example_id: str
    text_correct: bool
    image_correct: bool
    fusion_correct: bool | None = None
    chosen_path: str | None = None
    final_correct: bool | None = None


def complementarity_rate(records: Sequence[OutcomeRecord]) -> float:
    """Percentage of instances solved by exactly one unimodal path."""
    if not records:
        raise InvalidArgumentError("complementarity_rate: no records")
    hits = sum(1 for r in records if r.text_correct != r.image_correct)
    return 100.0 * hits / len(records)


@dataclass(frozen=True)
class CasePartition:
    """Five exclusive buckets, in percent, summing to 100."""

    both_correct: float
    only_text: float
    only_image: float
    both_wrong_rescued: float
    both_wrong_unsolved: float


def case_partition(records: Sequence[OutcomeRecord]) -> CasePartition:
    """Partition instances by which path(s) produced a correct answer."""
    if not records:
        raise InvalidArgumentError("case_partition: no records")
    counts = [0, 0, 0, 0, 0]
    for r in records:
        if r.text_correct and r.image_correct:
            counts[0] += 1
        elif r.text_correct:
            counts[1] += 1
        elif r.image_correct:
            counts[2] += 1
        else:
            if r.fusion_correct is None:
                raise IncompleteDataError(
                    f"record {r.example_id}: both unimodal paths wrong but no fusion label"
                )
            counts[3 if r.fusion_correct else 4] += 1
    pct = [100.0 * c / len(records) for c in counts]
    return CasePartition(*pct)


def synergy_success_rate(records: Sequence[OutcomeRecord]) -> float:
    """Percentage of both-unimodal-wrong cases rescued by the fusion path."""
    hard = [r for r in records if not r.text_correct and not r.image_correct]
    if not hard:
        raise UndefinedRateError("no hard cases (both unimodal paths wrong) in records")
    for r in hard:
        if r.fusion_correct is None:
            raise IncompleteDataError(
                f"record {r.example_id}: hard case without a fusion label"
            )
    rescued = sum(1 for r in hard if r.fusion_correct)
    return 100.0 * rescued / len(hard)


def greedy_choice(text_correct: bool, image_correct: bool) -> str:
    """Cheapest path known to solve the instance; fusion when neither does."""
    if text_correct:
        return "text"
    if image_correct:
        return "image"
    return "fusion"


def heuristic_alignment(records: Sequence[OutcomeRecord]) -> float:
    """Percentage of routing decisions matching the greedy cheapest-correct rule."""
    if not records:
        raise InvalidArgumentError("heuristic_alignment: no records")
    aligned = 0
    for r in records:
        if r.chosen_path is None:
            raise IncompleteDataError(f"record {r.example_id}: no routing decision")
        if r.chosen_path == greedy_choice(r.text_correct, r.image_correct):
            aligned += 1
    return 100.0 * aligned / len(records)


def outcome_records(
    gate: GateParameters,
    data: Sequence[RoutingExample],
    costs: PathCostVector,
) -> list[OutcomeRecord]:
    """Route `data` with the gate and join with the per-path score labels."""
    chosen = routed_paths(gate, data, costs)
    out = []
    for ex, idx in zip(data, chosen):
        s = ex.path_scores
        out.append(
            OutcomeRecord(
                example_id=ex.id,
                text_correct=bool(s[0]),
                image_correct=bool(s[1]),
                fusion_correct=bool(s[2]),
                chosen_path=PATH_NAMES[idx],
                final_correct=bool(s[idx]),
            )
        )
    return out


@dataclass(frozen=True)
class SweepRow:
    resource_weight: float
    path_distribution: tuple[float, float, float]
    routing_accuracy: float
    expected_cost: float
    heuristic_alignment_pct: float
    mean_task_performance: float


def mean_task_performance(records: Sequence[OutcomeRecord], data: Sequence[RoutingExample]) -> float:
    """Unweighted mean over datasets of per-dataset routed accuracy."""
    by_id = {r.example_id: r for r in records}
    per_dataset = []
    for dataset, group in sorted(split_by_dataset(data).items()):
        vals = [1.0 if by_id[ex.id].final_correct else 0.0 for ex in group]
        per_dataset.append(float(np.mean(vals)))
    return float(np.mean(per_dataset))


def lambda_sweep(
    train_examples: Sequence[RoutingExample],
    val_examples: Sequence[RoutingExample],
    resource_weights: Sequence[float],
    base_cfg: TrainConfig,
    costs: PathCostVector,
) -> list[SweepRow]:
    """Train one gate per resource weight (shared seed) and report the
    resulting path mix, policy metrics, and heuristic alignment."""
    if not resource_weights:
        raise InvalidArgumentError("lambda_sweep: empty resource weight list")
    rows = []
    for weight in resource_weights:
        cfg = replace(base_cfg, resource_weight=float(weight))
        # Only the weights are kept, so the optimizer moments of one gate
        # are freed before the next gate trains.
        params = train(train_examples, val_examples, cfg, costs).params
        policy: PolicyEval = evaluate_policy(params, val_examples, costs)
        records = outcome_records(params, val_examples, costs)
        rows.append(
            SweepRow(
                resource_weight=float(weight),
                path_distribution=policy.path_distribution,
                routing_accuracy=policy.routing_accuracy,
                expected_cost=policy.expected_cost,
                heuristic_alignment_pct=heuristic_alignment(records),
                mean_task_performance=mean_task_performance(records, val_examples),
            )
        )
    return rows


def write_path_distribution_csv(rows: Sequence[SweepRow], path) -> None:
    lines = ["resource_weight,text_share,image_share,fusion_share"]
    for r in rows:
        d = r.path_distribution
        lines.append(f"{r.resource_weight!r},{d[0]!r},{d[1]!r},{d[2]!r}")
    write_lines(path, lines)


def write_alignment_csv(rows: Sequence[SweepRow], path) -> None:
    lines = [
        "resource_weight,heuristic_alignment_pct,mean_task_performance,"
        "routing_accuracy,expected_cost"
    ]
    for r in rows:
        lines.append(
            f"{r.resource_weight!r},{r.heuristic_alignment_pct!r},"
            f"{r.mean_task_performance!r},{r.routing_accuracy!r},{r.expected_cost!r}"
        )
    write_lines(path, lines)
