"""Policy diagnostics: complementarity, case partition, synergy, heuristic
alignment, and the resource-weight sweep.

Each diagnostic reads the examples' `[N, 3]` 0/1 path-score matrix `S`
(columns text, image, fusion; `trainer.score_matrix`) and, where routing
matters, the `[N]` chosen path indices. Counts are Python ints, and each
percentage is `100.0 * count / n`."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import RoutingExample
from .errors import InvalidArgumentError, UndefinedRateError
from .gate import GateParameters
from .paths import PathCostVector
from .trainer import TrainConfig, routed_paths, score_matrix, train


def _columns(S: np.ndarray) -> np.ndarray:
    """The text, image and fusion columns of `S`, as booleans."""
    return np.asarray(S, dtype=bool).reshape(-1, 3).T


def _percent(mask: np.ndarray) -> float:
    if len(mask) == 0:
        raise InvalidArgumentError("no examples to take a percentage of")
    return 100.0 * int(np.count_nonzero(mask)) / len(mask)


def complementarity_rate(S: np.ndarray) -> float:
    """Percentage of instances solved by exactly one unimodal path."""
    text, image, _ = _columns(S)
    return _percent(text != image)


@dataclass(frozen=True)
class CasePartition:
    """Five exclusive buckets, in percent, summing to 100."""

    both_correct: float
    only_text: float
    only_image: float
    both_wrong_rescued: float
    both_wrong_unsolved: float


def case_partition(S: np.ndarray) -> CasePartition:
    """Partition instances by which path(s) produced a correct answer."""
    text, image, fusion = _columns(S)
    hard = ~text & ~image
    buckets = (text & image, text & ~image, ~text & image, hard & fusion, hard & ~fusion)
    return CasePartition(*map(_percent, buckets))


def synergy_success_rate(S: np.ndarray) -> float:
    """Percentage of both-unimodal-wrong cases rescued by the fusion path."""
    text, image, fusion = _columns(S)
    hard = ~text & ~image
    if not hard.any():
        raise UndefinedRateError("no hard cases (both unimodal paths wrong) in records")
    return _percent(fusion[hard])


def greedy_paths(S: np.ndarray) -> np.ndarray:
    """Per row, the cheapest path known to solve it: text, then image, else fusion."""
    text, image, _ = _columns(S)
    return np.where(text, 0, np.where(image, 1, 2))


def heuristic_alignment(S: np.ndarray, chosen: np.ndarray) -> float:
    """Percentage of routing decisions matching the greedy cheapest-correct rule."""
    return _percent(np.asarray(chosen) == greedy_paths(S))


def outcome_records(
    gate: GateParameters,
    data: Sequence[RoutingExample],
    costs: PathCostVector,
) -> tuple[np.ndarray, np.ndarray]:
    """Route `data` with the gate: its score matrix `S` and the chosen paths."""
    return score_matrix(data), routed_paths(gate, data, costs)


@dataclass(frozen=True)
class SweepRow:
    resource_weight: float
    path_distribution: tuple[float, float, float]
    routing_accuracy: float
    expected_cost: float
    heuristic_alignment_pct: float
    mean_task_performance: float


def mean_task_performance(data: Sequence[RoutingExample], chosen: np.ndarray) -> float:
    """Unweighted mean over datasets of per-dataset routed accuracy."""
    hits = score_matrix(data)[np.arange(len(data)), chosen]
    datasets = np.array([ex.dataset for ex in data])
    return float(np.mean([hits[datasets == d].mean() for d in sorted(set(datasets))]))


def lambda_sweep(
    train_examples: Sequence[RoutingExample],
    val_examples: Sequence[RoutingExample],
    resource_weights: Sequence[float],
    base_cfg: TrainConfig,
    costs: PathCostVector,
) -> list[SweepRow]:
    """Train one gate per resource weight (shared seed) and report the
    resulting path mix, policy metrics, and heuristic alignment on the
    validation split, as `train` routed it for the gate it returns."""
    if not resource_weights:
        raise InvalidArgumentError("lambda_sweep: empty resource weight list")
    if not val_examples:
        raise InvalidArgumentError("lambda_sweep: empty validation split")
    S = score_matrix(val_examples)
    rows = []
    for weight in resource_weights:
        cfg = replace(base_cfg, resource_weight=float(weight))
        result = train(train_examples, val_examples, cfg, costs)
        policy = result.val_metrics
        rows.append(
            SweepRow(
                resource_weight=float(weight),
                path_distribution=policy.path_distribution,
                routing_accuracy=policy.routing_accuracy,
                expected_cost=policy.expected_cost,
                heuristic_alignment_pct=heuristic_alignment(S, result.val_paths),
                mean_task_performance=mean_task_performance(val_examples, result.val_paths),
            )
        )
    return rows
