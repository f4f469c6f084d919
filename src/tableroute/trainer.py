"""Gate policy training.

The objective per instance is
    loss_total = loss_task + resource_weight * loss_resource
where loss_task is the KL divergence from the soft target distribution
softmax(path_scores / target_temperature) to the gate's predicted
distribution softmax(logits / gate_temperature), and loss_resource is the
expected per-path cost of the predicted distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import RoutingExample
from .errors import IngestError, InvalidArgumentError
from .experts import stable_digest64
from .gate import (
    HIDDEN_DIM,
    GateGradients,
    GateParameters,
    backward_batch,
    compute_params,
    forward_batch,
    init_gate,
    pack_parameters,
    unpack_parameters,
)
from .numerics import (
    KL_FLOOR,
    OptimizerState,
    ScheduleConfig,
    adamw_step,
    clip_grad_norm,
    lr_at,
    softmax,
)
from .paths import (
    EXCLUDED_FROM_TRAINING,
    N_PATHS,
    PathCostVector,
    argmax_with_tiebreak,
)


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 1e-4
    batch_size: int = 8
    grad_accum_steps: int = 4
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    target_temperature: float = 0.3
    gate_temperature: float = 1.0
    resource_weight: float = 0.15
    warmup_ratio: float = 0.05
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size <= 0 or self.grad_accum_steps <= 0 or self.epochs <= 0:
            raise InvalidArgumentError("batch size, accumulation steps and epochs must be > 0")
        if self.target_temperature <= 0 or self.gate_temperature <= 0:
            raise InvalidArgumentError("temperatures must be > 0")
        if self.lr_max < 0 or self.weight_decay < 0 or self.resource_weight < 0:
            raise InvalidArgumentError("lr, weight decay and resource weight must be >= 0")


def build_target(path_scores, temperature: float) -> np.ndarray:
    """Soft target distribution from the binary per-path score vector."""
    return softmax(np.asarray(path_scores, dtype=np.float64), temperature)


def loss_batch(
    Z: np.ndarray, S: np.ndarray, cost: np.ndarray, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss over a batch of logits Z [B, 3] and path scores S [B, 3].

    Returns per-row (total, task, resource) and dZ, the gradient of each
    row's total w.r.t. its logits. The task term is KL(target || predicted)
    with 0 * log(0) = 0, predicted entries floored at KL_FLOOR, and round-off
    clamped at 0.
    """
    tau, tau_g, lam = cfg.target_temperature, cfg.gate_temperature, cfg.resource_weight
    T = softmax(S, tau)
    P = softmax(Z, tau_g)
    Pf = np.maximum(P, KL_FLOOR)
    task = np.where(T > 0, T * (np.log(np.maximum(T, KL_FLOOR)) - np.log(Pf)), 0.0).sum(axis=-1)
    task = np.maximum(task, 0.0)
    resource = P @ cost
    total = task + lam * resource
    dZ = (P - T) / tau_g + lam * P * (cost[None, :] - resource[:, None]) / tau_g
    return total, task, resource, dZ


@dataclass(frozen=True)
class HistoryRecord:
    step: int
    lr: float
    loss_total: float
    loss_task: float
    loss_resource: float
    grad_norm: float


@dataclass(frozen=True)
class PolicyEval:
    routing_accuracy: float
    expected_cost: float
    path_distribution: tuple[float, float, float]
    n_examples: int


@dataclass
class TrainResult:
    params: GateParameters
    history: list[HistoryRecord]
    val_metrics: PolicyEval | None
    optimizer_state: OptimizerState
    total_steps: int


# Rows per gate call when `evaluate_policy` and `routed_paths` route a whole
# split: bounds the rows gathered and cast to float64 at once.
EVAL_BLOCK_ROWS = 256


def _embedding_rows(examples: Sequence[RoutingExample]) -> list[np.ndarray]:
    """The examples' float32 rows where they lie, each checked for non-finite
    entries.

    For a loaded corpus the rows are read-only views of the memory-mapped
    sidecar, so nothing is copied; a row held in another dtype is cast to
    float32, as it would be stored. Callers gather the rows they route
    straight into float64, the form `forward_batch` computes in (the cast
    is exact).
    """
    rows = []
    for ex in examples:
        if ex.embedding is None:
            raise IngestError(f"example {ex.id}: embeddings not resolved")
        row = np.asarray(ex.embedding, dtype=np.float32)
        if not np.isfinite(row).all():
            raise IngestError(f"example {ex.id}: non-finite embedding")
        rows.append(row)
    return rows


def _gradient_views(flat: np.ndarray, dims: tuple[int, int, int]) -> GateGradients:
    """Views into `flat` shaped as the gradients of a gate of `dims`."""
    p = unpack_parameters(flat, dims)
    return GateGradients(p.W1, p.b1, p.W2, p.b2)


def _score_matrix(examples: Sequence[RoutingExample]) -> np.ndarray:
    return np.asarray([ex.path_scores for ex in examples], dtype=np.float64)


def _dropout_seed(base_seed: int, epoch: int, position: int) -> int:
    return stable_digest64("dropout", base_seed, epoch, position)


def planned_optimizer_steps(n_examples: int, cfg: TrainConfig) -> int:
    batches = math.ceil(n_examples / cfg.batch_size)
    return cfg.epochs * math.ceil(batches / cfg.grad_accum_steps)


def train(
    dataset: Sequence[RoutingExample],
    val: Sequence[RoutingExample],
    cfg: TrainConfig,
    cost: PathCostVector,
) -> TrainResult:
    """Train the gate on `dataset`, selecting the checkpoint with the best
    validation routing accuracy.

    Generative-metric datasets are dropped from the training set (they stay
    valid for evaluation). Deterministic for a fixed cfg.seed: shuffling,
    dropout masks and the optimizer trajectory are all derived from it.
    """
    train_examples = [ex for ex in dataset if ex.dataset not in EXCLUDED_FROM_TRAINING]
    if not train_examples:
        raise InvalidArgumentError("training set is empty after filtering excluded datasets")

    rows = _embedding_rows(train_examples)
    S = _score_matrix(train_examples)
    val_rows = _embedding_rows(val)
    S_val = _score_matrix(val) if val else None

    n = len(rows)
    dims = (rows[0].shape[0], HIDDEN_DIM, N_PATHS)
    init = init_gate(cfg.seed, *dims)
    # Fixed float64 buffers of one parameter vector each, written in place:
    # the master copy (float32 at rest), the cycle's accumulated gradient,
    # the two AdamW moments, and a work buffer that holds a batch's
    # gradients and then the squares of the clipping norm.
    master = pack_parameters(init)
    params_view = unpack_parameters(master, dims)
    grad = np.empty_like(master)
    work = np.empty_like(master)
    grad_views, work_views = _gradient_views(grad, dims), _gradient_views(work, dims)
    opt = OptimizerState.for_size(master.size, weight_decay=cfg.weight_decay)
    total_steps = planned_optimizer_steps(n, cfg)
    sched = ScheduleConfig(lr_max=cfg.lr_max, warmup_ratio=cfg.warmup_ratio, total_steps=total_steps)
    cost_arr = cost.as_array()

    shuffle_rng = np.random.Generator(np.random.PCG64(stable_digest64("shuffle", cfg.seed)))
    history: list[HistoryRecord] = []
    best_params: GateParameters | None = None
    best_opt: OptimizerState | None = None
    best_val: PolicyEval | None = None
    step_idx = 0

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        cycle = cfg.batch_size * cfg.grad_accum_steps
        for start in range(0, n, cycle):
            cycle_idx = order[start:start + cycle]
            sums = np.zeros(3)  # total, task, resource
            for b in range(0, len(cycle_idx), cfg.batch_size):
                batch_idx = cycle_idx[b:b + cfg.batch_size]
                seeds = [
                    _dropout_seed(cfg.seed, epoch, int(start + b + j))
                    for j in range(len(batch_idx))
                ]
                X = np.stack([rows[i] for i in batch_idx], dtype=np.float64)
                Z, cache = forward_batch(params_view, X, mode="train", rng_seeds=seeds)
                total, task, resource, dZ = loss_batch(Z, S[batch_idx], cost_arr, cfg)
                # The cycle's first batch writes the gradient, so it is never
                # zeroed; 0.0 + g would only turn a -0.0 into +0.0, which
                # changes no value after it.
                if b == 0:
                    backward_batch(params_view, cache, dZ, out=grad_views)
                else:
                    backward_batch(params_view, cache, dZ, out=work_views)
                    grad += work
                sums += (total.sum(), task.sum(), resource.sum())
            n_cycle = len(cycle_idx)
            grad /= n_cycle
            _, norm = clip_grad_norm(grad, cfg.clip_norm, work=work)
            lr = lr_at(step_idx, sched)
            adamw_step(master, grad, opt, lr)
            history.append(
                HistoryRecord(
                    step=step_idx,
                    lr=lr,
                    loss_total=float(sums[0] / n_cycle),
                    loss_task=float(sums[1] / n_cycle),
                    loss_resource=float(sums[2] / n_cycle),
                    grad_norm=norm,
                )
            )
            step_idx += 1

        if val_rows:
            # One call, not blocks: with the master's [out, in] W1 layout a
            # row's logits differ in the last bits between calls of fewer
            # and more than about 400 rows, so blocks would change
            # val_metrics.json on larger validation splits. The gathered
            # rows are freed before training goes on.
            Z_val = forward_batch(params_view, np.stack(val_rows, dtype=np.float64), mode="eval")[0]
            metrics = _evaluate_arrays(Z_val, S_val, cost, cfg.gate_temperature)
            if best_val is None or metrics.routing_accuracy > best_val.routing_accuracy:
                best_val = metrics
                best_params = params_view.astype(np.float32)
                # Only a later epoch could still move the moments.
                last = epoch == cfg.epochs - 1
                best_opt = opt if last else replace(
                    opt, first_moment=opt.first_moment.copy(),
                    second_moment=opt.second_moment.copy(),
                )

    if best_params is None:
        best_params = params_view.astype(np.float32)
        best_opt = opt
    assert best_opt is not None
    return TrainResult(
        params=best_params,
        history=history,
        val_metrics=best_val,
        optimizer_state=best_opt,
        total_steps=total_steps,
    )


def _eval_logits(gate: GateParameters, data: Sequence[RoutingExample]) -> np.ndarray:
    """Eval-mode logits for `data`, gathered and routed EVAL_BLOCK_ROWS rows
    at a time through the compute form of `gate`.

    Blocks start at multiples of EVAL_BLOCK_ROWS, which is a multiple of the
    BLAS kernels' row tiles, so with that weight layout every row is computed
    as in one call over all rows and the logits are bitwise the same. A
    one-row call would take numpy's matrix-vector path instead, so a last
    block of one row joins the block before it.
    """
    gate = compute_params(gate)
    Z = np.empty((len(data), gate.dims[2]))
    lo = 0
    while lo < len(data):
        hi = lo + EVAL_BLOCK_ROWS
        if len(data) - hi <= 1:
            hi = len(data)
        rows = _embedding_rows(data[lo:hi])
        Z[lo:hi] = forward_batch(gate, np.stack(rows, dtype=np.float64), mode="eval")[0]
        lo = hi
    return Z


def _evaluate_arrays(
    Z: np.ndarray,
    S: np.ndarray,
    cost: PathCostVector,
    gate_temperature: float,
) -> PolicyEval:
    cost_arr = cost.as_array()
    chosen = np.asarray([argmax_with_tiebreak(z, cost_arr) for z in Z])
    hits = S[np.arange(len(chosen)), chosen] == 1
    P = softmax(Z, gate_temperature)
    counts = np.bincount(chosen, minlength=N_PATHS).astype(np.float64)
    return PolicyEval(
        routing_accuracy=float(hits.mean()),
        expected_cost=float((P @ cost_arr).mean()),
        path_distribution=tuple((counts / len(chosen)).tolist()),
        n_examples=len(chosen),
    )


def evaluate_policy(
    gate: GateParameters,
    data: Sequence[RoutingExample],
    cost: PathCostVector,
    gate_temperature: float = 1.0,
) -> PolicyEval:
    """Argmax-routing accuracy, expected soft cost, and the chosen-path mix."""
    if not data:
        raise InvalidArgumentError("evaluate_policy: empty dataset")
    return _evaluate_arrays(_eval_logits(gate, data), _score_matrix(data), cost, gate_temperature)


def routed_paths(
    gate: GateParameters, data: Sequence[RoutingExample], cost: PathCostVector
) -> list[int]:
    """Chosen path index per example under eval-mode argmax routing."""
    cost_arr = cost.as_array()
    return [argmax_with_tiebreak(z, cost_arr) for z in _eval_logits(gate, data)]
