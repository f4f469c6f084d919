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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import RoutingExample, read_rows
from .errors import InvalidArgumentError
from .experts import stable_digest64
from .gate import (
    HIDDEN_DIM,
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
    INPUT_DIM,
    N_PATHS,
    PathCostVector,
    choose_paths,
)
from .runconfig import TrainConfig


def build_target(path_scores, temperature: float) -> np.ndarray:
    """Soft target distribution of each binary per-path score vector (last axis)."""
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
    T = build_target(S, tau)
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
    # `route_split`'s chosen path per validation example for `params`.
    val_paths: np.ndarray | None
    total_steps: int


# Rows per gate call when `route_split` and `routed_paths` route a whole
# split: bounds the rows read into float64 at once (64 rows are 5.2 MB).
EVAL_BLOCK_ROWS = 64


def score_matrix(examples: Sequence[RoutingExample]) -> np.ndarray:
    """The `[N, 3]` float64 matrix of the examples' 0/1 path scores."""
    return np.asarray([ex.path_scores for ex in examples], dtype=np.float64)


def _dropout_seed(base_seed: int, epoch: int, position: int) -> int:
    return stable_digest64("dropout", base_seed, epoch, position)


def planned_optimizer_steps(n_examples: int, cfg: TrainConfig) -> int:
    return cfg.epochs * math.ceil(n_examples / (cfg.batch_size * cfg.grad_accum_steps))


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

    n = len(train_examples)
    # One optimizer step per cycle of `cycle` rows, run as one batch; only
    # the product of the two config keys matters.
    cycle = cfg.batch_size * cfg.grad_accum_steps
    # `read_rows` rejects a non-finite row as it reads it: a training row in
    # the first epoch's cycles, a validation row in the first validation.
    X = np.empty((min(cycle, n), INPUT_DIM), dtype=np.float32)
    S = score_matrix(train_examples)

    dims = (INPUT_DIM, HIDDEN_DIM, N_PATHS)
    # Fixed float32 buffers of one parameter vector each, written in place:
    # the master copy, the cycle's gradient and the two AdamW moments.
    master = pack_parameters(init_gate(cfg.seed, *dims), np.float32)
    params_view = unpack_parameters(master, dims)
    grad = np.empty_like(master)
    grad_views = unpack_parameters(grad, dims)
    opt = OptimizerState.for_size(master.size, cfg.weight_decay, dtype=master.dtype)
    total_steps = planned_optimizer_steps(n, cfg)
    sched = ScheduleConfig(lr_max=cfg.lr_max, warmup_ratio=cfg.warmup_ratio, total_steps=total_steps)
    cost_arr = cost.as_array()

    shuffle_rng = np.random.Generator(np.random.PCG64(stable_digest64("shuffle", cfg.seed)))
    history: list[HistoryRecord] = []
    best_params: GateParameters | None = None
    best_val: PolicyEval | None = None
    best_paths: np.ndarray | None = None
    step_idx = 0

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cycle):
            idx = order[start:start + cycle]
            seeds = [_dropout_seed(cfg.seed, epoch, start + j) for j in range(len(idx))]
            batch = read_rows([train_examples[i] for i in idx], X)
            Z, cache = forward_batch(params_view, batch, mode="train", rng_seeds=seeds)
            total, task, resource, dZ = loss_batch(Z, S[idx], cost_arr, cfg)
            # The gradient of the cycle's mean loss. Dividing the [rows, 3] dZ
            # costs less than dividing the 2.59M-element gradient, and for a
            # power-of-two cycle it gives the same bits.
            backward_batch(params_view, cache, dZ / len(idx), out=grad_views)
            scale, norm = clip_grad_norm(grad, cfg.clip_norm)
            if not math.isfinite(norm):
                raise InvalidArgumentError(
                    f"step {step_idx} (epoch {epoch}): gradient norm is {norm}"
                )
            lr = lr_at(step_idx, sched)
            adamw_step(master, grad, opt, lr, grad_scale=scale)
            history.append(
                HistoryRecord(
                    step=step_idx,
                    lr=lr,
                    loss_total=float(total.mean()),
                    loss_task=float(task.mean()),
                    loss_resource=float(resource.mean()),
                    grad_norm=norm,
                )
            )
            step_idx += 1

        if val:
            # Exactly what `route_split` gives for the saved checkpoint.
            metrics, chosen = route_split(params_view, val, cost, cfg.gate_temperature)
            if best_val is None or metrics.routing_accuracy > best_val.routing_accuracy:
                best_val, best_paths = metrics, chosen
                best_params = params_view.copy()

    return TrainResult(
        params=best_params if best_params is not None else params_view,
        history=history,
        val_metrics=best_val,
        val_paths=best_paths,
        total_steps=total_steps,
    )


def _eval_logits(gate: GateParameters, data: Sequence[RoutingExample]) -> np.ndarray:
    """Eval-mode logits for `data`, read into one float32 buffer and routed
    EVAL_BLOCK_ROWS rows at a time through the compute form of `gate`, which
    casts each block to float64 (exactly).

    Blocks start at multiples of EVAL_BLOCK_ROWS, which is a multiple of the
    BLAS kernels' row tiles, so with that weight layout every row is computed
    as in one call over all rows and the logits are bitwise the same (blocks
    of 16 to 512 rows agree bit for bit; blocks of 1 or 7 rows do not). A
    one-row call would take numpy's matrix-vector path instead, so a last
    block of one row joins the block before it.
    """
    gate = compute_params(gate)
    Z = np.empty((len(data), gate.dims[2]))
    X = np.empty((min(len(data), EVAL_BLOCK_ROWS + 1), gate.dims[0]), dtype=np.float32)
    lo = 0
    while lo < len(data):
        hi = lo + EVAL_BLOCK_ROWS
        if len(data) - hi <= 1:
            hi = len(data)
        Z[lo:hi] = forward_batch(gate, read_rows(data[lo:hi], X), mode="eval")[0]
        lo = hi
    return Z


def route_split(
    gate: GateParameters, data: Sequence[RoutingExample], cost: PathCostVector,
    gate_temperature: float = TrainConfig.gate_temperature,
) -> tuple[PolicyEval, np.ndarray]:
    """The policy's metrics on `data` (argmax-routing accuracy, expected soft
    cost, chosen-path mix) and its chosen path per example, from one routing
    pass."""
    if not data:
        raise InvalidArgumentError("route_split: empty dataset")
    Z = _eval_logits(gate, data)
    chosen = choose_paths(Z, cost)
    hits = score_matrix(data)[np.arange(len(chosen)), chosen] == 1
    counts = np.bincount(chosen, minlength=N_PATHS)
    return PolicyEval(
        routing_accuracy=float(hits.mean()),
        expected_cost=float((softmax(Z, gate_temperature) @ cost.as_array()).mean()),
        path_distribution=tuple((counts / len(chosen)).tolist()),
        n_examples=len(chosen),
    ), chosen


def routed_paths(
    gate: GateParameters, data: Sequence[RoutingExample], cost: PathCostVector
) -> np.ndarray:
    """Chosen path index per example under eval-mode argmax routing."""
    return choose_paths(_eval_logits(gate, data), cost)
