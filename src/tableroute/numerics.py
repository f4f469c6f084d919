"""Math kernel for the gate: softmax, optimizer, LR schedule.

All functions compute in float64. Two of them mutate their arguments:
`adamw_step` updates `params` and the moment buffers of the state it is
handed in place, and `clip_grad_norm` rescales `grads` in place. The rest
are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

# Floor on predicted probabilities inside the training loss's KL; keeps the
# log finite when the gate saturates to a near-one-hot distribution.
KL_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# Elements per block of the in-place AdamW update: two 32K-element float64
# scratch buffers (256 KB each) hold a block's temporaries while it is in
# cache, instead of full-size temporaries streamed through memory.
ADAMW_BLOCK = 32768


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax over the last axis, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("softmax: logits must be finite")
    if not (np.isfinite(temperature) and temperature > 0):
        raise InvalidArgumentError(f"softmax: temperature must be > 0, got {temperature}")
    scaled = z / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class OptimizerState:
    """Moments and constants for decoupled-weight-decay Adam."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    weight_decay: float = 0.0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    epsilon: float = ADAM_EPSILON

    @classmethod
    def for_size(cls, n_params: int, weight_decay: float = 0.0, **kwargs) -> "OptimizerState":
        return cls(
            first_moment=np.zeros(n_params, dtype=np.float64),
            second_moment=np.zeros(n_params, dtype=np.float64),
            weight_decay=weight_decay,
            **kwargs,
        )


def adamw_step(params, grads, state: OptimizerState, lr: float) -> np.ndarray:
    """One Adam step with decoupled weight decay, in place; returns `params`.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

    `params` and the moments must be writable C-contiguous float64 arrays:
    they are updated in place, and `state.step_count` is incremented. The
    arrays are walked in blocks of ADAMW_BLOCK elements; every element sees
    the same IEEE operations in the same order as the unblocked expression
    above, so results are bitwise those of the out-of-place form.
    """
    m, v = state.first_moment, state.second_moment
    for name, arr in (("params", params), ("first_moment", m), ("second_moment", v)):
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.float64
            and arr.flags.c_contiguous
            and arr.flags.writeable
        ):
            raise InvalidArgumentError(
                f"adamw_step: {name} must be a writable C-contiguous float64 array"
            )
    g = np.asarray(grads, dtype=np.float64)
    if not (params.shape == g.shape == m.shape == v.shape):
        raise InvalidArgumentError(
            f"adamw_step: shape mismatch params {params.shape}, grads {g.shape}, "
            f"moments {m.shape}"
        )
    if not (np.isfinite(lr) and lr >= 0):
        raise InvalidArgumentError(f"adamw_step: lr must be >= 0, got {lr}")

    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    p, g, m, v = params.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    scratch = np.empty((2, min(p.size, ADAMW_BLOCK)))
    for lo in range(0, p.size, ADAMW_BLOCK):
        hi = min(lo + ADAMW_BLOCK, p.size)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch[0, : hi - lo], scratch[1, : hi - lo]
        mb *= b1
        np.multiply(1.0 - b1, gb, out=a)
        mb += a
        vb *= b2
        np.multiply(1.0 - b2, gb, out=a)
        a *= gb
        vb += a
        np.divide(mb, c1, out=b)  # m_hat
        np.divide(vb, c2, out=a)  # v_hat
        np.sqrt(a, out=a)
        a += state.epsilon
        b /= a
        np.multiply(state.weight_decay, pb, out=a)
        b += a
        b *= lr
        pb -= b
    return params


@dataclass(frozen=True)
class ScheduleConfig:
    lr_max: float = 1e-4
    warmup_ratio: float = 0.05
    total_steps: int = 1

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise InvalidArgumentError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.total_steps <= 0:
            raise InvalidArgumentError(f"total_steps must be > 0, got {self.total_steps}")
        if self.lr_max < 0:
            raise InvalidArgumentError(f"lr_max must be >= 0, got {self.lr_max}")

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_ratio * self.total_steps))


def lr_at(step: int, cfg: ScheduleConfig) -> float:
    """Learning rate at `step`: linear ramp from zero, then cosine decay to zero."""
    if not 0 <= step <= cfg.total_steps:
        raise InvalidArgumentError(
            f"step {step} outside schedule range [0, {cfg.total_steps}]"
        )
    w = cfg.warmup_steps
    if w > 0 and step < w:
        return cfg.lr_max * step / w
    span = cfg.total_steps - w
    if span <= 0:
        return 0.0
    t = (step - w) / span
    return cfg.lr_max * 0.5 * (1.0 + math.cos(math.pi * t))


def clip_grad_norm(
    grads, max_norm: float, work: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Scale `grads` in place so the global L2 norm is at most `max_norm`.

    Input that is not a float64 array is converted first, and the converted
    copy is scaled. Returns (the possibly rescaled gradients, observed
    pre-clip norm). The norm is `sqrt(sum(g * g))`, not `np.dot(g, g)`: the
    two sum in different orders and differ in the last bits, and the norm is
    part of the training history. The squares go to `work` when it is given
    (a C-contiguous float64 array of the gradients' shape, overwritten), to
    a new array otherwise; the norm is the same either way.
    """
    if not (np.isfinite(max_norm) and max_norm > 0):
        raise InvalidArgumentError(f"max_norm must be > 0, got {max_norm}")
    g = np.asarray(grads, dtype=np.float64)
    norm = float(np.sqrt(np.sum(np.multiply(g, g, out=work))))
    if norm > max_norm:
        g *= max_norm / norm
    return g, norm
