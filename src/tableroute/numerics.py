"""Math kernel for the gate: softmax, optimizer, LR schedule.

`softmax` computes in float64; `adamw_step` and `clip_grad_norm` compute in
the dtype they are handed (float32 in training, see `gate`). Only
`adamw_step` mutates its arguments: it updates `params` and the state's
moments in place. `clip_grad_norm` leaves the gradient as it is and returns
the scale that clipping calls for, which `adamw_step` applies block by block
as it reads the gradient (`grad_scale`). The rest are pure.
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

# Elements per block of the in-place AdamW update: 32K-element scratch
# buffers (at most 256 KB each) hold a block's temporaries while it is in
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
    """Moments and weight decay for decoupled-weight-decay Adam (the betas
    and epsilon are the module's ADAM_* constants)."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    weight_decay: float = 0.0

    @classmethod
    def for_size(cls, n_params: int, weight_decay: float = 0.0,
                 dtype=np.float64) -> "OptimizerState":
        return cls(
            first_moment=np.zeros(n_params, dtype=dtype),
            second_moment=np.zeros(n_params, dtype=dtype),
            weight_decay=weight_decay,
        )


def adamw_step(
    params, grads, state: OptimizerState, lr: float, grad_scale: float | None = None
) -> np.ndarray:
    """One Adam step with decoupled weight decay, in place; returns `params`.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

    `params` and the moments must be writable C-contiguous arrays of one
    dtype, float32 or float64, which the step computes in. They are updated
    in place, and `state.step_count` is incremented. The arrays are walked
    in blocks of ADAMW_BLOCK elements; every element sees the same IEEE
    operations in the same order as the unblocked expression above, so
    results are bitwise those of the out-of-place form.

    With `grad_scale` (the scale `clip_grad_norm` returns), each block of
    the gradient is first multiplied by it in the step's dtype, into
    scratch: the same multiply as `grads *= grad_scale`, so the step is
    bitwise that of a prescaled gradient, and `grads` is left as it is.
    """
    m, v = state.first_moment, state.second_moment
    dtype = getattr(params, "dtype", None)
    for name, arr in (("params", params), ("first_moment", m), ("second_moment", v)):
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype in (np.float32, np.float64)
            and arr.dtype == dtype
            and arr.flags.c_contiguous
            and arr.flags.writeable
        ):
            raise InvalidArgumentError(
                f"adamw_step: {name} must be a writable C-contiguous float32/float64 array"
            )
    g = np.asarray(grads, dtype=dtype)
    if not (params.shape == g.shape == m.shape == v.shape):
        raise InvalidArgumentError(
            f"adamw_step: shape mismatch params {params.shape}, grads {g.shape}, "
            f"moments {m.shape}"
        )
    if not (np.isfinite(lr) and lr >= 0):
        raise InvalidArgumentError(f"adamw_step: lr must be >= 0, got {lr}")
    if grad_scale is not None:
        if not np.isfinite(grad_scale):
            raise InvalidArgumentError(f"adamw_step: grad_scale must be finite, got {grad_scale}")
        grad_scale = params.dtype.type(grad_scale)

    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    p, g, m, v = params.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    scratch = np.empty((2 if grad_scale is None else 3, min(p.size, ADAMW_BLOCK)), dtype=dtype)
    for lo in range(0, p.size, ADAMW_BLOCK):
        hi = min(lo + ADAMW_BLOCK, p.size)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch[0, : hi - lo], scratch[1, : hi - lo]
        if grad_scale is not None:
            gb = np.multiply(gb, grad_scale, out=scratch[2, : hi - lo])
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
        a += ADAM_EPSILON
        b /= a
        np.multiply(state.weight_decay, pb, out=a)
        b += a
        b *= lr
        pb -= b
    return params


@dataclass(frozen=True)
class ScheduleConfig:
    lr_max: float
    warmup_ratio: float
    total_steps: int

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
    if step < w:
        return cfg.lr_max * step / w
    t = (step - w) / (cfg.total_steps - w)
    return cfg.lr_max * 0.5 * (1.0 + math.cos(math.pi * t))


def clip_grad_norm(grads, max_norm: float) -> tuple[float | None, float]:
    """The global L2 norm of `grads` and the scale that clips it to `max_norm`.

    Returns (scale, observed norm): scale is `max_norm / norm` when the norm
    exceeds `max_norm` and None otherwise; pass it to `adamw_step` as
    `grad_scale`. `grads` is not modified. A float32 array is handled in
    float32, anything else in float64. The norm is `sqrt(sum(g * g))` with
    numpy's summation order, not `np.dot(g, g)`: the two differ in the last
    bits, and the norm is part of the training history. The squares take
    one gradient-sized temporary. A norm that is not finite is returned as
    it is; callers check it before they step.
    """
    if not (np.isfinite(max_norm) and max_norm > 0):
        raise InvalidArgumentError(f"max_norm must be > 0, got {max_norm}")
    dtype = np.float32 if getattr(grads, "dtype", None) == np.float32 else np.float64
    g = np.ascontiguousarray(grads, dtype=dtype).reshape(-1)
    norm = float(np.sqrt(np.sum(g * g)))
    return (max_norm / norm if norm > max_norm else None), norm
