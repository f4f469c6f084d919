"""Math kernel for the gate: softmax, optimizer, LR schedule.

`softmax` computes in float64; `adamw_step` and `clip_grad_norm` compute in
the dtype they are handed (float32 in training, see `gate`). Only
`adamw_step` mutates its arguments: it updates `params` and the state's
moments in place, one divide and one sqrt per element. `clip_grad_norm`
takes the gradient's norm without a temporary, leaves the gradient as it is
and returns the scale that clipping calls for, which `adamw_step` folds into
its moments' constants (`grad_scale`). The rest are pure.
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

# Elements per block of the in-place AdamW update: one 32K-element scratch
# buffer (at most 256 KB) holds a block's temporaries while it is in cache,
# instead of full-size temporaries streamed through memory.
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

    With s the clip scale (1 without `grad_scale`), t the new step count and
    c1 = 1 - beta1**t, c2 = 1 - beta2**t, the step computes

        m <- beta1 * m + ((1 - beta1) * s) * g
        v <- beta2 * v + (g * (sqrt(1 - beta2) * s))**2
        p <- p * (1 - lr * weight_decay)
               - (lr * sqrt(c2) / c1) * (m / (sqrt(v) + eps * sqrt(c2)))

    which is p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p) on
    the prescaled gradient s * g, with both bias corrections folded into
    the step size and epsilon (Kingma & Ba, sec. 2) and the clip scale into
    the moments' constants, so a block of the update costs one divide and
    one sqrt. The constants are formed in float64 and rounded once to the
    step's dtype; in float32 that rounds the decay factor to a multiple of
    2**-24, which over the README's schedule puts the summed decay 0.6%
    above the exact sum.

    `params` and the moments must be writable C-contiguous arrays of one
    dtype, float32 or float64, which the step computes in. They are updated
    in place, and `state.step_count` is incremented; `grads` is left as it
    is. The arrays are walked in blocks of ADAMW_BLOCK elements; every
    element sees the same IEEE operations in the same order as the
    unblocked expression above, so results are bitwise those of the
    out-of-place form.
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
    if grad_scale is None:
        grad_scale = 1.0
    elif not np.isfinite(grad_scale):
        raise InvalidArgumentError(f"adamw_step: grad_scale must be finite, got {grad_scale}")

    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_c2 = math.sqrt(1.0 - b2**t)
    # Formed in float64 (an np.float64 scale included), rounded once to the
    # step's dtype.
    m_scale, v_scale, step, eps, decay = (
        dtype.type(c) for c in (
            (1.0 - b1) * float(grad_scale),
            math.sqrt(1.0 - b2) * float(grad_scale),
            lr * root_c2 / (1.0 - b1**t),
            ADAM_EPSILON * root_c2,
            1.0 - lr * state.weight_decay,
        )
    )
    p, g, m, v = params.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    scratch = np.empty(min(p.size, ADAMW_BLOCK), dtype=dtype)
    for lo in range(0, p.size, ADAMW_BLOCK):
        hi = min(lo + ADAMW_BLOCK, p.size)
        pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a = scratch[: hi - lo]
        mb *= b1
        np.multiply(gb, m_scale, out=a)
        mb += a
        vb *= b2
        np.multiply(gb, v_scale, out=a)
        a *= a
        vb += a
        np.sqrt(vb, out=a)
        a += eps
        np.divide(mb, a, out=a)
        a *= step
        pb *= decay
        pb -= a
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
    float32, anything else in float64. The norm is the square root of
    `np.einsum("i,i->", g, g)`: numpy's own sum of products, which squares
    and adds each block of the gradient as it reads it, with no temporary
    and no BLAS call, so its bits do not depend on the BLAS kernel or
    thread count. The norm is part of the training history. A norm that is
    not finite is returned as it is; callers check it before they step.
    """
    if not (np.isfinite(max_norm) and max_norm > 0):
        raise InvalidArgumentError(f"max_norm must be > 0, got {max_norm}")
    dtype = np.float32 if getattr(grads, "dtype", None) == np.float32 else np.float64
    g = np.ascontiguousarray(grads, dtype=dtype).reshape(-1)
    norm = float(np.sqrt(np.einsum("i,i->", g, g)))
    return (max_norm / norm if norm > max_norm else None), norm
