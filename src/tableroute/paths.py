"""Shared constants: path order, embedding dimensions, dataset tags, costs.

Every per-path array in the package uses the fixed index order
(text=0, image=1, fusion=2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

PATH_TEXT = 0
PATH_IMAGE = 1
PATH_FUSION = 2
PATH_NAMES = ("text", "image", "fusion")
N_PATHS = 3

QUESTION_DIM = 384
TEXT_DIM = 3584
VISION_DIM = 6144
INPUT_DIM = QUESTION_DIM + TEXT_DIM + VISION_DIM  # 10,112

EMBED_DIMS = {"question": QUESTION_DIM, "text": TEXT_DIM, "vision": VISION_DIM}
MODALITIES = ("question", "text", "vision")

KNOWN_DATASETS = ("wtq", "tabmwp", "tatqa", "hitab", "fetaqa", "tabfact", "infotabs")
# Generative-metric and hierarchical-table sets stay out of the training mixture.
EXCLUDED_FROM_TRAINING = ("fetaqa", "hitab")
TRAINING_DATASETS = tuple(d for d in KNOWN_DATASETS if d not in EXCLUDED_FROM_TRAINING)


@dataclass(frozen=True)
class PathCostVector:
    """Empirical per-path cost (0.5 * latency + 0.5 / throughput blend)."""

    costs: tuple[float, float, float]

    def __post_init__(self):
        if len(self.costs) != N_PATHS:
            raise InvalidArgumentError("cost vector must have one entry per path")
        if not all(np.isfinite(c) and c > 0 for c in self.costs):
            raise InvalidArgumentError(f"cost entries must be positive, got {self.costs}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.costs, dtype=np.float64)


# Measured defaults for the stock expert stack.
DEFAULT_PATH_COSTS = PathCostVector((0.73, 0.81, 0.96))


def choose_paths(Z, costs: PathCostVector) -> np.ndarray:
    """The chosen path index of each row of the [B, 3] logits `Z`: that of
    the row's largest logit. An exact tie goes to the cheapest tied path,
    and a tie in cost too to the lowest index."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != N_PATHS:
        raise InvalidArgumentError(f"expected [B, {N_PATHS}] logits, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise InvalidArgumentError("logits must be finite")
    # Paths cheapest first; the first of them that holds its row's maximum.
    order = np.argsort(costs.as_array(), kind="stable")
    return order[np.argmax(Z[:, order] == Z.max(axis=1, keepdims=True), axis=1)]
