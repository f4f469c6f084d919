"""Cost-aware adaptive routing over text, image, and fusion table-reasoning
paths: a trainable gating MLP, pluggable expert backends, a fusion agent,
and the measurement protocols around them."""

__version__ = "0.1.0"

from .paths import (
    DEFAULT_PATH_COSTS,
    PATH_NAMES,
    PathCostVector,
)
from .gate import GateParameters, init_gate
from .trainer import TrainConfig, evaluate_policy, train
from .engine import EngineBackends, EngineConfig, infer, measure_cost, route

__all__ = [
    "DEFAULT_PATH_COSTS",
    "PATH_NAMES",
    "PathCostVector",
    "GateParameters",
    "init_gate",
    "TrainConfig",
    "train",
    "evaluate_policy",
    "EngineBackends",
    "EngineConfig",
    "route",
    "infer",
    "measure_cost",
    "__version__",
]
