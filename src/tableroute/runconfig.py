"""Run configuration: a JSON file of known sections overlaying built-in
defaults. Unknown keys are rejected with the offending key path; referenced
input paths must exist at load time. The `train`, `engine` and `bench`
dataclasses live here, so loading a config imports no trainer or engine."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import ConfigError, InvalidArgumentError
from .paths import DEFAULT_PATH_COSTS, MODALITIES, PATH_FUSION, PATH_NAMES, PathCostVector

if TYPE_CHECKING:
    from .corpus import RoutingExample
    from .engine import EngineBackends
    from .fusion import AgentBackend


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
        for name in ("batch_size", "grad_accum_steps", "epochs"):
            value = getattr(self, name)
            # `type(v) is int` refuses floats and JSON's true/false, which Python counts as ints
            if type(value) is not int or value <= 0:
                raise InvalidArgumentError(f"{name} must be an integer > 0, got {value!r}")
        # A NaN, which Python's json parses, fails every one of these tests.
        for name, ok, wanted in (
            ("lr_max", 0 <= self.lr_max < math.inf, "finite and >= 0"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("resource_weight", 0 <= self.resource_weight < math.inf, "finite and >= 0"),
            ("clip_norm", 0 < self.clip_norm < math.inf, "finite and > 0"),
            ("target_temperature", 0 < self.target_temperature < math.inf, "finite and > 0"),
            ("gate_temperature", 0 < self.gate_temperature < math.inf, "finite and > 0"),
            ("warmup_ratio", 0 <= self.warmup_ratio < 1, "in [0, 1)"),
        ):
            if not ok:
                raise InvalidArgumentError(f"{name} must be {wanted}, got {getattr(self, name)}")


@dataclass(frozen=True)
class EngineConfig:
    gate_latency_s: float = 0.001
    fusion_api_overhead_s: float = 0.3
    timing: str = "configured"  # "configured" keeps benches deterministic; "wallclock" measures
    gate_temperature: float = 1.0

    def __post_init__(self):
        if self.timing not in ("configured", "wallclock"):
            raise InvalidArgumentError(f"timing must be 'configured' or 'wallclock', got {self.timing!r}")
        # A NaN fails this test as well.
        for name in ("gate_latency_s", "fusion_api_overhead_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class BenchConfig:
    n_per_dataset: int = 50
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if type(self.n_per_dataset) is not int or self.n_per_dataset < 1:
            raise InvalidArgumentError(
                f"n_per_dataset must be an integer >= 1, got {self.n_per_dataset!r}"
            )
        if not (isinstance(self.seeds, tuple) and self.seeds
                and all(type(s) is int for s in self.seeds)):
            raise InvalidArgumentError(
                f"seeds must be a non-empty list of integers, got {self.seeds!r}"
            )


def _field_defaults(cls, exclude: tuple[str, ...] = ()) -> dict[str, Any]:
    """The dataclass's field defaults by name, except the `exclude`d fields."""
    return {f.name: f.default for f in fields(cls) if f.name not in exclude}


# The train and engine keys that map one to one onto dataclass fields. The
# train `seed` is the top-level one; the engine takes `gate_temperature` from
# the train section.
_TRAIN_DEFAULTS = _field_defaults(TrainConfig, ("seed",))
_ENGINE_DEFAULTS = _field_defaults(EngineConfig, ("gate_temperature",))

_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "corpus_dir": None,
    "run_dir": "runs/latest",
    "train": {**_TRAIN_DEFAULTS, "val_fraction": 0.15},
    "cost_vector": list(DEFAULT_PATH_COSTS.costs),
    "backends": {
        "kind": "simulated",
        "embedding_seed": 0,
        "embedding_bias_scale": 1.0,
        "question_embed_latency": [0.05, 0.0],
        "text_embed_latency": [0.10, 0.0],
        "vision_embed_latency": [0.20, 0.0],
        "text_gen_latency": [1.445, 0.0],
        "image_gen_latency": [1.559, 0.0],
        "text_gen_tokens": [64, 0],
        "image_gen_tokens": [29, 0],
        "endpoint": None,
        "timeout_s": 10.0,
        "max_retries": 2,
        "backoff_s": 0.5,
    },
    "agent": {
        "kind": "scripted",
        "latency": [0.3, 0.0],
        "tokens": [12, 0],
        "endpoint": None,
        "timeout_s": 10.0,
        "max_retries": 2,
        "backoff_s": 0.5,
    },
    "engine": _ENGINE_DEFAULTS,
    "bench": _field_defaults(BenchConfig),
    "profile": {"samples_per_dataset": 10, "warmup_runs": 5, "timed_runs": 10},
    "ingest": {"skip_threshold": 0.2},
    "sweep": {"resource_weights": [0.0, 0.05, 0.1, 0.15, 1.0]},
}


def _merge(defaults: Any, override: Any, path: str) -> Any:
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"config key {path or '<root>'} must be an object", key=path)
        merged = dict(defaults)
        for key, value in override.items():
            child = f"{path}.{key}" if path else key
            if key not in defaults:
                raise ConfigError(f"unknown config key: {child}", key=child)
            merged[key] = _merge(defaults[key], value, child)
        return merged
    return override


@dataclass
class RunConfig:
    data: dict[str, Any] = field(default_factory=lambda: json.loads(json.dumps(_DEFAULTS)))

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    @property
    def corpus_dir(self) -> str | None:
        return self.data["corpus_dir"]

    @property
    def run_dir(self) -> str:
        return self.data["run_dir"]

    def train_config(self) -> TrainConfig:
        t = self.data["train"]
        return TrainConfig(**{k: t[k] for k in _TRAIN_DEFAULTS}, seed=self.seed)

    def cost_vector(self) -> PathCostVector:
        return PathCostVector(tuple(float(c) for c in self.data["cost_vector"]))

    def engine_config(self) -> EngineConfig:
        e = self.data["engine"]
        return EngineConfig(
            **{k: e[k] for k in _ENGINE_DEFAULTS},
            gate_temperature=self.data["train"]["gate_temperature"],
        )

    def bench_config(self) -> BenchConfig:
        b = self.data["bench"]
        seeds = b["seeds"]
        return BenchConfig(n_per_dataset=b["n_per_dataset"],
                           seeds=tuple(seeds) if isinstance(seeds, list) else seeds)

    def snapshot_json(self) -> str:
        return json.dumps(self.data, ensure_ascii=False, sort_keys=True, indent=2)


def load_runconfig(
    config_path: str | Path | None = None, overrides: Mapping[str, Any] | None = None
) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by CLI overrides."""
    data = json.loads(json.dumps(_DEFAULTS))
    if config_path is not None:
        p = Path(config_path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            file_data = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as e:
            raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
        data = _merge(data, file_data, "")
    if overrides:
        data = _merge(data, dict(overrides), "")
    cfg = RunConfig(data)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.data["backends"]["kind"] not in ("simulated", "remote"):
        raise ConfigError(
            f"backends.kind must be 'simulated' or 'remote', got {cfg.data['backends']['kind']!r}",
            key="backends.kind",
        )
    if cfg.data["agent"]["kind"] not in ("scripted", "remote"):
        raise ConfigError(
            f"agent.kind must be 'scripted' or 'remote', got {cfg.data['agent']['kind']!r}",
            key="agent.kind",
        )
    corpus_dir = cfg.corpus_dir
    if corpus_dir is not None and not Path(corpus_dir).exists():
        raise ConfigError(f"corpus_dir does not exist: {corpus_dir}", key="corpus_dir")
    seed = cfg.data["seed"]
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}", key="seed")
    # Exercise the typed views so bad values fail at load, naming the section.
    views = (("train", cfg.train_config), ("cost_vector", cfg.cost_vector),
             ("engine", cfg.engine_config), ("bench", cfg.bench_config))
    for key, view in views:
        try:
            view()
        except Exception as e:
            raise ConfigError(f"bad {key} section: {e}", key=key) from e
    for name, minimum in (("samples_per_dataset", 1), ("warmup_runs", 0), ("timed_runs", 1)):
        value = cfg.data["profile"][name]
        # `type(v) is int` refuses floats and JSON's true/false, which Python counts as ints
        if type(value) is not int or value < minimum:
            raise ConfigError(f"profile.{name} must be an integer >= {minimum}, got {value!r}",
                              key=f"profile.{name}")
    threshold = cfg.data["ingest"]["skip_threshold"]
    if not (isinstance(threshold, (int, float)) and not isinstance(threshold, bool)
            and 0 <= threshold <= 1):
        raise ConfigError(f"ingest.skip_threshold must be a number in [0, 1], got {threshold!r}",
                          key="ingest.skip_threshold")
    val_fraction = cfg.data["train"]["val_fraction"]
    if not (isinstance(val_fraction, (int, float)) and 0 <= val_fraction < 1):
        raise ConfigError(f"train.val_fraction must be in [0, 1), got {val_fraction!r}",
                          key="train.val_fraction")
    weights = cfg.data["sweep"]["resource_weights"]
    if not isinstance(weights, list) or not weights or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) and 0 <= w < math.inf
        for w in weights
    ):
        raise ConfigError(
            f"sweep.resource_weights must be a non-empty list of finite numbers >= 0, "
            f"got {weights!r}",
            key="sweep.resource_weights",
        )


def build_stack(
    cfg: RunConfig, labels: Mapping[str, Sequence[int]], tags: Sequence[str]
) -> tuple[EngineBackends, AgentBackend]:
    """The expert backends and the fusion agent that `cfg` configures.

    Simulated generators and the scripted agent replay `labels`, each
    example's (text, image, fusion) correctness by id; simulated embedders
    carry a bias for each dataset tag in `tags`.
    """
    from .engine import EngineBackends
    from .experts import LatencyModel, SimulatedGenerationBackend, TokensModel
    from .fusion import ScriptedAgent

    def _latency(pair: Sequence[float]) -> LatencyModel:
        return LatencyModel(float(pair[0]), float(pair[1]))

    def _tokens(pair: Sequence[float]) -> TokensModel:
        return TokensModel(float(pair[0]), float(pair[1]))

    def remote_client(section: str, what: str):
        from .remote import RemoteClient

        c = cfg.data[section]
        if not c["endpoint"]:
            raise ConfigError(f"{section}.endpoint required for {what}", key=f"{section}.endpoint")
        return RemoteClient(c["endpoint"], timeout_s=c["timeout_s"],
                            max_retries=int(c["max_retries"]), backoff_s=c["backoff_s"])

    b = cfg.data["backends"]
    if b["kind"] == "remote":
        from .remote import RemoteEmbeddingBackend, RemoteGenerationBackend

        client = remote_client("backends", "remote backends")
        embedders = [RemoteEmbeddingBackend(client, m) for m in MODALITIES]
        generators = [RemoteGenerationBackend(client, p) for p in PATH_NAMES[:2]]
    else:
        from .synthetic import biased_embedders

        seed = int(b["embedding_seed"])
        latencies = {m: _latency(b[f"{m}_embed_latency"]) for m in MODALITIES}
        embedders = biased_embedders(tags, float(b["embedding_bias_scale"]), seed, latencies).values()
        generators = [
            SimulatedGenerationBackend(
                p, {k: row[i] for k, row in labels.items()},
                _latency(b[f"{p}_gen_latency"]), _tokens(b[f"{p}_gen_tokens"]), seed,
            )
            for i, p in enumerate(PATH_NAMES[:2])
        ]
    backends = EngineBackends(*embedders, *generators)

    a = cfg.data["agent"]
    if a["kind"] == "remote":
        from .remote import RemoteAgentBackend

        return backends, RemoteAgentBackend(remote_client("agent", "a remote agent"))
    agent = ScriptedAgent.from_labels(
        {k: row[PATH_FUSION] for k, row in labels.items()},
        latency=_latency(a["latency"]),
        tokens=_tokens(a["tokens"]),
        seed=cfg.seed,
    )
    return backends, agent


def backends_from_corpus(cfg: RunConfig, examples: Sequence[RoutingExample]):
    """Backend stack whose generation labels replay the corpus path scores."""
    return build_stack(cfg, {ex.id: ex.path_scores for ex in examples},
                       sorted({ex.dataset for ex in examples}))
