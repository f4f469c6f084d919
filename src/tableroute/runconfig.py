"""Run configuration: a JSON file of known sections overlaying built-in
defaults. Unknown keys are rejected with the offending key path; referenced
input paths must exist at load time."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .corpus import RoutingExample
from .engine import BenchConfig, EngineBackends, EngineConfig
from .errors import ConfigError
from .experts import (
    LatencyModel,
    SimulatedGenerationBackend,
    TokensModel,
)
from .fusion import ScriptedAgent
from .paths import DEFAULT_PATH_COSTS, PathCostVector, TRAINING_DATASETS
from .trainer import TrainConfig


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
        return BenchConfig(n_per_dataset=int(b["n_per_dataset"]), seeds=tuple(b["seeds"]))

    def snapshot_json(self) -> str:
        return json.dumps(self.data, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


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
    # Exercise the typed views so bad values fail at load, naming the section.
    try:
        cfg.train_config()
    except Exception as e:
        raise ConfigError(f"bad train section: {e}", key="train") from e
    try:
        cfg.cost_vector()
    except Exception as e:
        raise ConfigError(f"bad cost_vector: {e}", key="cost_vector") from e
    try:
        cfg.engine_config()
    except Exception as e:
        raise ConfigError(f"bad engine section: {e}", key="engine") from e


def _latency(pair: Sequence[float]) -> LatencyModel:
    return LatencyModel(float(pair[0]), float(pair[1]))


def _tokens(pair: Sequence[float]) -> TokensModel:
    return TokensModel(float(pair[0]), float(pair[1]))


def build_backends(
    cfg: RunConfig,
    labels_text: Mapping[str, int],
    labels_image: Mapping[str, int],
    tags: Sequence[str] | None = None,
) -> EngineBackends:
    """Simulated backend stack from config plus per-example labels.

    Remote stacks are built lazily here too so the CLI works against real
    servers with the same call sites.
    """
    b = cfg.data["backends"]
    if b["kind"] == "remote":
        from .remote import RemoteClient, RemoteEmbeddingBackend, RemoteGenerationBackend

        if not b["endpoint"]:
            raise ConfigError("backends.endpoint required for remote backends", key="backends.endpoint")
        client = RemoteClient(
            b["endpoint"],
            timeout_s=b["timeout_s"],
            max_retries=int(b["max_retries"]),
            backoff_s=b["backoff_s"],
        )
        return EngineBackends(
            question_embedder=RemoteEmbeddingBackend(client, "question"),
            text_embedder=RemoteEmbeddingBackend(client, "text"),
            vision_embedder=RemoteEmbeddingBackend(client, "vision"),
            text_generator=RemoteGenerationBackend(client, "text"),
            image_generator=RemoteGenerationBackend(client, "image"),
        )

    from .synthetic import biased_embedders

    seed = int(b["embedding_seed"])
    tags = tuple(tags) if tags is not None else TRAINING_DATASETS
    embedders = biased_embedders(
        tags,
        float(b["embedding_bias_scale"]),
        seed,
        latencies={
            "question": _latency(b["question_embed_latency"]),
            "text": _latency(b["text_embed_latency"]),
            "vision": _latency(b["vision_embed_latency"]),
        },
    )
    return EngineBackends(
        question_embedder=embedders["question"],
        text_embedder=embedders["text"],
        vision_embedder=embedders["vision"],
        text_generator=SimulatedGenerationBackend(
            "text", labels_text, _latency(b["text_gen_latency"]), _tokens(b["text_gen_tokens"]), seed
        ),
        image_generator=SimulatedGenerationBackend(
            "image", labels_image, _latency(b["image_gen_latency"]), _tokens(b["image_gen_tokens"]), seed
        ),
    )


def build_agent(cfg: RunConfig, fusion_labels: Mapping[str, int]):
    a = cfg.data["agent"]
    if a["kind"] == "remote":
        from .remote import RemoteAgentBackend, RemoteClient

        if not a["endpoint"]:
            raise ConfigError("agent.endpoint required for a remote agent", key="agent.endpoint")
        return RemoteAgentBackend(
            RemoteClient(
                a["endpoint"],
                timeout_s=a["timeout_s"],
                max_retries=int(a["max_retries"]),
                backoff_s=a["backoff_s"],
            )
        )
    return ScriptedAgent.from_labels(
        fusion_labels,
        latency=_latency(a["latency"]),
        tokens=_tokens(a["tokens"]),
        seed=cfg.seed,
    )


def backends_from_corpus(cfg: RunConfig, examples: Sequence[RoutingExample]):
    """Backend stack whose generation labels replay the corpus path scores."""
    labels_text = {ex.id: ex.path_scores[0] for ex in examples}
    labels_image = {ex.id: ex.path_scores[1] for ex in examples}
    labels_fusion = {ex.id: ex.path_scores[2] for ex in examples}
    tags = sorted({ex.dataset for ex in examples})
    backends = build_backends(cfg, labels_text, labels_image, tags=tags)
    agent = build_agent(cfg, labels_fusion)
    return backends, agent
