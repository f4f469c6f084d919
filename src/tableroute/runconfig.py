"""Run configuration: a JSON file of known sections overlaying built-in
defaults. Each key is declared once, in `_KEYS`, with its default and its
rule. Unknown keys are rejected with the offending key path, every value is
checked against its rule, and `corpus_dir` must exist, all at load time.
The `train`, `engine` and `bench` dataclasses live here, so loading a config
imports no trainer or engine."""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .errors import ConfigError
from .paths import (DEFAULT_PATH_COSTS, MODALITIES, N_PATHS, PATH_FUSION, PATH_NAMES,
                    PathCostVector)

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


@dataclass(frozen=True)
class EngineConfig:
    gate_latency_s: float = 0.001
    fusion_api_overhead_s: float = 0.3
    timing: str = "configured"  # "configured" keeps benches deterministic; "wallclock" measures
    gate_temperature: float = TrainConfig.gate_temperature


@dataclass(frozen=True)
class BenchConfig:
    n_per_dataset: int = 50
    seeds: tuple[int, ...] = (0, 1, 2)


# A rule is a check that a value passes and the phrase naming what passes.
Rule = tuple[Callable[[Any], bool], str]


def _int(minimum: int) -> Rule:
    # `type(v) is int` refuses floats and JSON's true/false, which Python counts as ints
    return (lambda v: type(v) is int and v >= minimum), f"an integer >= {minimum}"


def _number(within: Callable[[Any], bool], phrase: str) -> Rule:
    """An int or float, not a bool, that converts to a finite float and for
    which `within` holds. NaN and infinities, which Python's json parses,
    fail the `abs` test, and so does an int too large for a float."""
    return (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max
            and within(v)), phrase


def _one_of(*values: str) -> Rule:
    return (lambda v: v in values), " or ".join(map(repr, values))


def _text(optional: bool) -> Rule:
    if optional:
        return (lambda v: v is None or isinstance(v, str)), "a string or null"
    return (lambda v: isinstance(v, str) and v != ""), "a non-empty string"


def _list(item: Rule, length: int | None = None) -> Rule:
    """A non-empty list, or one of `length` entries, each passing `item`."""
    check, phrase = item
    size = f"a list of {length} entries" if length else "a non-empty list"
    return ((lambda v: isinstance(v, list) and (len(v) == length if length else len(v) > 0)
             and all(map(check, v))), f"{size}, each {phrase}")


def _pair(mean: Rule, jitter_below_mean: bool = False) -> Rule:
    """A `[mean, jitter]` list: a mean passing `mean` and a jitter >= 0, and
    below the mean if `jitter_below_mean`."""
    mean_ok, phrase = mean
    jitter_ok = _AT_LEAST_0[0]
    below = " below the mean" if jitter_below_mean else ""
    return ((lambda v: isinstance(v, list) and len(v) == 2 and mean_ok(v[0]) and jitter_ok(v[1])
             and (v[1] < v[0] or not jitter_below_mean)),
            f"a [mean, jitter] pair, mean {phrase} and jitter a finite number >= 0{below}")


_AT_LEAST_0 = _number(lambda v: v >= 0, "a finite number >= 0")
_ABOVE_0 = _number(lambda v: v > 0, "a finite number > 0")
_FRACTION = _number(lambda v: 0 <= v < 1, "a number in [0, 1)")
# A latency draw, mean + jitter * u with u in [-1, 1), is then always > 0.
_LATENCY = _pair(_ABOVE_0, jitter_below_mean=True)
_TOKENS = _pair(_AT_LEAST_0)
_REMOTE = {"endpoint": (None, _text(optional=True)), "timeout_s": (10.0, _ABOVE_0),
           "max_retries": (2, _int(0)), "backoff_s": (0.5, _AT_LEAST_0)}

# Every config key path, with its default and the rule its value must pass,
# in the order `_validate` checks them. The train `seed` is the top-level one;
# the engine takes `gate_temperature` from the train section.
_KEYS: dict[str, tuple[Any, Rule]] = {
    "seed": (TrainConfig.seed, _int(0)),
    "corpus_dir": (None, _text(optional=True)),
    "run_dir": ("runs/latest", _text(optional=False)),
    "train.lr_max": (TrainConfig.lr_max, _AT_LEAST_0),
    "train.batch_size": (TrainConfig.batch_size, _int(1)),
    "train.grad_accum_steps": (TrainConfig.grad_accum_steps, _int(1)),
    "train.weight_decay": (TrainConfig.weight_decay, _AT_LEAST_0),
    "train.clip_norm": (TrainConfig.clip_norm, _ABOVE_0),
    "train.target_temperature": (TrainConfig.target_temperature, _ABOVE_0),
    "train.gate_temperature": (TrainConfig.gate_temperature, _ABOVE_0),
    "train.resource_weight": (TrainConfig.resource_weight, _AT_LEAST_0),
    "train.warmup_ratio": (TrainConfig.warmup_ratio, _FRACTION),
    "train.epochs": (TrainConfig.epochs, _int(1)),
    "train.val_fraction": (0.15, _FRACTION),
    "cost_vector": (DEFAULT_PATH_COSTS.costs, _list(_ABOVE_0, N_PATHS)),
    "backends.kind": ("simulated", _one_of("simulated", "remote")),
    "backends.embedding_seed": (0, _int(0)),
    "backends.embedding_bias_scale": (1.0, _AT_LEAST_0),
    "backends.question_embed_latency": ([0.05, 0.0], _LATENCY),
    "backends.text_embed_latency": ([0.10, 0.0], _LATENCY),
    "backends.vision_embed_latency": ([0.20, 0.0], _LATENCY),
    "backends.text_gen_latency": ([1.445, 0.0], _LATENCY),
    "backends.image_gen_latency": ([1.559, 0.0], _LATENCY),
    "backends.text_gen_tokens": ([64, 0], _TOKENS),
    "backends.image_gen_tokens": ([29, 0], _TOKENS),
    **{f"backends.{k}": entry for k, entry in _REMOTE.items()},
    "agent.kind": ("scripted", _one_of("scripted", "remote")),
    "agent.latency": ([0.3, 0.0], _LATENCY),
    "agent.tokens": ([12, 0], _TOKENS),
    **{f"agent.{k}": entry for k, entry in _REMOTE.items()},
    "engine.gate_latency_s": (EngineConfig.gate_latency_s, _AT_LEAST_0),
    "engine.fusion_api_overhead_s": (EngineConfig.fusion_api_overhead_s, _AT_LEAST_0),
    "engine.timing": (EngineConfig.timing, _one_of("configured", "wallclock")),
    "bench.n_per_dataset": (BenchConfig.n_per_dataset, _int(1)),
    "bench.seeds": (BenchConfig.seeds, _list(_int(0))),
    "profile.samples_per_dataset": (10, _int(1)),
    "profile.warmup_runs": (5, _int(0)),
    "profile.timed_runs": (10, _int(1)),
    "ingest.skip_threshold": (0.2, _number(lambda v: 0 <= v <= 1, "a number in [0, 1]")),
    "sweep.resource_weights": ([0.0, 0.05, 0.1, 0.15, 1.0], _list(_AT_LEAST_0)),
}


def _tree(keys: Mapping[str, tuple[Any, Rule]]) -> dict[str, Any]:
    """The defaults of `keys` as a config tree: "train.lr_max" becomes
    ["train"]["lr_max"]. `load_runconfig` copies it through JSON, which
    turns its tuples into lists."""
    tree: dict[str, Any] = {}
    for path, (default, _) in keys.items():
        section, _, leaf = path.rpartition(".")
        (tree.setdefault(section, {}) if section else tree)[leaf] = default
    return tree


_DEFAULTS = _tree(_KEYS)


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
    data: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def corpus_dir(self) -> str | None:
        return self.data["corpus_dir"]

    @property
    def run_dir(self) -> str:
        return self.data["run_dir"]

    def train_config(self) -> TrainConfig:
        t = self.data["train"]
        return TrainConfig(**{f.name: t[f.name] for f in fields(TrainConfig) if f.name != "seed"},
                           seed=self.seed)

    def cost_vector(self) -> PathCostVector:
        return PathCostVector(tuple(float(c) for c in self.data["cost_vector"]))

    def engine_config(self) -> EngineConfig:
        return EngineConfig(**self.data["engine"],
                            gate_temperature=self.data["train"]["gate_temperature"])

    def bench_config(self) -> BenchConfig:
        b = self.data["bench"]
        return BenchConfig(n_per_dataset=b["n_per_dataset"], seeds=tuple(b["seeds"]))

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
    for key, (_, (check, phrase)) in _KEYS.items():
        value = cfg.data
        for part in key.split("."):
            value = value[part]
        if not check(value):
            raise ConfigError(f"{key} must be {phrase}, got {value!r}", key=key)
    if cfg.corpus_dir is not None and not Path(cfg.corpus_dir).exists():
        raise ConfigError(f"corpus_dir does not exist: {cfg.corpus_dir}", key="corpus_dir")


def build_stack(
    cfg: RunConfig, labels: Mapping[str, Sequence[int]]
) -> tuple[EngineBackends, AgentBackend]:
    """The expert backends and the fusion agent that `cfg` configures.

    Simulated generators and the scripted agent replay `labels`, each
    example's (text, image, fusion) correctness by id; simulated embedders
    draw their own bias for each known dataset tag.
    """
    from .engine import EngineBackends
    from .experts import (LatencyModel, SimulatedEmbeddingBackend, SimulatedGenerationBackend,
                          TokensModel)
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
                            max_retries=c["max_retries"], backoff_s=c["backoff_s"])

    b = cfg.data["backends"]
    if b["kind"] == "remote":
        from .remote import RemoteEmbeddingBackend, RemoteGenerationBackend

        client = remote_client("backends", "remote backends")
        embedders = [RemoteEmbeddingBackend(client, m) for m in MODALITIES]
        generators = [RemoteGenerationBackend(client, p) for p in PATH_NAMES[:2]]
    else:
        seed = b["embedding_seed"]
        scale = float(b["embedding_bias_scale"])
        embedders = [SimulatedEmbeddingBackend(m, seed, _latency(b[f"{m}_embed_latency"]), scale)
                     for m in MODALITIES]
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
    return backends, ScriptedAgent(
        {k: row[PATH_FUSION] for k, row in labels.items()},
        _latency(a["latency"]), _tokens(a["tokens"]), cfg.seed,
    )


def backends_from_corpus(cfg: RunConfig, examples: Sequence[RoutingExample]):
    """Backend stack whose generation labels replay the corpus path scores."""
    return build_stack(cfg, {ex.id: ex.path_scores for ex in examples})
