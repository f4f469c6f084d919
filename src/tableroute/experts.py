"""Expert backends: embedding extraction and answer generation.

Simulated backends stand in for the frozen text/vision experts at desk
scale: embeddings are hash-seeded pseudo-vectors, generation correctness is
driven by per-example labels, and latencies/token counts come from small
configurable models so benches are deterministic.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError
from .paths import EMBED_DIMS, PATH_NAMES

WRONG_ANSWER_SUFFIX = " [alt]"

_SURROUND_PAIRS = (('"', '"'), ("'", "'"), ("(", ")"), ("[", "]"), ("{", "}"))


def normalize_answer(answer: str) -> str:
    """Canonical form used for every answer-correctness comparison.

    Trims, strips surrounding quote/bracket pairs, collapses internal
    whitespace, casefolds.
    """
    out = answer.strip()
    while len(out) >= 2 and (out[0], out[-1]) in _SURROUND_PAIRS:
        out = out[1:-1].strip()
    return " ".join(out.split()).casefold()


def answers_match(a: str, b: str) -> bool:
    return normalize_answer(a) == normalize_answer(b)


def wrong_answer(gold: str) -> str:
    """A deterministic answer guaranteed to differ from `gold` under normalization."""
    return f"{gold}{WRONG_ANSWER_SUFFIX}"


@dataclass(frozen=True)
class ExpertOutput:
    answer: str
    explanation: str
    latency_seconds: float
    output_tokens: int

    def __post_init__(self):
        if self.latency_seconds < 0:
            raise InvalidArgumentError(f"latency must be >= 0, got {self.latency_seconds}")
        if self.output_tokens < 0:
            raise InvalidArgumentError(f"output_tokens must be >= 0, got {self.output_tokens}")


def stable_digest64(*parts: str | bytes | int) -> int:
    """Stable 64-bit digest of a heterogeneous key. Pure integer path."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, int):
            p = str(p)
        if isinstance(p, str):
            p = p.encode("utf-8")
        h.update(len(p).to_bytes(4, "little"))
        h.update(p)
    return int.from_bytes(h.digest(), "little")


def unit_draw(*parts) -> float:
    """Deterministic draw in [-1, 1) keyed by `parts`; dyadic, platform-stable."""
    u01 = (stable_digest64(*parts) >> 11) * 2.0**-53
    return 2.0 * u01 - 1.0


def pseudo_embedding(
    payload: str | bytes,
    dim: int,
    seed: int,
    modality: str,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic stand-in embedding: hash-seeded uniforms in [-1, 1].

    For a fixed (payload, seed, modality) the vector is bitwise stable
    across runs and platforms.
    """
    stream_seed = stable_digest64("embed", modality, seed, payload)
    rng = np.random.Generator(np.random.PCG64(stream_seed))
    vec = rng.uniform(-1.0, 1.0, dim)
    if bias is not None:
        if bias.shape != (dim,):
            raise InvalidArgumentError(f"bias must be {dim}-dim, got {bias.shape}")
        vec = vec + bias
    return vec.astype(np.float32)


@dataclass(frozen=True)
class LatencyModel:
    """mean + jitter * u, u in [-1, 1) keyed deterministically per call."""

    mean: float
    jitter: float = 0.0

    def __post_init__(self):
        if self.mean <= 0:
            raise InvalidArgumentError(f"latency mean must be > 0, got {self.mean}")
        if self.jitter < 0:
            raise InvalidArgumentError(f"jitter must be >= 0, got {self.jitter}")

    def draw(self, *key) -> float:
        if self.jitter == 0.0:
            return self.mean
        return max(0.0, self.mean + self.jitter * unit_draw(*key))


@dataclass(frozen=True)
class TokensModel:
    mean: float
    jitter: float = 0.0

    def __post_init__(self):
        if self.mean < 0 or self.jitter < 0:
            raise InvalidArgumentError("token model values must be >= 0")

    def draw(self, *key) -> int:
        if self.jitter == 0.0:
            return max(0, int(round(self.mean)))
        return max(0, int(round(self.mean + self.jitter * unit_draw(*key))))


class EmbeddingBackend(Protocol):
    modality: str
    dim: int

    def embed_timed(
        self, payload: str | bytes, tag: str | None = None, nonce: int = 0
    ) -> tuple[np.ndarray, float]: ...


class GenerationBackend(Protocol):
    path: str

    def generate(
        self,
        table_markdown: str,
        question: str,
        *,
        example_id: str | None = None,
        gold_answer: str | None = None,
        dataset_tag: str | None = None,
        nonce: int = 0,
    ) -> ExpertOutput: ...


class SimulatedEmbeddingBackend:
    """Hash-based embeddings with an optional per-dataset-tag bias vector.

    The bias lets synthetic corpora carry a linearly separable signal while
    keeping every embedding a pure function of (payload, seed, tag).
    """

    def __init__(
        self,
        modality: str,
        seed: int = 0,
        latency: LatencyModel | None = None,
        bias_by_tag: Mapping[str, np.ndarray] | None = None,
    ):
        if modality not in EMBED_DIMS:
            raise InvalidArgumentError(f"unknown modality {modality!r}")
        self.modality = modality
        self.dim = EMBED_DIMS[modality]
        self.seed = seed
        self.latency = latency or LatencyModel(0.05)
        self.bias_by_tag = dict(bias_by_tag or {})

    def embed(self, payload: str | bytes, tag: str | None = None) -> np.ndarray:
        bias = self.bias_by_tag.get(tag) if tag is not None else None
        return pseudo_embedding(payload, self.dim, self.seed, self.modality, bias)

    def embed_timed(
        self, payload: str | bytes, tag: str | None = None, nonce: int = 0
    ) -> tuple[np.ndarray, float]:
        vec = self.embed(payload, tag)
        lat = self.latency.draw("embed-lat", self.modality, self.seed, payload, nonce)
        return vec, lat


class SimulatedGenerationBackend:
    """Label-driven generator: emits the gold answer iff the example's label is 1."""

    def __init__(
        self,
        path: str,
        labels: Mapping[str, int],
        latency: LatencyModel | None = None,
        tokens: TokensModel | None = None,
        seed: int = 0,
    ):
        if path not in PATH_NAMES[:2]:
            raise InvalidArgumentError(f"generation path must be 'text' or 'image', got {path!r}")
        self.path = path
        self.labels = dict(labels)
        self.latency = latency or LatencyModel(1.0)
        self.tokens = tokens or TokensModel(32)
        self.seed = seed

    def generate(
        self,
        table_markdown: str,
        question: str,
        *,
        example_id: str | None = None,
        gold_answer: str | None = None,
        dataset_tag: str | None = None,
        nonce: int = 0,
    ) -> ExpertOutput:
        if example_id is None or example_id not in self.labels:
            raise ConfigurationError(
                f"simulated {self.path} expert has no correctness label for example {example_id!r}"
            )
        if gold_answer is None:
            raise ConfigurationError(
                f"simulated {self.path} expert needs the gold answer for example {example_id!r}"
            )
        correct = bool(self.labels[example_id])
        answer = gold_answer if correct else wrong_answer(gold_answer)
        explanation = (
            f"The {self.path} expert read the table and concluded "
            f"the answer is '{answer}'."
        )
        lat = self.latency.draw("gen-lat", self.path, self.seed, example_id, nonce)
        toks = self.tokens.draw("gen-tok", self.path, self.seed, example_id, nonce)
        return ExpertOutput(answer, explanation, lat, toks)


def whitespace_token_count(text: str) -> int:
    """Fallback token estimate when a backend reports no count."""
    return len(text.split())
