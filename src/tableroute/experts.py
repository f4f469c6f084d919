"""Expert backends: embedding extraction and answer generation.

Simulated backends stand in for the frozen text/vision experts at desk
scale: embeddings are hash-seeded pseudo-vectors, generation correctness is
driven by per-example labels, and latencies/token counts come from small
configurable models so benches are deterministic.

Every random stream in tableroute is a `seeded_generators` generator whose
seed is `stable_digest64` of the stream's name and key, so no two streams
share a seed and a key of any size is accepted.
"""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError
from .paths import EMBED_DIMS, KNOWN_DATASETS

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


class _SeedWords:
    """PCG64's four uint64 seed words, already computed: all that PCG64
    reads from its seed. It is registered as an `ISeedSequence` on first
    use."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seeded_generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """One PCG64 generator per seed, the one source of every random stream.

    A seed's four PCG64 seed words are the BLAKE2b-256 digest of its eight
    little-endian bytes, read as four little-endian uint64 words: a digest
    is already well-mixed state, so no SeedSequence runs. Seeds must be
    integers in [0, 2**64); a key of any size reaches here through
    `stable_digest64`.
    """
    try:
        ints = [operator.index(s) for s in seeds]
    except TypeError as e:
        raise InvalidArgumentError(f"seeds must be integers: {e}") from None
    bad = [s for s in ints if not 0 <= s < 1 << 64]
    if bad:
        raise InvalidArgumentError(f"seeds must be in [0, 2**64), got {bad[0]}")
    # Imported here, not with the module: loading numpy.random takes about
    # 16 ms, and `route` seeds no stream at all.
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    digests = b"".join(hashlib.blake2b(s.to_bytes(8, "little"), digest_size=32).digest()
                       for s in ints)
    # Native uint64, one contiguous row of four words per seed.
    words = np.frombuffer(digests, dtype="<u8").astype(np.uint64).reshape(-1, 4)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


@dataclass(frozen=True)
class LatencyModel:
    """mean + jitter * u, u in [-1, 1) keyed deterministically per call; a
    jitter in [0, mean), which leaves no mean <= 0, keeps every draw above 0."""

    mean: float
    jitter: float = 0.0

    def __post_init__(self):
        if not 0 <= self.jitter < self.mean:
            raise InvalidArgumentError(
                f"jitter must be >= 0 and below the mean {self.mean}, got {self.jitter}")

    def draw(self, *key) -> float:
        if self.jitter == 0.0:
            return self.mean
        return self.mean + self.jitter * unit_draw(*key)


@dataclass(frozen=True)
class TokensModel:
    mean: float
    jitter: float = 0.0

    def draw(self, *key) -> int:
        if self.jitter == 0.0:
            return max(0, int(round(self.mean)))
        return max(0, int(round(self.mean + self.jitter * unit_draw(*key))))


class EmbeddingBackend(Protocol):
    modality: str
    dim: int

    def embed_timed(
        self,
        payloads: Sequence[str | bytes],
        tags: Sequence[str | None] | None = None,
        nonce: int = 0,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[float]]:
        """The float32 embeddings [B, dim] of `payloads`, one per row, written
        into `out` if given, and each row's embedding time; `tags` gives each
        payload's dataset tag."""
        ...


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


def tag_bias_vector(tag: str, modality: str, bias_scale: float, seed: int) -> np.ndarray:
    """Dense per-tag bias added to simulated embeddings of `modality`."""
    rng = seeded_generators([stable_digest64("tag-bias", seed, tag, modality)])[0]
    return rng.uniform(-bias_scale, bias_scale, EMBED_DIMS[modality])


class SimulatedEmbeddingBackend:
    """Hash-based embeddings plus a bias vector per known dataset tag.

    The bias of each tag in `KNOWN_DATASETS` is `tag_bias_vector(tag,
    modality, bias_scale, seed)`, drawn here, so synthetic corpora carry a
    linearly separable signal while every embedding stays a pure function of
    (payload, seed, tag), bitwise stable across runs and platforms. At the
    default `bias_scale` of 0 every bias is zero. Without `latency` an
    embedding takes a flat 0.05 s: `make_separable_corpus` needs a model but
    never reads phase-1 times.
    """

    def __init__(
        self,
        modality: str,
        seed: int = 0,
        latency: LatencyModel | None = None,
        bias_scale: float = 0.0,
    ):
        self.modality = modality
        self.dim = EMBED_DIMS[modality]
        self.seed = seed
        self.latency = latency or LatencyModel(0.05)
        self.bias_by_tag = {tag: tag_bias_vector(tag, modality, bias_scale, seed)
                            for tag in KNOWN_DATASETS}

    def embed(
        self,
        payloads: Sequence[str | bytes],
        tags: Sequence[str | None] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Hash-seeded uniforms in [-1, 1], plus the row's tag bias, as float32
        [B, dim], written into `out` if given. Row b is `(uniform(-1, 1, dim)
        + bias).astype(float32)` from the generator seeded by
        `stable_digest64("embed", modality, seed, payload)`: each row is
        computed in one float64 buffer that stays in cache, and `2 * u` is
        exact, so the bits are the same."""
        tags = [None] * len(payloads) if tags is None else tags
        generators = seeded_generators(
            [stable_digest64("embed", self.modality, self.seed, p) for p in payloads]
        )
        if out is None:
            out = np.empty((len(payloads), self.dim), dtype=np.float32)
        row = np.empty(self.dim)
        for b, (rng, tag) in enumerate(zip(generators, tags, strict=True)):
            rng.random(out=row)
            row *= 2.0
            row -= 1.0
            bias = self.bias_by_tag.get(tag)
            if bias is not None:
                row += bias
            out[b] = row
        return out

    def embed_timed(
        self,
        payloads: Sequence[str | bytes],
        tags: Sequence[str | None] | None = None,
        nonce: int = 0,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[float]]:
        lats = [self.latency.draw("embed-lat", self.modality, self.seed, p, nonce)
                for p in payloads]
        return self.embed(payloads, tags, out), lats


class SimulatedGenerationBackend:
    """Label-driven generator: emits the gold answer iff the example's label is 1."""

    def __init__(
        self,
        path: str,
        labels: Mapping[str, int],
        latency: LatencyModel,
        tokens: TokensModel,
        seed: int = 0,
    ):
        self.path = path
        self.labels = dict(labels)
        self.latency = latency
        self.tokens = tokens
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
