"""Expert backends: embedding extraction and answer generation.

Simulated backends stand in for the frozen text/vision experts at desk
scale: embeddings are hash-seeded pseudo-vectors, generation correctness is
driven by per-example labels, and latencies/token counts come from small
configurable models so benches are deterministic.
"""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); NEP 19
# keeps its output stable across numpy versions.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first `n` values of one of SeedSequence's uint32 hash constants,
    which start at `init` and are multiplied by `mult` after each use, as a
    column [n, 1]."""
    out = [init]
    while len(out) < n:
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# One hashmix per pool word, one per ordered pair of pool words, and one
# more constant for the last multiply; then 8 state words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hashmix(rows: np.ndarray, k: int, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 rows [m, N]: row i is the (k + i)-th
    hashmix, as numpy's hash constant advances once per call."""
    m = rows.shape[0]
    rows = rows ^ constants[k:k + m]
    rows *= constants[k + 1:k + m + 1]
    rows ^= rows >> _SHIFT
    return rows


class _SeedWords:
    """The four uint64 words SeedSequence(seed).generate_state(4, uint64)
    gives, already computed; all that PCG64 reads from its seed. It is
    registered as an `ISeedSequence` on first use."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise InvalidArgumentError("precomputed seed words serve PCG64 only")
        return self.words


def seeded_generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """`[np.random.Generator(np.random.PCG64(s)) for s in seeds]`, bit for bit.

    SeedSequence's pool mixing and `generate_state(4, uint64)` run once, as
    uint32 array operations over all seeds; each PCG64 then takes its four
    words from a `_SeedWords`. A seed below 2**64 has at most two uint32
    entropy words, and SeedSequence pads a shorter entropy with hashes of 0,
    as here. Seeds must be integers in [0, 2**64).
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
    seeds64 = np.array(ints, dtype=np.uint64)
    # The entropy words, low half first, padded with zeros to the pool size.
    pool = np.zeros((_POOL_SIZE, len(ints)), dtype=np.uint32)
    pool[0] = seeds64 & np.uint64(_MASK32)
    pool[1] = seeds64 >> np.uint64(32)
    pool = _hashmix(pool, 0, _HASH_A)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = pool[dst] * _MIX_L
                mixed -= _hashmix(pool[src:src + 1], k, _HASH_A)[0] * _MIX_R
                mixed ^= mixed >> _SHIFT
                pool[dst] = mixed
                k += 1
    state = _hashmix(pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE], 0, _HASH_B)
    state = state.astype(np.uint64)
    # uint64 word j is uint32 words 2j (low half) and 2j + 1; PCG64 reads
    # each seed's four words from one contiguous row.
    words = np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


@dataclass(frozen=True)
class LatencyModel:
    """mean + jitter * u, u in [-1, 1) keyed deterministically per call; a
    jitter below the mean keeps every draw above 0."""

    mean: float
    jitter: float = 0.0

    def __post_init__(self):
        if self.mean <= 0:
            raise InvalidArgumentError(f"latency mean must be > 0, got {self.mean}")
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


class SimulatedEmbeddingBackend:
    """Hash-based embeddings with an optional per-dataset-tag bias vector.

    The bias lets synthetic corpora carry a linearly separable signal while
    keeping every embedding a pure function of (payload, seed, tag): for a
    fixed (payload, seed, modality, tag) the vector is bitwise stable across
    runs and platforms. Without `latency` an embedding takes a flat 0.05 s:
    `make_separable_corpus` needs a model but never reads phase-1 times.
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
        for tag, bias in self.bias_by_tag.items():
            if np.shape(bias) != (self.dim,):
                raise InvalidArgumentError(
                    f"bias for tag {tag!r} must be {self.dim}-dim, got {np.shape(bias)}"
                )

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
            bias = self.bias_by_tag.get(tag) if tag is not None else None
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
        if path not in PATH_NAMES[:2]:
            raise InvalidArgumentError(f"generation path must be 'text' or 'image', got {path!r}")
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
