"""Synthetic corpora for offline experiments.

Each dataset tag maps to a fixed correctness profile (which of the three
paths solves its instances), and the simulated embedding backends add a
per-tag bias vector to every modality. Tags are therefore linearly separable
in embedding space and the correctness labels are an exact function of the
tag, which guarantees a linear routing solution exists.
"""
from __future__ import annotations

import numpy as np

from .corpus import RoutingExample, Table, example_from_raw, stratified_split
from .engine import EMBED_BLOCK_ROWS, embed_examples
from .errors import InvalidArgumentError
from .experts import LatencyModel, SimulatedEmbeddingBackend, seeded_generators, stable_digest64
from .paths import EMBED_DIMS, INPUT_DIM, KNOWN_DATASETS, MODALITIES, TRAINING_DATASETS

# Per-tag correctness profile: (text, image, fusion).
TAG_PROFILES: dict[str, tuple[int, int, int]] = {
    "wtq": (1, 0, 0),
    "tabmwp": (0, 1, 0),
    "tatqa": (0, 0, 1),
    "tabfact": (1, 0, 1),
    "infotabs": (0, 1, 1),
    "hitab": (1, 1, 1),
    "fetaqa": (0, 0, 1),
}

_ITEMS = (
    "copper", "wheat", "steel", "cotton", "coffee", "timber", "nickel",
    "rubber", "cocoa", "barley",
)


def tag_bias_vector(tag: str, modality: str, bias_scale: float, seed: int) -> np.ndarray:
    """Dense per-tag bias added to simulated embeddings of `modality`."""
    rng = np.random.Generator(np.random.PCG64(stable_digest64("tag-bias", seed, tag, modality)))
    return rng.uniform(-bias_scale, bias_scale, EMBED_DIMS[modality])


def biased_embedders(
    tags, bias_scale: float, seed: int, latencies: dict[str, LatencyModel] | None = None
) -> dict[str, SimulatedEmbeddingBackend]:
    """One simulated embedding backend per modality, biased per dataset tag."""
    latencies = latencies or {}
    backends = {}
    for modality in MODALITIES:
        bias = {t: tag_bias_vector(t, modality, bias_scale, seed) for t in tags}
        backends[modality] = SimulatedEmbeddingBackend(
            modality, seed=seed, latency=latencies.get(modality), bias_by_tag=bias
        )
    return backends


def _make_table(rng: np.random.Generator) -> tuple[Table, str, str]:
    """A small deterministic table plus a question and its gold answer."""
    items = rng.choice(len(_ITEMS), size=3, replace=False)
    rows = []
    for i in items:
        value = int(rng.integers(10, 500))
        year = int(rng.integers(1990, 2025))
        rows.append((_ITEMS[i], str(value), str(year)))
    target = rows[int(rng.integers(0, 3))]
    question = f"What is the recorded value for {target[0]}?"
    return Table(columns=("item", "value", "year"), rows=tuple(rows)), question, target[1]


def make_raw_records(
    n_examples: int,
    seed: int = 0,
    tags: tuple[str, ...] = TRAINING_DATASETS,
) -> list[dict]:
    """Raw (pre-ingest) records: table, question, gold answer, path labels."""
    if n_examples <= 0:
        raise InvalidArgumentError("n_examples must be > 0")
    unknown = [t for t in tags if t not in KNOWN_DATASETS]
    if unknown:
        raise InvalidArgumentError(f"unknown dataset tags: {unknown}")
    generators = seeded_generators(
        [stable_digest64("syn-example", seed, i) for i in range(n_examples)]
    )
    records = []
    for i, rng in enumerate(generators):
        tag = tags[i % len(tags)]
        table, question, gold = _make_table(rng)
        records.append(
            {
                "id": f"syn-{i:06d}",
                "dataset": tag,
                "question": question,
                "table": table.to_json(),
                "gold_answer": gold,
                "path_labels": list(TAG_PROFILES[tag]),
            }
        )
    return records


def make_separable_corpus(
    n_train: int = 2000,
    n_val: int = 500,
    *,
    seed: int = 0,
    bias_scale: float = 1.0,
    tags: tuple[str, ...] = TRAINING_DATASETS,
) -> tuple[list[RoutingExample], list[RoutingExample]]:
    """The documented separable corpus: embeddings resolved in memory.

    Path labels are taken directly from the tag profiles (running the
    simulated experts would reproduce them exactly, by construction).
    """
    total = n_train + n_val
    raws = make_raw_records(total, seed=seed, tags=tags)
    embedders = tuple(biased_embedders(tags, bias_scale, seed).values())
    examples = [example_from_raw(raw, raw["path_labels"]) for raw in raws]
    X = np.empty((total, INPUT_DIM), dtype=np.float32)
    for lo in range(0, total, EMBED_BLOCK_ROWS):
        hi = lo + EMBED_BLOCK_ROWS
        embed_examples(examples[lo:hi], embedders, out=X[lo:hi])
    for example, x in zip(examples, X):
        example.embedding = x
    return stratified_split(examples, n_val / total, seed)
