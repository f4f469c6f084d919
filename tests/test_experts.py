import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from tableroute.errors import ConfigurationError, InvalidArgumentError
from tableroute.experts import (
    LatencyModel,
    SimulatedEmbeddingBackend,
    SimulatedGenerationBackend,
    TokensModel,
    answers_match,
    normalize_answer,
    seeded_generators,
    stable_digest64,
    tag_bias_vector,
    unit_draw,
    whitespace_token_count,
    wrong_answer,
)
from tableroute.paths import EMBED_DIMS, KNOWN_DATASETS, MODALITIES, QUESTION_DIM


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Bolivia  ", "bolivia"),
            ('"True"', "true"),
            ("[Entail]", "entail"),
            ("two   words\there", "two words here"),
            ("('nested')", "nested"),
            ('""', ""),
            ("", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_wrong_answer_never_matches(self, gold):
        assert not answers_match(wrong_answer(gold), gold)


def _embed_one(payload, seed, modality, tag=None, bias_scale=0.0):
    """One payload through the batched simulated embedder, as a row."""
    backend = SimulatedEmbeddingBackend(modality, seed=seed, bias_scale=bias_scale)
    return backend.embed([payload], [tag])[0]


class TestPseudoEmbedding:
    def test_deterministic(self):
        a = _embed_one("same payload", seed=3, modality="text")
        b = _embed_one("same payload", seed=3, modality="text")
        np.testing.assert_array_equal(a, b)

    def test_varies_with_payload_seed_modality(self):
        base = _embed_one("p", seed=3, modality="question")
        assert not np.array_equal(base, _embed_one("q", seed=3, modality="question"))
        assert not np.array_equal(base, _embed_one("p", seed=4, modality="question"))
        other = _embed_one("p", seed=3, modality="text")
        assert not np.array_equal(base, other[:QUESTION_DIM])

    def test_range_and_dtype(self):
        v = _embed_one("x", seed=0, modality="question")
        assert v.dtype == np.float32
        assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_bias_added(self):
        plain = _embed_one("x", seed=0, modality="question")
        biased = _embed_one("x", seed=0, modality="question", tag="wtq", bias_scale=5.0)
        np.testing.assert_allclose(biased - plain, tag_bias_vector("wtq", "question", 5.0, 0),
                                   atol=1e-5)
        assert np.abs(biased).max() > 1.0

    def test_unit_draw_stable_and_bounded(self):
        assert unit_draw("a", 1, "b") == unit_draw("a", 1, "b")
        for i in range(200):
            assert -1.0 <= unit_draw("key", i) < 1.0


class _Blake2bSeed(ISeedSequence):
    """PCG64's seed words as the seeding rule states them: the BLAKE2b-256
    digest of the seed's eight little-endian bytes, as four little-endian
    uint64 words."""

    def __init__(self, seed):
        digest = hashlib.blake2b(int(seed).to_bytes(8, "little"), digest_size=32).digest()
        self.words = np.frombuffer(digest, dtype="<u8").astype(np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def reference_generator(seed) -> np.random.Generator:
    """The tests' one reference for the generator `seeded_generators` gives `seed`."""
    return np.random.Generator(np.random.PCG64(_Blake2bSeed(seed)))


# Seeds at the edges of one and two 32-bit words, and of 64 bits.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestSeededGenerators:
    @staticmethod
    def _assert_same_streams(seeds):
        got = seeded_generators(seeds)
        assert len(got) == len(seeds)
        for seed, rng in zip(seeds, got):
            ref = reference_generator(seed)
            assert rng.bit_generator.state == ref.bit_generator.state, seed
            np.testing.assert_array_equal(rng.random(8), ref.random(8))

    def test_edge_seeds_match_numpy(self):
        self._assert_same_streams(EDGE_SEEDS)

    def test_random_seeds_match_numpy(self):
        draws = np.random.default_rng(2024).integers(0, 2**64, size=1000, dtype=np.uint64)
        self._assert_same_streams([int(s) for s in draws])

    def test_numpy_integer_seeds(self):
        self._assert_same_streams(list(np.arange(5, dtype=np.uint64)) + [np.int64(2**40)])

    def test_empty(self):
        assert seeded_generators([]) == []

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.0, 2.5, "7", None])
    def test_refuses_seeds_outside_range_or_not_integers(self, bad):
        with pytest.raises(InvalidArgumentError):
            seeded_generators([3, bad])


def _reference_embedding(backend, payload, tag):
    """The embedding as one expression: the reference generator of the row's
    seed, then uniform draws plus the tag's bias, cast to float32."""
    seed = stable_digest64("embed", backend.modality, backend.seed, payload)
    rng = reference_generator(seed)
    vec = rng.uniform(-1.0, 1.0, backend.dim)
    bias = backend.bias_by_tag.get(tag) if tag is not None else None
    if bias is not None:
        vec = vec + bias
    return vec.astype(np.float32)


class TestBatchedEmbedding:
    @pytest.mark.parametrize("modality", ["question", "text", "vision"])
    @pytest.mark.parametrize("batch", [1, 7, 64, 65])
    @pytest.mark.parametrize("biased", [False, True])
    def test_rows_equal_the_reference_expression(self, modality, batch, biased):
        dim = EMBED_DIMS[modality]
        backend = SimulatedEmbeddingBackend(modality, seed=5, bias_scale=1.0 if biased else 0.0)
        payloads = [f"payload {i}" if i % 2 else f"payload {i}".encode() for i in range(batch)]
        # untagged rows take no bias
        tags = [("wtq", None, "hitab")[i % 3] for i in range(batch)]
        got = backend.embed(payloads, tags)
        assert got.shape == (batch, dim) and got.dtype == np.float32
        for row, payload, tag in zip(got, payloads, tags):
            assert row.tobytes() == _reference_embedding(backend, payload, tag).tobytes()

    def test_out_is_filled_in_place(self):
        backend = SimulatedEmbeddingBackend("question", seed=2)
        block = np.zeros((3, QUESTION_DIM + 5), dtype=np.float32)
        got, _ = backend.embed_timed(["a", "b", "c"], out=block[:, :QUESTION_DIM])
        assert np.shares_memory(got, block)
        np.testing.assert_array_equal(block[:, :QUESTION_DIM], backend.embed(["a", "b", "c"]))
        assert not block[:, QUESTION_DIM:].any()

    @pytest.mark.parametrize("modality", MODALITIES)
    def test_each_known_tag_gets_its_drawn_bias(self, modality):
        backend = SimulatedEmbeddingBackend(modality, seed=5, bias_scale=0.5)
        assert set(backend.bias_by_tag) == set(KNOWN_DATASETS)
        for tag, bias in backend.bias_by_tag.items():
            assert bias.shape == (EMBED_DIMS[modality],)
            assert bias.tobytes() == tag_bias_vector(tag, modality, 0.5, 5).tobytes()
        payloads = ["p", "q", b"r"]
        plain = backend.embed(payloads)
        # no tag and an unknown tag take no bias
        assert backend.embed(payloads, [None, "nope", None]).tobytes() == plain.tobytes()
        # at scale 0 every known tag's row is the untagged row, bit for bit
        unscaled = SimulatedEmbeddingBackend(modality, seed=5, bias_scale=0.0)
        for tag in KNOWN_DATASETS:
            rows = unscaled.embed(payloads, [tag] * len(payloads))
            assert rows.tobytes() == plain.tobytes()


class TestEmbeddingBackend:
    def test_question_dim(self):
        backend = SimulatedEmbeddingBackend("question", seed=1)
        vec = backend.embed(["what is the total?"])
        assert vec.shape == (1, 384)

    def test_all_dims(self):
        for modality, dim in (("question", 384), ("text", 3584), ("vision", 6144)):
            assert SimulatedEmbeddingBackend(modality).embed(["p", "q"]).shape == (2, dim)

    def test_same_payload_same_vector(self):
        backend = SimulatedEmbeddingBackend("text", seed=9)
        a, b = backend.embed(["t", "t"])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, backend.embed(["t"])[0])

    def test_tag_bias_changes_vector(self):
        backend = SimulatedEmbeddingBackend("text", seed=9, bias_scale=2.0)
        plain, biased = backend.embed(["t", "t"], [None, "wtq"])
        assert not np.array_equal(plain, biased)
        np.testing.assert_allclose(biased - plain, backend.bias_by_tag["wtq"], atol=1e-6)

    def test_timed_latency_configured(self):
        backend = SimulatedEmbeddingBackend("text", latency=LatencyModel(0.10, 0.0))
        _, lats = backend.embed_timed(["t", "u"])
        assert lats == [0.10, 0.10]

    def test_bytes_payload(self):
        backend = SimulatedEmbeddingBackend("vision", seed=2)
        a = backend.embed([b"image bytes"])
        b = backend.embed([b"image bytes"])
        np.testing.assert_array_equal(a, b)


GEN_MODELS = (LatencyModel(1.0), TokensModel(32))


class TestGenerationBackend:
    def test_label_one_returns_gold(self):
        backend = SimulatedGenerationBackend("text", {"ex": 1}, LatencyModel(1.445), TokensModel(64))
        out = backend.generate("| t |", "q", example_id="ex", gold_answer="Bolivia")
        assert out.answer == "Bolivia"
        assert out.latency_seconds == 1.445

    def test_label_zero_differs_from_gold(self):
        backend = SimulatedGenerationBackend("image", {"ex": 0}, *GEN_MODELS)
        out = backend.generate("| t |", "q", example_id="ex", gold_answer="Bolivia")
        assert not answers_match(out.answer, "Bolivia")

    def test_missing_label_is_configuration_error(self):
        backend = SimulatedGenerationBackend("text", {}, *GEN_MODELS)
        with pytest.raises(ConfigurationError):
            backend.generate("| t |", "q", example_id="nope", gold_answer="x")

    def test_missing_gold_is_configuration_error(self):
        backend = SimulatedGenerationBackend("text", {"ex": 1}, *GEN_MODELS)
        with pytest.raises(ConfigurationError):
            backend.generate("| t |", "q", example_id="ex")

    def test_population_reproduces_label_accuracy(self):
        rng = np.random.default_rng(0)
        labels = {f"e{i}": int(rng.integers(0, 2)) for i in range(200)}
        backend = SimulatedGenerationBackend("text", labels, *GEN_MODELS)
        hits = sum(
            answers_match(
                backend.generate("|t|", "q", example_id=k, gold_answer="G").answer, "G"
            )
            for k in labels
        )
        assert hits == sum(labels.values())

    def test_jittered_latency_deterministic_per_key(self):
        backend = SimulatedGenerationBackend(
            "text", {"ex": 1}, LatencyModel(1.0, 0.2), TokensModel(30, 5), seed=4
        )
        a = backend.generate("|t|", "q", example_id="ex", gold_answer="g", nonce=1)
        b = backend.generate("|t|", "q", example_id="ex", gold_answer="g", nonce=1)
        c = backend.generate("|t|", "q", example_id="ex", gold_answer="g", nonce=2)
        assert a.latency_seconds == b.latency_seconds
        assert a.latency_seconds != c.latency_seconds
        assert 0.8 <= a.latency_seconds <= 1.2

    def test_jittered_tokens_vary_per_key(self):
        tokens = TokensModel(30, 5)
        draws = {tokens.draw("gen-tok", "text", 0, "ex", nonce) for nonce in range(20)}
        assert len(draws) > 1 and all(25 <= d <= 35 for d in draws)

    @pytest.mark.parametrize("jitter", [1.0, 2.0, -0.1])
    def test_jitter_outside_zero_to_mean_refused(self, jitter):
        # A jitter at or over the mean could draw a latency of 0 (or below).
        with pytest.raises(InvalidArgumentError, match="jitter"):
            LatencyModel(1.0, jitter)


def test_whitespace_token_count():
    assert whitespace_token_count("a b  c") == 3
    assert whitespace_token_count("") == 0
