import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    unit_draw,
    whitespace_token_count,
    wrong_answer,
)
from tableroute.paths import EMBED_DIMS, QUESTION_DIM


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Bolivia  ", "bolivia"),
            ('"True"', "true"),
            ("[Entail]", "entail"),
            ("two   words\there", "two words here"),
            ("('nested')", "nested"),
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


def _embed_one(payload, seed, modality, bias=None):
    """One payload through the batched simulated embedder, as a row."""
    tags = None if bias is None else ["tag"]
    backend = SimulatedEmbeddingBackend(
        modality, seed=seed, bias_by_tag=None if bias is None else {"tag": bias}
    )
    return backend.embed([payload], tags)[0]


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
        v = _embed_one("x", seed=0, modality="question", bias=np.full(QUESTION_DIM, 5.0))
        assert np.all(v >= 4.0)

    def test_unit_draw_stable_and_bounded(self):
        assert unit_draw("a", 1, "b") == unit_draw("a", 1, "b")
        for i in range(200):
            assert -1.0 <= unit_draw("key", i) < 1.0


# Seeds at the edges of SeedSequence's one- and two-word entropy.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestSeededGenerators:
    @staticmethod
    def _assert_same_streams(seeds):
        got = seeded_generators(seeds)
        assert len(got) == len(seeds)
        for seed, rng in zip(seeds, got):
            ref = np.random.Generator(np.random.PCG64(seed))
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
    """The embedding as one expression: a generator from PCG64(int), then
    uniform draws plus the tag's bias, cast to float32."""
    seed = stable_digest64("embed", backend.modality, backend.seed, payload)
    rng = np.random.Generator(np.random.PCG64(seed))
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
        bias = {"wtq": np.random.default_rng(1).uniform(-1, 1, dim)} if biased else None
        backend = SimulatedEmbeddingBackend(modality, seed=5, bias_by_tag=bias)
        payloads = [f"payload {i}" if i % 2 else f"payload {i}".encode() for i in range(batch)]
        # untagged rows and rows whose tag has no bias take none
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

    def test_wrong_bias_shape_refused_at_construction(self):
        with pytest.raises(InvalidArgumentError, match="wtq"):
            SimulatedEmbeddingBackend("text", bias_by_tag={"wtq": np.zeros(16)})


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
        bias = {"wtq": np.full(3584, 2.0, dtype=np.float64)}
        backend = SimulatedEmbeddingBackend("text", seed=9, bias_by_tag=bias)
        plain, biased = backend.embed(["t", "t"], [None, "wtq"])
        assert not np.array_equal(plain, biased)
        np.testing.assert_allclose(biased - plain, 2.0, atol=1e-6)

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

    @pytest.mark.parametrize("jitter", [1.0, 2.0, -0.1])
    def test_jitter_outside_zero_to_mean_refused(self, jitter):
        # A jitter at or over the mean could draw a latency of 0 (or below).
        with pytest.raises(InvalidArgumentError, match="jitter"):
            LatencyModel(1.0, jitter)


def test_whitespace_token_count():
    assert whitespace_token_count("a b  c") == 3
    assert whitespace_token_count("") == 0
