import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute.errors import ConfigurationError
from tableroute.experts import (
    LatencyModel,
    SimulatedEmbeddingBackend,
    SimulatedGenerationBackend,
    TokensModel,
    answers_match,
    normalize_answer,
    pseudo_embedding,
    unit_draw,
    whitespace_token_count,
    wrong_answer,
)


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


class TestPseudoEmbedding:
    def test_deterministic(self):
        a = pseudo_embedding("same payload", 64, seed=3, modality="text")
        b = pseudo_embedding("same payload", 64, seed=3, modality="text")
        np.testing.assert_array_equal(a, b)

    def test_varies_with_payload_seed_modality(self):
        base = pseudo_embedding("p", 64, seed=3, modality="text")
        assert not np.array_equal(base, pseudo_embedding("q", 64, seed=3, modality="text"))
        assert not np.array_equal(base, pseudo_embedding("p", 64, seed=4, modality="text"))
        assert not np.array_equal(base, pseudo_embedding("p", 64, seed=3, modality="vision"))

    def test_range_and_dtype(self):
        v = pseudo_embedding("x", 512, seed=0, modality="question")
        assert v.dtype == np.float32
        assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_bias_added(self):
        bias = np.full(16, 5.0)
        v = pseudo_embedding("x", 16, seed=0, modality="text", bias=bias)
        assert np.all(v >= 4.0)

    def test_unit_draw_stable_and_bounded(self):
        assert unit_draw("a", 1, "b") == unit_draw("a", 1, "b")
        for i in range(200):
            assert -1.0 <= unit_draw("key", i) < 1.0


class TestEmbeddingBackend:
    def test_question_dim(self):
        backend = SimulatedEmbeddingBackend("question", seed=1)
        vec = backend.embed("what is the total?")
        assert vec.shape == (384,)

    def test_all_dims(self):
        for modality, dim in (("question", 384), ("text", 3584), ("vision", 6144)):
            assert SimulatedEmbeddingBackend(modality).embed("p").shape == (dim,)

    def test_same_payload_same_vector(self):
        backend = SimulatedEmbeddingBackend("text", seed=9)
        np.testing.assert_array_equal(backend.embed("t"), backend.embed("t"))

    def test_tag_bias_changes_vector(self):
        bias = {"wtq": np.full(3584, 2.0, dtype=np.float64)}
        backend = SimulatedEmbeddingBackend("text", seed=9, bias_by_tag=bias)
        plain = backend.embed("t")
        biased = backend.embed("t", tag="wtq")
        assert not np.array_equal(plain, biased)
        np.testing.assert_allclose(biased - plain, 2.0, atol=1e-6)

    def test_timed_latency_configured(self):
        backend = SimulatedEmbeddingBackend("text", latency=LatencyModel(0.10, 0.0))
        _, lat = backend.embed_timed("t")
        assert lat == 0.10

    def test_bytes_payload(self):
        backend = SimulatedEmbeddingBackend("vision", seed=2)
        a = backend.embed(b"image bytes")
        b = backend.embed(b"image bytes")
        np.testing.assert_array_equal(a, b)


class TestGenerationBackend:
    def test_label_one_returns_gold(self):
        backend = SimulatedGenerationBackend("text", {"ex": 1}, LatencyModel(1.445, 0.0))
        out = backend.generate("| t |", "q", example_id="ex", gold_answer="Bolivia")
        assert out.answer == "Bolivia"
        assert out.latency_seconds == 1.445

    def test_label_zero_differs_from_gold(self):
        backend = SimulatedGenerationBackend("image", {"ex": 0})
        out = backend.generate("| t |", "q", example_id="ex", gold_answer="Bolivia")
        assert not answers_match(out.answer, "Bolivia")

    def test_missing_label_is_configuration_error(self):
        backend = SimulatedGenerationBackend("text", {})
        with pytest.raises(ConfigurationError):
            backend.generate("| t |", "q", example_id="nope", gold_answer="x")

    def test_missing_gold_is_configuration_error(self):
        backend = SimulatedGenerationBackend("text", {"ex": 1})
        with pytest.raises(ConfigurationError):
            backend.generate("| t |", "q", example_id="ex")

    def test_population_reproduces_label_accuracy(self):
        rng = np.random.default_rng(0)
        labels = {f"e{i}": int(rng.integers(0, 2)) for i in range(200)}
        backend = SimulatedGenerationBackend("text", labels)
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


def test_whitespace_token_count():
    assert whitespace_token_count("a b  c") == 3
    assert whitespace_token_count("") == 0
