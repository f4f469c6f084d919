"""Remote client contract tests against a fake transport."""
import json
import re
import time
import warnings

import numpy as np
import pytest
import requests

from tableroute.errors import (
    ConfigError,
    ConnectionFailedError,
    ContractViolationError,
    MalformedResponseError,
    RequestTimeoutError,
)
from tableroute.remote import (
    RemoteAgentBackend,
    RemoteClient,
    RemoteEmbeddingBackend,
    RemoteGenerationBackend,
)
from tableroute.runconfig import build_stack, load_runconfig


class FakeResponse:
    def __init__(self, body, status_code=200):
        self._body = body
        self.status_code = status_code

    def json(self):
        if isinstance(self._body, (dict, list)):
            return self._body
        return json.loads(self._body)


class FakeSession:
    """Replays a list of outcomes: exceptions raise, other values return."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append({"url": url, "json": json, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_client(outcomes, max_retries=2):
    session = FakeSession(outcomes)
    client = RemoteClient(
        "http://backend:9000", timeout_s=1.0, max_retries=max_retries,
        backoff_s=0.01, session=session, sleep=lambda s: None,
    )
    return client, session


class TestRetryContract:
    def test_success_first_try(self):
        client, session = make_client([FakeResponse({"embedding": [1.0]})])
        body, latency = client.post_json("/embed", {"modality": "question"})
        assert body == {"embedding": [1.0]}
        assert latency >= 0
        assert len(session.calls) == 1

    def test_connection_refused_retries_then_fails(self):
        client, session = make_client([requests.ConnectionError()] * 3, max_retries=2)
        with pytest.raises(ConnectionFailedError) as err:
            client.post_json("/embed", {})
        assert len(session.calls) == 3  # 1 initial + 2 retries
        assert err.value.attempts == 3
        assert "http://backend:9000/embed" in str(err.value)

    def test_error_keeps_its_message_and_fields(self):
        err = RequestTimeoutError("timed out", 3, 0.5)
        assert (str(err), err.attempts, err.elapsed_s) == ("timed out", 3, 0.5)

    def test_failure_carries_attempt_and_backoff_seconds(self):
        sleeps = []
        session = FakeSession([requests.Timeout()] * 3)
        client = RemoteClient("http://backend:9000", timeout_s=1.0, max_retries=2,
                              backoff_s=0.01, session=session, sleep=sleeps.append)
        with pytest.raises(RequestTimeoutError) as err:
            client.post_json("/complete", {})
        assert sleeps == [0.01, 0.02]
        # the fake attempts return at once, so the backoff is nearly all of it
        assert sum(sleeps) <= err.value.elapsed_s < sum(sleeps) + 0.05

    def test_failure_time_counts_every_attempt(self, monkeypatch):
        # a clock that moves 1 s between any two readings: each of the three
        # attempts takes 1 s, on top of the 0.01 + 0.02 s of backoff
        ticks = iter(range(100))
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
        client, _ = make_client([requests.Timeout()] * 3)
        with pytest.raises(RequestTimeoutError) as err:
            client.post_json("/complete", {})
        assert err.value.elapsed_s == pytest.approx(3.03)

    def test_timeout_surfaced_distinctly(self):
        client, _ = make_client([requests.Timeout()] * 3)
        with pytest.raises(RequestTimeoutError):
            client.post_json("/generate", {})

    def test_transient_failure_then_success(self):
        client, session = make_client(
            [requests.ConnectionError(), FakeResponse({"text": "ok"})]
        )
        body, _ = client.post_json("/complete", {})
        assert body == {"text": "ok"}
        assert len(session.calls) == 2

    def test_body_cut_off_is_retried(self):
        # Running out of retries is one of test_engine's REMOTE_FAILURES.
        client, session = make_client(
            [requests.exceptions.ChunkedEncodingError(), FakeResponse({"text": "ok"})])
        assert client.post_json("/complete", {})[0] == {"text": "ok"}
        assert len(session.calls) == 2

    def test_other_request_failure_is_malformed_and_never_retried(self):
        client, session = make_client([requests.exceptions.TooManyRedirects("30 redirects")] * 2)
        with pytest.raises(MalformedResponseError, match="TooManyRedirects"):
            client.post_json("/complete", {})
        assert len(session.calls) == 1

    def test_malformed_response_never_retried(self):
        client, session = make_client([FakeResponse("not json"), FakeResponse({"x": 1})])
        with pytest.raises(MalformedResponseError):
            client.post_json("/embed", {})
        assert len(session.calls) == 1

    def test_json_that_is_not_an_object_is_malformed(self):
        client, _ = make_client([FakeResponse([1, 2])])
        with pytest.raises(MalformedResponseError, match="returned a non-object JSON body"):
            client.post_json("/generate", {})

    def test_http_error_never_retried(self):
        client, session = make_client([FakeResponse({}, status_code=500)] * 2)
        with pytest.raises(MalformedResponseError):
            client.post_json("/embed", {})
        assert len(session.calls) == 1


class TestRemoteEmbedding:
    def test_delivers_vector(self):
        client, session = make_client([FakeResponse({"embedding": [0.0] * 384})])
        backend = RemoteEmbeddingBackend(client, "question")
        vec = backend.embed_timed(["what?"])[0]
        assert vec.shape == (1, 384)
        assert session.calls[0]["json"] == {"modality": "question", "text": "what?"}

    def test_bytes_payload_base64(self):
        client, session = make_client([FakeResponse({"embedding": [0.0] * 6144})])
        backend = RemoteEmbeddingBackend(client, "vision")
        backend.embed_timed([b"\x00\x01"])
        assert "payload_b64" in session.calls[0]["json"]

    def test_wrong_dim_is_contract_violation(self):
        client, _ = make_client([FakeResponse({"embedding": [0.0] * 100})])
        backend = RemoteEmbeddingBackend(client, "question")
        with pytest.raises(ContractViolationError):
            backend.embed_timed(["q"])

    def test_nested_embedding_names_its_shape(self):
        client, _ = make_client([FakeResponse({"embedding": [[0.0]] * 384})])
        backend = RemoteEmbeddingBackend(client, "question")
        with pytest.raises(ContractViolationError,
                           match=r"embedding of shape \(384, 1\) for question, expected \(384,\)"):
            backend.embed_timed(["q"])

    @pytest.mark.parametrize("entries", [["0.5"] * 384, ["x"] * 384, [None] * 384,
                                         [True] * 384, [[0.0], 0.0] * 192],
                             ids=["numeric-strings", "strings", "nulls", "booleans", "ragged"])
    def test_entries_that_are_not_numbers_are_malformed(self, entries):
        client, _ = make_client([FakeResponse({"embedding": entries})])
        backend = RemoteEmbeddingBackend(client, "question")
        with pytest.raises(MalformedResponseError, match="'embedding'"):
            backend.embed_timed(["q"])

    @pytest.mark.parametrize("entry", [1e39, -1e39, float("nan"), float("inf")],
                             ids=["over", "under", "nan", "infinity"])
    def test_entries_float32_cannot_hold_are_contract_violations(self, entry):
        # As the server's text: json writes NaN and Infinity, which json reads back.
        body = json.dumps({"embedding": [0.5] * 383 + [entry]})
        client, _ = make_client([FakeResponse(body)])
        backend = RemoteEmbeddingBackend(client, "question")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError,
                               match=r"backend:9000/embed .* for question .* float32 cannot hold"):
                backend.embed_timed(["q"])

    def test_largest_float32_is_kept(self):
        top = float(np.finfo(np.float32).max)
        client, _ = make_client([FakeResponse({"embedding": [top, -top] * 192})])
        vec = RemoteEmbeddingBackend(client, "question").embed_timed(["q"])[0]
        assert np.isfinite(vec).all() and vec[0, 0] == np.float32(top)

    def test_missing_field_is_malformed(self):
        client, _ = make_client([FakeResponse({"vector": []})])
        backend = RemoteEmbeddingBackend(client, "question")
        with pytest.raises(MalformedResponseError):
            backend.embed_timed(["q"])

    def test_batch_is_one_request_per_payload_in_order(self):
        client, session = make_client(
            [FakeResponse({"embedding": [float(i)] * 384}) for i in range(3)]
        )
        backend = RemoteEmbeddingBackend(client, "question")
        vecs, times = backend.embed_timed(["a", b"b", "c"], ["wtq"] * 3, nonce=4)
        assert [c["json"] for c in session.calls] == [
            {"modality": "question", "text": "a"},
            {"modality": "question", "payload_b64": "Yg=="},
            {"modality": "question", "text": "c"},
        ]
        assert [v[0] for v in vecs] == [0.0, 1.0, 2.0] and len(times) == 3


class TestRemoteGeneration:
    def test_delivers_output(self):
        client, session = make_client(
            [FakeResponse({"answer": "42", "explanation": "because", "output_tokens": 7})]
        )
        backend = RemoteGenerationBackend(client, "text")
        out = backend.generate("| t |", "q", dataset_tag="wtq")
        assert out.answer == "42"
        assert out.output_tokens == 7
        assert session.calls[0]["json"]["dataset_tag"] == "wtq"

    def test_token_fallback_whitespace(self):
        client, _ = make_client([FakeResponse({"answer": "two words", "explanation": "x y"})])
        backend = RemoteGenerationBackend(client, "text")
        out = backend.generate("| t |", "q")
        assert out.output_tokens == 4

    def test_zero_output_tokens_kept(self):
        client, _ = make_client([FakeResponse({"answer": "", "output_tokens": 0})])
        assert RemoteGenerationBackend(client, "text").generate("| t |", "q").output_tokens == 0

    def test_missing_answer_malformed(self):
        client, _ = make_client([FakeResponse({"explanation": "no answer"})])
        backend = RemoteGenerationBackend(client, "text")
        with pytest.raises(MalformedResponseError):
            backend.generate("| t |", "q")

    def test_null_answer_malformed(self):
        client, _ = make_client([FakeResponse({"answer": None, "output_tokens": 1})])
        backend = RemoteGenerationBackend(client, "text")
        with pytest.raises(MalformedResponseError, match="string 'answer', got None"):
            backend.generate("| t |", "q")

    @pytest.mark.parametrize("explanation", [None, 5, ["a"], {"a": 1}, True],
                             ids=["null", "int", "list", "object", "bool"])
    def test_explanation_other_than_a_string_malformed(self, explanation):
        client, _ = make_client([FakeResponse({"answer": "42", "explanation": explanation})])
        backend = RemoteGenerationBackend(client, "text")
        with pytest.raises(MalformedResponseError,
                           match=re.escape(f"string 'explanation', got {explanation!r}")):
            backend.generate("| t |", "q")

    def test_absent_explanation_is_empty(self):
        client, _ = make_client([FakeResponse({"answer": "42"})])
        out = RemoteGenerationBackend(client, "text").generate("| t |", "q")
        assert (out.explanation, out.output_tokens) == ("", 1)

    @pytest.mark.parametrize("tokens", ["many", "7", 7.0, -1, True])
    def test_output_tokens_other_than_a_count_malformed(self, tokens):
        client, _ = make_client([FakeResponse({"answer": "42", "output_tokens": tokens})])
        backend = RemoteGenerationBackend(client, "text")
        with pytest.raises(MalformedResponseError, match="'output_tokens' must be an integer"):
            backend.generate("| t |", "q")


class TestRemoteAgent:
    def test_complete(self):
        client, _ = make_client([FakeResponse({"text": '{"answer": ["x"]}'})])
        agent = RemoteAgentBackend(client)
        reply = agent.complete("prompt")
        assert reply.text == '{"answer": ["x"]}'

    def test_missing_text_malformed(self):
        client, _ = make_client([FakeResponse({"output": "x"})])
        agent = RemoteAgentBackend(client)
        with pytest.raises(MalformedResponseError):
            agent.complete("prompt")

    def test_null_text_malformed(self):
        client, _ = make_client([FakeResponse({"text": None})])
        agent = RemoteAgentBackend(client)
        with pytest.raises(MalformedResponseError, match="string 'text', got None"):
            agent.complete("prompt")


class TestBuildStack:
    """The remote stack that `runconfig.build_stack` builds from a config.
    Building it sends no request."""

    def test_backends_share_one_client_and_agent_has_its_own(self):
        cfg = load_runconfig(None, {
            "backends": {"kind": "remote", "endpoint": "http://localhost:9/", "max_retries": 4},
            "agent": {"kind": "remote", "endpoint": "http://localhost:8", "timeout_s": 3.0},
        })
        backends, agent = build_stack(cfg, {})
        experts = [*backends.embedders, backends.text_generator, backends.image_generator]
        assert all(isinstance(e, RemoteEmbeddingBackend) for e in experts[:3])
        assert all(isinstance(e, RemoteGenerationBackend) for e in experts[3:])
        assert [e.modality for e in experts[:3]] == ["question", "text", "vision"]
        assert [e.path for e in experts[3:]] == ["text", "image"]
        client = experts[0].client
        assert all(e.client is client for e in experts)
        assert (client.endpoint, client.max_retries, client.timeout_s) == ("http://localhost:9", 4, 10.0)
        assert isinstance(agent, RemoteAgentBackend)
        assert (agent.client.endpoint, agent.client.timeout_s) == ("http://localhost:8", 3.0)

    @pytest.mark.parametrize("section,message", [
        ("backends", "backends.endpoint required for remote backends"),
        ("agent", "agent.endpoint required for a remote agent"),
    ])
    def test_missing_endpoint_is_config_error(self, section, message):
        cfg = load_runconfig(None, {section: {"kind": "remote"}})
        with pytest.raises(ConfigError, match=message) as err:
            build_stack(cfg, {})
        assert err.value.key == f"{section}.endpoint"
