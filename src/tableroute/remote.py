"""HTTP/JSON client for plugging real model servers into the engine.

Wire protocol:
    POST /embed    {"modality": ..., "text": ...} or {"modality": ..., "payload_b64": ...}
                   -> {"embedding": [...]}
    POST /generate {"table_markdown": ..., "question": ..., "dataset_tag": ...}
                   -> {"answer": ..., "explanation": ..., "output_tokens": ...}
    POST /complete {"prompt": ...} -> {"text": ...}

Latency is measured client-side with a monotonic clock. Transport failures
(timeout, connection) are retried with exponential backoff up to the
configured retry count; application-level problems are never retried.
"""
from __future__ import annotations

import base64
import time
from typing import Callable, Sequence

import numpy as np
import requests

from .errors import (
    ConnectionFailedError,
    ContractViolationError,
    MalformedResponseError,
    RequestTimeoutError,
    TransportError,
)
from .experts import ExpertOutput, whitespace_token_count
from .fusion import AgentReply
from .paths import EMBED_DIMS


class RemoteClient:
    def __init__(
        self,
        endpoint: str,
        *,
        timeout_s: float,
        max_retries: int,
        backoff_s: float,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep

    def post_json(self, path: str, payload: dict) -> tuple[dict, float]:
        """POST and parse JSON. Returns (body, seconds). Retries transport errors
        only; the last one's `elapsed_s` is all attempts' seconds plus the backoff."""
        url = self.endpoint + path
        attempts = self.max_retries + 1
        last_error: TransportError | None = None
        spent = 0.0
        for attempt in range(attempts):
            start = time.monotonic()
            try:
                resp = self._session.post(url, json=payload, timeout=self.timeout_s)
            except requests.Timeout:
                last_error = RequestTimeoutError(
                    f"{url} timed out after {self.timeout_s}s "
                    f"(attempt {attempt + 1}/{attempts})",
                    endpoint=url,
                    attempts=attempt + 1,
                )
            except requests.ConnectionError:
                last_error = ConnectionFailedError(
                    f"cannot connect to {url} (attempt {attempt + 1}/{attempts})",
                    endpoint=url,
                    attempts=attempt + 1,
                )
            else:
                elapsed = time.monotonic() - start
                if resp.status_code != 200:
                    raise MalformedResponseError(f"{url} returned HTTP {resp.status_code}")
                try:
                    body = resp.json()
                except ValueError as e:
                    raise MalformedResponseError(f"{url} returned non-JSON body") from e
                if not isinstance(body, dict):
                    raise MalformedResponseError(f"{url} returned a non-object JSON body")
                return body, elapsed
            spent += time.monotonic() - start
            if attempt + 1 < attempts:
                self._sleep(self.backoff_s * (2**attempt))
                spent += self.backoff_s * (2**attempt)
        assert last_error is not None
        last_error.elapsed_s = spent
        raise last_error


class RemoteEmbeddingBackend:
    def __init__(self, client: RemoteClient, modality: str):
        self.client = client
        self.modality = modality
        self.dim = EMBED_DIMS[modality]

    def embed_timed(
        self,
        payloads: Sequence[str | bytes],
        tags: Sequence[str | None] | None = None,
        nonce: int = 0,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[float]]:
        """One /embed request per payload, in order; `tags` and `nonce` are
        not sent."""
        if out is None:
            out = np.empty((len(payloads), self.dim), dtype=np.float32)
        times = []
        for b, payload in enumerate(payloads):
            out[b], elapsed = self._embed_one(payload)
            times.append(elapsed)
        return out, times

    def _embed_one(self, payload: str | bytes) -> tuple[np.ndarray, float]:
        req: dict = {"modality": self.modality}
        if isinstance(payload, bytes):
            req["payload_b64"] = base64.b64encode(payload).decode("ascii")
        else:
            req["text"] = payload
        body, elapsed = self.client.post_json("/embed", req)
        url = f"{self.client.endpoint}/embed"
        if "embedding" not in body or not isinstance(body["embedding"], list):
            raise MalformedResponseError(f"{url} response missing 'embedding' field")
        try:
            vec = np.asarray(body["embedding"])
        except ValueError as e:  # a ragged nesting of lists
            raise MalformedResponseError(f"{url} 'embedding' is not an array: {e}") from None
        if vec.dtype.kind not in "if":
            raise MalformedResponseError(f"{url} 'embedding' has entries that are not numbers")
        if vec.shape != (self.dim,):
            raise ContractViolationError(
                f"{url} returned an embedding of shape {vec.shape} "
                f"for {self.modality}, expected ({self.dim},)"
            )
        # Checked before the cast, which would turn 1e39 into inf (NaN fails too).
        if not (np.abs(vec) <= np.finfo(np.float32).max).all():
            raise ContractViolationError(
                f"{url} returned an embedding for {self.modality} with entries that "
                f"float32 cannot hold (NaN, infinite or over 3.4e38 in magnitude)"
            )
        return vec.astype(np.float32), elapsed


class RemoteGenerationBackend:
    def __init__(self, client: RemoteClient, path: str):
        self.client = client
        self.path = path

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
        body, elapsed = self.client.post_json(
            "/generate",
            {
                "table_markdown": table_markdown,
                "question": question,
                "dataset_tag": dataset_tag,
            },
        )
        url = f"{self.client.endpoint}/generate"
        answer = body.get("answer")
        if not isinstance(answer, str):
            raise MalformedResponseError(f"{url} response needs a string 'answer', got {answer!r}")
        explanation = str(body.get("explanation", ""))
        tokens = body.get("output_tokens")
        if tokens is None:
            tokens = whitespace_token_count(f"{answer} {explanation}".strip())
        # `type(v) is int` refuses floats and JSON's true/false, which Python counts as ints
        elif type(tokens) is not int or tokens < 0:
            raise MalformedResponseError(
                f"{url} 'output_tokens' must be an integer >= 0, got {tokens!r}")
        return ExpertOutput(answer, explanation, elapsed, tokens)


class RemoteAgentBackend:
    def __init__(self, client: RemoteClient):
        self.client = client

    def complete(self, prompt: str, *, context=None) -> AgentReply:
        body, elapsed = self.client.post_json("/complete", {"prompt": prompt})
        text = body.get("text")
        if not isinstance(text, str):
            raise MalformedResponseError(
                f"{self.client.endpoint}/complete response needs a string 'text', got {text!r}")
        return AgentReply(text=text, latency_seconds=elapsed, output_tokens=None)
