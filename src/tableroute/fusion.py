"""Fusion-path orchestration: prompt assembly, response parsing, role calls.

The fusion agent receives the question, the markdown table, and both expert
outputs, and must return a JSON object with an "answer" field. Prompts are
deterministic; the dataset tag appends a per-benchmark output instruction.
"""
from __future__ import annotations

import json
import string
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Mapping, Protocol

from .errors import (
    ConfigurationError,
    FusionParseError,
    FusionUnavailableError,
    TransportError,
    UnknownDatasetWarning,
)
from .experts import (
    ExpertOutput,
    LatencyModel,
    TokensModel,
    normalize_answer,
    whitespace_token_count,
    wrong_answer,
)

ROLE_ARBITRATOR = "arbitrator"
ROLE_RESCUER = "rescuer"

PROMPT_TEMPLATE_ASSET = "fusion_prompt_v1.txt"

STANDARD_INSTRUCTION = "Standard JSON format with concise, direct answers"

DATASET_INSTRUCTIONS: dict[str, str] = {
    "tabfact": 'Generate JSON response with "answer" field containing ["True"] or ["False"]',
    "infotabs": 'Generate JSON response with "answer" field: ["Entail"], ["Contradict"], or ["Neutral"]',
    "tabmwp": "Output numeric answers without units when applicable",
    "fetaqa": "Provide complete sentence responses, not keywords or phrases",
    "wtq": STANDARD_INSTRUCTION,
    "hitab": STANDARD_INSTRUCTION,
    "tatqa": STANDARD_INSTRUCTION,
}

STRICT_RETRY_SUFFIX = (
    '\n\nRespond with ONLY a single JSON object of the form {"answer": ["..."]}.'
    " No prose, no code fences."
)


@dataclass(frozen=True)
class FusionRequest:
    question: str
    table_markdown: str
    text_output: ExpertOutput
    vision_output: ExpertOutput
    dataset_tag: str

    def __post_init__(self):
        for name in ("question", "table_markdown", "text_output", "vision_output"):
            if getattr(self, name) is None:
                raise ConfigurationError(f"fusion request missing {name}")


@dataclass(frozen=True)
class FusionResult:
    final_answer: str
    role: str
    api_latency_seconds: float
    output_tokens: int
    degraded: bool = False


@dataclass(frozen=True)
class AgentReply:
    text: str
    latency_seconds: float
    output_tokens: int | None = None


class AgentBackend(Protocol):
    def complete(self, prompt: str, *, context: Mapping[str, Any] | None = None) -> AgentReply: ...


@lru_cache(maxsize=1)
def _prompt_template() -> string.Template:
    text = resources.files("tableroute.templates").joinpath(PROMPT_TEMPLATE_ASSET).read_text("utf-8")
    return string.Template(text)


def build_fusion_prompt(req: FusionRequest) -> str:
    """Deterministic prompt for the fusion agent; byte-identical per request."""
    instruction = DATASET_INSTRUCTIONS.get(req.dataset_tag)
    if instruction is None:
        warnings.warn(
            f"no prompt adaptation for dataset tag {req.dataset_tag!r}; "
            "falling back to the standard JSON instruction",
            UnknownDatasetWarning,
            stacklevel=2,
        )
        instruction = STANDARD_INSTRUCTION
    return _prompt_template().substitute(
        question=req.question,
        table_markdown=req.table_markdown,
        text_answer=req.text_output.answer,
        text_explanation=req.text_output.explanation,
        vision_answer=req.vision_output.answer,
        vision_explanation=req.vision_output.explanation,
        dataset_instruction=instruction,
    )


def parse_fusion_response(raw: str) -> str:
    """Extract the "answer" field from the first JSON object in `raw`.

    Single-element lists are unwrapped; longer lists are joined with ", ".
    """
    decoder = json.JSONDecoder()
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(raw, idx)
        except ValueError:
            idx = raw.find("{", idx + 1)
            continue
        if not isinstance(obj, dict) or "answer" not in obj:
            raise FusionParseError(raw, "first JSON object has no 'answer' field")
        answer = obj["answer"]
        if isinstance(answer, list):
            if len(answer) == 1:
                answer = answer[0]
            else:
                answer = ", ".join(str(a) for a in answer)
        return str(answer).strip()
    raise FusionParseError(raw, "no JSON object found")


def classify_role(final_answer: str, text_output: ExpertOutput, vision_output: ExpertOutput) -> str:
    """Arbitrator if the final answer matches either expert, else rescuer."""
    final = normalize_answer(final_answer)
    if final == normalize_answer(text_output.answer) or final == normalize_answer(
        vision_output.answer
    ):
        return ROLE_ARBITRATOR
    return ROLE_RESCUER


def fuse(
    req: FusionRequest,
    agent: AgentBackend,
    *,
    context: Mapping[str, Any] | None = None,
) -> FusionResult:
    """Run the full fusion step: prompt -> agent -> parse -> role.

    On a parse failure the agent is re-prompted once with a strict JSON-only
    suffix; if that also fails, the text expert's answer is returned with
    `degraded=True`. A transport failure raises FusionUnavailableError with the
    agent time spent: any earlier reply's latency plus the call's `elapsed_s`.
    """
    prompt = build_fusion_prompt(req)
    try:
        reply = agent.complete(prompt, context=context)
    except TransportError as e:
        raise FusionUnavailableError(f"fusion agent unreachable: {e}", e.elapsed_s) from e

    total_latency = reply.latency_seconds
    raw = reply.text
    tokens = reply.output_tokens
    degraded = False
    try:
        final = parse_fusion_response(raw)
    except FusionParseError:
        try:
            retry = agent.complete(prompt + STRICT_RETRY_SUFFIX, context=context)
        except TransportError as e:
            raise FusionUnavailableError(f"fusion agent unreachable on retry: {e}",
                                         total_latency + e.elapsed_s) from e
        total_latency += retry.latency_seconds
        raw = retry.text
        tokens = retry.output_tokens
        try:
            final = parse_fusion_response(raw)
        except FusionParseError:
            final = req.text_output.answer
            degraded = True

    if tokens is None:
        tokens = whitespace_token_count(raw)
    role = classify_role(final, req.text_output, req.vision_output)
    return FusionResult(
        final_answer=final,
        role=role,
        api_latency_seconds=total_latency,
        output_tokens=int(tokens),
        degraded=degraded,
    )


class ScriptedAgent:
    """Offline fusion agent: answers gold iff the example's fusion label is 1.

    The call `context` carries the example's id and gold answer, so no prompt
    is parsed; latency and token draws are keyed by `(seed, example_id)`.
    """

    def __init__(
        self,
        fusion_labels: Mapping[str, int],
        latency: LatencyModel,
        tokens: TokensModel,
        seed: int = 0,
    ):
        self.labels = dict(fusion_labels)
        self.latency = latency
        self.tokens = tokens
        self.seed = seed

    def complete(self, prompt: str, *, context: Mapping[str, Any] | None = None) -> AgentReply:
        if not context or "example_id" not in context or "gold_answer" not in context:
            raise ConfigurationError(
                "label-driven agent needs example_id and gold_answer in the call context"
            )
        example_id = context["example_id"]
        if example_id not in self.labels:
            raise ConfigurationError(f"no fusion label for example {example_id!r}")
        gold = context["gold_answer"]
        answer = gold if self.labels[example_id] else wrong_answer(gold)
        return AgentReply(
            text=json.dumps({"answer": [answer]}),
            latency_seconds=self.latency.draw("agent-lat", self.seed, example_id),
            output_tokens=self.tokens.draw("agent-tok", self.seed, example_id),
        )
