from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute.errors import (
    ConfigurationError,
    FusionParseError,
    FusionUnavailableError,
    TransportError,
    UnknownDatasetWarning,
)
from tableroute.experts import ExpertOutput, LatencyModel, TokensModel, normalize_answer
from tableroute.fusion import (
    ROLE_ARBITRATOR,
    ROLE_RESCUER,
    AgentReply,
    FusionRequest,
    ScriptedAgent,
    build_fusion_prompt,
    classify_role,
    fuse,
    parse_fusion_response,
)
from tableroute.paths import KNOWN_DATASETS

GOLDEN_DIR = Path(__file__).parent / "golden"


def sample_request(tag="wtq"):
    return FusionRequest(
        question="Which country has the highest production?",
        table_markdown="| country | production |\n| --- | --- |\n| Bolivia | 120 |\n| Chile | 90 |",
        text_output=ExpertOutput("Bolivia", "Bolivia has 120, the largest value.", 1.4, 20),
        vision_output=ExpertOutput("Chile", "The chart shows Chile on top.", 1.6, 24),
        dataset_tag=tag,
    )


class TestPrompt:
    @pytest.mark.parametrize("tag", KNOWN_DATASETS)
    def test_matches_golden_snapshot(self, tag):
        prompt = build_fusion_prompt(sample_request(tag))
        golden = (GOLDEN_DIR / f"fusion_prompt_{tag}.txt").read_text(encoding="utf-8")
        assert prompt == golden

    def test_deterministic(self):
        assert build_fusion_prompt(sample_request()) == build_fusion_prompt(sample_request())

    def test_section_order(self):
        prompt = build_fusion_prompt(sample_request("tatqa"))
        positions = [
            prompt.index("Which country has the highest production?"),
            prompt.index("| country | production |"),
            prompt.index("Bolivia has 120"),
            prompt.index("The chart shows Chile on top."),
            prompt.index('Generate JSON response with "answer" field.'),
        ]
        assert positions == sorted(positions)

    def test_tabfact_instruction(self):
        prompt = build_fusion_prompt(sample_request("tabfact"))
        assert prompt.rstrip().endswith(
            'Generate JSON response with "answer" field containing ["True"] or ["False"]'
        )

    def test_fetaqa_instruction(self):
        prompt = build_fusion_prompt(sample_request("fetaqa"))
        assert "complete sentence responses, not keywords or phrases" in prompt

    def test_unknown_tag_warns_and_falls_back(self):
        with pytest.warns(UnknownDatasetWarning):
            prompt = build_fusion_prompt(sample_request("mystery-set"))
        assert prompt.rstrip().endswith("Standard JSON format with concise, direct answers")


class TestParse:
    def test_list_wrapped(self):
        assert parse_fusion_response('{"answer": ["True"]}') == "True"

    def test_scalar(self):
        assert parse_fusion_response('{"answer": "42"}') == "42"

    def test_prose_around_json(self):
        raw = 'Sure, here you go: {"answer": ["Bolivia"]} hope that helps'
        assert parse_fusion_response(raw) == "Bolivia"

    def test_multi_element_list_joined(self):
        assert parse_fusion_response('{"answer": ["a", "b"]}') == "a, b"

    def test_no_json_is_parse_error(self):
        with pytest.raises(FusionParseError) as err:
            parse_fusion_response("no json here")
        assert err.value.raw == "no json here"

    def test_missing_answer_field(self):
        with pytest.raises(FusionParseError):
            parse_fusion_response('{"verdict": "yes"}')

    def test_skips_non_json_braces(self):
        raw = "score {not json} then {\"answer\": [\"x\"]}"
        assert parse_fusion_response(raw) == "x"


class TestRole:
    def test_matches_text_expert(self):
        req = sample_request()
        assert classify_role("Bolivia", req.text_output, req.vision_output) == ROLE_ARBITRATOR

    def test_matches_both_when_experts_agree(self):
        out = ExpertOutput("42", "same", 1.0, 4)
        assert classify_role("42", out, out) == ROLE_ARBITRATOR

    def test_novel_answer_is_rescuer(self):
        req = sample_request()
        assert classify_role("Peru", req.text_output, req.vision_output) == ROLE_RESCUER

    def test_normalization_applied(self):
        req = sample_request()
        assert classify_role('  "BOLIVIA"  ', req.text_output, req.vision_output) == ROLE_ARBITRATOR

    @given(st.text(max_size=30), st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=200)
    def test_total_and_consistent(self, final, a, b):
        to = ExpertOutput(a, "", 0.1, 1)
        vo = ExpertOutput(b, "", 0.1, 1)
        role = classify_role(final, to, vo)
        matches = normalize_answer(final) in (normalize_answer(a), normalize_answer(b))
        assert role == (ROLE_ARBITRATOR if matches else ROLE_RESCUER)


class ReplyAgent:
    """Fake agent: returns `replies` in order, each taking `latency` seconds."""

    def __init__(self, replies, latency=0.3):
        self.replies = list(replies)
        self.latency = latency

    def complete(self, prompt, *, context=None):
        return AgentReply(self.replies.pop(0), self.latency, 12)


def label_agent(labels):
    return ScriptedAgent(labels, LatencyModel(0.3), TokensModel(12))


class TestFuse:
    def test_echo_text_answer_is_arbitrator(self):
        agent = ReplyAgent(['{"answer": ["Bolivia"]}'], latency=0.3)
        res = fuse(sample_request(), agent)
        assert res.role == ROLE_ARBITRATOR
        assert res.final_answer == "Bolivia"
        assert res.api_latency_seconds == pytest.approx(0.3)
        assert not res.degraded

    def test_novel_answer_is_rescuer(self):
        agent = ReplyAgent(['{"answer": ["Peru"]}'])
        res = fuse(sample_request(), agent)
        assert res.role == ROLE_RESCUER

    def test_malformed_then_ok_uses_retry(self):
        agent = ReplyAgent(["garbage", '{"answer": ["Chile"]}'], latency=0.2)
        res = fuse(sample_request(), agent)
        assert res.final_answer == "Chile"
        assert not res.degraded
        assert res.api_latency_seconds == pytest.approx(0.4)  # both attempts counted

    def test_malformed_twice_degrades_to_text_answer(self):
        agent = ReplyAgent(["garbage", "still garbage"])
        res = fuse(sample_request(), agent)
        assert res.degraded
        assert res.final_answer == "Bolivia"
        assert res.role == ROLE_ARBITRATOR

    def test_transport_error_is_fusion_unavailable(self):
        class DeadAgent:
            def complete(self, prompt, *, context=None):
                raise TransportError("down", endpoint="http://agent", attempts=3)

        with pytest.raises(FusionUnavailableError):
            fuse(sample_request(), DeadAgent())

    @pytest.mark.parametrize("replies,agent_seconds", [([], 0.5), (["garbage"], 0.7)],
                             ids=["first-call", "strict-retry"])
    def test_fusion_unavailable_carries_the_agent_time_spent(self, replies, agent_seconds):
        # an earlier unparsable reply's 0.2 s counts, plus the failed call's elapsed_s
        class FailingAgent(ReplyAgent):
            def complete(self, prompt, *, context=None):
                if self.replies:
                    return super().complete(prompt, context=context)
                raise TransportError("down", endpoint="http://agent", attempts=3,
                                     elapsed_s=0.5)

        with pytest.raises(FusionUnavailableError) as err:
            fuse(sample_request(), FailingAgent(replies, latency=0.2))
        assert err.value.agent_seconds == pytest.approx(agent_seconds)

    def test_label_driven_agent(self):
        agent = label_agent({"ex-1": 1, "ex-2": 0})
        ok = fuse(sample_request(), agent, context={"example_id": "ex-1", "gold_answer": "Bolivia"})
        assert ok.final_answer == "Bolivia"
        bad = fuse(sample_request(), agent, context={"example_id": "ex-2", "gold_answer": "Bolivia"})
        assert normalize_answer(bad.final_answer) != normalize_answer("Bolivia")

    def test_label_driven_agent_needs_context(self):
        agent = label_agent({"ex-1": 1})
        with pytest.raises(ConfigurationError):
            fuse(sample_request(), agent)

    def test_result_always_has_role_and_latency(self):
        agent = ReplyAgent(["junk", "junk again"])
        res = fuse(sample_request(), agent)
        assert res.role in (ROLE_ARBITRATOR, ROLE_RESCUER)
        assert res.api_latency_seconds >= 0


class TestScriptedAgent:
    def test_unlabelled_example_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            label_agent({"ex-1": 1}).complete("p", context={"example_id": "ex-9", "gold_answer": "g"})

    def test_draws_keyed_by_seed_and_example(self):
        agent = ScriptedAgent({"a": 1, "b": 1}, LatencyModel(0.3, 0.1), TokensModel(12, 4), seed=3)
        a1, a2, b = (agent.complete("p", context={"example_id": k, "gold_answer": "g"})
                     for k in ("a", "a", "b"))
        assert a1 == a2
        assert a1.latency_seconds == LatencyModel(0.3, 0.1).draw("agent-lat", 3, "a")
        assert a1.output_tokens == TokensModel(12, 4).draw("agent-tok", 3, "a")
        assert b.latency_seconds != a1.latency_seconds
