import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute import engine
from tableroute.corpus import RoutingExample, Table
from tableroute.engine import (
    MODE_ADAPTIVE,
    MODE_NON_ADAPTIVE,
    BenchConfig,
    BenchRow,
    EngineBackends,
    EngineConfig,
    InferenceRecord,
    fusion_cost_inputs,
    infer,
    infer_batch,
    measure_all_costs,
    path_cost,
    route,
    route_batch,
    run_efficiency_bench,
)
from tableroute.errors import (
    ConnectionFailedError,
    ContractViolationError,
    InferenceError,
    InvalidArgumentError,
    MalformedResponseError,
    RequestTimeoutError,
)
from tableroute.experts import (
    LatencyModel,
    SimulatedEmbeddingBackend,
    SimulatedGenerationBackend,
    TokensModel,
    stable_digest64,
)
from tableroute.fileio import write_csv
from tableroute.fusion import ScriptedAgent
from tableroute.gate import GateParameters, compute_params, concat_input, init_gate
from tableroute.paths import (
    DEFAULT_PATH_COSTS,
    EMBED_DIMS,
    MODALITIES,
    PathCostVector,
    choose_paths,
)
from tableroute.remote import (
    RemoteAgentBackend,
    RemoteClient,
    RemoteEmbeddingBackend,
    RemoteGenerationBackend,
)
from tableroute.synthetic import biased_embedders
from test_remote import FakeResponse, FakeSession


def forced_gate(idx):
    b2 = np.zeros(3, dtype=np.float32)
    b2[idx] = 1.0
    return GateParameters(
        W1=np.zeros((256, 10112), dtype=np.float32),
        b1=np.zeros(256, dtype=np.float32),
        W2=np.zeros((3, 256), dtype=np.float32),
        b2=b2,
    )


def make_example(i=0, dataset="wtq", scores=(1, 0, 1)):
    table = Table(columns=("item", "value"), rows=(("copper", "120"),))
    return RoutingExample(
        id=f"ex-{i:03d}",
        dataset=dataset,
        question="What is the value for copper?",
        table=table,
        path_scores=scores,
        gold_answer="120",
    )


def make_stack(
    examples,
    text_latency=(1.0, 0.0),
    image_latency=(1.5, 0.0),
    text_tokens=(20, 0),
    image_tokens=(24, 0),
    embed_latencies=(0.05, 0.10, 0.20),
    agent_latency=(0.3, 0.0),
):
    labels_t = {e.id: e.path_scores[0] for e in examples}
    labels_i = {e.id: e.path_scores[1] for e in examples}
    labels_f = {e.id: e.path_scores[2] for e in examples}
    backends = EngineBackends(
        question_embedder=SimulatedEmbeddingBackend("question", latency=LatencyModel(embed_latencies[0])),
        text_embedder=SimulatedEmbeddingBackend("text", latency=LatencyModel(embed_latencies[1])),
        vision_embedder=SimulatedEmbeddingBackend("vision", latency=LatencyModel(embed_latencies[2])),
        text_generator=SimulatedGenerationBackend(
            "text", labels_t, LatencyModel(*text_latency), TokensModel(*text_tokens)
        ),
        image_generator=SimulatedGenerationBackend(
            "image", labels_i, LatencyModel(*image_latency), TokensModel(*image_tokens)
        ),
    )
    agent = ScriptedAgent(labels_f, LatencyModel(*agent_latency), TokensModel(12))
    return backends, agent


def reference_choice(z, costs):
    """One row's path, chosen row by row: the largest logit; among exact
    ties the cheapest path, and among equal costs the lowest index."""
    tied = [i for i in range(3) if z[i] == max(z)]
    return min(tied, key=lambda i: (costs[i], i))


_logit = st.floats(-50, 50)
# A row's three logits and the positions that are set to the row's maximum,
# so that exact ties are common.
_row = st.tuples(_logit, _logit, _logit, st.sets(st.integers(0, 2)))
# Few distinct values, so that equal costs are common too.
_cost = st.sampled_from([0.5, 0.73, 0.96]) | st.floats(1e-3, 10)


class TestChoosePaths:
    @given(st.lists(_row, min_size=1, max_size=40), st.tuples(_cost, _cost, _cost))
    @settings(max_examples=300)
    def test_matches_the_per_row_reference(self, rows, costs):
        Z = np.array([r[:3] for r in rows])
        for z, r in zip(Z, rows):
            z[sorted(r[3])] = z.max()
        chosen = choose_paths(Z, PathCostVector(costs))
        assert chosen.shape == (len(rows),)
        assert chosen.tolist() == [reference_choice(z.tolist(), costs) for z in Z]

    @pytest.mark.parametrize("Z", [np.zeros(3), np.zeros((2, 4)), np.zeros((1, 3, 1)),
                                   [[0.0, np.nan, 1.0]]],
                             ids=["one-row-1d", "four-paths", "3d", "nan"])
    def test_bad_logits_rejected(self, Z):
        with pytest.raises(InvalidArgumentError):
            choose_paths(Z, DEFAULT_PATH_COSTS)

    def test_no_rows(self):
        assert choose_paths(np.zeros((0, 3)), DEFAULT_PATH_COSTS).shape == (0,)


class TestRoute:
    def test_argmax(self):
        assert choose_paths([[2.0, 1.0, 0.0]], DEFAULT_PATH_COSTS).tolist() == [0]

    def test_tie_breaks_to_cheaper(self):
        Z = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        assert choose_paths(Z, DEFAULT_PATH_COSTS).tolist() == [0, 1]

    def test_route_decision_fields(self):
        x = concat_input(np.zeros((1, 384)), np.zeros((1, 3584)), np.zeros((1, 6144)))
        decision = route(forced_gate(2), x)
        assert decision.path == "fusion"
        assert decision.probabilities.sum() == pytest.approx(1.0)

    def test_choice_invariant_under_temperature(self):
        x = concat_input(
            np.random.default_rng(0).normal(size=(1, 384)),
            np.zeros((1, 3584)),
            np.zeros((1, 6144)),
        )
        params = forced_gate(1)
        picks = {route(params, x, gate_temperature=t).path for t in (0.1, 1.0, 5.0)}
        assert len(picks) == 1

    def test_non_finite_input_rejected(self):
        # Every first-layer weight on entry 0 is negative, so an input of
        # +inf there drives each hidden unit to -inf, which the ReLU turns
        # into 0: the logits would be finite and the route silently taken.
        gate = forced_gate(1)
        gate.W1[:, 0] = -1.0
        X = np.zeros((2, 10112))
        X[1, 0] = np.inf
        assert np.isfinite(engine.forward_batch(engine.compute_params(gate), X)[0]).all()
        with pytest.raises(InvalidArgumentError, match="gate input: non-finite entries"):
            route_batch(gate, X)

    def test_route_on_compute_params_allocates_under_1mb(self):
        params = compute_params(init_gate(seed=0))
        x = concat_input(np.zeros((1, 384)), np.zeros((1, 3584)), np.zeros((1, 6144)))
        route(params, x)  # warm up
        tracemalloc.start()
        try:
            route(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestInfer:
    def test_unimodal_latency_fixture(self):
        # embeds (0.10, 0.20, 0.05), gate 0.001, text gen 1.0 -> 1.201
        ex = make_example()
        backends, agent = make_stack(
            [ex], text_latency=(1.0, 0.0), embed_latencies=(0.05, 0.10, 0.20)
        )
        rec = infer(ex, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                    EngineConfig(gate_latency_s=0.001))
        assert rec.t_phase1 == pytest.approx(0.20)
        assert rec.t_phase2 == pytest.approx(0.001)
        assert rec.t_phase3 == pytest.approx(1.0)
        assert rec.parallel_latency == pytest.approx(1.201)
        assert rec.chosen_path == "text"
        assert rec.fusion_role is None

    def test_fusion_latency_fixture(self):
        # gens (1.0, 1.5), api 0.3 -> phase3 1.8; total 2.001
        ex = make_example()
        backends, agent = make_stack(
            [ex], text_latency=(1.0, 0.0), image_latency=(1.5, 0.0),
            embed_latencies=(0.05, 0.10, 0.20), agent_latency=(0.3, 0.0),
        )
        rec = infer(ex, forced_gate(2), backends, agent, DEFAULT_PATH_COSTS,
                    EngineConfig(gate_latency_s=0.001))
        assert rec.t_phase3 == pytest.approx(1.8)
        assert rec.parallel_latency == pytest.approx(2.001)
        assert rec.fusion_role is not None

    def test_fusion_builds_the_markdown_once(self, monkeypatch):
        # both experts and the agent's prompt read the table's markdown
        calls = []
        to_markdown = Table.to_markdown
        monkeypatch.setattr(Table, "to_markdown",
                            lambda table: calls.append(table) or to_markdown(table))
        ex = make_example()
        backends, agent = make_stack([ex])
        rec = infer(ex, forced_gate(2), backends, agent, DEFAULT_PATH_COSTS)
        assert rec.chosen_path == "fusion" and rec.fusion_role is not None
        assert calls == [ex.table]

    def test_fusion_phase3_at_least_each_generation(self):
        ex = make_example()
        backends, agent = make_stack(
            [ex], text_latency=(1.2, 0.0), image_latency=(0.9, 0.0), agent_latency=(0.05, 0.0)
        )
        rec = infer(ex, forced_gate(2), backends, agent, DEFAULT_PATH_COSTS)
        assert rec.t_phase3 >= 1.2
        assert rec.t_phase3 >= 0.9

    def test_non_adaptive_phase2_zero(self):
        ex = make_example()
        backends, agent = make_stack([ex])
        rec = infer(ex, None, backends, agent, DEFAULT_PATH_COSTS,
                    EngineConfig(gate_latency_s=0.001), mode=MODE_NON_ADAPTIVE)
        assert rec.t_phase2 == 0.0
        assert rec.chosen_path == "fusion"

    def test_phase_sum_invariant(self):
        ex = make_example()
        backends, agent = make_stack([ex])
        for mode, gate in ((MODE_ADAPTIVE, forced_gate(1)), (MODE_NON_ADAPTIVE, None)):
            rec = infer(ex, gate, backends, agent, DEFAULT_PATH_COSTS, mode=mode)
            assert rec.parallel_latency == pytest.approx(
                rec.t_phase1 + rec.t_phase2 + rec.t_phase3, abs=1e-9
            )

    def test_record_invariant_enforced(self):
        with pytest.raises(InvalidArgumentError):
            InferenceRecord("x", "text", 0.1, 0.1, 0.1, 999.0, "a", 1)

    def test_record_sum_within_1e_9_accepted(self):
        assert InferenceRecord("x", "text", 0.0, 0.0, 0.0, 1e-9, "a", 1).parallel_latency == 1e-9
        with pytest.raises(InvalidArgumentError, match="is not the phase sum"):
            InferenceRecord("x", "text", 0.0, 0.0, 0.0, 2e-9, "a", 1)

    def test_unparsable_agent_replies_degrade_the_record(self):
        # two replies with no JSON object: the text expert's answer, degraded
        ex = make_example(scores=(0, 1, 1))
        backends, _ = make_stack([ex])
        session = FakeSession([FakeResponse({"text": "no answer here"})] * 2)
        client = RemoteClient("http://agent:9000", timeout_s=1.0, max_retries=0,
                              backoff_s=0.01, session=session, sleep=lambda s: None)
        rec = infer(ex, forced_gate(2), backends, RemoteAgentBackend(client), DEFAULT_PATH_COSTS)
        assert not session.outcomes
        assert rec.degraded is True
        assert rec.final_answer == "120 [alt]"

    def test_backend_failure_names_path_and_example(self):
        ex = make_example()
        backends, agent = make_stack([ex])
        backends.text_generator.labels.clear()  # label lookup will fail
        with pytest.raises(InferenceError) as err:
            infer(ex, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS)
        assert str(err.value).startswith(f"backend failure on text path for example {ex.id}: ")

    def test_correctness_follows_labels(self):
        ex = make_example(scores=(1, 0, 1))
        backends, agent = make_stack([ex])
        text_rec = infer(ex, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS)
        assert text_rec.final_answer == "120"
        image_rec = infer(ex, forced_gate(1), backends, agent, DEFAULT_PATH_COSTS)
        assert image_rec.final_answer != "120"


class TestPathCost:
    def test_formula_on_reference_rows(self):
        # measured reference rows for the stock expert stack
        assert path_cost(1.445, 44.19) == pytest.approx(0.73, abs=0.005)
        assert path_cost(1.559, 18.78) == pytest.approx(0.81, abs=0.005)
        assert path_cost(1.859, 18.78) == pytest.approx(0.96, abs=0.005)

    def test_fusion_inputs_derived_from_slower_model(self):
        lat, tps = fusion_cost_inputs(1.445, 44.19, 1.559, 18.78, api_overhead_s=0.3)
        assert lat == pytest.approx(1.859)
        assert tps == pytest.approx(18.78)

    def test_fusion_inputs_when_text_slower(self):
        lat, tps = fusion_cost_inputs(2.0, 10.0, 1.0, 30.0, api_overhead_s=0.5)
        assert lat == pytest.approx(2.5)
        assert tps == pytest.approx(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            path_cost(0.0, 10.0)

    def test_rejects_nonpositive_tps(self):
        with pytest.raises(InvalidArgumentError):
            path_cost(1.0, 0.0)

    def test_fusion_tps_from_the_image_model_on_a_latency_tie(self):
        assert fusion_cost_inputs(1.0, 10.0, 1.0, 30.0, api_overhead_s=0.5) == (1.5, 30.0)


class TestMeasureCost:
    def _stack(self, n=6):
        examples = [make_example(i) for i in range(n)]
        backends, _ = make_stack(
            examples,
            text_latency=(1.445, 0.0), image_latency=(1.559, 0.0),
            text_tokens=(64, 0), image_tokens=(29, 0),
        )
        return examples, backends

    def test_reproduces_reference_costs(self):
        examples, backends = self._stack()
        text, image, fusion = measure_all_costs(examples, backends, warmup_runs=5, timed_runs=10,
                                                 api_overhead_s=0.3)[1]
        assert text.cost == pytest.approx(0.73, abs=0.005)
        assert image.cost == pytest.approx(0.81, abs=0.005)
        assert fusion.cost == pytest.approx(0.96, abs=0.005)
        assert fusion.avg_latency_seconds == pytest.approx(image.avg_latency_seconds + 0.3)
        assert fusion.avg_tps == pytest.approx(image.avg_tps)

    @pytest.mark.parametrize("text_latency,image_latency", [(1.445, 1.559), (1.9, 1.559)],
                             ids=["image-slower", "text-slower"])
    def test_fusion_row_follows_fusion_cost_inputs(self, text_latency, image_latency):
        examples = [make_example(i) for i in range(6)]
        backends, _ = make_stack(
            examples,
            text_latency=(text_latency, 0.0), image_latency=(image_latency, 0.0),
            text_tokens=(64, 0), image_tokens=(29, 0),
        )
        text, image, fusion = measure_all_costs(examples, backends, warmup_runs=5, timed_runs=10,
                                                 api_overhead_s=0.3)[1]
        latency, tps = fusion_cost_inputs(
            text.avg_latency_seconds, text.avg_tps,
            image.avg_latency_seconds, image.avg_tps, api_overhead_s=0.3,
        )
        assert fusion.avg_latency_seconds == pytest.approx(latency)
        assert fusion.avg_tps == pytest.approx(tps)
        slower = text if text_latency > image_latency else image
        assert fusion.avg_tps == pytest.approx(slower.avg_tps)

    def test_measure_all_costs_vector(self):
        examples, backends = self._stack()
        costs, measurements = measure_all_costs(examples, backends, warmup_runs=5, timed_runs=10)
        assert isinstance(costs, PathCostVector)
        assert [m.path for m in measurements] == ["text", "image", "fusion"]

    def test_empty_testbed_rejected(self):
        _, backends = self._stack()
        with pytest.raises(InvalidArgumentError):
            measure_all_costs([], backends, warmup_runs=5, timed_runs=10)

    @pytest.mark.parametrize("warmup_runs,timed_runs", [(5, 0), (-1, 10)],
                             ids=["no-timed-run", "negative-warmup"])
    def test_bad_run_counts_rejected(self, warmup_runs, timed_runs):
        examples, backends = self._stack()
        with pytest.raises(InvalidArgumentError, match="need timed_runs > 0 and warmup_runs >= 0"):
            measure_all_costs(examples, backends, warmup_runs=warmup_runs, timed_runs=timed_runs)

    def test_no_warmup_run(self):
        examples, backends = self._stack()
        costs, _ = measure_all_costs(examples, backends, warmup_runs=0, timed_runs=1)
        assert costs.costs == pytest.approx((0.73, 0.81, 0.96), abs=0.005)

    def test_warmups_discarded_with_jitter(self):
        # with jitter, including warmups in the mean would change the result
        examples = [make_example(0)]
        backends, _ = make_stack(examples, text_latency=(1.0, 0.5))
        m = measure_all_costs(examples, backends, warmup_runs=5, timed_runs=10)[1][0]
        lat = backends.text_generator.latency
        expected = np.mean(
            [lat.draw("gen-lat", "text", 0, "ex-000", run) for run in range(5, 15)]
        )
        assert m.avg_latency_seconds == pytest.approx(float(expected))


class TestBench:
    def _corpus(self, n_per=4, datasets=("wtq", "tabmwp")):
        examples = []
        i = 0
        for ds in datasets:
            for _ in range(n_per):
                scores = (1, 0, 1) if ds == "wtq" else (0, 1, 1)
                examples.append(make_example(i, dataset=ds, scores=scores))
                i += 1
        return examples

    def test_closed_form_latencies_zero_jitter(self):
        examples = self._corpus()
        backends, agent = make_stack(
            examples, text_latency=(1.0, 0.0), image_latency=(1.5, 0.0),
            embed_latencies=(0.05, 0.10, 0.20), agent_latency=(0.3, 0.0),
        )
        report = run_efficiency_bench(
            examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
            BenchConfig(n_per_dataset=4, seeds=(0,)),
            EngineConfig(gate_latency_s=0.001),
        )
        by_key = {(r.dataset, r.mode): r for r in report.rows}
        # adaptive always routes text: 0.2 + 0.001 + 1.0
        assert by_key[("wtq", "adaptive")].mean_latency_s == pytest.approx(1.201)
        # non-adaptive fusion: 0.2 + 0 + max(1.0, 1.5) + 0.3
        assert by_key[("wtq", "non_adaptive")].mean_latency_s == pytest.approx(2.0)
        assert set(report.degraded.values()) == {0}

    def test_tps_definition(self):
        # 20 tokens at 2.0s parallel latency -> 10 tokens/s
        examples = [make_example(0)]
        backends, agent = make_stack(
            examples, text_latency=(1.799, 0.0), text_tokens=(20, 0),
            embed_latencies=(0.05, 0.10, 0.20),
        )
        rec = infer(examples[0], forced_gate(0), backends, agent,
                    DEFAULT_PATH_COSTS, EngineConfig(gate_latency_s=0.001))
        assert rec.parallel_latency == pytest.approx(2.0)
        assert rec.output_tokens / rec.parallel_latency == pytest.approx(10.0)

    def test_adaptive_faster_when_any_unimodal_route(self):
        examples = self._corpus()
        backends, agent = make_stack(examples)
        report = run_efficiency_bench(
            examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
            BenchConfig(n_per_dataset=4, seeds=(0, 1)),
        )
        for row in report.summary:
            if row.mode != "adaptive":
                continue
            partner = next(
                r for r in report.summary
                if r.dataset == row.dataset and r.mode == "non_adaptive"
            )
            assert row.mean_latency_s < partner.mean_latency_s

    def test_insufficient_examples_flagged(self):
        examples = self._corpus(n_per=2)
        backends, agent = make_stack(examples)
        with pytest.warns(UserWarning, match="only 2 examples") as caught:
            report = run_efficiency_bench(
                examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                BenchConfig(n_per_dataset=10, seeds=(0,)),
            )
        assert [str(w.message) for w in caught if "only 2 examples" in str(w.message)] == [
            f"dataset {ds}: only 2 examples available, wanted 10; continuing with 2"
            for ds in ("tabmwp", "wtq")
        ]
        assert len(report.rows) == 4  # each short dataset is still benched in both modes

    def test_no_warning_when_each_dataset_has_enough(self):
        examples = self._corpus(n_per=2)
        backends, agent = make_stack(examples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_efficiency_bench(
                examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                BenchConfig(n_per_dataset=2, seeds=(0,)),
            )
        assert len(report.rows) == 4

    def test_csv_shape(self, tmp_path):
        examples = self._corpus()
        backends, agent = make_stack(examples)
        report = run_efficiency_bench(
            examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
            BenchConfig(n_per_dataset=4, seeds=(0,)),
        )
        # `bench` writes each row's fields in order under this header.
        header = "dataset,mode,seed,mean_latency_s,mean_tps"
        assert ",".join(f.name for f in dataclasses.fields(BenchRow)) == header
        out = tmp_path / "bench.csv"
        write_csv(out, header, map(dataclasses.astuple, report.rows + report.summary))
        lines = out.read_text().splitlines()
        assert lines[0] == header
        # 2 datasets x 2 modes x 1 seed + 4 summary rows
        assert len(lines) == 1 + 4 + 4
        assert lines[-1].split(",")[2] == "avg"
        assert lines[-1].split(",")[3] == repr(report.summary[-1].mean_latency_s)


def assert_agent_time_charged(seconds, base):
    """`seconds` is `base` plus the agent time that a `max_retries=2`,
    `backoff_s=0.01` client spends before giving up on a fake session: the
    0.01 + 0.02 s of backoff it passes to `sleep`, and microseconds for its
    three failed attempts."""
    assert base + 0.03 - 1e-9 <= seconds < base + 0.08


class TestUnreachableAgent:
    """A remote fusion agent that refuses every connection, behind simulated
    experts (text 1.0 s and 20 tokens, image 1.5 s): each fusion inference
    degrades to the text expert's answer and is charged the slower
    generation time plus the agent time spent before giving up, which is at
    least the backoff of its two retries (0.01 + 0.02 s)."""

    MAX_RETRIES = 2

    def _stack(self, examples, n_fusion_calls):
        backends, _ = make_stack(examples, embed_latencies=(0.05, 0.10, 0.20))
        session = FakeSession([requests.ConnectionError()]
                              * (n_fusion_calls * (self.MAX_RETRIES + 1)))
        client = RemoteClient("http://agent:9000", timeout_s=1.0, max_retries=self.MAX_RETRIES,
                              backoff_s=0.01, session=session, sleep=lambda s: None)
        return backends, RemoteAgentBackend(client), session

    @pytest.mark.parametrize("mode,gate", [(MODE_ADAPTIVE, forced_gate(2)),
                                           (MODE_NON_ADAPTIVE, None)],
                             ids=["forced-fusion", "non-adaptive"])
    def test_infer_batch_degrades_to_the_text_expert(self, mode, gate):
        # the text expert is wrong and the image expert right on every example
        examples = [make_example(i, scores=(0, 1, 1)) for i in range(3)]
        backends, agent, session = self._stack(examples, len(examples))
        records = infer_batch(examples, gate, backends, agent, DEFAULT_PATH_COSTS,
                              EngineConfig(gate_latency_s=0.001), mode)
        for ex, rec in zip(examples, records):
            text_out = backends.text_generator.generate(
                ex.table_markdown, ex.question, example_id=ex.id, gold_answer=ex.gold_answer)
            assert rec.chosen_path == "fusion"
            assert rec.degraded is True
            assert rec.fusion_role is None
            assert rec.final_answer == text_out.answer != ex.gold_answer
            assert rec.output_tokens == text_out.output_tokens
            assert_agent_time_charged(rec.t_phase3, 1.5)  # max(1.0, 1.5) + agent time
        assert len(session.calls) == len(examples) * (self.MAX_RETRIES + 1)
        assert {c["url"] for c in session.calls} == {"http://agent:9000/complete"}

    def test_efficiency_bench_completes_degraded(self):
        examples = TestBench()._corpus()
        # every sampled example takes the fusion path in both modes
        backends, agent, session = self._stack(examples, 2 * len(examples))
        report = run_efficiency_bench(
            examples, forced_gate(2), backends, agent, DEFAULT_PATH_COSTS,
            BenchConfig(n_per_dataset=4, seeds=(0,)), EngineConfig(gate_latency_s=0.001),
        )
        by_key = {(r.dataset, r.mode): r for r in report.rows}
        for dataset in ("wtq", "tabmwp"):
            # phase 1 0.2 + phase 2 (0.001 adaptive, 0 non-adaptive) + 1.5
            # + the agent time spent
            for mode, latency in ((MODE_ADAPTIVE, 1.701), (MODE_NON_ADAPTIVE, 1.7)):
                row = by_key[(dataset, mode)]
                assert_agent_time_charged(row.mean_latency_s, latency)
                assert row.mean_tps == pytest.approx(20 / row.mean_latency_s, rel=1e-3)
        assert len(session.calls) == 2 * len(examples) * (self.MAX_RETRIES + 1)
        assert not session.outcomes
        # every inference degraded; bench.csv has no column for it
        assert report.degraded == {(dataset, mode): 4 for dataset in ("tabmwp", "wtq")
                                   for mode in (MODE_ADAPTIVE, MODE_NON_ADAPTIVE)}


# Remote failures, each as the outcomes a `FakeSession` replays for one
# request under `max_retries=2`, the error the client raises for it, and a
# phrase of its message.
REMOTE_FAILURES = {
    "http-error": (lambda: [FakeResponse({"error": "overloaded"}, status_code=500)],
                   MalformedResponseError, "returned HTTP 500"),
    "non-json": (lambda: [FakeResponse("<html>busy</html>")],
                 MalformedResponseError, "returned non-JSON body"),
    "timeout": (lambda: [requests.Timeout() for _ in range(3)],
                RequestTimeoutError, "timed out"),
    "connection": (lambda: [requests.ConnectionError() for _ in range(3)],
                   ConnectionFailedError, "cannot connect"),
    "broken-body": (lambda: [requests.exceptions.ChunkedEncodingError() for _ in range(3)],
                    ConnectionFailedError, "dropped while reading the body"),
}

# The failures of a remote embedder: those above, and a 200 reply whose
# embedding is too short, which the backend refuses without a retry.
EMBEDDING_FAILURES = {
    **REMOTE_FAILURES,
    "wrong-dimension": (lambda: [FakeResponse({"embedding": [0.5] * 5})],
                        ContractViolationError, "returned an embedding of shape (5,)"),
}


class TestRemoteFailures:
    """A remote generator or fusion agent fails on the second of two
    examples in one `infer_batch` call. The agent's timeout degrades to the
    text expert; every other failure raises InferenceError naming the
    path and the example."""

    def _remote(self, first, failure):
        outcomes, cause, phrase = REMOTE_FAILURES[failure]
        session = FakeSession([first, *outcomes()])
        client = RemoteClient("http://remote:9000", timeout_s=1.0, max_retries=2,
                              backoff_s=0.01, session=session, sleep=lambda s: None)
        return client, session, cause, phrase

    def _infer_second_fails(self, examples, gate, backends, agent, path, cause, phrase):
        with pytest.raises(InferenceError) as err:
            infer_batch(examples, gate, backends, agent, DEFAULT_PATH_COSTS,
                        EngineConfig(gate_latency_s=0.001))
        message = str(err.value)
        assert f"on {path} path for example {examples[1].id}: " in message
        assert phrase in message
        assert isinstance(err.value.__cause__, cause)

    @pytest.mark.parametrize("failure", sorted(REMOTE_FAILURES))
    def test_generator_failure_names_the_example(self, failure):
        examples = [make_example(i) for i in range(2)]
        backends, agent = make_stack(examples)
        client, session, cause, phrase = self._remote(
            FakeResponse({"answer": "120", "output_tokens": 5}), failure)
        backends.text_generator = RemoteGenerationBackend(client, "text")
        self._infer_second_fails(examples, forced_gate(0), backends, agent, "text", cause,
                                 phrase)
        assert not session.outcomes
        assert {c["url"] for c in session.calls} == {"http://remote:9000/generate"}

    @pytest.mark.parametrize("failure", ["http-error", "non-json"])
    def test_agent_failure_names_the_example(self, failure):
        examples = [make_example(i) for i in range(2)]
        backends, _ = make_stack(examples)
        client, session, cause, phrase = self._remote(
            FakeResponse({"text": '{"answer": "120"}'}), failure)
        self._infer_second_fails(examples, forced_gate(2), backends, RemoteAgentBackend(client),
                                 "fusion", cause, phrase)
        assert not session.outcomes

    def _agent_failure_degrades(self, failure):
        examples = [make_example(i, scores=(0, 1, 1)) for i in range(2)]
        backends, _ = make_stack(examples)
        client, session, _, _ = self._remote(FakeResponse({"text": '{"answer": "120"}'}),
                                             failure)
        first, second = infer_batch(examples, forced_gate(2), backends,
                                    RemoteAgentBackend(client), DEFAULT_PATH_COSTS,
                                    EngineConfig(gate_latency_s=0.001))
        assert not session.outcomes
        assert (first.final_answer, first.degraded) == ("120", False)
        text_out = backends.text_generator.generate(
            examples[1].table_markdown, examples[1].question, example_id=examples[1].id,
            gold_answer=examples[1].gold_answer)
        assert second.degraded is True and second.fusion_role is None
        assert second.final_answer == text_out.answer != examples[1].gold_answer
        assert_agent_time_charged(second.t_phase3, 1.5)  # max(1.0, 1.5) + agent time

    def test_agent_timeout_degrades_to_the_text_expert(self):
        self._agent_failure_degrades("timeout")

    @pytest.mark.parametrize("failure", sorted(REMOTE_FAILURES))
    def test_efficiency_bench_names_the_example(self, failure):
        # tabmwp's sample (ex-002, ex-003) goes first; adaptive routing takes
        # the text path, so the remote text generator fails on ex-003
        examples = TestBench()._corpus(n_per=2)
        backends, agent = make_stack(examples)
        client, session, cause, phrase = self._remote(
            FakeResponse({"answer": "120", "output_tokens": 5}), failure)
        backends.text_generator = RemoteGenerationBackend(client, "text")
        with pytest.raises(InferenceError) as err:
            run_efficiency_bench(examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                                 BenchConfig(n_per_dataset=2, seeds=(0,)))
        message = str(err.value)
        assert "on text path for example ex-003: " in message
        assert phrase in message
        assert isinstance(err.value.__cause__, cause)
        assert not session.outcomes
        assert {c["url"] for c in session.calls} == {"http://remote:9000/generate"}

    def test_agent_broken_body_degrades_to_the_text_expert(self):
        self._agent_failure_degrades("broken-body")


class TestEmbeddingFailures:
    """A remote question embedder answers the first example and fails on the
    second: `infer`, `infer_batch` and the bench raise InferenceError naming
    the embedding phase and the examples embedded together, with the
    client's error as the cause."""

    def _stack(self, examples, failure, n_ok=1, modality="question"):
        backends, agent = make_stack(examples)
        outcomes, cause, phrase = EMBEDDING_FAILURES[failure]
        ok = FakeResponse({"embedding": [0.5] * EMBED_DIMS[modality]})
        session = FakeSession([ok] * n_ok + outcomes())
        client = RemoteClient("http://remote:9000", timeout_s=1.0, max_retries=2,
                              backoff_s=0.01, session=session, sleep=lambda s: None)
        setattr(backends, f"{modality}_embedder", RemoteEmbeddingBackend(client, modality))
        return backends, agent, session, cause, phrase

    def _check(self, err, ids, cause, phrase, session):
        message = str(err.value)
        assert f"in the embedding phase for example {', '.join(ids)}: " in message
        assert phrase in message
        assert isinstance(err.value.__cause__, cause)
        assert not session.outcomes
        assert {c["url"] for c in session.calls} == {"http://remote:9000/embed"}

    @pytest.mark.parametrize("failure", sorted(REMOTE_FAILURES))
    def test_infer_batch_names_the_examples(self, failure):
        examples = [make_example(i) for i in range(2)]
        backends, agent, session, cause, phrase = self._stack(examples, failure)
        with pytest.raises(InferenceError) as err:
            infer_batch(examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                        EngineConfig(gate_latency_s=0.001))
        self._check(err, [ex.id for ex in examples], cause, phrase, session)

    def test_infer_names_its_example(self):
        example = make_example(0)
        backends, agent, session, cause, phrase = self._stack([example], "http-error", n_ok=0)
        with pytest.raises(InferenceError) as err:
            infer(example, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                  EngineConfig(gate_latency_s=0.001))
        self._check(err, [example.id], cause, phrase, session)

    def test_efficiency_bench_names_the_sample(self):
        self._bench_names_the_sample("http-error", "question")

    @pytest.mark.parametrize("failure,modality", [
        (f, m) for f in sorted(EMBEDDING_FAILURES) for m in MODALITIES
        if (f, m) != ("http-error", "question")
    ])
    def test_efficiency_bench_names_the_sample_on_each_failure(self, failure, modality):
        self._bench_names_the_sample(failure, modality)

    def _bench_names_the_sample(self, failure, modality):
        # the remote embedder answers the sample's first payload and fails on its second
        examples = TestBench()._corpus(n_per=2)
        backends, agent, session, cause, phrase = self._stack(examples, failure,
                                                              modality=modality)
        with pytest.raises(InferenceError) as err:
            run_efficiency_bench(examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
                                 BenchConfig(n_per_dataset=2, seeds=(0,)))
        # tabmwp's sample is the first embedded
        sample = [ex.id for ex in examples if ex.dataset == "tabmwp"]
        self._check(err, sample, cause, phrase, session)


def _reference_row(example, embedders, nonce):
    """One example's gate input row and phase-1 time as three one-payload
    embeddings, each the PCG64(int) uniform expression, concatenated."""
    serialized = example.table.serialize()
    rows, times = [], []
    for backend, payload in zip(embedders, (example.question, serialized,
                                            serialized.encode("utf-8"))):
        seed = stable_digest64("embed", backend.modality, backend.seed, payload)
        vec = np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, backend.dim)
        bias = backend.bias_by_tag.get(example.dataset)
        rows.append((vec if bias is None else vec + bias).astype(np.float32))
        times.append(backend.latency.draw("embed-lat", backend.modality, backend.seed,
                                          payload, nonce))
    return np.concatenate(rows), max(times)


class TestEmbedExamples:
    def _examples(self, n):
        datasets = ("wtq", "tabmwp", "hitab")
        return [dataclasses.replace(make_example(i, datasets[i % 3]),
                                    question=f"What is the value for item {i}?")
                for i in range(n)]

    def _embedders(self):
        embedders = biased_embedders(("wtq", "tabmwp"), 1.0, seed=4, latencies={
            m: LatencyModel(mean, 0.02) for m, mean in
            (("question", 0.05), ("text", 0.10), ("vision", 0.20))})
        return tuple(embedders[m] for m in ("question", "text", "vision"))

    @pytest.mark.parametrize("n", [1, 7, 65])
    def test_rows_and_times_equal_the_per_example_reference(self, n):
        examples, embedders = self._examples(n), self._embedders()
        X, t1 = engine.embed_examples(examples, embedders, nonce=3)
        assert X.shape == (n, 10112) and X.dtype == np.float32
        for ex, x, t in zip(examples, X, t1):
            ref_x, ref_t = _reference_row(ex, embedders, 3)
            assert x.tobytes() == ref_x.tobytes()
            assert t == ref_t

    def test_out_is_filled_in_place(self):
        examples, embedders = self._examples(5), self._embedders()
        out = np.zeros((8, 10112), dtype=np.float32)
        X, _ = engine.embed_examples(examples, embedders, out=out[2:7])
        assert np.shares_memory(X, out)
        assert out[2:7].tobytes() == engine.embed_examples(examples, embedders)[0].tobytes()
        assert not out[:2].any() and not out[7:].any()

    def test_non_finite_embedding_names_its_component(self):
        class NanVision:
            modality, dim = "vision", 6144

            def embed_timed(self, payloads, tags=None, nonce=0, out=None):
                return np.full((len(payloads), self.dim), np.nan, np.float32), [0.0] * len(payloads)

        embedders = self._embedders()[:2] + (NanVision(),)
        with pytest.raises(InvalidArgumentError, match="vision_embedding"):
            engine.embed_examples(self._examples(3), embedders)


class TestBatched:
    """One gate call per sample set, with the records of per-example calls."""

    _corpus = TestBench._corpus

    def _jittered_stack(self, examples):
        return make_stack(
            examples, text_latency=(1.0, 0.3), image_latency=(1.5, 0.4),
            text_tokens=(20, 5), image_tokens=(24, 6), agent_latency=(0.3, 0.1),
        )

    @pytest.mark.parametrize("mode", [MODE_ADAPTIVE, MODE_NON_ADAPTIVE])
    def test_records_equal_per_example_infer(self, mode):
        # distinct questions give distinct gate inputs, which reach all three paths
        examples = [
            dataclasses.replace(ex, question=f"What is the value for item {i}?")
            for i, ex in enumerate(self._corpus())
        ]
        backends, agent = self._jittered_stack(examples)
        gate = compute_params(init_gate(seed=3))
        cfg = EngineConfig(gate_latency_s=0.001)
        batch = infer_batch(examples, gate, backends, agent, DEFAULT_PATH_COSTS, cfg,
                            mode=mode, nonce=2)
        singles = [
            infer(ex, gate, backends, agent, DEFAULT_PATH_COSTS, cfg, mode=mode, nonce=2)
            for ex in examples
        ]
        assert batch == singles
        if mode == MODE_ADAPTIVE:
            assert {r.chosen_path for r in batch} == {"text", "image", "fusion"}
        assert infer_batch([], gate, backends, agent, mode=mode) == []

    def test_route_batch_paths_equal_per_row_route(self):
        gate = compute_params(init_gate(seed=0))
        X = np.random.default_rng(4).uniform(-1, 1, size=(50, 10112)).astype(np.float32)
        batch = route_batch(gate, X)
        singles = [route(gate, x) for x in X]
        assert [d.path for d in batch] == [d.path for d in singles]
        np.testing.assert_allclose([d.logits for d in batch], [d.logits for d in singles],
                                   rtol=1e-12, atol=1e-12)

    def test_one_gate_call_per_adaptive_set(self, monkeypatch):
        rows_per_call = []
        real_forward_batch = engine.forward_batch

        def counting_forward_batch(params, X, *args, **kwargs):
            rows_per_call.append(len(X))
            return real_forward_batch(params, X, *args, **kwargs)

        monkeypatch.setattr(engine, "forward_batch", counting_forward_batch)
        examples = self._corpus(n_per=5)
        backends, agent = make_stack(examples)
        run_efficiency_bench(
            examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS,
            BenchConfig(n_per_dataset=4, seeds=(0, 1, 2)),
        )
        # 3 seeds x 2 datasets adaptive sets of 4; the non-adaptive sets add none
        assert rows_per_call == [4] * 6

    def test_bench_embeds_each_sample_once(self, monkeypatch):
        # Both modes embed a seed's sample with the same nonce, which gives
        # the same rows and phase-1 times, so bench shares one embedding.
        examples = self._corpus(n_per=5)
        backends, agent = self._jittered_stack(examples)
        gate = compute_params(init_gate(seed=3))
        calls = []
        real_embed, real_infer = engine.embed_examples, engine._infer_embedded

        def counting_embed(examples, embedders, nonce=0, out=None):
            calls.append(len(examples))
            return real_embed(examples, embedders, nonce, out)

        def embedding_per_mode(examples, X, t1, gate, backends, *rest):
            fresh_X, fresh_t1 = engine.embed_examples(examples, backends.embedders, rest[-1])
            return real_infer(examples, fresh_X, fresh_t1, gate, backends, *rest)

        def bench():
            calls.clear()
            return run_efficiency_bench(examples, gate, backends, agent, DEFAULT_PATH_COSTS,
                                        BenchConfig(n_per_dataset=4, seeds=(0, 1)))

        monkeypatch.setattr(engine, "embed_examples", counting_embed)
        shared = bench()
        assert calls == [4] * (2 * 2)  # one batch of 4 samples per seed x dataset
        monkeypatch.setattr(engine, "_infer_embedded", embedding_per_mode)
        per_mode = bench()
        assert calls == [4] * (3 * 2 * 2)  # the shared batch, then one per mode
        assert shared.rows == per_mode.rows and shared.summary == per_mode.summary

    def test_generation_failure_names_its_example(self):
        examples = self._corpus()
        backends, agent = make_stack(examples)
        del backends.text_generator.labels[examples[2].id]
        with pytest.raises(InferenceError) as err:
            infer_batch(examples, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS)
        assert str(err.value).startswith(
            f"backend failure on text path for example {examples[2].id}: ")

    def test_wallclock_phase2_is_the_shared_gate_call(self):
        examples = self._corpus()
        backends, agent = make_stack(examples)
        cfg = EngineConfig(timing="wallclock")
        adaptive = infer_batch(examples, forced_gate(1), backends, agent, DEFAULT_PATH_COSTS, cfg)
        assert len({r.t_phase2 for r in adaptive}) == 1
        assert adaptive[0].t_phase2 > 0
        fixed = infer_batch(examples, None, backends, agent, DEFAULT_PATH_COSTS, cfg,
                            mode=MODE_NON_ADAPTIVE)
        assert all(r.t_phase2 == 0.0 for r in fixed)
