from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute import analysis as analysis_module
from tableroute import trainer as trainer_module
from tableroute.analysis import (
    case_partition,
    complementarity_rate,
    greedy_paths,
    heuristic_alignment,
    lambda_sweep,
    mean_task_performance,
    outcome_records,
    synergy_success_rate,
)
from tableroute.cli import main as cli_main
from tableroute.errors import InvalidArgumentError, UndefinedRateError
from tableroute.paths import DEFAULT_PATH_COSTS
from tableroute.synthetic import make_separable_corpus
from tableroute.trainer import TrainConfig, score_matrix, train

TEXT, IMAGE, FUSION = 0, 1, 2


def scores(*rows):
    """An [N, 3] 0/1 path-score matrix from (text, image, fusion) rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def random_scores(seed, n):
    return np.random.default_rng(seed).integers(0, 2, size=(n, 3)).astype(np.float64)


class TestComplementarity:
    def test_all_both_correct_is_zero(self):
        assert complementarity_rate(scores(*[(1, 1, 0)] * 5)) == 0.0

    def test_hand_count_half(self):
        S = scores(
            (1, 0, 0),  # exactly one
            (0, 1, 0),  # exactly one
            (1, 1, 0),
            (0, 0, 1),
        )
        assert complementarity_rate(S) == 50.0

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_in_range(self, flags):
        S = scores(*[(t, v, 0) for t, v in flags])
        assert 0.0 <= complementarity_rate(S) <= 100.0


class TestCasePartition:
    def test_hand_counted_fixture(self):
        S = scores(*[(1, 1, 0)] * 6, (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1))
        assert astuple(case_partition(S)) == (60.0, 10.0, 20.0, 10.0, 0.0)

    def test_buckets_sum_to_100(self):
        S = random_scores(0, 137)
        assert sum(astuple(case_partition(S))) == pytest.approx(100.0, abs=1e-9)

    def test_exhaustive_and_exclusive(self):
        S = random_scores(1, 64)
        part = case_partition(S)
        total_counted = round(sum(astuple(part)) * len(S) / 100)
        assert total_counted == len(S)


class TestSynergy:
    def test_one_in_five_rescued(self):
        S = scores(*[(0, 0, int(i == 0)) for i in range(5)])
        assert synergy_success_rate(S) == 20.0

    def test_all_rescued(self):
        assert synergy_success_rate(scores(*[(0, 0, 1)] * 3)) == 100.0

    def test_no_hard_cases_is_undefined_not_zero(self):
        with pytest.raises(UndefinedRateError):
            synergy_success_rate(scores((1, 0, 1)))


class TestHeuristicAlignment:
    def test_single_aligned_record(self):
        assert heuristic_alignment(scores((1, 0, 0)), np.array([TEXT])) == 100.0

    def test_hand_traced_fixture_is_half(self):
        S = scores((1, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 0))
        chosen = np.array([
            TEXT,    # heuristic text -> aligned
            FUSION,  # heuristic image -> not
            FUSION,  # heuristic fusion -> aligned
            IMAGE,   # heuristic text -> not
        ])
        assert heuristic_alignment(S, chosen) == 50.0

    def test_greedy_policy_scores_100(self):
        S = random_scores(2, 1000)
        assert heuristic_alignment(S, greedy_paths(S)) == 100.0

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 2)),
                    min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_in_range(self, rows):
        S = scores(*[(t, v, 0) for t, v, _ in rows])
        chosen = np.array([c for _, _, c in rows])
        assert 0.0 <= heuristic_alignment(S, chosen) <= 100.0


class TestGreedyChoice:
    def test_order(self):
        S = scores((1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0))
        assert greedy_paths(S).tolist() == [TEXT, TEXT, IMAGE, FUSION, FUSION]


class TestEmptyInput:
    @pytest.mark.parametrize("metric", [
        complementarity_rate, case_partition,
        lambda S: heuristic_alignment(S, np.empty(0, dtype=np.int64)),
    ], ids=["complementarity", "case-partition", "heuristic-alignment"])
    def test_no_rows_is_invalid(self, metric):
        with pytest.raises(InvalidArgumentError):
            metric(np.empty((0, 3)))

    def test_no_rows_has_no_hard_cases(self):
        with pytest.raises(UndefinedRateError):
            synergy_success_rate(np.empty((0, 3)))


class TestMetricsMatchPerRowReference:
    """Each array metric equals the same count taken one row at a time."""

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                              st.integers(0, 2)), min_size=1, max_size=80))
    @settings(max_examples=200)
    def test_against_loops(self, rows):
        S = scores(*[r[:3] for r in rows])
        chosen = np.array([r[3] for r in rows])
        n = len(rows)
        exactly_one = sum(1 for t, v, _, _ in rows if t != v)
        assert complementarity_rate(S) == 100.0 * exactly_one / n

        buckets = [0] * 5
        for t, v, f, _ in rows:
            buckets[0 if t and v else 1 if t else 2 if v else 3 if f else 4] += 1
        assert astuple(case_partition(S)) == tuple(100.0 * c / n for c in buckets)

        hard = [f for t, v, f, _ in rows if not t and not v]
        if hard:
            assert synergy_success_rate(S) == 100.0 * sum(hard) / len(hard)
        else:
            with pytest.raises(UndefinedRateError):
                synergy_success_rate(S)

        greedy = [TEXT if t else IMAGE if v else FUSION for t, v, _, _ in rows]
        assert greedy_paths(S).tolist() == greedy
        aligned = sum(1 for g, (_, _, _, c) in zip(greedy, rows) if g == c)
        assert heuristic_alignment(S, chosen) == 100.0 * aligned / n


@pytest.fixture(scope="module")
def small_corpus():
    return make_separable_corpus(n_train=160, n_val=80, seed=11)


class TestOutcomeRecords:
    def test_built_from_routing(self, small_corpus):
        train_set, val_set = small_corpus
        result = train(train_set, val_set, TrainConfig(seed=11), DEFAULT_PATH_COSTS)
        S, chosen = outcome_records(result.params, val_set, DEFAULT_PATH_COSTS)
        assert S.shape == (len(val_set), 3)
        assert S.tolist() == [list(ex.path_scores) for ex in val_set]
        assert chosen.shape == (len(val_set),)
        assert set(chosen.tolist()) <= {TEXT, IMAGE, FUSION}
        # The same paths `train` chose for the gate it returned.
        assert chosen.tolist() == result.val_paths.tolist()


class TestLambdaSweep:
    def test_single_weight_single_row(self, small_corpus):
        train_set, val_set = small_corpus
        rows = lambda_sweep(train_set, val_set, [0.15], TrainConfig(seed=11), DEFAULT_PATH_COSTS)
        assert len(rows) == 1
        assert rows[0].resource_weight == 0.15
        assert sum(rows[0].path_distribution) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, small_corpus):
        train_set, val_set = small_corpus
        a = lambda_sweep(train_set, val_set, [0.0, 1.0], TrainConfig(seed=11), DEFAULT_PATH_COSTS)
        b = lambda_sweep(train_set, val_set, [0.0, 1.0], TrainConfig(seed=11), DEFAULT_PATH_COSTS)
        assert a == b

    def test_row_is_the_train_val_metrics_at_the_configured_temperature(self, small_corpus):
        train_set, val_set = small_corpus
        cfg = TrainConfig(seed=11, gate_temperature=2.0, resource_weight=0.15)
        [row] = lambda_sweep(train_set, val_set, [0.15], cfg, DEFAULT_PATH_COSTS)
        metrics = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS).val_metrics
        assert row.expected_cost == metrics.expected_cost
        assert row.routing_accuracy == metrics.routing_accuracy
        assert row.path_distribution == metrics.path_distribution

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_routes_validation_only_inside_train(self, small_corpus, monkeypatch, epochs):
        train_set, val_set = small_corpus
        real_eval_logits, calls = trainer_module._eval_logits, []

        def counting_eval_logits(gate, data):
            calls.append(len(data))
            return real_eval_logits(gate, data)

        monkeypatch.setattr(trainer_module, "_eval_logits", counting_eval_logits)
        lambda_sweep(train_set, val_set, [0.0, 1.0], TrainConfig(seed=11, epochs=epochs),
                     DEFAULT_PATH_COSTS)
        assert calls == [len(val_set)] * (2 * epochs)

    def test_empty_validation_rejected_before_training(self, small_corpus, monkeypatch):
        train_set, _ = small_corpus

        def no_training(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(analysis_module, "train", no_training)
        with pytest.raises(InvalidArgumentError, match="empty validation split"):
            lambda_sweep(train_set, [], [0.15], TrainConfig(seed=11), DEFAULT_PATH_COSTS)

    def test_empty_weights_rejected(self, small_corpus):
        train_set, val_set = small_corpus
        with pytest.raises(InvalidArgumentError):
            lambda_sweep(train_set, val_set, [], TrainConfig(seed=11), DEFAULT_PATH_COSTS)

    def test_csv_writers(self, tmp_path, monkeypatch):
        # `sweep-lambda` writes one row per resource weight into each of its CSVs.
        monkeypatch.delenv("TABLEROUTE_CONFIG", raising=False)
        raw, corpus, run = tmp_path / "raw.jsonl", tmp_path / "corpus", tmp_path / "run"
        assert cli_main(["make-synthetic", "--out", str(raw), "--n", "40"]) == 0
        assert cli_main(["ingest", "--raw", str(raw), "--out", str(corpus)]) == 0
        assert cli_main(["sweep-lambda", "--corpus", str(corpus), "--run-dir", str(run),
                         "--lambdas", "0,1"]) == 0
        dist_lines = (run / "path_distribution.csv").read_text().splitlines()
        assert dist_lines[0] == "resource_weight,text_share,image_share,fusion_share"
        assert [line.split(",")[0] for line in dist_lines[1:]] == ["0.0", "1.0"]
        for line in dist_lines[1:]:
            assert sum(float(v) for v in line.split(",")[1:]) == pytest.approx(1.0)
        align_lines = (run / "alignment_performance.csv").read_text().splitlines()
        assert align_lines[0] == ("resource_weight,heuristic_alignment_pct,"
                                  "mean_task_performance,routing_accuracy,expected_cost")
        assert [line.split(",")[0] for line in align_lines[1:]] == ["0.0", "1.0"]
        assert all(len(line.split(",")) == 5 for line in align_lines)


class TestMeanTaskPerformance:
    def test_unweighted_across_datasets(self, small_corpus):
        _, val_set = small_corpus
        # wtq routes 1 of 3 right, tabfact 1 of 1: (1/3 + 1) / 2, not 2 of 4
        rows = [("wtq", (1, 0, 0)), ("wtq", (0, 1, 0)), ("wtq", (0, 0, 0)),
                ("tabfact", (0, 0, 1))]
        data = [replace(ex, dataset=d, path_scores=s) for ex, (d, s) in zip(val_set, rows)]
        chosen = np.array([TEXT, TEXT, TEXT, FUSION])
        assert mean_task_performance(data, chosen) == np.mean([np.mean([1.0, 0.0, 0.0]), 1.0])
        assert mean_task_performance(val_set, greedy_paths(score_matrix(val_set))) == np.mean([
            np.mean([float(any(ex.path_scores)) for ex in val_set if ex.dataset == d])
            for d in sorted({ex.dataset for ex in val_set})
        ])
