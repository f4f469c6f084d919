from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute import analysis as analysis_module
from tableroute import trainer as trainer_module
from tableroute.analysis import (
    OutcomeRecord,
    case_partition,
    complementarity_rate,
    greedy_choice,
    heuristic_alignment,
    lambda_sweep,
    mean_task_performance,
    outcome_records,
    synergy_success_rate,
    write_alignment_csv,
    write_path_distribution_csv,
)
from tableroute.errors import IncompleteDataError, InvalidArgumentError, UndefinedRateError
from tableroute.paths import DEFAULT_PATH_COSTS
from tableroute.synthetic import make_separable_corpus
from tableroute.trainer import TrainConfig, train


def rec(i, text, image, fusion=None, chosen=None):
    return OutcomeRecord(
        example_id=f"r{i}",
        text_correct=text,
        image_correct=image,
        fusion_correct=fusion,
        chosen_path=chosen,
        final_correct=None,
    )


class TestComplementarity:
    def test_all_both_correct_is_zero(self):
        records = [rec(i, True, True) for i in range(5)]
        assert complementarity_rate(records) == 0.0

    def test_hand_count_half(self):
        records = [
            rec(0, True, False),   # exactly one
            rec(1, False, True),   # exactly one
            rec(2, True, True),
            rec(3, False, False, fusion=True),
        ]
        assert complementarity_rate(records) == 50.0

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_in_range(self, flags):
        records = [rec(i, t, v, fusion=False) for i, (t, v) in enumerate(flags)]
        assert 0.0 <= complementarity_rate(records) <= 100.0


class TestCasePartition:
    def test_hand_counted_fixture(self):
        records = (
            [rec(i, True, True) for i in range(6)]
            + [rec(6, True, False)]
            + [rec(7, False, True), rec(8, False, True)]
            + [rec(9, False, False, fusion=True)]
        )
        part = case_partition(records)
        assert astuple(part) == (60.0, 10.0, 20.0, 10.0, 0.0)

    def test_buckets_sum_to_100(self):
        rng = np.random.default_rng(0)
        records = [
            rec(i, bool(rng.integers(2)), bool(rng.integers(2)), fusion=bool(rng.integers(2)))
            for i in range(137)
        ]
        assert sum(astuple(case_partition(records))) == pytest.approx(100.0, abs=1e-9)

    def test_missing_fusion_label_names_record(self):
        records = [rec(0, False, False, fusion=None)]
        with pytest.raises(IncompleteDataError, match="r0"):
            case_partition(records)

    def test_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(1)
        records = [
            rec(i, bool(rng.integers(2)), bool(rng.integers(2)), fusion=bool(rng.integers(2)))
            for i in range(64)
        ]
        part = case_partition(records)
        total_counted = round(sum(astuple(part)) * len(records) / 100)
        assert total_counted == len(records)


class TestSynergy:
    def test_one_in_five_rescued(self):
        records = [rec(i, False, False, fusion=(i == 0)) for i in range(5)]
        assert synergy_success_rate(records) == 20.0

    def test_all_rescued(self):
        records = [rec(i, False, False, fusion=True) for i in range(3)]
        assert synergy_success_rate(records) == 100.0

    def test_no_hard_cases_is_undefined_not_zero(self):
        records = [rec(0, True, False, fusion=True)]
        with pytest.raises(UndefinedRateError):
            synergy_success_rate(records)

    def test_unlabeled_hard_case_incomplete(self):
        records = [rec(0, False, False, fusion=None)]
        with pytest.raises(IncompleteDataError):
            synergy_success_rate(records)


class TestHeuristicAlignment:
    def test_single_aligned_record(self):
        assert heuristic_alignment([rec(0, True, False, chosen="text")]) == 100.0

    def test_hand_traced_fixture_is_half(self):
        records = [
            rec(0, True, False, chosen="text"),     # heuristic text -> aligned
            rec(1, False, True, chosen="fusion"),   # heuristic image -> not
            rec(2, False, False, chosen="fusion"),  # heuristic fusion -> aligned
            rec(3, True, False, chosen="image"),    # heuristic text -> not
        ]
        assert heuristic_alignment(records) == 50.0

    def test_greedy_policy_scores_100(self):
        rng = np.random.default_rng(2)
        records = []
        for i in range(1000):
            t, v = bool(rng.integers(2)), bool(rng.integers(2))
            records.append(rec(i, t, v, chosen=greedy_choice(t, v)))
        assert heuristic_alignment(records) == 100.0

    def test_missing_choice_incomplete(self):
        with pytest.raises(IncompleteDataError):
            heuristic_alignment([rec(0, True, False, chosen=None)])

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 2)),
                    min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_in_range(self, rows):
        paths = ("text", "image", "fusion")
        records = [rec(i, t, v, chosen=paths[c]) for i, (t, v, c) in enumerate(rows)]
        assert 0.0 <= heuristic_alignment(records) <= 100.0


class TestGreedyChoice:
    def test_order(self):
        assert greedy_choice(True, True) == "text"
        assert greedy_choice(True, False) == "text"
        assert greedy_choice(False, True) == "image"
        assert greedy_choice(False, False) == "fusion"


@pytest.fixture(scope="module")
def small_corpus():
    return make_separable_corpus(n_train=160, n_val=80, seed=11)


class TestOutcomeRecords:
    def test_built_from_routing(self, small_corpus):
        train_set, val_set = small_corpus
        result = train(train_set, val_set, TrainConfig(seed=11), DEFAULT_PATH_COSTS)
        records = outcome_records(result.params, val_set, DEFAULT_PATH_COSTS)
        assert len(records) == len(val_set)
        by_id = {e.id: e for e in val_set}
        for r in records:
            ex = by_id[r.example_id]
            assert r.text_correct == bool(ex.path_scores[0])
            assert r.chosen_path in ("text", "image", "fusion")
            idx = ("text", "image", "fusion").index(r.chosen_path)
            assert r.final_correct == bool(ex.path_scores[idx])


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

    def test_csv_writers(self, small_corpus, tmp_path):
        train_set, val_set = small_corpus
        rows = lambda_sweep(train_set, val_set, [0.0], TrainConfig(seed=11), DEFAULT_PATH_COSTS)
        write_path_distribution_csv(rows, tmp_path / "dist.csv")
        write_alignment_csv(rows, tmp_path / "align.csv")
        dist_lines = (tmp_path / "dist.csv").read_text().splitlines()
        assert dist_lines[0] == "resource_weight,text_share,image_share,fusion_share"
        assert len(dist_lines) == 2
        align_lines = (tmp_path / "align.csv").read_text().splitlines()
        assert align_lines[0].startswith("resource_weight,heuristic_alignment_pct")


class TestMeanTaskPerformance:
    def test_unweighted_across_datasets(self, small_corpus):
        _, val_set = small_corpus
        # pretend every routed answer was correct
        records = [
            OutcomeRecord(e.id, True, True, True, "text", final_correct=True)
            for e in val_set
        ]
        assert mean_task_performance(records, val_set) == 1.0
