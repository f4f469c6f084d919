import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tableroute.cli import main as cli_main
from tableroute.corpus import RoutingExample, Table
from tableroute.errors import IngestError, InvalidArgumentError
from tableroute.gate import GateParameters, compute_params, concat_input, forward_batch, init_gate
from tableroute.paths import DEFAULT_PATH_COSTS, INPUT_DIM
from tableroute.synthetic import SeparableCorpusConfig, make_separable_corpus
from tableroute.trainer import (
    EVAL_BLOCK_ROWS,
    TrainConfig,
    _eval_logits,
    build_target,
    evaluate_policy,
    loss_batch,
    planned_optimizer_steps,
    train,
)

CFG = TrainConfig(seed=0)


class TestBuildTarget:
    def test_all_succeed_is_uniform(self):
        np.testing.assert_allclose(build_target([1, 1, 1], 0.3), [1 / 3] * 3, atol=1e-12)

    def test_all_fail_is_uniform(self):
        np.testing.assert_allclose(build_target([0, 0, 0], 0.3), [1 / 3] * 3, atol=1e-12)

    def test_single_success_sharp(self):
        out = build_target([1, 0, 0], 0.3)
        # oracle: direct softmax evaluation
        e = math.exp(1 / 0.3)
        np.testing.assert_allclose(out, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], atol=1e-12)
        np.testing.assert_allclose(out, [0.93340, 0.03330, 0.03330], atol=1e-5)


def row_loss(z, s, cfg, cost=DEFAULT_PATH_COSTS):
    """`loss_batch` on one row: that row's (total, task, resource, dZ)."""
    Z = np.asarray(z, dtype=np.float64)[None, :]
    S = np.asarray(s, dtype=np.float64)[None, :]
    return tuple(a[0] for a in loss_batch(Z, S, cost.as_array(), cfg))


class TestTotalLoss:
    def test_zero_weight_reduces_to_task(self):
        cfg = TrainConfig(resource_weight=0.0)
        total, task, _, _ = row_loss([0.5, -0.2, 0.1], [1, 0, 0], cfg)
        assert total == pytest.approx(task)

    def test_uniform_logits_resource_is_mean_cost(self):
        _, _, resource, _ = row_loss([0.0, 0.0, 0.0], [1, 0, 0], CFG)
        assert resource == pytest.approx((0.73 + 0.81 + 0.96) / 3, abs=1e-5)

    def test_matching_logits_zero_task(self):
        # with gate temperature = target temperature, logits matching the
        # scores up to a constant shift reproduce the target exactly
        cfg = TrainConfig(target_temperature=0.3, gate_temperature=0.3)
        s = np.array([1.0, 0.0, 0.0])
        z = s + 5.0
        _, task, _, _ = row_loss(z, s, cfg)
        assert task == pytest.approx(0.0, abs=1e-12)

    def test_task_nonneg_resource_bounded(self):
        rng = np.random.default_rng(0)
        c = DEFAULT_PATH_COSTS
        for _ in range(200):
            z = rng.normal(scale=2, size=3)
            s = rng.integers(0, 2, size=3)
            _, task, resource, _ = row_loss(z, s, CFG, c)
            assert task >= 0.0
            assert min(c.costs) - 1e-12 <= resource <= max(c.costs) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(scale=2, size=3)
            s = rng.integers(0, 2, size=3).astype(float)
            cfg = TrainConfig(
                target_temperature=float(rng.uniform(0.1, 2.0)),
                gate_temperature=float(rng.uniform(0.5, 2.0)),
                resource_weight=float(rng.uniform(0.0, 1.0)),
            )
            grad_z = row_loss(z, s, cfg)[3]
            h = 1e-6
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                up = row_loss(zp, s, cfg)[0]
                down = row_loss(zm, s, cfg)[0]
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), 1e-8)
                assert abs(grad_z[j] - fd) / denom < 1e-5


def toy_example(i, dataset, scores, coord, d_small=False):
    table = Table(columns=("k", "v"), rows=(("a", "1"),))
    q = np.zeros(384)
    t = np.zeros(3584)
    v = np.zeros(6144)
    q[:16] = coord
    return RoutingExample(
        id=f"toy-{i:04d}",
        dataset=dataset,
        question=f"q{i}",
        table=table,
        table_markdown=table.to_markdown(),
        path_scores=scores,
        gold_answer="1",
        embedding=concat_input(q, t, v),
    )


class TestTrain:
    def test_planned_steps(self):
        assert planned_optimizer_steps(2000, TrainConfig()) == 63
        assert planned_optimizer_steps(32, TrainConfig()) == 1
        assert planned_optimizer_steps(33, TrainConfig()) == 2

    def test_unresolved_embeddings_fail_fast(self):
        ex = toy_example(0, "wtq", (1, 0, 0), 1.0)
        ex.embedding = None
        with pytest.raises(IngestError):
            train([ex], [], TrainConfig(), DEFAULT_PATH_COSTS)

    def test_excluded_datasets_filtered(self):
        examples = [toy_example(i, "fetaqa", (1, 0, 0), 1.0) for i in range(4)]
        with pytest.raises(InvalidArgumentError, match="empty"):
            train(examples, [], TrainConfig(), DEFAULT_PATH_COSTS)

    def test_deterministic_history(self):
        train_set, val_set = make_separable_corpus(
            SeparableCorpusConfig(n_train=96, n_val=32, seed=3)
        )
        cfg = TrainConfig(seed=3)
        r1 = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS)
        r2 = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS)
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert a == b  # bitwise-identical floats
        np.testing.assert_array_equal(r1.params.W1, r2.params.W1)

    def test_frozen_inputs_not_mutated(self):
        train_set, val_set = make_separable_corpus(
            SeparableCorpusConfig(n_train=64, n_val=16, seed=5)
        )
        before = [ex.embedding.copy() for ex in train_set[:4]]
        train(train_set, val_set, TrainConfig(seed=5), DEFAULT_PATH_COSTS)
        for ex, snap in zip(train_set[:4], before):
            np.testing.assert_array_equal(ex.embedding, snap)


class TestEvaluatePolicy:
    def _gate_forcing(self, idx):
        # weights are zero, bias picks the path
        b2 = np.zeros(3, dtype=np.float32)
        b2[idx] = 1.0
        return GateParameters(
            W1=np.zeros((256, 10112), dtype=np.float32),
            b1=np.zeros(256, dtype=np.float32),
            W2=np.zeros((3, 256), dtype=np.float32),
            b2=b2,
        )

    def test_always_correct_gate(self):
        examples = [toy_example(i, "wtq", (1, 0, 0), 0.5) for i in range(8)]
        out = evaluate_policy(self._gate_forcing(0), examples, DEFAULT_PATH_COSTS)
        assert out.routing_accuracy == 1.0
        assert out.path_distribution == (1.0, 0.0, 0.0)

    def test_uniform_logits_tie_break_to_text(self):
        examples = [toy_example(i, "wtq", (0, 1, 0), 0.5) for i in range(8)]
        zero_gate = GateParameters(
            W1=np.zeros((256, 10112), dtype=np.float32),
            b1=np.zeros(256, dtype=np.float32),
            W2=np.zeros((3, 256), dtype=np.float32),
            b2=np.zeros(3, dtype=np.float32),
        )
        out = evaluate_policy(zero_gate, examples, DEFAULT_PATH_COSTS)
        assert out.path_distribution == (1.0, 0.0, 0.0)
        assert out.routing_accuracy == 0.0

    def test_distribution_sums_to_one(self):
        train_set, val_set = make_separable_corpus(
            SeparableCorpusConfig(n_train=64, n_val=32, seed=1)
        )
        result = train(train_set, val_set, TrainConfig(seed=1), DEFAULT_PATH_COSTS)
        out = evaluate_policy(result.params, val_set, DEFAULT_PATH_COSTS)
        assert sum(out.path_distribution) == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evaluate_policy(self._gate_forcing(0), [], DEFAULT_PATH_COSTS)


class TestBlockedEval:
    """`evaluate_policy` and `routed_paths` route EVAL_BLOCK_ROWS rows per call."""

    @staticmethod
    def _examples(n):
        rows = np.random.default_rng(n).normal(size=(n, INPUT_DIM)).astype(np.float32)
        base = toy_example(0, "wtq", (1, 0, 0), 0.0)
        return [replace(base, id=f"row-{i}", embedding=rows[i]) for i in range(n)], rows

    # 600 ends on a short block; 513 = 256 + 257 folds a one-row tail.
    @pytest.mark.parametrize("n", [600, 2 * EVAL_BLOCK_ROWS + 1])
    def test_logits_bitwise_equal_to_one_call(self, n):
        gate = init_gate(seed=4)
        examples, rows = self._examples(n)
        one_call, _ = forward_batch(compute_params(gate), rows, mode="eval")
        assert _eval_logits(gate, examples).tobytes() == one_call.tobytes()

    def test_peak_bounded_by_one_block(self):
        # One call over 600 rows would hold a 48.5 MB float64 copy of them.
        gate = compute_params(init_gate(seed=4))
        examples, _ = self._examples(600)
        tracemalloc.start()
        try:
            _eval_logits(gate, examples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_rows = (EVAL_BLOCK_ROWS + 1) * INPUT_DIM * (4 + 8)  # float32 gather + float64 copy
        assert peak < block_rows + 4_000_000


# sha256 of what `train --seed 7` writes for the corpus of `make-synthetic
# --n 42 --all-tags --seed 1` + `ingest --seed 7`, taken before the optimizer
# step became in place; they pin the training step's floating-point order.
PINNED_TRAIN_SHA256 = {
    "gate.ckpt": "fb28dfc65e4dcd4462452ecf4d46a77f08f0ccc52169242fc1ee615e1d065751",
    "history.csv": "b6054a0e4f0bc510ab97eba69174f6fb16d24468b7fedb93e6195cfa59611724",
    "val_metrics.json": "d3f51b8e6d64343b8ed519b2f644e39f1ccf43b4d9617bd9ae9f30f98cd66c42",
}


class TestTrainingBytesPin:
    def test_cli_training_bytes_pinned(self, tmp_path):
        raw, corpus, run = tmp_path / "raw.jsonl", tmp_path / "corpus", tmp_path / "run"
        assert cli_main(["make-synthetic", "--out", str(raw), "--n", "42", "--all-tags",
                         "--seed", "1"]) == 0
        assert cli_main(["ingest", "--raw", str(raw), "--out", str(corpus), "--seed", "7"]) == 0
        assert cli_main(["train", "--corpus", str(corpus), "--run-dir", str(run),
                         "--seed", "7"]) == 0
        for name, digest in PINNED_TRAIN_SHA256.items():
            assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name
