import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tableroute import trainer as trainer_module
from tableroute.cli import main as cli_main
from tableroute.corpus import RoutingExample, Table
from tableroute.errors import IngestError, InvalidArgumentError
from tableroute.gate import (
    CANONICAL_DIMS,
    GateParameters,
    backward_batch,
    compute_params,
    concat_input,
    forward_batch,
    init_gate,
    pack_parameters,
    unpack_parameters,
)
from tableroute.numerics import OptimizerState, adamw_step, clip_grad_norm
from tableroute.paths import DEFAULT_PATH_COSTS, INPUT_DIM
from tableroute.synthetic import SeparableCorpusConfig, make_separable_corpus
from tableroute.trainer import (
    EVAL_BLOCK_ROWS,
    PolicyEval,
    TrainConfig,
    _eval_logits,
    _gradient_views,
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
        block_rows = (EVAL_BLOCK_ROWS + 1) * INPUT_DIM * 8  # one float64 gather
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


class TestFixedBuffers:
    """`train` runs in fixed float64 buffers and reads rows where they lie."""

    def test_first_write_then_add_matches_fill_then_add(self):
        # The trainer writes each cycle's first batch straight into the
        # gradient instead of adding it to zeros. 0.0 + g differs from g
        # only for g = -0.0, so the two gradients must be equal in value,
        # and the sign of a zero gradient must not reach the optimizer.
        # Rows dropped out in full give zero gradients: every batch of
        # cycles 0 and 2 is dropped out, and cycle 1's first batch.
        dims = CANONICAL_DIMS
        rng = np.random.default_rng(7)
        master = {k: pack_parameters(init_gate(seed=7)) for k in ("fill", "write")}
        params = {k: unpack_parameters(v, dims) for k, v in master.items()}
        opt = {k: OptimizerState.for_size(v.size, weight_decay=0.01) for k, v in master.items()}
        grad = {k: np.empty_like(v) for k, v in master.items()}
        work = np.empty_like(master["write"])
        for cycle in range(3):
            batches = []
            for b in range(4):
                X = rng.normal(size=(8, dims[0]))
                seeds = [cycle * 100 + b * 8 + j for j in range(8)]
                batches.append((X, seeds, rng.normal(size=(8, dims[2])), cycle != 1 or b == 0))
            grad["fill"].fill(0.0)
            for k in ("fill", "write"):
                views = _gradient_views(grad[k], dims)
                for b, (X, seeds, dZ, dropped) in enumerate(batches):
                    _, cache = forward_batch(params[k], X, mode="train", rng_seeds=seeds)
                    if dropped:
                        cache.mask_scale[:] = 0.0
                        cache.dropped[:] = 0.0
                    if k == "fill":
                        grads = backward_batch(params[k], cache, dZ)
                        for name, acc in zip(("dW1", "db1", "dW2", "db2"),
                                             (views.dW1, views.db1, views.dW2, views.db2)):
                            acc += getattr(grads, name)
                    elif b == 0:
                        backward_batch(params[k], cache, dZ, out=views)
                    else:
                        backward_batch(params[k], cache, dZ, out=_gradient_views(work, dims))
                        grad[k] += work
            np.testing.assert_array_equal(grad["write"], grad["fill"])
            # The worst case for the step: every zero of the gradient is
            # -0.0. (numpy's sums and BLAS start from +0.0, so none arise
            # by themselves; they are planted.)
            zeros = grad["write"] == 0
            assert zeros.sum() >= (dims[1] * dims[0] if cycle != 1 else 0)
            grad["write"][zeros] = -0.0
            norms = {}
            for k in ("fill", "write"):
                grad[k] /= 32
                norms[k] = clip_grad_norm(grad[k], 1e-3, work=work)[1]
                adamw_step(master[k], grad[k], opt[k], 1e-3)
            assert norms["write"] == norms["fill"]
            assert master["write"].tobytes() == master["fill"].tobytes()
            assert opt["write"].first_moment.tobytes() == opt["fill"].first_moment.tobytes()
            assert opt["write"].second_moment.tobytes() == opt["fill"].second_moment.tobytes()

    def test_peak_does_not_grow_with_training_rows(self):
        # A float32 copy of the training rows would grow by 7.8 MB here.
        train_set, val_set = make_separable_corpus(
            SeparableCorpusConfig(n_train=256, n_val=16, seed=2)
        )
        cfg = TrainConfig(seed=2)
        peaks = []
        for n in (64, 256):
            subset = train_set[:n]
            tracemalloc.start()
            try:
                train(subset, val_set, cfg, DEFAULT_PATH_COSTS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(train_set) >= 256
        assert peaks[1] - peaks[0] < 1_000_000

    @staticmethod
    def _two_epoch_run(monkeypatch, accuracies):
        """Train 2 epochs of 2 steps with the given per-epoch val accuracies;
        returns the result, the live optimizer state and a snapshot
        (params, m, v) after each step."""
        train_set, val_set = make_separable_corpus(
            SeparableCorpusConfig(n_train=64, n_val=16, seed=6)
        )
        scores = iter(accuracies)

        def fake_evaluate(Z, S, cost, gate_temperature):
            return PolicyEval(next(scores), 0.0, (1.0, 0.0, 0.0), len(Z))

        snapshots, live = [], []

        def recording_step(params, grads, state, lr):
            out = adamw_step(params, grads, state, lr)
            live.append(state)
            snapshots.append((params.astype(np.float32), state.first_moment.copy(),
                              state.second_moment.copy()))
            return out

        monkeypatch.setattr(trainer_module, "_evaluate_arrays", fake_evaluate)
        monkeypatch.setattr(trainer_module, "adamw_step", recording_step)
        result = train(train_set, val_set, TrainConfig(seed=6, epochs=2), DEFAULT_PATH_COSTS)
        assert len(snapshots) == result.total_steps == 2 * planned_optimizer_steps(
            len(train_set), TrainConfig(epochs=1)
        )
        return result, live[-1], snapshots

    def test_first_epoch_best_returns_its_moment_snapshot(self, monkeypatch):
        result, live, snapshots = self._two_epoch_run(monkeypatch, [0.75, 0.5])
        epoch_end = result.total_steps // 2
        params, m, v = snapshots[epoch_end - 1]
        state = result.optimizer_state
        assert state is not live
        assert state.step_count == epoch_end
        assert state.first_moment.tobytes() == m.tobytes()
        assert state.second_moment.tobytes() == v.tobytes()
        assert state.first_moment.tobytes() != live.first_moment.tobytes()
        assert pack_parameters(result.params).astype(np.float32).tobytes() == params.tobytes()

    def test_last_epoch_best_returns_the_live_state(self, monkeypatch):
        result, live, snapshots = self._two_epoch_run(monkeypatch, [0.5, 0.75])
        assert result.optimizer_state is live
        assert live.step_count == result.total_steps
        assert pack_parameters(result.params).astype(np.float32).tobytes() == snapshots[-1][0].tobytes()


# sha256 of a 2-epoch `train` on `make_separable_corpus(n_train=150, n_val=40,
# seed=4)`: 5 accumulation cycles per epoch, the last of 3 batches with a
# 6-row batch at its end, and the best validation in the first epoch. Taken
# before training ran in fixed buffers; it pins the floating-point order
# across cycles, which the single-cycle CLI pin above does not reach.
PINNED_MULTI_CYCLE_SHA256 = "5eb4c4d51afcb07afb6d8a274467bee14911d19e54ceaeb0745ca68107aa299a"


def test_multi_cycle_training_pinned():
    train_set, val_set = make_separable_corpus(
        SeparableCorpusConfig(n_train=150, n_val=40, seed=4)
    )
    result = train(train_set, val_set, TrainConfig(seed=4, epochs=2), DEFAULT_PATH_COSTS)
    assert (len(train_set), len(result.history), result.optimizer_state.step_count) == (150, 10, 5)
    digest = hashlib.sha256()
    digest.update(repr(result.history).encode())
    digest.update(repr(result.val_metrics).encode())
    digest.update(pack_parameters(result.params).tobytes())
    digest.update(result.optimizer_state.first_moment.tobytes())
    digest.update(result.optimizer_state.second_moment.tobytes())
    assert digest.hexdigest() == PINNED_MULTI_CYCLE_SHA256
