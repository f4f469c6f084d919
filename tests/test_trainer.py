import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import tableroute
from tableroute import trainer as trainer_module
from tableroute.cli import main as cli_main
from tableroute.corpus import RoutingExample, Table, load_corpus, stratified_split
from tableroute.errors import IngestError, InvalidArgumentError
from tableroute.gate import (
    CANONICAL_DIMS,
    GateParameters,
    backward_batch,
    compute_params,
    concat_input,
    forward_batch,
    init_gate,
    load_checkpoint,
    pack_parameters,
    unpack_parameters,
)
from tableroute.numerics import OptimizerState, adamw_step, clip_grad_norm
from tableroute.paths import DEFAULT_PATH_COSTS, INPUT_DIM
from tableroute.runconfig import load_runconfig
from tableroute.synthetic import make_separable_corpus
from tableroute.trainer import (
    EVAL_BLOCK_ROWS,
    PolicyEval,
    TrainConfig,
    _eval_logits,
    build_target,
    loss_batch,
    planned_optimizer_steps,
    route_split,
    routed_paths,
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
        path_scores=scores,
        gold_answer="1",
        embedding=concat_input(q[None], t[None], v[None])[0],
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
        train_set, val_set = make_separable_corpus(n_train=96, n_val=32, seed=3)
        cfg = TrainConfig(seed=3)
        r1 = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS)
        r2 = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS)
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert a == b  # bitwise-identical floats
        np.testing.assert_array_equal(r1.params.W1, r2.params.W1)

    def test_frozen_inputs_not_mutated(self):
        train_set, val_set = make_separable_corpus(n_train=64, n_val=16, seed=5)
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
        out = route_split(self._gate_forcing(0), examples, DEFAULT_PATH_COSTS)[0]
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
        out = route_split(zero_gate, examples, DEFAULT_PATH_COSTS)[0]
        assert out.path_distribution == (1.0, 0.0, 0.0)
        assert out.routing_accuracy == 0.0

    def test_distribution_sums_to_one(self):
        train_set, val_set = make_separable_corpus(n_train=64, n_val=32, seed=1)
        result = train(train_set, val_set, TrainConfig(seed=1), DEFAULT_PATH_COSTS)
        out = route_split(result.params, val_set, DEFAULT_PATH_COSTS)[0]
        assert sum(out.path_distribution) == pytest.approx(1.0, abs=1e-9)

    def test_val_paths_are_those_of_the_returned_gate(self):
        train_set, val_set = make_separable_corpus(n_train=64, n_val=32, seed=1)
        result = train(train_set, val_set, TrainConfig(seed=1, epochs=2), DEFAULT_PATH_COSTS)
        policy, chosen = route_split(result.params, val_set, DEFAULT_PATH_COSTS)
        assert result.val_metrics == policy
        assert result.val_paths.tolist() == chosen.tolist()

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            route_split(self._gate_forcing(0), [], DEFAULT_PATH_COSTS)

    def test_route_split_chooses_paths_once(self, monkeypatch):
        examples = [toy_example(i, "wtq", (0, 1, 0), 0.5) for i in range(8)]
        gate = init_gate(seed=3)
        real_choose, calls = trainer_module.choose_paths, []

        def counting_choose(Z, costs):
            calls.append(len(Z))
            return real_choose(Z, costs)

        monkeypatch.setattr(trainer_module, "choose_paths", counting_choose)
        policy, chosen = route_split(gate, examples, DEFAULT_PATH_COSTS)
        assert calls == [len(examples)]
        assert chosen.tolist() == routed_paths(gate, examples, DEFAULT_PATH_COSTS).tolist()


class TestBlockedEval:
    """`route_split` and `routed_paths` route EVAL_BLOCK_ROWS rows per call."""

    @staticmethod
    def _examples(n):
        rows = np.random.default_rng(n).normal(size=(n, INPUT_DIM)).astype(np.float32)
        base = toy_example(0, "wtq", (1, 0, 0), 0.0)
        return [replace(base, id=f"row-{i}", embedding=rows[i]) for i in range(n)], rows

    # 600 ends on a short block; 513 = 7 * 64 + 65 folds a one-row tail.
    @pytest.mark.parametrize("n", [600, 8 * EVAL_BLOCK_ROWS + 1])
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
# --n 42 --all-tags --seed 1` + `ingest --seed 7`, taken when each training
# cycle became one batch; they pin the training step's floating-point order.
PINNED_TRAIN_SHA256 = {
    "gate.ckpt": "255d7cebd304bbc57e9a84acf3a7f46bdca3f4341819073f565be2775ad7c612",
    "history.csv": "41acc110baebd4df53d4ea714f29d7bea89f37173d66ada5e05a2617d577601f",
    "val_metrics.json": "3bfd9d4b697aae1b74e226505c0decd1a83d611bc6010949b2b388162f798867",
}


class TestTrainingBytesPin:
    @pytest.fixture(scope="class")
    def cli_run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("train")
        raw, corpus, run = tmp_path / "raw.jsonl", tmp_path / "corpus", tmp_path / "run"
        assert cli_main(["make-synthetic", "--out", str(raw), "--n", "42", "--all-tags",
                         "--seed", "1"]) == 0
        assert cli_main(["ingest", "--raw", str(raw), "--out", str(corpus), "--seed", "7"]) == 0
        assert cli_main(["train", "--corpus", str(corpus), "--run-dir", str(run),
                         "--seed", "7"]) == 0
        return corpus, run

    def test_cli_training_bytes_pinned(self, cli_run):
        _, run = cli_run
        for name, digest in PINNED_TRAIN_SHA256.items():
            assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name

    def test_val_metrics_are_those_of_the_saved_gate(self, cli_run):
        corpus, run = cli_run
        params, _ = load_checkpoint(run / "gate.ckpt")
        cfg = load_runconfig(run / "config.snapshot.json")
        _, val = stratified_split(load_corpus(corpus), cfg["train"]["val_fraction"], cfg.seed)
        metrics = route_split(params, val, cfg.cost_vector(),
                              cfg.train_config().gate_temperature)[0]
        expected = json.dumps(asdict(metrics), indent=2, sort_keys=True) + "\n"
        assert (run / "val_metrics.json").read_text() == expected


    # Only the product of the two keys, the rows of one optimizer step,
    # reaches the training step: each cycle runs as one batch.
    @pytest.mark.parametrize("batch_size,grad_accum_steps", [(32, 1), (4, 8)])
    def test_cycle_split_does_not_change_the_bytes(self, cli_run, tmp_path,
                                                   batch_size, grad_accum_steps):
        corpus, run = cli_run
        config = tmp_path / "split.json"
        config.write_text(json.dumps({"train": {"batch_size": batch_size,
                                                "grad_accum_steps": grad_accum_steps}}))
        other = tmp_path / "run"
        assert cli_main(["train", "--config", str(config), "--corpus", str(corpus),
                         "--run-dir", str(other), "--seed", "7"]) == 0
        for name in ("gate.ckpt", "history.csv"):
            assert (other / name).read_bytes() == (run / name).read_bytes(), name


def test_one_train_forward_per_optimizer_step(monkeypatch):
    # 150 rows: four 32-row cycles and a 22-row one per epoch.
    train_set, val_set = make_separable_corpus(n_train=150, n_val=40, seed=4)
    train_rows, steps = [], []
    real_forward, real_step = trainer_module.forward_batch, trainer_module.adamw_step

    def counting_forward(params, X, mode="eval", rng_seeds=None):
        if mode == "train":
            train_rows.append(len(X))
        return real_forward(params, X, mode, rng_seeds)

    def counting_step(params, grads, state, lr, grad_scale=None):
        steps.append(len(train_rows))
        return real_step(params, grads, state, lr, grad_scale)

    monkeypatch.setattr(trainer_module, "forward_batch", counting_forward)
    monkeypatch.setattr(trainer_module, "adamw_step", counting_step)
    result = train(train_set, val_set, TrainConfig(seed=4, epochs=2), DEFAULT_PATH_COSTS)
    assert train_rows == [32, 32, 32, 32, 22] * 2
    assert steps == list(range(1, 11)) and len(result.history) == 10


class TestNonFiniteGradient:
    """A gradient norm that is not finite stops `train` at its step, before
    `adamw_step` writes the weights or the moments."""

    @staticmethod
    def _plant(monkeypatch, value, at_call):
        """Make the `at_call`-th `backward_batch` of `train` (from 0) write
        `value` into one weight's gradient."""
        real_backward, calls = trainer_module.backward_batch, []

        def planting_backward(params, cache, dZ, out=None):
            grads = real_backward(params, cache, dZ, out=out)
            if len(calls) == at_call:
                grads.W1[0, 0] = value
            calls.append(1)
            return grads

        monkeypatch.setattr(trainer_module, "backward_batch", planting_backward)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_train_raises_at_the_step(self, monkeypatch, value):
        train_set, val_set = make_separable_corpus(n_train=150, n_val=40, seed=4)
        self._plant(monkeypatch, value, at_call=2)
        steps, real_step = [], trainer_module.adamw_step

        def counting_step(params, grads, state, lr, grad_scale=None):
            steps.append(state.step_count)
            return real_step(params, grads, state, lr, grad_scale)

        monkeypatch.setattr(trainer_module, "adamw_step", counting_step)
        with pytest.raises(InvalidArgumentError,
                           match=rf"step 2 \(epoch 0\): gradient norm is {float(value)}"):
            train(train_set, val_set, TrainConfig(seed=4), DEFAULT_PATH_COSTS)
        assert steps == [0, 1]

    def test_cli_train_exits_1_without_a_checkpoint(self, tmp_path, monkeypatch, capsys):
        # Without validation the NaN weights would otherwise reach gate.ckpt.
        raw, corpus, run = tmp_path / "raw.jsonl", tmp_path / "corpus", tmp_path / "run"
        assert cli_main(["make-synthetic", "--out", str(raw), "--n", "42", "--seed", "1"]) == 0
        assert cli_main(["ingest", "--raw", str(raw), "--out", str(corpus), "--seed", "7"]) == 0
        config = tmp_path / "no-val.json"
        config.write_text(json.dumps({"train": {"val_fraction": 0.0}}))
        self._plant(monkeypatch, np.nan, at_call=0)
        capsys.readouterr()
        assert cli_main(["train", "--config", str(config), "--corpus", str(corpus),
                         "--run-dir", str(run), "--seed", "7"]) == 1
        assert "step 0 (epoch 0): gradient norm is nan" in capsys.readouterr().err
        assert not (run / "gate.ckpt").exists()


def test_blas_thread_count_does_not_change_the_bytes(tmp_path):
    # One and two BLAS threads, set in each child's environment only, must
    # give the same checkpoint and history: sgemm/dgemm results may not
    # depend on how the product is split across threads.
    raw, corpus = tmp_path / "raw.jsonl", tmp_path / "corpus"
    assert cli_main(["make-synthetic", "--out", str(raw), "--n", "300", "--seed", "2"]) == 0
    assert cli_main(["ingest", "--raw", str(raw), "--out", str(corpus), "--seed", "2"]) == 0
    env = {k: v for k, v in os.environ.items() if k != "TABLEROUTE_CONFIG"}
    env["PYTHONPATH"] = str(Path(tableroute.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        run = tmp_path / f"run-{threads}"
        subprocess.run([sys.executable, "-m", "tableroute.cli", "train", "--corpus", str(corpus),
                        "--run-dir", str(run), "--seed", "2"],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=300)
        outputs[threads] = [(run / name).read_bytes() for name in ("gate.ckpt", "history.csv")]
    assert len(outputs["1"][1].splitlines()) > 2  # more than one optimizer step
    assert outputs["1"] == outputs["2"]


class TestFixedBuffers:
    """`train` runs in fixed float32 buffers and reads rows where they lie."""

    def test_scaling_dz_matches_scaling_the_gradient(self):
        # The trainer scales each cycle's [32, 3] dZ by 1/32 instead of
        # dividing the 2.59M-element gradient. A power of two scales every
        # product and sum exactly, so on a full cycle both give the same
        # bits. Buffers, rows and moments are float32, as in `train`; dZ is
        # float64, as the loss gives it.
        dims = CANONICAL_DIMS
        rng = np.random.default_rng(7)
        master = pack_parameters(init_gate(seed=7), np.float32)
        params = unpack_parameters(master, dims)
        X = rng.normal(size=(32, dims[0])).astype(np.float32)
        dZ = rng.normal(size=(32, dims[2]))
        _, cache = forward_batch(params, X, mode="train", rng_seeds=list(range(32)))
        # 16 hidden units dropped out in every row give zero gradients.
        cache.mask_scale[:, :16] = 0.0
        cache.dropped[:, :16] = 0.0
        grad = {k: np.empty_like(master) for k in ("dz", "gradient")}
        backward_batch(params, cache, dZ / 32, out=unpack_parameters(grad["dz"], dims))
        backward_batch(params, cache, dZ, out=unpack_parameters(grad["gradient"], dims))
        grad["gradient"] /= 32
        assert grad["dz"].tobytes() == grad["gradient"].tobytes()
        # Backward writes the gradient in place and nothing zeroes it, so the
        # sign of a zero gradient must not reach the optimizer. The worst
        # case: every zero is -0.0. (numpy's sums and BLAS start from +0.0,
        # so none arise by themselves; they are planted.)
        zeros = grad["dz"] == 0
        assert zeros.sum() >= 16 * dims[0]
        grad["dz"][zeros] = -0.0
        norms, steps = {}, {}
        for k in ("dz", "gradient"):
            opt = OptimizerState.for_size(master.size, 0.01, dtype=np.float32)
            steps[k] = master.copy()
            scale, norms[k] = clip_grad_norm(grad[k], 1e-3)
            adamw_step(steps[k], grad[k], opt, 1e-3, grad_scale=scale)
            steps[k] = (steps[k], opt.first_moment, opt.second_moment)
        assert norms["dz"] == norms["gradient"]
        for a, b in zip(steps["dz"], steps["gradient"]):
            assert a.tobytes() == b.tobytes()

    def test_peak_does_not_grow_with_training_rows(self):
        # A float32 copy of the training rows would grow by 7.8 MB here.
        train_set, val_set = make_separable_corpus(n_train=256, n_val=16, seed=2)
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
        returns the result and a copy of the float32 master after each step."""
        train_set, val_set = make_separable_corpus(n_train=64, n_val=16, seed=6)
        scores = iter(accuracies)

        def fake_route_split(gate, data, cost, gate_temperature):
            score = next(scores)
            # The epoch's accuracy stands in for its chosen paths.
            return PolicyEval(score, 0.0, (1.0, 0.0, 0.0), len(data)), score

        snapshots = []

        def recording_step(params, grads, state, lr, grad_scale=None):
            out = adamw_step(params, grads, state, lr, grad_scale)
            snapshots.append(params.copy())
            return out

        monkeypatch.setattr(trainer_module, "route_split", fake_route_split)
        monkeypatch.setattr(trainer_module, "adamw_step", recording_step)
        result = train(train_set, val_set, TrainConfig(seed=6, epochs=2), DEFAULT_PATH_COSTS)
        assert len(snapshots) == result.total_steps == 2 * planned_optimizer_steps(
            len(train_set), TrainConfig(epochs=1)
        )
        assert all(p.dtype == np.float32 for p in snapshots)
        return result, snapshots

    def test_first_epoch_best_returns_its_params_snapshot(self, monkeypatch):
        result, snapshots = self._two_epoch_run(monkeypatch, [0.75, 0.5])
        assert result.val_paths == 0.75
        params = pack_parameters(result.params, np.float32).tobytes()
        assert params == snapshots[result.total_steps // 2 - 1].tobytes()
        assert params != snapshots[-1].tobytes()

    def test_last_epoch_best_returns_the_final_params(self, monkeypatch):
        result, snapshots = self._two_epoch_run(monkeypatch, [0.5, 0.75])
        assert result.val_paths == 0.75
        assert pack_parameters(result.params, np.float32).tobytes() == snapshots[-1].tobytes()


# sha256 of a 2-epoch `train` on `make_separable_corpus(n_train=150, n_val=40,
# seed=4)`: five cycles per epoch, the last of 22 rows, and the best
# validation in the first epoch (both epochs score 1.0 and the first is
# kept). Taken when each training cycle became one batch; it pins the
# floating-point order across cycles, which the single-cycle CLI pin above
# does not reach.
PINNED_MULTI_CYCLE_SHA256 = "efeac70953b42e601ff0cb94334c243f5a8f0ede2086765f260add1c5b2953d3"


def test_multi_cycle_training_pinned():
    train_set, val_set = make_separable_corpus(n_train=150, n_val=40, seed=4)
    result = train(train_set, val_set, TrainConfig(seed=4, epochs=2), DEFAULT_PATH_COSTS)
    assert (len(train_set), len(result.history)) == (150, 10)
    digest = hashlib.sha256()
    digest.update(repr(result.history).encode())
    digest.update(repr(result.val_metrics).encode())
    digest.update(pack_parameters(result.params, np.float32).tobytes())
    assert digest.hexdigest() == PINNED_MULTI_CYCLE_SHA256
