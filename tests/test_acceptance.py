"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at their stated tolerances; the heavier ones carry explicit
runtime budgets measured with a monotonic clock.
"""
import json
import socket
import time

import numpy as np
import pytest

from tableroute.analysis import greedy_choice, heuristic_alignment, OutcomeRecord
from tableroute.cli import main as cli_main
from tableroute.engine import (
    EngineConfig,
    fusion_cost_inputs,
    infer,
    path_cost,
    MODE_NON_ADAPTIVE,
)
from tableroute.fusion import build_fusion_prompt
from tableroute.gate import (
    backward_batch,
    forward_batch,
    init_gate,
    pack_gradients,
    unpack_parameters,
)
from tableroute.paths import DEFAULT_PATH_COSTS, KNOWN_DATASETS
from tableroute.synthetic import make_separable_corpus
from tableroute.trainer import TrainConfig, build_target, loss_batch, train

from test_engine import forced_gate, make_example, make_stack
from test_fusion import GOLDEN_DIR, sample_request


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


@pytest.fixture(scope="module")
def separable_corpus():
    return make_separable_corpus(n_train=2000, n_val=500, seed=0)


def test_criterion_1_parameter_count():
    start = time.monotonic()
    params = init_gate(seed=0)
    assert params.param_count == 2_589_699
    assert params.W1.shape == (256, 10112)
    assert params.W2.shape == (3, 256)
    assert time.monotonic() - start < 1.0
    report(1, "parameter-count identity")


def test_criterion_2_cost_formula():
    start = time.monotonic()
    text_latency, text_tps = 1.445, 44.19
    image_latency, image_tps = 1.559, 18.78
    fusion_latency, fusion_tps = fusion_cost_inputs(
        text_latency, text_tps, image_latency, image_tps, api_overhead_s=0.3
    )
    assert fusion_latency == pytest.approx(image_latency + 0.3, abs=1e-12)
    assert fusion_tps == pytest.approx(image_tps, abs=1e-12)
    assert path_cost(text_latency, text_tps) == pytest.approx(0.73, abs=0.005)
    assert path_cost(image_latency, image_tps) == pytest.approx(0.81, abs=0.005)
    assert path_cost(fusion_latency, fusion_tps) == pytest.approx(0.96, abs=0.005)
    assert time.monotonic() - start < 1.0
    report(2, "cost-formula reproduction")


COSTS = DEFAULT_PATH_COSTS.as_array()


def _total(Z, S, cfg) -> float:
    """Total loss of the one row of logits Z [1, 3] against scores S [1, 3]."""
    return float(loss_batch(Z, S, COSTS, cfg)[0][0])


def _loss_grad_check(rng) -> float:
    z = rng.normal(scale=2.0, size=3)
    S = rng.integers(0, 2, size=(1, 3)).astype(float)
    cfg = TrainConfig(
        target_temperature=float(rng.uniform(0.1, 2.0)),
        gate_temperature=float(rng.uniform(0.5, 2.0)),
        resource_weight=float(rng.uniform(0.0, 1.0)),
    )
    analytic = loss_batch(z[None, :], S, COSTS, cfg)[3][0]
    h = 1e-6
    worst = 0.0
    for j in range(3):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd = (_total(zp[None, :], S, cfg) - _total(zm[None, :], S, cfg)) / (2 * h)
        worst = max(worst, abs(analytic[j] - fd) / max(abs(fd), 1e-8))
    return worst


def _gate_grad_check(rng) -> float:
    d_in = int(rng.integers(8, 24))
    d_h = int(rng.integers(4, 10))
    flat = rng.normal(scale=0.5, size=d_h * d_in + d_h + 3 * d_h + 3)
    params = unpack_parameters(flat, (d_in, d_h, 3))
    X = rng.normal(size=(1, d_in))
    S = rng.integers(0, 2, size=(1, 3)).astype(float)
    cfg = TrainConfig(resource_weight=float(rng.uniform(0.0, 1.0)))

    def composite(theta):
        Z, _ = forward_batch(unpack_parameters(theta, (d_in, d_h, 3)), X, mode="eval")
        return _total(Z, S, cfg)

    Z, cache = forward_batch(params, X, mode="eval")
    dZ = loss_batch(Z, S, COSTS, cfg)[3]
    analytic = pack_gradients(backward_batch(params, cache, dZ))

    h = 1e-5
    worst = 0.0
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        fd = (composite(up) - composite(down)) / (2 * h)
        if abs(fd) > 1e-10:
            worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1e-8))
    return worst


def test_criterion_3_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    loss_worst = max(_loss_grad_check(rng) for _ in range(120))
    assert loss_worst < 1e-5
    gate_worst = max(_gate_grad_check(rng) for _ in range(8))
    assert gate_worst < 1e-4
    assert time.monotonic() - start < 30.0
    report(3, "gradient fidelity")


def test_criterion_4_target_distribution():
    sharp = build_target([1, 0, 0], 0.3)
    np.testing.assert_allclose(sharp, [0.93340, 0.03330, 0.03330], atol=1e-5)
    np.testing.assert_allclose(build_target([1, 1, 1], 0.3), [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(build_target([0, 0, 0], 0.3), [1 / 3] * 3, atol=1e-12)
    report(4, "target-distribution correctness")


def test_criterion_5_policy_learnability(separable_corpus):
    train_set, val_set = separable_corpus
    assert len(train_set) >= 2000 and len(val_set) >= 500
    start = time.monotonic()
    cfg = TrainConfig(seed=0, resource_weight=0.0)  # stock hyperparameters, no cost pressure
    result = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS)
    elapsed = time.monotonic() - start
    assert result.val_metrics is not None
    assert result.val_metrics.routing_accuracy >= 0.95
    assert elapsed < 300.0
    report(5, f"policy learnability (val acc {result.val_metrics.routing_accuracy:.3f})")


def test_criterion_6_resource_pressure(separable_corpus):
    train_set, val_set = separable_corpus
    start = time.monotonic()
    metrics = {}
    for weight in (0.0, 0.05, 0.1, 0.15, 1.0):
        cfg = TrainConfig(seed=0, resource_weight=weight)
        result = train(train_set, val_set, cfg, DEFAULT_PATH_COSTS)
        metrics[weight] = result.val_metrics
    elapsed = time.monotonic() - start
    assert metrics[1.0].expected_cost < metrics[0.0].expected_cost
    fusion_share = {w: m.path_distribution[2] for w, m in metrics.items()}
    assert fusion_share[1.0] <= fusion_share[0.0]
    assert elapsed < 900.0
    report(
        6,
        "resource pressure (cost "
        f"{metrics[0.0].expected_cost:.4f} -> {metrics[1.0].expected_cost:.4f}, "
        f"fusion share {fusion_share[0.0]:.3f} -> {fusion_share[1.0]:.3f})",
    )


def test_criterion_7_latency_accounting():
    ex = make_example()
    backends, agent = make_stack(
        [ex], text_latency=(1.0, 0.0), image_latency=(1.5, 0.0),
        embed_latencies=(0.05, 0.10, 0.20), agent_latency=(0.3, 0.0),
    )
    cfg = EngineConfig(gate_latency_s=0.001)
    unimodal = infer(ex, forced_gate(0), backends, agent, DEFAULT_PATH_COSTS, cfg)
    assert unimodal.parallel_latency == pytest.approx(1.201, abs=1e-12)
    fusion = infer(ex, forced_gate(2), backends, agent, DEFAULT_PATH_COSTS, cfg)
    assert fusion.parallel_latency == pytest.approx(2.001, abs=1e-12)
    non_adaptive = infer(ex, None, backends, agent, DEFAULT_PATH_COSTS, cfg,
                         mode=MODE_NON_ADAPTIVE)
    assert non_adaptive.t_phase2 == 0.0
    report(7, "latency accounting")


def test_criterion_8_heuristic_alignment():
    fixture = [
        OutcomeRecord("a", True, False, None, "text", None),
        OutcomeRecord("b", False, True, None, "fusion", None),
        OutcomeRecord("c", False, False, None, "fusion", None),
        OutcomeRecord("d", True, False, None, "image", None),
    ]
    assert heuristic_alignment(fixture) == 50.0
    rng = np.random.default_rng(99)
    records = []
    for i in range(1000):
        t, v = bool(rng.integers(2)), bool(rng.integers(2))
        records.append(OutcomeRecord(f"r{i}", t, v, None, greedy_choice(t, v), None))
    assert heuristic_alignment(records) == 100.0
    report(8, "heuristic alignment fidelity")


def test_criterion_9_prompt_snapshots():
    for tag in KNOWN_DATASETS:
        prompt = build_fusion_prompt(sample_request(tag))
        golden = (GOLDEN_DIR / f"fusion_prompt_{tag}.txt").read_text(encoding="utf-8")
        assert prompt == golden, f"prompt drift for dataset {tag}"
    report(9, "fusion prompt snapshots")


def test_criterion_10_offline_end_to_end(tmp_path, monkeypatch):
    start = time.monotonic()

    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    monkeypatch.setattr(socket.socket, "connect", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TABLEROUTE_CONFIG", raising=False)

    raw = tmp_path / "raw.jsonl"
    corpus = tmp_path / "corpus"
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"

    assert cli_main(["make-synthetic", "--out", str(raw), "--n", "280",
                     "--all-tags", "--seed", "7"]) == 0
    assert cli_main(["ingest", "--raw", str(raw), "--out", str(corpus), "--seed", "7"]) == 0

    bench_cfg = tmp_path / "cfg.json"
    bench_cfg.write_text(json.dumps({"bench": {"n_per_dataset": 10, "seeds": [0, 1]}}))

    assert cli_main(["train", "--config", str(bench_cfg), "--corpus", str(corpus),
                     "--run-dir", str(run1), "--seed", "7"]) == 0
    ckpt = run1 / "gate.ckpt"
    assert cli_main(["bench", "--config", str(bench_cfg), "--corpus", str(corpus),
                     "--checkpoint", str(ckpt), "--run-dir", str(run1), "--seed", "7"]) == 0
    assert cli_main(["analyze", "--config", str(bench_cfg), "--corpus", str(corpus),
                     "--checkpoint", str(ckpt), "--run-dir", str(run1), "--seed", "7"]) == 0

    snapshot = run1 / "config.snapshot.json"
    assert snapshot.exists()
    assert cli_main(["train", "--config", str(snapshot), "--run-dir", str(run2)]) == 0
    assert cli_main(["bench", "--config", str(snapshot), "--checkpoint", str(run2 / "gate.ckpt"),
                     "--run-dir", str(run2)]) == 0
    assert cli_main(["analyze", "--config", str(snapshot), "--checkpoint", str(run2 / "gate.ckpt"),
                     "--run-dir", str(run2)]) == 0

    for name in ("history.csv", "bench.csv", "analysis.csv"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), f"{name} drifted"
    assert (run1 / "gate.ckpt").read_bytes() == (run2 / "gate.ckpt").read_bytes()

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(10, f"offline end-to-end ({elapsed:.1f}s)")
