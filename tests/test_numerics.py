import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute.errors import InvalidArgumentError
from tableroute.gate import CANONICAL_DIMS
from tableroute.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ADAMW_BLOCK,
    OptimizerState,
    ScheduleConfig,
    adamw_step,
    clip_grad_norm,
    lr_at,
    softmax,
)
from tableroute.paths import DEFAULT_PATH_COSTS
from tableroute.trainer import TrainConfig, loss_batch


def reference_softmax(logits, temperature):
    # independent oracle: direct exp evaluation, no max subtraction
    exps = [math.exp(z / temperature) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax([0.0, 0.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_sharp_target_matches_direct_evaluation(self):
        out = softmax([1.0, 0.0, 0.0], 0.3)
        expected = reference_softmax([1.0, 0.0, 0.0], 0.3)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # frozen values from the oracle
        np.testing.assert_allclose(out, [0.93340, 0.03330, 0.03330], atol=1e-5)

    def test_shift_invariance_example(self):
        np.testing.assert_allclose(
            softmax([5.0, 4.0, 3.0], 1.0), softmax([2.0, 1.0, 0.0], 1.0), atol=1e-15
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            softmax([np.nan, 0.0, 0.0], 1.0)
        with pytest.raises(InvalidArgumentError):
            softmax([np.inf, 0.0, 0.0], 1.0)
        with pytest.raises(InvalidArgumentError):
            softmax([0.0, 0.0, 0.0], 0.0)
        with pytest.raises(InvalidArgumentError):
            softmax([0.0, 0.0, 0.0], -1.0)

    @given(
        logits=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        temperature=st.floats(0.05, 10.0),
        shift=st.floats(-30, 30),
    )
    @settings(max_examples=200)
    def test_sums_to_one_and_shift_invariant(self, logits, temperature, shift):
        out = softmax(logits, temperature)
        assert abs(out.sum() - 1.0) <= 1e-9
        shifted = softmax([z + shift for z in logits], temperature)
        np.testing.assert_allclose(out, shifted, atol=1e-9)

    def test_batched_rows(self):
        out = softmax(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.3)
        np.testing.assert_allclose(out[0], [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(out[1], reference_softmax([1, 0, 0], 0.3), atol=1e-12)


def task_kl(scores, logits, target_temperature=1.0, gate_temperature=1.0):
    """The task term of `loss_batch` for one row: KL(softmax(scores / tau) ||
    softmax(logits / tau_g)), the only KL the package computes."""
    cfg = TrainConfig(target_temperature=target_temperature, gate_temperature=gate_temperature)
    S = np.asarray(scores, dtype=np.float64)[None, :]
    Z = np.asarray(logits, dtype=np.float64)[None, :]
    total, task, resource, dZ = loss_batch(Z, S, DEFAULT_PATH_COSTS.as_array(), cfg)
    assert np.isfinite(dZ).all()
    return float(task[0])


class TestKlDiv:
    def test_identity_is_zero(self):
        z = [0.3, -1.2, 0.8]
        assert task_kl(z, z, 0.7, 0.7) == 0.0

    def test_one_hot_vs_uniform_closed_form(self):
        # the target softmax underflows to exactly one-hot; sum p ln(p/q) is ln 3
        val = task_kl([1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], target_temperature=0.3)
        assert abs(val - math.log(3)) <= 1e-6

    def test_zero_target_entry_contributes_nothing(self):
        # with target (1, 0, 0) only -ln q_0 remains, however q splits the rest
        a = task_kl([1000.0, 0.0, 0.0], [0.0, 5.0, -5.0], target_temperature=0.3)
        b = task_kl([1000.0, 0.0, 0.0], [0.0, -5.0, 5.0], target_temperature=0.3)
        assert a == b
        assert a == pytest.approx(-math.log(softmax([0.0, 5.0, -5.0])[0]), rel=1e-12)

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s, z = rng.normal(size=3), rng.normal(size=3)
            tau, tau_g = rng.uniform(0.1, 2.0, size=2)
            assert task_kl(s, z, tau, tau_g) >= 0.0

    def test_survives_near_one_hot_prediction(self):
        # target (0.5, 0.5, 0) against a prediction saturated to (1, 0, 0):
        # flooring at KL_FLOOR keeps the log finite
        val = task_kl([0.0, 0.0, -1000.0], [1000.0, 0.0, 0.0], target_temperature=0.3)
        assert np.isfinite(val) and val > 0

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            task_kl([np.nan, 0.5, 0.5], [0.0, 0.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            task_kl([0.0, 0.0, 0.0], [np.nan, 0.5, 0.5])


class TestAdamW:
    def test_zero_grads_no_decay_is_fixed_point(self):
        state = OptimizerState.for_size(4)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        out = adamw_step(params, np.zeros(4), state, lr=1e-3)
        np.testing.assert_array_equal(out, params)
        assert state.step_count == 1

    def test_first_step_moves_by_lr(self):
        # bias correction makes m_hat = g and sqrt(v_hat) = |g| on step one
        state = OptimizerState.for_size(1)
        out = adamw_step(np.array([1.0]), np.array([0.5]), state, lr=1e-4)
        assert abs((1.0 - out[0]) - 1e-4) < 1e-9

    def test_decoupled_decay_only(self):
        state = OptimizerState.for_size(1, weight_decay=0.01)
        out = adamw_step(np.array([1.0]), np.array([0.0]), state, lr=1e-4)
        assert abs(out[0] - (1.0 - 1e-6)) < 1e-15

    def test_length_mismatch_rejected(self):
        state = OptimizerState.for_size(2)
        with pytest.raises(InvalidArgumentError):
            adamw_step(np.zeros(2), np.zeros(3), state, lr=1e-3)

    def test_matches_naive_reference_over_steps(self):
        # independent oracle: scalar loop following the update equations
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(20, 5))
        params = rng.normal(size=5)
        state = OptimizerState.for_size(5, weight_decay=0.01)
        p_ref = params.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            p_ref = p_ref - 1e-3 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.01 * p_ref)
        p = params.copy()
        for g in grads:
            p = adamw_step(p, g, state, lr=1e-3)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12)


def reference_adamw(p, g, m, v, t, lr, weight_decay):
    """The out-of-place AdamW expression; returns new (params, m, v).

    The in-place, blocked `adamw_step` must reproduce it bit for bit.
    """
    m = m * ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v = v * ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPSILON) + weight_decay * p), m, v


class TestAdamWInPlace:
    @pytest.mark.parametrize("size", [1, 3 * ADAMW_BLOCK + 5])
    def test_bitwise_equal_to_out_of_place_reference(self, size):
        rng = np.random.default_rng(size)
        params = rng.normal(size=size)
        state = OptimizerState.for_size(size, weight_decay=0.01)
        p_ref, m_ref, v_ref = params.copy(), np.zeros(size), np.zeros(size)
        for t in range(1, 6):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=size)
            lr = float(rng.uniform(1e-5, 1e-3))
            p_ref, m_ref, v_ref = reference_adamw(p_ref, g, m_ref, v_ref, t, lr, 0.01)
            out = adamw_step(params, g, state, lr)
            assert out is params
            assert params.tobytes() == p_ref.tobytes()
            assert state.first_moment.tobytes() == m_ref.tobytes()
            assert state.second_moment.tobytes() == v_ref.tobytes()
        assert state.step_count == 5

    @pytest.mark.parametrize(
        "params",
        [
            np.zeros(8)[::2],  # not contiguous
            np.zeros(4, dtype=np.float32),
            np.zeros(4).reshape(2, 2).T,  # Fortran order
        ],
        ids=["strided", "float32", "fortran"],
    )
    def test_rejects_params_it_cannot_update_in_place(self, params):
        state = OptimizerState.for_size(4)
        with pytest.raises(InvalidArgumentError):
            adamw_step(params, np.ones(params.shape), state, lr=1e-3)
        assert state.step_count == 0

    def test_rejects_read_only_params(self):
        params = np.zeros(4)
        params.flags.writeable = False
        with pytest.raises(InvalidArgumentError):
            adamw_step(params, np.ones(4), OptimizerState.for_size(4), lr=1e-3)

    def test_canonical_step_allocates_under_1mb(self):
        # Full-size temporaries of the 2.59M-parameter gate would be ~20 MB each.
        d_in, d_h, d_out = CANONICAL_DIMS
        n = d_h * d_in + d_h + d_out * d_h + d_out
        rng = np.random.default_rng(0)
        params, grads = rng.normal(size=n), rng.normal(size=n)
        state = OptimizerState.for_size(n, weight_decay=0.01)
        adamw_step(params, grads, state, lr=1e-4)  # warm up
        tracemalloc.start()
        try:
            adamw_step(params, grads, state, lr=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSchedule:
    CFG = ScheduleConfig(lr_max=1e-4, warmup_ratio=0.05, total_steps=1000)

    def test_starts_at_zero(self):
        assert lr_at(0, self.CFG) == 0.0

    def test_peak_at_warmup_end(self):
        assert lr_at(self.CFG.warmup_steps, self.CFG) == pytest.approx(1e-4, abs=1e-15)

    def test_anneals_to_zero(self):
        assert abs(lr_at(self.CFG.total_steps, self.CFG)) <= 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lr_at(-1, self.CFG)
        with pytest.raises(InvalidArgumentError):
            lr_at(self.CFG.total_steps + 1, self.CFG)

    def test_continuous_at_junction(self):
        # warmup side rises by exactly one ramp increment into the peak,
        # and the first cosine step falls by far less than 2*lr_max/total
        w = self.CFG.warmup_steps
        ramp = self.CFG.lr_max / w
        assert lr_at(w, self.CFG) - lr_at(w - 1, self.CFG) == pytest.approx(ramp, rel=1e-9)
        assert lr_at(w, self.CFG) - lr_at(w + 1, self.CFG) <= 2 * self.CFG.lr_max / self.CFG.total_steps

    @given(step=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_bounded_by_lr_max(self, step):
        assert 0.0 <= lr_at(step, self.CFG) <= self.CFG.lr_max


class TestClip:
    def test_below_threshold_unchanged(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        scale, norm = clip_grad_norm(g, 1.0)
        assert scale is None
        np.testing.assert_array_equal(g, [0.3, 0.4])
        assert norm == pytest.approx(0.5)

    def test_exact_scaling(self):
        scale, norm = clip_grad_norm(np.array([3.0, 4.0]), 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.array([3.0, 4.0]) * scale, [0.6, 0.8], atol=1e-15)

    def test_zero_grads(self):
        scale, norm = clip_grad_norm(np.zeros(4), 1.0)
        assert scale is None
        assert norm == 0.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_output_norm_bounded(self, values):
        g = np.array(values)
        scale, _ = clip_grad_norm(g, 1.0)
        out = g if scale is None else g * scale
        assert np.sqrt(np.sum(out * out)) <= 1.0 + 1e-9

    def test_rejects_nonpositive_max(self):
        with pytest.raises(InvalidArgumentError):
            clip_grad_norm(np.ones(2), 0.0)


_D_IN, _D_H, _D_OUT = CANONICAL_DIMS
CANONICAL_PARAM_COUNT = _D_H * _D_IN + _D_H + _D_OUT * _D_H + _D_OUT


class TestClipInPlace:
    def test_leaves_the_gradient_as_it_is(self):
        g = np.array([3.0, 4.0])
        scale, norm = clip_grad_norm(g, 1.0)
        np.testing.assert_array_equal(g, [3.0, 4.0])
        assert (scale, norm) == (1.0 / 5.0, 5.0)

    def test_norm_is_sqrt_of_sum_of_squares(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.normal(size=10_001)
            expected = float(np.sqrt(np.sum(g * g)))
            _, norm = clip_grad_norm(g, 1e9)
            assert norm == expected

    @pytest.mark.parametrize(
        "size", [1, 7, 129, 10_001, 3 * ADAMW_BLOCK + 5, CANONICAL_PARAM_COUNT]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_leaf_tree_norm_gives_the_bits_of_np_sum(self, dtype, size):
        # The norm squares and sums ADAMW_BLOCK elements at a time; the full-size
        # `g * g` and numpy's pairwise sum of it are the oracle. Entries spread
        # over six decades make the last bits depend on where the tree splits.
        rng = np.random.default_rng(size)
        for _ in range(8):
            g = (rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size=size)).astype(dtype)
            expected = float(np.sqrt(np.sum(g * g)))
            before = g.tobytes()
            scale, norm = clip_grad_norm(g, 1e-9)
            assert norm == expected
            assert scale == 1e-9 / expected
            assert g.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_canonical_norm_and_step_allocate_under_1mb(self, dtype):
        # The squares alone would be one more full-size buffer (10.4 MB in float32).
        rng = np.random.default_rng(0)
        params = rng.normal(size=CANONICAL_PARAM_COUNT).astype(dtype)
        grads = rng.normal(size=CANONICAL_PARAM_COUNT).astype(dtype)
        state = OptimizerState.for_size(CANONICAL_PARAM_COUNT, weight_decay=0.01, dtype=dtype)

        def step():
            scale, _ = clip_grad_norm(grads, 1.0)
            assert scale is not None
            adamw_step(params, grads, state, lr=1e-4, grad_scale=scale)

        step()  # warm up
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestAdamWGradScale:
    @pytest.mark.parametrize("scale", [None, 0.37], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_bitwise_equal_to_reference_on_prescaled_gradient(self, dtype, scale):
        size = 3 * ADAMW_BLOCK + 5
        rng = np.random.default_rng(5)
        params = rng.normal(size=size).astype(dtype)
        state = OptimizerState.for_size(size, weight_decay=0.01, dtype=dtype)
        p_ref, m_ref, v_ref = params.copy(), np.zeros(size, dtype), np.zeros(size, dtype)
        for t in range(1, 4):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=size).astype(dtype)
            g[rng.integers(0, size, size=64)] = -0.0
            before = g.tobytes()
            # the prescaled gradient, as `g *= scale` gives it
            g_ref = g.copy()
            if scale is not None:
                g_ref *= scale
            p_ref, m_ref, v_ref = reference_adamw(p_ref, g_ref, m_ref, v_ref, t, 1e-3, 0.01)
            adamw_step(params, g, state, 1e-3, grad_scale=scale)
            assert g.tobytes() == before
            assert params.tobytes() == p_ref.tobytes()
            assert state.first_moment.tobytes() == m_ref.tobytes()
            assert state.second_moment.tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_rejects_non_finite_scale(self, scale):
        state = OptimizerState.for_size(4)
        params = np.ones(4)
        with pytest.raises(InvalidArgumentError):
            adamw_step(params, np.ones(4), state, lr=1e-3, grad_scale=scale)
        assert state.step_count == 0
        np.testing.assert_array_equal(params, np.ones(4))
