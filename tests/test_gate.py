import io
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableroute import fileio
from tableroute.errors import (
    CheckpointIntegrityError,
    DimensionMismatchError,
    IncompatibleCheckpointError,
    InvalidArgumentError,
)
from tableroute.gate import (
    CANONICAL_DIMS,
    DROPOUT_KEEP,
    GateParameters,
    backward_batch,
    compute_params,
    concat_input,
    forward,
    forward_batch,
    init_gate,
    load_checkpoint,
    pack_gradients,
    pack_parameters,
    save_checkpoint,
    unpack_parameters,
)
from tableroute.numerics import softmax
from tableroute.paths import INPUT_DIM, QUESTION_DIM, TEXT_DIM, VISION_DIM


def toy_params(seed=0, d_in=20, d_h=6, d_out=3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return GateParameters(
        W1=rng.normal(0, 0.5, (d_h, d_in)).astype(dtype),
        b1=rng.normal(0, 0.1, d_h).astype(dtype),
        W2=rng.normal(0, 0.5, (d_out, d_h)).astype(dtype),
        b2=rng.normal(0, 0.1, d_out).astype(dtype),
    )


class TestInit:
    def test_canonical_parameter_count(self):
        params = init_gate(seed=0)
        assert params.param_count == 2_589_699

    def test_xavier_bounds_and_zero_biases(self):
        params = init_gate(seed=1)
        assert np.abs(params.W1).max() <= 0.024057
        assert np.abs(params.W2).max() <= np.sqrt(6.0 / (256 + 3)) + 1e-6
        assert not params.b1.any()
        assert not params.b2.any()

    def test_deterministic_per_seed(self):
        a, b = init_gate(seed=42), init_gate(seed=42)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)
        c = init_gate(seed=43)
        assert not np.array_equal(a.W1, c.W1)


class TestConcat:
    def test_zero_components(self):
        x = concat_input(np.zeros((1, QUESTION_DIM)), np.zeros((1, TEXT_DIM)),
                         np.zeros((1, VISION_DIM)))
        assert x.shape == (1, INPUT_DIM)
        assert x.dtype == np.float32
        assert not x.any()

    def test_ordering_question_first(self):
        x = concat_input(np.ones((1, QUESTION_DIM)), np.zeros((1, TEXT_DIM)),
                         np.zeros((1, VISION_DIM)))
        assert x[:, :QUESTION_DIM].all()
        assert not x[:, QUESTION_DIM:].any()

    def test_wrong_dim_names_component(self):
        with pytest.raises(DimensionMismatchError, match="question_embedding"):
            concat_input(np.zeros((1, 383)), np.zeros((1, TEXT_DIM)), np.zeros((1, VISION_DIM)))
        with pytest.raises(DimensionMismatchError, match="question_embedding"):
            concat_input(np.zeros(QUESTION_DIM), np.zeros((1, TEXT_DIM)), np.zeros((1, VISION_DIM)))

    def test_non_finite_names_component(self):
        vision = np.zeros((1, VISION_DIM))
        vision[0, 7] = np.nan
        with pytest.raises(InvalidArgumentError, match="vision_embedding"):
            concat_input(np.zeros((1, QUESTION_DIM)), np.zeros((1, TEXT_DIM)), vision)

    def test_blocks_concatenate_row_by_row(self):
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal((5, d)) for d in (QUESTION_DIM, TEXT_DIM, VISION_DIM)]
        X = concat_input(*parts)
        assert X.shape == (5, INPUT_DIM) and X.dtype == np.float32
        for b in range(5):
            assert X[b].tobytes() == concat_input(*(p[b:b + 1] for p in parts)).tobytes()

    def test_block_checks_name_the_component(self):
        vision = np.zeros((4, VISION_DIM))
        vision[3, 7] = np.inf
        with pytest.raises(InvalidArgumentError, match="vision_embedding"):
            concat_input(np.zeros((4, QUESTION_DIM)), np.zeros((4, TEXT_DIM)), vision)
        with pytest.raises(DimensionMismatchError, match="text_embedding"):
            concat_input(np.zeros((4, QUESTION_DIM)), np.zeros((3, TEXT_DIM)),
                         np.zeros((4, VISION_DIM)))
        with pytest.raises(DimensionMismatchError, match="question_embedding"):
            concat_input(np.zeros((2, 4, QUESTION_DIM)), np.zeros((4, TEXT_DIM)),
                         np.zeros((4, VISION_DIM)))

    def test_parts_already_in_out_stay_in_place(self):
        out = np.arange(3 * INPUT_DIM, dtype=np.float32).reshape(3, INPUT_DIM)
        want = out.copy()
        parts = np.split(out, [QUESTION_DIM, QUESTION_DIM + TEXT_DIM], axis=1)
        assert concat_input(*parts, out=out) is out
        np.testing.assert_array_equal(out, want)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        params = GateParameters(
            np.zeros((6, 20)), np.zeros(6), np.zeros((3, 6)), np.zeros(3)
        )
        Z, _ = forward_batch(params, np.random.default_rng(0).normal(size=(1, 20)))
        np.testing.assert_array_equal(Z, np.zeros((1, 3)))

    def test_eval_deterministic_and_seed_independent(self):
        params = toy_params()
        X = np.random.default_rng(1).normal(size=(1, 20))
        Z1, _ = forward_batch(params, X, mode="eval", rng_seeds=[1])
        Z2, _ = forward_batch(params, X, mode="eval", rng_seeds=[999])
        np.testing.assert_array_equal(Z1, Z2)

    def test_train_seeded_determinism(self):
        params = toy_params()
        X = np.random.default_rng(2).normal(size=(1, 20))
        Z1, c1 = forward_batch(params, X, mode="train", rng_seeds=[7])
        Z2, c2 = forward_batch(params, X, mode="train", rng_seeds=[7])
        np.testing.assert_array_equal(Z1, Z2)
        np.testing.assert_array_equal(c1.mask_scale, c2.mask_scale)

    def test_train_masks_vary_with_seed(self):
        params = toy_params(d_h=64)
        X = np.random.default_rng(3).normal(size=(1, 20))
        _, c1 = forward_batch(params, X, mode="train", rng_seeds=[1])
        _, c2 = forward_batch(params, X, mode="train", rng_seeds=[2])
        assert not np.array_equal(c1.mask_scale, c2.mask_scale)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_train_masks_bitwise_equal_to_float64_reference(self, dtype):
        # Reference: each row's float64 mask divided by DROPOUT_KEEP, then
        # cast to the compute dtype, one PCG64 generator per row seed.
        params = toy_params(d_h=256, dtype=dtype)
        seeds = list(range(100))
        X = np.zeros((len(seeds), 20), dtype=dtype)
        _, cache = forward_batch(params, X, mode="train", rng_seeds=seeds)
        expected = np.stack([
            (np.random.Generator(np.random.PCG64(s)).random(256) < DROPOUT_KEEP)
            .astype(np.float64) / DROPOUT_KEEP
            for s in seeds
        ]).astype(dtype)
        assert cache.mask_scale.dtype == dtype
        assert cache.mask_scale.tobytes() == expected.tobytes()

    def test_batch_matches_single(self):
        params = toy_params()
        X = np.random.default_rng(4).normal(size=(5, 20))
        Z, _ = forward_batch(params, X, mode="eval")
        for i in range(5):
            z, _ = forward_batch(params, X[i:i + 1])
            np.testing.assert_allclose(Z[i], z[0], rtol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            forward_batch(toy_params(), np.zeros((1, 21)))

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_single_row_forward_is_a_one_row_batch(self, mode):
        params, x = toy_params(), np.random.default_rng(6).normal(size=20)
        z, cache = forward(params, x, mode=mode, rng_seed=3)
        Z, reference = forward_batch(params, x[None, :], mode=mode, rng_seeds=[3])
        assert z.tobytes() == Z[0].tobytes()
        assert cache.mask_scale.tobytes() == reference.mask_scale.tobytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgumentError, match="mode must be 'train' or 'eval'"):
            forward_batch(toy_params(), np.zeros((1, 20)), mode="predict")

    @pytest.mark.parametrize("seeds", [None, [1]], ids=["none", "one-for-two-rows"])
    def test_train_mode_needs_one_seed_per_row(self, seeds):
        with pytest.raises(InvalidArgumentError, match="train mode needs one rng seed per row"):
            forward_batch(toy_params(), np.zeros((2, 20)), mode="train", rng_seeds=seeds)

    def test_input_cast_to_the_params_dtype(self):
        # a float32 row, or a nested list, is computed in the params' float64
        X = np.random.default_rng(5).normal(size=(2, 20))
        Z, cache = forward_batch(toy_params(), X.astype(np.float32).tolist())
        assert cache.X.dtype == cache.dropped.dtype == np.float64
        assert Z.tobytes() == forward_batch(toy_params(), X.astype(np.float32))[0].tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_temperature_never_changes_argmax(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=3)
        for tau in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert np.argmax(softmax(z, tau)) == np.argmax(z)


def finite_difference_grads(params, x, dl_dz, mode="eval", rng_seed=0, h=1e-5):
    """Central differences of L = dl_dz . z(theta) w.r.t. every parameter."""
    flat = pack_parameters(params).copy()
    dims = params.dims
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        for sign, store in ((+1, 0), (-1, 1)):
            bumped = flat.copy()
            bumped[i] += sign * h
            p = unpack_parameters(bumped, dims)
            Z, _ = forward_batch(p, x[None, :], mode=mode, rng_seeds=[rng_seed])
            if sign > 0:
                up = float(np.dot(dl_dz, Z[0]))
            else:
                down = float(np.dot(dl_dz, Z[0]))
        grads[i] = (up - down) / (2 * h)
    return grads


class TestComputeParams:
    def test_returns_float64(self):
        params = compute_params(init_gate(seed=0))
        for a in (params.W1, params.b1, params.W2, params.b2):
            assert a.dtype == np.float64

    @pytest.mark.parametrize("batch", [1, 7])
    def test_logits_bitwise_equal_to_float32_params(self, batch):
        # The reference is numpy's own promotion of the float32 weights inside
        # the matmuls, i.e. the logits of the float32 checkpoint before the cast.
        params = init_gate(seed=3)
        cast = compute_params(params)
        rows = np.random.default_rng(0).normal(size=(21, CANONICAL_DIMS[0])).astype(np.float32)
        for start in range(0, len(rows), batch):
            X = rows[start:start + batch].astype(np.float64)
            promoted = np.maximum(X @ params.W1.T + params.b1, 0.0) @ params.W2.T + params.b2
            z, _ = forward_batch(cast, X)
            assert z.tobytes() == promoted.tobytes()

    def test_float64_params_returned_as_is(self):
        params = toy_params(dtype=np.float64)
        assert compute_params(params) is params

    def test_float32_params_not_mutated(self):
        params = init_gate(seed=2)
        before = params.copy()
        compute_params(params)
        for a, b in zip((params.W1, params.b1, params.W2, params.b2),
                        (before.W1, before.b1, before.W2, before.b2)):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, b)


def write_legacy_checkpoint(path, params, metadata=None, second_moment=0.5):
    """Write a flags-1 checkpoint, as `train` once did: the version-1 layout in
    the `gate.py` comment, byte for byte, with AdamW moments after the <f4
    parameters (m = 0, 1, 2, ...; v = `second_moment`; step 17)."""
    n = params.param_count
    meta = {str(k): str(v) for k, v in (metadata or {}).items()}
    header = struct.pack("<5I", 1, *params.dims, 1) + struct.pack("<I", len(meta))
    for key in sorted(meta):
        for text in (key.encode("utf-8"), meta[key].encode("utf-8")):
            header += struct.pack("<I", len(text)) + text
    parts = [header, *(np.ascontiguousarray(a, dtype="<f4")
                       for a in (params.W1, params.b1, params.W2, params.b2)),
             np.arange(n, dtype="<f8"), np.full(n, second_moment, dtype="<f8"),
             struct.pack("<Q", 17) + struct.pack("<4d", 0.01, 0.9, 0.999, 1e-8)]
    crc = 0
    with open(path, "wb") as fh:
        fh.write(b"TRGCKPT1")
        for part in parts:
            crc = zlib.crc32(memoryview(part).cast("B"), crc)
            fh.write(memoryview(part).cast("B"))
        fh.write(struct.pack("<I", crc))


def write_non_utf8_metadata_checkpoint(path):
    """A 16-16-3 checkpoint whose one metadata key is the byte 0xff, under a
    CRC rewritten to match it."""
    save_checkpoint(path, init_gate(seed=0, input_dim=16, hidden_dim=16), {"k": "v"})
    blob = bytearray(path.read_bytes())
    # the key follows the magic (8 bytes), five u32s, the count and its length
    assert blob[36:37] == b"k"
    blob[36] = 0xFF
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[8:-4]))
    path.write_bytes(bytes(blob))


def write_hand_built_checkpoint(path, dims, crc_flip=0):
    """A version-1 checkpoint for `dims` with zero-valued parameters and one
    metadata entry, built without `save_checkpoint` (which cannot write a
    zero dimension), under its CRC xor `crc_flip`."""
    d_in, d_h, d_out = dims
    body = struct.pack("<5I", 1, d_in, d_h, d_out, 0) + struct.pack("<I", 1)
    body += struct.pack("<I", 1) + b"k" + struct.pack("<I", 1) + b"v"
    body += bytes(4 * (d_h * d_in + d_h + d_out * d_h + d_out))
    path.write_bytes(b"TRGCKPT1" + body + struct.pack("<I", zlib.crc32(body) ^ crc_flip))


def traced_peak_bytes(fn):
    """Peak bytes traced by tracemalloc while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocation:
    """Deterministic memory guards: what a call allocates, not how long it takes."""

    def test_single_row_eval_on_compute_params_under_1mb(self):
        params = compute_params(init_gate(seed=0))
        x = np.zeros((1, CANONICAL_DIMS[0]))
        forward_batch(params, x)  # warm up
        assert traced_peak_bytes(lambda: forward_batch(params, x)) < 1_000_000

    def test_load_checkpoint_peak_within_2_25x_file_size(self, tmp_path):
        params = init_gate(seed=0)
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, params, {"note": "peak"})
        del params
        size = path.stat().st_size
        assert traced_peak_bytes(lambda: load_checkpoint(path)) <= 2.25 * size

    def test_save_checkpoint_under_1mb(self, tmp_path):
        # A 10.4 MB file: building it in memory would take at least that much.
        params = init_gate(seed=0)
        path = tmp_path / "gate.ckpt"
        assert traced_peak_bytes(lambda: save_checkpoint(path, params, {"note": "peak"})) < 1_000_000
        loaded, meta = load_checkpoint(path)
        assert pack_parameters(loaded).tobytes() == pack_parameters(params).tobytes()
        assert meta == {"note": "peak"}

    def test_load_legacy_checkpoint_within_1_3x_parameter_bytes(self, tmp_path):
        # A 51.8 MB file, 41.4 MB of it moments, which the loader never reads.
        params = init_gate(seed=0)
        path = tmp_path / "gate.ckpt"
        write_legacy_checkpoint(path, params, {"note": "peak"})
        n = params.param_count
        del params
        assert path.stat().st_size > 4.9 * 4 * n
        assert traced_peak_bytes(lambda: load_checkpoint(path)) <= 1.3 * 4 * n


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = toy_params()
        X = np.random.default_rng(5).normal(size=(1, 20))
        _, cache = forward_batch(params, X)
        grads = backward_batch(params, cache, np.zeros((1, 3)))
        assert not pack_gradients(grads).any()

    def test_relu_gradient_at_zero_is_zero(self):
        # a zero input and zero first-layer biases put every pre-activation at 0
        params = toy_params()
        params.b1[:] = 0.0
        _, cache = forward_batch(params, np.zeros((1, 20)))
        assert not cache.pre.any()
        grads = backward_batch(params, cache, np.ones((1, 3)))
        assert not grads.b1.any() and not grads.W2.any()

    def test_output_bias_gradient_is_upstream(self):
        params = toy_params()
        X = np.random.default_rng(6).normal(size=(1, 20))
        _, cache = forward_batch(params, X)
        dl_dz = np.array([0.3, -1.2, 0.9])
        grads = backward_batch(params, cache, dl_dz[None, :])
        np.testing.assert_array_equal(grads.b2, dl_dz)

    @pytest.mark.parametrize("mode,rng_seed", [("eval", 0), ("train", 11)])
    def test_matches_finite_differences(self, mode, rng_seed):
        params = toy_params(seed=8)
        x = np.random.default_rng(9).normal(size=20)
        dl_dz = np.array([0.7, -0.2, 0.5])
        _, cache = forward_batch(params, x[None, :], mode=mode, rng_seeds=[rng_seed])
        analytic = pack_gradients(backward_batch(params, cache, dl_dz[None, :]))
        numeric = finite_difference_grads(params, x, dl_dz, mode=mode, rng_seed=rng_seed)
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        mask = np.abs(numeric) > 1e-10
        assert rel[mask].max() < 1e-4

    def test_batch_backward_sums_singles(self):
        params = toy_params()
        X = np.random.default_rng(11).normal(size=(4, 20))
        dZ = np.random.default_rng(12).normal(size=(4, 3))
        Z, cache = forward_batch(params, X, mode="eval")
        batch = pack_gradients(backward_batch(params, cache, dZ))
        acc = np.zeros_like(batch)
        for i in range(4):
            _, c = forward_batch(params, X[i:i + 1])
            acc += pack_gradients(backward_batch(params, c, dZ[i:i + 1]))
        np.testing.assert_allclose(batch, acc, rtol=1e-10, atol=1e-12)


def reference_backward(params, cache, dZ):
    """The allocating expressions `backward_batch` computed before it took `out`."""
    dZ = dZ.astype(params.W2.dtype)
    dPre = (dZ @ params.W2) * cache.mask_scale * (cache.pre > 0)
    return GateParameters(dPre.T @ cache.X, dPre.sum(axis=0), dZ.T @ cache.dropped, dZ.sum(axis=0))


def trainer_batch(dtype=np.float32, seed=2):
    """Canonical dims in the trainer's layout: master views of `dtype` (the
    float32 init weights), float32 rows, train mode, B=8, and a float64 dZ."""
    params = unpack_parameters(pack_parameters(init_gate(seed=seed), dtype), CANONICAL_DIMS)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(8, CANONICAL_DIMS[0])).astype(np.float32)
    _, cache = forward_batch(params, X, mode="train", rng_seeds=list(range(8)))
    return params, cache, rng.normal(size=(8, CANONICAL_DIMS[2]))


class TestBackwardOut:
    """`backward_batch(out=)` writes the gradients into given arrays."""

    @pytest.fixture(scope="class")
    def batch(self):
        return trainer_batch()

    def test_out_bitwise_equal_to_allocating_form(self, batch):
        params, cache, dZ = batch
        assert cache.X.dtype == cache.dropped.dtype == np.float32
        flat = np.full(params.param_count, np.nan, dtype=np.float32)
        out = unpack_parameters(flat, CANONICAL_DIMS)
        assert backward_batch(params, cache, dZ, out=out) is out
        reference = pack_gradients(reference_backward(params, cache, dZ))
        assert flat.tobytes() == reference.tobytes()
        assert pack_gradients(backward_batch(params, cache, dZ)).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("rows,cols", [(2, 4), (3, 3)], ids=["paths", "rows"])
    def test_wrong_dz_shape_rejected(self, rows, cols):
        params = toy_params()
        _, cache = forward_batch(params, np.ones((2, 20)))
        with pytest.raises(DimensionMismatchError, match=r"dZ: expected \(2, 3\)"):
            backward_batch(params, cache, np.ones((rows, cols)))

    @pytest.mark.parametrize("size", [-1, 1], ids=["short", "long"])
    def test_unpack_wrong_size_rejected(self, size):
        n = toy_params().param_count
        with pytest.raises(DimensionMismatchError, match=f"expected {n} entries, got {n + size}"):
            unpack_parameters(np.zeros(n + size), (20, 6, 3))

    @pytest.mark.parametrize("bad", ["shape", "dtype"])
    def test_wrong_out_rejected(self, bad):
        params = toy_params()
        _, cache = forward_batch(params, np.ones((2, 20)))
        out = GateParameters(np.empty((6, 20)), np.empty(6), np.empty((3, 6)), np.empty(3))
        if bad == "shape":
            out.W1 = np.empty((20, 6))
        else:
            out.W2 = np.empty((3, 6), dtype=np.float32)
        with pytest.raises(DimensionMismatchError, match=r"out\.W"):
            backward_batch(params, cache, np.ones((2, 3)), out=out)


FLOAT32_EPS = float(np.finfo(np.float32).eps)


class TestFloat32AgainstFloat64:
    """The float32 training pass stays within float32 round-off of the same
    pass in float64 on the same weights and rows. The bounds are set from
    float32's epsilon: logits sum 10,112 products per entry, and gradients
    are compared as whole vectors."""

    @pytest.mark.parametrize("seed", [2, 5])
    def test_forward_and_backward_within_tolerance(self, seed):
        p32, c32, dZ = trainer_batch(np.float32, seed)
        p64, c64, _ = trainer_batch(np.float64, seed)
        assert (c32.X.astype(np.float64) == c64.X).all()
        g32 = pack_gradients(backward_batch(p32, c32, dZ))
        g64 = pack_gradients(backward_batch(p64, c64, dZ))
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.linalg.norm(g32 - g64) <= 8 * FLOAT32_EPS * np.linalg.norm(g64)
        z32 = c32.dropped @ p32.W2.T + p32.b2
        z64 = c64.dropped @ p64.W2.T + p64.b2
        assert np.abs(z32 - z64).max() <= 32 * FLOAT32_EPS * np.abs(z64).max()


class TestOneBatchPerCycle:
    """The trainer runs a 32-row cycle as one batch where it ran four 8-row
    batches. Each row keeps its dropout mask, so the gradient moves only by
    float32 summation order; the bound is float32's epsilon, normwise, as in
    `TestFloat32AgainstFloat64`."""

    @pytest.mark.parametrize("seed", [2, 5])
    def test_32_row_backward_matches_four_8_row_ones(self, seed):
        params = unpack_parameters(pack_parameters(init_gate(seed=seed), np.float32),
                                   CANONICAL_DIMS)
        rng = np.random.default_rng(seed + 1)
        X = rng.normal(size=(32, CANONICAL_DIMS[0])).astype(np.float32)
        dZ = rng.normal(size=(32, CANONICAL_DIMS[2]))
        seeds = list(range(100, 132))
        _, cache = forward_batch(params, X, mode="train", rng_seeds=seeds)
        one = pack_gradients(backward_batch(params, cache, dZ))
        four = np.zeros_like(one)
        for lo in range(0, 32, 8):
            _, part = forward_batch(params, X[lo:lo + 8], mode="train", rng_seeds=seeds[lo:lo + 8])
            assert part.mask_scale.tobytes() == cache.mask_scale[lo:lo + 8].tobytes()
            four += pack_gradients(backward_batch(params, part, dZ[lo:lo + 8]))
        assert one.dtype == four.dtype == np.float32
        assert np.linalg.norm(one - four) <= 8 * FLOAT32_EPS * np.linalg.norm(four)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_gate(seed=5)
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, params, {"note": "round trip"})
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.W1, params.W1)
        np.testing.assert_array_equal(loaded.b1, params.b1)
        np.testing.assert_array_equal(loaded.W2, params.W2)
        np.testing.assert_array_equal(loaded.b2, params.b2)
        assert meta == {"note": "round trip"}

    def test_legacy_file_loads_as_its_weights_only_twin(self, tmp_path):
        params = init_gate(seed=5, input_dim=16, hidden_dim=16)
        save_checkpoint(tmp_path / "plain.ckpt", params, {"note": "twin"})
        write_legacy_checkpoint(tmp_path / "legacy.ckpt", params, {"note": "twin"})
        plain = (tmp_path / "plain.ckpt").read_bytes()
        legacy = (tmp_path / "legacy.ckpt").read_bytes()
        # The same bytes up to the flags, and after them up to the moments.
        assert legacy[:24] == plain[:24] and legacy[28:len(plain) - 4] == plain[28:-4]
        assert len(legacy) - len(plain) == 16 * params.param_count + 40
        for name in ("plain", "legacy"):
            loaded, meta = load_checkpoint(tmp_path / f"{name}.ckpt", expected_dims=None)
            assert pack_parameters(loaded).tobytes() == pack_parameters(params).tobytes()
            assert meta == {"note": "twin"}

    def test_truncated_file_is_integrity_error(self, tmp_path):
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_corrupted_byte_is_integrity_error(self, tmp_path):
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0))
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_wrong_dims_is_incompatible(self, tmp_path):
        small = init_gate(seed=0, input_dim=INPUT_DIM, hidden_dim=128)
        path = tmp_path / "small.ckpt"
        save_checkpoint(path, small)
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)
        # explicit dims accept it
        loaded, _ = load_checkpoint(path, expected_dims=(INPUT_DIM, 128, 3))
        assert loaded.dims == (INPUT_DIM, 128, 3)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        class HalfWriter(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError("disk full")

        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0))
        monkeypatch.setattr(fileio, "open", lambda p, mode: HalfWriter(p, "w"), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_gate(seed=1))
        monkeypatch.undo()
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.W1, init_gate(seed=0).W1)
        assert [p.name for p in tmp_path.iterdir()] == ["gate.ckpt"]

    def test_non_utf8_metadata_is_integrity_error(self, tmp_path):
        path = tmp_path / "gate.ckpt"
        write_non_utf8_metadata_checkpoint(path)
        with pytest.raises(CheckpointIntegrityError, match="metadata is not UTF-8") as err:
            load_checkpoint(path, expected_dims=None)
        assert str(path) in str(err.value)

    def test_other_version_is_incompatible(self, tmp_path):
        # version 2 in the header, under a CRC recomputed to match it
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0, input_dim=16, hidden_dim=16))
        blob = bytearray(path.read_bytes())
        assert blob[8:12] == struct.pack("<I", 1)
        blob[8:12] = struct.pack("<I", 2)
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[8:-4]))
        path.write_bytes(bytes(blob))
        with pytest.raises(IncompatibleCheckpointError, match="unsupported checkpoint version 2"):
            load_checkpoint(path, expected_dims=None)

    @pytest.mark.parametrize("dims", [(0, 0, 0), (16, 0, 3), (0, 16, 3), (16, 16, 0)])
    @pytest.mark.parametrize("expected", [CANONICAL_DIMS, None], ids=["canonical", "any"])
    def test_zero_dimension_is_incompatible(self, tmp_path, dims, expected):
        path = tmp_path / "gate.ckpt"
        write_hand_built_checkpoint(path, dims)
        with pytest.raises(IncompatibleCheckpointError,
                           match=re.escape(f"checkpoint dims {dims} include a zero")):
            load_checkpoint(path, expected_dims=expected)

    def test_zero_dimension_under_a_bad_checksum_is_integrity_error(self, tmp_path):
        # the checksum is checked before any dimension is trusted
        path = tmp_path / "gate.ckpt"
        write_hand_built_checkpoint(path, (0, 0, 0), crc_flip=1)
        with pytest.raises(CheckpointIntegrityError, match="checksum mismatch"):
            load_checkpoint(path, expected_dims=None)

    def test_file_cut_after_its_size_was_read_is_truncated(self, tmp_path, monkeypatch):
        # the file loses its last 100 bytes after `load_checkpoint` took its size
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0, input_dim=16, hidden_dim=16))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-100])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*fstat(fd)[:6], size, *fstat(fd)[7:10])))
        with pytest.raises(CheckpointIntegrityError, match="checkpoint truncated"):
            load_checkpoint(path, expected_dims=None)

    def test_magic_and_four_bytes_is_truncated(self, tmp_path):
        path = tmp_path / "gate.ckpt"
        path.write_bytes(b"TRGCKPT1" + bytes(4))
        with pytest.raises(CheckpointIntegrityError, match="checkpoint truncated"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_canonical_dims_constant(self):
        assert CANONICAL_DIMS == (10112, 256, 3)


def small_checkpoint(path):
    """A flags-1 checkpoint for a 16-16-3 gate; returns the parameter count."""
    params = init_gate(seed=0, input_dim=16, hidden_dim=16)
    write_legacy_checkpoint(path, params, {"note": "mapped"}, second_moment=0.25)
    return params.param_count


class TestCheckpointMapping:
    """`load_checkpoint` reads the file with plain reads under a running CRC."""

    @pytest.mark.parametrize("blob", [b"", b"TRG"], ids=["empty", "3-bytes"])
    def test_short_file_is_integrity_error(self, tmp_path, blob):
        path = tmp_path / "gate.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointIntegrityError, match="not a gate checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["first-m", "mid-m", "mid-v", "last-v"])
    def test_flip_in_moments_is_integrity_error(self, tmp_path, where):
        path = tmp_path / "gate.ckpt"
        n = small_checkpoint(path)
        load_checkpoint(path, expected_dims=None)
        blob = bytearray(path.read_bytes())
        # the body ends: m (8n bytes), v (8n), u64 step, 4 doubles; then the u32 CRC
        m_start = len(blob) - 4 - 40 - 16 * n
        offset = {"first-m": m_start, "mid-m": m_start + 4 * n,
                  "mid-v": m_start + 12 * n, "last-v": m_start + 16 * n - 1}[where]
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError, match="checksum"):
            load_checkpoint(path, expected_dims=None)

    # The header after the magic: version at 8, d_in at 12 to 15, the
    # metadata count at 28 to 31.
    @pytest.mark.parametrize("offset,flip", [(12, 0x01), (15, 0x80), (28, 0x01), (28, 0x02),
                                             (31, 0x80)],
                             ids=["d_in-low", "d_in-high", "count-down", "count-up",
                                  "count-high"])
    def test_header_flip_fails_before_allocating(self, tmp_path, offset, flip):
        # Nothing is sized from a header whose size check fails: refusing the
        # 10.4 MB file allocates under 1 MB.
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0), {"note": "header"})
        blob = bytearray(path.read_bytes())
        blob[offset] ^= flip
        path.write_bytes(bytes(blob))
        del blob

        def refused():
            with pytest.raises(CheckpointIntegrityError):
                load_checkpoint(path)

        assert traced_peak_bytes(refused) < 1_000_000

    @pytest.mark.parametrize("change,phrase", [(1, "trailing bytes"), (-1, "truncated")],
                             ids=["one-byte-longer", "one-byte-shorter"])
    def test_size_other_than_the_header_says_is_refused(self, tmp_path, change, phrase):
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0, input_dim=16, hidden_dim=16))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0" if change > 0 else blob[:-1])
        with pytest.raises(CheckpointIntegrityError, match=phrase):
            load_checkpoint(path, expected_dims=None)

    @pytest.mark.parametrize("offset", [8, (1 << 22) - 1, 1 << 22, -5])
    def test_flip_across_crc_chunks_is_integrity_error(self, tmp_path, offset):
        path = tmp_path / "gate.ckpt"
        save_checkpoint(path, init_gate(seed=0, input_dim=INPUT_DIM, hidden_dim=128))
        blob = bytearray(path.read_bytes())
        assert len(blob) > 1 << 22  # a flip on each side of the 4 MiB mark
        load_checkpoint(path, expected_dims=None)
        blob[offset] ^= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError, match="checksum"):
            load_checkpoint(path, expected_dims=None)
