"""The routing gate: a two-layer MLP mapping the 10,112-dim multimodal
embedding to three path logits.

Architecture: input -> Linear(256) -> ReLU -> Dropout(p=0.1) -> Linear(3).
Uses inverted dropout (surviving units scaled by 1/keep at train time), so
eval-mode forward is the identity on the dropout stage.

Dtype contract: weights live as float32 at rest (checkpoints, `init_gate`,
`TrainResult.params`). `forward_batch` and `backward_batch` compute in the
dtype of the params they are given:
- Training is float32, the one training dtype, after Micikevicius et al.,
  *Mixed Precision Training* (arXiv:1710.03740): master weights, AdamW
  moments, gradients and the batch forward/backward (sgemm). Only the loss
  on the [B, 3] logits is float64.
- Inference and validation are float64, on `compute_params(params)`. It
  stores W1 and W2 as transposed views of C-contiguous `[in, out]` float64
  buffers, the layout numpy builds when it promotes a float32 `W.T` in
  `X @ W.T`, so logits are bitwise those of that product; `astype` keeps
  `[out, in]`, takes another BLAS path and differs in the last bits.
"""
from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    CheckpointIntegrityError,
    DimensionMismatchError,
    IncompatibleCheckpointError,
    InvalidArgumentError,
)
from .experts import seeded_generators
from .fileio import atomic_open
from .paths import INPUT_DIM, N_PATHS, QUESTION_DIM, TEXT_DIM, VISION_DIM

HIDDEN_DIM = 256
OUTPUT_DIM = N_PATHS
CANONICAL_DIMS = (INPUT_DIM, HIDDEN_DIM, OUTPUT_DIM)

DROPOUT_P = 0.1
DROPOUT_KEEP = 1.0 - DROPOUT_P

_CKPT_MAGIC = b"TRGCKPT1"
_CKPT_VERSION = 1


@dataclass
class GateParameters:
    """Weights and biases of the gate. W1: [hidden, input], W2: [out, hidden]."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.W1.shape[1], self.W1.shape[0], self.W2.shape[0])

    @property
    def param_count(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def copy(self) -> "GateParameters":
        return GateParameters(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())


@dataclass
class BatchCache:
    X: np.ndarray
    pre: np.ndarray
    dropped: np.ndarray
    mask_scale: np.ndarray


def init_gate(
    seed: int,
    input_dim: int = INPUT_DIM,
    hidden_dim: int = HIDDEN_DIM,
    output_dim: int = OUTPUT_DIM,
) -> GateParameters:
    """Xavier-uniform weights, zero biases, float32, deterministic per seed.

    Draw order is fixed (W1 then W2) so a seed pins the full parameter set.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lim1 = np.sqrt(6.0 / (input_dim + hidden_dim))
    lim2 = np.sqrt(6.0 / (hidden_dim + output_dim))
    W1 = rng.uniform(-lim1, lim1, size=(hidden_dim, input_dim)).astype(np.float32)
    W2 = rng.uniform(-lim2, lim2, size=(output_dim, hidden_dim)).astype(np.float32)
    b1 = np.zeros(hidden_dim, dtype=np.float32)
    b2 = np.zeros(output_dim, dtype=np.float32)
    return GateParameters(W1, b1, W2, b2)


def concat_input(question, text, vision, out: np.ndarray | None = None) -> np.ndarray:
    """Validate three backend embedding blocks [B, dim] and concatenate
    question || text || vision into the float32 gate input [B, 10,112]. With
    `out`, the input is written there; a part that already is its own column
    block of `out` (same data, shape and strides) is validated but not
    copied again.

    Rows are float32 at rest; `forward_batch` computes in the params' dtype.
    """
    parts = (
        ("question_embedding", question, QUESTION_DIM),
        ("text_embedding", text, TEXT_DIM),
        ("vision_embedding", vision, VISION_DIM),
    )
    arrays = []
    for name, arr, dim in parts:
        a = np.asarray(arr, dtype=np.float32)
        if a.ndim != 2 or a.shape[1] != dim:
            raise DimensionMismatchError(f"{name}: expected [B, {dim}], got shape {a.shape}")
        if arrays and len(a) != len(arrays[0]):
            raise DimensionMismatchError(
                f"{name}: {len(a)} rows, but question_embedding has {len(arrays[0])}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidArgumentError(f"{name}: non-finite entries")
        arrays.append(a)
    return np.concatenate(arrays, axis=1, out=out)


def compute_params(params: GateParameters) -> GateParameters:
    """The float64 compute form of `params`; float64 params come back as is.

    W1 and W2 become `.T` views of C-contiguous `[in, out]` float64 buffers
    (see the module docstring for why this layout and not `astype`). The
    argument is never mutated.
    """
    if all(a.dtype == np.float64 for a in (params.W1, params.b1, params.W2, params.b2)):
        return params
    return GateParameters(
        W1=np.ascontiguousarray(params.W1.T, dtype=np.float64).T,
        b1=np.asarray(params.b1, dtype=np.float64),
        W2=np.ascontiguousarray(params.W2.T, dtype=np.float64).T,
        b2=np.asarray(params.b2, dtype=np.float64),
    )


def forward_batch(
    params: GateParameters,
    X: np.ndarray,
    mode: str = "eval",
    rng_seeds=None,
) -> tuple[np.ndarray, BatchCache]:
    """Batched forward pass. X: [B, input]. Returns (logits [B, out], cache).

    Computes in the dtype of `params` (X is cast to it): pass
    `compute_params(params)` for float64 inference.
    """
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")
    X = np.asarray(X, dtype=params.W1.dtype)
    if X.ndim != 2 or X.shape[1] != params.dims[0]:
        raise DimensionMismatchError(
            f"input: expected [B, {params.dims[0]}], got {X.shape}"
        )
    hidden_dim = params.dims[1]
    pre = X @ params.W1.T + params.b1
    relu = np.maximum(pre, 0.0)
    if mode == "train":
        if rng_seeds is None or len(rng_seeds) != X.shape[0]:
            raise InvalidArgumentError("train mode needs one rng seed per row")
        # One generator per row seed, so a row's mask does not depend on the
        # rows batched with it; 1 / DROPOUT_KEEP is rounded once to X's dtype.
        keep = [rng.random(hidden_dim) < DROPOUT_KEEP for rng in seeded_generators(rng_seeds)]
        mask_scale = np.stack(keep) * X.dtype.type(1.0 / DROPOUT_KEEP)
    else:
        mask_scale = np.ones((X.shape[0], hidden_dim), dtype=X.dtype)
    dropped = relu * mask_scale
    Z = dropped @ params.W2.T + params.b2
    return Z, BatchCache(X=X, pre=pre, dropped=dropped, mask_scale=mask_scale)


def backward_batch(
    params: GateParameters, cache: BatchCache, dZ: np.ndarray, out: GateParameters | None = None
) -> GateParameters:
    """Gradients of sum_b dZ[b] . z[b] w.r.t. parameters (summed over the
    batch), as a GateParameters of gradient arrays.

    Computes in the dtype of `params` (and of `cache`); `dZ` is cast to it.
    With `out`, the gradients are written into its arrays of that dtype (for
    instance `unpack_parameters` views of one flat buffer) and `out` is
    returned; otherwise into new arrays. Both give the same bits.
    """
    dtype = params.W1.dtype
    dZ = np.asarray(dZ, dtype=dtype)
    if dZ.shape != (cache.X.shape[0], params.dims[2]):
        raise DimensionMismatchError(f"dZ: expected {(cache.X.shape[0], params.dims[2])}, got {dZ.shape}")
    names = ("W1", "b1", "W2", "b2")
    if out is None:
        out = GateParameters(*(np.empty(getattr(params, n).shape, dtype=dtype) for n in names))
    for name in names:
        arr, shape = getattr(out, name), getattr(params, name).shape
        if arr.shape != shape or arr.dtype != dtype:
            raise DimensionMismatchError(
                f"out.{name}: expected {dtype} {shape}, got {arr.dtype} {arr.shape}"
            )
    np.matmul(dZ.T, cache.dropped, out=out.W2)
    np.sum(dZ, axis=0, out=out.b2)
    dDropped = dZ @ params.W2
    dPre = dDropped * cache.mask_scale * (cache.pre > 0)
    np.matmul(dPre.T, cache.X, out=out.W1)
    np.sum(dPre, axis=0, out=out.b1)
    return out


# Kept only for perfbench/tracer.py, which hooks `gate.forward` by name.
def forward(
    params: GateParameters,
    x: np.ndarray,
    mode: str = "eval",
    rng_seed: int = 0,
) -> tuple[np.ndarray, BatchCache]:
    """One row through `forward_batch`: (logits [out], its B=1 cache)."""
    seeds = [rng_seed] if mode == "train" else None
    Z, cache = forward_batch(params, np.ravel(x)[None, :], mode=mode, rng_seeds=seeds)
    return Z[0], cache


def pack_parameters(params: GateParameters, dtype=np.float64) -> np.ndarray:
    """Flatten to a single vector of `dtype` (W1, b1, W2, b2 order)."""
    return np.concatenate([
        np.asarray(a, dtype=dtype).ravel() for a in (params.W1, params.b1, params.W2, params.b2)
    ])


def unpack_parameters(flat: np.ndarray, dims: tuple[int, int, int]) -> GateParameters:
    """Views into `flat` shaped as gate parameters; mutating flat mutates them."""
    d_in, d_h, d_out = dims
    sizes = [d_h * d_in, d_h, d_out * d_h, d_out]
    if flat.size != sum(sizes):
        raise DimensionMismatchError(f"flat vector: expected {sum(sizes)} entries, got {flat.size}")
    o = 0
    out = []
    for size, shape in zip(sizes, [(d_h, d_in), (d_h,), (d_out, d_h), (d_out,)]):
        out.append(flat[o:o + size].reshape(shape))
        o += size
    return GateParameters(*out)


# The tests' flat reference for gradients; perfbench/tracer.py hooks it by name.
def pack_gradients(grads: GateParameters) -> np.ndarray:
    """`pack_parameters` in the gradients' own dtype."""
    return pack_parameters(grads, grads.W1.dtype)


# --------------------------------------------------------------------------
# Checkpoint format (version 1, little-endian):
#   magic "TRGCKPT1"
#   u32 version | u32 input_dim | u32 hidden_dim | u32 output_dim | u32 flags (written as 0)
#   metadata: u32 count, then per entry u32 len + utf8 key, u32 len + utf8 val
#   parameters as <f4 blobs: W1, b1, W2, b2
#   flags & 1 (older files; dropped on load): <f8 m, <f8 v, u64 step, <f8 wd/beta1/beta2/eps
#   u32 crc32 over everything after the magic, checked before version and dims are trusted
# --------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    params: GateParameters,
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write `params` (as <f4) and `metadata` atomically.

    The header and each array's buffer are written in turn under a running
    CRC32, so no copy of the file is built in memory; float32 parameters are
    written straight from their own buffers.
    """
    d_in, d_h, d_out = params.dims
    header = bytearray(struct.pack("<5I", _CKPT_VERSION, d_in, d_h, d_out, 0))
    meta = {str(k): str(v) for k, v in (metadata or {}).items()}
    header += struct.pack("<I", len(meta))
    for k in sorted(meta):
        kb, vb = k.encode("utf-8"), meta[k].encode("utf-8")
        header += struct.pack("<I", len(kb)) + kb
        header += struct.pack("<I", len(vb)) + vb

    def parts():
        yield header
        for arr in (params.W1, params.b1, params.W2, params.b2):
            yield np.ascontiguousarray(arr, dtype="<f4")

    crc = 0
    with atomic_open(path) as fh:
        fh.write(_CKPT_MAGIC)
        for part in parts():
            view = memoryview(part).cast("B")
            crc = zlib.crc32(view, crc)
            fh.write(view)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(
    path: str | Path,
    expected_dims: tuple[int, int, int] | None = CANONICAL_DIMS,
) -> tuple[GateParameters, dict[str, str]]:
    """Load a checkpoint's parameters and metadata; verifies integrity
    first, then dimension compatibility.

    Pass `expected_dims=None` to accept any recorded dimensions; a zero one
    is refused either way, once the checksum matched. The file's size is
    checked against its header before anything is sized from it; then each
    array is read into its own buffer under a running CRC32. The AdamW
    moments of older flag-1 files pass through a 1 MiB scratch buffer into
    the checksum and are dropped.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(_CKPT_MAGIC) + 4 or fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise CheckpointIntegrityError(f"not a gate checkpoint: {path}")
        crc = 0

        def fill(buf) -> memoryview:
            nonlocal crc
            view = memoryview(buf).cast("B")
            if fh.readinto(view) != len(view):
                raise CheckpointIntegrityError("checkpoint truncated")
            crc = zlib.crc32(view, crc)
            return view

        def take(n: int) -> bytes:
            if n > size - 4 - fh.tell():
                raise CheckpointIntegrityError("checkpoint truncated")
            return bytes(fill(bytearray(n)))

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        version, d_in, d_h, d_out, flags = struct.unpack("<5I", take(20))
        raw_meta = [(take(u32()), take(u32())) for _ in range(u32())]
        n = d_h * d_in + d_h + d_out * d_h + d_out
        moments = 16 * n + 40 if flags & 1 else 0
        expected = fh.tell() + 4 * n + moments + 4
        if size != expected:
            raise CheckpointIntegrityError(
                "checkpoint truncated" if size < expected else "trailing bytes in checkpoint body")
        shapes = ((d_h, d_in), (d_h,), (d_out, d_h), (d_out,))
        arrays = [np.empty(shape, dtype="<f4") for shape in shapes]
        for arr in arrays:
            fill(arr.reshape(-1))  # a 2-D view with a zero in its shape cannot be cast
        scratch = memoryview(bytearray(min(moments, 1 << 20)))
        while moments:
            moments -= len(fill(scratch[:min(moments, len(scratch))]))
        stored = fh.read(4)
    if struct.pack("<I", crc) != stored:
        raise CheckpointIntegrityError(f"checksum mismatch in {path}")
    try:
        meta = {str(k, "utf-8"): str(v, "utf-8") for k, v in raw_meta}
    except UnicodeDecodeError as e:
        raise CheckpointIntegrityError(
            f"checkpoint metadata is not UTF-8 in {path}: {e}") from None
    if version != _CKPT_VERSION:
        raise IncompatibleCheckpointError(f"unsupported checkpoint version {version}")
    if 0 in (d_in, d_h, d_out):
        raise IncompatibleCheckpointError(f"checkpoint dims {(d_in, d_h, d_out)} include a zero")
    if expected_dims is not None and (d_in, d_h, d_out) != tuple(expected_dims):
        raise IncompatibleCheckpointError(
            f"checkpoint dims {(d_in, d_h, d_out)} differ from expected {tuple(expected_dims)}"
        )
    return GateParameters(*arrays), meta
