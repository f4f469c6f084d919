"""The routing gate: a two-layer MLP mapping the 10,112-dim multimodal
embedding to three path logits.

Architecture: input -> Linear(256) -> ReLU -> Dropout(p=0.1) -> Linear(3).
Uses inverted dropout (surviving units scaled by 1/keep at train time), so
eval-mode forward is the identity on the dropout stage.

Dtype contract: weights live as float32 at rest (checkpoints, `init_gate`,
`TrainResult.params`); forward/backward math runs in float64. The one cast
between the two is `compute_params`. It stores W1 and W2 as transposed views
of C-contiguous `[in, out]` float64 buffers, the operand layout numpy builds
itself when it promotes a float32 `W.T` inside `X @ W.T`, so logits from the
cast weights are bitwise equal to logits from the float32 weights. A plain
`astype(np.float64)` keeps the `[out, in]` layout, which takes a different
BLAS path and differs in the last bits. `forward_batch` casts on entry (a
no-op for float64 params); callers that route many times, such as the CLI
commands, cast once after loading so no call repeats the 2.59M-weight
promotion.
"""
from __future__ import annotations

import mmap
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
from .fileio import atomic_open
from .numerics import OptimizerState
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

    def astype(self, dtype) -> "GateParameters":
        return GateParameters(
            self.W1.astype(dtype), self.b1.astype(dtype),
            self.W2.astype(dtype), self.b2.astype(dtype),
        )

    def copy(self) -> "GateParameters":
        return GateParameters(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())


@dataclass
class GateGradients:
    dW1: np.ndarray
    db1: np.ndarray
    dW2: np.ndarray
    db2: np.ndarray


@dataclass
class ForwardCache:
    """Everything backward needs from one forward call."""

    x: np.ndarray            # [input] float64
    pre_activation: np.ndarray  # [hidden] pre-ReLU
    dropped: np.ndarray      # [hidden] post-ReLU, post-dropout-scale
    mask_scale: np.ndarray   # [hidden] 0 or 1/keep in train mode, ones in eval
    mode: str
    input_crc: int


@dataclass
class BatchCache:
    X: np.ndarray
    pre: np.ndarray
    dropped: np.ndarray
    mask_scale: np.ndarray
    mode: str


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


def concat_input(question, text, vision) -> np.ndarray:
    """Validate three backend embeddings and concatenate question || text ||
    vision into the float32 10,112-dim gate input row.

    Rows are float32 at rest; `forward_batch` computes in float64.
    """
    parts = (
        ("question_embedding", question, QUESTION_DIM),
        ("text_embedding", text, TEXT_DIM),
        ("vision_embedding", vision, VISION_DIM),
    )
    arrays = []
    for name, arr, dim in parts:
        a = np.asarray(arr, dtype=np.float32).ravel()
        if a.shape != (dim,):
            raise DimensionMismatchError(f"{name}: expected {dim} dims, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise InvalidArgumentError(f"{name}: non-finite entries")
        arrays.append(a)
    return np.concatenate(arrays)


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


def _dropout_mask_scale(seed: int, hidden_dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = rng.random(hidden_dim) < DROPOUT_KEEP
    return mask.astype(np.float64) / DROPOUT_KEEP


def forward_batch(
    params: GateParameters,
    X: np.ndarray,
    mode: str = "eval",
    rng_seeds=None,
) -> tuple[np.ndarray, BatchCache]:
    """Batched forward pass. X: [B, input]. Returns (logits [B, out], cache).

    Computes in float64 through `compute_params`; pass params that are already
    in compute form when calling repeatedly.
    """
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")
    params = compute_params(params)
    X = np.asarray(X, dtype=np.float64)
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
        mask_scale = np.stack([_dropout_mask_scale(int(s), hidden_dim) for s in rng_seeds])
    else:
        mask_scale = np.ones((X.shape[0], hidden_dim), dtype=np.float64)
    dropped = relu * mask_scale
    Z = dropped @ params.W2.T + params.b2
    return Z, BatchCache(X=X, pre=pre, dropped=dropped, mask_scale=mask_scale, mode=mode)


def backward_batch(params: GateParameters, cache: BatchCache, dZ: np.ndarray) -> GateGradients:
    """Gradients of sum_b dZ[b] . z[b] w.r.t. parameters (summed over the batch)."""
    dZ = np.asarray(dZ, dtype=np.float64)
    if dZ.shape != (cache.X.shape[0], params.dims[2]):
        raise DimensionMismatchError(f"dZ: expected {(cache.X.shape[0], params.dims[2])}, got {dZ.shape}")
    dW2 = dZ.T @ cache.dropped
    db2 = dZ.sum(axis=0)
    dDropped = dZ @ np.asarray(params.W2, dtype=np.float64)
    dPre = dDropped * cache.mask_scale * (cache.pre > 0)
    dW1 = dPre.T @ cache.X
    db1 = dPre.sum(axis=0)
    return GateGradients(dW1, db1, dW2, db2)


def forward(
    params: GateParameters,
    x: np.ndarray,
    mode: str = "eval",
    rng_seed: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Single-instance forward. Eval mode ignores `rng_seed` entirely."""
    x = np.asarray(x, dtype=np.float64).ravel()
    seeds = [rng_seed] if mode == "train" else None
    Z, bc = forward_batch(params, x[None, :], mode=mode, rng_seeds=seeds)
    cache = ForwardCache(
        x=bc.X[0],
        pre_activation=bc.pre[0],
        dropped=bc.dropped[0],
        mask_scale=bc.mask_scale[0],
        mode=mode,
        input_crc=zlib.crc32(bc.X[0].tobytes()),
    )
    return Z[0], cache


def backward(params: GateParameters, cache: ForwardCache, dL_dz: np.ndarray) -> GateGradients:
    """Analytic parameter gradients chain-ruled with dL_dz for one instance."""
    if zlib.crc32(cache.x.tobytes()) != cache.input_crc:
        raise InvalidArgumentError("backward: cache input was mutated since forward")
    bc = BatchCache(
        X=cache.x[None, :],
        pre=cache.pre_activation[None, :],
        dropped=cache.dropped[None, :],
        mask_scale=cache.mask_scale[None, :],
        mode=cache.mode,
    )
    return backward_batch(params, bc, np.asarray(dL_dz, dtype=np.float64)[None, :])


def pack_parameters(params: GateParameters) -> np.ndarray:
    """Flatten to a single float64 vector (W1, b1, W2, b2 order)."""
    return np.concatenate([
        np.asarray(params.W1, dtype=np.float64).ravel(),
        np.asarray(params.b1, dtype=np.float64).ravel(),
        np.asarray(params.W2, dtype=np.float64).ravel(),
        np.asarray(params.b2, dtype=np.float64).ravel(),
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


def pack_gradients(grads: GateGradients) -> np.ndarray:
    return np.concatenate([
        grads.dW1.ravel(), grads.db1.ravel(), grads.dW2.ravel(), grads.db2.ravel(),
    ])


# --------------------------------------------------------------------------
# Checkpoint format (version 1, little-endian):
#   magic "TRGCKPT1"
#   u32 version | u32 input_dim | u32 hidden_dim | u32 output_dim | u32 flags
#   metadata: u32 count, then per entry u32 len + utf8 key, u32 len + utf8 val
#   parameters as <f4 blobs: W1, b1, W2, b2
#   if flags & 1: optimizer state: <f8 m, <f8 v, u64 step, <f8 wd/beta1/beta2/eps
#   u32 crc32 over everything after the magic
# --------------------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    params: GateParameters,
    optimizer_state: OptimizerState | None = None,
    metadata: Mapping[str, str] | None = None,
) -> None:
    d_in, d_h, d_out = params.dims
    flags = 1 if optimizer_state is not None else 0
    body = bytearray()
    body += struct.pack("<5I", _CKPT_VERSION, d_in, d_h, d_out, flags)

    meta = {str(k): str(v) for k, v in (metadata or {}).items()}
    body += struct.pack("<I", len(meta))
    for k in sorted(meta):
        kb, vb = k.encode("utf-8"), meta[k].encode("utf-8")
        body += struct.pack("<I", len(kb)) + kb
        body += struct.pack("<I", len(vb)) + vb

    for arr in (params.W1, params.b1, params.W2, params.b2):
        body += np.ascontiguousarray(arr, dtype="<f4").tobytes()

    if optimizer_state is not None:
        n = d_h * d_in + d_h + d_out * d_h + d_out
        if optimizer_state.first_moment.size != n:
            raise InvalidArgumentError(
                f"optimizer state covers {optimizer_state.first_moment.size} params, gate has {n}"
            )
        body += np.ascontiguousarray(optimizer_state.first_moment, dtype="<f8").tobytes()
        body += np.ascontiguousarray(optimizer_state.second_moment, dtype="<f8").tobytes()
        body += struct.pack("<Q", optimizer_state.step_count)
        body += struct.pack(
            "<4d",
            optimizer_state.weight_decay,
            optimizer_state.beta1,
            optimizer_state.beta2,
            optimizer_state.epsilon,
        )

    with atomic_open(path) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


class _Cursor:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointIntegrityError("checkpoint truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


_CRC_CHUNK = 1 << 22  # bytes; a multiple of every page size


def _crc32_releasing(mapped: mmap.mmap, start: int, end: int) -> int:
    """CRC32 of `mapped[start:end]`, read one chunk at a time.

    Each chunk's pages are dropped from this process once read (they stay in
    the page cache and fault back in when used), so checking a file holds at
    most one chunk of it resident, not the whole file.
    """
    view = memoryview(mapped)
    crc = 0
    for pos in range(0, end, _CRC_CHUNK):
        crc = zlib.crc32(view[max(pos, start):min(pos + _CRC_CHUNK, end)], crc)
        mapped.madvise(mmap.MADV_DONTNEED, pos, min(_CRC_CHUNK, len(mapped) - pos))
    return crc


def load_checkpoint(
    path: str | Path,
    expected_dims: tuple[int, int, int] | None = CANONICAL_DIMS,
) -> tuple[GateParameters, OptimizerState | None, dict[str, str]]:
    """Load a checkpoint; verifies integrity first, then dimension compatibility.

    Pass `expected_dims=None` to accept any recorded dimensions. The file is
    memory-mapped read-only, so no copy of it is made. Parameters are copied
    out of the mapping; the optimizer moments are read-only views of it, so
    commands that only route never copy the moments, and `adamw_step`
    refuses to update them in place. Checkpoints are only ever replaced by
    rename, never rewritten in place, so the mapping keeps the file that was
    opened.
    """
    with open(path, "rb") as fh:
        # mmap rejects an empty file; a file this short is no checkpoint anyway
        if os.fstat(fh.fileno()).st_size < len(_CKPT_MAGIC) + 4:
            raise CheckpointIntegrityError(f"not a gate checkpoint: {path}")
        raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointIntegrityError(f"not a gate checkpoint: {path}")
    if _crc32_releasing(raw, len(_CKPT_MAGIC), len(raw) - 4) != struct.unpack("<I", raw[-4:])[0]:
        raise CheckpointIntegrityError(f"checksum mismatch in {path}")
    body = memoryview(raw)[len(_CKPT_MAGIC):-4]

    cur = _Cursor(body)
    version, d_in, d_h, d_out, flags = struct.unpack("<5I", cur.take(20))
    if version != _CKPT_VERSION:
        raise IncompatibleCheckpointError(f"unsupported checkpoint version {version}")
    if expected_dims is not None and (d_in, d_h, d_out) != tuple(expected_dims):
        raise IncompatibleCheckpointError(
            f"checkpoint dims {(d_in, d_h, d_out)} differ from expected {tuple(expected_dims)}"
        )

    meta = {}
    for _ in range(cur.u32()):
        k = str(cur.take(cur.u32()), "utf-8")
        v = str(cur.take(cur.u32()), "utf-8")
        meta[k] = v

    def read_f4(shape):
        n = int(np.prod(shape))
        return np.frombuffer(cur.take(4 * n), dtype="<f4").reshape(shape).copy()

    params = GateParameters(
        W1=read_f4((d_h, d_in)),
        b1=read_f4((d_h,)),
        W2=read_f4((d_out, d_h)),
        b2=read_f4((d_out,)),
    )

    opt = None
    if flags & 1:
        n = d_h * d_in + d_h + d_out * d_h + d_out
        m = np.frombuffer(cur.take(8 * n), dtype="<f8")
        v = np.frombuffer(cur.take(8 * n), dtype="<f8")
        step = struct.unpack("<Q", cur.take(8))[0]
        wd, beta1, beta2, eps = struct.unpack("<4d", cur.take(32))
        opt = OptimizerState(m, v, step, wd, beta1, beta2, eps)

    if cur.pos != len(body):
        raise CheckpointIntegrityError("trailing bytes in checkpoint body")
    return params, opt, meta
