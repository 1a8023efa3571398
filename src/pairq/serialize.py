"""Binary model format.

Layout, all integers little-endian int32, all arrays little-endian float32
in row-major order:

    magic   6 bytes, b"PAIRQ1"
    mode    0 = rotated product quantizer alone,
            1 = scalar-product transform on top, 2 = squared-distance
    n       raw input dimension (before lifting and padding)
    M       number of blocks
    K       codebook size
    widths  M int32 block widths, all equal to s
    flags   bit 0 rotation present, bit 1 transform present,
            bit 2 error-mean table present
    [rotation]   d*d floats, d = M*s
    centroids    M*K*s floats: the (M, K, s) codebook, block-major
    [transform]  m int32, then m*m floats (matrix), m*m floats (pinv)
    [mse]        M*K floats

Blocks always have equal width; a header with unequal widths is rejected
as corrupt, and so is any NaN or infinite float or a rotation that is not
orthogonal to float32 precision. Arrays are float32 on disk, so reloaded
models reproduce estimates at float32 precision.
"""

from __future__ import annotations

import os
import secrets

import numpy as np

from .estimator import MseTable
from .quantizer import OPQModel, PQCodebook
from .transform import SCALAR, SQDIST, PairQModel, PairTransform

MAGIC = b"PAIRQ1"

MODE_OPQ = 0
MODE_SCALAR = 1
MODE_SQDIST = 2

FLAG_ROTATION = 1
FLAG_TRANSFORM = 2
FLAG_MSE = 4
KNOWN_FLAGS = FLAG_ROTATION | FLAG_TRANSFORM | FLAG_MSE

# Largest |RᵀR − I| entry a stored rotation may show. Rounding an orthogonal
# R to float32 moves each entry of RᵀR by at most about 2·2⁻²⁴ ≈ 1.2e-7 at
# any dimension (Cauchy-Schwarz over unit columns); saved models up to
# dimension 256 show at most 6.2e-8.
ROTATION_ATOL = 1e-6


def _ints(values) -> bytes:
    return np.asarray(values, dtype="<i4").tobytes()


def _floats(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ValueError("model file is truncated")
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def ints(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<i4")

    def floats(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        flat = np.frombuffer(self.take(4 * count), dtype="<f4")
        if not np.isfinite(flat).all():
            raise ValueError("model file holds non-finite values (NaN or inf)")
        return flat.astype(np.float64).reshape(shape)


def save_model(path, model, mse_table: MseTable | None = None) -> None:
    """Write an OPQModel or PairQModel, optionally with its error-mean
    table, to ``path``.

    The bytes go to a new file in the same directory, which then replaces
    ``path`` in one step, so a failed write leaves any existing file as it
    was.
    """
    if isinstance(model, PairQModel):
        mode = MODE_SCALAR if model.mode == SCALAR else MODE_SQDIST
        n = model.transform.source_dim
        opq = model.opq
        transform = model.transform
    elif isinstance(model, OPQModel):
        mode = MODE_OPQ
        n = model.input_dim
        opq = model
        transform = None
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    book = opq.codebook
    flags = FLAG_ROTATION
    if transform is not None:
        flags |= FLAG_TRANSFORM
    if mse_table is not None:
        flags |= FLAG_MSE

    parts = [MAGIC]
    parts.append(_ints([mode, n, book.num_blocks, book.codebook_size]))
    parts.append(_ints([book.centroids.shape[2]] * book.num_blocks))
    parts.append(_ints([flags]))
    parts.append(_floats(opq.rotation))
    parts.append(_floats(book.centroids))
    if transform is not None:
        parts.append(_ints([transform.dim]))
        parts.append(_floats(transform.matrix))
        parts.append(_floats(transform.pinv))
    if mse_table is not None:
        if mse_table.values.shape != (book.num_blocks, book.codebook_size):
            raise ValueError(
                f"error-mean table shape {mse_table.values.shape} does not "
                f"match codebook ({book.num_blocks}, {book.codebook_size})"
            )
        parts.append(_floats(mse_table.values))
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_model(path):
    """Read a model file back.

    Returns:
        (model, mse_table) where model is an OPQModel or PairQModel and
        mse_table is an MseTable or None. Training diagnostics (objective
        trace, convergence flag) are not stored, so they come back empty.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(MAGIC)) != MAGIC:
        raise ValueError("bad magic: not a PAIRQ1 model file")
    mode, n, num_blocks, codebook_size = (int(v) for v in reader.ints(4))
    if mode not in (MODE_OPQ, MODE_SCALAR, MODE_SQDIST):
        raise ValueError(f"unknown mode {mode}")
    if num_blocks < 1 or codebook_size < 1:
        raise ValueError("corrupt header: non-positive block count or codebook size")
    widths = reader.ints(num_blocks)
    if widths.min() < 1:
        raise ValueError("corrupt header: non-positive block width")
    if (widths != widths[0]).any():
        raise ValueError("corrupt header: unequal block widths")
    sub = int(widths[0])
    flags = int(reader.ints(1)[0])
    if flags & ~KNOWN_FLAGS:
        raise ValueError(f"unknown flag bits in {flags:#x}")
    if not flags & FLAG_ROTATION:
        raise ValueError("model file lacks a rotation section")
    d = num_blocks * sub
    rotation = reader.floats((d, d))
    deviation = np.abs(rotation.T @ rotation - np.eye(d)).max()
    if deviation > ROTATION_ATOL:
        raise ValueError(
            f"rotation is not orthogonal: largest |RᵀR − I| entry "
            f"{deviation:.3g} exceeds {ROTATION_ATOL:g}"
        )
    book = PQCodebook(
        centroids=reader.floats((num_blocks, codebook_size, sub)), converged=None
    )

    transform = None
    if flags & FLAG_TRANSFORM:
        m = int(reader.ints(1)[0])
        matrix = reader.floats((m, m))
        pinv = reader.floats((m, m))
        transform_mode = SCALAR if mode == MODE_SCALAR else SQDIST
        transform = PairTransform(
            mode=transform_mode,
            source_dim=n,
            matrix=matrix,
            pinv=pinv,
            # The second moment is not stored; the root determines it.
            second_moment=matrix.T @ matrix,
        )
    elif mode != MODE_OPQ:
        raise ValueError("transform mode set but transform section missing")

    mse = None
    if flags & FLAG_MSE:
        mse = MseTable(values=reader.floats((num_blocks, codebook_size)))
    if reader.pos != len(reader.data):
        raise ValueError("trailing bytes after model payload")

    input_dim = transform.dim if transform is not None else n
    opq = OPQModel(
        rotation=rotation,
        codebook=book,
        input_dim=input_dim,
        trace=[],
    )
    if transform is not None:
        return PairQModel(transform=transform, opq=opq), mse
    return opq, mse
