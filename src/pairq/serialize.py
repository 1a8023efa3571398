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
    flags   bit 0 rotation present (always set), bit 1 transform present
            (set exactly in modes 1 and 2), bit 2 error-mean table present
    rotation     d*d floats, d = M*s = n + (1 in mode 2) padded to M blocks
    centroids    M*K*s floats: the (M, K, s) codebook, block-major
    [transform]  m int32 (n in mode 1, n + 1 in mode 2), then m*m floats
                 (matrix), m*m floats (pinv)
    [mse]        M*K floats

A file that breaks a rule above is rejected as corrupt (M and K go through
``quantizer.check_training``), and so is any NaN or infinite float, a
rotation that is not orthogonal to float32 precision, or a transform whose
stored pseudoinverse does not invert its matrix. ``save_model`` parses the
bytes it is about to write with the same code as ``load_model``, so it
refuses any model that ``load_model`` would reject, and then writes
nothing. Arrays are float32 on disk, so reloaded models reproduce estimates
at float32 precision.
"""

from __future__ import annotations

import os

import numpy as np

from .estimator import MseTable, check_mse_table
from .quantizer import OPQModel, PQCodebook, check_training, padded_dim
from .transform import SCALAR, SQDIST, PairQModel, PairTransform

MAGIC = b"PAIRQ1"

MODE_OPQ = 0
MODE_SCALAR = 1
MODE_SQDIST = 2

FLAG_ROTATION = 1
FLAG_TRANSFORM = 2
FLAG_MSE = 4

# Largest |RᵀR − I| entry a stored rotation may show. Rounding an orthogonal
# R to float32 moves each entry of RᵀR by at most about 2·2⁻²⁴ ≈ 1.2e-7 at
# any dimension (Cauchy-Schwarz over unit columns); saved models up to
# dimension 256 show at most 6.2e-8.
ROTATION_ATOL = 1e-6

# Largest Moore-Penrose residual a stored transform may show, relative to
# the matrix it is measured against: ‖A·P·A − A‖ to ‖A‖ and ‖P·A·P − P‖ to
# ‖P‖ (Frobenius). Float32 rounding of P moves A·P·A by about 2⁻²⁴·κ(A)
# relative, and the learned roots have κ ≤ 10⁵ on the directions they keep
# (linalg.psd_factors drops the moment's eigenvalues below 10⁻¹⁰ of the
# largest from A and P alike). Saved transforms of synthetic and Gaussian
# query samples, full rank and rank deficient, show at most 1.8e-6; roots
# whose spectra reach down to that clamp, at dimensions up to 256, 7.9e-4.
PINV_RTOL = 1e-2


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


def _check_pinv(matrix: np.ndarray, pinv: np.ndarray) -> None:
    for name, residual, scale in (
        ("A·P·A − A", matrix @ pinv @ matrix - matrix, matrix),
        ("P·A·P − P", pinv @ matrix @ pinv - pinv, pinv),
    ):
        size, bound = np.linalg.norm(residual), PINV_RTOL * np.linalg.norm(scale)
        if size > bound:
            raise ValueError(
                f"transform pinv is inconsistent with its matrix: ‖{name}‖ "
                f"{size:.3g} exceeds {bound:.3g}"
            )


def save_model(path, model, mse_table: MseTable | None = None) -> None:
    """Write an OPQModel or PairQModel, optionally with its error-mean
    table, to ``path``.

    The bytes go to a new file in the same directory, which then replaces
    ``path`` in one step, so a failed write leaves any existing file as it
    was; a symlink is written through to its target and stays a link. A
    ``path`` that exists but is no regular file nor a link to one (a FIFO,
    a directory, a loop of links) raises ValueError, and so does a model
    that ``load_model`` would reject once written (say K > 256, a NaN
    centroid or a non-orthogonal rotation), with its message; nothing is
    written then.
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
        check_mse_table(mse_table, book)
        parts.append(_floats(mse_table.values))
    data = b"".join(parts)
    try:
        _parse(data)
    except ValueError as exc:
        raise ValueError(f"model would not load: {exc}") from None
    target = os.path.realpath(path)
    if os.path.lexists(target) and not os.path.isfile(target):
        raise ValueError(f"output {os.fspath(path)} is not a regular file")
    # os.urandom, not secrets: importing secrets loads hashlib and OpenSSL.
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def load_model(path):
    """Read a model file back.

    Returns:
        (model, mse_table) where model is an OPQModel or PairQModel and
        mse_table is an MseTable or None. What training alone yields (the
        objective trace, the convergence flag and the training rows' codes)
        is not stored: the trace comes back empty, the flag and the codes
        None.
    """
    with open(path, "rb") as fh:
        return _parse(fh.read())


def _parse(data: bytes):
    """The model and error-mean table held in ``data``, the bytes of a
    model file; ValueError if they break a rule of the format."""
    reader = _Reader(data)
    if reader.take(len(MAGIC)) != MAGIC:
        raise ValueError("bad magic: not a PAIRQ1 model file")
    mode, n, num_blocks, codebook_size = (int(v) for v in reader.ints(4))
    if mode not in (MODE_OPQ, MODE_SCALAR, MODE_SQDIST):
        raise ValueError(f"unknown mode {mode}")
    try:
        check_training(num_blocks, codebook_size)
    except ValueError as exc:
        raise ValueError(f"corrupt header: {exc}") from None
    widths = reader.ints(num_blocks)
    if widths.min() < 1:
        raise ValueError("corrupt header: non-positive block width")
    if (widths != widths[0]).any():
        raise ValueError("corrupt header: unequal block widths")
    sub = int(widths[0])
    # The quantizer sees the raw vectors, lifted by one column in sqdist
    # mode, zero-padded to a multiple of the block count.
    input_dim = n + 1 if mode == MODE_SQDIST else n
    d = num_blocks * sub
    if d != padded_dim(input_dim, num_blocks):
        raise ValueError(
            f"corrupt header: quantizer dimension {d} is not input dimension "
            f"{input_dim} padded to {num_blocks} blocks"
        )
    flags = int(reader.ints(1)[0])
    expected = FLAG_ROTATION | (FLAG_TRANSFORM if mode != MODE_OPQ else 0)
    if flags & ~FLAG_MSE != expected:
        raise ValueError(f"corrupt header: flags {flags:#x} do not fit mode {mode}")
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
    if mode != MODE_OPQ:
        m = int(reader.ints(1)[0])
        if m != input_dim:
            raise ValueError(
                f"corrupt transform: dimension {m}, expected {input_dim} for "
                f"{n} raw dimensions in mode {mode}"
            )
        matrix = reader.floats((m, m))
        pinv = reader.floats((m, m))
        _check_pinv(matrix, pinv)
        transform = PairTransform(
            mode=SCALAR if mode == MODE_SCALAR else SQDIST,
            source_dim=n,
            matrix=matrix,
            pinv=pinv,
        )

    mse = None
    if flags & FLAG_MSE:
        mse = MseTable(values=reader.floats((num_blocks, codebook_size)))
    if reader.pos != len(reader.data):
        raise ValueError("trailing bytes after model payload")

    opq = OPQModel(
        rotation=rotation,
        codebook=book,
        input_dim=input_dim,
        trace=[],
    )
    if transform is not None:
        return PairQModel(transform=transform, opq=opq), mse
    return opq, mse
