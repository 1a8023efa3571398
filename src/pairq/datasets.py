"""Vector file IO and synthetic benchmark data.

Files use the common .fvecs/.ivecs layout: each record is a little-endian
int32 dimension followed by that many little-endian float32 (or int32)
values. All records in a file must share one dimension. Reading, writing
and synthetic draws walk the rows in chunks of about ``CHUNK_ENTRIES``
values, so none holds a second copy of the whole array.

Synthetic data draws zero-mean Gaussians with controlled anisotropy. The
covariance spectrum is lambda_i = exp(-decay * i / (dim - 1)) under a
seeded random orthogonal basis, so the covariance condition number is
exp(decay). Databases and queries get independent bases, which is what
makes the query-aware transforms differ from plain rotation learning.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import CHUNK_ENTRIES, as_matrix, chunks, psd_factors


def _read_records(path, dtype: np.dtype, order: str) -> np.ndarray:
    """The records' values as one (N, dim) array in ``order``, read into it
    one chunk of about ``CHUNK_ENTRIES`` values at a time through one reused
    buffer: the read holds the result and one chunk, not the file twice."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            return np.empty((0, 0), dtype=dtype)
        if size % 4 != 0:
            raise ValueError(f"{path}: size {size} is not a multiple of 4")
        dim = int(np.frombuffer(fh.read(4), dtype="<i4")[0])
        if dim < 1:
            raise ValueError(f"{path}: first record has dimension {dim}")
        if size % (4 * (dim + 1)) != 0:
            raise ValueError(f"{path}: truncated record at end of file")
        n = size // (4 * (dim + 1))
        # Filled chunk by chunk, not a view of ``np.fromfile``'s records
        # that skips each record's dimension, so codes come out in the
        # column order ``adc_scan`` reads block by block.
        out = np.empty((n, dim), dtype=dtype, order=order)
        rows = max(1, CHUNK_ENTRIES // (dim + 1))
        table = np.empty((min(n, rows), dim + 1), dtype="<i4")
        fh.seek(0)
        for start in range(0, n, rows):
            chunk = table[: min(rows, n - start)]
            if fh.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{path}: truncated record at end of file")
            bad = np.flatnonzero(chunk[:, 0] != dim)
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"{path}: record {start + i} has dimension {chunk[i, 0]}, "
                    f"expected {dim}"
                )
            out[start : start + len(chunk)] = chunk[:, 1:].view(dtype)
    return out


def read_fvecs(path) -> np.ndarray:
    """Read a float32 vector file as an (N, dim) float32 array.

    Non-finite values are kept but reported through a warning.
    """
    out = _read_records(path, np.dtype("<f4"), "C")
    if out.size and not np.isfinite(out).all():
        warnings.warn(f"{path}: file contains non-finite values", RuntimeWarning)
    return out


def read_ivecs(path) -> np.ndarray:
    """Read an int32 vector file as an (N, dim) int32 array in column
    (Fortran) order: an ivecs file holds codes, and the table scan reads
    each block's codes as one contiguous column."""
    return _read_records(path, np.dtype("<i4"), "F")


def _write_records(path, data: np.ndarray, dtype: np.dtype) -> None:
    """Write the rows of a 2-d array as records of ``dtype`` values, cast
    one chunk of about ``CHUNK_ENTRIES`` values at a time into one reused
    record buffer."""
    if data.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {data.shape}")
    n, dim = data.shape
    if n > 0 and dim < 1:
        raise ValueError("records must have at least one component")
    rows = max(1, CHUNK_ENTRIES // (dim + 1))
    body = np.empty((min(n, rows), dim + 1), dtype="<i4")
    body[:, 0] = dim
    values = body[:, 1:].view(dtype)
    with open(path, "wb") as fh:
        for start in range(0, n, rows):
            m = min(rows, n - start)
            values[:m] = data[start : start + m]
            fh.write(body[:m])


def write_fvecs(path, data) -> None:
    """Write an (N, dim) array as float32 records (values are cast)."""
    _write_records(path, np.asarray(data), np.dtype("<f4"))


def write_ivecs(path, data) -> None:
    """Write an (N, dim) integer array as int32 records."""
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integers, got dtype {arr.dtype}")
    info = np.iinfo(np.int32)
    if arr.size and (arr.min() < info.min or arr.max() > info.max):
        raise ValueError("values do not fit in int32")
    _write_records(path, arr, np.dtype("<i4"))


@dataclass
class SyntheticSpec:
    """Shape of a synthetic benchmark draw.

    ``database_decay`` and ``query_decay`` set the log condition number of
    the respective covariances.
    """

    dim: int
    num_database: int
    num_train_queries: int
    num_eval_queries: int
    database_decay: float = 0.0
    query_decay: float = 0.0


@dataclass(eq=False)
class SyntheticData:
    database: np.ndarray
    train_queries: np.ndarray
    eval_queries: np.ndarray


def _orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    # Fix signs so the factorization is unique and the draw canonical.
    return q * np.sign(np.diag(r))


def _factor(dim, decay, rng) -> np.ndarray:
    """A matrix F with F F^T equal to the decay spectrum's covariance."""
    if dim == 1:
        lams = np.array([1.0])
    else:
        lams = np.exp(-decay * np.arange(dim) / (dim - 1))
    basis = _orthogonal(dim, rng)
    return basis * np.sqrt(lams)


def gen_synthetic(spec: SyntheticSpec, seed: int = 0) -> SyntheticData:
    """Draw database and query samples from the Gaussians a SyntheticSpec describes.

    Identical spec and seed give bit-identical arrays. Bases are drawn
    first (database then query), then the three sample blocks in order.
    """
    if spec.dim < 1:
        raise ValueError(f"dim must be >= 1, got {spec.dim}")
    for name in ("num_database", "num_train_queries", "num_eval_queries"):
        if getattr(spec, name) < 0:
            raise ValueError(f"{name} must be >= 0")
    rng = np.random.default_rng(seed)
    db_factor = _factor(spec.dim, spec.database_decay, rng)
    q_factor = _factor(spec.dim, spec.query_decay, rng)
    return SyntheticData(
        database=_draw(rng, spec.num_database, db_factor),
        train_queries=_draw(rng, spec.num_train_queries, q_factor),
        eval_queries=_draw(rng, spec.num_eval_queries, q_factor),
    )


def _draw(rng, n: int, factor: np.ndarray) -> np.ndarray:
    """``rng.standard_normal((n, dim)) @ factor.T``, drawn and multiplied
    one chunk of about ``CHUNK_ENTRIES`` values at a time into the result.

    The normals come off the stream in the same order, and a tail shorter
    than one chunk joins the chunk before it, so no product is small enough
    for BLAS to round it another way: up to 193 columns the result is the
    whole-array product bit for bit. From 194 columns (OpenBLAS 0.3.31)
    BLAS rounds the last rows of a product differently, so a few rows per
    chunk can differ from it in the last bits.
    """
    dim = factor.shape[0]
    out = np.empty((n, dim))
    for chunk in chunks(n, max(1, CHUNK_ENTRIES // dim)):
        rows = out[chunk]
        np.matmul(rng.standard_normal(rows.shape), factor.T, out=rows)
    return out


def second_moment_condition(queries) -> float:
    """Condition number of the mean query outer-product matrix; infinite
    when it has no column (an empty vector file reads as (0, 0)) or when
    the transforms' rank rule (``linalg.psd_factors``) zeroes a direction."""
    q = as_matrix(queries, "queries")
    w, _, _ = psd_factors((q.T @ q) / max(q.shape[0], 1))
    return float(w[0] / w[-1]) if w.size and w.all() else float("inf")
