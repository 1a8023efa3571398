"""Lookup-table estimation over product codes.

A query is rotated once, folded into a per-block table of partial scalar
products or partial squared distances, and each encoded vector is then
scored by summing one table entry per block. The scan never touches the
original vectors; it must agree with decoding the code and computing the
quantity directly, and tests hold the two routes against each other.

The scan gathers each block's entries with one ``take`` on that block's
table row and adds them to a zeroed float64 vector in block order, so an
estimate is the same sum, bit for bit, whatever the codes' integer dtype.
That loop, ``_scan``, is also the scan of ``metrics.evaluate_methods``,
which reads every query's codes from a (M, N) intp index converted once.

Accumulation is float64 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_rows, as_vector
from .quantizer import (
    OPQModel, PQCodebook, apply_rotation, check_codes, pad_columns, pq_decode,
    pq_encode, row_chunks,
)


@dataclass(eq=False)
class MseTable:
    """Mean squared quantization error per codeword, shape (num_blocks, K).

    Entry (j, k) is the mean of ||block_j(x) - c_jk||^2 over the training
    points assigned to codeword k in block j. Adding the entries selected
    by a code to a plain squared-distance scan removes the systematic
    underestimation of quantized distances.
    """

    values: np.ndarray


def check_mse_table(mse: MseTable, codebook: PQCodebook) -> None:
    """Raise ValueError unless the table has the codebook's (M, K) shape."""
    if mse.values.shape != (codebook.num_blocks, codebook.codebook_size):
        raise ValueError(
            f"error-mean table shape {mse.values.shape} does not match "
            f"codebook ({codebook.num_blocks}, {codebook.codebook_size})"
        )


def _rotated_query(model: OPQModel, q) -> np.ndarray:
    v = as_vector(q, "query")
    if v.shape[0] == model.input_dim:
        v = pad_columns(v[None, :], model.dim)[0]
    elif v.shape[0] != model.dim:
        raise ValueError(
            f"query dimension {v.shape[0]} matches neither input dimension "
            f"{model.input_dim} nor quantizer dimension {model.dim}"
        )
    return model.rotation @ v


def build_lut_scalar(model: OPQModel, r) -> np.ndarray:
    """Table of partial scalar products <block_j(R r), c_jk>, shape (M, K)."""
    book = model.codebook.centroids
    r_blocks = _rotated_query(model, r).reshape(book.shape[0], book.shape[2], 1)
    return (book @ r_blocks)[:, :, 0]


def build_lut_sqdist(model: OPQModel, q) -> np.ndarray:
    """Table of partial squared distances ||block_j(R q) - c_jk||^2, shape
    (M, K)."""
    book = model.codebook.centroids
    q_blocks = _rotated_query(model, q).reshape(book.shape[0], 1, book.shape[2])
    diff = book - q_blocks
    return np.einsum("mks,mks->mk", diff, diff)


def adc_scan(lut, codes) -> np.ndarray:
    """Sum one table entry per block for every code.

    ``lut`` is a (num_blocks, K) table. A single (num_blocks,) code returns
    a float; a (N, num_blocks) batch returns a float64 vector. Each block's
    entries are gathered with one ``row.take(codes[:, j])`` and added to a
    zeroed vector in block index order. Codes go through ``check_codes``,
    so a wrong block count, a non-integer dtype (bool included) or a code
    outside [0, K) raises ValueError.
    """
    table = as_matrix(lut, "lut")
    codes = np.asarray(codes)
    single = codes.ndim == 1
    arr = check_codes(codes, *table.shape)
    out = _scan(table, arr.T)
    return float(out[0]) if single else out


def _scan(table: np.ndarray, index) -> np.ndarray:
    """The scan body: ``table[j].take(index[j])`` added to a zeroed float64
    vector for each block j in order. ``index`` holds one array of checked
    codes per block, of any integer dtype: the columns of a (N, M) codes
    array, or the rows of a (M, N) intp index converted once for many
    queries."""
    out = np.zeros(len(index[0]))
    for row, codes in zip(table, index):
        out += row.take(codes)
    return out


def compute_mse_table(model: OPQModel, training_data, codes=None) -> MseTable:
    """Per-codeword mean squared quantization error on training data.

    Codewords that receive no training points get 0. ``codes``, when given,
    must be ``opq_encode(model, training_data)``, one row per training
    vector; the data is then not encoded again. The rows are converted,
    checked, padded and rotated one chunk at a time (``row_chunks``, as
    ``opq_encode`` does), and each chunk's per-block errors go into one
    (N, M) array, so the pass holds that array and one chunk, not rotated
    or decoded copies of the data.
    """
    x = as_rows(training_data, "training_data")
    book = model.codebook
    m, k, sub = book.centroids.shape
    encode = codes is None
    if encode:
        codes = np.empty((x.shape[0], m), dtype=np.uint8)
    elif len(codes) != x.shape[0]:
        raise ValueError(f"{len(codes)} code rows for {x.shape[0]} training vectors")
    err = np.empty((x.shape[0], m))
    for chunk in row_chunks(x.shape[0], max(x.shape[1], model.dim), k):
        x_rot = apply_rotation(model, x[chunk])
        if encode:
            codes[chunk] = pq_encode(book, x_rot)
        x_rot -= pq_decode(book, codes[chunk])
        diff = x_rot.reshape(-1, m, sub)
        np.einsum("nms,nms->nm", diff, diff, out=err[chunk])
        # Free this chunk's rows before the next chunk's are made.
        del x_rot, diff
    # One bincount for all blocks: codeword c of block j is bin j*K + c.
    cells = (codes + k * np.arange(m)).ravel()
    sums = np.bincount(cells, weights=err.ravel(), minlength=m * k).reshape(m, k)
    counts = np.bincount(cells, minlength=m * k).reshape(m, k)
    filled = counts > 0
    values = np.zeros((m, k))
    values[filled] = sums[filled] / counts[filled]
    return MseTable(values=values)


@dataclass(eq=False)
class BiasCorrected:
    """A rotated product quantizer bundled with its error-mean table, used
    as a squared-distance method in evaluations."""

    opq: OPQModel
    mse: MseTable
