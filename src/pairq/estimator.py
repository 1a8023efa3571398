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

Codes the library makes (``pq_encode`` and the encoders built on it) or
reads (``read_ivecs``) are (N, M) arrays in column order, so block j's
codes are one contiguous column: ``take`` casts it to intp without a
strided copy, and the eval pass's index is a contiguous cast of their
transpose. Codes in any other layout scan to the same bits, more slowly.

Accumulation is float64 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_rows, as_vector
from .quantizer import OPQModel, PQCodebook, _residual_chunks, check_codes


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
    """A query of n or d entries, padded to d and rotated (``quantizer``).
    The padding is a concatenate: ``np.pad`` costs about 15 µs a call."""
    v = as_vector(q, "query")
    if v.shape[0] == model.input_dim:
        v = np.concatenate([v, np.zeros(model.dim - v.shape[0])])
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

    ``lut`` is a (num_blocks, K) table and ``codes`` a (N, num_blocks)
    batch; the result is a float64 vector of N estimates. Each block's
    entries are gathered with one ``row.take(codes[:, j])`` and added to a
    zeroed vector in block index order. Codes go through ``check_codes``,
    so a wrong block count, a non-integer dtype (bool included) or a code
    outside [0, K) raises ValueError.
    """
    table = as_matrix(lut, "lut")
    return _scan(table, check_codes(np.asarray(codes), *table.shape).T)


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
    vector; they are checked (``check_codes``) before their row count, and
    the data is then not encoded again. The residuals come from the
    encoder's chunk walk (``quantizer._residual_chunks``): each chunk of
    rows is converted, checked and rotated once. Each chunk's per-block
    errors and bincount cells go into one (N, M) array each, so the pass
    holds those two arrays and a chunk, not rotated or decoded copies of
    the data.
    """
    x = as_rows(training_data, "training_data")
    m, k, sub = model.codebook.centroids.shape
    if codes is not None:
        codes = check_codes(np.asarray(codes), m, k)
        if codes.shape[0] != x.shape[0]:
            raise ValueError(f"{len(codes)} code rows for {len(x)} training vectors")
    cells = np.empty((x.shape[0], m), dtype=np.intp)
    err = np.empty((x.shape[0], m))
    for chunk, chunk_codes, residual in _residual_chunks(model, x, codes):
        cells[chunk] = chunk_codes
        diff = residual.reshape(-1, m, sub)
        np.einsum("nms,nms->nm", diff, diff, out=err[chunk])
    # One bincount for all blocks: codeword c of block j is bin j*K + c.
    cells += k * np.arange(m)
    cells = cells.ravel()
    sums = np.bincount(cells, weights=err.ravel(), minlength=m * k).reshape(m, k)
    counts = np.bincount(cells, minlength=m * k).reshape(m, k)
    # An empty cell's sum is 0, so it keeps that value.
    return MseTable(values=np.divide(sums, counts, out=sums, where=counts > 0))


@dataclass(eq=False)
class BiasCorrected:
    """A rotated product quantizer bundled with its error-mean table, used
    as a squared-distance method in evaluations."""

    opq: OPQModel
    mse: MseTable
