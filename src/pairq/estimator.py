"""Lookup-table estimation over product codes.

A query is rotated once, folded into a per-block table of partial scalar
products or partial squared distances, and each encoded vector is then
scored by summing one table entry per block. The scan never touches the
original vectors; it must agree with decoding the code and computing the
quantity directly, and tests hold the two routes against each other.

Accumulation is float64 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector
from .quantizer import (
    OPQModel, PQCodebook, apply_rotation, check_codes, pad_columns, pq_decode,
    pq_encode,
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
    a float; a (N, num_blocks) batch returns a float64 vector. Blocks
    accumulate in index order. Codes go through ``check_codes``, so a wrong
    block count, a non-integer dtype (bool included) or a code outside
    [0, K) raises ValueError.
    """
    table = as_matrix(lut, "lut")
    codes = np.asarray(codes)
    single = codes.ndim == 1
    arr = check_codes(codes, *table.shape)
    out = np.zeros(arr.shape[0])
    for j in range(table.shape[0]):
        out += table[j, arr[:, j]]
    return float(out[0]) if single else out


def compute_mse_table(model: OPQModel, training_data) -> MseTable:
    """Per-codeword mean squared quantization error on training data.

    Codewords that receive no training points get 0.
    """
    x = as_matrix(training_data, "training_data")
    x_rot = apply_rotation(model, x)
    book = model.codebook
    m, k, sub = book.centroids.shape
    codes = pq_encode(book, x_rot)
    diff = (x_rot - pq_decode(book, codes)).reshape(x.shape[0], m, sub)
    err = np.einsum("nms,nms->nm", diff, diff)
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
