"""Estimate quality metrics over query/database pairs.

A "method" here is anything that can score encoded vectors against a
query: a rotated product quantizer, one bundled with its error-mean table,
or a pair-transform model. Scoring goes through the lookup-table scan
route so the metrics measure what a real scan would return.

``evaluate_methods`` scores any number of methods in one pass over the
evaluation queries: per query it draws the database rows once, computes
their exact values once with ``true_values`` and then scans each method's
codes. ``evaluate_method`` is its one-method case. Inputs are checked once,
before any scoring (``check_eval_inputs``, which the grid runner also calls).

All pairs are evaluated when the query count times the database size stays
under the pair budget; beyond it, each query gets a seeded random subset
of database rows and the budget is split evenly across queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import (
    BiasCorrected,
    adc_scan,
    build_lut_scalar,
    build_lut_sqdist,
    check_mse_table,
)
from .linalg import as_matrix
from .quantizer import TILE_ENTRIES, OPQModel
from .transform import SCALAR, SQDIST, PairQModel, pairq_query_vector

DEFAULT_PAIR_BUDGET = 10**7

# True squared distances at or below this count as degenerate for relative
# error and are excluded (and counted) instead of dividing by ~0.
REL_ERR_FLOOR = 1e-12


def estimate_batch(method, query, codes, kind: str) -> np.ndarray:
    """Lookup-table estimates of ``kind`` for one query against codes.

    Every method becomes one (num_blocks, K) table, scanned once, plus a
    constant: ||q||^2 for pair-transform squared distances, else 0. Bias
    correction folds the error-mean table into the squared-distance table.
    """
    if kind not in (SCALAR, SQDIST):
        raise ValueError(f"unknown kind {kind!r}")
    constant = 0.0
    if isinstance(method, PairQModel):
        if method.mode != kind:
            raise ValueError(
                f"model mode {method.mode!r} cannot produce {kind!r} estimates"
            )
        table = build_lut_scalar(method.opq, pairq_query_vector(method, query))
        if kind == SQDIST:
            q = np.asarray(query, dtype=np.float64)
            constant = float(q @ q)
    elif isinstance(method, BiasCorrected):
        if kind != SQDIST:
            raise ValueError("bias correction applies to squared distances only")
        check_mse_table(method.mse, method.opq.codebook)
        table = build_lut_sqdist(method.opq, query) + method.mse.values
    elif isinstance(method, OPQModel):
        build = build_lut_scalar if kind == SCALAR else build_lut_sqdist
        table = build(method, query)
    else:
        raise TypeError(f"unsupported method type {type(method).__name__}")
    return constant + adc_scan(table, codes)


def true_values(query, database, kind: str) -> np.ndarray:
    """Exact scalar products or squared distances for one query.

    Squared distances are summed in tiles of ``TILE_ENTRIES // dim`` rows
    through one reused difference buffer; each row's value is the one an
    untiled ``einsum`` over C-ordered rows gives. A NaN or infinite database entry makes its
    row's value non-finite, so the database is checked in full only when
    some value is; finite inputs that overflow return ``inf``.
    """
    x = np.asarray(database, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"database must be 2-dimensional, got shape {x.shape}")
    q = np.asarray(query, dtype=np.float64)
    if kind == SCALAR:
        out = x @ q
    elif kind == SQDIST:
        n, dim = x.shape
        out = np.empty(n)
        rows = max(1, TILE_ENTRIES // max(dim, 1))
        diff = np.empty((min(rows, n), dim))
        for start in range(0, n, rows):
            tile = diff[: min(rows, n - start)]
            np.subtract(x[start : start + rows], q, out=tile)
            np.einsum("ij,ij->i", tile, tile, out=out[start : start + rows])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if not np.isfinite(out).all():
        as_matrix(x, "database")
    return out


@dataclass
class EvalStats:
    """Aggregated pair metrics for one method on one dataset."""

    kind: str
    num_pairs: int
    mse: float
    mean_signed_error: float
    mean_rel_error: float | None
    excluded_pairs: int


def _pair_indices(num_db: int, num_queries: int, max_pairs: int, seed: int):
    """Per-query database row selections under the pair budget.

    Yields one index per query: ``slice(None)`` (every row, as a view) when
    every pair fits, else an array of ``max(1, max_pairs // num_queries)``
    row numbers drawn without replacement from a seeded generator.
    """
    if num_queries * num_db <= max_pairs:
        return (slice(None) for _ in range(num_queries))
    per_query = max(1, max_pairs // num_queries)
    rng = np.random.default_rng(seed)
    return (rng.permutation(num_db)[:per_query] for _ in range(num_queries))


def check_eval_inputs(eval_queries, database) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation queries and the database as finite float64 matrices,
    each with at least one row and both of one width."""
    queries = as_matrix(eval_queries, "eval queries")
    x = as_matrix(database, "database")
    if queries.shape[0] == 0 or x.shape[0] == 0:
        raise ValueError("need at least one query and one database vector")
    if queries.shape[1] != x.shape[1]:
        raise ValueError(
            f"eval queries have dimension {queries.shape[1]}, the database "
            f"has dimension {x.shape[1]}"
        )
    return queries, x


def evaluate_methods(
    scored,
    kind: str,
    eval_queries,
    database,
    max_pairs: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> list[EvalStats]:
    """One pass over query/database pairs, scoring every method.

    ``scored`` lists ``(method, codes)`` pairs, where ``codes`` is the
    encoding of ``database`` rows under ``method``, in the same row order.
    Every method is scored on the same pairs, and its stats are the ones
    ``evaluate_method`` returns for it alone. Returns one ``EvalStats`` per
    entry of ``scored``, in its order.
    """
    queries, x = check_eval_inputs(eval_queries, database)
    scored = [(method, np.asarray(codes)) for method, codes in scored]
    for _, codes in scored:
        if codes.shape[0] != x.shape[0]:
            raise ValueError(
                f"codes rows {codes.shape[0]} do not match database rows "
                f"{x.shape[0]}"
            )
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    subsets = _pair_indices(x.shape[0], queries.shape[0], max_pairs, seed)

    # Per method: summed squared, signed and relative errors.
    sums = [[0.0, 0.0, 0.0] for _ in scored]
    n_rel = 0
    n_excluded = 0
    n_pairs = 0
    for q, idx in zip(queries, subsets):
        t = true_values(q, x[idx], kind)
        n_pairs += t.size
        if kind == SQDIST:
            keep = t > REL_ERR_FLOOR
            kept = int(keep.sum())
            n_excluded += t.size - kept
            n_rel += kept
            t_kept = t[keep]
        for (method, codes), acc in zip(scored, sums):
            d = estimate_batch(method, q, codes[idx], kind) - t
            acc[0] += float(d @ d)
            acc[1] += float(d.sum())
            if kind == SQDIST and kept:
                acc[2] += float((np.abs(d[keep]) / t_kept).sum())
    return [
        EvalStats(
            kind=kind,
            num_pairs=n_pairs,
            mse=sum_sq / n_pairs,
            mean_signed_error=sum_signed / n_pairs,
            mean_rel_error=(sum_rel / n_rel) if n_rel else None,
            excluded_pairs=n_excluded,
        )
        for sum_sq, sum_signed, sum_rel in sums
    ]


def evaluate_method(
    method,
    kind: str,
    eval_queries,
    database,
    codes,
    max_pairs: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> EvalStats:
    """``evaluate_methods`` for one method.

    ``codes`` must be the encoding of ``database`` rows under ``method``,
    in the same row order.
    """
    (stats,) = evaluate_methods(
        [(method, codes)], kind, eval_queries, database, max_pairs, seed
    )
    return stats

