"""Estimate quality metrics over query/database pairs.

A "method" here is anything that can score encoded vectors against a
query: a rotated product quantizer, one bundled with its error-mean table,
or a pair-transform model. Scoring goes through the lookup-table scan
route so the metrics measure what a real scan would return.

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
)
from .linalg import as_matrix
from .quantizer import OPQModel
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
        table = build_lut_sqdist(method.opq, query) + method.mse.values
    elif isinstance(method, OPQModel):
        build = build_lut_scalar if kind == SCALAR else build_lut_sqdist
        table = build(method, query)
    else:
        raise TypeError(f"unsupported method type {type(method).__name__}")
    return constant + adc_scan(table, codes)


def true_values(query, database, kind: str) -> np.ndarray:
    """Exact scalar products or squared distances for one query."""
    x = as_matrix(database, "database")
    q = np.asarray(query, dtype=np.float64)
    if kind == SCALAR:
        return x @ q
    if kind == SQDIST:
        diff = x - q[None, :]
        return np.einsum("ij,ij->i", diff, diff)
    raise ValueError(f"unknown kind {kind!r}")


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
    """Per-query database row subsets under the pair budget.

    Returns None when every pair fits, else a generator of index arrays,
    one per query, drawn without replacement from a seeded generator.
    """
    if num_queries * num_db <= max_pairs:
        return None
    per_query = max(1, max_pairs // num_queries)
    rng = np.random.default_rng(seed)
    return (rng.permutation(num_db)[:per_query] for _ in range(num_queries))


def evaluate_method(
    method,
    kind: str,
    eval_queries,
    database,
    codes,
    max_pairs: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
) -> EvalStats:
    """One pass over query/database pairs, accumulating every metric.

    ``codes`` must be the encoding of ``database`` rows under ``method``,
    in the same row order.
    """
    queries = as_matrix(eval_queries, "eval_queries")
    x = as_matrix(database, "database")
    codes = np.asarray(codes)
    if codes.shape[0] != x.shape[0]:
        raise ValueError(
            f"codes rows {codes.shape[0]} do not match database rows {x.shape[0]}"
        )
    if queries.shape[0] == 0 or x.shape[0] == 0:
        raise ValueError("need at least one query and one database vector")
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    subsets = _pair_indices(x.shape[0], queries.shape[0], max_pairs, seed)

    sum_sq = 0.0
    sum_signed = 0.0
    sum_rel = 0.0
    n_rel = 0
    n_excluded = 0
    n_pairs = 0
    for i in range(queries.shape[0]):
        q = queries[i]
        if subsets is None:
            rows = x
            row_codes = codes
        else:
            idx = next(subsets)
            rows = x[idx]
            row_codes = codes[idx]
        t = true_values(q, rows, kind)
        e = estimate_batch(method, q, row_codes, kind)
        d = e - t
        sum_sq += float(d @ d)
        sum_signed += float(d.sum())
        n_pairs += t.size
        if kind == SQDIST:
            keep = t > REL_ERR_FLOOR
            n_excluded += int(t.size - keep.sum())
            if keep.any():
                sum_rel += float((np.abs(d[keep]) / t[keep]).sum())
                n_rel += int(keep.sum())
    return EvalStats(
        kind=kind,
        num_pairs=n_pairs,
        mse=sum_sq / n_pairs,
        mean_signed_error=sum_signed / n_pairs,
        mean_rel_error=(sum_rel / n_rel) if n_rel else None,
        excluded_pairs=n_excluded,
    )


def eval_scalar_mse(
    method, eval_queries, database, codes,
    max_pairs: int = DEFAULT_PAIR_BUDGET, seed: int = 0,
) -> float:
    """Mean squared scalar-product estimation error over pairs."""
    stats = evaluate_method(
        method, SCALAR, eval_queries, database, codes, max_pairs, seed
    )
    return stats.mse


def eval_relative_dist_error(
    method, eval_queries, database, codes,
    max_pairs: int = DEFAULT_PAIR_BUDGET, seed: int = 0,
) -> float:
    """Mean relative squared-distance error over pairs with non-degenerate
    true distance."""
    stats = evaluate_method(
        method, SQDIST, eval_queries, database, codes, max_pairs, seed
    )
    if stats.mean_rel_error is None:
        return float("nan")
    return stats.mean_rel_error


def eval_bias(
    method, kind, eval_queries, database, codes,
    max_pairs: int = DEFAULT_PAIR_BUDGET, seed: int = 0,
) -> float:
    """Mean signed estimation error (estimate minus truth) over pairs."""
    stats = evaluate_method(
        method, kind, eval_queries, database, codes, max_pairs, seed
    )
    return stats.mean_signed_error
