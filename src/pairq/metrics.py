"""Estimate quality metrics over query/database pairs.

A "method" here is anything that can score encoded vectors against a
query: a rotated product quantizer, one bundled with its error-mean table,
or a pair-transform model. Scoring goes through the lookup-table scan
route so the metrics measure what a real scan would return: every method
becomes one table and a constant per query (``_lut``), and the table is
summed over the codes by the scan body ``adc_scan`` uses.

``evaluate_methods`` scores any number of methods in one pass over the
evaluation queries. It checks each codes array once and converts it to a
contiguous (M, N) intp index, which every query's scan then reads; the
estimates are ``adc_scan``'s, bit for bit, whatever the codes' integer
dtype. Exact values come from ``true_values``, once per evaluation query,
for a tile of ``EVAL_TILE_ENTRIES // N`` queries at a time when every pair
is scored. ``evaluate_method`` is the one-method case. Inputs are checked
once, before any scoring (``check_eval_inputs``, which the grid runner
also calls).

Exact squared distances are one product per tile in the form
T̂ = ‖q‖² + ‖x‖² − 2q·x. The bound: with u = ε/2 and γₙ = nu/(1 − nu)
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3), the two
norms are each off by at most γ_d times themselves, q·x by at most
γ_d·Σ|q_i x_i| ≤ γ_d(‖q‖² + ‖x‖²)/2, and the two additions by u times
sums of at most 3(‖q‖² + ‖x‖²). So |T̂ − t| ≤ (2γ_d + 3u + O(u²))(‖q‖² +
‖x‖²) ≤ 2γ_{d+2}(‖q‖² + ‖x‖²). The margin: every pair with T̂ not finite
or T̂ ≤ c(‖q‖² + ‖x‖²) + 2·``REL_ERR_FLOOR``, c = ``SQDIST_MARGIN`` = 1/16,
is recomputed in the difference form Σ(x − q)². The difference form is
within γ_{d+3}·t of t, and c is far above 4γ_{d+3} for any practical d, so
a pair whose difference-form value is at or below ``REL_ERR_FLOOR`` is
always recomputed and every other pair's difference-form value is above
it: the pairs excluded from the relative error are those the difference
form excludes, and a query's copy in the database scores exactly 0. Every
pair not recomputed has |T̂ − t| < (2γ_{d+2}/c)·T̂: 3.6e-14·T̂ at d = 8,
4.6e-13·T̂ at d = 128.

All pairs are evaluated when the query count times the database size stays
under the pair budget; beyond it, each query gets a seeded random subset
of database rows and the budget is split evenly across queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import (
    BiasCorrected,
    _scan,
    adc_scan,
    build_lut_scalar,
    build_lut_sqdist,
    check_mse_table,
)
from .linalg import as_matrix
from .quantizer import TILE_ENTRIES, OPQModel, check_codes
from .transform import SCALAR, SQDIST, PairQModel, pairq_query_vector

DEFAULT_PAIR_BUDGET = 10**7

# True squared distances at or below this count as degenerate for relative
# error and are excluded (and counted) instead of dividing by ~0.
REL_ERR_FLOOR = 1e-12

# Product-form squared distances at or below this share of ‖q‖² + ‖x‖² (plus
# twice REL_ERR_FLOOR) are recomputed in the difference form; the bound on
# every other pair is (2γ_{d+2} / SQDIST_MARGIN) relative (module docstring).
SQDIST_MARGIN = 1 / 16

# Exact values per tile of queries on the all-pairs path: 2**19 float64
# values (4 MB) in each of the tile's buffers.
EVAL_TILE_ENTRIES = 1 << 19


def _lut(method, query, kind: str) -> tuple[np.ndarray, float]:
    """The (num_blocks, K) table and the constant that score ``method``
    against one query, for ``estimate_batch`` and ``evaluate_methods``."""
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
    return table, constant


def _quantizer(method) -> OPQModel:
    """The rotated product quantizer whose codes ``method`` scores."""
    if isinstance(method, (PairQModel, BiasCorrected)):
        return method.opq
    if isinstance(method, OPQModel):
        return method
    raise TypeError(f"unsupported method type {type(method).__name__}")


def estimate_batch(method, query, codes, kind: str) -> np.ndarray:
    """Lookup-table estimates of ``kind`` for one query against codes.

    Every method becomes one (num_blocks, K) table, scanned once by
    ``adc_scan``, plus a constant: ||q||^2 for pair-transform squared
    distances, else 0. Bias correction folds the error-mean table into the
    squared-distance table.
    """
    table, constant = _lut(method, query, kind)
    return constant + adc_scan(table, codes)


def true_values(query, database, kind: str) -> np.ndarray:
    """Exact scalar products or squared distances for one query or a tile.

    ``query`` is one (d,) vector, giving (N,) values, or a (t, d) tile of
    queries, giving (t, N). Scalar products are the one product
    ``Q @ databaseᵀ``. Squared distances take the product form
    T̂ = ‖q‖² + ‖x‖² − 2q·x from that product and the norms. A pair whose
    T̂ is not finite, or at or below ``SQDIST_MARGIN``·(‖q‖² + ‖x‖²) +
    2·``REL_ERR_FLOOR``, is recomputed in the difference form Σ(x − q)²,
    one row of a C-ordered ``einsum`` per pair, so its value does not
    depend on the tile. Every other pair has
    |T̂ − t| ≤ 2γ_{d+2}(‖q‖² + ‖x‖²) < (2γ_{d+2}/SQDIST_MARGIN)·T̂
    (module docstring).

    OpenBLAS rounds a product differently by its shape, so the bits of a
    query's values can depend on the tile it is computed in, as a row's
    codes can depend on the batch ``pq_encode`` gets. A NaN or infinite
    database entry makes its row's values non-finite, so the database is
    checked in full only when some value is; finite inputs that overflow
    return ``inf``.
    """
    x = np.asarray(database, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"database must be 2-dimensional, got shape {x.shape}")
    q = np.asarray(query, dtype=np.float64)
    if kind not in (SCALAR, SQDIST):
        raise ValueError(f"unknown kind {kind!r}")
    tile = q[None, :] if q.ndim == 1 else q
    if kind == SCALAR:
        out = tile @ x.T
    else:
        # Non-finite product-form values are recomputed, so the overflow
        # and inf − inf they come from are not reported.
        with np.errstate(over="ignore", invalid="ignore"):
            out = tile @ x.T
            x_sq = np.einsum("ij,ij->i", x, x)
            q_sq = np.einsum("ij,ij->i", tile, tile)
            out *= -2.0
            out += x_sq
            out += q_sq[:, None]
            # Rows first, against their largest margin; then the pairs of
            # the candidates against their own.
            row_margin = SQDIST_MARGIN * (q_sq + x_sq.max(initial=0.0))
            i, j = np.nonzero(_within(out, row_margin[:, None] + 2 * REL_ERR_FLOOR))
            margin = SQDIST_MARGIN * (q_sq[i] + x_sq[j]) + 2 * REL_ERR_FLOOR
            near = _within(out[i, j], margin)
        i, j = i[near], j[near]
        step = max(1, TILE_ENTRIES // max(x.shape[1], 1))
        diff = np.empty((min(step, i.size), x.shape[1]))
        for start in range(0, i.size, step):
            rows = diff[: min(step, i.size - start)]
            pick = slice(start, start + step)
            np.subtract(x[j[pick]], tile[i[pick]], out=rows)
            out[i[pick], j[pick]] = np.einsum("ij,ij->i", rows, rows)
    if not np.isfinite(out).all():
        as_matrix(x, "database")
    return out[0] if q.ndim == 1 else out


def _within(values: np.ndarray, margin) -> np.ndarray:
    """Where product-form squared distances are not finite or not above
    their margin."""
    return ~((values > margin) & (values < np.inf))


@dataclass
class EvalStats:
    """Aggregated pair metrics for one method on one dataset."""

    kind: str
    num_pairs: int
    mse: float
    mean_signed_error: float
    mean_rel_error: float | None
    excluded_pairs: int


def _exact_values(queries, x, kind: str, max_pairs: int, seed: int):
    """Per evaluation query: (query, exact values, database rows scored).

    When every pair fits the budget, the rows are ``slice(None)`` and the
    values come from ``true_values`` once per tile of ``EVAL_TILE_ENTRIES
    // N`` queries. Beyond it, each query gets ``max(1, max_pairs //
    num_queries)`` rows drawn without replacement from a seeded generator,
    and the values of those rows.
    """
    num_db = x.shape[0]
    if len(queries) * num_db <= max_pairs:
        step = max(1, EVAL_TILE_ENTRIES // num_db)
        for start in range(0, len(queries), step):
            tile = queries[start : start + step]
            for q, t in zip(tile, true_values(tile, x, kind)):
                yield q, t, slice(None)
        return
    per_query = max(1, max_pairs // len(queries))
    rng = np.random.default_rng(seed)
    for q in queries:
        rows = rng.permutation(num_db)[:per_query]
        yield q, true_values(q, x[rows], kind), rows


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
    # Each codes array is checked once, then scanned from a contiguous
    # (M, N) intp index: one row per block, converted once for all queries.
    scans = []
    for method, codes in scored:
        codes = np.asarray(codes)
        if codes.shape[0] != x.shape[0]:
            raise ValueError(
                f"codes rows {codes.shape[0]} do not match database rows "
                f"{x.shape[0]}"
            )
        book = _quantizer(method).codebook
        arr = check_codes(codes, book.num_blocks, book.codebook_size)
        scans.append((method, np.ascontiguousarray(arr.T, dtype=np.intp)))
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")

    # Per method: summed squared, signed and relative errors.
    sums = [[0.0, 0.0, 0.0] for _ in scans]
    n_rel = 0
    n_excluded = 0
    n_pairs = 0
    for q, t, rows in _exact_values(queries, x, kind, max_pairs, seed):
        n_pairs += t.size
        if kind == SQDIST:
            keep = t > REL_ERR_FLOOR
            kept = int(keep.sum())
            n_excluded += t.size - kept
            n_rel += kept
            every = kept == t.size
            t_kept = t if every else t[keep]
        for (method, index), acc in zip(scans, sums):
            table, constant = _lut(method, q, kind)
            d = constant + _scan(as_matrix(table, "lut"), index[:, rows]) - t
            acc[0] += float(d @ d)
            acc[1] += float(d.sum())
            if kind == SQDIST and kept:
                acc[2] += float((np.abs(d if every else d[keep]) / t_kept).sum())
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

