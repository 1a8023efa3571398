"""Benchmark grids: train methods, encode a database, score estimates.

A run covers one task (scalar products, cosine similarities via prior
normalization, or squared distances), a list of methods, and a list of
block counts, neither of which may list an entry twice. ``fit_method`` is
the one place that turns (task, method) into a trained model, for the grid
and the ``pairq train`` command alike. Per block count, ``opq`` and
``opq-bc`` share one OPQ model and its codes: ``opq-bc`` adds only the
error-mean table, so when it runs after ``opq`` its ``train_encode`` timing
covers just that table. Every ``pairq`` cell learns its own query
transform.

Every cell is trained and encoded first. The grid's fitted cells are then
scored together in one ``metrics.evaluate_methods`` pass, which computes
each evaluation query's exact values once for all of them. A cell whose
training or encoding raises is recorded as failed without taking down the
rest of the grid; an exception inside the shared pass is recorded on every
cell that pass was scoring. Each cell gets its error reduction against its
block count's ``opq`` cell, whatever the method order; the column stays
empty when there is no ``opq`` cell or it failed.

Reports write to CSV and JSON. The CSV holds only deterministic columns,
so a rerun with the same config and seed produces byte-identical output;
wall-clock timings and environment details go to the JSON sidecar: each
cell's ``train_encode`` time, and the shared pass's time once, as the
report's ``timings["eval"]``.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import (
    SyntheticData,
    SyntheticSpec,
    gen_synthetic,
    read_fvecs,
    second_moment_condition,
)
from .estimator import BiasCorrected, compute_mse_table
from .linalg import as_matrix
from .metrics import DEFAULT_PAIR_BUDGET, SCALAR, SQDIST, evaluate_methods
from .quantizer import (
    DEFAULT_CODEBOOK_SIZE,
    DEFAULT_KMEANS_ITERS,
    DEFAULT_OUTER_ITERS,
    OPQModel,
    check_training,
    opq_encode,
    train_opq,
)
from .transform import (
    PairQModel,
    learn_scalar_transform,
    learn_sqdist_transform,
    pairq_encode,
    train_pairq,
)

TASKS = ("scalar", "cosine", "sqdist")
METHODS = ("opq", "opq-bc", "pairq")

CSV_COLUMNS = (
    "task",
    "method",
    "num_blocks",
    "codebook_size",
    "bytes_per_vector",
    "compression_ratio",
    "num_pairs",
    "scalar_mse",
    "rel_dist_error",
    "mean_signed_error",
    "excluded_pairs",
    "error_reduction_vs_opq_pct",
    "error",
)


@dataclass
class ExperimentConfig:
    """Everything a benchmark run depends on.

    Exactly one data source must be set: a synthetic spec, or all three
    vector file paths.
    """

    task: str = "scalar"
    methods: tuple[str, ...] = ("opq", "pairq")
    block_counts: tuple[int, ...] = (8,)
    codebook_size: int = DEFAULT_CODEBOOK_SIZE
    outer_iters: int = DEFAULT_OUTER_ITERS
    kmeans_iters: int = DEFAULT_KMEANS_ITERS
    max_pairs: int = DEFAULT_PAIR_BUDGET
    seed: int = 0
    synthetic: SyntheticSpec | None = None
    database_path: str | None = None
    train_queries_path: str | None = None
    eval_queries_path: str | None = None


@dataclass
class CellResult:
    """One (method, block count) outcome. Metric fields stay None when the
    cell failed or the metric does not apply to the task."""

    task: str
    method: str
    num_blocks: int
    codebook_size: int
    bytes_per_vector: int
    compression_ratio: float
    num_pairs: int | None = None
    scalar_mse: float | None = None
    rel_dist_error: float | None = None
    mean_signed_error: float | None = None
    excluded_pairs: int | None = None
    error_reduction_vs_opq_pct: float | None = None
    error: str | None = None
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class Report:
    config: ExperimentConfig
    cells: list[CellResult]
    query_moment_condition: float
    environment: dict[str, str]
    timings: dict[str, float] = field(default_factory=dict)

    def cell(self, method: str, num_blocks: int) -> CellResult:
        for c in self.cells:
            if c.method == method and c.num_blocks == num_blocks:
                return c
        raise KeyError(f"no cell for ({method}, {num_blocks})")


def _validate_config(config: ExperimentConfig) -> None:
    if config.task not in TASKS:
        raise ValueError(f"unknown task {config.task!r}, expected one of {TASKS}")
    if not config.methods:
        raise ValueError("methods is empty")
    for m in config.methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
    if config.task != "sqdist" and "opq-bc" in config.methods:
        raise ValueError("bias correction only applies to the sqdist task")
    if not config.block_counts:
        raise ValueError("block_counts is empty")
    for num_blocks in config.block_counts:
        check_training(num_blocks, config.codebook_size, config.outer_iters,
                       config.kmeans_iters)
    if config.max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {config.max_pairs}")
    for name in ("methods", "block_counts"):
        values = getattr(config, name)
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{name} lists {v!r} twice")
    paths = (config.database_path, config.train_queries_path, config.eval_queries_path)
    if config.synthetic is not None:
        if any(p is not None for p in paths):
            raise ValueError("give either a synthetic spec or file paths, not both")
    elif not all(p is not None for p in paths):
        raise ValueError(
            "need a synthetic spec or database, train-queries and "
            "eval-queries paths"
        )


def task_kind(task: str) -> str:
    """Estimate kind of a task; cosine is the scalar kind on unit rows."""
    return SQDIST if task == "sqdist" else SCALAR


def _task_error(cell: CellResult) -> float | None:
    """The cell's error under its task: scalar MSE or relative error."""
    return cell.rel_dist_error if cell.task == "sqdist" else cell.scalar_mse


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize every row, leaving zero rows as they are."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0.0, norms, 1.0)


def fit_method(
    task: str,
    method: str,
    database: np.ndarray,
    train_queries: np.ndarray | None,
    num_blocks: int,
    codebook_size: int,
    outer_iters: int = DEFAULT_OUTER_ITERS,
    kmeans_iters: int = DEFAULT_KMEANS_ITERS,
    seed: int = 0,
) -> OPQModel | PairQModel:
    """Train the ``opq`` or ``pairq`` model of a task.

    ``opq`` quantizes the database directly; ``pairq`` learns the task's
    query-moment transform from ``train_queries`` and quantizes the
    transformed database with the same trainer. Both zero-pad dimensions
    that ``num_blocks`` does not divide. ``opq-bc`` is the ``opq`` model
    plus ``compute_mse_table``, so it is not trained here. Cosine inputs
    must already be normalized.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
    opts = dict(outer_iters=outer_iters, kmeans_iters=kmeans_iters, seed=seed)
    if method == "opq":
        return train_opq(database, num_blocks, codebook_size, pad=True, **opts)
    if method == "pairq":
        learn = (
            learn_sqdist_transform if task_kind(task) == SQDIST
            else learn_scalar_transform
        )
        return train_pairq(
            learn(train_queries), database, num_blocks, codebook_size, **opts
        )
    raise ValueError(f"fit_method trains 'opq' or 'pairq', got {method!r}")


def encode(model: OPQModel | PairQModel, database) -> np.ndarray:
    """Codes for raw database vectors under a ``fit_method`` model."""
    if isinstance(model, PairQModel):
        return pairq_encode(model, database)
    return opq_encode(model, database)


def _load_data(config: ExperimentConfig) -> SyntheticData:
    if config.synthetic is not None:
        return gen_synthetic(config.synthetic, seed=config.seed)
    return SyntheticData(
        database=as_matrix(read_fvecs(config.database_path), "database"),
        train_queries=as_matrix(read_fvecs(config.train_queries_path), "train queries"),
        eval_queries=as_matrix(read_fvecs(config.eval_queries_path), "eval queries"),
    )


def run_experiment(config: ExperimentConfig) -> Report:
    """Train and encode every grid cell of the config, then score the
    fitted cells in one evaluation pass."""
    _validate_config(config)
    data = _load_data(config)
    database = data.database
    train_q = data.train_queries
    eval_q = data.eval_queries
    if config.task == "cosine":
        database = normalize_rows(database)
        train_q = normalize_rows(train_q)
        eval_q = normalize_rows(eval_q)
    kind = task_kind(config.task)

    dim = database.shape[1]
    cells: list[CellResult] = []
    # (cell, scorer, codes) for every cell that trained and encoded.
    fitted_cells: list[tuple[CellResult, object, np.ndarray]] = []
    for num_blocks in config.block_counts:
        # (model, codes) per trained family; opq and opq-bc share "opq".
        fitted: dict[str, tuple] = {}
        for method in config.methods:
            cell = CellResult(
                task=config.task,
                method=method,
                num_blocks=num_blocks,
                codebook_size=config.codebook_size,
                bytes_per_vector=num_blocks,
                compression_ratio=(dim * 4) / num_blocks,
            )
            cells.append(cell)
            try:
                t0 = time.perf_counter()
                family = "opq" if method == "opq-bc" else method
                if family not in fitted:
                    model = fit_method(
                        config.task, family, database, train_q, num_blocks,
                        config.codebook_size, outer_iters=config.outer_iters,
                        kmeans_iters=config.kmeans_iters, seed=config.seed,
                    )
                    fitted[family] = (model, encode(model, database))
                scorer, codes = fitted[family]
                if method == "opq-bc":
                    scorer = BiasCorrected(
                        opq=scorer, mse=compute_mse_table(scorer, database)
                    )
                cell.timings = {"train_encode": time.perf_counter() - t0}
            except Exception as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
            else:
                fitted_cells.append((cell, scorer, codes))

    t0 = time.perf_counter()
    if fitted_cells:
        try:
            all_stats = evaluate_methods(
                [(scorer, codes) for _, scorer, codes in fitted_cells],
                kind, eval_q, database,
                max_pairs=config.max_pairs, seed=config.seed,
            )
        except Exception as exc:
            for cell, _, _ in fitted_cells:
                cell.error = f"{type(exc).__name__}: {exc}"
        else:
            for (cell, _, _), stats in zip(fitted_cells, all_stats):
                cell.num_pairs = stats.num_pairs
                cell.scalar_mse = stats.mse if kind == SCALAR else None
                cell.rel_dist_error = (
                    stats.mean_rel_error if kind == SQDIST else None
                )
                cell.mean_signed_error = stats.mean_signed_error
                cell.excluded_pairs = stats.excluded_pairs
    eval_s = time.perf_counter() - t0

    for num_blocks in config.block_counts:
        block_cells = [c for c in cells if c.num_blocks == num_blocks]
        base_cell = next((c for c in block_cells if c.method == "opq"), None)
        base = None if base_cell is None else _task_error(base_cell)
        for cell in block_cells:
            ours = _task_error(cell)
            if cell is not base_cell and base and ours is not None:
                cell.error_reduction_vs_opq_pct = 100.0 * (1.0 - ours / base)

    return Report(
        config=config,
        cells=cells,
        query_moment_condition=second_moment_condition(train_q),
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        timings={"eval": eval_s},
    )


def _format_cell_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_report_csv(report: Report, path) -> None:
    """Deterministic per-cell metrics table (no timings, no environment)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for cell in report.cells:
            writer.writerow(
                [_format_cell_value(getattr(cell, c)) for c in CSV_COLUMNS]
            )


def write_report_json(report: Report, path) -> None:
    """Full report: config, cells with timings, environment."""
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True,
                  default=lambda value: value.tolist())
        fh.write("\n")
