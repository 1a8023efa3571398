"""Benchmark grids: train methods, encode a database, score estimates.

A run covers one task (scalar products, cosine similarities via prior
normalization, or squared distances), a list of methods, and a list of
block counts. Every (method, block count) cell trains, encodes, and
evaluates independently; a cell that raises is recorded as failed without
taking down the rest of the grid.

Reports write to CSV and JSON. The CSV holds only deterministic columns,
so a rerun with the same config and seed produces byte-identical output;
wall-clock timings and environment details go to the JSON sidecar.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import platform
import time
from dataclasses import dataclass, field

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
from .metrics import SCALAR, SQDIST, EvalStats, evaluate_method
from .quantizer import opq_encode, train_opq
from .transform import (
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
    codebook_size: int = 256
    outer_iters: int = 20
    kmeans_iters: int = 25
    max_pairs: int = 10**7
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


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize every row, leaving zero rows as they are."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0.0, norms, 1.0)


def _load_data(config: ExperimentConfig) -> SyntheticData:
    if config.synthetic is not None:
        return gen_synthetic(config.synthetic, seed=config.seed)
    return SyntheticData(
        database=as_matrix(read_fvecs(config.database_path), "database"),
        train_queries=as_matrix(read_fvecs(config.train_queries_path), "train queries"),
        eval_queries=as_matrix(read_fvecs(config.eval_queries_path), "eval queries"),
    )


def run_experiment(config: ExperimentConfig) -> Report:
    """Train, encode and evaluate every grid cell of the config."""
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

    transform_cache: list = []

    def _transform():
        # Lazy so a transform failure only breaks the pairq cells.
        if not transform_cache:
            learn = (
                learn_sqdist_transform if kind == SQDIST else learn_scalar_transform
            )
            transform_cache.append(learn(train_q))
        return transform_cache[0]

    dim = database.shape[1]
    cells: list[CellResult] = []
    for num_blocks in config.block_counts:
        opq_model = None
        opq_codes = None
        opq_stats: EvalStats | None = None

        def _opq():
            nonlocal opq_model, opq_codes
            if opq_model is None:
                opq_model = train_opq(
                    database,
                    num_blocks,
                    config.codebook_size,
                    outer_iters=config.outer_iters,
                    kmeans_iters=config.kmeans_iters,
                    seed=config.seed,
                    pad=True,
                )
                opq_codes = opq_encode(opq_model, database)
            return opq_model, opq_codes

        for method in config.methods:
            cell = CellResult(
                task=config.task,
                method=method,
                num_blocks=num_blocks,
                codebook_size=config.codebook_size,
                bytes_per_vector=num_blocks,
                compression_ratio=(dim * 4) / num_blocks,
            )
            try:
                t0 = time.perf_counter()
                if method == "opq":
                    scorer, codes = _opq()
                elif method == "opq-bc":
                    model, codes = _opq()
                    scorer = BiasCorrected(
                        opq=model, mse=compute_mse_table(model, database)
                    )
                else:
                    model = train_pairq(
                        _transform(),
                        database,
                        num_blocks,
                        config.codebook_size,
                        outer_iters=config.outer_iters,
                        kmeans_iters=config.kmeans_iters,
                        seed=config.seed,
                    )
                    codes = pairq_encode(model, database)
                    scorer = model
                t1 = time.perf_counter()
                stats = evaluate_method(
                    scorer, kind, eval_q, database, codes,
                    max_pairs=config.max_pairs, seed=config.seed,
                )
                t2 = time.perf_counter()
                cell.timings = {"train_encode": t1 - t0, "eval": t2 - t1}
                cell.num_pairs = stats.num_pairs
                cell.scalar_mse = stats.mse if kind == SCALAR else None
                cell.rel_dist_error = (
                    stats.mean_rel_error if kind == SQDIST else None
                )
                cell.mean_signed_error = stats.mean_signed_error
                cell.excluded_pairs = stats.excluded_pairs
                if method == "opq":
                    opq_stats = stats
                elif opq_stats is not None:
                    base = (
                        opq_stats.mse if kind == SCALAR else opq_stats.mean_rel_error
                    )
                    ours = stats.mse if kind == SCALAR else stats.mean_rel_error
                    if base and ours is not None:
                        cell.error_reduction_vs_opq_pct = 100.0 * (1.0 - ours / base)
            except Exception as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
            cells.append(cell)

    return Report(
        config=config,
        cells=cells,
        query_moment_condition=second_moment_condition(train_q),
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
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
            values = {
                "task": cell.task,
                "method": cell.method,
                "num_blocks": cell.num_blocks,
                "codebook_size": cell.codebook_size,
                "bytes_per_vector": cell.bytes_per_vector,
                "compression_ratio": cell.compression_ratio,
                "num_pairs": cell.num_pairs,
                "scalar_mse": cell.scalar_mse,
                "rel_dist_error": cell.rel_dist_error,
                "mean_signed_error": cell.mean_signed_error,
                "excluded_pairs": cell.excluded_pairs,
                "error_reduction_vs_opq_pct": cell.error_reduction_vs_opq_pct,
                "error": cell.error,
            }
            writer.writerow([_format_cell_value(values[c]) for c in CSV_COLUMNS])


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_report_json(report: Report, path) -> None:
    """Full report: config, cells with timings, environment."""
    payload = {
        "config": _jsonable(report.config),
        "cells": [_jsonable(c) for c in report.cells],
        "query_moment_condition": report.query_moment_condition,
        "environment": report.environment,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
