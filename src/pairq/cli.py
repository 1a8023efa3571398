"""Command line front end.

Subcommands cover the full workflow on vector files:

    pairq synth   draw a synthetic database plus query sets
    pairq train   fit a quantizer (plain rotated, or transform-based)
    pairq encode  compress a database into per-block codes
    pairq eval    score encoded vectors against evaluation queries
    pairq bench   run a method-by-blocks grid and write report files

Vector files use the fvecs/ivecs record layout. The cosine mode is the
scalar mode after L2-normalizing every input; models carry no
normalization state, so pass the same --mode to train, encode and eval.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .datasets import (
    SyntheticSpec,
    gen_synthetic,
    read_fvecs,
    read_ivecs,
    write_fvecs,
    write_ivecs,
)
from .estimator import BiasCorrected, compute_mse_table
from .experiment import (
    TASKS,
    ExperimentConfig,
    encode,
    fit_method,
    normalize_rows,
    run_experiment,
    task_kind,
    write_report_csv,
    write_report_json,
)
from .metrics import DEFAULT_PAIR_BUDGET, SQDIST, evaluate_method
from .quantizer import (
    DEFAULT_CODEBOOK_SIZE,
    DEFAULT_KMEANS_ITERS,
    DEFAULT_OUTER_ITERS,
    MAX_CODEBOOK,
)
from .serialize import load_model, save_model
from .transform import PairQModel


def read_rows(path, name: str) -> np.ndarray:
    """An fvecs file that a command cannot run without: an empty one (no
    rows, no dimension) is refused before any training or encoding."""
    rows = read_fvecs(path)
    if rows.shape[0] == 0:
        raise ValueError(f"{name} file {path} holds no vectors")
    return rows


def _load_vectors(path, name: str, mode: str) -> np.ndarray:
    data = read_rows(path, name).astype(np.float64)
    return normalize_rows(data) if mode == "cosine" else data


def _add_common_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-K", "--codebook-size", type=int,
                   default=DEFAULT_CODEBOOK_SIZE,
                   help=f"centroids per block (max {MAX_CODEBOOK})")
    p.add_argument("--outer-iters", type=int, default=DEFAULT_OUTER_ITERS,
                   help="rotation/codebook alternations")
    p.add_argument("--kmeans-iters", type=int, default=DEFAULT_KMEANS_ITERS,
                   help="Lloyd iterations per codebook fit")
    p.add_argument("--seed", type=int, default=0)


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        dim=args.dim,
        num_database=args.database_size,
        num_train_queries=args.train_queries,
        num_eval_queries=args.eval_queries,
        database_decay=args.db_decay,
        query_decay=args.query_decay,
    )
    data = gen_synthetic(spec, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {
        "database.fvecs": data.database,
        "train_queries.fvecs": data.train_queries,
        "eval_queries.fvecs": data.eval_queries,
    }
    for name, arr in paths.items():
        path = os.path.join(args.out_dir, name)
        write_fvecs(path, arr)
        print(f"wrote {path} ({arr.shape[0]} x {arr.shape[1]})")
    return 0


def _cmd_train(args) -> int:
    if args.mse and (args.method, args.mode) != ("opq", "sqdist"):
        print("error: --mse only applies to --method opq --mode sqdist",
              file=sys.stderr)
        return 2
    if args.method == "pairq" and args.train_queries is None:
        print("error: --train-queries is required for the pairq method",
              file=sys.stderr)
        return 2
    database = _load_vectors(args.database, "database", args.mode)
    queries = None
    if args.method == "pairq":
        queries = _load_vectors(args.train_queries, "train queries", args.mode)
    model, codes = fit_method(
        args.mode, args.method, database, queries, args.blocks,
        args.codebook_size, outer_iters=args.outer_iters,
        kmeans_iters=args.kmeans_iters, seed=args.seed,
    )
    mse = compute_mse_table(model, database, codes) if args.mse else None
    save_model(args.out, model, mse_table=mse)
    opq = model.opq if isinstance(model, PairQModel) else model
    print(
        f"trained {args.method} (mode={args.mode}, blocks={args.blocks}, "
        f"codebook={args.codebook_size}); objective {opq.trace[0]:.6g} -> "
        f"{opq.trace[-1]:.6g}, converged={opq.converged}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_encode(args) -> int:
    model, _ = load_model(args.model)
    # encode converts the float32 rows to float64 one chunk at a time; the
    # cosine mode normalizes them in float64 first, as train and eval do.
    if args.mode == "cosine":
        database = _load_vectors(args.database, "database", args.mode)
    else:
        database = read_rows(args.database, "database")
    codes = encode(model, database)
    write_ivecs(args.out, codes)
    print(f"wrote {args.out} ({codes.shape[0]} codes, {codes.shape[1]} blocks)")
    return 0


def _cmd_eval(args) -> int:
    model, mse = load_model(args.model)
    method = model
    if args.bias_correct:
        if isinstance(model, PairQModel):
            print("error: --bias-correct applies to plain quantizer models",
                  file=sys.stderr)
            return 2
        if mse is None:
            print("error: model file has no error-mean table; retrain with --mse",
                  file=sys.stderr)
            return 2
        method = BiasCorrected(opq=model, mse=mse)
    database = _load_vectors(args.database, "database", args.mode)
    queries = _load_vectors(args.eval_queries, "eval queries", args.mode)
    codes = read_ivecs(args.codes)
    stats = evaluate_method(
        method, task_kind(args.mode), queries, database, codes,
        max_pairs=args.max_pairs, seed=args.seed,
    )
    text = json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_bench(args) -> int:
    config = ExperimentConfig(
        task=args.task,
        methods=tuple(args.methods.split(",")),
        block_counts=tuple(int(b) for b in args.blocks.split(",")),
        codebook_size=args.codebook_size,
        outer_iters=args.outer_iters,
        kmeans_iters=args.kmeans_iters,
        max_pairs=args.max_pairs,
        seed=args.seed,
    )
    # An empty train-queries file fails only the pairq cells; one with a
    # NaN or infinite entry fails the whole grid before any training.
    report = run_experiment(
        config,
        read_rows(args.database, "database"),
        read_fvecs(args.train_queries),
        read_rows(args.eval_queries, "eval queries"),
    )
    failed = False
    for cell in report.cells:
        if cell.error is not None:
            failed = True
            print(f"{cell.method:8s} M={cell.num_blocks:<4d} FAILED: {cell.error}")
            continue
        name = "rel_err" if task_kind(cell.task) == SQDIST else "mse"
        value = "none" if cell.task_error is None else f"{cell.task_error:.6g}"
        line = (
            f"{cell.method:8s} M={cell.num_blocks:<4d} {name}={value} "
            f"bias={cell.mean_signed_error:+.3e}"
        )
        if cell.error_reduction_vs_opq_pct is not None:
            line += f" vs-opq={cell.error_reduction_vs_opq_pct:+.1f}%"
        print(line)
    if args.out_csv:
        write_report_csv(report, args.out_csv)
        print(f"wrote {args.out_csv}")
    if args.out_json:
        write_report_json(report, args.out_json)
        print(f"wrote {args.out_json}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairq",
        description="Query-aware vector compression and distance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="draw synthetic vectors to fvecs files")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--database-size", type=int, required=True)
    p.add_argument("--train-queries", type=int, required=True)
    p.add_argument("--eval-queries", type=int, required=True)
    p.add_argument("--db-decay", type=float, default=0.0,
                   help="log condition number of the database covariance")
    p.add_argument("--query-decay", type=float, default=0.0,
                   help="log condition number of the query covariance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a quantizer on a database")
    p.add_argument("--mode", choices=TASKS, required=True)
    p.add_argument("--method", choices=("opq", "pairq"), required=True)
    p.add_argument("--database", required=True, help="fvecs file")
    p.add_argument("--train-queries", help="fvecs file (required for pairq)")
    p.add_argument("--mse", action="store_true",
                   help="store the per-codeword error means "
                        "(only with --method opq --mode sqdist)")
    p.add_argument("-M", "--blocks", type=int, default=8,
                   help="number of code blocks (bytes per vector)")
    _add_common_training_flags(p)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("encode", help="compress a database with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--database", required=True)
    p.add_argument("--mode", choices=TASKS, required=True)
    p.add_argument("--out", required=True, help="output ivecs code file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("eval", help="score encoded vectors against queries")
    p.add_argument("--model", required=True)
    p.add_argument("--database", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--eval-queries", required=True)
    p.add_argument("--mode", choices=TASKS, required=True)
    p.add_argument("--bias-correct", action="store_true")
    p.add_argument("--max-pairs", type=int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write metrics JSON here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run a methods-by-blocks benchmark grid")
    p.add_argument("--task", choices=TASKS, default="scalar")
    p.add_argument("--methods", default="opq,pairq",
                   help="comma list from: opq, opq-bc, pairq")
    p.add_argument("--blocks", default="8", help="comma list of block counts")
    _add_common_training_flags(p)
    p.add_argument("--max-pairs", type=int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--database", required=True, help="fvecs file")
    p.add_argument("--train-queries", required=True, help="fvecs file")
    p.add_argument("--eval-queries", required=True, help="fvecs file")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
