"""The benchmark workloads and the phases they share.

Every workload runs the same six phases, each timed by the benchmark's own
clock, in one process with one client in a closed loop:

    setup     make the inputs from the seed (once first, then repeated in
              every serve slice; the median counts)
    train     fit the query transform, pairq, OPQ and, for squared
              distances, the error-mean table used for bias correction
              (repeated on workloads where it is short; the median counts)
    encode    compress the database
    roundtrip save_model followed by load_model for every model
    serve     score one query against all codes per call, cycling the
              methods in equal shares, for the run's seconds
    eval      pair metrics over the evaluation queries

The serve phase runs in slices between the eval repetitions and the
further encode passes, and each slice repeats the setup, so that those
timings sample a long stretch of the run instead of a few seconds of it.

Workloads differ in task, shape and entry point. ``train-scalar`` calls
the library; ``bench-sqdist`` hands its inputs over as fvecs files and
trains, encodes and evaluates through ``pairq.cli.main`` (the ``train``,
``encode``, ``eval`` and ``bench`` subcommands).

Each workload checks its outputs. A check is one operation; a failed check
fails the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import pairq
from pairq import cli

SCALAR = "scalar"
SQDIST = "sqdist"

# Loaded models hold float32 parameters; their estimates may differ from the
# in-memory model's by this share of the largest estimate.
FLOAT32_RTOL = 1e-5
# Error metrics of a float32-stored model and of the model it was saved
# from agree to this share; relative distance errors amplify rounding on
# small distances (1.6e-5 seen).
ERROR_RTOL = 1e-4
# Table scans and decode-then-dot agree to float64 rounding.
FLOAT64_RTOL = 1e-9
# Queries and code rows used by the equivalence checks.
CHECK_QUERIES = 3
CHECK_ROWS = 2000

# Setup repeats until both limits are reached, spread evenly over the serve
# slices; its median is reported.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
# Save/load round trips per run.
ROUNDTRIP_REPS = 30
# Database rows per encode call in the library workloads.
ENCODE_BATCH = 20_000
# The serve slices run at least this many calls in all, so that p99 has
# ten samples beyond it.
MIN_QUERIES = 1000

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9, 99.99)
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SUPPORT = 10


def highest_backed_percentile(num_samples: int) -> float | None:
    """Highest ladder percentile with TAIL_SUPPORT samples beyond it.

    None when even the lowest rung lacks support.
    """
    best = None
    for p in TAIL_LADDER:
        # Compare in hundredths of a percent so 99.9 is counted exactly.
        beyond_bp = round((100.0 - p) * 100)
        if num_samples * beyond_bp >= TAIL_SUPPORT * 10_000:
            best = p
    return best


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    dim: int
    num_database: int
    num_train_queries: int
    num_eval_queries: int
    database_decay: float
    query_decay: float
    blocks: int
    codebook: int
    outer_iters: int
    kmeans_iters: int
    # Leading database rows to train on (through the CLI: the rows of the
    # training file, which the eval and the grid also score); None trains
    # on all of them.
    train_rows: int | None = None
    # Training runs, encode passes and eval repetitions; the serve phase is
    # split into max(train_reps, encode_reps, eval_reps) slices between
    # them. A short phase is repeated so that one slow stretch of the
    # machine does not set its time.
    train_reps: int = 1
    encode_reps: int = 1
    eval_reps: int = 1
    # Non-empty: drive train/encode/eval through the CLI and run this
    # block-count grid with ``pairq bench``.
    grid_blocks: tuple[int, ...] = ()

    def spec(self):
        return pairq.SyntheticSpec(
            dim=self.dim,
            num_database=self.num_database,
            num_train_queries=self.num_train_queries,
            num_eval_queries=self.num_eval_queries,
            database_decay=self.database_decay,
            query_decay=self.query_decay,
        )

    @property
    def methods(self) -> tuple[str, ...]:
        return ("opq", "opq-bc", "pairq") if self.task == SQDIST else ("opq", "pairq")


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-scalar",
            task=SCALAR, dim=64, num_database=20_000, num_train_queries=1000,
            num_eval_queries=100, database_decay=1.5, query_decay=4.0,
            blocks=8, codebook=256, outer_iters=2, kmeans_iters=6,
            encode_reps=8, eval_reps=8,
        ),
        Workload(
            name="bench-sqdist",
            task=SQDIST, dim=128, num_database=40_000, num_train_queries=1500,
            num_eval_queries=80, database_decay=2.0, query_decay=4.5,
            blocks=8, codebook=64, outer_iters=2, kmeans_iters=8,
            train_rows=10_000, train_reps=3, encode_reps=6, eval_reps=2,
            grid_blocks=(4, 8),
        ),
    )
}

# name -> (unit, better), in the order the untraced run prints them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "encode_vps": ("1/s", "higher"),
    "scan_pairs_per_s": ("1/s", "higher"),
    "eval_s": ("s", "lower"),
    "pairq_error": ("1", "lower"),
    "opq_error": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class _Timing:
    seconds = 0.0


@dataclass
class Outcome:
    """Everything one pass over a workload measured and checked."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    operations: int = 0
    scanned_pairs: int = 0
    quality: dict[str, dict] = field(default_factory=dict)
    grid: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.checks)

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def work_s(self) -> float:
        """Summed time of every timed operation."""
        return sum(sum(self.samples[p]) for p in
                   ("setup", "train", "encode", "roundtrip", "query", "eval"))


class _Recorder:
    """Phase clock and check ledger for one pass, with an optional tracer."""

    def __init__(self, tracer=None):
        self.out = Outcome()
        self.tracer = tracer

    @contextlib.contextmanager
    def timed(self, phase: str):
        timing = _Timing()
        span = self.tracer.span("phase." + phase) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            yield timing
            timing.seconds = time.perf_counter() - t0
        self.out.samples[phase].append(timing.seconds)
        self.out.operations += 1

    def quiet(self):
        """Benchmark bookkeeping that calls pairq but is no workload step."""
        return self.tracer.muted() if self.tracer else contextlib.nullcontext()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.out.checks.append((name, bool(ok), detail))


def _max_rel_diff(a, b) -> float:
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def _decoded_estimates(scorer, q, codes, kind):
    """Estimates by decoding the codes and scoring the reconstruction."""
    if isinstance(scorer, pairq.PairQModel):
        opq = scorer.opq
        r_rot = opq.rotation @ pairq.pairq_query_vector(scorer, q)
        est = pairq.pq_decode(opq.codebook, codes) @ r_rot
        return est + q @ q if kind == SQDIST else est
    opq = scorer.opq if isinstance(scorer, pairq.BiasCorrected) else scorer
    z = pairq.opq_decode(opq, codes, rotated=True)
    q_rot = opq.rotation @ np.pad(q, (0, opq.dim - q.shape[0]))
    if kind == SCALAR:
        return z @ q_rot
    est = np.einsum("ij,ij->i", z - q_rot, z - q_rot)
    if isinstance(scorer, pairq.BiasCorrected):
        blocks = np.arange(codes.shape[1])
        est = est + scorer.mse.values[blocks, codes.astype(np.int64)].sum(axis=1)
    return est


def _scorers(w, pairq_model, opq_model, mse):
    out = {"opq": opq_model, "pairq": pairq_model}
    if w.task == SQDIST:
        out["opq-bc"] = pairq.BiasCorrected(opq=opq_model, mse=mse)
    return out


def _check_same_scores(rec, w, label, served, reference, codes, queries):
    """Loaded models must score like the models they were saved from."""
    with rec.quiet():
        for method in w.methods:
            c = codes[method][:CHECK_ROWS]
            worst = max(
                _max_rel_diff(
                    pairq.estimate_batch(served[method], q, c, w.task),
                    pairq.estimate_batch(reference[method], q, c, w.task),
                )
                for q in queries[:CHECK_QUERIES]
            )
            rec.check(f"{label} {method}", worst <= FLOAT32_RTOL, f"max rel diff {worst:.3g}")


# --------------------------------------------------------------------- api


def _api_pipeline(w, seed, rec, workdir):
    def setup():
        with rec.timed("setup"):
            return pairq.gen_synthetic(w.spec(), seed=seed)

    data = setup()
    x_train = data.database[: w.train_rows]
    opts = dict(outer_iters=w.outer_iters, kmeans_iters=w.kmeans_iters, seed=0)
    learn = pairq.learn_sqdist_transform if w.task == SQDIST else pairq.learn_scalar_transform

    def train():
        with rec.timed("train"):
            pairq_model = pairq.train_pairq(
                learn(data.train_queries), x_train, w.blocks, w.codebook, **opts
            )
            opq_model = pairq.train_opq(x_train, w.blocks, w.codebook, pad=True, **opts)
            mse = pairq.compute_mse_table(opq_model, x_train) if w.task == SQDIST else None
        return pairq_model, opq_model, mse

    pairq_model, opq_model, mse = train()

    def encode():
        codes = {}
        for method, encoder, model in (
            ("pairq", pairq.pairq_encode, pairq_model),
            ("opq", pairq.opq_encode, opq_model),
        ):
            parts = []
            for start in range(0, len(data.database), ENCODE_BATCH):
                batch = data.database[start : start + ENCODE_BATCH]
                with rec.timed("encode") as t:
                    parts.append(encoder(model, batch))
                rec.out.samples["encode_vps"].append(len(batch) / t.seconds)
            codes[method] = np.concatenate(parts)
        codes["opq-bc"] = codes["opq"]
        return codes

    codes = encode()

    pairq_path = os.path.join(workdir, "pairq.model")
    opq_path = os.path.join(workdir, "opq.model")
    for _ in range(ROUNDTRIP_REPS):
        with rec.timed("roundtrip"):
            pairq.save_model(pairq_path, pairq_model)
            loaded_pairq, _ = pairq.load_model(pairq_path)
            pairq.save_model(opq_path, opq_model, mse_table=mse)
            loaded_opq, loaded_mse = pairq.load_model(opq_path)
    in_memory = _scorers(w, pairq_model, opq_model, mse)
    served = _scorers(w, loaded_pairq, loaded_opq, loaded_mse)
    _check_same_scores(rec, w, "loaded model scores like in-memory", served,
                       in_memory, codes, data.eval_queries)

    def evaluate():
        with rec.timed("eval"):
            stats = {
                m: pairq.evaluate_method(
                    in_memory[m], w.task, data.eval_queries, data.database,
                    codes[m], seed=0,
                )
                for m in w.methods
            }
        for m, s in stats.items():
            rec.out.quality[m] = {
                "error": s.mse if w.task == SCALAR else s.mean_rel_error,
                "mse": s.mse,
                "mean_signed_error": s.mean_signed_error,
                "mean_rel_error": s.mean_rel_error,
                "num_pairs": s.num_pairs,
                "excluded_pairs": s.excluded_pairs,
            }

    return data, served, codes, setup, train, encode, evaluate


# --------------------------------------------------------------------- cli


def _cli(rec, argv) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    rec.check(f"pairq {argv[0]} exits 0", code == 0, out.getvalue()[-400:])


def _cli_pipeline(w, seed, rec, workdir):
    files = {
        name: os.path.join(workdir, f"{name}.fvecs")
        for name in ("database", "train_queries", "eval_queries", "train_database")
    }

    def setup():
        with rec.timed("setup"):
            generated = pairq.gen_synthetic(w.spec(), seed=seed)
            for name, path in files.items():
                if name == "train_database":
                    pairq.write_fvecs(path, generated.database[: w.train_rows])
                else:
                    pairq.write_fvecs(path, getattr(generated, name))

    setup()
    with rec.quiet():
        # What the CLI sees: the float32 records just written.
        data = pairq.SyntheticData(
            *(pairq.read_fvecs(files[n]).astype(np.float64)
              for n in ("database", "train_queries", "eval_queries"))
        )
    db, tq, eq = files["database"], files["train_queries"], files["eval_queries"]
    train_db = files["train_database"]
    common = [
        "-M", str(w.blocks), "-K", str(w.codebook),
        "--outer-iters", str(w.outer_iters), "--kmeans-iters", str(w.kmeans_iters),
        "--seed", "0",
    ]
    model_paths = {m: os.path.join(workdir, f"{m}.model") for m in ("pairq", "opq")}
    code_paths = {m: os.path.join(workdir, f"{m}.codes.ivecs") for m in ("pairq", "opq")}
    train_code_paths = {m: os.path.join(workdir, f"{m}.train-codes.ivecs") for m in model_paths}
    mse_flag = ["--mse"] if w.task == SQDIST else []

    def train():
        with rec.timed("train"):
            _cli(rec, ["train", "--mode", w.task, "--method", "pairq", "--database", train_db,
                       "--train-queries", tq, *common, "--out", model_paths["pairq"]])
            _cli(rec, ["train", "--mode", w.task, "--method", "opq", "--database", train_db,
                       *mse_flag, *common, "--out", model_paths["opq"]])

    train()

    def encode():
        for m in ("pairq", "opq"):
            with rec.timed("encode") as t:
                _cli(rec, ["encode", "--model", model_paths[m], "--database", db,
                           "--mode", w.task, "--out", code_paths[m]])
            rec.out.samples["encode_vps"].append(len(data.database) / t.seconds)

    encode()
    with rec.quiet():
        # The eval and the grid score the training file, whose codes these are.
        for m in model_paths:
            _cli(rec, ["encode", "--model", model_paths[m], "--database", train_db,
                       "--mode", w.task, "--out", train_code_paths[m]])
        trained = {m: pairq.load_model(p) for m, p in model_paths.items()}
        codes = {m: pairq.read_ivecs(p) for m, p in code_paths.items()}
    codes["opq-bc"] = codes["opq"]
    copies = {m: os.path.join(workdir, f"{m}.copy.model") for m in model_paths}
    for _ in range(ROUNDTRIP_REPS):
        with rec.timed("roundtrip"):
            loaded = {}
            for m, (model, mse) in trained.items():
                pairq.save_model(copies[m], model, mse_table=mse)
                loaded[m] = pairq.load_model(copies[m])
    reference = _scorers(w, trained["pairq"][0], *trained["opq"])
    served = _scorers(w, loaded["pairq"][0], *loaded["opq"])
    _check_same_scores(rec, w, "re-saved model scores like the CLI's", served,
                       reference, codes, data.eval_queries)

    def evaluate():
        eval_json = {m: os.path.join(workdir, f"{m}.eval.json") for m in w.methods}
        grid_csv = os.path.join(workdir, "grid.csv")
        with rec.timed("eval"):
            for m in w.methods:
                base = "pairq" if m == "pairq" else "opq"
                extra = ["--bias-correct"] if m == "opq-bc" else []
                _cli(rec, ["eval", "--model", model_paths[base], "--database", train_db,
                           "--codes", train_code_paths[base], "--eval-queries", eq,
                           "--mode", w.task, "--seed", "0", *extra,
                           "--out", eval_json[m]])
            _cli(rec, ["bench", "--task", w.task, "--methods", ",".join(w.methods),
                       "--blocks", ",".join(map(str, w.grid_blocks)),
                       "-K", str(w.codebook), "--outer-iters", str(w.outer_iters),
                       "--kmeans-iters", str(w.kmeans_iters), "--seed", "0",
                       "--database", train_db, "--train-queries", tq,
                       "--eval-queries", eq, "--out-csv", grid_csv,
                       "--out-json", os.path.join(workdir, "grid.json")])
        for m in w.methods:
            with open(eval_json[m]) as fh:
                s = json.load(fh)
            rec.out.quality[m] = {
                "error": s["mse"] if w.task == SCALAR else s["mean_rel_error"],
                **{k: s[k] for k in ("mse", "mean_signed_error", "mean_rel_error",
                                     "num_pairs", "excluded_pairs")},
            }
        with open(grid_csv, newline="") as fh:
            rec.out.grid = list(csv.DictReader(fh))
        _check_grid(rec, w)

    return data, served, codes, setup, train, encode, evaluate


def _check_grid(rec, w):
    column = "scalar_mse" if w.task == SCALAR else "rel_dist_error"
    cells = {(c["method"], int(c["num_blocks"])): c for c in rec.out.grid}

    def error(method, blocks):
        return float(cells.get((method, blocks), {}).get(column) or "nan")

    rec.check("bench grid has every cell",
              len(cells) == len(w.methods) * len(w.grid_blocks), f"{len(cells)} cells")
    for c in rec.out.grid:
        rec.check(f"bench cell {c['method']} M={c['num_blocks']} has no error",
                  not c["error"], c["error"])
    ranking = [m for m in ("pairq", "opq-bc", "opq") if m in w.methods]
    for blocks in w.grid_blocks:
        errs = [error(m, blocks) for m in ranking]
        rec.check(f"bench M={blocks}: {' < '.join(ranking)}",
                  all(a < b for a, b in zip(errs, errs[1:])), repr(errs))
    for m in w.methods:
        # Same data, seed and settings as the CLI-trained models, which are
        # stored at float32, so the grid must reproduce their error closely.
        grid, cli_err = error(m, w.blocks), rec.out.quality[m]["error"]
        rec.check(f"bench M={w.blocks} {m} matches pairq eval",
                  abs(grid - cli_err) <= ERROR_RTOL * abs(cli_err),
                  f"{grid!r} vs {cli_err!r}")


# ----------------------------------------------------------------- shared


def _serve(rec, w, calls, queries, seconds, min_calls, start):
    """Closed loop: one estimate_batch call per (query, method), methods in
    turn, from query ``start`` on, for ``seconds`` and at least
    ``min_calls`` calls. Returns the rounds run."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done * len(calls) < min_calls or time.perf_counter() < deadline:
        q = queries[(start + done) % len(queries)]
        for m, scorer, c in calls:
            with rec.timed("query"):
                pairq.estimate_batch(scorer, q, c, w.task)
            rec.out.scanned_pairs += len(c)
        done += 1
    return done


def _check_scan_matches_decode(rec, w, calls, queries):
    with rec.quiet():
        for m, scorer, c in calls:
            c = c[:CHECK_ROWS]
            worst = max(
                _max_rel_diff(pairq.estimate_batch(scorer, q, c, w.task),
                              _decoded_estimates(scorer, q, c, w.task))
                for q in queries[:CHECK_QUERIES]
            )
            rec.check(f"table scan matches decode-then-dot {m}",
                      worst <= FLOAT64_RTOL, f"max rel diff {worst:.3g}")


def run_workload(w: Workload, seed: int, seconds: float, workdir: str,
                 tracer=None) -> Outcome:
    """One pass over the workload's phases.

    After the first encode pass and the roundtrip, the serve phase runs in
    slices interleaved with the eval repetitions, the further training runs
    and encode passes and repeats of the setup, so that these timings sample the whole run
    rather than one stretch of it.
    """
    rec = _Recorder(tracer)
    pipeline = _cli_pipeline if w.grid_blocks else _api_pipeline
    data, served, codes, setup, train, encode, evaluate = pipeline(w, seed, rec, workdir)
    calls = [(m, served[m], codes[m]) for m in w.methods]
    slices = max(w.train_reps, w.encode_reps, w.eval_reps)
    min_calls = -(-MIN_QUERIES // slices)
    min_setups = -(-SETUP_MIN_REPS // slices)
    done = 0
    for i in range(slices):
        setups = rec.out.samples["setup"]
        first = len(setups)
        while len(setups) - first < min_setups or sum(setups[first:]) < SETUP_MIN_S / slices:
            setup()
        rounds = _serve(rec, w, calls, data.eval_queries, seconds / slices, min_calls, done)
        done += rounds
        if i < w.eval_reps:
            evaluate()
        if i + 1 < w.encode_reps:
            encode()
        if i + 1 < w.train_reps:
            train()
    _check_scan_matches_decode(rec, w, calls, data.eval_queries)

    quality = rec.out.quality
    rec.check("pairq error below opq", quality["pairq"]["error"] < quality["opq"]["error"],
              f"{quality['pairq']['error']!r} vs {quality['opq']['error']!r}")
    if w.task == SQDIST:
        bc, raw = (abs(quality[m]["mean_signed_error"]) for m in ("opq-bc", "opq"))
        rec.check("opq-bc |mean signed error| below opq", bc < raw, f"{bc!r} vs {raw!r}")
    return rec.out


def end_to_end_metrics(out: Outcome) -> dict[str, float]:
    s = out.samples
    query = s["query"]
    return {
        "setup_s": statistics.median(s["setup"]),
        "train_s": statistics.median(s["train"]),
        "encode_vps": statistics.median(s["encode_vps"]),
        "scan_pairs_per_s": out.scanned_pairs / sum(query),
        "eval_s": statistics.median(s["eval"]),
        "pairq_error": out.quality["pairq"]["error"],
        "opq_error": out.quality["opq"]["error"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def ungated_timings(out: Outcome) -> dict:
    """Timings too unsteady between runs on a shared 2-core machine to gate
    on, with the sample counts behind every timing."""
    query = out.samples["query"]
    tail = highest_backed_percentile(len(query))
    return {
        "samples": {k: len(v) for k, v in out.samples.items()},
        "phase_s": {k: sum(v) for k, v in out.samples.items() if k != "encode_vps"},
        "query_ms_p50": 1e3 * statistics.median(query),
        "query_tail_percentile": tail,
        "query_ms_tail": 1e3 * float(np.percentile(query, tail)) if tail else None,
        "model_roundtrip_ms": 1e3 * statistics.median(out.samples["roundtrip"]),
    }
