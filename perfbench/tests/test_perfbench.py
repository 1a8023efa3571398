"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import pairq
from perfbench import layers, workloads
from perfbench.spans import Span, Tracer, covered_length, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("child", 1.0, 6.0, 0),
        Span("grandchild", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [5.0, 4.0, 1.0]


def test_self_time_of_back_to_back_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 3.0, 7.0, 0),
        Span("next-root", 10.0, 12.0, None),
    ]
    assert self_times(spans) == [4.0, 2.0, 4.0, 2.0]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1.0, 4.0), (3.0, 5.0), (8.0, 20.0)], 0.0, 10.0) == 6.0
    assert covered_length([], 0.0, 10.0) == 0.0


@pytest.mark.parametrize(
    "samples, expected",
    [(99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert workloads.highest_backed_percentile(samples) == expected


def test_tracer_wraps_every_binding_and_restores_them():
    original = pairq.quantizer.kmeans
    tracer = Tracer()
    tracer.install(pairq, {"quantizer.kmeans": layers.TARGETS["quantizer.kmeans"],
                           "quantizer.train_pq": None})
    try:
        assert pairq.kmeans is pairq.quantizer.kmeans is not original
        x = pairq.gen_synthetic(pairq.SyntheticSpec(8, 200, 1, 1), seed=0).database
        with tracer.span("outer"):
            pairq.train_pq(x, num_blocks=2, codebook_size=4, kmeans_iters=3)
        with tracer.muted():
            pairq.kmeans(x, 4)
    finally:
        tracer.uninstall()
    assert pairq.kmeans is pairq.quantizer.kmeans is original
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "quantizer.train_pq", "quantizer.kmeans", "quantizer.kmeans"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert tracer.counts["blocks"] == 2
    assert 2 <= tracer.counts["lloyd_iters"] <= 6


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# Small shapes at which every workload check still holds.
TINY = {
    "train-scalar": dict(dim=16, num_database=2000, num_train_queries=200,
                         num_eval_queries=20, codebook=32, outer_iters=1,
                         kmeans_iters=4),
    "bench-sqdist": dict(dim=24, num_database=4000, num_train_queries=300,
                         num_eval_queries=20, codebook=16, outer_iters=1,
                         kmeans_iters=4, train_rows=2000),
}


def _tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", list(TINY))
def test_workload_smoke_run_passes_its_checks(name, tmp_path):
    out = workloads.run_workload(_tiny(name), seed=3, seconds=0.0, workdir=str(tmp_path))
    assert out.checks and out.failed == 0, [c for c in out.checks if not c[1]]
    metrics = workloads.end_to_end_metrics(out)
    assert list(metrics) == list(workloads.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    assert len(out.samples["query"]) >= workloads.MIN_QUERIES
    assert len(out.samples["setup"]) >= workloads.SETUP_MIN_REPS
    assert sum(out.samples["setup"]) >= workloads.SETUP_MIN_S


def test_traced_pass_reports_every_layer(tmp_path):
    w = _tiny("bench-sqdist")
    tracer = Tracer()
    tracer.install(pairq, layers.TARGETS)
    try:
        traced = workloads.run_workload(w, seed=3, seconds=0.0,
                                        workdir=str(tmp_path), tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.failed == 0
    metrics = layers.layer_metrics(tracer, traced.work_s)
    assert list(metrics) == list(layers.PER_LAYER)
    for module in layers.MODULES[:-1]:
        assert metrics[f"{module}.self_s"] > 0, module
    assert metrics["cli.main_self_s"] > 0
    # One grid of 2 block counts x 3 methods per eval repetition.
    assert metrics["experiment.cells_attempted"] == w.eval_reps * 2 * 3
    assert metrics["experiment.cells_failed"] == 0
    assert 0 < metrics["trace.overhead_pct"] < 100


def test_tracer_cost_covers_hooks_and_excludes_the_call():
    tracer = Tracer()

    def slow_hook(tracer, span, args, kwargs, result):
        time.sleep(0.02)

    traced = tracer._wrap("quantizer.kmeans", lambda: time.sleep(0.05), slow_hook)
    traced()
    assert 0.02 <= tracer.bookkeeping_s < 0.05
    assert tracer.spans[0].duration >= 0.05


def test_run_fails_without_pairq_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
