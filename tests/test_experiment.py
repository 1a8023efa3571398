"""Tests for the benchmark runner, report files, and the CLI."""

import csv
import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from pairq import experiment, metrics
from pairq.cli import build_parser, main
from pairq.datasets import (
    SyntheticSpec,
    gen_synthetic,
    read_fvecs,
    read_ivecs,
    write_fvecs,
)
from pairq.estimator import BiasCorrected, compute_mse_table
from pairq.experiment import (
    ExperimentConfig,
    fit_method,
    normalize_rows,
    run_experiment,
    write_report_csv,
    write_report_json,
)
from pairq.metrics import DEFAULT_PAIR_BUDGET, evaluate_method, true_values
from pairq.quantizer import kmeans, train_opq, train_pq
from pairq.serialize import save_model
from pairq.transform import train_pairq


def tiny_spec(**kw):
    defaults = dict(dim=8, num_database=400, num_train_queries=200,
                    num_eval_queries=16, database_decay=1.5, query_decay=3.0)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def tiny_config(**kw):
    defaults = dict(
        task="scalar",
        methods=("opq", "pairq"),
        block_counts=(2,),
        codebook_size=8,
        outer_iters=1,
        kmeans_iters=8,
        seed=0,
        synthetic=tiny_spec(),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def cell_rows(report):
    """Every cell's fields but its timings, keyed by (method, block count)."""
    rows = {}
    for cell in report.cells:
        row = dataclasses.asdict(cell)
        del row["timings"]
        rows[(cell.method, cell.num_blocks)] = row
    return rows


class TestConfigValidation:
    def test_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            run_experiment(tiny_config(task="l1"))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            run_experiment(tiny_config(methods=("opq", "aq")))

    def test_bias_correction_needs_sqdist(self):
        with pytest.raises(ValueError, match="sqdist"):
            run_experiment(tiny_config(methods=("opq-bc",)))

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="synthetic spec or"):
            run_experiment(tiny_config(synthetic=None))
        with pytest.raises(ValueError, match="not both"):
            run_experiment(tiny_config(database_path="x.fvecs"))

    def test_rejects_duplicate_methods_and_block_counts(self):
        with pytest.raises(ValueError, match="methods lists 'opq' twice"):
            run_experiment(tiny_config(methods=("opq", "pairq", "opq")))
        with pytest.raises(ValueError, match="block_counts lists 4 twice"):
            run_experiment(tiny_config(block_counts=(2, 4, 4)))

    @pytest.mark.parametrize("block_counts", [(0,), (2, -2)])
    def test_rejects_block_counts_below_one(self, block_counts):
        with pytest.raises(ValueError, match="num_blocks must be >= 1"):
            run_experiment(tiny_config(block_counts=block_counts))

    @pytest.mark.parametrize("field, value, message", [
        ("codebook_size", 0, "codebook_size must be in"),
        ("codebook_size", 257, "codebook_size must be in"),
        ("outer_iters", -1, "outer_iters must be >= 0"),
        ("kmeans_iters", 0, "kmeans_iters must be >= 1"),
        ("max_pairs", 0, "max_pairs must be >= 1"),
    ])
    def test_rejects_out_of_range_training_and_budget(
        self, monkeypatch, field, value, message
    ):
        def untrainable(*args, **kwargs):
            raise AssertionError("trained a model for an invalid config")

        monkeypatch.setattr(experiment, "train_opq", untrainable)
        monkeypatch.setattr(experiment, "train_pairq", untrainable)
        with pytest.raises(ValueError, match=message):
            run_experiment(tiny_config(**{field: value}))


class TestRunExperiment:
    def test_scalar_grid(self):
        report = run_experiment(tiny_config(block_counts=(2, 4)))
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.error is None
            assert cell.scalar_mse is not None and cell.scalar_mse > 0
            assert cell.rel_dist_error is None
            assert cell.num_pairs == 16 * 400
        assert "eval" in report.timings
        pairq_cell = report.cell("pairq", 2)
        assert pairq_cell.error_reduction_vs_opq_pct is not None
        assert report.query_moment_condition > 2.0

    @pytest.mark.parametrize("task, methods", [
        ("scalar", ("pairq", "opq")),
        ("sqdist", ("pairq", "opq-bc", "opq")),
    ])
    def test_baseline_does_not_depend_on_method_order(self, task, methods):
        # Each block count's reductions come from its own opq cell, so a
        # method listed before opq gets one too.
        config = tiny_config(task=task, methods=methods, block_counts=(2, 4))
        rows = cell_rows(run_experiment(config))
        opq_first = ("opq",) + tuple(m for m in methods if m != "opq")
        assert rows == cell_rows(run_experiment(
            dataclasses.replace(config, methods=opq_first)
        ))
        for (method, _), row in rows.items():
            filled = row["error_reduction_vs_opq_pct"] is not None
            assert filled == (method != "opq")

    def test_sqdist_grid_with_bias_correction(self):
        report = run_experiment(
            tiny_config(task="sqdist", methods=("opq", "opq-bc", "pairq"))
        )
        assert len(report.cells) == 3
        for cell in report.cells:
            assert cell.error is None, cell.error
            assert cell.scalar_mse is None
            assert cell.rel_dist_error is not None
        raw = report.cell("opq", 2)
        corrected = report.cell("opq-bc", 2)
        # Correction removes most of the negative bias.
        assert abs(corrected.mean_signed_error) < abs(raw.mean_signed_error)
        assert raw.mean_signed_error < 0

    def test_cosine_task_normalizes(self):
        report = run_experiment(tiny_config(task="cosine", methods=("opq",)))
        cell = report.cells[0]
        assert cell.error is None
        # Cosine values live in [-1, 1]; the squared error must too.
        assert cell.scalar_mse < 1.0

    def test_failed_cell_is_isolated(self):
        # No training queries: the transform cannot be learned, so pairq
        # cells fail while the plain quantizer cells survive.
        config = tiny_config(synthetic=tiny_spec(num_train_queries=0))
        report = run_experiment(config)
        opq_cell = report.cell("opq", 2)
        pairq_cell = report.cell("pairq", 2)
        assert opq_cell.error is None
        assert opq_cell.scalar_mse is not None
        assert pairq_cell.error is not None
        assert "query" in pairq_cell.error
        assert opq_cell.error_reduction_vs_opq_pct is None
        assert pairq_cell.error_reduction_vs_opq_pct is None

    def test_no_reduction_without_a_working_opq_cell(self, monkeypatch):
        report = run_experiment(tiny_config(methods=("pairq",)))
        assert report.cell("pairq", 2).error_reduction_vs_opq_pct is None

        def broken(*args, **kwargs):
            raise RuntimeError("no opq model")

        monkeypatch.setattr(experiment, "train_opq", broken)
        report = run_experiment(tiny_config(methods=("pairq", "opq")))
        assert "no opq model" in report.cell("opq", 2).error
        pairq_cell = report.cell("pairq", 2)
        assert pairq_cell.error is None
        assert pairq_cell.error_reduction_vs_opq_pct is None

    def test_failure_in_the_shared_pass_is_recorded_on_every_scored_cell(
        self, monkeypatch
    ):
        # pairq cannot learn a transform without training queries, so only
        # the opq cells reach the evaluation pass, which then raises.
        def broken(*args, **kwargs):
            raise RuntimeError("scan broke")

        monkeypatch.setattr(metrics, "estimate_batch", broken)
        config = tiny_config(synthetic=tiny_spec(num_train_queries=0),
                             block_counts=(2, 4))
        report = run_experiment(config)
        for num_blocks in (2, 4):
            opq_cell = report.cell("opq", num_blocks)
            pairq_cell = report.cell("pairq", num_blocks)
            assert opq_cell.error == "RuntimeError: scan broke"
            assert "train_encode" in opq_cell.timings
            assert "query" in pairq_cell.error
            for cell in (opq_cell, pairq_cell):
                assert cell.scalar_mse is None and cell.num_pairs is None
                assert cell.error_reduction_vs_opq_pct is None
        assert "eval" in report.timings

    def test_grid_computes_exact_values_once_per_eval_query(self, monkeypatch):
        calls = []

        def counted(query, database, kind):
            calls.append(kind)
            return true_values(query, database, kind)

        monkeypatch.setattr(metrics, "true_values", counted)
        report = run_experiment(tiny_config(
            task="sqdist", methods=("opq", "opq-bc", "pairq"),
            block_counts=(2, 4),
        ))
        assert [c.error for c in report.cells] == [None] * 6
        assert calls == ["sqdist"] * tiny_spec().num_eval_queries

    def test_grid_cells_match_separate_evaluations(self):
        # One shared pass gives each cell the stats evaluate_method gives
        # its model alone, on both the all-pairs and the sampled path.
        data = gen_synthetic(tiny_spec(), seed=0)
        for max_pairs in (DEFAULT_PAIR_BUDGET, 1000):
            report = run_experiment(tiny_config(
                task="sqdist", methods=("opq", "opq-bc", "pairq"),
                max_pairs=max_pairs,
            ))
            opq = fit_method("sqdist", "opq", data.database, None, 2, 8,
                             outer_iters=1, kmeans_iters=8)
            pair = fit_method("sqdist", "pairq", data.database,
                              data.train_queries, 2, 8, outer_iters=1,
                              kmeans_iters=8)
            bc = BiasCorrected(opq=opq, mse=compute_mse_table(opq, data.database))
            for method, scorer, model in (("opq", opq, opq), ("opq-bc", bc, opq),
                                          ("pairq", pair, pair)):
                stats = evaluate_method(
                    scorer, "sqdist", data.eval_queries, data.database,
                    experiment.encode(model, data.database), max_pairs=max_pairs,
                )
                cell = report.cell(method, 2)
                assert cell.num_pairs == stats.num_pairs
                assert cell.rel_dist_error == stats.mean_rel_error
                assert cell.mean_signed_error == stats.mean_signed_error
                assert cell.excluded_pairs == stats.excluded_pairs

    def test_file_based_run(self, tmp_path):
        data = gen_synthetic(tiny_spec(), seed=3)
        db = str(tmp_path / "db.fvecs")
        tq = str(tmp_path / "tq.fvecs")
        eq = str(tmp_path / "eq.fvecs")
        write_fvecs(db, data.database)
        write_fvecs(tq, data.train_queries)
        write_fvecs(eq, data.eval_queries)
        config = tiny_config(synthetic=None, database_path=db,
                             train_queries_path=tq, eval_queries_path=eq)
        report = run_experiment(config)
        assert all(c.error is None for c in report.cells)


class TestFitMethod:
    def test_rejects_what_it_does_not_train(self):
        data = gen_synthetic(tiny_spec(), seed=0)
        args = (data.database, data.train_queries, 2, 8)
        with pytest.raises(ValueError, match="opq-bc"):
            fit_method("sqdist", "opq-bc", *args)
        with pytest.raises(ValueError, match="'aq'"):
            fit_method("scalar", "aq", *args)
        with pytest.raises(ValueError, match="task"):
            fit_method("l1", "opq", *args)

    def test_grid_trains_opq_once_per_block_count(self, monkeypatch):
        # opq and opq-bc share one OPQ model per block count.
        calls = {"opq": 0, "pairq": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiment, "train_opq",
                            counted("opq", experiment.train_opq))
        monkeypatch.setattr(experiment, "train_pairq",
                            counted("pairq", experiment.train_pairq))
        report = run_experiment(tiny_config(
            task="sqdist", methods=("opq", "opq-bc", "pairq"),
            block_counts=(2, 4),
        ))
        assert all(c.error is None for c in report.cells)
        assert calls == {"opq": 2, "pairq": 2}


class TestReportFiles:
    def test_csv_is_byte_identical_across_reruns(self, tmp_path):
        config = tiny_config()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_report_csv(run_experiment(config), a)
        write_report_csv(run_experiment(config), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(run_experiment(tiny_config()), path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["method"] == "opq"
        assert rows[1]["method"] == "pairq"
        assert float(rows[0]["scalar_mse"]) > 0
        assert rows[0]["rel_dist_error"] == ""
        assert int(rows[0]["bytes_per_vector"]) == 2
        assert float(rows[0]["compression_ratio"]) == 16.0

    def test_json_sidecar_holds_config_and_timings(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(run_experiment(tiny_config()), path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["config"]["task"] == "scalar"
        assert payload["config"]["synthetic"]["dim"] == 8
        assert payload["environment"]["numpy"] == np.__version__
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert cell["timings"]["train_encode"] > 0
        assert payload["timings"]["eval"] > 0


@pytest.fixture
def workdir(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


def run_cli(*args):
    return main([str(a) for a in args])


class TestCli:
    def test_synth_writes_three_files(self, workdir, capsys):
        code = run_cli("synth", "--dim", 6, "--database-size", 50,
                       "--train-queries", 30, "--eval-queries", 10,
                       "--query-decay", 2.0, "--seed", 1, "--out-dir", "data")
        assert code == 0
        for name in ("database", "train_queries", "eval_queries"):
            assert os.path.exists(f"data/{name}.fvecs")
        out = capsys.readouterr().out
        assert "database.fvecs (50 x 6)" in out

    def test_full_workflow_scalar(self, workdir, capsys):
        run_cli("synth", "--dim", 8, "--database-size", 300,
                "--train-queries", 200, "--eval-queries", 12,
                "--query-decay", 3.0, "--out-dir", "data")
        code = run_cli(
            "train", "--mode", "scalar", "--method", "pairq",
            "--database", "data/database.fvecs",
            "--train-queries", "data/train_queries.fvecs",
            "-M", 2, "-K", 8, "--outer-iters", 1, "--kmeans-iters", 8,
            "--out", "model.pairq",
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out
        code = run_cli("encode", "--model", "model.pairq",
                       "--database", "data/database.fvecs",
                       "--mode", "scalar", "--out", "codes.ivecs")
        assert code == 0
        codes = read_ivecs("codes.ivecs")
        assert codes.shape == (300, 2)
        code = run_cli("eval", "--model", "model.pairq",
                       "--database", "data/database.fvecs",
                       "--codes", "codes.ivecs",
                       "--eval-queries", "data/eval_queries.fvecs",
                       "--mode", "scalar", "--out", "metrics.json")
        assert code == 0
        with open("metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["kind"] == "scalar"
        assert metrics["num_pairs"] == 12 * 300
        assert metrics["mse"] > 0

    def test_sqdist_workflow_with_bias_correction(self, workdir):
        run_cli("synth", "--dim", 6, "--database-size", 200,
                "--train-queries", 100, "--eval-queries", 8,
                "--out-dir", "data")
        code = run_cli(
            "train", "--mode", "sqdist", "--method", "opq", "--mse",
            "--database", "data/database.fvecs",
            "-M", 2, "-K", 8, "--outer-iters", 1, "--kmeans-iters", 8,
            "--out", "opq.pairq",
        )
        assert code == 0
        run_cli("encode", "--model", "opq.pairq",
                "--database", "data/database.fvecs",
                "--mode", "sqdist", "--out", "codes.ivecs")
        code = run_cli("eval", "--model", "opq.pairq",
                       "--database", "data/database.fvecs",
                       "--codes", "codes.ivecs",
                       "--eval-queries", "data/eval_queries.fvecs",
                       "--mode", "sqdist", "--bias-correct",
                       "--out", "m.json")
        assert code == 0
        with open("m.json") as fh:
            corrected = json.load(fh)
        run_cli("eval", "--model", "opq.pairq",
                "--database", "data/database.fvecs",
                "--codes", "codes.ivecs",
                "--eval-queries", "data/eval_queries.fvecs",
                "--mode", "sqdist", "--out", "raw.json")
        with open("raw.json") as fh:
            raw = json.load(fh)
        assert abs(corrected["mean_signed_error"]) < abs(raw["mean_signed_error"])

    def test_train_pairq_requires_queries(self, workdir, capsys):
        run_cli("synth", "--dim", 4, "--database-size", 50,
                "--train-queries", 10, "--eval-queries", 5, "--out-dir", "d")
        code = run_cli("train", "--mode", "scalar", "--method", "pairq",
                       "--database", "d/database.fvecs", "--out", "m.pairq")
        assert code == 2
        assert "train-queries" in capsys.readouterr().err

    @pytest.mark.parametrize("task, method, mse", [
        ("scalar", "opq", False), ("scalar", "pairq", False),
        ("cosine", "opq", False), ("cosine", "pairq", False),
        ("sqdist", "opq", False), ("sqdist", "pairq", False),
        ("sqdist", "opq", True),
    ])
    def test_train_writes_the_fit_method_model(self, workdir, task, method, mse):
        # Dimension 7 pads for two blocks; the lifted sqdist pairq space
        # (dimension 8) does not.
        run_cli("synth", "--dim", 7, "--database-size", 120,
                "--train-queries", 60, "--eval-queries", 4,
                "--query-decay", 2.0, "--out-dir", "d")
        code = run_cli("train", "--mode", task, "--method", method,
                       *(["--mse"] if mse else []),
                       "--database", "d/database.fvecs",
                       "--train-queries", "d/train_queries.fvecs",
                       "-M", 2, "-K", 4, "--outer-iters", 1,
                       "--kmeans-iters", 5, "--seed", 3, "--out", "cli.pairq")
        assert code == 0
        db, tq = (read_fvecs(f"d/{n}.fvecs").astype(np.float64)
                  for n in ("database", "train_queries"))
        if task == "cosine":
            db, tq = normalize_rows(db), normalize_rows(tq)
        model = fit_method(task, method, db, tq, 2, 4, outer_iters=1,
                           kmeans_iters=5, seed=3)
        table = compute_mse_table(model, db) if mse else None
        save_model("api.pairq", model, mse_table=table)
        with open("cli.pairq", "rb") as a, open("api.pairq", "rb") as b:
            assert a.read() == b.read()

    def test_train_rejects_mse_for_pairq(self, workdir, capsys):
        run_cli("synth", "--dim", 4, "--database-size", 50,
                "--train-queries", 20, "--eval-queries", 5, "--out-dir", "d")
        code = run_cli("train", "--mode", "sqdist", "--method", "pairq",
                       "--mse", "--database", "d/database.fvecs",
                       "--train-queries", "d/train_queries.fvecs",
                       "-M", 2, "-K", 4, "--out", "m.pairq")
        assert code == 2
        assert "--mse" in capsys.readouterr().err
        assert not os.path.exists("m.pairq")

    def test_train_checks_mse_before_reading_files(self, workdir, capsys):
        code = run_cli("train", "--mode", "scalar", "--method", "opq", "--mse",
                       "--database", "missing.fvecs", "--out", "m.pairq")
        assert code == 2
        err = capsys.readouterr().err
        assert "--mse" in err
        assert "missing.fvecs" not in err

    def test_eval_mode_mismatch(self, workdir, capsys):
        run_cli("synth", "--dim", 4, "--database-size", 60,
                "--train-queries", 40, "--eval-queries", 5, "--out-dir", "d")
        run_cli("train", "--mode", "scalar", "--method", "pairq",
                "--database", "d/database.fvecs",
                "--train-queries", "d/train_queries.fvecs",
                "-M", 2, "-K", 4, "--outer-iters", 0, "--kmeans-iters", 5,
                "--out", "m.pairq")
        run_cli("encode", "--model", "m.pairq",
                "--database", "d/database.fvecs",
                "--mode", "scalar", "--out", "c.ivecs")
        capsys.readouterr()
        code = run_cli("eval", "--model", "m.pairq",
                       "--database", "d/database.fvecs", "--codes", "c.ivecs",
                       "--eval-queries", "d/eval_queries.fvecs",
                       "--mode", "sqdist", "--out", "m.json")
        assert code == 2
        # The library's rule (estimate_batch), not a restatement in the CLI.
        assert capsys.readouterr().err == (
            "error: model mode 'scalar' cannot produce 'sqdist' estimates\n"
        )
        assert not os.path.exists("m.json")

    @pytest.mark.parametrize("method, message", [
        ("pairq", "--bias-correct applies to plain quantizer models"),
        ("opq", "no error-mean table; retrain with --mse"),
    ], ids=["pairq-model", "opq-without-mse"])
    def test_eval_bias_correct_refusals(self, workdir, capsys, method, message):
        run_cli("synth", "--dim", 4, "--database-size", 60,
                "--train-queries", 40, "--eval-queries", 5, "--out-dir", "d")
        run_cli("train", "--mode", "sqdist", "--method", method,
                "--database", "d/database.fvecs",
                "--train-queries", "d/train_queries.fvecs",
                "-M", 2, "-K", 4, "--outer-iters", 0, "--kmeans-iters", 5,
                "--out", "m.pairq")
        run_cli("encode", "--model", "m.pairq",
                "--database", "d/database.fvecs",
                "--mode", "sqdist", "--out", "c.ivecs")
        capsys.readouterr()
        code = run_cli("eval", "--model", "m.pairq",
                       "--database", "d/database.fvecs", "--codes", "c.ivecs",
                       "--eval-queries", "d/eval_queries.fvecs",
                       "--mode", "sqdist", "--bias-correct", "--out", "m.json")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists("m.json")

    def test_bench_grid(self, workdir, capsys):
        code = run_cli("bench", "--task", "sqdist",
                       "--methods", "opq,opq-bc,pairq", "--blocks", "2",
                       "-K", 8, "--outer-iters", 1, "--kmeans-iters", 8,
                       "--synth-dim", 6, "--synth-database", 200,
                       "--synth-train-queries", 100,
                       "--synth-eval-queries", 8,
                       "--out-csv", "r.csv", "--out-json", "r.json")
        assert code == 0
        out = capsys.readouterr().out
        assert "rel_err=" in out
        assert "vs-opq=" in out
        with open("r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["opq", "opq-bc", "pairq"]
        with open("r.json") as fh:
            payload = json.load(fh)
        assert payload["config"]["task"] == "sqdist"

    def test_bench_fills_vs_opq_for_methods_before_opq(self, workdir, capsys):
        code = run_cli("bench", "--task", "scalar", "--methods", "pairq,opq",
                       "--blocks", "2", "-K", 4,
                       "--outer-iters", 0, "--kmeans-iters", 5,
                       "--synth-dim", 4, "--synth-database", 60,
                       "--synth-train-queries", 40, "--synth-eval-queries", 4)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("pairq") and "vs-opq=" in lines[0]
        assert lines[1].startswith("opq") and "vs-opq=" not in lines[1]

    def test_bench_rejects_duplicates(self, workdir, capsys):
        for flag, value in (("--methods", "opq,opq"), ("--blocks", "2,2")):
            code = run_cli("bench", flag, value, "--synth-dim", 4)
            assert code == 2
            assert "twice" in capsys.readouterr().err

    def test_block_counts_below_one_exit_2(self, workdir, capsys):
        run_cli("synth", "--dim", 4, "--database-size", 40,
                "--train-queries", 10, "--eval-queries", 2, "--out-dir", "data")
        capsys.readouterr()
        code = run_cli("train", "--mode", "scalar", "--method", "opq",
                       "--database", "data/database.fvecs", "-M", 0, "-K", 4,
                       "--out", "m.pairq")
        assert code == 2
        assert "num_blocks must be >= 1" in capsys.readouterr().err
        for value in ("0", "-2"):
            code = run_cli("bench", f"--blocks={value}", "--synth-dim", 4)
            assert code == 2
            assert "num_blocks must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-pairs", "0", "max_pairs must be >= 1"),
        ("-K", "0", "codebook_size must be in"),
        ("--outer-iters", "-1", "outer_iters must be >= 0"),
        ("--kmeans-iters", "0", "kmeans_iters must be >= 1"),
    ])
    def test_bench_rejects_out_of_range_values_before_training(
        self, workdir, capsys, monkeypatch, flag, value, message
    ):
        trained = []
        monkeypatch.setattr(experiment, "train_opq",
                            lambda *a, **k: trained.append(a))
        code = run_cli("bench", "--methods", "opq", "--blocks", "2",
                       "--synth-dim", 4, "--synth-database", 60,
                       "--synth-train-queries", 20, "--synth-eval-queries", 4,
                       f"{flag}={value}")
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "FAILED" not in captured.out
        assert trained == []

    def test_defaults_match_the_grid_and_the_trainers(self):
        parser = build_parser()
        train = parser.parse_args(["train", "--mode", "scalar", "--method", "opq",
                                   "--database", "d", "--out", "m"])
        evaluate = parser.parse_args(["eval", "--model", "m", "--database", "d",
                                      "--codes", "c", "--eval-queries", "q",
                                      "--mode", "scalar"])
        bench = parser.parse_args(["bench"])
        config = ExperimentConfig()
        assert bench.task == config.task
        assert tuple(bench.methods.split(",")) == config.methods
        assert tuple(int(b) for b in bench.blocks.split(",")) == config.block_counts
        assert (train.blocks,) == config.block_counts
        assert evaluate.max_pairs == bench.max_pairs == config.max_pairs
        assert config.max_pairs == DEFAULT_PAIR_BUDGET
        for args in (train, bench):
            assert args.codebook_size == config.codebook_size
            assert args.outer_iters == config.outer_iters
            assert args.kmeans_iters == config.kmeans_iters
        for args in (train, evaluate, bench):
            assert args.seed == config.seed

        def defaults(fn):
            return {name: p.default for name, p in
                    inspect.signature(fn).parameters.items()
                    if p.default is not inspect.Parameter.empty}

        iters = {"outer_iters": config.outer_iters,
                 "kmeans_iters": config.kmeans_iters, "seed": config.seed}
        for fn in (train_opq, train_pairq, fit_method):
            assert iters.items() <= defaults(fn).items()
        assert defaults(train_pq)["kmeans_iters"] == config.kmeans_iters
        assert defaults(kmeans)["max_iters"] == config.kmeans_iters

    def test_bench_reports_cell_failures(self, workdir, capsys):
        code = run_cli("bench", "--task", "scalar", "--methods", "opq,pairq",
                       "--blocks", "2", "-K", 4,
                       "--outer-iters", 0, "--kmeans-iters", 5,
                       "--synth-dim", 4, "--synth-database", 50,
                       "--synth-train-queries", 0, "--synth-eval-queries", 4)
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_file_is_reported(self, workdir, capsys):
        code = run_cli("encode", "--model", "missing.pairq",
                       "--database", "nope.fvecs", "--mode", "scalar",
                       "--out", "c.ivecs")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
