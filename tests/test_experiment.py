"""Tests for the benchmark runner, report files, and the CLI."""

import csv
import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from pairq import cli, experiment, metrics, quantizer
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
from pairq.quantizer import kmeans, pq_encode, train_opq, train_pq
from pairq.serialize import load_model, save_model
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
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def tiny_data(**kw):
    """(database, train queries, eval queries) of a tiny_spec draw."""
    data = gen_synthetic(tiny_spec(**kw), seed=0)
    return data.database, data.train_queries, data.eval_queries


def strict_json(path):
    """The parsed file, refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}, which is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


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
            run_experiment(tiny_config(task="l1"), *tiny_data())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            run_experiment(tiny_config(methods=("opq", "aq")), *tiny_data())

    def test_bias_correction_needs_sqdist(self):
        with pytest.raises(ValueError, match="sqdist"):
            run_experiment(tiny_config(methods=("opq-bc",)), *tiny_data())

    def test_config_is_checked_when_built(self):
        # A bad config fails before any data exists, and a built one cannot
        # be changed into a bad one.
        with pytest.raises(ValueError, match="task"):
            ExperimentConfig(task="l1")
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.task = "l1"
        assert len(dataclasses.fields(config)) == 8

    def test_rejects_duplicate_methods_and_block_counts(self):
        with pytest.raises(ValueError, match="methods lists 'opq' twice"):
            run_experiment(tiny_config(methods=("opq", "pairq", "opq")),
                           *tiny_data())
        with pytest.raises(ValueError, match="block_counts lists 4 twice"):
            run_experiment(tiny_config(block_counts=(2, 4, 4)), *tiny_data())

    @pytest.mark.parametrize("block_counts", [(0,), (2, -2)])
    def test_rejects_block_counts_below_one(self, block_counts):
        with pytest.raises(ValueError, match="num_blocks must be >= 1"):
            run_experiment(tiny_config(block_counts=block_counts), *tiny_data())

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
            run_experiment(tiny_config(**{field: value}), *tiny_data())


class TestRunExperiment:
    def test_scalar_grid(self):
        report = run_experiment(tiny_config(block_counts=(2, 4)), *tiny_data())
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
        rows = cell_rows(run_experiment(config, *tiny_data()))
        opq_first = ("opq",) + tuple(m for m in methods if m != "opq")
        assert rows == cell_rows(run_experiment(
            dataclasses.replace(config, methods=opq_first), *tiny_data()
        ))
        for (method, _), row in rows.items():
            filled = row["error_reduction_vs_opq_pct"] is not None
            assert filled == (method != "opq")

    def test_sqdist_grid_with_bias_correction(self):
        report = run_experiment(
            tiny_config(task="sqdist", methods=("opq", "opq-bc", "pairq")),
            *tiny_data(),
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
        report = run_experiment(tiny_config(task="cosine", methods=("opq",)),
                                *tiny_data())
        cell = report.cells[0]
        assert cell.error is None
        # Cosine values live in [-1, 1]; the squared error must too.
        assert cell.scalar_mse < 1.0

    def test_failed_cell_is_isolated(self):
        # No training queries: the transform cannot be learned, so pairq
        # cells fail while the plain quantizer cells survive.
        report = run_experiment(tiny_config(), *tiny_data(num_train_queries=0))
        opq_cell = report.cell("opq", 2)
        pairq_cell = report.cell("pairq", 2)
        assert opq_cell.error is None
        assert opq_cell.scalar_mse is not None
        assert pairq_cell.error is not None
        assert "query" in pairq_cell.error
        assert opq_cell.error_reduction_vs_opq_pct is None
        assert pairq_cell.error_reduction_vs_opq_pct is None

    def test_no_reduction_without_a_working_opq_cell(self, monkeypatch):
        report = run_experiment(tiny_config(methods=("pairq",)), *tiny_data())
        assert report.cell("pairq", 2).error_reduction_vs_opq_pct is None

        def broken(*args, **kwargs):
            raise RuntimeError("no opq model")

        monkeypatch.setattr(experiment, "train_opq", broken)
        report = run_experiment(tiny_config(methods=("pairq", "opq")),
                                *tiny_data())
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

        monkeypatch.setattr(metrics, "true_values", broken)
        report = run_experiment(tiny_config(block_counts=(2, 4)),
                                *tiny_data(num_train_queries=0))
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
        # Exact values come a tile of queries at a time; counted by query
        # row, each eval query's values are computed once, in order.
        rows, kinds = [], []

        def counted(query, database, kind):
            rows.append(np.atleast_2d(query))
            kinds.append(kind)
            return true_values(query, database, kind)

        monkeypatch.setattr(metrics, "true_values", counted)
        data = tiny_data()
        report = run_experiment(tiny_config(
            task="sqdist", methods=("opq", "opq-bc", "pairq"),
            block_counts=(2, 4),
        ), *data)
        assert [c.error for c in report.cells] == [None] * 6
        assert set(kinds) == {"sqdist"}
        np.testing.assert_array_equal(np.concatenate(rows), data[2])

    def test_grid_cells_match_separate_evaluations(self):
        # One shared pass gives each cell the stats evaluate_method gives
        # its model alone, on both the all-pairs and the sampled path.
        data = gen_synthetic(tiny_spec(), seed=0)
        for max_pairs in (DEFAULT_PAIR_BUDGET, 1000):
            report = run_experiment(tiny_config(
                task="sqdist", methods=("opq", "opq-bc", "pairq"),
                max_pairs=max_pairs,
            ), *tiny_data())
            opq, opq_codes = fit_method("sqdist", "opq", data.database, None,
                                        2, 8, outer_iters=1, kmeans_iters=8)
            pair, pair_codes = fit_method("sqdist", "pairq", data.database,
                                          data.train_queries, 2, 8,
                                          outer_iters=1, kmeans_iters=8)
            bc = BiasCorrected(opq=opq, mse=compute_mse_table(opq, data.database))
            for method, scorer, codes in (("opq", opq, opq_codes),
                                          ("opq-bc", bc, opq_codes),
                                          ("pairq", pair, pair_codes)):
                stats = evaluate_method(
                    scorer, "sqdist", data.eval_queries, data.database, codes,
                    max_pairs=max_pairs,
                )
                cell = report.cell(method, 2)
                assert cell.num_pairs == stats.num_pairs
                assert cell.rel_dist_error == stats.mean_rel_error
                assert cell.mean_signed_error == stats.mean_signed_error
                assert cell.excluded_pairs == stats.excluded_pairs

    def test_eval_queries_of_another_width_fail_before_training(
        self, monkeypatch
    ):
        fitted = []
        monkeypatch.setattr(experiment, "fit_method",
                            lambda *a, **k: fitted.append(a))
        database, train_q, eval_q = tiny_data()
        with pytest.raises(ValueError, match="eval queries have dimension 5, "
                           "the database has dimension 8"):
            run_experiment(tiny_config(), database, train_q, eval_q[:, :5])
        assert fitted == []

    def test_non_finite_train_queries_fail_the_grid_before_training(
        self, monkeypatch
    ):
        fitted = []
        monkeypatch.setattr(experiment, "fit_method",
                            lambda *a, **k: fitted.append(a))
        database, train_q, eval_q = tiny_data()
        train_q[3, 1] = np.nan
        with pytest.raises(ValueError, match="train queries contains NaN or "
                           "infinite entries"):
            run_experiment(tiny_config(), database, train_q, eval_q)
        assert fitted == []

    def test_grid_encodes_no_database_after_training(self, monkeypatch):
        # Training's last pass yields the codes; the grid encodes nothing
        # again.
        def no_encode(*args):
            raise AssertionError("the grid encoded a database after training")

        monkeypatch.setattr(experiment, "encode", no_encode)
        report = run_experiment(tiny_config(
            task="sqdist", methods=("opq", "opq-bc", "pairq"),
            block_counts=(2, 4),
        ), *tiny_data())
        assert [c.error for c in report.cells] == [None] * 6

    def test_train_queries_of_another_width_fail_only_pairq_cells(self):
        database, train_q, eval_q = tiny_data()
        report = run_experiment(tiny_config(block_counts=(2, 4)), database,
                                train_q[:, :5], eval_q)
        for num_blocks in (2, 4):
            assert report.cell("opq", num_blocks).error is None
            assert report.cell("pairq", num_blocks).error is not None


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

    @pytest.mark.parametrize("method", ["opq", "pairq"])
    @pytest.mark.parametrize("task", ["scalar", "cosine", "sqdist"])
    @pytest.mark.parametrize("dim", [7, 8])
    def test_codes_are_those_encode_gives(self, task, method, dim):
        # At two blocks, dimension 7 pads the opq and the scalar pairq
        # space; the lifted sqdist pairq space pads at dimension 8.
        database, train_q, _ = tiny_data(dim=dim)
        if task == "cosine":
            database, train_q = normalize_rows(database), normalize_rows(train_q)
        model, codes = fit_method(task, method, database, train_q, 2, 8,
                                  outer_iters=2, kmeans_iters=6, seed=1)
        expected = experiment.encode(model, database)
        assert codes.dtype == expected.dtype == np.uint8
        assert np.array_equal(codes, expected)

    @pytest.mark.parametrize("method", ["opq", "pairq"])
    @pytest.mark.parametrize("task", ["scalar", "cosine", "sqdist"])
    def test_codes_are_those_encode_gives_across_chunks(self, monkeypatch, task,
                                                        method):
        # One 8192-row tile per chunk at K = 8: encode takes the 20000 rows
        # in two chunks, the second with the tail, while training encodes
        # them in one batch.
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        calls = []

        def counted(codebook, rows):
            calls.append(len(rows))
            return pq_encode(codebook, rows)

        monkeypatch.setattr(quantizer, "pq_encode", counted)
        database, train_q, _ = tiny_data(dim=7, num_database=20000)
        if task == "cosine":
            database, train_q = normalize_rows(database), normalize_rows(train_q)
        model, codes = fit_method(task, method, database, train_q, 2, 8,
                                  outer_iters=2, kmeans_iters=6, seed=1)
        calls.clear()
        expected = experiment.encode(model, database)
        assert calls == [8192, 11808]
        assert codes.dtype == expected.dtype == np.uint8
        assert np.array_equal(codes, expected)

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
        ), *tiny_data())
        assert all(c.error is None for c in report.cells)
        assert calls == {"opq": 2, "pairq": 2}

    def test_opq_bc_table_reuses_the_opq_codes(self, monkeypatch):
        def no_encode(*args):
            raise AssertionError("the error-mean table encoded the database again")

        monkeypatch.setattr("pairq.estimator.pq_encode", no_encode)
        report = run_experiment(tiny_config(
            task="sqdist", methods=("opq", "opq-bc"), block_counts=(2,),
        ), *tiny_data())
        assert [c.error for c in report.cells] == [None, None]


class TestReportFiles:
    def test_csv_is_byte_identical_across_reruns(self, tmp_path):
        config = tiny_config()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_report_csv(run_experiment(config, *tiny_data()), a)
        write_report_csv(run_experiment(config, *tiny_data()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(run_experiment(tiny_config(), *tiny_data()), path)
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
        write_report_json(run_experiment(tiny_config(), *tiny_data()), path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["config"]["task"] == "scalar"
        assert payload["environment"]["numpy"] == np.__version__
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert cell["timings"]["train_encode"] > 0
        assert payload["timings"]["eval"] > 0

    def test_json_sidecar_writes_non_finite_numbers_as_null(self, tmp_path):
        # 50 rank-3 training queries in 8 dimensions: the moment condition
        # is infinite, which JSON has no literal for.
        rng = np.random.default_rng(0)
        database, _, eval_q = tiny_data()
        train_q = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 8))
        report = run_experiment(tiny_config(), database, train_q, eval_q)
        assert report.query_moment_condition == np.inf
        report.cells[0].scalar_mse = float("nan")
        path = tmp_path / "r.json"
        write_report_json(report, path)
        payload = strict_json(path)
        assert payload["query_moment_condition"] is None
        assert payload["cells"][0]["scalar_mse"] is None
        assert payload["cells"][1]["scalar_mse"] > 0


@pytest.fixture
def workdir(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


def run_cli(*args):
    return main([str(a) for a in args])


# Paths for `pairq bench`. The files need not exist when the command must
# stop at the config check, which runs before any file is read.
BENCH_FILES = ("--database", "d/database.fvecs",
               "--train-queries", "d/train_queries.fvecs",
               "--eval-queries", "d/eval_queries.fvecs")


def synth_bench_files(dim, database, train_queries, eval_queries):
    """Write `pairq synth` files to d/ and return BENCH_FILES."""
    run_cli("synth", "--dim", dim, "--database-size", database,
            "--train-queries", train_queries, "--eval-queries", eval_queries,
            "--db-decay", 3.0, "--query-decay", 3.0, "--out-dir", "d")
    return BENCH_FILES


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
        model, _ = fit_method(task, method, db, tq, 2, 4, outer_iters=1,
                              kmeans_iters=5, seed=3)
        table = compute_mse_table(model, db) if mse else None
        save_model("api.pairq", model, mse_table=table)
        with open("cli.pairq", "rb") as a, open("api.pairq", "rb") as b:
            assert a.read() == b.read()

    def test_train_mse_table_uses_the_training_codes(self, workdir, monkeypatch):
        def no_encode(*args):
            raise AssertionError("the error-mean table encoded the database again")

        run_cli("synth", "--dim", 6, "--database-size", 120,
                "--train-queries", 10, "--eval-queries", 4, "--out-dir", "d")
        monkeypatch.setattr("pairq.estimator.pq_encode", no_encode)
        code = run_cli("train", "--mode", "sqdist", "--method", "opq", "--mse",
                       "--database", "d/database.fvecs", "-M", 2, "-K", 4,
                       "--outer-iters", 1, "--kmeans-iters", 5, "--out", "m")
        assert code == 0
        assert load_model("m")[1] is not None

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
                       *synth_bench_files(6, 200, 100, 8),
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
        files = synth_bench_files(4, 60, 40, 4)
        capsys.readouterr()
        code = run_cli("bench", "--task", "scalar", "--methods", "pairq,opq",
                       "--blocks", "2", "-K", 4,
                       "--outer-iters", 0, "--kmeans-iters", 5, *files)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("pairq") and "vs-opq=" in lines[0]
        assert lines[1].startswith("opq") and "vs-opq=" not in lines[1]

    def test_bench_rejects_duplicates(self, workdir, capsys):
        for flag, value in (("--methods", "opq,opq"), ("--blocks", "2,2")):
            code = run_cli("bench", flag, value, *BENCH_FILES)
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
            code = run_cli("bench", f"--blocks={value}", *BENCH_FILES)
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
        files = synth_bench_files(4, 60, 20, 4)
        trained = []
        monkeypatch.setattr(experiment, "train_opq",
                            lambda *a, **k: trained.append(a))
        code = run_cli("bench", "--methods", "opq", "--blocks", "2", *files,
                       f"{flag}={value}")
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "FAILED" not in captured.out
        assert trained == []

    @pytest.mark.parametrize("sizes, name", [
        ((0, 20, 4), "database"),
        ((60, 20, 0), "eval queries"),
    ], ids=["database", "eval-queries"])
    def test_bench_rejects_an_empty_file_before_training(
        self, workdir, capsys, monkeypatch, sizes, name
    ):
        # An empty file reads as shape (0, 0): no rows and no dimension.
        files = synth_bench_files(4, *sizes)
        fitted = []
        monkeypatch.setattr(experiment, "fit_method",
                            lambda *a, **k: fitted.append(a))
        code = run_cli("bench", "--methods", "opq,pairq", "--blocks", "2",
                       "-K", 4, *files, "--out-csv", "r.csv")
        assert code == 2
        captured = capsys.readouterr()
        path = files[files.index(f"--{name.replace(' ', '-')}") + 1]
        assert f"error: {name} file {path} holds no vectors" in captured.err
        assert "FAILED" not in captured.out
        assert fitted == []
        assert not os.path.exists("r.csv")

    @pytest.mark.parametrize("command, flag, name", [
        ("train", "--database", "database"),
        ("train", "--train-queries", "train queries"),
        ("encode", "--database", "database"),
        ("eval", "--database", "database"),
        ("eval", "--eval-queries", "eval queries"),
    ], ids=["train-database", "train-queries", "encode-database",
            "eval-database", "eval-queries"])
    def test_commands_reject_an_empty_file_before_any_work(
        self, workdir, capsys, monkeypatch, command, flag, name
    ):
        # An empty file reads as shape (0, 0): no rows and no dimension.
        synth_bench_files(4, 60, 20, 4)
        database, train_q, eval_q = BENCH_FILES[1::2]
        assert run_cli("train", "--mode", "scalar", "--method", "pairq",
                       "--database", database, "--train-queries", train_q,
                       "-M", 2, "-K", 4, "--outer-iters", 0,
                       "--kmeans-iters", 5, "--out", "m") == 0
        assert run_cli("encode", "--model", "m", "--database", database,
                       "--mode", "scalar", "--out", "c.ivecs") == 0
        open("empty.fvecs", "wb").close()
        args = {
            "train": {"--mode": "scalar", "--method": "pairq",
                      "--database": database, "--train-queries": train_q,
                      "-M": 2, "-K": 4},
            "encode": {"--model": "m", "--database": database,
                       "--mode": "scalar"},
            "eval": {"--model": "m", "--database": database,
                     "--codes": "c.ivecs", "--eval-queries": eval_q,
                     "--mode": "scalar"},
        }[command]
        args[flag] = "empty.fvecs"
        work = []
        for fn in ("fit_method", "encode", "evaluate_method"):
            monkeypatch.setattr(cli, fn, lambda *a, **k: work.append(a))
        capsys.readouterr()
        code = run_cli(command, *(w for kv in args.items() for w in kv),
                       "--out", "out")
        assert code == 2
        assert (f"error: {name} file empty.fvecs holds no vectors"
                in capsys.readouterr().err)
        assert work == []
        assert not os.path.exists("out")

    def test_defaults_match_the_grid_and_the_trainers(self):
        parser = build_parser()
        train = parser.parse_args(["train", "--mode", "scalar", "--method", "opq",
                                   "--database", "d", "--out", "m"])
        evaluate = parser.parse_args(["eval", "--model", "m", "--database", "d",
                                      "--codes", "c", "--eval-queries", "q",
                                      "--mode", "scalar"])
        bench = parser.parse_args(["bench", *BENCH_FILES])
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
        # An empty train-queries file reads as shape (0, 0).
        code = run_cli("bench", "--task", "scalar", "--methods", "opq,pairq",
                       "--blocks", "2", "-K", 4,
                       "--outer-iters", 0, "--kmeans-iters", 5,
                       *synth_bench_files(4, 50, 0, 4), "--out-csv", "r.csv")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "pairq    M=2    FAILED: ValueError: need at least one query" in out
        assert "opq      M=2    mse=" in out
        with open("r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], bool(r["error"])) for r in rows] == [
            ("opq", False), ("pairq", True)]

    def test_bench_prints_a_missing_relative_error(self, workdir, capsys):
        # Every eval query equals every database row: each true distance is
        # zero, so every pair is excluded and the cell has no relative error.
        row = np.array([[1.0, 2.0, 3.0, 4.0]])
        os.mkdir("d")
        write_fvecs("d/database.fvecs", np.repeat(row, 50, axis=0))
        write_fvecs("d/train_queries.fvecs",
                    np.random.default_rng(0).standard_normal((20, 4)))
        write_fvecs("d/eval_queries.fvecs", np.repeat(row, 3, axis=0))
        code = run_cli("bench", "--task", "sqdist", "--methods", "opq",
                       "--blocks", "2", "-K", 4,
                       "--outer-iters", 0, "--kmeans-iters", 5,
                       *BENCH_FILES, "--out-csv", "r.csv")
        assert code == 0
        assert "opq      M=2    rel_err=none " in capsys.readouterr().out
        with open("r.csv") as fh:
            (cell,) = csv.DictReader(fh)
        assert cell["rel_dist_error"] == ""
        assert cell["excluded_pairs"] == "150"

    @pytest.mark.parametrize("task, methods", [
        ("scalar", "opq,pairq"),
        ("cosine", "pairq,opq"),
        ("sqdist", "opq,opq-bc,pairq"),
    ])
    def test_bench_csv_matches_the_library(self, workdir, task, methods):
        # pairq bench reads its files and hands the float32 rows to
        # run_experiment, which is all the library call below does.
        files = synth_bench_files(6, 200, 100, 8)
        code = run_cli("bench", "--task", task, "--methods", methods,
                       "--blocks", "2,3", "-K", 8, "--outer-iters", 1,
                       "--kmeans-iters", 8, "--seed", 3, *files,
                       "--out-csv", "cli.csv")
        assert code == 0
        config = ExperimentConfig(
            task=task, methods=tuple(methods.split(",")), block_counts=(2, 3),
            codebook_size=8, outer_iters=1, kmeans_iters=8, seed=3,
        )
        arrays = [read_fvecs(path) for path in files[1::2]]
        write_report_csv(run_experiment(config, *arrays), "api.csv")
        with open("cli.csv", "rb") as a, open("api.csv", "rb") as b:
            assert a.read() == b.read()

    def test_bench_writes_valid_json_for_an_empty_train_queries_file(
        self, workdir, capsys
    ):
        code = run_cli("bench", "--methods", "opq,pairq", "--blocks", "2",
                       "-K", 4, "--outer-iters", 0, "--kmeans-iters", 5,
                       *synth_bench_files(4, 50, 0, 4), "--out-json", "r.json")
        assert code == 1
        payload = strict_json("r.json")
        assert payload["query_moment_condition"] is None
        assert sorted(payload["config"]) == sorted(
            f.name for f in dataclasses.fields(ExperimentConfig)
        )

    def test_bench_rejects_non_finite_train_queries_before_training(
        self, workdir, capsys, monkeypatch
    ):
        synth_bench_files(4, 60, 20, 4)
        train_q = read_fvecs(BENCH_FILES[3])
        train_q[2, 0] = np.inf
        write_fvecs(BENCH_FILES[3], train_q)
        fitted = []
        monkeypatch.setattr(experiment, "fit_method",
                            lambda *a, **k: fitted.append(a))
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="non-finite"):
            code = run_cli("bench", "--methods", "opq,pairq", "--blocks", "2",
                           "-K", 4, *BENCH_FILES, "--out-csv", "r.csv")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: train queries contains NaN or infinite entries\n"
        )
        assert "FAILED" not in captured.out
        assert fitted == []
        assert not os.path.exists("r.csv")

    def test_bench_rejects_eval_queries_of_another_width(
        self, workdir, capsys, monkeypatch
    ):
        rng = np.random.default_rng(0)
        os.mkdir("d")
        for path, shape in zip(BENCH_FILES[1::2], [(300, 8), (40, 8), (6, 5)]):
            write_fvecs(path, rng.standard_normal(shape))
        fitted = []
        monkeypatch.setattr(experiment, "fit_method",
                            lambda *a, **k: fitted.append(a))
        for task in ("scalar", "sqdist"):
            code = run_cli("bench", "--task", task, "--blocks", "2", "-K", 4,
                           *BENCH_FILES, "--out-csv", "r.csv")
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "error: eval queries have dimension 5, the database has "
                "dimension 8\n"
            )
            assert "FAILED" not in captured.out
        assert fitted == []
        assert not os.path.exists("r.csv")

    def test_eval_rejects_eval_queries_of_another_width(self, workdir, capsys):
        rng = np.random.default_rng(0)
        write_fvecs("db.fvecs", rng.standard_normal((100, 8)))
        write_fvecs("eq.fvecs", rng.standard_normal((6, 5)))
        assert run_cli("train", "--mode", "sqdist", "--method", "opq",
                       "--database", "db.fvecs", "-M", 2, "-K", 4,
                       "--outer-iters", 0, "--kmeans-iters", 5,
                       "--out", "m.pairq") == 0
        assert run_cli("encode", "--model", "m.pairq", "--database", "db.fvecs",
                       "--mode", "sqdist", "--out", "c.ivecs") == 0
        capsys.readouterr()
        code = run_cli("eval", "--model", "m.pairq", "--database", "db.fvecs",
                       "--codes", "c.ivecs", "--eval-queries", "eq.fvecs",
                       "--mode", "sqdist", "--out", "m.json")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: eval queries have dimension 5, the database has dimension 8\n"
        )
        assert not os.path.exists("m.json")

    def test_missing_file_is_reported(self, workdir, capsys):
        code = run_cli("encode", "--model", "missing.pairq",
                       "--database", "nope.fvecs", "--mode", "scalar",
                       "--out", "c.ivecs")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
