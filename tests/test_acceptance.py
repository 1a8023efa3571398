"""Whole-pipeline acceptance checks.

Each test verifies one advertised guarantee end to end and prints a
single PASS/FAIL summary line; run with ``pytest tests/test_acceptance.py
-v -s`` to watch them. The two grid checks train full-size models and
together take a few minutes.
"""

import functools
import itertools
import time

import numpy as np

from pairq.datasets import SyntheticSpec, gen_synthetic
from pairq.estimator import BiasCorrected, compute_mse_table
from pairq.experiment import ExperimentConfig, run_experiment
from pairq.metrics import estimate_batch, evaluate_method, true_values
from pairq.quantizer import kmeans, opq_decode, opq_encode, train_opq
from pairq.transform import (
    learn_scalar_transform,
    learn_sqdist_transform,
    lift_point,
    pairq_encode,
    train_pairq,
)


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _fro(a):
    return float(np.linalg.norm(a))


def test_01_moment_factorization():
    rng = np.random.default_rng(20)
    t0 = time.perf_counter()
    worst_fact = 0.0
    worst_mp = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 65))
        # Query counts below n make the moment rank deficient on purpose.
        nq = int(rng.integers(max(1, n // 2), 3 * n + 1))
        queries = rng.normal(size=(nq, n)) * rng.uniform(0.1, 10.0)
        moment = queries.T @ queries / nq
        tr = learn_scalar_transform(queries)
        c, p = tr.matrix, tr.pinv
        worst_fact = max(worst_fact, _fro(c.T @ c - moment) / _fro(moment))
        cp, pc = c @ p, p @ c
        worst_mp = max(
            worst_mp,
            _fro(c @ p @ c - c) / _fro(c),
            _fro(p @ c @ p - p) / _fro(p),
            _fro(cp.T - cp) / max(1.0, _fro(cp)),
            _fro(pc.T - pc) / max(1.0, _fro(pc)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_fact <= 1e-8 and worst_mp <= 1e-8 and elapsed < 10.0
    _report(
        "01 moment-factorization",
        ok,
        f"500 query sets: factor rel err {worst_fact:.1e}, pseudo-inverse "
        f"rel err {worst_mp:.1e}, {elapsed:.1f}s",
    )


def test_02_weighted_loss_identity():
    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        nq = 2 * n + int(rng.integers(0, n))
        queries = rng.normal(size=(nq, n)) * rng.uniform(0.2, 5.0)
        tr = learn_scalar_transform(queries)
        x = rng.normal(size=n) * rng.uniform(0.2, 5.0)
        z_hat = rng.normal(size=n) * rng.uniform(0.2, 5.0)
        x_hat = tr.pinv @ z_hat
        summed = float(np.sum((queries @ x - queries @ x_hat) ** 2))
        weighted = nq * float(np.sum((tr.matrix @ x - z_hat) ** 2))
        worst = max(worst, abs(summed - weighted) / max(summed, weighted))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        "02 weighted-loss-identity",
        ok,
        f"1000 triples: per-query error sum matches transformed norm, "
        f"worst rel dev {worst:.1e}, {elapsed:.1f}s",
    )


def test_03_distance_lift_identity():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 129))
        s = 10.0 ** rng.uniform(-2.0, 2.0)
        q = rng.normal(size=n) * s
        x = rng.normal(size=n) * s
        y = lift_point(x)
        g = np.append(-2.0 * q, 1.0)
        resid = float(np.sum((q - x) ** 2) - q @ q - g @ y)
        scale = max(1.0, float(q @ q + x @ x))
        worst = max(worst, abs(resid) / scale)
    ok = worst <= 1e-10
    _report(
        "03 distance-lift-identity",
        ok,
        f"10000 trials: worst scaled residual {worst:.1e}",
    )


@functools.cache
def _fixed_point_data():
    spec = SyntheticSpec(
        dim=8,
        num_database=10_000,
        num_train_queries=400,
        num_eval_queries=100,
        database_decay=1.5,
        query_decay=2.0,
    )
    return gen_synthetic(spec, seed=11)


def test_04_scalar_mean_error_vanishes_at_fixed_point():
    data = _fixed_point_data()
    x, eval_q = data.database, data.eval_queries
    model = train_opq(
        x, num_blocks=1, codebook_size=32, outer_iters=2, kmeans_iters=500, seed=2
    )
    codes = opq_encode(model, x)
    mean_norm = np.linalg.norm(x, axis=1).mean()
    worst = max(
        abs(evaluate_method(model, "scalar", q[None, :], x, codes)
            .mean_signed_error)
        / (1e-9 * np.linalg.norm(q) * mean_norm)
        for q in eval_q
    )
    ok = model.converged is True and worst <= 1.0
    _report(
        "04 scalar-unbiased-at-fixed-point",
        ok,
        f"converged={model.converged}, worst |bias|/tolerance over "
        f"{len(eval_q)} queries {worst:.1e}",
    )


def test_05_distance_bias_equals_mse_correction():
    data = _fixed_point_data()
    x, eval_q = data.database, data.eval_queries[:50]
    ok = True
    parts = []
    for m in (1, 4):
        model = train_opq(
            x, num_blocks=m, codebook_size=32, outer_iters=2, kmeans_iters=500, seed=2
        )
        codes = opq_encode(model, x)
        mse = compute_mse_table(model, x)
        mean_corr = float(mse.values[np.arange(m)[None, :], codes].sum(axis=1).mean())
        worst_rel = max(
            abs(-evaluate_method(model, "sqdist", q[None, :], x, codes)
                .mean_signed_error - mean_corr)
            / mean_corr
            for q in eval_q
        )
        scale = np.mean([true_values(q, x, "sqdist").mean() for q in eval_q])
        bc_bias = evaluate_method(
            BiasCorrected(model, mse), "sqdist", eval_q, x, codes
        ).mean_signed_error
        bc_ratio = abs(bc_bias) / (1e-9 * scale)
        ok = (
            ok
            and model.converged is True
            and mean_corr > 0.0
            and worst_rel <= 1e-8
            and bc_ratio <= 1.0
        )
        parts.append(
            f"M={m}: underestimate {mean_corr:.3f} matches table "
            f"(rel dev {worst_rel:.1e}), corrected ratio {bc_ratio:.1e}"
        )
    _report("05 distance-bias-matches-correction", ok, "; ".join(parts))


def test_06_transformed_estimators_unbiased_at_fixed_point():
    data = _fixed_point_data()
    x, train_q = data.database, data.train_queries
    eval_q = data.eval_queries[:50]
    mean_norm = np.linalg.norm(x, axis=1).mean()

    scalar_model = train_pairq(
        learn_scalar_transform(train_q), x,
        num_blocks=1, codebook_size=32, outer_iters=2, kmeans_iters=500, seed=2,
    )
    scalar_codes = pairq_encode(scalar_model, x)
    worst_scalar = max(
        abs(evaluate_method(scalar_model, "scalar", q[None, :], x, scalar_codes)
            .mean_signed_error)
        / (1e-9 * np.linalg.norm(q) * mean_norm)
        for q in eval_q
    )

    dist_model = train_pairq(
        learn_sqdist_transform(train_q), x,
        num_blocks=1, codebook_size=32, outer_iters=2, kmeans_iters=500, seed=2,
    )
    dist_codes = pairq_encode(dist_model, x)
    scale = np.mean([true_values(q, x, "sqdist").mean() for q in eval_q])
    dist_ratio = abs(
        evaluate_method(dist_model, "sqdist", eval_q, x, dist_codes).mean_signed_error
    ) / (1e-9 * scale)

    ok = (
        scalar_model.opq.converged is True
        and dist_model.opq.converged is True
        and worst_scalar <= 1.0
        and dist_ratio <= 1.0
    )
    _report(
        "06 transformed-unbiased-at-fixed-point",
        ok,
        f"scalar worst ratio {worst_scalar:.1e}, "
        f"distance ratio {dist_ratio:.1e}",
    )


def test_07_query_aware_scalar_grid():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        task="scalar",
        methods=("opq", "pairq"),
        block_counts=(5, 10, 25),
        codebook_size=256,
        outer_iters=2,
        kmeans_iters=6,
        seed=0,
    )
    data = gen_synthetic(
        SyntheticSpec(
            dim=100,
            num_database=50_000,
            num_train_queries=2000,
            num_eval_queries=100,
            database_decay=1.2,
            query_decay=5.5,
        ),
        seed=0,
    )
    report = run_experiment(
        config, data.database, data.train_queries, data.eval_queries
    )
    elapsed = time.perf_counter() - t0
    ok = report.query_moment_condition >= 100.0
    reductions = {}
    for m in config.block_counts:
        base = report.cell("opq", m)
        ours = report.cell("pairq", m)
        ok = ok and base.error is None and ours.error is None
        ok = ok and ours.scalar_mse < base.scalar_mse
        reductions[m] = ours.error_reduction_vs_opq_pct
    ok = ok and max(reductions.values()) >= 10.0 and elapsed < 600.0
    _report(
        "07 scalar-grid-improvement",
        ok,
        f"moment condition {report.query_moment_condition:.0f}, "
        + ", ".join(f"M={m}: -{r:.1f}%" for m, r in reductions.items())
        + f", {elapsed:.0f}s",
    )


def test_08_distance_grid_error_ordering():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        task="sqdist",
        methods=("opq", "opq-bc", "pairq"),
        block_counts=(4, 8, 16),
        codebook_size=64,
        outer_iters=2,
        kmeans_iters=8,
        seed=0,
    )
    data = gen_synthetic(
        SyntheticSpec(
            dim=128,
            num_database=20_000,
            num_train_queries=1500,
            num_eval_queries=80,
            database_decay=2.0,
            query_decay=4.5,
        ),
        seed=0,
    )
    report = run_experiment(
        config, data.database, data.train_queries, data.eval_queries
    )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    parts = []
    for m in config.block_counts:
        raw = report.cell("opq", m)
        corrected = report.cell("opq-bc", m)
        ours = report.cell("pairq", m)
        cell_ok = (
            raw.error is None
            and corrected.error is None
            and ours.error is None
            and ours.rel_dist_error < corrected.rel_dist_error < raw.rel_dist_error
        )
        ok = ok and cell_ok
        parts.append(
            f"M={m}: {ours.rel_dist_error:.3f} < {corrected.rel_dist_error:.3f} "
            f"< {raw.rel_dist_error:.3f}"
        )
    _report(
        "08 distance-grid-ordering",
        ok,
        "; ".join(parts) + f", {elapsed:.0f}s",
    )


def test_09_isotropic_queries_reduce_to_plain_quantizer():
    n = 16
    data = gen_synthetic(
        SyntheticSpec(
            dim=n,
            num_database=3000,
            num_train_queries=1,
            num_eval_queries=40,
            database_decay=2.0,
        ),
        seed=7,
    )
    x, eval_q = data.database, data.eval_queries
    # Moment is exactly 4*I; the square root 2*I is a power of two, so
    # the normalized copies of every float operation round identically.
    queries = np.vstack([8.0 * np.eye(n), -8.0 * np.eye(n)])
    transform = learn_scalar_transform(queries)
    ok = np.array_equal(transform.matrix, 2.0 * np.eye(n))

    plain = train_opq(x, 4, 16, outer_iters=3, kmeans_iters=15, seed=5)
    ours = train_pairq(transform, x, 4, 16, outer_iters=3, kmeans_iters=15, seed=5)
    ok = ok and np.array_equal(plain.rotation, ours.opq.rotation)
    ok = ok and all(
        np.array_equal(2.0 * a, b)
        for a, b in zip(plain.codebook.centroids, ours.opq.codebook.centroids)
    )
    plain_codes = opq_encode(plain, x)
    our_codes = pairq_encode(ours, x)
    ok = ok and np.array_equal(plain_codes, our_codes)
    ok = ok and all(
        np.array_equal(
            estimate_batch(plain, q, plain_codes, "scalar"),
            estimate_batch(ours, q, our_codes, "scalar"),
        )
        for q in eval_q
    )
    _report(
        "09 isotropic-degeneration",
        ok,
        "rotation, scaled codebooks, codes, and estimates for 40 queries "
        "all bit-identical",
    )


def _exhaustive_best(x, k):
    n, d = x.shape
    labelings = np.array(list(itertools.product(range(k), repeat=n)))
    onehot = np.eye(k)[labelings]
    counts = onehot.sum(axis=1)
    sums = np.einsum("lnk,nd->lkd", onehot, x)
    means = sums / np.maximum(counts[:, :, None], 1.0)
    centers = np.einsum("lnk,lkd->lnd", onehot, means)
    objectives = ((x[None, :, :] - centers) ** 2).sum(axis=(1, 2))
    return float(objectives.min())


def test_10_kmeans_reaches_global_optimum_on_small_instances():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 9))
        d = int(rng.integers(1, 3))
        # Coarse rounding forces duplicate points and assignment ties.
        x = np.round(rng.normal(size=(n, d)) * 3.0, 1)
        best = min(kmeans(x, k, max_iters=50, seed=s).inertia for s in range(20))
        opt = _exhaustive_best(x, k)
        worst = max(worst, abs(best - opt) / max(1.0, opt))
    ok = worst <= 1e-9
    _report(
        "10 kmeans-global-optimum",
        ok,
        f"50 instances, best-of-20 vs exhaustive, worst scaled gap {worst:.1e}",
    )


def test_11_training_objectives_never_increase():
    rng = np.random.default_rng(24)
    traces = []
    for trial in range(12):
        n = int(rng.integers(60, 400))
        d = 2 * int(rng.integers(1, 5))
        flavor = trial % 3
        if flavor == 0:
            x = rng.normal(size=(n, d))
        elif flavor == 1:
            x = rng.standard_t(1.5, size=(n, d))
        else:
            x = rng.integers(0, 3, size=(n, d)).astype(float)
        k = int(rng.integers(2, 17))
        traces.append(kmeans(x, k, max_iters=40, seed=trial).trace)
        model = train_opq(
            x, 2, min(16, n // 4), outer_iters=4, kmeans_iters=10, seed=trial
        )
        traces.append(model.trace)
    steps = 0
    worst = -np.inf
    for trace in traces:
        for a, b in zip(trace, trace[1:]):
            steps += 1
            worst = max(worst, (b - a) / max(1.0, abs(a)))
    ok = worst <= 1e-9
    _report(
        "11 objective-monotonicity",
        ok,
        f"{len(traces)} traces, {steps} steps, max relative increase "
        f"{worst:+.1e} (every training call also self-checks)",
    )


def test_12_table_scan_matches_direct_decode():
    data = gen_synthetic(
        SyntheticSpec(
            dim=32,
            num_database=4000,
            num_train_queries=500,
            num_eval_queries=500,
            database_decay=2.0,
            query_decay=3.0,
        ),
        seed=31,
    )
    x = data.database
    model = train_opq(
        x, num_blocks=8, codebook_size=64, outer_iters=2, kmeans_iters=20, seed=3
    )
    codes = opq_encode(model, x[:200])
    decoded = opq_decode(model, codes)
    queries = data.eval_queries
    floor_s = 1e-8 * float(np.abs(decoded @ queries.T).mean())
    floor_d = 1e-8 * float(np.mean(np.sum(x[:200] ** 2, axis=1)))
    worst_scalar = 0.0
    worst_dist = 0.0
    for q in queries:
        scan_s = estimate_batch(model, q, codes, "scalar")
        dense_s = decoded @ q
        worst_scalar = max(
            worst_scalar,
            float(np.max(np.abs(scan_s - dense_s) / np.maximum(np.abs(dense_s), floor_s))),
        )
        scan_d = estimate_batch(model, q, codes, "sqdist")
        dense_d = np.sum((decoded - q[None, :]) ** 2, axis=1)
        worst_dist = max(
            worst_dist,
            float(np.max(np.abs(scan_d - dense_d) / np.maximum(dense_d, floor_d))),
        )

    all_codes = opq_encode(model, x)
    t0 = time.perf_counter()
    for q in queries[:25]:
        estimate_batch(model, q, all_codes, "scalar")
    throughput = 25 * all_codes.shape[0] / (time.perf_counter() - t0)
    ok = worst_scalar <= 1e-5 and worst_dist <= 1e-5
    _report(
        "12 table-scan-equivalence",
        ok,
        f"100000 pairs: scalar worst rel {worst_scalar:.1e}, distance worst "
        f"rel {worst_dist:.1e}; scan throughput {throughput:.2e} pairs/s",
    )
