"""Tests for the pairwise evaluation metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairq.estimator import (
    BiasCorrected, MseTable, build_lut_sqdist, compute_mse_table,
)
from pairq.metrics import (
    DEFAULT_PAIR_BUDGET,
    REL_ERR_FLOOR,
    EvalStats,
    estimate_batch,
    evaluate_method,
    evaluate_methods,
    true_values,
)
from pairq import metrics
from pairq.quantizer import (
    TILE_ENTRIES,
    OPQModel,
    PQCodebook,
    opq_encode,
    pq_decode,
    train_opq,
)
from pairq.transform import (
    learn_scalar_transform,
    learn_sqdist_transform,
    pairq_encode,
    pairq_query_vector,
    train_pairq,
)


def _pairs(kind, truth, estimates):
    """(method, queries, database, codes) for one query whose exact values
    and estimates are given. Each database row gets its own codeword in a
    one-block, one-dimensional quantizer: with q = 1 (scalar) or q = 0
    (sqdist) the codeword value, or its square, is the estimate."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimates, dtype=np.float64)
    q = 1.0
    if kind == "sqdist":
        t, e, q = np.sqrt(t), np.sqrt(e), 0.0
    book = PQCodebook(centroids=e.reshape(1, -1, 1))
    model = OPQModel(rotation=np.eye(1), codebook=book, input_dim=1)
    return model, [[q]], t[:, None], np.arange(e.size)[:, None]


def _stats(kind, truth, estimates):
    model, queries, database, codes = _pairs(kind, truth, estimates)
    return evaluate_method(model, kind, queries, database, codes)


class TestValueKernels:
    """The pair metrics, computed inline by evaluate_method."""

    def test_scalar_mse(self):
        assert _stats("scalar", [1.0, 2.0], [1.0, 2.0]).mse == 0.0
        assert _stats("scalar", [0.0, 0.0], [1.0, -3.0]).mse == 5.0

    def test_rel_err_exact(self):
        stats = _stats("sqdist", [1.0, 2.0], [1.0, 2.0])
        assert stats.mean_rel_error == 0.0 and stats.excluded_pairs == 0

    def test_rel_err_doubled_estimates(self):
        stats = _stats("sqdist", [1.0, 5.0, 0.5], [2.0, 10.0, 1.0])
        assert stats.mean_rel_error == pytest.approx(1.0)
        assert stats.excluded_pairs == 0

    def test_rel_err_excludes_degenerate_pairs(self):
        stats = _stats("sqdist", [0.0, 1e-15, 4.0], [1.0, 1.0, 5.0])
        assert stats.excluded_pairs == 2
        assert stats.mean_rel_error == pytest.approx(0.25)

    def test_rel_err_all_excluded_is_nan(self):
        stats = _stats("sqdist", [0.0, 0.0], [1.0, 1.0])
        assert stats.mean_rel_error is None and stats.excluded_pairs == 2

    def test_bias_sign_convention(self):
        # Underestimates come out negative.
        assert _stats("scalar", [10.0, 10.0], [9.0, 8.0]).mean_signed_error == -1.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            _stats("scalar", [1.0], [1.0, 2.0])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            _stats("scalar", [], [])


class TestTrueValues:
    def test_scalar(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        q = np.array([1.0, -1.0])
        np.testing.assert_array_equal(true_values(q, x, "scalar"), [-1.0, -1.0])

    def test_sqdist(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        q = np.array([0.0, 0.0])
        np.testing.assert_array_equal(true_values(q, x, "sqdist"), [0.0, 25.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            true_values(np.zeros(2), np.zeros((1, 2)), "cosine")

    @pytest.mark.parametrize("dim", [1, 8, 128, 129])
    def test_sqdist_tiles_match_one_einsum(self, dim):
        # Every value is within 2γ_{d+2}(‖q‖² + ‖x‖²) of the exact one, for
        # a tile of queries and for each query alone. Pairs well inside the
        # recompute zone (every other row lies near query 0) keep the bits
        # of the difference form, across the recompute tiles of
        # TILE_ENTRIES // dim pairs.
        tile = TILE_ENTRIES // dim
        rng = np.random.default_rng(dim)
        queries = rng.standard_normal((3, dim)) * 5.0
        u = np.finfo(np.float64).eps / 2
        gamma = (dim + 2) * u / (1 - (dim + 2) * u)
        ref_eps = (dim + 3) * np.finfo(np.longdouble).eps
        for n in (1, tile - 1, tile, tile + 1, 2 * tile + 3):
            x = rng.standard_normal((n, dim)) * rng.uniform(0.1, 50.0, dim)
            x[::2] = queries[0] + 1e-3 * rng.standard_normal((len(x[::2]), dim))
            xl, ql = x.astype(np.longdouble), queries.astype(np.longdouble)
            exact = np.stack([((xl - q) ** 2).sum(axis=1) for q in ql])
            norms = (xl ** 2).sum(axis=1) + (ql ** 2).sum(axis=1)[:, None]
            diffs = [x - q for q in queries]
            reference = np.stack([np.einsum("ij,ij->i", d, d) for d in diffs])
            zone = reference <= metrics.SQDIST_MARGIN / 2 * norms
            assert zone[0, ::2].all()
            for got in (true_values(queries, x, "sqdist"),
                        np.stack([true_values(q, x, "sqdist") for q in queries])):
                assert np.all(np.abs(got - exact) <= 2 * gamma * norms + ref_eps * exact)
                np.testing.assert_array_equal(got[zone], reference[zone])

    def test_one_query_is_one_row_of_a_tile(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        queries = rng.standard_normal((4, 6))
        for kind in ("scalar", "sqdist"):
            tile = true_values(queries, x, kind)
            assert tile.shape == (4, 40)
            for q, row in zip(queries, tile):
                np.testing.assert_allclose(true_values(q, x, kind), row,
                                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("kind", ["scalar", "sqdist"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_database(self, kind, bad):
        # A zero query still exposes the bad entry: inf * 0 is NaN.
        x = np.ones((20, 4))
        x[13, 2] = bad
        for order in ("C", "F"):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="NaN or infinite"):
                true_values(np.zeros(4), np.asarray(x, order=order), kind)

    @pytest.mark.parametrize("kind", ["scalar", "sqdist"])
    def test_finite_overflow_returns_inf(self, kind):
        x = np.array([[1e300, 1e300], [1.0, 2.0]])
        with np.errstate(over="ignore"):
            out = true_values(np.array([1e300, 1e300]), x, kind)
        expected = {"scalar": [np.inf, 3e300], "sqdist": [0.0, np.inf]}[kind]
        np.testing.assert_array_equal(out, expected)

    def test_product_form_overflow_is_recomputed(self):
        # ‖q‖² + ‖x‖² is finite and so is Σ(x − q)², the largest double,
        # but with OpenBLAS the product form rounds up to inf, so the pair
        # is recomputed.
        q = np.array([7.111855097067328e+153, 3.5635135416242203e+152])
        x = np.array([[-6.1769075095519435e+153, -1.4263718075059778e+153]])
        (out,) = true_values(q, x, "sqdist")
        assert out == pytest.approx(np.finfo(np.float64).max, rel=1e-14)


def small_world(seed=0, n=200, dim=6):
    rng = np.random.default_rng(seed)
    db = rng.standard_normal((n, dim)) * np.linspace(0.5, 2.0, dim)
    queries = rng.standard_normal((8, dim))
    model = train_opq(db, 3, 8, outer_iters=2, kmeans_iters=15, seed=0)
    codes = opq_encode(model, db)
    return rng, db, queries, model, codes


class TestEstimateBatch:
    def test_bias_corrected_adds_table_entries(self):
        rng, db, queries, model, codes = small_world()
        table = compute_mse_table(model, db)
        bc = BiasCorrected(opq=model, mse=table)
        raw = estimate_batch(model, queries[0], codes, "sqdist")
        corrected = estimate_batch(bc, queries[0], codes, "sqdist")
        manual = raw + np.array([
            sum(table.values[j, codes[i, j]] for j in range(3))
            for i in range(len(codes))
        ])
        np.testing.assert_allclose(corrected, manual, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 8), (8,), (3, 1)])
    def test_bias_corrected_rejects_misshaped_table(self, shape):
        # Each of these broadcasts against the (3, 8) table: the first two
        # would add one row of error means to every block.
        rng, db, queries, model, codes = small_world()
        bc = BiasCorrected(opq=model, mse=MseTable(values=np.ones(shape)))
        with pytest.raises(ValueError, match="error-mean table shape"):
            estimate_batch(bc, queries[0], codes, "sqdist")

    def test_bias_corrected_rejects_scalar(self):
        rng, db, queries, model, codes = small_world()
        bc = BiasCorrected(opq=model, mse=compute_mse_table(model, db))
        with pytest.raises(ValueError, match="squared distances"):
            estimate_batch(bc, queries[0], codes, "scalar")

    def test_pairq_mode_mismatch(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((40, 4))
        db = rng.standard_normal((60, 4))
        model = train_pairq(learn_scalar_transform(q), db, 2, 4,
                            outer_iters=0, kmeans_iters=5, seed=0)
        codes = pairq_encode(model, db)
        with pytest.raises(ValueError, match="mode"):
            estimate_batch(model, q[0], codes, "sqdist")

    def test_unknown_method_and_kind(self):
        with pytest.raises(ValueError, match="kind"):
            estimate_batch(None, np.zeros(2), np.zeros((1, 2), dtype=int), "x")
        with pytest.raises(TypeError, match="unsupported"):
            estimate_batch(object(), np.zeros(2), np.zeros((1, 2), dtype=int),
                           "scalar")


@st.composite
def quantizer_shapes(draw):
    """(dim, blocks, codebook size, seed); blocks need not divide dim."""
    dim = draw(st.integers(1, 6))
    return (dim, draw(st.integers(1, dim)), draw(st.integers(1, 4)),
            draw(st.integers(0, 2**16)))


def _decoded_opq(model, q, codes, kind):
    z = pq_decode(model.codebook, codes)
    q_rot = model.rotation @ np.pad(q, (0, model.dim - q.shape[0]))
    if kind == "scalar":
        return z @ q_rot
    return ((z - q_rot) ** 2).sum(axis=1)


def _decoded_pairq(model, q, codes, kind):
    z = pq_decode(model.opq.codebook, codes)
    est = z @ (model.opq.rotation @ pairq_query_vector(model, q))
    return est + q @ q if kind == "sqdist" else est


class TestScanMatchesDecode:
    """One table scan per query equals decoding every code and scoring the
    reconstruction, for every method, including one codeword per block,
    blocks of width 1 and zero-padded dimensions."""

    @settings(max_examples=15, deadline=None)
    @given(shape=quantizer_shapes())
    @example(shape=(4, 4, 1, 0))
    @example(shape=(5, 5, 3, 1))
    @example(shape=(5, 2, 2, 2))
    def test_every_method(self, shape):
        dim, blocks, k, seed = shape
        rng = np.random.default_rng(seed)
        db = rng.standard_normal((12, dim)) * rng.uniform(0.5, 2.0, dim)
        train_q = rng.standard_normal((10, dim))
        queries = rng.standard_normal((3, dim))
        opts = dict(outer_iters=1, kmeans_iters=4, seed=seed)
        opq = train_opq(db, blocks, k, pad=True, **opts)
        codes = opq_encode(opq, db)
        mse = compute_mse_table(opq, db)
        bc = BiasCorrected(opq=opq, mse=mse)
        selected_mse = mse.values[np.arange(opq.codebook.num_blocks), codes].sum(axis=1)
        pair = {
            kind: train_pairq(learn(train_q), db, blocks, k, **opts)
            for kind, learn in (("scalar", learn_scalar_transform),
                                ("sqdist", learn_sqdist_transform))
        }
        for q in queries:
            checks = [
                (estimate_batch(opq, q, codes, kind), _decoded_opq(opq, q, codes, kind))
                for kind in ("scalar", "sqdist")
            ]
            checks.append((
                estimate_batch(bc, q, codes, "sqdist"),
                _decoded_opq(opq, q, codes, "sqdist") + selected_mse,
            ))
            for kind, model in pair.items():
                pair_codes = pairq_encode(model, db)
                checks.append((estimate_batch(model, q, pair_codes, kind),
                               _decoded_pairq(model, q, pair_codes, kind)))
            for scan, direct in checks:
                scale = max(1.0, float(np.abs(direct).max()))
                np.testing.assert_allclose(scan, direct, rtol=0, atol=1e-12 * scale)


class TestEvaluateMethod:
    def test_lossless_quantizer_scores_zero(self):
        rng = np.random.default_rng(2)
        db = rng.standard_normal((16, 4))
        queries = rng.standard_normal((5, 4))
        model = train_opq(db, 1, 16, outer_iters=0, kmeans_iters=50, seed=0)
        codes = opq_encode(model, db)
        stats = evaluate_method(model, "scalar", queries, db, codes)
        assert stats.mse <= 1e-18
        stats = evaluate_method(model, "sqdist", queries, db, codes)
        assert stats.mse <= 1e-18
        assert stats.excluded_pairs == 0

    def test_matches_naive_double_loop(self):
        # Aggregate metrics must agree with per-pair decode-route loops.
        rng, db, queries, model, codes = small_world(n=150)
        stats = evaluate_method(model, "sqdist", queries, db, codes)
        errs = []
        rels = []
        excluded = 0
        for q in queries:
            q_rot = model.rotation @ q
            for i in range(len(db)):
                true = ((q - db[i]) ** 2).sum()
                est = ((q_rot - pq_decode(model.codebook, codes[i])) ** 2).sum()
                errs.append(est - true)
                if true > 1e-12:
                    rels.append(abs(est - true) / true)
                else:
                    excluded += 1
        errs = np.array(errs)
        assert stats.num_pairs == len(errs)
        assert stats.excluded_pairs == excluded
        np.testing.assert_allclose(stats.mse, (errs ** 2).mean(), rtol=1e-10)
        np.testing.assert_allclose(stats.mean_signed_error, errs.mean(), rtol=1e-10)
        np.testing.assert_allclose(stats.mean_rel_error, np.mean(rels), rtol=1e-10)

    def test_subsampling_respects_budget_and_seed(self):
        rng, db, queries, model, codes = small_world()
        full = evaluate_method(model, "scalar", queries, db, codes)
        assert full.num_pairs == len(queries) * len(db)
        capped = evaluate_method(model, "scalar", queries, db, codes,
                                 max_pairs=100)
        assert capped.num_pairs == (100 // len(queries)) * len(queries)
        again = evaluate_method(model, "scalar", queries, db, codes,
                                max_pairs=100)
        assert capped.mse == again.mse
        other = evaluate_method(model, "scalar", queries, db, codes,
                                max_pairs=100, seed=9)
        assert capped.mse != other.mse
        # The subsample estimate should sit near the full-pair value.
        assert abs(capped.mse - full.mse) < full.mse

    def test_validates_inputs(self):
        rng, db, queries, model, codes = small_world()
        with pytest.raises(ValueError, match="codes rows"):
            evaluate_method(model, "scalar", queries, db, codes[:-1])
        with pytest.raises(ValueError, match="at least one"):
            evaluate_method(model, "scalar", queries[:0], db, codes)
        with pytest.raises(ValueError, match="max_pairs"):
            evaluate_method(model, "scalar", queries, db, codes, max_pairs=0)


def every_method(kind, seed=0, n=150, dim=6):
    """(queries, database, [(method, codes)]) for every method of a kind."""
    rng, db, queries, model, codes = small_world(seed=seed, n=n, dim=dim)
    learn = learn_sqdist_transform if kind == "sqdist" else learn_scalar_transform
    pair = train_pairq(learn(rng.standard_normal((60, dim))), db, 3, 8,
                       outer_iters=1, kmeans_iters=10, seed=0)
    scored = [(model, codes), (pair, pairq_encode(pair, db))]
    if kind == "sqdist":
        bc = BiasCorrected(opq=model, mse=compute_mse_table(model, db))
        scored.insert(1, (bc, codes))
    return queries, db, scored


def _pass_reference(scored, kind, queries, db, exact,
                    max_pairs=DEFAULT_PAIR_BUDGET, seed=0):
    """The stats evaluate_methods sums, pair by pair: estimates from
    estimate_batch on the (gathered) codes, exact values from
    ``exact(query_number, rows)`` and the same seeded row draws."""
    n = len(db)
    if len(queries) * n <= max_pairs:
        draws = [slice(None)] * len(queries)
    else:
        rng = np.random.default_rng(seed)
        draws = [rng.permutation(n)[: max(1, max_pairs // len(queries))]
                 for _ in queries]
    sums = [[0.0, 0.0, 0.0] for _ in scored]
    n_pairs = n_rel = 0
    for i, rows in enumerate(draws):
        t = exact(i, rows)
        keep = t > REL_ERR_FLOOR
        n_pairs += t.size
        n_rel += int(keep.sum())
        for (method, codes), acc in zip(scored, sums):
            d = estimate_batch(method, queries[i], codes[rows], kind) - t
            acc[0] += float(d @ d)
            acc[1] += float(d.sum())
            if kind == "sqdist" and keep.any():
                acc[2] += float((np.abs(d[keep]) / t[keep]).sum())
    return [
        EvalStats(kind=kind, num_pairs=n_pairs, mse=sq / n_pairs,
                  mean_signed_error=signed / n_pairs,
                  mean_rel_error=(rel / n_rel if n_rel else None)
                  if kind == "sqdist" else None,
                  excluded_pairs=n_pairs - n_rel if kind == "sqdist" else 0)
        for sq, signed, rel in sums
    ]


def _difference_form(queries, db):
    """Exact values Σ(x − q)² as one einsum over the rows of each query."""
    def exact(i, rows):
        diff = db[rows] - queries[i]
        return np.einsum("ij,ij->i", diff, diff)
    return exact


def _assert_rounding_close(got, ref):
    """Equal pair counts; the error means within float64 rounding."""
    assert (got.num_pairs, got.excluded_pairs) == (ref.num_pairs,
                                                   ref.excluded_pairs)
    for field in ("mse", "mean_signed_error", "mean_rel_error"):
        assert getattr(got, field) == pytest.approx(getattr(ref, field),
                                                    rel=1e-12)


class TestEvaluateMethods:
    @pytest.mark.parametrize("max_pairs", [10**7, 300])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    @pytest.mark.parametrize("kind", ["scalar", "sqdist"])
    def test_scan_matches_adc_scan_for_every_code_dtype(self, kind, dtype,
                                                        max_pairs):
        # The pass scans an intp index converted once; its estimates are
        # adc_scan's bit for bit, so the stats equal a pair-by-pair
        # estimate_batch loop over the same exact values.
        queries, db, scored = every_method(kind)
        scored = [(m, c.astype(dtype)) for m, c in scored]
        assert len(queries) * len(db) <= metrics.EVAL_TILE_ENTRIES
        tile = true_values(queries, db, kind)

        def exact(i, rows):
            if isinstance(rows, slice):
                return tile[i]
            return true_values(queries[i], db[rows], kind)

        got = evaluate_methods(scored, kind, queries, db, max_pairs=max_pairs,
                               seed=3)
        assert got == _pass_reference(scored, kind, queries, db, exact,
                                      max_pairs=max_pairs, seed=3)

    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_offset_pairs_keep_the_difference_form(self, offset):
        # At a large offset every pair is far inside the recompute zone, so
        # every exact value is the difference form's, bit for bit.
        rng, db, queries, model, _ = small_world()
        db, queries = db + offset, queries + offset
        scored = [(model, opq_encode(model, db))]
        for max_pairs in (10**7, 300):
            got = evaluate_methods(scored, "sqdist", queries, db,
                                   max_pairs=max_pairs)
            assert got == _pass_reference(scored, "sqdist", queries, db,
                                          _difference_form(queries, db),
                                          max_pairs=max_pairs)

    def test_copies_of_a_query_score_exactly_zero(self):
        # Queries equal to database rows, duplicated rows and a query 1e-9
        # away from a row: those pairs are excluded as in the difference
        # form, and copies score exactly 0.
        rng, db, _, model, _ = small_world()
        db[10:20] = db[0]
        db[150:] = db[100]
        queries = db[[0, 5, 100, 120]]
        queries[3] += 1e-9
        scored = [(model, opq_encode(model, db))]
        (got,) = evaluate_methods(scored, "sqdist", queries, db)
        assert got.excluded_pairs == 11 + 1 + 51 + 1
        (ref,) = _pass_reference(scored, "sqdist", queries, db,
                                 _difference_form(queries, db))
        _assert_rounding_close(got, ref)
        values = true_values(queries, db, "sqdist")
        copies = (db[None, :, :] == queries[:, None, :]).all(axis=2)
        assert copies.sum() == 63 and (values[copies] == 0).all()
        assert (values[~copies] > 0).all()

    def test_distances_at_the_floor(self):
        # Rows about 1e-6 from their query, norms about 2e-6: some pairs are
        # at or below REL_ERR_FLOOR in the difference form but above it, and
        # above SQDIST_MARGIN·(‖q‖² + ‖x‖²), in the product form. The floor
        # of the margin recomputes them, so the same pairs are excluded.
        rng = np.random.default_rng(7)
        queries = rng.standard_normal((4, 8))
        queries *= 2e-6 / np.linalg.norm(queries, axis=1, keepdims=True)
        steps = 1e-6 * (1 + np.arange(-100, 100) * 1e-16)
        lines = rng.standard_normal((4, 8))
        lines /= np.linalg.norm(lines, axis=1, keepdims=True)
        db = np.concatenate([q + np.outer(steps, v) for q, v in zip(queries, lines)])
        exact = _difference_form(queries, db)
        diff = np.stack([exact(i, slice(None)) for i in range(4)])
        norms = (db ** 2).sum(axis=1) + (queries ** 2).sum(axis=1)[:, None]
        product = norms - 2 * queries @ db.T
        floor_only = (diff <= REL_ERR_FLOOR) & (product > REL_ERR_FLOOR) & (
            product > metrics.SQDIST_MARGIN * norms)
        assert floor_only.any()
        model = train_opq(db, 2, 4, outer_iters=1, kmeans_iters=5, seed=0)
        scored = [(model, opq_encode(model, db))]
        (got,) = evaluate_methods(scored, "sqdist", queries, db)
        (ref,) = _pass_reference(scored, "sqdist", queries, db, exact)
        assert 0 < got.excluded_pairs < got.num_pairs
        _assert_rounding_close(got, ref)

    @pytest.mark.parametrize("bad", ["out of range", "bool", "float"])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_bad_codes_raise_before_scoring(self, monkeypatch, which, bad):
        queries, db, scored = every_method("sqdist")
        method, codes = scored[which]
        codes = {"out of range": np.where(codes == 0, 8, codes),
                 "bool": codes.astype(bool),
                 "float": codes.astype(np.float64)}[bad]
        scored[which] = (method, codes)
        calls = []
        monkeypatch.setattr(metrics, "true_values",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="out of range|integers"):
            evaluate_methods(scored, "sqdist", queries, db)
        assert calls == []

    @pytest.mark.parametrize("max_pairs", [10**7, 300])
    @pytest.mark.parametrize("kind", ["scalar", "sqdist"])
    def test_equals_separate_evaluations(self, kind, max_pairs):
        queries, db, scored = every_method(kind)
        together = evaluate_methods(scored, kind, queries, db,
                                    max_pairs=max_pairs, seed=4)
        alone = [evaluate_method(m, kind, queries, db, c,
                                 max_pairs=max_pairs, seed=4)
                 for m, c in scored]
        assert together == alone
        expected_pairs = len(queries) * min(len(db), max_pairs // len(queries))
        assert all(s.num_pairs == expected_pairs for s in together)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_wrong_code_rows_raise_before_scoring(self, monkeypatch, bad):
        queries, db, scored = every_method("sqdist")
        scored[bad] = (scored[bad][0], scored[bad][1][:-1])
        scans = []
        monkeypatch.setattr(metrics, "true_values",
                            lambda *args: scans.append(args))
        with pytest.raises(ValueError, match="codes rows"):
            evaluate_methods(scored, "sqdist", queries, db)
        assert scans == []

    def test_queries_of_another_width_raise_before_scoring(self, monkeypatch):
        queries, db, scored = every_method("sqdist")
        scans = []
        monkeypatch.setattr(metrics, "true_values",
                            lambda *args: scans.append(args))
        for kind in ("scalar", "sqdist"):
            with pytest.raises(ValueError, match="eval queries have dimension "
                               "5, the database has dimension 6"):
                evaluate_methods(scored[:1], kind, queries[:, :5], db)
        assert scans == []


class TestPublicWrappers:
    """Whole-pipeline cases scored through the public evaluate_method."""

    def test_isotropic_transform_changes_nothing(self):
        # With an exactly isotropic query moment the transform is the
        # identity, so the whole pipeline must match the plain quantizer
        # bit for bit, metrics included.
        rng = np.random.default_rng(3)
        db = rng.standard_normal((150, 16))
        eval_q = rng.standard_normal((6, 16))
        t = learn_scalar_transform(4.0 * np.eye(16))
        pair = train_pairq(t, db, 4, 8, outer_iters=1, kmeans_iters=10, seed=1)
        plain = train_opq(db, 4, 8, outer_iters=1, kmeans_iters=10, seed=1)
        pair_codes = pairq_encode(pair, db)
        plain_codes = opq_encode(plain, db)
        np.testing.assert_array_equal(pair_codes, plain_codes)
        assert evaluate_method(pair, "scalar", eval_q, db, pair_codes).mse == \
            evaluate_method(plain, "scalar", eval_q, db, plain_codes).mse

    def test_all_pairs_degenerate_gives_nan(self):
        db = np.zeros((10, 3))
        queries = np.zeros((2, 3))
        model = train_opq(db, 1, 1, outer_iters=0, kmeans_iters=2, seed=0)
        codes = opq_encode(model, db)
        stats = evaluate_method(model, "sqdist", queries, db, codes)
        assert stats.mean_rel_error is None

    def test_negative_sqdist_estimates_are_kept(self):
        # A codeword whose norm coordinate is quantized far too low makes
        # the estimate negative; it must pass through unclamped.
        from pairq.transform import PairQModel, PairTransform

        transform = PairTransform(
            mode="sqdist", source_dim=1, matrix=np.eye(2), pinv=np.eye(2),
        )
        book = PQCodebook(centroids=np.array([[[0.0, -5.0]]]))
        opq = OPQModel(rotation=np.eye(2), codebook=book, input_dim=2)
        model = PairQModel(transform=transform, opq=opq)
        q = np.zeros(1)
        code = np.array([0])
        ests = estimate_batch(model, q, code[None, :], "sqdist")
        np.testing.assert_array_equal(ests, [-5.0])
        stats = evaluate_method(model, "sqdist", q[None, :],
                                np.array([[2.0]]), code[None, :])
        assert stats.mean_signed_error == -9.0
