"""Tests for lookup-table scans, error-mean tables, and bias correction."""

import numpy as np
import pytest

from pairq.estimator import (
    BiasCorrected,
    MseTable,
    adc_scan,
    build_lut_scalar,
    build_lut_sqdist,
    compute_mse_table,
)
from pairq.metrics import estimate_batch
from pairq.quantizer import (
    OPQModel,
    PQCodebook,
    apply_rotation,
    opq_encode,
    pq_decode,
    reconstruction_error,
    train_opq,
)


def trained_model(rng, n=600, dim=8, blocks=4, k=8, **kw):
    x = rng.standard_normal((n, dim)) * np.linspace(0.5, 2.0, dim)
    model = train_opq(x, blocks, k, outer_iters=kw.pop("outer_iters", 2),
                      kmeans_iters=kw.pop("kmeans_iters", 15), seed=0, **kw)
    return x, model


class TestBuildLutScalar:
    def test_zero_query_gives_zero_table(self):
        rng = np.random.default_rng(0)
        _, model = trained_model(rng)
        lut = build_lut_scalar(model, np.zeros(8))
        np.testing.assert_array_equal(lut, np.zeros((4, 8)))

    def test_single_block_row_is_centroid_products(self):
        rng = np.random.default_rng(1)
        x, model = trained_model(rng, blocks=1)
        r = rng.standard_normal(8)
        lut = build_lut_scalar(model, r)
        expected = model.codebook.centroids[0] @ (model.rotation @ r)
        np.testing.assert_allclose(lut[0], expected, atol=1e-12)

    def test_scan_equals_decode_route(self):
        rng = np.random.default_rng(2)
        x, model = trained_model(rng)
        codes = opq_encode(model, x)
        r = rng.standard_normal(8)
        lut = build_lut_scalar(model, r)
        scans = adc_scan(lut, codes[:50])
        r_rot = model.rotation @ r
        for i in range(50):
            direct = r_rot @ pq_decode(model.codebook, codes[i])
            np.testing.assert_allclose(scans[i], direct, rtol=1e-10, atol=1e-12)

    def test_accepts_padded_and_unpadded_queries(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 7))
        model = train_opq(x, 4, 4, outer_iters=1, kmeans_iters=10, seed=0, pad=True)
        short = rng.standard_normal(7)
        padded = np.append(short, 0.0)
        np.testing.assert_array_equal(
            build_lut_scalar(model, short),
            build_lut_scalar(model, padded),
        )
        with pytest.raises(ValueError, match="neither"):
            build_lut_scalar(model, np.zeros(6))


class TestBuildLutSqdist:
    def test_zero_at_own_code_for_decodable_query(self):
        rng = np.random.default_rng(4)
        _, model = trained_model(rng)
        parts = [model.codebook.centroids[j][3] for j in range(4)]
        q_rot = np.concatenate(parts)
        # Map back to the input space so the builder re-rotates it.
        q = model.rotation.T @ q_rot
        lut = build_lut_sqdist(model, q)
        total = sum(lut[j][3] for j in range(4))
        assert total <= 1e-18

    def test_scan_equals_decode_route(self):
        rng = np.random.default_rng(5)
        x, model = trained_model(rng)
        codes = opq_encode(model, x)
        q = rng.standard_normal(8)
        lut = build_lut_sqdist(model, q)
        scans = adc_scan(lut, codes[:50])
        q_rot = model.rotation @ q
        for i in range(50):
            direct = ((q_rot - pq_decode(model.codebook, codes[i])) ** 2).sum()
            np.testing.assert_allclose(scans[i], direct, rtol=1e-10, atol=1e-12)

    def test_entries_are_nonnegative(self):
        rng = np.random.default_rng(6)
        _, model = trained_model(rng)
        lut = build_lut_sqdist(model, rng.standard_normal(8))
        assert (lut >= 0.0).all()


class TestAdcScan:
    def test_empty_codes(self):
        table = np.ones((3, 4))
        out = adc_scan(table, np.zeros((0, 3), dtype=np.int64))
        assert out.shape == (0,)

    def test_manual_example(self):
        table = np.array([[1.0, 2.0], [10.0, 20.0]])
        codes = np.array([[0, 1], [1, 0]])
        np.testing.assert_array_equal(adc_scan(table, codes), [21.0, 12.0])
        assert adc_scan(table, np.array([1, 1])) == 22.0

    def test_single_code_returns_float(self):
        table = np.zeros((2, 2))
        out = adc_scan(table, np.array([0, 1]))
        assert isinstance(out, float)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        table = rng.standard_normal((6, 16))
        codes = rng.integers(0, 16, size=(10000, 6))
        fast = adc_scan(table, codes)
        naive = np.array([
            sum(table[j, codes[i, j]] for j in range(6)) for i in range(10000)
        ])
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_codes(self):
        table = np.zeros((2, 4))
        with pytest.raises(ValueError, match="blocks"):
            adc_scan(table, np.array([[0, 0, 0]]))
        with pytest.raises(ValueError, match="out of range"):
            adc_scan(table, np.array([[0, 4]]))
        with pytest.raises(ValueError, match="out of range"):
            adc_scan(table, np.array([[-1, 0]]))


class TestMseTable:
    def test_zero_for_decodable_training_data(self):
        rng = np.random.default_rng(8)
        x, model = trained_model(rng)
        decoded = pq_decode(model.codebook, opq_encode(model, x)) @ model.rotation
        table = compute_mse_table(model, decoded)
        hit = np.zeros((4, 8), dtype=bool)
        codes = opq_encode(model, decoded)
        for j in range(4):
            hit[j, np.unique(codes[:, j])] = True
        assert np.abs(table.values[hit]).max() <= 1e-18

    def test_single_cell_is_variance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((500, 3)) * [2.0, 1.0, 0.3]
        model = train_opq(x, 1, 1, outer_iters=0, kmeans_iters=5, seed=0)
        table = compute_mse_table(model, x)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(
            table.values[0, 0], (centered ** 2).sum() / 500, rtol=1e-10
        )

    def test_weighted_mean_equals_reconstruction_error(self):
        rng = np.random.default_rng(10)
        x, model = trained_model(rng)
        table = compute_mse_table(model, x)
        codes = opq_encode(model, x)
        per_point = adc_scan(table.values, codes)
        np.testing.assert_allclose(
            per_point.mean(), reconstruction_error(model, x) / x.shape[0],
            rtol=1e-10,
        )

    def test_empty_cells_zero_and_block_mean(self):
        rng = np.random.default_rng(11)
        x, model = trained_model(rng, n=400, k=16)
        subset = x[:3]
        zeroed = compute_mse_table(model, subset)
        codes = opq_encode(model, subset)
        for j in range(4):
            unused = np.setdiff1d(np.arange(16), codes[:, j])
            assert unused.size > 0
            np.testing.assert_array_equal(zeroed.values[j, unused], 0.0)
        filled = compute_mse_table(model, subset, empty_cells="block-mean")
        x_rot = apply_rotation(model, subset)
        for j in range(4):
            unused = np.setdiff1d(np.arange(16), codes[:, j])
            block = x_rot[:, 2 * j : 2 * j + 2]
            hats = model.codebook.centroids[j][codes[:, j]]
            mean_err = ((block - hats) ** 2).sum(axis=1).mean()
            np.testing.assert_allclose(filled.values[j, unused], mean_err,
                                       rtol=1e-10)

    def test_rejects_unknown_policy(self):
        rng = np.random.default_rng(12)
        x, model = trained_model(rng)
        with pytest.raises(ValueError, match="empty_cells"):
            compute_mse_table(model, x, empty_cells="nan")


class TestCorrectedSqdist:
    """Bias correction folds the error-mean table into the squared-distance
    table, so a corrected estimate still costs one scan."""

    def test_zero_table_is_identity(self):
        rng = np.random.default_rng(14)
        x, model = trained_model(rng)
        codes = opq_encode(model, x)
        q = rng.standard_normal(8)
        bc = BiasCorrected(opq=model, mse=MseTable(values=np.zeros((4, 8))))
        np.testing.assert_array_equal(
            estimate_batch(bc, q, codes, "sqdist"),
            estimate_batch(model, q, codes, "sqdist"),
        )

    def test_adds_selected_entries(self):
        book = PQCodebook(centroids=np.zeros((4, 2, 1)))
        model = OPQModel(rotation=np.eye(4), codebook=book, input_dim=4)
        bc = BiasCorrected(opq=model, mse=MseTable(values=np.ones((4, 2))))
        q = np.array([1.0, 0.0, 0.0, 0.0])
        assert estimate_batch(bc, q, np.array([0, 1, 0, 1]), "sqdist") == 5.0


class TestFixedPointIdentities:
    """Signed-error identities that hold exactly at converged fits."""

    def setup_method(self):
        rng = np.random.default_rng(13)
        self.x = rng.standard_normal((3000, 6)) * np.linspace(0.5, 2.0, 6)
        self.model = train_opq(self.x, 1, 16, outer_iters=0,
                               kmeans_iters=300, seed=0)
        assert self.model.converged
        self.codes = opq_encode(self.model, self.x)
        self.rng = rng

    def test_scalar_estimates_unbiased_on_training_set(self):
        q = self.rng.standard_normal(6)
        lut = build_lut_scalar(self.model, q)
        est = adc_scan(lut, self.codes)
        true = self.x @ q
        scale = np.linalg.norm(q) * np.mean(np.linalg.norm(self.x, axis=1))
        assert abs(np.mean(est - true)) <= 1e-9 * scale

    def test_sqdist_underestimation_equals_mean_mse(self):
        q = self.rng.standard_normal(6) * 2.0
        lut = build_lut_sqdist(self.model, q)
        est = adc_scan(lut, self.codes)
        diff = self.x - q
        true = np.einsum("ij,ij->i", diff, diff)
        under = np.mean(true - est)
        expected = reconstruction_error(self.model, self.x) / self.x.shape[0]
        assert under > 0.0
        np.testing.assert_allclose(under, expected, rtol=1e-8)

    def test_correction_removes_the_bias(self):
        q = self.rng.standard_normal(6) * 2.0
        table = compute_mse_table(self.model, self.x)
        lut = build_lut_sqdist(self.model, q)
        est = adc_scan(lut, self.codes) + adc_scan(table.values, self.codes)
        diff = self.x - q
        true = np.einsum("ij,ij->i", diff, diff)
        scale = np.mean(true)
        assert abs(np.mean(est - true)) <= 1e-9 * scale
