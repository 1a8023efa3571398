"""Tests for lookup-table scans, error-mean tables, and bias correction."""

import tracemalloc

import numpy as np
import pytest

from pairq import quantizer
from pairq.estimator import (
    BiasCorrected,
    MseTable,
    adc_scan,
    build_lut_scalar,
    build_lut_sqdist,
    compute_mse_table,
)
from pairq.datasets import read_ivecs, write_ivecs
from pairq.metrics import estimate_batch
from pairq.quantizer import (
    OPQModel,
    PQCodebook,
    opq_encode,
    pq_decode,
    reconstruction_error,
    train_opq,
)
from pairq.transform import (
    learn_scalar_transform,
    learn_sqdist_transform,
    pairq_encode,
    train_pairq,
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
        # As masks, all-True codes would score [11, 22] here, not [22, 22].
        table = np.array([[1.0, 2.0], [10.0, 20.0]])
        for dtype in (bool, float):
            with pytest.raises(ValueError, match="integers"):
                adc_scan(table, np.ones((2, 2), dtype=dtype))


# Every integer dtype ``check_codes`` accepts.
CODE_DTYPES = [np.uint8, np.int8, np.int16, np.uint16,
               np.int32, np.uint32, np.int64, np.uint64]
LAYOUTS = ["c-order", "column-slice", "fortran", "negative-strides"]


def code_layout(codes, layout):
    """The same code values held in the given memory layout."""
    if layout == "column-slice":
        wide = np.zeros((codes.shape[0], 2 * codes.shape[1] + 1), codes.dtype)
        wide[:, 1::2] = codes
        return wide[:, 1::2]
    if layout == "fortran":
        return np.asfortranarray(codes)
    if layout == "negative-strides":
        return codes[::-1, ::-1].copy()[::-1, ::-1]
    return np.ascontiguousarray(codes)


def assert_same_bits(actual, expected):
    """Equal values and equal bit patterns, so a -0.0 cannot pass for 0.0."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def block_order_scan(table, codes):
    """Each estimate as a sum from 0.0, adding ``table[j, c[j]]`` one block
    at a time in index order."""
    out = np.empty(len(codes))
    for i, code in enumerate(codes):
        total = 0.0
        for j, c in enumerate(code):
            total = total + table[j, int(c)]
        out[i] = total
    return out


def element_decode(centroids, codes):
    """Reconstruction copied one sub-centroid at a time."""
    m, _, s = centroids.shape
    out = np.empty((len(codes), m * s))
    for i, code in enumerate(codes):
        for j, c in enumerate(code):
            out[i, j * s : (j + 1) * s] = centroids[j, int(c)]
    return out


class TestGathersKeepTheirBits:
    """The scan and the decode gather with ``take``; neither may move a
    bit against the plain per-element definitions, for any code dtype or
    layout."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("dtype", CODE_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_scan_is_the_block_order_sum(self, dtype, layout):
        rng = np.random.default_rng(20)
        table = rng.standard_normal((5, 100)) * 10.0 ** rng.integers(-8, 8, (5, 100))
        table[rng.random(table.shape) < 0.1] = -0.0
        codes = rng.integers(0, 100, size=(300, 5)).astype(dtype)
        expected = block_order_scan(table, codes)
        held = code_layout(codes, layout)
        assert_same_bits(adc_scan(table, held), expected)
        assert_same_bits(adc_scan(table, held[:1]), expected[:1])
        single = adc_scan(table, held[0])
        assert isinstance(single, float)
        assert_same_bits(single, expected[0])

    @pytest.mark.parametrize("dtype", CODE_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_negative_zero_table_sums_to_positive_zero(self, dtype):
        # The sum starts from +0.0, and 0.0 + -0.0 is +0.0.
        table = np.full((3, 4), -0.0)
        codes = np.array([[0, 1, 2], [3, 3, 3]], dtype=dtype)
        out = adc_scan(table, codes)
        assert_same_bits(out, block_order_scan(table, codes))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("dtype", CODE_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_decode_copies_each_sub_centroid(self, dtype, layout):
        rng = np.random.default_rng(21)
        centroids = rng.standard_normal((4, 100, 3))
        centroids[0, :5] = -0.0
        book = PQCodebook(centroids=centroids)
        codes = rng.integers(0, 100, size=(200, 4)).astype(dtype)
        codes[:3, 0] = [0, 1, 2]
        expected = element_decode(centroids, codes)
        held = code_layout(codes, layout)
        assert_same_bits(pq_decode(book, held), expected)
        assert_same_bits(pq_decode(book, held[0]), expected[0])

    def test_decode_of_a_strided_codebook(self):
        rng = np.random.default_rng(22)
        centroids = rng.standard_normal((3, 16, 8))[:, ::2, 1::2]
        codes = rng.integers(0, 8, size=(50, 3)).astype(np.uint8)
        assert_same_bits(pq_decode(PQCodebook(centroids=centroids), codes),
                         element_decode(centroids, codes))

    def test_estimates_equal_for_uint8_and_ivecs_codes(self, tmp_path):
        # Encoders give uint8 codes; `pairq encode` files read back as int32.
        rng = np.random.default_rng(23)
        x, model = trained_model(rng, n=500, dim=8, blocks=4, k=16)
        queries = rng.standard_normal((4, 8))
        bc = BiasCorrected(opq=model, mse=compute_mse_table(model, x))
        opq_codes = opq_encode(model, x)
        methods = [(model, "scalar", opq_codes), (model, "sqdist", opq_codes),
                   (bc, "sqdist", opq_codes)]
        for kind, learn in (("scalar", learn_scalar_transform),
                            ("sqdist", learn_sqdist_transform)):
            pair = train_pairq(learn(queries), x, 4, 16, outer_iters=1,
                               kmeans_iters=4, seed=0)
            methods.append((pair, kind, pairq_encode(pair, x)))
        for method, kind, codes in methods:
            assert codes.dtype == np.uint8
            write_ivecs(tmp_path / "codes.ivecs", codes)
            held = {"int32": read_ivecs(tmp_path / "codes.ivecs"),
                    "int64": codes.astype(np.int64)}
            assert held["int32"].dtype == np.int32
            for q in queries:
                expected = estimate_batch(method, q, codes, kind)
                for other in held.values():
                    assert_same_bits(estimate_batch(method, q, other, kind), expected)


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

    def test_given_codes_give_the_same_table(self, monkeypatch):
        rng = np.random.default_rng(12)
        x, model = trained_model(rng)
        codes = opq_encode(model, x)
        table = compute_mse_table(model, x).values

        def no_encode(*args):
            raise AssertionError("given codes were encoded again")

        monkeypatch.setattr("pairq.estimator.pq_encode", no_encode)
        np.testing.assert_array_equal(
            compute_mse_table(model, x, codes).values, table
        )
        with pytest.raises(ValueError, match="code rows"):
            compute_mse_table(model, x, codes[1:])

    @staticmethod
    def random_model(rng, dim, blocks, k):
        rotation = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        book = PQCodebook(centroids=rng.standard_normal((blocks, k, dim // blocks)))
        return OPQModel(rotation=rotation, codebook=book, input_dim=dim)

    def test_chunks_give_the_whole_batch_table(self, monkeypatch):
        # K = 16 tiles are 4096 rows: one chunk at the module constant,
        # 4096, 4096 and 5808 rows with CHUNK_ENTRIES patched to 1.
        rng = np.random.default_rng(13)
        model = self.random_model(rng, 12, 4, 16)
        x = rng.standard_normal((3 * 4096 + 1712, 12))
        codes = opq_encode(model, x)
        whole = compute_mse_table(model, x).values
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        np.testing.assert_array_equal(compute_mse_table(model, x).values, whole)
        np.testing.assert_array_equal(
            compute_mse_table(model, x, codes).values, whole
        )

    def test_peak_memory_is_the_error_array_and_a_few_chunks(self, monkeypatch):
        # Five chunks of one 4096-row tile (K = 16) of 64 columns: the
        # rotated rows would be 10.5 MB whole, a chunk of them 2.1 MB.
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        rng = np.random.default_rng(14)
        model = self.random_model(rng, 64, 4, 16)
        x = rng.standard_normal((5 * 4096, 64))
        codes = opq_encode(model, x)
        chunk = 8 * 4096 * 64
        # The (N, M) float64 errors and the int64 bins of the one bincount.
        per_code = 2 * 8 * codes.size
        for given in (None, codes):
            tracemalloc.start()
            try:
                compute_mse_table(model, x, given)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < per_code + 4 * chunk, peak

    def test_empty_cells_are_zero(self):
        rng = np.random.default_rng(11)
        x, model = trained_model(rng, n=400, k=16)
        subset = x[:3]
        zeroed = compute_mse_table(model, subset)
        codes = opq_encode(model, subset)
        for j in range(4):
            unused = np.setdiff1d(np.arange(16), codes[:, j])
            assert unused.size > 0
            np.testing.assert_array_equal(zeroed.values[j, unused], 0.0)


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
