"""Tests for k-means, product quantization, and the rotated variant."""

import itertools

import numpy as np
import pytest

from pairq.quantizer import (
    OPQModel,
    _lloyd,
    assign,
    apply_rotation,
    kmeans,
    opq_decode,
    opq_encode,
    pq_decode,
    pq_encode,
    reconstruction_error,
    train_opq,
    train_pq,
)


def brute_force_kmeans(points, k):
    """Global optimum by enumerating every assignment. Tiny inputs only."""
    n = points.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        total = 0.0
        for c in range(k):
            members = points[labels == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


class TestKMeans:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        result = kmeans(x, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], x.mean(axis=0), atol=1e-12)
        assert result.converged

    def test_k_equals_n_distinct_points(self):
        x = np.arange(6, dtype=float).reshape(6, 1) * 10.0
        result = kmeans(x, 6, max_iters=50, seed=1)
        assert result.inertia == 0.0
        np.testing.assert_allclose(np.sort(result.centroids, axis=0), x)

    def test_two_blobs(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((30, 2)) * 0.05 + [0.0, 0.0]
        b = rng.standard_normal((30, 2)) * 0.05 + [10.0, 10.0]
        x = np.vstack([a, b])
        result = kmeans(x, 2, seed=3)
        got = np.sort(result.centroids, axis=0)
        np.testing.assert_allclose(got[0], a.mean(axis=0), atol=0.05)
        np.testing.assert_allclose(got[1], b.mean(axis=0), atol=0.05)

    def test_matches_exhaustive_optimum_on_tiny_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, 4))
            d = int(rng.integers(1, 3))
            x = rng.standard_normal((n, d))
            oracle = brute_force_kmeans(x, k)
            best = min(
                kmeans(x, k, max_iters=50, seed=s).inertia for s in range(10)
            )
            assert best <= oracle + 1e-9 * max(1.0, oracle)
            assert best >= oracle - 1e-9 * max(1.0, oracle)

    def test_trace_monotone_and_fixed_point_invariants(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 4))
        result = kmeans(x, 8, max_iters=100, seed=6)
        assert result.converged
        trace = np.array(result.trace)
        assert (np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1])).all()
        # Every point sits with its nearest centroid.
        d2 = ((x[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(d2.argmin(axis=1), result.assignments)
        # Every non-empty centroid is the mean of its members.
        for c in range(8):
            members = x[result.assignments == c]
            if len(members):
                np.testing.assert_allclose(
                    result.centroids[c], members.mean(axis=0), atol=1e-10
                )

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 5))
        a = kmeans(x, 16, seed=42)
        b = kmeans(x, 16, seed=42)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = kmeans(x, 16, seed=43)
        assert not np.array_equal(a.centroids, c.centroids)

    def test_empty_cluster_repair(self):
        rng = np.random.default_rng(8)
        x = np.vstack([
            rng.standard_normal((20, 2)) * 0.1,
            rng.standard_normal((20, 2)) * 0.1 + [5.0, 0.0],
        ])
        # Both starting centroids inside one blob: the far blob must steal
        # one through the empty-cluster repair, or assignments collapse.
        start = np.array([[0.0, 0.0], [1e-9, 0.0]])
        result = _lloyd(x, start, max_iters=50)
        assert result.converged
        assert len(np.unique(result.assignments)) == 2
        single = kmeans(x, 1, seed=0).inertia
        assert result.inertia < single / 10

    def test_input_validation(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError, match="exceeds point count"):
            kmeans(x, 6)
        with pytest.raises(ValueError, match=">= 1"):
            kmeans(x, 0)
        with pytest.raises(ValueError, match="finite|NaN"):
            kmeans(np.array([[np.inf, 0.0]]), 1)
        with pytest.raises(ValueError, match="2-dimensional"):
            kmeans(np.zeros(5), 1)


class TestAssign:
    def test_exact_match(self):
        centroids = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert assign(np.array([2.0, 2.0]), centroids) == 2

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[2.0], [0.0], [0.0], [2.0]])
        assert assign(np.array([1.0]), centroids) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        centroids = rng.standard_normal((17, 6))
        for _ in range(50):
            x = rng.standard_normal(6)
            d2 = ((centroids - x) ** 2).sum(axis=1)
            assert assign(x, centroids) == d2.argmin()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            assign(np.zeros(3), np.zeros((2, 4)))


class TestTrainPQ:
    def test_single_block_equals_kmeans(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((120, 6))
        book = train_pq(x, 1, 8, kmeans_iters=30, seed=5)
        reference = kmeans(x, 8, max_iters=30, seed=5)
        np.testing.assert_array_equal(book.centroids[0], reference.centroids)

    def test_one_centroid_per_block_is_block_mean(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((50, 6))
        book = train_pq(x, 3, 1, seed=0)
        for j in range(3):
            np.testing.assert_allclose(
                book.centroids[j][0], x[:, 2 * j : 2 * j + 2].mean(axis=0),
                atol=1e-12,
            )

    def test_error_is_sum_of_per_block_inertias(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((200, 8))
        book = train_pq(x, 2, 4, kmeans_iters=40, seed=3)
        total = reconstruction_error(book, x)
        parts = sum(
            kmeans(x[:, 4 * j : 4 * j + 4], 4, max_iters=40, seed=3 + j).inertia
            for j in range(2)
        )
        np.testing.assert_allclose(total, parts, rtol=1e-12)

    def test_rejects_indivisible_dim_without_pad(self):
        with pytest.raises(ValueError, match="divisible"):
            train_pq(np.zeros((10, 7)), 2, 2)

    def test_padding(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((60, 7))
        book = train_pq(x, 2, 4, seed=0, pad=True)
        assert book.dim == 8
        assert book.centroids.shape == (2, 4, 4)

    def test_codebook_size_cap(self):
        with pytest.raises(ValueError, match=r"\[1, 256\]"):
            train_pq(np.zeros((300, 4)), 2, 257)

    def test_rejects_k_above_point_count(self):
        with pytest.raises(ValueError, match="exceeds point count"):
            train_pq(np.zeros((3, 4)), 2, 4)


class TestEncodeDecode:
    def setup_method(self):
        rng = np.random.default_rng(14)
        self.x = rng.standard_normal((150, 8))
        self.book = train_pq(self.x, 4, 5, kmeans_iters=30, seed=1)

    def test_codes_shape_and_dtype(self):
        codes = pq_encode(self.book, self.x)
        assert codes.shape == (150, 4)
        assert codes.dtype == np.uint8
        single = pq_encode(self.book, self.x[0])
        np.testing.assert_array_equal(single, codes[0])

    def test_decode_of_codebook_point_is_exact(self):
        # A vector assembled from centroids must round-trip exactly.
        parts = [self.book.centroids[j][2] for j in range(4)]
        x = np.concatenate(parts)
        code = pq_encode(self.book, x)
        np.testing.assert_array_equal(pq_decode(self.book, code), x)

    def test_each_block_picks_nearest_centroid(self):
        codes = pq_encode(self.book, self.x)
        for j in range(4):
            block = self.x[:, 2 * j : 2 * j + 2]
            d2 = ((block[:, None, :] - self.book.centroids[j][None]) ** 2).sum(axis=2)
            np.testing.assert_array_equal(codes[:, j], d2.argmin(axis=1))

    def test_decode_batch_matches_single(self):
        codes = pq_encode(self.book, self.x[:5])
        batch = pq_decode(self.book, codes)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], pq_decode(self.book, codes[i]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            pq_encode(self.book, np.zeros(7))

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="out of range"):
            pq_decode(self.book, np.array([0, 0, 0, 5]))
        with pytest.raises(ValueError, match="out of range"):
            pq_decode(self.book, np.array([0, 0, 0, -1]))

    def test_rejects_float_codes(self):
        with pytest.raises(ValueError, match="integers"):
            pq_decode(self.book, np.zeros(4))


def correlated_data(rng, n, d):
    """Data whose principal axes straddle block boundaries, so a rotation
    has something to gain."""
    half = d // 2
    base = rng.standard_normal((n, half))
    noise = rng.standard_normal((n, half)) * 0.1
    return np.hstack([base + noise, base - noise]) * np.linspace(1.0, 3.0, d)


class TestTrainOPQ:
    def test_zero_outer_iters_equals_plain_pq(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((100, 6))
        model = train_opq(x, 3, 4, outer_iters=0, kmeans_iters=20, seed=7)
        book = train_pq(x, 3, 4, kmeans_iters=20, seed=7)
        np.testing.assert_array_equal(model.rotation, np.eye(6))
        for j in range(3):
            np.testing.assert_array_equal(model.codebook.centroids[j],
                                          book.centroids[j])

    def test_trace_monotone(self):
        rng = np.random.default_rng(16)
        x = correlated_data(rng, 400, 8)
        model = train_opq(x, 4, 8, outer_iters=6, kmeans_iters=10, seed=0)
        trace = np.array(model.trace)
        assert len(trace) == 7
        assert (np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1])).all()

    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(17)
        x = correlated_data(rng, 300, 6)
        model = train_opq(x, 3, 4, outer_iters=4, kmeans_iters=10, seed=1)
        np.testing.assert_allclose(
            model.rotation @ model.rotation.T, np.eye(6), atol=1e-10
        )

    def test_beats_unrotated_pq_on_correlated_data(self):
        rng = np.random.default_rng(18)
        x = correlated_data(rng, 600, 8)
        pq_err = reconstruction_error(train_pq(x, 4, 16, kmeans_iters=15, seed=2), x)
        opq = train_opq(x, 4, 16, outer_iters=8, kmeans_iters=15, seed=2)
        assert opq.trace[-1] < pq_err

    def test_reconstruction_error_matches_trace(self):
        rng = np.random.default_rng(19)
        x = correlated_data(rng, 200, 6)
        model = train_opq(x, 3, 4, outer_iters=3, kmeans_iters=10, seed=3)
        np.testing.assert_allclose(
            reconstruction_error(model, x), model.trace[-1], rtol=1e-12
        )

    def test_error_agrees_across_spaces(self):
        # Rotation preserves norms, so the rotated-space objective equals
        # the input-space distance to the back-rotated reconstruction.
        rng = np.random.default_rng(20)
        x = correlated_data(rng, 150, 6)
        model = train_opq(x, 3, 4, outer_iters=3, kmeans_iters=10, seed=4)
        codes = opq_encode(model, x)
        x_hat = opq_decode(model, codes)
        direct = ((x - x_hat) ** 2).sum()
        np.testing.assert_allclose(direct, model.trace[-1], rtol=1e-8)

    def test_padding_and_original_space_decode(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((80, 7))
        model = train_opq(x, 4, 4, outer_iters=2, kmeans_iters=10, seed=5, pad=True)
        assert model.dim == 8
        assert model.input_dim == 7
        codes = opq_encode(model, x)
        assert codes.shape == (80, 4)
        assert opq_decode(model, codes).shape == (80, 7)
        assert apply_rotation(model, x).shape == (80, 8)

    def test_rejects_indivisible_without_pad(self):
        with pytest.raises(ValueError, match="divisible"):
            train_opq(np.zeros((30, 7)), 4, 2)

    def test_pca_init(self):
        rng = np.random.default_rng(22)
        x = correlated_data(rng, 300, 6)
        model = train_opq(x, 3, 4, outer_iters=0, kmeans_iters=10, seed=6,
                          init_rotation="pca")
        np.testing.assert_allclose(
            model.rotation @ model.rotation.T, np.eye(6), atol=1e-10
        )
        with pytest.raises(ValueError, match="init_rotation"):
            train_opq(x, 3, 4, init_rotation="qr")

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        x = correlated_data(rng, 200, 6)
        a = train_opq(x, 3, 8, outer_iters=3, kmeans_iters=10, seed=9)
        b = train_opq(x, 3, 8, outer_iters=3, kmeans_iters=10, seed=9)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        for j in range(3):
            np.testing.assert_array_equal(a.codebook.centroids[j],
                                          b.codebook.centroids[j])
        assert a.trace == b.trace


class TestReconstructionError:
    def test_zero_for_decodable_data(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((50, 4))
        book = train_pq(x, 2, 4, seed=0)
        decoded = pq_decode(book, pq_encode(book, x))
        assert reconstruction_error(book, decoded) == 0.0

    def test_single_centroid_equals_total_variance(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((400, 3)) * [1.0, 2.0, 0.5]
        book = train_pq(x, 1, 1, seed=0)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(
            reconstruction_error(book, x), (centered ** 2).sum(), rtol=1e-10
        )

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((60, 6))
        model = train_opq(x, 3, 4, outer_iters=2, kmeans_iters=10, seed=1)
        x_rot = apply_rotation(model, x)
        codes = pq_encode(model.codebook, x_rot)
        total = 0.0
        for i in range(60):
            total += ((x_rot[i] - pq_decode(model.codebook, codes[i])) ** 2).sum()
        np.testing.assert_allclose(reconstruction_error(model, x), total, rtol=1e-10)

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="unsupported"):
            reconstruction_error(object(), np.zeros((2, 2)))
