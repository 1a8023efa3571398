"""Tests for k-means, product quantization, and the rotated variant."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairq import quantizer
from pairq.quantizer import (
    SEED_CHUNK,
    TILE_ENTRIES,
    OPQModel,
    PQCodebook,
    _append_ones,
    _assign_batch,
    _check_monotone,
    _kmeans_pp_init,
    _lloyd,
    _seed_d2,
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
        with pytest.raises(ValueError, match="points is empty"):
            kmeans(np.zeros((0, 2)), 1)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            kmeans(x, 1, max_iters=0)

    def test_an_increasing_objective_raises(self):
        _check_monotone([3.0, 2.0, 2.0], "k-means")
        with pytest.raises(RuntimeError,
                           match="k-means objective increased from 2.0 to 2.5"):
            _check_monotone([3.0, 2.0, 2.5], "k-means")

    def test_column_view_fits_like_a_copy(self):
        # kmeans reads a column slice in place; the fit keeps every bit.
        x = np.random.default_rng(22).standard_normal((3000, 24))
        view = kmeans(x[:, 8:16], 32, max_iters=5, seed=4)
        copy = kmeans(np.ascontiguousarray(x[:, 8:16]), 32, max_iters=5, seed=4)
        np.testing.assert_array_equal(view.centroids, copy.centroids)
        np.testing.assert_array_equal(view.assignments, copy.assignments)
        assert view.trace == copy.trace


def assign(x, centroids) -> int:
    """Nearest-centroid index of one vector, encoded as a batch of one
    through a one-block codebook."""
    book = PQCodebook(centroids=np.asarray(centroids)[None])
    return int(pq_encode(book, np.asarray(x)[None])[0, 0])


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
        with pytest.raises(ValueError, match="does not match"):
            assign(np.zeros(3), np.zeros((2, 4)))


def exact_sq_dists(x, centroids):
    return ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def assign_cases():
    """(k, n, s) around the tile edges. k = 255 is an odd codebook width,
    where OpenBLAS's edge kernels would compute the last columns; s = 8 and
    17 are the block widths of the benchmark's train-scalar and bench-sqdist
    shapes. Width-3 ids carry no width."""
    for s in (3, 8, 17):
        for k in (1, 2, 255, 256):
            tile = TILE_ENTRIES // k
            for n in (0, 1, tile - 1, tile, tile + 1, 2 * tile + 3):
                yield pytest.param(k, n, s, id=f"{k}-{n}" + (f"-s{s}" if s != 3 else ""))


def assign_case_data(k, n, s):
    """Points and centroids of one ``assign_cases`` triple: duplicate points,
    centroids sitting on points, and (for k > 2) a centroid repeated at the
    last index. Width 3 is seeded with ``1000 * k + n``."""
    rng = np.random.default_rng(1000 * k + n + 10**6 * (s - 3))
    pool = rng.standard_normal((max(1, n // 3), s))
    x = pool[rng.integers(len(pool), size=n)]
    centroids = np.vstack([
        pool[rng.integers(len(pool), size=(k + 1) // 2)],
        rng.standard_normal((k // 2, s)),
    ])
    if k > 2:
        centroids[-1] = centroids[0]
    return x, centroids


def lloyd_min_d2(x, best):
    """Squared distance to the winner, built from the kernel's score as
    ``_lloyd`` builds it."""
    return np.maximum(np.einsum("ij,ij->i", x, x) + best, 0.0)


class TestAssignBatch:
    """The tiled kernel against a brute-force nearest-centroid search."""

    @pytest.mark.parametrize("k,n,s", list(assign_cases()))
    def test_matches_brute_force(self, k, n, s):
        x, centroids = assign_case_data(k, n, s)
        labels, best = _assign_batch(_append_ones(x), centroids)
        min_d2 = lloyd_min_d2(x, best)
        assert labels.shape == (n,) and min_d2.shape == (n,)
        if n == 0:
            return
        d2 = exact_sq_dists(x, centroids)
        rows = np.arange(n)
        # Rounding of x² + (c² − 2xc) relative to the magnitudes involved.
        tol = 1e-13 * (np.einsum("ij,ij->i", x, x) + (centroids ** 2).sum(1).max())
        assert (min_d2 >= 0.0).all()
        assert (np.abs(min_d2 - d2[rows, labels]) <= tol).all()
        assert (d2[rows, labels] <= d2.min(axis=1) + tol).all()
        # Copies of one centroid tie exactly: the lowest index must win.
        _, first, inverse = np.unique(
            centroids, axis=0, return_index=True, return_inverse=True
        )
        np.testing.assert_array_equal(first[inverse][labels], labels)
        if len(first) > 1:
            ranked = np.sort(d2[:, first], axis=1)
            clear = ranked[:, 1] - ranked[:, 0] > 2 * tol
            assert clear.mean() > 0.9
            np.testing.assert_array_equal(labels[clear], d2.argmin(axis=1)[clear])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 700),
        k=st.sampled_from([1, 2, 3, 64, 256]),
        dim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_on_integer_grid(self, n, k, dim, seed):
        # Small integers make every distance exact, so ties are real and
        # must go to the lowest index, as in the brute-force argmin.
        rng = np.random.default_rng(seed)
        x = rng.integers(-4, 5, size=(n, dim)).astype(float)
        centroids = rng.integers(-4, 5, size=(k, dim)).astype(float)
        labels, best = _assign_batch(_append_ones(x), centroids)
        min_d2 = lloyd_min_d2(x, best)
        d2 = exact_sq_dists(x, centroids)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        np.testing.assert_array_equal(min_d2, d2.min(axis=1, initial=np.inf))


class TestEncodeMatchesLloyd:
    """``pq_encode`` keeps only the labels of the assignment kernel that
    Lloyd runs; they must be the labels the kernel gives the same rows."""

    @pytest.mark.parametrize("k,n,s", list(assign_cases()))
    def test_labels_equal_assign_batch(self, k, n, s):
        x, centroids = assign_case_data(k, n, s)
        codes = pq_encode(PQCodebook(centroids=centroids[None]), x)
        assert codes.shape == (n, 1)
        labels, _ = _assign_batch(_append_ones(x), centroids)
        np.testing.assert_array_equal(codes[:, 0], labels)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 700),
        k=st.sampled_from([1, 2, 3, 64, 256]),
        dim=st.integers(1, 4),
        num_blocks=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_on_integer_grid(self, n, k, dim, num_blocks, seed):
        # Exact distances make ties real: every block's codes must equal
        # the kernel's labels and the brute-force first argmin.
        rng = np.random.default_rng(seed)
        x = rng.integers(-4, 5, size=(n, num_blocks * dim)).astype(float)
        centroids = rng.integers(-4, 5, size=(num_blocks, k, dim)).astype(float)
        codes = pq_encode(PQCodebook(centroids=centroids), x)
        for j in range(num_blocks):
            block = x[:, j * dim : (j + 1) * dim]
            labels, _ = _assign_batch(_append_ones(block), centroids[j])
            np.testing.assert_array_equal(codes[:, j], labels)
            d2 = exact_sq_dists(block, centroids[j])
            np.testing.assert_array_equal(codes[:, j], d2.argmin(axis=1))


def choice_seeding(x, k, rng):
    """k-means++ seeding that draws each centroid with ``Generator.choice``."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(n))]
    if k == 1:
        return centroids
    d2 = np.einsum("ij,ij->i", x - centroids[0], x - centroids[0])
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centroids[i] = x[pick]
        if i + 1 < k:
            cand = np.einsum("ij,ij->i", x - centroids[i], x - centroids[i])
            np.minimum(d2, cand, out=cand)
            d2 = cand
    return centroids


class TestSeedingStream:
    """The seeding must draw exactly the centroids ``Generator.choice`` would,
    so every seeded model stays the same."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("n,dim,k,data", [
        (300, 8, 64, "normal"),
        (50, 3, 7, "normal"),
        (12, 2, 12, "normal"),      # k = n: the last draws see total == 0
        (40, 3, 40, "grid"),        # duplicates: total == 0 before k draws
        (25, 4, 6, "identical"),    # total == 0 from the first draw
        (2000, 5, 256, "columns"),  # a column slice, as train_pq passes
        (20000, 8, 256, "normal"),   # the train-scalar block shape
        (10000, 17, 64, "columns"),  # a bench-sqdist block (129 columns padded to 136)
        (3000, 4, 32, "offset"),     # a 1e6 common offset
        (500, 1, 32, "normal"),      # one coordinate per block
        (SEED_CHUNK - 1, 3, 48, "normal"),  # one chunk, its last point padding
        (SEED_CHUNK + 1, 3, 48, "normal"),  # a second chunk of one point
        (SEED_CHUNK // 4, 6, 40, "normal"),  # n < SEED_CHUNK
        (2 * SEED_CHUNK + 1, 2, 2 * SEED_CHUNK + 1, "normal"),  # k = n, 3 chunks
        (3000, 4, 32, "offset1e7"),
        (3000, 4, 32, "offset1e8"),
        (SEED_CHUNK + 88, 3, 64, "grid+offset"),  # duplicates at a 1e6 offset
        (2 * SEED_CHUNK + 37, 5, 24, "tail"),  # weight only in the last chunk
    ])
    def test_matches_choice_draws(self, seed, n, dim, k, data):
        rng = np.random.default_rng(seed + 10_000)
        if data == "grid":
            x = rng.integers(0, 3, size=(n, dim)).astype(float)
        elif data == "grid+offset":
            x = rng.integers(0, 3, size=(n, dim)) + 1e6
        elif data == "identical":
            x = np.tile(rng.standard_normal(dim), (n, 1))
        elif data == "columns":
            x = rng.standard_normal((n, 3 * dim))[:, dim : 2 * dim]
        elif data.startswith("offset"):
            x = rng.standard_normal((n, dim)) + float(data[6:] or 1e6)
        elif data == "tail":
            # Zero rows, then a partial last chunk of distinct rows: unless
            # the first pick is a tail row, every draw's weight is there.
            x = np.zeros((n, dim))
            x[-37:] = rng.standard_normal((37, dim))
        else:
            x = rng.standard_normal((n, dim)) * np.linspace(1.0, 4.0, dim)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _kmeans_pp_init(np.ascontiguousarray(x), k, ours)
        want = choice_seeding(x, k, reference)
        np.testing.assert_array_equal(got, want)
        assert ours.random() == reference.random()


    @pytest.mark.parametrize("n", [SEED_CHUNK, 2 * SEED_CHUNK + 37])
    def test_top_uniform_picks_last_weighted_point(self, n):
        # The largest uniform below 1 lands on the last step of the CDF,
        # as in Generator.choice, also where rounding takes the target past
        # the end of the last chunk.
        class TopUniform:
            def integers(self, n):
                return 0

            def random(self):
                return np.nextafter(1.0, 0.0)

        x = np.random.default_rng(23).standard_normal((n, 3))
        got = _kmeans_pp_init(x, 5, TopUniform())
        np.testing.assert_array_equal(got, x[[0, n - 1, n - 2, n - 3, n - 4]])


class TestSeedD2:
    """The D² step: product form on anchored rows, difference form near 0."""

    @pytest.mark.parametrize("data", ["grid+offset", "normal+offset", "normal"])
    def test_exact_zeros_and_margin(self, data):
        rng = np.random.default_rng(21)
        n, s = 3000, 6
        if data == "grid+offset":
            x = rng.integers(0, 3, size=(n, s)) + 1e6
        else:
            x = rng.standard_normal((n, s)) * np.linspace(1.0, 5.0, s)
            x[1::7] = x[0]  # duplicates of row 0
            if data == "normal+offset":
                x += 1e6
        d2_to = _seed_d2(x)
        y_sq = np.einsum("ij,ij->i", x - x.mean(axis=0), x - x.mean(axis=0))
        u = np.finfo(float).eps / 2
        gamma = (s + 2) * u / (1 - (s + 2) * u)
        for i in [0, 5, n - 1]:  # row 0 has duplicates in every case
            c = x[i].copy()
            got = d2_to(c, np.empty(n))
            want = np.einsum("ij,ij->i", x - c, x - c)
            same = (x == c).all(axis=1)
            assert (got[same] == 0.0).all()
            assert (got[~same] > 0.0).all()
            cc = c - x.mean(axis=0)
            margin = 6 * gamma * (y_sq + cc @ cc)
            assert (np.abs(got - want) <= margin).all()


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
        # Zero columns divide by any block count, but hold no block.
        with pytest.raises(ValueError, match="2 blocks exceed dimension 0"):
            train_pq(np.zeros((10, 0)), 2, 2)

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
        one = pq_encode(self.book, self.x[:1])
        assert one.shape == (1, 4)
        np.testing.assert_array_equal(one, codes[:1])

    def test_decode_of_codebook_point_is_exact(self):
        # A vector assembled from centroids must round-trip exactly.
        parts = [self.book.centroids[j][2] for j in range(4)]
        x = np.concatenate(parts)[None]
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
            np.testing.assert_array_equal(batch[i:i + 1],
                                          pq_decode(self.book, codes[i:i + 1]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            pq_encode(self.book, np.zeros((1, 7)))

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="out of range"):
            pq_decode(self.book, np.array([[0, 0, 0, 5]]))
        with pytest.raises(ValueError, match="out of range"):
            pq_decode(self.book, np.array([[0, 0, 0, -1]]))

    def test_rejects_float_codes(self):
        with pytest.raises(ValueError, match="integers"):
            pq_decode(self.book, np.zeros((1, 4)))

    def test_rejects_codebook_beyond_one_byte(self):
        # Centroid 256 is the nearest to 290; as a uint8 code it would wrap
        # to 0, so a codebook of 257 centroids cannot be encoded at all.
        book = PQCodebook(centroids=np.arange(257.0).reshape(1, 257, 1))
        with pytest.raises(ValueError, match=r"codebook_size must be in \[1, 256\]"):
            pq_encode(book, np.array([[290.0]]))
        full = PQCodebook(centroids=book.centroids[:, :256])
        np.testing.assert_array_equal(pq_encode(full, np.array([[290.0]])), [[255]])


def correlated_data(rng, n, d):
    """Data whose principal axes straddle block boundaries, so a rotation
    has something to gain."""
    half = d // 2
    base = rng.standard_normal((n, half))
    noise = rng.standard_normal((n, half)) * 0.1
    return np.hstack([base + noise, base - noise]) * np.linspace(1.0, 3.0, d)


class TestTrainOPQ:
    @pytest.mark.parametrize("num_blocks", [0, -1])
    def test_rejects_block_count_below_one(self, num_blocks):
        x = np.random.default_rng(14).standard_normal((20, 4))
        with pytest.raises(ValueError, match="num_blocks must be >= 1"):
            train_opq(x, num_blocks, 4, pad=True)

    def test_rejects_zero_kmeans_iters_before_any_fit(self):
        # The check names the trainer's own argument, before k-means could
        # report its max_iters.
        x = np.random.default_rng(14).standard_normal((20, 4))
        for train in (train_pq, lambda *a, **k: train_opq(*a, pad=True, **k)):
            with pytest.raises(ValueError, match="kmeans_iters must be >= 1, got 0"):
                train(x, 2, 4, kmeans_iters=0)

    def test_zero_outer_iters_equals_plain_pq(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((100, 6))
        model = train_opq(x, 3, 4, outer_iters=0, kmeans_iters=20, seed=7)
        book = train_pq(x, 3, 4, kmeans_iters=20, seed=7)
        np.testing.assert_array_equal(model.rotation, np.eye(6))
        for j in range(3):
            np.testing.assert_array_equal(model.codebook.centroids[j],
                                          book.centroids[j])

    def test_keeps_at_most_two_data_sized_arrays_alive(self):
        # Beyond the input: the rotated rows and one chunk's reconstruction,
        # here all 20000 rows (one chunk). The residual reuses the rotated
        # rows' buffer.
        x = np.random.default_rng(18).standard_normal((20000, 32))
        tracemalloc.start()
        try:
            train_opq(x, 4, 16, outer_iters=2, kmeans_iters=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes

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

    # The error walks the fit's chunks and adds their sums in the same
    # order, so it is the last objective bit for bit.
    def test_reconstruction_error_matches_trace(self):
        rng = np.random.default_rng(19)
        x = correlated_data(rng, 200, 6)
        model = train_opq(x, 3, 4, outer_iters=3, kmeans_iters=10, seed=3)
        assert reconstruction_error(model, x) == model.trace[-1]

    def test_reconstruction_error_matches_trace_over_chunks(self, monkeypatch):
        # With CHUNK_ENTRIES patched to 1, K = 16 chunks are one 4096-row
        # tile: 4096, 4096 and 4596 rows, where one sum over all the rows
        # rounds otherwise.
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        rng = np.random.default_rng(19)
        x = correlated_data(rng, 3 * 4096 + 500, 14)
        model = train_opq(x, 4, 16, outer_iters=3, kmeans_iters=10, seed=3, pad=True)
        assert reconstruction_error(model, x) == model.trace[-1]

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
        decoded = pq_decode(model.codebook, pq_encode(model.codebook, x_rot))
        total = 0.0
        for i in range(60):
            total += ((x_rot[i] - decoded[i]) ** 2).sum()
        np.testing.assert_allclose(reconstruction_error(model, x), total, rtol=1e-10)

    # Narrower rows are not zero-padded to the codebook's width.
    @pytest.mark.parametrize("width", [6, 10])
    def test_codebook_rejects_rows_of_another_width(self, width):
        rng = np.random.default_rng(27)
        book = train_pq(rng.standard_normal((40, 8)), 2, 4, seed=0)
        message = f"input dimension {width} does not match codebook dimension 8"
        with pytest.raises(ValueError, match=message):
            reconstruction_error(book, rng.standard_normal((40, width)))

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="unsupported"):
            reconstruction_error(object(), np.zeros((2, 2)))
