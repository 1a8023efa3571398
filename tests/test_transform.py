"""Tests for the query-aware transforms and their estimators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairq import quantizer
from pairq.linalg import CHUNK_ENTRIES, ZERO_EIG_RTOL, psd_sqrt, pseudo_inverse
from pairq.metrics import estimate_batch
from pairq.quantizer import (
    TILE_ENTRIES,
    apply_rotation,
    opq_encode,
    pq_decode,
    pq_encode,
    reconstruction_error,
    train_opq,
)
from pairq.transform import (
    PairTransform,
    learn_scalar_transform,
    learn_sqdist_transform,
    lift_point,
    pairq_encode,
    pairq_query_vector,
    train_pairq,
    transform_database,
)


def identity_moment_queries(n=16, scale=4.0):
    """Query set whose mean outer product is exactly the identity: the rows
    of scale * I with scale the exact square root of n."""
    assert scale * scale == n
    return scale * np.eye(n)


def anisotropic(rng, count, scales, basis=None):
    x = rng.standard_normal((count, len(scales))) * scales
    return x if basis is None else x @ basis.T


class TestLearnScalarTransform:
    def test_isotropic_queries_give_exact_identity(self):
        t = learn_scalar_transform(identity_moment_queries())
        np.testing.assert_array_equal(t.second_moment, np.eye(16))
        np.testing.assert_array_equal(t.matrix, np.eye(16))
        np.testing.assert_array_equal(t.pinv, np.eye(16))

    def test_axis_aligned_example(self):
        queries = np.array([[1.0, 0.0], [0.0, 2.0]])
        t = learn_scalar_transform(queries)
        np.testing.assert_allclose(t.second_moment, np.diag([0.5, 2.0]), atol=1e-15)
        np.testing.assert_allclose(t.matrix[1, 1] / t.matrix[0, 0], 2.0, rtol=1e-12)

    def test_moment_matches_loop(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((37, 5))
        t = learn_scalar_transform(q)
        manual = sum(np.outer(qi, qi) for qi in q) / 37
        np.testing.assert_allclose(t.second_moment, manual, atol=1e-12)
        np.testing.assert_allclose(t.matrix.T @ t.matrix, manual, atol=1e-10)

    def test_weighted_error_identity(self):
        # The mean squared scalar-product error over the query sample must
        # equal the plain squared error in the transformed space.
        rng = np.random.default_rng(1)
        q = rng.standard_normal((64, 8))
        t = learn_scalar_transform(q)
        for _ in range(50):
            x = rng.standard_normal(8)
            x_hat = x + rng.standard_normal(8) * 0.3
            lhs = np.mean((q @ x - q @ x_hat) ** 2)
            diff = t.matrix @ (x - x_hat)
            np.testing.assert_allclose(lhs, diff @ diff, rtol=1e-8)

    def test_zero_queries_give_zero_transform(self):
        t = learn_scalar_transform(np.zeros((4, 3)))
        np.testing.assert_array_equal(t.matrix, np.zeros((3, 3)))
        np.testing.assert_array_equal(t.pinv, np.zeros((3, 3)))

    def test_rejects_empty_and_non_matrix(self):
        with pytest.raises(ValueError, match="at least one"):
            learn_scalar_transform(np.zeros((0, 4)))
        with pytest.raises(ValueError, match="2-dimensional"):
            learn_scalar_transform(np.zeros(4))

    @pytest.mark.parametrize("learn", [learn_scalar_transform, learn_sqdist_transform])
    def test_rejects_queries_without_columns(self, learn):
        # Sqdist mode would otherwise lift them to a 1x1 transform of a
        # 0-dimensional source.
        with pytest.raises(ValueError, match="one column"):
            learn(np.empty((5, 0)))


class TestOneDecomposition:
    """The transform comes from one eigendecomposition of the query moment:
    no SVD, the same root as psd_sqrt, and a pinv that matches the SVD
    pseudo-inverse of that root."""

    @pytest.mark.parametrize("mode", ["scalar", "sqdist"])
    @pytest.mark.parametrize("dim", [64, 128])
    @pytest.mark.parametrize("rank", [None, 40])
    def test_one_eigh_no_svd(self, monkeypatch, mode, dim, rank):
        rng = np.random.default_rng(dim + (rank or 0))
        count = 3 * dim
        if rank is None:
            q = anisotropic(rng, count, np.exp(-np.arange(dim) / 16.0))
        else:
            q = rng.standard_normal((count, rank)) @ rng.standard_normal((rank, dim))
        learn = learn_sqdist_transform if mode == "sqdist" else learn_scalar_transform
        g = np.hstack([-2.0 * q, np.ones((count, 1))]) if mode == "sqdist" else q
        moment = (g.T @ g) / count

        def refuse(*args, **kwargs):
            raise AssertionError("transform learning must not call an SVD")

        eigh_calls = []
        eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            eigh_calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", refuse)
            patch.setattr(np.linalg, "pinv", refuse)
            patch.setattr(np.linalg, "eigh", counted_eigh)
            t = learn(q)
        assert eigh_calls == [moment.shape]
        np.testing.assert_array_equal(t.matrix, psd_sqrt(moment))
        reference = pseudo_inverse(t.matrix)
        gap = np.linalg.norm(t.pinv - reference) / np.linalg.norm(reference)
        assert gap <= 1e-13
        if rank is not None:
            assert round(float(np.trace(t.pinv @ t.matrix))) == rank + (mode == "sqdist")


class TestRankDeficientProperty:
    """On query samples that span only part of the space, the learned root
    C squares to the second moment G up to psd_sqrt's eigenvalue clamp, its
    pinv P satisfies the four Moore-Penrose identities, and the weighted
    loss and the estimates of sample queries are exact up to that clamp."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["scalar", "sqdist"]),
        dim=st.integers(2, 9),
        rank_gap=st.integers(1, 9),
        count=st.integers(1, 40),
        log_scale=st.integers(-3, 3),
        seed=st.integers(0, 2**16),
    )
    def test_identities(self, mode, dim, rank_gap, count, log_scale, seed):
        rng = np.random.default_rng(seed)
        rank = max(0, dim - rank_gap)
        basis = rng.standard_normal((dim, rank))
        q = 10.0**log_scale * rng.standard_normal((count, rank)) @ basis.T
        learn = learn_sqdist_transform if mode == "sqdist" else learn_scalar_transform
        t = learn(q)
        g = np.hstack([-2.0 * q, np.ones((count, 1))]) if mode == "sqdist" else q
        moment = g.T @ g / count
        c, p = t.matrix, t.pinv
        assert np.linalg.matrix_rank(moment) < t.dim

        top = np.linalg.norm(moment, 2)
        assert np.linalg.norm(c.T @ c - moment, 2) <= (ZERO_EIG_RTOL + 1e-12) * top
        np.testing.assert_array_equal(t.second_moment, c.T @ c)

        c_size, p_size = np.linalg.norm(c, 2), np.linalg.norm(p, 2)
        tol = 1e-12 * max(c_size * p_size, 1.0)
        assert np.linalg.norm(c @ p @ c - c, 2) <= tol * c_size
        assert np.linalg.norm(p @ c @ p - p, 2) <= tol * p_size
        assert np.linalg.norm(c @ p - (c @ p).T, 2) <= tol
        assert np.linalg.norm(p @ c - (p @ c).T, 2) <= tol

        # Any error e: the mean squared query-weighted error is ‖C e‖².
        e = rng.standard_normal(t.dim)
        weighted = np.mean((g @ e) ** 2)
        assert abs(weighted - (c @ e) @ (c @ e)) <= (
            (ZERO_EIG_RTOL + 1e-12) * top * (e @ e)
        )
        # Sample queries score transformed vectors exactly, (Pᵀg)·(C y) =
        # g·y, but for their part in the clamped eigendirections u: there
        # the sum over queries of (g·u)² is count·λ_u <= count·clamp·top.
        y = rng.standard_normal(t.dim)
        exact = g @ y
        via = (g @ p) @ (c @ y)
        clamped = np.sqrt(count * t.dim * ZERO_EIG_RTOL * top)
        bound = (clamped + 1e-9 * np.linalg.norm(g, axis=1)) * np.linalg.norm(y)
        assert (np.abs(via - exact) <= bound).all()


class TestLifting:
    def test_lift_point_values(self):
        np.testing.assert_array_equal(lift_point(np.zeros(3)),
                                      np.array([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(lift_point(np.array([3.0, 4.0])),
                                      np.array([3.0, 4.0, 25.0]))

    def test_lifting_identity(self):
        # ||q - x||^2 == ||q||^2 + g . y with g = (-2q, 1), y = (x, ||x||^2).
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            q = rng.standard_normal(n) * 3.0
            x = rng.standard_normal(n) * 3.0
            g = np.append(-2.0 * q, 1.0)
            y = lift_point(x)
            lhs = ((q - x) ** 2).sum()
            rhs = q @ q + g @ y
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestLearnSqdistTransform:
    def test_moment_matches_loop(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((29, 4))
        t = learn_sqdist_transform(q)
        assert t.dim == 5
        lifted = [np.append(-2.0 * qi, 1.0) for qi in q]
        manual = sum(np.outer(g, g) for g in lifted) / 29
        np.testing.assert_allclose(t.second_moment, manual, atol=1e-12)

    def test_zero_query_moment_is_last_axis(self):
        t = learn_sqdist_transform(np.zeros((3, 2)))
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        np.testing.assert_allclose(t.second_moment, expected, atol=1e-15)
        np.testing.assert_allclose(t.matrix, expected, atol=1e-12)

    def test_one_dimensional_signed_queries(self):
        t = learn_sqdist_transform(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(t.second_moment, np.diag([4.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(t.matrix, np.diag([2.0, 1.0]), atol=1e-12)


class TestTransformDatabase:
    def test_scalar_mode_is_plain_matmul(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((30, 4))
        t = learn_scalar_transform(q)
        x = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(transform_database(t, x), x @ t.matrix.T)

    def test_sqdist_mode_lifts_first(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((30, 3))
        t = learn_sqdist_transform(q)
        x = rng.standard_normal((10, 3))
        z = transform_database(t, x)
        assert z.shape == (10, 4)
        for i in range(10):
            np.testing.assert_allclose(z[i], t.matrix @ lift_point(x[i]), atol=1e-12)

    def test_rejects_wrong_dim(self):
        t = learn_scalar_transform(np.eye(4))
        with pytest.raises(ValueError, match="source dimension"):
            transform_database(t, np.zeros((5, 3)))


class TestTrainPairQ:
    def test_identity_transform_degenerates_to_plain_quantizer(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((300, 16))
        t = learn_scalar_transform(identity_moment_queries(16, 4.0))
        pair = train_pairq(t, x, 4, 8, outer_iters=2, kmeans_iters=10, seed=3)
        plain = train_opq(x, 4, 8, outer_iters=2, kmeans_iters=10, seed=3, pad=True)
        np.testing.assert_array_equal(pair.opq.rotation, plain.rotation)
        for j in range(4):
            np.testing.assert_array_equal(pair.opq.codebook.centroids[j],
                                          plain.codebook.centroids[j])
        assert pair.opq.trace == plain.trace

    def test_pairwise_loss_beats_plain_quantizer(self):
        # Queries concentrated on few directions: training the codebook in
        # the transformed space must cut the query-weighted error.
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        db = anisotropic(rng, 3000, np.linspace(1.0, 2.0, 12))
        queries = anisotropic(rng, 600, np.exp(-np.arange(12) / 2.0), basis)
        t = learn_scalar_transform(queries)
        pair = train_pairq(t, db, 3, 16, outer_iters=4, kmeans_iters=15, seed=0)
        plain = train_opq(db, 3, 16, outer_iters=4, kmeans_iters=15, seed=0)

        def pairwise_loss(estimator_db_hat):
            err = queries @ (db - estimator_db_hat).T
            return float((err ** 2).mean())

        from pairq.quantizer import opq_decode

        plain_hat = opq_decode(plain, opq_encode(plain, db))
        # Transform route: decode in z space, map back through the
        # pseudoinverse to compare in the raw space.
        z_hat = pq_decode(pair.opq.codebook,
                          opq_encode(pair.opq, transform_database(t, db)))
        z_hat = z_hat @ pair.opq.rotation
        pair_hat = z_hat[:, :t.dim] @ t.pinv.T
        assert pairwise_loss(pair_hat) < pairwise_loss(plain_hat)

    def test_two_point_database_is_lossless(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((40, 4))
        t = learn_scalar_transform(q)
        db = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 1.0]])
        model = train_pairq(t, db, 1, 2, outer_iters=1, kmeans_iters=10, seed=0)
        z = transform_database(t, db)
        assert reconstruction_error(model.opq, z) <= 1e-20
        est = estimate_batch(model, q[0], pairq_encode(model, db), "scalar")
        for i in range(2):
            np.testing.assert_allclose(est[i], q[0] @ db[i], atol=1e-9)


class TestQueryVector:
    def test_identity_transform_returns_query(self):
        t = learn_scalar_transform(identity_moment_queries())
        x = np.random.default_rng(9).standard_normal((64, 16))
        model = train_pairq(t, x, 4, 4, outer_iters=0, kmeans_iters=5, seed=0)
        q = np.arange(16.0)
        np.testing.assert_array_equal(pairq_query_vector(model, q), q)

    def test_diagonal_transform_halves_scaled_axis(self):
        t = PairTransform(
            mode="scalar",
            source_dim=2,
            matrix=np.diag([1.0, 2.0]),
            pinv=np.diag([1.0, 0.5]),
        )
        rng = np.random.default_rng(10)
        db = rng.standard_normal((20, 2))
        model = train_pairq(t, db, 1, 4, outer_iters=0, kmeans_iters=5, seed=0)
        np.testing.assert_allclose(
            pairq_query_vector(model, np.array([1.0, 2.0])), [1.0, 1.0], atol=1e-12
        )

    def test_sqdist_zero_query_selects_norm_axis(self):
        rng = np.random.default_rng(11)
        q = rng.standard_normal((50, 3))
        t = learn_sqdist_transform(q)
        db = rng.standard_normal((30, 3))
        model = train_pairq(t, db, 1, 4, outer_iters=0, kmeans_iters=5, seed=0)
        r = pairq_query_vector(model, np.zeros(3))
        expected = t.pinv.T @ np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_pads_to_quantizer_dimension(self):
        rng = np.random.default_rng(12)
        q = rng.standard_normal((40, 5))
        t = learn_scalar_transform(q)
        db = rng.standard_normal((50, 5))
        model = train_pairq(t, db, 2, 4, outer_iters=0, kmeans_iters=5, seed=0)
        r = pairq_query_vector(model, q[0])
        assert r.shape == (6,)
        assert r[5] == 0.0

    def test_rejects_wrong_dimension(self):
        rng = np.random.default_rng(13)
        t = learn_scalar_transform(rng.standard_normal((10, 4)))
        model = train_pairq(t, rng.standard_normal((20, 4)), 1, 4,
                            outer_iters=0, kmeans_iters=5, seed=0)
        with pytest.raises(ValueError, match="source dimension"):
            pairq_query_vector(model, np.zeros(5))


def full_rank_setup(rng, n=6, count=24, mode="scalar"):
    """Database whose transformed vectors are exactly representable, so the
    only estimation error left is the transform itself."""
    queries = rng.standard_normal((80, n))
    if mode == "scalar":
        t = learn_scalar_transform(queries)
    else:
        t = learn_sqdist_transform(queries)
    db = rng.standard_normal((count, n))
    model = train_pairq(t, db, 1, count, outer_iters=0, kmeans_iters=60, seed=0)
    return queries, t, db, model


class TestEstimates:
    def test_scalar_estimate_exact_when_lossless(self):
        rng = np.random.default_rng(14)
        queries, t, db, model = full_rank_setup(rng)
        assert reconstruction_error(model.opq, transform_database(t, db)) <= 1e-18
        codes = pairq_encode(model, db)
        for qi in queries[:10]:
            est = estimate_batch(model, qi, codes[:5], "scalar")
            for i in range(5):
                true = qi @ db[i]
                assert abs(est[i] - true) <= 1e-8 * max(1.0, abs(true))

    def test_sqdist_estimate_exact_when_lossless(self):
        rng = np.random.default_rng(15)
        queries, t, db, model = full_rank_setup(rng, mode="sqdist")
        codes = pairq_encode(model, db)
        for qi in queries[:10]:
            est = estimate_batch(model, qi, codes[:5], "sqdist")
            for i in range(5):
                true = ((qi - db[i]) ** 2).sum()
                assert abs(est[i] - true) <= 1e-8 * max(1.0, true)

    def test_scalar_matches_manual_decode_route(self):
        rng = np.random.default_rng(16)
        q = rng.standard_normal((60, 6))
        t = learn_scalar_transform(q)
        db = rng.standard_normal((200, 6))
        model = train_pairq(t, db, 2, 8, outer_iters=2, kmeans_iters=10, seed=1)
        codes = pairq_encode(model, db)
        r_rot = model.opq.rotation @ pairq_query_vector(model, q[0])
        est = estimate_batch(model, q[0], codes[:20], "scalar")
        for i in range(20):
            manual = float(r_rot @ pq_decode(model.opq.codebook, codes[i]))
            assert est[i] == pytest.approx(manual)

    def test_zero_query_estimates_zero(self):
        rng = np.random.default_rng(17)
        q = rng.standard_normal((30, 4))
        t = learn_scalar_transform(q)
        db = rng.standard_normal((50, 4))
        model = train_pairq(t, db, 2, 4, outer_iters=1, kmeans_iters=5, seed=0)
        codes = pairq_encode(model, db)
        assert estimate_batch(model, np.zeros(4), codes[:1], "scalar")[0] == 0.0

    def test_training_set_unbiasedness_scalar(self):
        # At a converged single-block fit the estimates average out exactly
        # over the training set, for any query.
        rng = np.random.default_rng(19)
        q = rng.standard_normal((100, 5))
        t = learn_scalar_transform(q)
        db = rng.standard_normal((2000, 5))
        model = train_pairq(t, db, 1, 16, outer_iters=0, kmeans_iters=200, seed=2)
        assert model.opq.converged
        codes = pairq_encode(model, db)
        query = rng.standard_normal(5)
        est = estimate_batch(model, query, codes, "scalar")
        errs = [est[i] - query @ db[i] for i in range(2000)]
        scale = np.linalg.norm(query) * np.mean(np.linalg.norm(db, axis=1))
        assert abs(np.mean(errs)) <= 1e-9 * scale

    def test_held_out_bias_is_statistically_zero(self):
        # Fresh draws from the same distribution: the signed error should
        # be within sampling noise of zero, though not exactly zero.
        rng = np.random.default_rng(20)
        q = rng.standard_normal((200, 4)) * [3.0, 1.0, 0.5, 0.2]
        t = learn_scalar_transform(q)
        db = rng.standard_normal((3000, 4))
        held_out = rng.standard_normal((3000, 4))
        model = train_pairq(t, db, 2, 16, outer_iters=2, kmeans_iters=100, seed=3)
        codes = pairq_encode(model, held_out)
        query = q[0]
        est = estimate_batch(model, query, codes, "scalar")
        errs = np.array([est[i] - query @ held_out[i] for i in range(3000)])
        stderr = errs.std(ddof=1) / np.sqrt(len(errs))
        assert abs(errs.mean()) <= 5.0 * max(stderr, 1e-12)


class TestChunkedEncode:
    """``opq_encode`` and ``pairq_encode`` walk the rows in chunks of whole
    assignment tiles; their codes equal one ``pq_encode`` call on all the
    transformed and rotated rows."""

    @staticmethod
    def models(mode, dim, num_blocks, k, n):
        rng = np.random.default_rng(dim + k)
        x = anisotropic(rng, n, np.linspace(3.0, 0.2, dim))
        q = anisotropic(rng, 300, np.linspace(0.5, 2.0, dim))
        if mode == "cosine":
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            q /= np.linalg.norm(q, axis=1, keepdims=True)
        learn = learn_sqdist_transform if mode == "sqdist" else learn_scalar_transform
        opts = dict(outer_iters=1, kmeans_iters=3, seed=0)
        pairq = train_pairq(learn(q), x[:1500], num_blocks, k, **opts)
        opq = train_opq(x[:1500], num_blocks, k, pad=True, **opts)
        return x, pairq, opq

    @staticmethod
    def whole_batch(pairq, opq, x):
        """Codes of one ``pq_encode`` call on all the rotated rows."""
        z = transform_database(pairq.transform, x)
        return (pq_encode(pairq.opq.codebook, apply_rotation(pairq.opq, z)),
                pq_encode(opq.codebook, apply_rotation(opq, x)))

    @staticmethod
    def count_chunks(monkeypatch):
        calls = []

        def counted(codebook, rows):
            calls.append(len(rows))
            return pq_encode(codebook, rows)

        monkeypatch.setattr(quantizer, "pq_encode", counted)
        return calls

    # One tile per chunk: chunks of TILE_ENTRIES // K rows, the last one
    # with a tail shorter than a tile. Scalar at 10 columns pads to 12,
    # cosine at 9 pads to 10, sqdist at 13 lifts to 14 and pads to 16;
    # K = 100 has a tile of 655 rows.
    @pytest.mark.parametrize("mode, dim, num_blocks, k", [
        ("scalar", 10, 4, 16),
        ("cosine", 9, 2, 16),
        ("sqdist", 13, 4, 16),
        ("scalar", 10, 4, 100),
        ("sqdist", 13, 4, 100),
    ])
    def test_one_tile_chunks_give_whole_batch_codes(self, monkeypatch, mode, dim,
                                                    num_blocks, k):
        tile = TILE_ENTRIES // k
        x, pairq, opq = self.models(mode, dim, num_blocks, k, 3 * tile + tile // 3)
        expected = self.whole_batch(pairq, opq, x)
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        calls = self.count_chunks(monkeypatch)
        got = pairq_encode(pairq, x), opq_encode(opq, x)
        assert calls == [tile, tile, tile + tile // 3] * 2
        for codes, ref in zip(got, expected):
            assert codes.dtype == np.uint8
            np.testing.assert_array_equal(codes, ref)

    def test_chunks_of_the_module_constant_give_whole_batch_codes(self, monkeypatch):
        # K = 16 tiles are 4096 rows; at 16 columns a chunk is eight tiles.
        x, pairq, opq = self.models("sqdist", 13, 4, 16, 2 * 32768 + 1000)
        expected = self.whole_batch(pairq, opq, x)
        calls = self.count_chunks(monkeypatch)
        got = pairq_encode(pairq, x), opq_encode(opq, x)
        assert calls == [32768, 32768 + 1000] * 2
        for codes, ref in zip(got, expected):
            np.testing.assert_array_equal(codes, ref)
        # float32 rows convert exactly, one chunk at a time.
        x32 = x.astype(np.float32)
        expected32 = self.whole_batch(pairq, opq, x32.astype(np.float64))
        np.testing.assert_array_equal(pairq_encode(pairq, x32), expected32[0])
        np.testing.assert_array_equal(opq_encode(opq, x32), expected32[1])

    def test_peak_memory_is_set_by_the_chunk_not_the_database(self):
        # Seven chunks of 32768 rows of 13 columns in sqdist mode: the
        # lifted, transformed, padded and rotated rows are up to 16 columns,
        # 29 MB each for the whole database, against chunks of
        # CHUNK_ENTRIES values (4 MB).
        x, pairq, opq = self.models("sqdist", 13, 4, 16, 7 * 32768)
        x = x.astype(np.float32)
        chunk_bytes = 8 * CHUNK_ENTRIES
        whole_bytes = 8 * 16 * len(x)
        assert whole_bytes > 6 * chunk_bytes
        for encode, model in ((pairq_encode, pairq), (opq_encode, opq)):
            tracemalloc.start()
            try:
                codes = encode(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < codes.nbytes + 4 * chunk_bytes, peak


class TestChunkedTraining:
    """``train_opq`` and ``train_pairq`` hold one (N, d) array of rotated
    rows and walk the rows in the chunks of ``opq_encode``/``pairq_encode``
    for everything else: preparing, rotating, decoding and the residual."""

    # With CHUNK_ENTRIES patched to 1, K = 16 chunks are one 4096-row tile:
    # five chunks of 64 columns (sqdist lifts 63 columns to 64).
    ROWS, TILE, WIDTH = 5 * 4096, 4096, 64

    @staticmethod
    def data(dim, n):
        rng = np.random.default_rng(dim + n)
        x = anisotropic(rng, n, np.linspace(3.0, 0.2, dim))
        q = anisotropic(rng, 300, np.linspace(0.5, 2.0, dim))
        return x, q

    @staticmethod
    def trainer(method, x, q, num_blocks, k, **opts):
        """A call that trains ``method`` ("opq" or a pairq task) on x and
        returns (model, the encode of x under it)."""
        if method == "opq":
            def train():
                model = train_opq(x, num_blocks, k, pad=True, **opts)
                return model, model.codes
            return train, lambda model: opq_encode(model, x)
        learn = learn_sqdist_transform if method == "sqdist" else learn_scalar_transform
        transform = learn(q)

        def train():
            model = train_pairq(transform, x, num_blocks, k, **opts)
            return model, model.opq.codes
        return train, lambda model: pairq_encode(model, x)

    @pytest.mark.parametrize("method", ["opq", "scalar", "sqdist"])
    def test_peak_memory_is_the_rotated_rows_and_a_few_chunks(self, monkeypatch,
                                                              method):
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        x, q = self.data(self.WIDTH - (method == "sqdist"), self.ROWS)
        train, _ = self.trainer(method, x, q, 16, 16, outer_iters=1,
                                kmeans_iters=2, seed=0)
        rotated = 8 * self.ROWS * self.WIDTH
        chunk = 8 * self.TILE * self.WIDTH
        tracemalloc.start()
        try:
            train()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One copy of the rows, a chunk's reconstruction and one block's
        # Lloyd arrays (4 of 64 columns); a second whole copy would not fit.
        assert peak < rotated + 4 * chunk, peak

    def test_training_transforms_one_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        x, q = self.data(self.WIDTH - 1, self.ROWS)
        transform = learn_sqdist_transform(q)
        sizes = []

        def recorded(t, rows):
            sizes.append(len(rows))
            return transform_database(t, rows)

        monkeypatch.setattr("pairq.transform.transform_database", recorded)
        train_pairq(transform, x, 16, 16, outer_iters=2, kmeans_iters=2, seed=0)
        # Five chunks per pass, in each of the three passes.
        assert sizes == [self.TILE] * 15

    @pytest.mark.parametrize("method", ["opq", "scalar", "sqdist"])
    def test_non_finite_row_fails_before_any_kmeans(self, monkeypatch, method):
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        x, q = self.data(15, 3 * 4096)
        x[-1, 3] = np.nan
        train, _ = self.trainer(method, x, q, 4, 16, outer_iters=1,
                                kmeans_iters=2, seed=0)

        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means ran before the rows were checked")

        monkeypatch.setattr(quantizer, "kmeans", no_kmeans)
        with pytest.raises(ValueError, match="NaN or infinite"):
            train()

    # From 194 output columns OpenBLAS rounds a row of a product by its
    # position in it, so training must rotate in the encode's chunks. K = 64
    # chunks are one 1024-row tile here: 1024, 1024 and 1524 rows (the tail
    # joins the last chunk). sqdist lifts 199 columns to 200 and opq pads
    # 203 to 204.
    @pytest.mark.parametrize("method, dim", [
        ("opq", 200), ("scalar", 200), ("sqdist", 199), ("opq", 203),
        ("scalar", 300),
    ])
    def test_training_codes_are_the_encodes_at_wide_rows(self, monkeypatch,
                                                        method, dim):
        monkeypatch.setattr(quantizer, "CHUNK_ENTRIES", 1)
        x, q = self.data(dim, 3 * 1024 + 500)
        train, encode = self.trainer(method, x, q, 4, 64, outer_iters=1,
                                     kmeans_iters=3, seed=0)
        seen = []

        def recorded(codebook, rows):
            seen.append(np.array(rows))
            return pq_encode(codebook, rows)

        monkeypatch.setattr(quantizer, "pq_encode", recorded)
        model, codes = train()
        trained_rows = seen[-1]
        seen.clear()
        encoded = encode(model)
        # The rotated rows themselves, not only the codes, match bit for bit:
        # a near-tie code can move only where they differ.
        np.testing.assert_array_equal(np.vstack(seen), trained_rows)
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, encoded)
