"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from pairq.linalg import ZERO_EIG_RTOL, procrustes, psd_factors, psd_sqrt, pseudo_inverse


def rand_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rand_psd(rng, n, spread=3.0):
    basis = rand_orthogonal(rng, n)
    lams = np.exp(rng.uniform(-spread, spread, size=n))
    return (basis * lams) @ basis.T


class TestSymEig:
    """The checks psd_sqrt makes before its symmetric eigendecomposition."""

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            psd_sqrt(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite|NaN"):
            psd_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        c = psd_sqrt(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(c, np.diag([1.0, 2.0]), atol=1e-12)

    def test_rank_one(self):
        q = np.array([3.0, 4.0])
        g = np.outer(q, q)
        c = psd_sqrt(g)
        np.testing.assert_allclose(c.T @ c, g, atol=1e-10)
        # Rank must not grow.
        assert np.linalg.matrix_rank(c, tol=1e-8) == 1

    def test_factorizes_random_psd(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(1, 16))
            g = rand_psd(rng, n)
            c = psd_sqrt(g)
            np.testing.assert_allclose(c, c.T, atol=1e-12 * max(1.0, np.abs(c).max()))
            np.testing.assert_allclose(
                c.T @ c, g, atol=1e-8 * max(1.0, np.abs(g).max())
            )

    def test_clamps_tiny_negative_eigenvalues(self):
        rng = np.random.default_rng(2)
        basis = rand_orthogonal(rng, 3)
        g = (basis * [1.0, 0.5, -1e-9]) @ basis.T
        g = 0.5 * (g + g.T)
        c = psd_sqrt(g)
        assert np.isfinite(c).all()
        np.testing.assert_allclose(c.T @ c, (basis * [1.0, 0.5, 0.0]) @ basis.T,
                                   atol=1e-7)

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_sqrt(-np.eye(3))

    def test_rejects_clearly_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_zero_matrix(self):
        np.testing.assert_array_equal(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


class TestPsdFactors:
    """One eigendecomposition gives the clamped spectrum, the root and the
    root's pseudo-inverse, all under the one rank rule."""

    def test_empty_matrix(self):
        w, root, pinv = psd_factors(np.zeros((0, 0)))
        assert w.shape == (0,) and root.shape == (0, 0) and pinv.shape == (0, 0)
        assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)

    def test_clamp_and_pinv_agree_with_svd(self):
        rng = np.random.default_rng(10)
        for trial in range(40):
            n = int(rng.integers(1, 12))
            rank = int(rng.integers(0, n + 1))
            basis = rand_orthogonal(rng, n)
            lams = np.zeros(n)
            lams[:rank] = np.exp(rng.uniform(-3.0, 3.0, size=rank))
            if rank < n and trial % 2:
                # Below the clamp, but not exactly zero.
                lams[rank] = 1e-3 * ZERO_EIG_RTOL * lams[:max(rank, 1)].max()
            g = (basis * lams) @ basis.T
            g = 0.5 * (g + g.T)
            w, root, pinv = psd_factors(g)
            assert (np.diff(w) <= 0.0).all()
            assert np.count_nonzero(w) == rank
            np.testing.assert_array_equal(pinv, pinv.T)
            reference = pseudo_inverse(root)
            np.testing.assert_allclose(
                pinv, reference, atol=1e-12 * max(1.0, np.abs(reference).max())
            )


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_array_equal(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_singular_diagonal(self):
        p = pseudo_inverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(p, np.diag([0.5, 0.0]), atol=1e-12)

    def test_orthogonal_gives_transpose(self):
        rng = np.random.default_rng(3)
        r = rand_orthogonal(rng, 5)
        np.testing.assert_allclose(pseudo_inverse(r), r.T, atol=1e-12)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 10))
            a = rng.standard_normal((n, m))
            if trial % 3 == 0 and min(n, m) > 1:
                a[:, -1] = a[:, 0]  # force rank deficiency
            p = pseudo_inverse(a)
            atol = 1e-9 * max(1.0, np.abs(a).max() ** 2)
            np.testing.assert_allclose(a @ p @ a, a, atol=atol)
            np.testing.assert_allclose(p @ a @ p, p, atol=atol)
            np.testing.assert_allclose(a @ p, (a @ p).T, atol=atol)
            np.testing.assert_allclose(p @ a, (p @ a).T, atol=atol)

    def test_zero_matrix(self):
        p = pseudo_inverse(np.zeros((2, 4)))
        np.testing.assert_array_equal(p, np.zeros((4, 2)))

    def test_projects_onto_row_space(self):
        # Rank-1 matrix: C+ C must be the projector onto the single row
        # direction.
        c = np.outer([1.0, 1.0], [3.0, 4.0]) / np.sqrt(2.0)
        p = pseudo_inverse(c) @ c
        u = np.array([3.0, 4.0]) / 5.0
        np.testing.assert_allclose(p, np.outer(u, u), atol=1e-12)


class TestProcrustes:
    def test_identity_when_aligned(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 20))
        r = procrustes(x @ x.T)
        np.testing.assert_allclose(r @ x, x, atol=1e-10)

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(2, 8))
            true_r = rand_orthogonal(rng, n)
            x = rng.standard_normal((n, 50))
            r = procrustes(true_r @ x @ x.T)
            np.testing.assert_allclose(r, true_r, atol=1e-9)

    def test_result_is_orthogonal(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 30))
        y = rng.standard_normal((5, 30))
        r = procrustes(y @ x.T)
        np.testing.assert_allclose(r @ r.T, np.eye(5), atol=1e-10)

    def test_beats_random_rotations(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 40))
        y = rng.standard_normal((3, 40))
        r = procrustes(y @ x.T)
        best = np.linalg.norm(r @ x - y)
        for _ in range(1000):
            other = rand_orthogonal(rng, 3)
            assert best <= np.linalg.norm(other @ x - y) + 1e-9

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            procrustes(np.ones((2, 3)))
