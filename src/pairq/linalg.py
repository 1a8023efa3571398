"""Dense linear algebra used by the quantizers and transforms.

Everything here works on float64 arrays and never mutates its inputs. The
public operations are one eigendecomposition of a PSD matrix giving its
clamped spectrum, root and root pseudoinverse (``psd_factors``; ``psd_sqrt``
is the root alone), an SVD pseudoinverse with an explicit singular-value
cutoff, and the orthogonal Procrustes solve from a cross product.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for the symmetry check in psd_factors.
SYMMETRY_RTOL = 1e-10

# Eigenvalue handling in psd_factors, both relative to the largest
# eigenvalue: anything below -NEGATIVE_EIG_RTOL errors out as not PSD,
# anything below ZERO_EIG_RTOL is clamped to exactly zero (the one rank rule).
NEGATIVE_EIG_RTOL = 1e-6
ZERO_EIG_RTOL = 1e-10

# Singular values at or below this fraction of the largest are treated as
# zero by pseudo_inverse, the general SVD route.
PINV_CUTOFF_RTOL = 1e-10

# Values per array of a pass that walks its rows in chunks: 2**19 float64
# values (4 MB). Encoding, vector file IO and synthetic draws hold chunks of
# about this size instead of copies of the whole array.
CHUNK_ENTRIES = 1 << 19


def chunk_ends(n: int, rows: int) -> list[int]:
    """Ends of the chunks of ``rows`` rows that cover n rows, with a tail
    shorter than ``rows`` joined to the chunk before it: only a batch of
    fewer than ``rows`` rows has a chunk that short."""
    return list(range(rows, n - rows + 1, rows)) + [n]


def as_rows(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a 2-d array of its own dtype: the shape check of
    ``as_matrix``, for passes that run ``as_matrix`` on each chunk of rows."""
    out = np.asarray(a)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-d float64 array, rejecting non-finite entries."""
    out = as_rows(np.asarray(a, dtype=np.float64), name)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return out


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a 1-d float64 array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return out


def psd_factors(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One eigendecomposition of a PSD matrix, and the one rank rule.

    ``g`` must be square and symmetric up to a small relative tolerance;
    the strictly symmetric average is what gets decomposed. Eigenvalues
    slightly below zero (relative magnitude under ``NEGATIVE_EIG_RTOL``)
    are treated as numerical noise and clamped to zero, along with any
    positive values under ``ZERO_EIG_RTOL`` of the largest. A genuinely
    negative spectrum raises.

    Returns:
        ``(w, root, pinv)``: the clamped eigenvalues in descending order
        (a dropped direction reads exactly 0), the symmetric PSD root
        C = V·diag(√w)·Vᵀ with C.T @ C == g up to the clamp, and its
        Moore-Penrose pseudoinverse V·diag(1/√w)·Vᵀ over the kept
        eigenvalues. The zero matrix gives zero factors, a 0×0 input
        empty ones.

    Raises:
        ValueError: if ``g`` is not square, not symmetric, not finite or
            not positive semidefinite.
    """
    g = as_matrix(g, "a")
    n, m = g.shape
    if n != m:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    scale = np.linalg.norm(g)
    if np.linalg.norm(g - g.T) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric")
    # Symmetrize so tiny asymmetries cannot leak into the decomposition,
    # and sort the eigenpairs descending.
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    if n == 0:
        return w, v, v
    order = np.arange(n - 1, -1, -1)
    w, v = w[order], v[:, order]
    largest = max(w[0], 0.0)
    if largest == 0.0:
        # No positive mass at all: only an exactly-zero spectrum is PSD.
        if w[-1] < 0.0:
            raise ValueError("matrix is not positive semidefinite")
    elif w[-1] < -NEGATIVE_EIG_RTOL * largest:
        raise ValueError(
            "matrix is not positive semidefinite "
            f"(eigenvalue {w[-1]:.3e} vs largest {largest:.3e})"
        )
    w[w < ZERO_EIG_RTOL * largest] = 0.0
    root = (v * np.sqrt(w)) @ v.T
    inv_root = np.divide(1.0, np.sqrt(w), out=np.zeros_like(w), where=w > 0.0)
    pinv = (v * inv_root) @ v.T
    # Exact symmetry keeps downstream C.T @ C == C @ C comparisons clean.
    return w, 0.5 * (root + root.T), 0.5 * (pinv + pinv.T)


def psd_sqrt(g) -> np.ndarray:
    """Symmetric PSD root C of ``g``, C.T @ C == g up to the clamp: the
    root ``psd_factors`` returns, with its checks and errors."""
    return psd_factors(g)[1]


def pseudo_inverse(c) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``PINV_CUTOFF_RTOL`` times the largest are
    treated as exact zeros, so rank-deficient inputs invert on their row
    space only. The zero matrix maps to the (transposed-shape) zero matrix.
    """
    c = as_matrix(c, "c")
    u, s, vt = np.linalg.svd(c, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((c.shape[1], c.shape[0]))
    keep = s > PINV_CUTOFF_RTOL * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def procrustes(cross) -> np.ndarray:
    """Orthogonal matrix R minimizing ||R @ x - y||_F, from the d-by-d cross
    product ``cross = y @ x.T`` of d-by-N matrices x and y of paired
    columns.

    The minimizer is R = U @ V.T where U, V come from the SVD of ``cross``.
    Taking the cross product instead of x and y lets a caller sum it over
    chunks of columns without holding either matrix whole.

    Raises:
        ValueError: if ``cross`` is not a square 2-d matrix or is not
            finite.
    """
    cross = as_matrix(cross, "cross")
    if cross.shape[0] != cross.shape[1]:
        raise ValueError(
            f"shape mismatch: the cross product must be square, got {cross.shape}"
        )
    u, _, vt = np.linalg.svd(cross)
    return u @ vt
