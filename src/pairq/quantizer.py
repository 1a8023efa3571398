"""Vector quantizers: Lloyd k-means, product quantization, and the rotated
variant that alternates codebook fits with an orthogonal Procrustes update.

Determinism contract: every training entry point takes an integer seed and
produces bit-identical models for identical inputs and seed. To keep that
promise the implementation avoids order-dependent accumulation (centroid
updates go through per-column bincount sums) and breaks assignment ties by
lowest centroid index (argmin's first-occurrence rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, as_vector, procrustes

# Largest codebook size representable in one byte per sub-index.
MAX_CODEBOOK = 256

# Training objectives must not increase between iterations; violations above
# this relative slack indicate a real bug rather than float64 rounding.
MONOTONE_RTOL = 1e-9


@dataclass(eq=False)
class KMeansResult:
    """Outcome of a Lloyd k-means run.

    ``converged`` is True when assignments became stable, which makes the
    result an exact Lloyd fixed point: every point sits with its nearest
    centroid and every non-empty centroid is the mean of its points.
    ``trace`` holds the clustering objective (sum of squared distances) at
    each assignment step and is non-increasing.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    trace: list[float] = field(default_factory=list)
    converged: bool = False


def _check_monotone(trace: list[float], context: str) -> None:
    for a, b in zip(trace, trace[1:]):
        if b > a + MONOTONE_RTOL * max(1.0, abs(a)):
            raise RuntimeError(
                f"{context} objective increased from {a!r} to {b!r}"
            )


def _sq_dists(x: np.ndarray, centroids: np.ndarray, x_sq=None) -> np.ndarray:
    """All pairwise squared distances between rows of x and centroids."""
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", x, x)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    d2 = x_sq[:, None] - 2.0 * (x @ centroids.T) + c_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _assign_batch(x, centroids, x_sq=None):
    d2 = _sq_dists(x, centroids, x_sq)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(x.shape[0]), labels]


def _centroid_means(x, labels, k):
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, x.shape[1]))
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    means = sums.copy()
    nonempty = counts > 0
    means[nonempty] /= counts[nonempty, None]
    return means, counts

def _repair_empty(labels, min_d2, counts, k):
    """Reassign farthest points to empty clusters, farthest first.

    Donor clusters must keep at least one member. Returns True if any
    label changed.
    """
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return False
    changed = False
    order = np.argsort(-min_d2, kind="stable")
    cursor = 0
    for e in empties:
        while cursor < order.size:
            p = order[cursor]
            cursor += 1
            if counts[labels[p]] > 1 and min_d2[p] > 0.0:
                counts[labels[p]] -= 1
                labels[p] = e
                counts[e] = 1
                changed = True
                break
        else:
            break
    return changed


def _lloyd(x, centroids, max_iters, context="k-means"):
    """Lloyd iterations from given starting centroids.

    Stops early once assignments are stable (an exact fixed point). The
    returned centroids are always the per-cluster means of the returned
    assignments; empty clusters keep their previous position.
    """
    x_sq = np.einsum("ij,ij->i", x, x)
    k = centroids.shape[0]
    centroids = centroids.copy()
    prev_labels = None
    trace: list[float] = []
    converged = False
    for _ in range(max_iters):
        labels, min_d2 = _assign_batch(x, centroids, x_sq)
        trace.append(float(min_d2.sum()))
        _check_monotone(trace[-2:], context)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        means, counts = _centroid_means(x, labels, k)
        if _repair_empty(labels, min_d2, counts, k):
            means, counts = _centroid_means(x, labels, k)
        centroids[counts > 0] = means[counts > 0]
        prev_labels = labels
    return KMeansResult(
        centroids=centroids,
        assignments=labels.astype(np.int64),
        inertia=trace[-1],
        trace=trace,
        converged=converged,
    )


def _kmeans_pp_init(x, k, rng):
    """Seeding by squared-distance weighted sampling without replacement."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
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


def kmeans(points, k: int, max_iters: int = 25, seed: int = 0) -> KMeansResult:
    """Lloyd k-means with k-means++ seeding.

    Args:
        points: (N, d) data, N >= k >= 1.
        k: number of centroids.
        max_iters: cap on assignment passes; the run may stop earlier when
            assignments stabilize.
        seed: RNG seed for the k-means++ init.

    Raises:
        ValueError: on empty data, k < 1, k > N, or non-finite input.
    """
    x = as_matrix(points, "points")
    if x.shape[0] == 0:
        raise ValueError("points is empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > x.shape[0]:
        raise ValueError(f"k={k} exceeds point count {x.shape[0]}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)
    return _lloyd(x, centroids, max_iters)


def assign(x, centroids) -> int:
    """Index of the centroid nearest to x, lowest index winning ties."""
    x = as_vector(x, "x")
    c = as_matrix(centroids, "centroids")
    if x.shape[0] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {c.shape[1]}")
    diff = c - x[None, :]
    return int(np.einsum("ij,ij->i", diff, diff).argmin())


@dataclass(eq=False)
class PQCodebook:
    """Per-block codebooks for product quantization.

    ``centroids`` has shape (M, K, s): block j covers coordinates
    ``j*s:(j+1)*s`` and holds K centroids of width s.
    """

    centroids: np.ndarray
    # True/False from training; None on models loaded from disk.
    converged: bool | None = True

    @property
    def num_blocks(self) -> int:
        return self.centroids.shape[0]

    @property
    def codebook_size(self) -> int:
        return self.centroids.shape[1]

    @property
    def dim(self) -> int:
        return self.centroids.shape[0] * self.centroids.shape[2]


def padded_dim(dim: int, num_blocks: int) -> int:
    """Smallest multiple of num_blocks that is >= dim."""
    return ((dim + num_blocks - 1) // num_blocks) * num_blocks


def pad_columns(data: np.ndarray, dim: int) -> np.ndarray:
    """Append zero columns so data has ``dim`` columns."""
    if data.shape[1] == dim:
        return data
    if data.shape[1] > dim:
        raise ValueError(f"cannot pad {data.shape[1]} columns down to {dim}")
    out = np.zeros((data.shape[0], dim))
    out[:, : data.shape[1]] = data
    return out


def train_pq(
    data,
    num_blocks: int,
    codebook_size: int,
    kmeans_iters: int = 25,
    seed: int = 0,
    pad: bool = False,
) -> PQCodebook:
    """Fit one k-means codebook per contiguous coordinate block.

    The input dimension must be divisible by ``num_blocks`` unless ``pad``
    is set, in which case zero columns are appended up to the next
    multiple. Block j is seeded with ``seed + j`` so a single-block fit
    reproduces ``kmeans(data, codebook_size, ..., seed)`` exactly.
    """
    x = as_matrix(data, "data")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if codebook_size < 1 or codebook_size > MAX_CODEBOOK:
        raise ValueError(
            f"codebook_size must be in [1, {MAX_CODEBOOK}], got {codebook_size}"
        )
    if codebook_size > x.shape[0]:
        raise ValueError(
            f"codebook_size={codebook_size} exceeds point count {x.shape[0]}"
        )
    if x.shape[1] % num_blocks != 0:
        if not pad:
            raise ValueError(
                f"dimension {x.shape[1]} not divisible by {num_blocks} blocks; "
                "pass pad=True to zero-pad"
            )
        x = pad_columns(x, padded_dim(x.shape[1], num_blocks))
    sub = x.shape[1] // num_blocks
    if sub == 0:
        raise ValueError(f"{num_blocks} blocks exceed dimension {x.shape[1]}")
    results = [
        kmeans(x[:, j * sub : (j + 1) * sub], codebook_size,
               max_iters=kmeans_iters, seed=seed + j)
        for j in range(num_blocks)
    ]
    return PQCodebook(
        centroids=np.stack([r.centroids for r in results]),
        converged=all(r.converged for r in results),
    )


def _check_codebook_input(codebook: PQCodebook, x: np.ndarray) -> None:
    if x.shape[-1] != codebook.dim:
        raise ValueError(
            f"input dimension {x.shape[-1]} does not match codebook "
            f"dimension {codebook.dim}"
        )


def pq_encode(codebook: PQCodebook, x) -> np.ndarray:
    """Nearest sub-centroid index per block.

    Accepts a single vector or a (N, dim) batch; returns (num_blocks,) or
    (N, num_blocks) uint8 codes. Ties go to the lowest index.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    arr = as_matrix(arr, "x")
    _check_codebook_input(codebook, arr)
    codes = np.empty((arr.shape[0], codebook.num_blocks), dtype=np.uint8)
    sub = codebook.centroids.shape[2]
    for j, block_centroids in enumerate(codebook.centroids):
        labels, _ = _assign_batch(arr[:, j * sub : (j + 1) * sub], block_centroids)
        codes[:, j] = labels
    return codes[0] if single else codes


def _check_codes(codebook: PQCodebook, codes: np.ndarray) -> np.ndarray:
    arr = np.asarray(codes)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != codebook.num_blocks:
        raise ValueError(
            f"codes must have {codebook.num_blocks} columns, got shape {codes.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= codebook.codebook_size:
        raise ValueError(
            f"code out of range for codebook size {codebook.codebook_size}"
        )
    return arr


def pq_decode(codebook: PQCodebook, codes) -> np.ndarray:
    """Reconstruction by concatenating the selected sub-centroids."""
    single = np.asarray(codes).ndim == 1
    arr = _check_codes(codebook, codes)
    blocks = np.arange(codebook.num_blocks)
    out = codebook.centroids[blocks, arr].reshape(arr.shape[0], codebook.dim)
    return out[0] if single else out


@dataclass(eq=False)
class OPQModel:
    """Product quantizer preceded by a learned orthogonal rotation.

    ``input_dim`` is the dimension the model was trained on, before any
    zero-padding; the rotation and codebook live in the padded space.
    ``trace`` holds the end-of-iteration objectives of the alternating fit
    and is non-increasing.
    """

    rotation: np.ndarray
    codebook: PQCodebook
    input_dim: int
    trace: list[float] = field(default_factory=list)
    converged: bool | None = False

    @property
    def dim(self) -> int:
        return self.codebook.dim


def _prepare_input(dim_in: int, model_dim: int, data: np.ndarray) -> np.ndarray:
    if data.shape[1] != dim_in:
        raise ValueError(
            f"input dimension {data.shape[1]} does not match model "
            f"dimension {dim_in}"
        )
    return pad_columns(data, model_dim)


def apply_rotation(model: OPQModel, data) -> np.ndarray:
    """Zero-pad to the model dimension and rotate."""
    x = as_matrix(data, "data")
    return _prepare_input(model.input_dim, model.dim, x) @ model.rotation.T


def train_opq(
    data,
    num_blocks: int,
    codebook_size: int,
    outer_iters: int = 20,
    kmeans_iters: int = 25,
    seed: int = 0,
    pad: bool = False,
    init_rotation: str = "identity",
) -> OPQModel:
    """Alternate per-block codebook fits with orthogonal rotation updates.

    Each outer iteration refits the codebooks on the rotated data (warm
    started from the previous centroids) and then solves the Procrustes
    problem for the rotation that best aligns the data with its current
    reconstruction. With ``outer_iters=0`` the result is a plain product
    quantizer under the initial rotation.

    Args:
        init_rotation: "identity" or "pca" (eigenvectors of the data
            covariance, largest first).
    """
    x = as_matrix(data, "data")
    if x.shape[1] % num_blocks != 0:
        if not pad:
            raise ValueError(
                f"dimension {x.shape[1]} not divisible by {num_blocks} blocks; "
                "pass pad=True to zero-pad"
            )
    if outer_iters < 0:
        raise ValueError("outer_iters must be >= 0")
    input_dim = x.shape[1]
    x = pad_columns(x, padded_dim(input_dim, num_blocks))
    d = x.shape[1]
    if init_rotation == "identity":
        rotation = np.eye(d)
    elif init_rotation == "pca":
        centered = x - x.mean(axis=0)
        cov = (centered.T @ centered) / max(x.shape[0], 1)
        w, v = np.linalg.eigh(cov)
        rotation = v[:, ::-1].T
    else:
        raise ValueError(f"unknown init_rotation {init_rotation!r}")

    codebook: PQCodebook | None = None
    trace: list[float] = []
    for t in range(outer_iters + 1):
        x_rot = x @ rotation.T
        if codebook is None:
            codebook = train_pq(
                x_rot, num_blocks, codebook_size, kmeans_iters=kmeans_iters, seed=seed
            )
        else:
            sub = codebook.centroids.shape[2]
            results = [
                _lloyd(x_rot[:, j * sub : (j + 1) * sub], block_centroids,
                       kmeans_iters, context="codebook refit")
                for j, block_centroids in enumerate(codebook.centroids)
            ]
            codebook = PQCodebook(
                centroids=np.stack([r.centroids for r in results]),
                converged=all(r.converged for r in results),
            )
        x_hat = pq_decode(codebook, pq_encode(codebook, x_rot))
        diff = x_rot - x_hat
        trace.append(float(np.einsum("ij,ij->", diff, diff)))
        _check_monotone(trace[-2:], "rotation/codebook alternation")
        if t < outer_iters:
            rotation = procrustes(x.T, x_hat.T)
    return OPQModel(
        rotation=rotation,
        codebook=codebook,
        input_dim=input_dim,
        trace=trace,
        converged=codebook.converged,
    )


def opq_encode(model: OPQModel, data) -> np.ndarray:
    """Codes for data given in the model's input space."""
    return pq_encode(model.codebook, apply_rotation(model, data))


def opq_decode(model: OPQModel, codes, rotated: bool = False) -> np.ndarray:
    """Reconstruction from codes.

    With ``rotated`` the reconstruction stays in the rotated space the
    codebook lives in; otherwise it is mapped back to the input space and
    any padding columns are dropped.
    """
    z = pq_decode(model.codebook, codes)
    if rotated:
        return z
    back = z @ model.rotation
    return back[..., : model.input_dim]


def reconstruction_error(model, data) -> float:
    """Total squared reconstruction error of ``data`` under ``model``.

    Accepts a PQCodebook or an OPQModel. For the rotated model the error
    is measured in the rotated space, which equals the input-space error
    because the rotation is orthogonal.
    """
    x = as_matrix(data, "data")
    if isinstance(model, PQCodebook):
        x_rot = pad_columns(x, model.dim) if x.shape[1] < model.dim else x
        codebook = model
    elif isinstance(model, OPQModel):
        x_rot = apply_rotation(model, x)
        codebook = model.codebook
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    x_hat = pq_decode(codebook, pq_encode(codebook, x_rot))
    diff = x_rot - x_hat
    return float(np.einsum("ij,ij->", diff, diff))
