"""Vector quantizers: Lloyd k-means, product quantization, and the rotated
variant that alternates codebook fits with an orthogonal Procrustes update.

Assignment (``_assign_batch``, behind Lloyd, ``pq_encode`` and every encoder
built on it) walks the rows in tiles of about ``TILE_ENTRIES`` scores, so
its one reused buffer stays in cache. Each tile is one matrix product
``-2 x·c`` into that buffer, plus ``‖c‖²`` in place; the argmin goes
straight into the labels, and the winner's score ``‖c‖² − 2 x·c`` is
gathered. ``‖x‖²`` is the same for every centroid of a row, so it plays no
part in the pick: Lloyd adds it to the winner's score and clamps at 0 for
the squared distance, and ``pq_encode`` keeps only the labels.

k-means++ seeding inverts the cumulative D² distribution with one uniform
draw, the same draw and the same pick that ``Generator.choice(n, p=...)``
makes, without its per-call checks. D² lives on a transposed copy of the
block and is summed coordinate by coordinate, so each step is a few calls
over all points at once. That sum differs from a per-row ``einsum`` in the
last bits for 37–60% of the points (at most 8.6e-16 relative, s = 8 to 32,
20k Gaussian points), but D² only weights the draw, and every centroid is
an exact copy of a row: a pick moves only if the uniform lands within about
N·ε of a step of the CDF, about 1e-12 per draw at N = 20k.

Determinism contract: every training entry point takes an integer seed and
produces bit-identical models for identical inputs and seed. To keep that
promise the implementation avoids order-dependent accumulation (centroid
updates go through per-column bincount sums) and breaks assignment ties by
lowest centroid index (argmin's first-occurrence rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, procrustes

# Largest codebook size representable in one byte per sub-index.
MAX_CODEBOOK = 256

# Training defaults of the library, the grid runner and the CLI: centroids
# per block, rotation/codebook alternations and Lloyd passes per fit.
DEFAULT_CODEBOOK_SIZE = MAX_CODEBOOK
DEFAULT_OUTER_ITERS = 20
DEFAULT_KMEANS_ITERS = 25

# Training objectives must not increase between iterations; violations above
# this relative slack indicate a real bug rather than float64 rounding.
MONOTONE_RTOL = 1e-9

# Scores per assignment tile: 2**16 float64 values (512 KB) in one buffer.
# Sizing by entries rather than rows keeps the tile buffer in a core's L2
# cache for every codebook size. It also keeps each product of a large
# batch above the size where OpenBLAS switches to small-matrix kernels, which
# sum in another order.
TILE_ENTRIES = 1 << 16


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
    trace: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def inertia(self) -> float:
        """Objective of the returned assignments, the last ``trace`` entry."""
        return self.trace[-1]


def _check_monotone(trace: list[float], context: str) -> None:
    for a, b in zip(trace, trace[1:]):
        if b > a + MONOTONE_RTOL * max(1.0, abs(a)):
            raise RuntimeError(
                f"{context} objective increased from {a!r} to {b!r}"
            )


def _assign_batch(x, centroids):
    """Nearest centroid per row of x and that centroid's score.

    The score is ``‖c‖² − 2 x·c``, the squared distance less ``‖x‖²``,
    which is the same for every centroid of a row. Ties go to the lowest
    centroid index.
    """
    x = np.ascontiguousarray(x)
    n, k = x.shape[0], centroids.shape[0]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    minus_2ct = -2.0 * centroids.T
    rows = max(1, TILE_ENTRIES // k)
    # The last tile takes the remainder, so a tile has fewer than ``rows``
    # rows only when the whole batch does: a product of a few rows goes
    # through other BLAS kernels, which round differently.
    ends = list(range(rows, n - rows + 1, rows)) + [n]
    score = np.empty((min(n, 2 * rows - 1), k))
    tile_rows = np.arange(score.shape[0])
    labels = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    start = 0
    for end in ends:
        t = score[: end - start]
        np.matmul(x[start:end], minus_2ct, out=t)
        np.add(t, c_sq, out=t)
        tile_labels = t.argmin(axis=1, out=labels[start:end])
        best[start:end] = t[tile_rows[: end - start], tile_labels]
        start = end
    return labels, best


def _centroid_means(x, labels, k):
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, x.shape[1]))
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x[:, j], minlength=k)
    nonempty = counts > 0
    sums[nonempty] /= counts[nonempty, None]
    return sums, counts


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
    x = np.ascontiguousarray(x)
    x_sq = np.einsum("ij,ij->i", x, x)
    k = centroids.shape[0]
    centroids = centroids.copy()
    prev_labels = None
    trace: list[float] = []
    converged = False
    for _ in range(max_iters):
        labels, best = _assign_batch(x, centroids)
        min_d2 = np.maximum(x_sq + best, 0.0)
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
        trace=trace,
        converged=converged,
    )


def _kmeans_pp_init(x, k, rng):
    """Seeding by squared-distance weighted sampling without replacement.

    D² is kept over a transposed copy of the block, one contiguous row per
    coordinate, and summed coordinate by coordinate, so each step runs over
    all points at once in reused buffers.
    """
    n, s = x.shape
    centroids = np.empty((k, s))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    if k == 1:
        return centroids
    coords = np.ascontiguousarray(x.T)
    d2, cand, tmp, cdf = (np.empty(n) for _ in range(4))

    def sq_dists(c, out):
        out.fill(0.0)
        for j in range(s):
            np.subtract(coords[j], c[j], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(out, tmp, out=out)

    sq_dists(centroids[0], d2)
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            np.divide(d2, total, out=tmp)
            np.cumsum(tmp, out=cdf)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            pick = int(rng.integers(n))
        centroids[i] = x[pick]
        if i + 1 < k:
            sq_dists(centroids[i], cand)
            np.minimum(d2, cand, out=d2)
    return centroids


def kmeans(
    points, k: int, max_iters: int = DEFAULT_KMEANS_ITERS, seed: int = 0
) -> KMeansResult:
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
    x = np.ascontiguousarray(as_matrix(points, "points"))
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


def check_training(
    num_blocks: int, codebook_size: int, outer_iters: int = 0, kmeans_iters: int = 1
) -> None:
    """Raise ValueError unless num_blocks >= 1, 1 <= codebook_size <=
    MAX_CODEBOOK (one byte per code), outer_iters >= 0 and kmeans_iters >= 1.
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if not 1 <= codebook_size <= MAX_CODEBOOK:
        raise ValueError(
            f"codebook_size must be in [1, {MAX_CODEBOOK}], got {codebook_size}"
        )
    if outer_iters < 0:
        raise ValueError(f"outer_iters must be >= 0, got {outer_iters}")
    if kmeans_iters < 1:
        raise ValueError(f"kmeans_iters must be >= 1, got {kmeans_iters}")


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


def _fit_blocks(x, num_blocks, fit) -> PQCodebook:
    """Codebook of ``fit(j, block_j)`` (a KMeansResult) over the
    ``num_blocks`` equal column blocks of x, converged when every block is."""
    sub = x.shape[1] // num_blocks
    results = [fit(j, x[:, j * sub : (j + 1) * sub]) for j in range(num_blocks)]
    return PQCodebook(
        centroids=np.stack([r.centroids for r in results]),
        converged=all(r.converged for r in results),
    )


def train_pq(
    data,
    num_blocks: int,
    codebook_size: int,
    kmeans_iters: int = DEFAULT_KMEANS_ITERS,
    seed: int = 0,
) -> PQCodebook:
    """Fit one k-means codebook per contiguous coordinate block.

    The input dimension must be divisible by ``num_blocks``. Block j is
    seeded with ``seed + j`` so a single-block fit reproduces
    ``kmeans(data, codebook_size, ..., seed)`` exactly.
    """
    x = as_matrix(data, "data")
    check_training(num_blocks, codebook_size, kmeans_iters=kmeans_iters)
    if x.shape[1] % num_blocks != 0:
        raise ValueError(
            f"dimension {x.shape[1]} not divisible by {num_blocks} blocks"
        )
    if x.shape[1] < num_blocks:
        raise ValueError(f"{num_blocks} blocks exceed dimension {x.shape[1]}")
    return _fit_blocks(x, num_blocks, lambda j, block: kmeans(
        block, codebook_size, max_iters=kmeans_iters, seed=seed + j))


def pq_encode(codebook: PQCodebook, x) -> np.ndarray:
    """Nearest sub-centroid index per block.

    Accepts a single vector or a (N, dim) batch; returns (num_blocks,) or
    (N, num_blocks) uint8 codes; a codebook that ``check_training`` rejects
    raises ValueError. Ties go to the lowest index. BLAS rounds
    the products ``x·c`` differently by batch shape, so a row within
    rounding of a tie between two centroids can get another code when it
    is encoded alone or in another batch; training stays bit-identical per
    seed.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    arr = as_matrix(arr, "x")
    check_training(codebook.num_blocks, codebook.codebook_size)
    if arr.shape[1] != codebook.dim:
        raise ValueError(
            f"input dimension {arr.shape[1]} does not match codebook "
            f"dimension {codebook.dim}"
        )
    codes = np.empty((arr.shape[0], codebook.num_blocks), dtype=np.uint8)
    sub = codebook.centroids.shape[2]
    for j, block_centroids in enumerate(codebook.centroids):
        codes[:, j] = _assign_batch(
            arr[:, j * sub : (j + 1) * sub], block_centroids
        )[0]
    return codes[0] if single else codes


def check_codes(
    codes: np.ndarray, num_blocks: int, codebook_size: int
) -> np.ndarray:
    """Codes as a (N, num_blocks) integer array, a single code as one row.

    Raises ValueError unless there are ``num_blocks`` columns, the dtype is
    an integer type (bool is not) and every code is in
    [0, codebook_size). The dtype is kept, so no copy is made.
    """
    arr = codes[None, :] if codes.ndim == 1 else codes
    if arr.ndim != 2 or arr.shape[1] != num_blocks:
        raise ValueError(
            f"codes must have {num_blocks} blocks (columns), got shape {codes.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= codebook_size):
        raise ValueError(f"code out of range for codebook size {codebook_size}")
    return arr


def pq_decode(codebook: PQCodebook, codes) -> np.ndarray:
    """Reconstruction by concatenating the selected sub-centroids."""
    codes = np.asarray(codes)
    single = codes.ndim == 1
    arr = check_codes(codes, codebook.num_blocks, codebook.codebook_size)
    arr = arr.astype(np.int64, copy=False)
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

    @property
    def dim(self) -> int:
        return self.codebook.dim

    @property
    def converged(self) -> bool | None:
        """The codebook's flag: True when every block's last fit reached a
        Lloyd fixed point, None on models loaded from disk."""
        return self.codebook.converged


def apply_rotation(model: OPQModel, data) -> np.ndarray:
    """Zero-pad to the model dimension and rotate."""
    x = as_matrix(data, "data")
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dimension {x.shape[1]} does not match model "
            f"dimension {model.input_dim}"
        )
    return pad_columns(x, model.dim) @ model.rotation.T


def train_opq(
    data,
    num_blocks: int,
    codebook_size: int,
    outer_iters: int = DEFAULT_OUTER_ITERS,
    kmeans_iters: int = DEFAULT_KMEANS_ITERS,
    seed: int = 0,
    pad: bool = False,
) -> OPQModel:
    """Alternate per-block codebook fits with orthogonal rotation updates.

    Each outer iteration refits the codebooks on the rotated data (warm
    started from the previous centroids) and then solves the Procrustes
    problem for the rotation that best aligns the data with its current
    reconstruction. The rotation starts at the identity, so with
    ``outer_iters=0`` the result is a plain product quantizer. With ``pad``
    a dimension that ``num_blocks`` does not divide is zero-padded up to
    the next multiple.
    """
    x = as_matrix(data, "data")
    check_training(num_blocks, codebook_size, outer_iters, kmeans_iters)
    if x.shape[1] % num_blocks != 0 and not pad:
        raise ValueError(
            f"dimension {x.shape[1]} not divisible by {num_blocks} blocks; "
            "pass pad=True to zero-pad"
        )
    input_dim = x.shape[1]
    x = pad_columns(x, padded_dim(input_dim, num_blocks))
    rotation = np.eye(x.shape[1])

    codebook: PQCodebook | None = None
    trace: list[float] = []
    for t in range(outer_iters + 1):
        x_rot = x @ rotation.T
        if codebook is None:
            codebook = train_pq(
                x_rot, num_blocks, codebook_size, kmeans_iters=kmeans_iters, seed=seed
            )
        else:
            previous = codebook.centroids
            codebook = _fit_blocks(x_rot, num_blocks, lambda j, block: _lloyd(
                block, previous[j], kmeans_iters, context="codebook refit"))
        x_hat = pq_decode(codebook, pq_encode(codebook, x_rot))
        # x_rot takes the residual in place and x_hat goes once the rotation
        # is solved, so a pass holds no (N, d) array of the one before it
        # beyond the x_rot that its product replaces.
        np.subtract(x_rot, x_hat, out=x_rot)
        trace.append(float(np.einsum("ij,ij->", x_rot, x_rot)))
        _check_monotone(trace[-2:], "rotation/codebook alternation")
        if t < outer_iters:
            rotation = procrustes(x.T, x_hat.T)
            del x_hat
    return OPQModel(
        rotation=rotation,
        codebook=codebook,
        input_dim=input_dim,
        trace=trace,
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
