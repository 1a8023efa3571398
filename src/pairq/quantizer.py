"""Vector quantizers: Lloyd k-means, product quantization, and the rotated
variant that alternates codebook fits with an orthogonal Procrustes update.

Assignment (``_assign_batch``, behind Lloyd, ``pq_encode`` and every encoder
built on it) walks the rows in tiles of about ``TILE_ENTRIES`` scores in one
reused buffer. Each tile is one product ``[x, 1] @ [−2cᵀ; ‖c‖²]``, which is
the score ``‖c‖² − 2 x·c``; the argmin goes straight into the labels and the
winner's score is gathered. The rows with their column of ones are built
once per Lloyd fit and once per encoded block of a chunk, not once per
pass. ``‖x‖²``, the same for every centroid of a row, plays no part in the
pick: Lloyd adds it to the winner's score and clamps at 0 for the squared
distance, and ``pq_encode`` keeps only the labels.

k-means++ seeding makes the draws of ``Generator.choice(n, p=D²/ΣD²)`` with
the same uniforms, about six passes over the N points per draw:

- The anchor a is the block mean. The rows y = x − a go once into a
  contiguous (s + 2, N) array with a row ‖y‖² and a row of ones, so the D²
  of every row to a centroid c is one matrix-vector product with
  [−2(c − a), 1, ‖c − a‖²], the product form ‖y‖² + ‖c − a‖² − 2(c − a)·y.
  The anchor keeps the norms, and so the rounding, at the spread of the
  block instead of its offset.
- The margin. With u = ε/2 and γₙ = nu/(1 − nu) (Higham, *Accuracy and
  Stability of Numerical Algorithms*, ch. 3), and Y = ‖x − a‖², C = ‖c − a‖²:
  the product of s + 2 terms whose magnitudes sum to at most 2(Y + C) is off
  by at most 2γ_{s+2}(Y + C), the rounded Y and C add γ_s(Y + C), rounding y
  and c − a adds 4u(Y + C), and the difference form Σ(x − c)² is itself off
  by at most 2γ_{s+2}(Y + C). So the two forms agree within
  6γ_{s+2}(Y + C). Every product-form value at or below that bound, taken
  with the largest Y of the block, is recomputed in the difference form on
  the original rows. The chosen row and its duplicates therefore get D²
  exactly 0, so the sampling stays without replacement, and no D² is
  negative.
- The draw inverts the CDF in two levels. D² sits in a zero-padded buffer
  of whole chunks of ``SEED_CHUNK`` points; a draw sums each chunk, takes
  the cumulative sum of those totals and finds the chunk of ``u·total``,
  then takes the cumulative sum of that one chunk and finds the point.

D² in product form and the chunked sums round differently from the
``choice`` reference. D² only weights the draw, and every centroid is an
exact copy of a row, so a pick can move only when the uniform lands within
about N·ε of a step of the CDF, about 1e-12 per draw at N = 20k.

Determinism contract: every training entry point takes an integer seed and
produces bit-identical models for identical inputs and seed. To keep that
promise the implementation avoids order-dependent accumulation (centroid
updates go through per-column bincount sums) and breaks assignment ties by
lowest centroid index (argmin's first-occurrence rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import CHUNK_ENTRIES, as_matrix, as_rows, chunk_ends, procrustes

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
# Sized by entries, it stays in a core's L2 cache for every codebook size,
# and each product of a large batch stays above the size where OpenBLAS
# switches to small-matrix kernels, which sum in another order.
TILE_ENTRIES = 1 << 16

# Points per chunk of the k-means++ draw: a draw sums every chunk, then
# takes the cumulative sum of one.
SEED_CHUNK = 512


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


def _append_ones(x):
    """The rows of x with a column of ones appended, as ``_assign_batch``
    takes them."""
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _assign_batch(rows1, centroids):
    """Nearest centroid per row x of a block and its score ``‖c‖² − 2 x·c``.

    ``rows1`` is ``_append_ones(x)``, built once by the caller: ``_lloyd``
    once per fit, ``pq_encode`` once per block. Ties go to the lowest
    index. The columns are padded with +inf to a multiple of 8 so that
    copies of a centroid tie exactly: BLAS edge kernels would round the
    last columns differently. The scores equal a product plus a separate
    ``‖c‖²`` add bit for bit (OpenBLAS 0.3.31) at multiples of 8 centroids
    in batches of hundreds of rows (see README).
    """
    n, (k, s) = rows1.shape[0], centroids.shape
    weights = np.zeros((s + 1, -(-k // 8) * 8))
    weights[s] = np.inf
    weights[:s, :k] = -2.0 * centroids.T
    weights[s, :k] = np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, TILE_ENTRIES // k)
    # The last tile takes the remainder, so only a batch of fewer than
    # ``rows`` rows has a short tile, whose product BLAS rounds otherwise.
    ends = chunk_ends(n, rows)
    score = np.empty((min(n, 2 * rows - 1), weights.shape[1]))
    tile_rows = np.arange(score.shape[0])
    labels = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    start = 0
    for end in ends:
        t = score[: end - start]
        np.matmul(rows1[start:end], weights, out=t)
        tile_labels = t.argmin(axis=1, out=labels[start:end])
        best[start:end] = t[tile_rows[: end - start], tile_labels]
        start = end
    return labels, best


def _centroid_means(cols, labels, k):
    """Per-cluster means of the points whose coordinates are the rows of
    ``cols``, (s, N) and contiguous, so no ``bincount`` copies a strided
    column first; the sums are those of the block's columns, bit for bit."""
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, cols.shape[0]))
    for j, col in enumerate(cols):
        sums[:, j] = np.bincount(labels, weights=col, minlength=k)
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
    # The extended rows feed the assignment and x is a view of them; the
    # centroid update reads one contiguous transposed copy of the block.
    rows1 = _append_ones(x)
    x = rows1[:, :-1]
    cols = np.ascontiguousarray(x.T)
    x_sq = np.einsum("ij,ij->i", x, x)
    k = centroids.shape[0]
    centroids = centroids.copy()
    prev_labels = None
    trace: list[float] = []
    converged = False
    for _ in range(max_iters):
        labels, best = _assign_batch(rows1, centroids)
        min_d2 = np.maximum(x_sq + best, 0.0)
        trace.append(float(min_d2.sum()))
        _check_monotone(trace[-2:], context)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        means, counts = _centroid_means(cols, labels, k)
        if _repair_empty(labels, min_d2, counts, k):
            means, counts = _centroid_means(cols, labels, k)
        centroids[counts > 0] = means[counts > 0]
        prev_labels = labels
    return KMeansResult(
        centroids=centroids,
        assignments=labels.astype(np.int64),
        trace=trace,
        converged=converged,
    )


def _seed_d2(x):
    """The D² step of k-means++ seeding on the rows of block x.

    Returns ``d2_to``: ``d2_to(c, out)`` writes the squared distance from
    every row to c into ``out`` and returns ``out``. See the module
    docstring for the anchor, the product form and the margin.
    """
    n, s = x.shape
    # Rows y = x − a of an (s + 2, N) array, then ‖y‖² and a row of ones:
    # one product with [−2(c − a), 1, ‖c − a‖²] is the whole D² step.
    rows = np.empty((s + 2, n))
    rows[:s] = x.T
    anchor = rows[:s].mean(axis=1)
    rows[:s] -= anchor[:, None]
    np.einsum("ij,ij->j", rows[:s], rows[:s], out=rows[s])
    rows[s + 1] = 1.0
    u = np.finfo(np.float64).eps / 2
    coef = 6 * (s + 2) * u / (1 - (s + 2) * u)
    y_sq_max = rows[s].max()
    weights = np.ones(s + 2)

    def d2_to(c, out):
        cc = c - anchor
        np.multiply(cc, -2.0, out=weights[:s])
        weights[s + 1] = cc @ cc
        np.matmul(weights, rows, out=out)
        # Within the margin: the difference form, exact 0 for copies of c.
        low = np.flatnonzero(out <= coef * (y_sq_max + weights[s + 1]))
        diff = x[low] - c
        out[low] = np.einsum("ij,ij->i", diff, diff)
        return out

    return d2_to


def _kmeans_pp_init(x, k, rng):
    """Seeding by squared-distance weighted sampling without replacement.

    D² comes from ``_seed_d2``: the anchored product form, with every value
    within the rounding margin recomputed in the difference form (module
    docstring). It sits in a zero-padded buffer of whole chunks of
    ``SEED_CHUNK`` points, and each draw inverts the cumulative distribution
    in two levels: chunk totals first, then the points of the one chunk the
    uniform lands in. The uniforms and the fallback to ``rng.integers(n)``
    once every D² is 0 are those of ``Generator.choice``, so a pick differs
    from it only when the uniform lands within about N·ε of a CDF step.
    """
    n, s = x.shape
    centroids = np.empty((k, s))
    centroids[0] = x[int(rng.integers(n))]
    if k == 1:
        return centroids
    d2_to = _seed_d2(x)
    chunks = -(-n // SEED_CHUNK)
    buf = np.zeros(chunks * SEED_CHUNK)
    d2, cand = buf[:n], np.empty(n)
    totals, cdf = np.empty(chunks), np.empty(chunks)
    by_chunk = buf.reshape(chunks, SEED_CHUNK)
    d2_to(centroids[0], d2)
    for i in range(1, k):
        by_chunk.sum(axis=1, out=totals)
        np.cumsum(totals, out=cdf)
        if cdf[-1] > 0.0:
            target = rng.random() * cdf[-1]
            j = min(int(cdf.searchsorted(target, side="right")), chunks - 1)
            if j:
                target -= cdf[j - 1]
            inner = np.cumsum(by_chunk[j])
            pick = int(inner.searchsorted(target, side="right"))
            if pick < SEED_CHUNK:
                pick += j * SEED_CHUNK
            else:
                # Rounding put the target past the chunk's last step: take
                # the last point with weight, as the one-level CDF would.
                pick = int(np.flatnonzero(buf[: (j + 1) * SEED_CHUNK])[-1])
        else:
            pick = int(rng.integers(n))
        centroids[i] = x[pick]
        if i + 1 < k:
            np.minimum(d2, d2_to(centroids[i], cand), out=d2)
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
    seed. ``opq_encode`` and ``pairq_encode`` call it on chunks of whole
    tiles (``encode_in_chunks``), which keeps each tile where one call on
    all their rows puts it.
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
        block = arr[:, j * sub : (j + 1) * sub]
        codes[:, j] = _assign_batch(_append_ones(block), block_centroids)[0]
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
    """Reconstruction by concatenating the selected sub-centroids.

    One flat gather: code c of block j is row ``c + K·j`` of the centroids
    viewed as (M·K, s), and one ``take`` of those rows copies every
    sub-centroid into place.
    """
    codes = np.asarray(codes)
    single = codes.ndim == 1
    arr = check_codes(codes, codebook.num_blocks, codebook.codebook_size)
    m, k, s = codebook.centroids.shape
    rows = np.add(arr, k * np.arange(m), dtype=np.intp)
    out = codebook.centroids.reshape(m * k, s).take(rows, axis=0)
    out = out.reshape(arr.shape[0], m * s)
    return out[0] if single else out


@dataclass(eq=False)
class OPQModel:
    """Product quantizer preceded by a learned orthogonal rotation.

    ``input_dim`` is the dimension the model was trained on, before any
    zero-padding; the rotation and codebook live in the padded space.
    ``trace`` holds the end-of-iteration objectives of the alternating fit
    and is non-increasing. ``codes`` holds the training rows' codes from the
    fit's last pass, the same bits as ``opq_encode(model, data)``. Both come
    from training: ``save_model`` does not write them, and a model from
    ``load_model`` has an empty trace and ``codes`` None.
    """

    rotation: np.ndarray
    codebook: PQCodebook
    input_dim: int
    trace: list[float] = field(default_factory=list)
    codes: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.codebook.dim

    @property
    def converged(self) -> bool | None:
        """The codebook's flag: True when every block's last fit reached a
        Lloyd fixed point, None on models loaded from disk."""
        return self.codebook.converged


def _check_input_dim(model: OPQModel, x: np.ndarray) -> None:
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dimension {x.shape[1]} does not match model "
            f"dimension {model.input_dim}"
        )


def _rotate(rotation: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """x zero-padded to the rotation's dimension and rotated, into ``out``
    when it is given."""
    return np.matmul(pad_columns(x, rotation.shape[0]), rotation.T, out=out)


def apply_rotation(model: OPQModel, data) -> np.ndarray:
    """Zero-pad to the model dimension and rotate."""
    x = as_matrix(data, "data")
    _check_input_dim(model, x)
    return _rotate(model.rotation, x)


def row_chunks(n: int, width: int, codebook_size: int) -> list[slice]:
    """The row chunks of a pass over n rows, up to ``width`` columns wide,
    that are encoded with ``codebook_size`` centroids per block.

    A chunk is a whole number of assignment tiles, about ``CHUNK_ENTRIES``
    values at ``width`` columns, and a tail shorter than one chunk joins
    the chunk before it. Every tile of ``pq_encode`` therefore falls where
    one call on all the rows puts it. So do the rows of the products
    before it, which BLAS rounds alike in a chunk and in the whole batch up
    to 193 output columns; at wider products (seen from 194 columns with
    OpenBLAS 0.3.31) it rounds the last rows of a product, or of a
    thread's share, differently, and a near-tie code can move (README).
    Training and encoding use the same chunks, so their codes agree at any
    width.
    """
    tile = max(1, TILE_ENTRIES // codebook_size)
    step = tile * max(1, CHUNK_ENTRIES // (max(1, width) * tile))
    ends = chunk_ends(n, step)
    return [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]


def _fit_opq(
    rows: np.ndarray,
    prepare,
    input_dim: int,
    num_blocks: int,
    codebook_size: int,
    outer_iters: int,
    kmeans_iters: int,
    seed: int,
    pad: bool,
) -> OPQModel:
    """The alternating fit of ``train_opq`` and ``train_pairq``.

    ``prepare`` maps a chunk of ``rows`` to float64 rows of ``input_dim``
    columns, checked by ``as_matrix``. The fit's one whole (N, d) array is
    ``x_rot``, the rotated rows. Each outer pass fills it chunk by chunk
    (``row_chunks``, the chunks of ``encode_in_chunks``): prepare, pad,
    rotate. So the first fill checks every row before any k-means work, and
    the codes of ``pq_encode(codebook, x_rot)`` are the encode's. After the
    encode each chunk decodes its codes, adds x̂ᵀ·x_rot to a d×d cross
    product and then turns into its residual in place. With x_rot = x·Rᵀ,
    the Procrustes input x̂ᵀ·x is ``cross @ R``.
    """
    check_training(num_blocks, codebook_size, outer_iters, kmeans_iters)
    if input_dim % num_blocks != 0 and not pad:
        raise ValueError(
            f"dimension {input_dim} not divisible by {num_blocks} blocks; "
            "pass pad=True to zero-pad"
        )
    dim = padded_dim(input_dim, num_blocks)
    chunks = row_chunks(rows.shape[0], max(rows.shape[1], dim), codebook_size)
    x_rot = np.empty((rows.shape[0], dim))
    rotation = np.eye(dim)

    codebook: PQCodebook | None = None
    trace: list[float] = []
    for t in range(outer_iters + 1):
        for chunk in chunks:
            _rotate(rotation, prepare(rows[chunk]), out=x_rot[chunk])
        if codebook is None:
            codebook = train_pq(
                x_rot, num_blocks, codebook_size, kmeans_iters=kmeans_iters, seed=seed
            )
        else:
            previous = codebook.centroids
            codebook = _fit_blocks(x_rot, num_blocks, lambda j, block: _lloyd(
                block, previous[j], kmeans_iters, context="codebook refit"))
        codes = pq_encode(codebook, x_rot)
        solve = t < outer_iters
        cross = np.zeros((dim, dim))
        residual = 0.0
        for chunk in chunks:
            x_c = x_rot[chunk]
            x_hat = pq_decode(codebook, codes[chunk])
            if solve:
                cross += x_hat.T @ x_c
            np.subtract(x_c, x_hat, out=x_c)
            residual += np.einsum("ij,ij->", x_c, x_c)
            # Free this chunk's reconstruction before the next is made.
            del x_hat
        trace.append(float(residual))
        _check_monotone(trace[-2:], "rotation/codebook alternation")
        if solve:
            rotation = procrustes(cross @ rotation)
    return OPQModel(
        rotation=rotation,
        codebook=codebook,
        input_dim=input_dim,
        trace=trace,
        codes=codes,
    )


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
    the next multiple. The last pass encodes the rotated rows under the
    final rotation and codebook; the model keeps those codes, the bits
    ``opq_encode`` gives. The rows are converted to float64, checked,
    padded and rotated one chunk at a time into one reused array of
    rotated rows, the only whole (N, d) array the fit holds
    (``_fit_opq``); the reconstruction and the residual go chunk by chunk.
    """
    x = as_rows(data, "data")
    return _fit_opq(
        x, lambda chunk: as_matrix(chunk, "data"), x.shape[1], num_blocks,
        codebook_size, outer_iters, kmeans_iters, seed, pad,
    )


def encode_in_chunks(model: OPQModel, rows: np.ndarray, prepare) -> np.ndarray:
    """(N, M) uint8 codes of the N rows of a 2-d array, one chunk at a time.

    ``prepare`` maps a chunk of ``rows`` to float64 rows of the model's
    input space, checked by ``as_matrix``; each chunk is then padded,
    rotated and encoded by ``pq_encode``. The chunks are ``row_chunks`` at
    the widest of the rows and the model, so the codes are those of one
    ``pq_encode`` call on all the rotated rows (up to 193 columns, see
    ``row_chunks``) and those training keeps.
    """
    book = model.codebook
    codes = np.empty((rows.shape[0], book.num_blocks), dtype=np.uint8)
    width = max(rows.shape[1], model.dim)
    for chunk in row_chunks(rows.shape[0], width, book.codebook_size):
        codes[chunk] = pq_encode(book, _rotate(model.rotation, prepare(rows[chunk])))
    return codes


def opq_encode(model: OPQModel, data) -> np.ndarray:
    """Codes for data given in the model's input space, as ``pq_encode``
    gives them for all the rotated rows at once. The rows are converted to
    float64, checked, padded and rotated one chunk at a time
    (``encode_in_chunks``), so any float dtype is read without a whole
    float64 copy."""
    x = as_rows(data, "data")
    _check_input_dim(model, x)
    return encode_in_chunks(model, x, lambda chunk: as_matrix(chunk, "data"))


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
