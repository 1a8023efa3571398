"""Query-aware linear transforms for pairwise-loss compression.

A sample of queries defines a second-moment matrix; its symmetric PSD root
maps database vectors into a space where plain reconstruction error equals
the query-weighted pairwise error. Quantizers trained on the transformed
vectors therefore minimize the error of scalar products (or squared
distances, via a lifting that makes them scalar products) against the
query distribution instead of the isotropic reconstruction error.

Two modes exist:

* scalar: transforms the raw vectors; estimates approximate q . x.
* sqdist: lifts x to (x, ||x||^2) and q to (-2q, 1) so that
  ||q - x||^2 == ||q||^2 + g . y, then transforms the lifted vectors.

If the query second moment is rank deficient the transform projects the
database onto the span of the observed queries; estimates remain exact on
that span and ignore directions no query ever probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_rows, as_vector, psd_factors
from .quantizer import (
    DEFAULT_KMEANS_ITERS,
    DEFAULT_OUTER_ITERS,
    OPQModel,
    _fit_opq,
    encode_in_chunks,
    pad_columns,
)

SCALAR = "scalar"
SQDIST = "sqdist"


@dataclass(eq=False)
class PairTransform:
    """Linear map learned from a query sample.

    ``matrix`` is the symmetric PSD root V·diag(√λ)·Vᵀ of ``second_moment``
    (the mean outer product of the, possibly lifted, query vectors) and
    ``pinv`` its Moore-Penrose pseudoinverse V·diag(1/√λ)·Vᵀ, both over
    the eigenpairs that ``linalg.psd_factors``' one rank rule keeps.
    ``source_dim`` is the raw vector dimension; ``dim`` is the transform's
    own dimension, one higher in sqdist mode because of the lifting.
    """

    mode: str
    source_dim: int
    matrix: np.ndarray
    pinv: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def second_moment(self) -> np.ndarray:
        """``matrix.T @ matrix``: the query second moment, less the
        eigenvalues that ``psd_factors`` clamps to zero."""
        return self.matrix.T @ self.matrix


def lift_point(x) -> np.ndarray:
    """Append the squared norm: x -> (x, ||x||^2)."""
    v = as_vector(x, "x")
    return np.append(v, v @ v)


def _lift_batch(x: np.ndarray) -> np.ndarray:
    norms = np.einsum("ij,ij->i", x, x)
    return np.hstack([x, norms[:, None]])


def _query_lift(q: np.ndarray) -> np.ndarray:
    ones = np.ones((q.shape[0], 1))
    return np.hstack([-2.0 * q, ones])


def _learn_transform(queries, mode: str) -> PairTransform:
    """PSD root and its pseudo-inverse, from one eigendecomposition of the
    second moment of the queries, lifted to (-2q, 1) first in sqdist mode."""
    q = as_matrix(queries, "queries")
    if 0 in q.shape:
        raise ValueError(f"need at least one query and one column, got {q.shape}")
    g = _query_lift(q) if mode == SQDIST else q
    _, root, pinv = psd_factors((g.T @ g) / g.shape[0])
    return PairTransform(mode=mode, source_dim=q.shape[1], matrix=root, pinv=pinv)


def learn_scalar_transform(queries) -> PairTransform:
    """Transform whose reconstruction error weights scalar products.

    For any x and approximation x_hat,
    ``mean_i (q_i . x - q_i . x_hat)^2 == ||C x - C x_hat||^2``
    with C the returned matrix and the mean running over the query sample.
    """
    return _learn_transform(queries, SCALAR)


def learn_sqdist_transform(queries) -> PairTransform:
    """Transform whose reconstruction error weights squared distances.

    Queries are lifted to (-2q, 1) before the second moment is formed, so
    the transformed space scores errors of ||q||^2 + g . y, which equals
    ||q - x||^2 exactly when y is the lifting of x.
    """
    return _learn_transform(queries, SQDIST)


def _check_source_dim(transform: PairTransform, x: np.ndarray) -> None:
    if x.shape[1] != transform.source_dim:
        raise ValueError(
            f"data dimension {x.shape[1]} does not match transform "
            f"source dimension {transform.source_dim}"
        )


def transform_database(transform: PairTransform, data) -> np.ndarray:
    """Map raw database vectors into the transform's space (lifting first
    in sqdist mode)."""
    x = as_matrix(data, "data")
    _check_source_dim(transform, x)
    if transform.mode == SQDIST:
        x = _lift_batch(x)
    return x @ transform.matrix.T


@dataclass(eq=False)
class PairQModel:
    """A pair transform with a rotated product quantizer trained on top."""

    transform: PairTransform
    opq: OPQModel

    @property
    def mode(self) -> str:
        return self.transform.mode


def train_pairq(
    transform: PairTransform,
    database,
    num_blocks: int,
    codebook_size: int,
    outer_iters: int = DEFAULT_OUTER_ITERS,
    kmeans_iters: int = DEFAULT_KMEANS_ITERS,
    seed: int = 0,
) -> PairQModel:
    """Quantize the transformed database.

    The transformed vectors are zero-padded when the transform dimension
    is not divisible by ``num_blocks``. ``model.opq.codes`` holds the
    database's codes from training, the same bits as ``pairq_encode``.
    The transformed database is never held whole: each outer pass of the
    fit (``quantizer._fit_opq``) converts, checks, lifts, transforms, pads
    and rotates one chunk of rows at a time into the one reused array of
    rotated rows, as ``pairq_encode`` does, at the cost of one transform
    of the database per pass.
    """
    x = as_rows(database, "data")
    _check_source_dim(transform, x)
    opq = _fit_opq(
        x, lambda chunk: transform_database(transform, chunk), transform.dim,
        num_blocks, codebook_size, outer_iters, kmeans_iters, seed, pad=True,
    )
    return PairQModel(transform=transform, opq=opq)


def pairq_encode(model: PairQModel, database) -> np.ndarray:
    """Codes for raw database vectors, as ``pq_encode`` gives them for all
    the transformed and rotated rows at once. Each chunk of rows is
    converted to float64, checked, lifted, transformed, padded and rotated
    in turn (``quantizer.encode_in_chunks``), so the pass holds chunks,
    not whole copies of the database."""
    x = as_rows(database, "data")
    _check_source_dim(model.transform, x)
    return encode_in_chunks(
        model.opq, x, lambda chunk: transform_database(model.transform, chunk)
    )


def pairq_query_vector(model: PairQModel, q) -> np.ndarray:
    """Query-side vector r with r . z_hat as the raw estimate.

    In scalar mode r is the pseudoinverse-transposed query; in sqdist mode
    the query is lifted to (-2q, 1) first. The result is zero-padded to
    the quantizer's dimension so it can be rotated and folded into lookup
    tables directly.
    """
    v = as_vector(q, "q")
    if v.shape[0] != model.transform.source_dim:
        raise ValueError(
            f"query dimension {v.shape[0]} does not match transform "
            f"source dimension {model.transform.source_dim}"
        )
    if model.mode == SQDIST:
        v = _query_lift(v[None, :])[0]
    r = model.transform.pinv.T @ v
    return pad_columns(r[None, :], model.opq.dim)[0]

