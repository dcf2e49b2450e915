"""Spectral pre-reduction of the input data.

The macro model (k-means centroids and responsibilities) works on a
d_z-dimensional spectral projection z of the input rather than on raw
coordinates. The projection comes from one thin SVD of the data matrix.
Columns are mean-centered by default; centering can be turned off to
project against the raw second-moment matrix instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_points, in_interval


@dataclass(frozen=True)
class PcaEmbedding:
    """Projection result: scores z, the basis, and centering offsets.

    components has orthonormal columns (one per kept direction), eigenvalues
    are the matching variances in nonincreasing order, and means is the
    vector subtracted from rows before projecting (zeros when centering was
    off). Rows reconstruct as z @ components.T + means.
    """

    z: np.ndarray            # (n, d_z) projected coordinates
    components: np.ndarray   # (d_in, d_z) orthonormal basis columns
    eigenvalues: np.ndarray  # (d_z,) variances, nonincreasing, >= 0
    means: np.ndarray        # (d_in,) centering offset


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Singular vectors are only defined up to sign; pin each column so its
    # largest-magnitude entry is positive to make runs reproducible.
    flipped = components.copy()
    for j in range(flipped.shape[1]):
        i = int(np.argmax(np.abs(flipped[:, j])))
        if flipped[i, j] < 0:
            flipped[:, j] = -flipped[:, j]
    return flipped


def pca_fit(data, d_z: int, center: bool = True) -> PcaEmbedding:
    """Project data onto its top d_z variance directions.

    data may be a Dataset or a plain (n, d_in) matrix. The components are
    the first d_z right singular vectors of the (centered) data, so they
    are orthonormal even where the data has lower rank; the eigenvalues
    are the squared singular values over n. A thin SVD has min(n, d_in)
    directions, so d_z must lie in [1, min(n, d_in)].
    """
    x = as_points(data, "data")
    n, d_in = x.shape
    in_interval(d_z, "d_z", 1, min(n, d_in), "[]", integer=True)

    means = x.mean(axis=0) if center else np.zeros(d_in)
    xc = x - means
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    components = _fix_signs(vt[:d_z].T)
    z = xc @ components
    evals = s[:d_z] ** 2 / n
    return PcaEmbedding(z=z, components=components, eigenvalues=evals, means=means)
