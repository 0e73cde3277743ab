"""Test oracles written out once more, independent of the library: the flat
generators one matrix each, the base point, the isotropy test block by
block, and a second SVD, of the free block of a tangent matrix, beside the
slope SVD the library's logs read.  Beside them, ``random_slope`` and
``random_coset``, the slopes and cosets of the factors verify's opening
draw draws, which only tests use."""

import numpy as np

from dualspace import numkernel as nk
from dualspace import verify
from dualspace.embeddings import coset_from_factors
from dualspace.spaces import FlatCoordinates, Side, SubspacePoint, _block_diag, special_svd


def cartan_basis(space, side):
    """The rank commuting generators R_i (compact) or their boosts: +1 at
    (i, n+i), and -1 (compact) or +1 at (n+i, i)."""
    out = []
    for i in range(space.rank):
        r = np.zeros((space.dim, space.dim), dtype=space.dtype)
        r[i, space.n + i] = 1.0
        r[space.n + i, i] = -1.0 if side is Side.COMPACT else 1.0
        out.append(r)
    return out


def base_point(space):
    """The span of the first n coordinate axes."""
    return SubspacePoint(space, np.eye(space.dim, space.n, dtype=space.dtype))


def in_isotropy(space, k, tol=1e-10):
    """Whether ``k`` fixes the base point: block diagonal, with unitary
    blocks, each of determinant one on the oriented families."""
    n = space.n
    if max(np.abs(k[:n, n:]).max(), np.abs(k[n:, :n]).max()) > tol:
        return False
    for block in (k[:n, :n], k[n:, n:]):
        if np.abs(nk.herm(block) @ block - np.eye(len(block))).max() > tol:
            return False
        if space.oriented and abs(np.linalg.det(block) - 1.0) > tol:
            return False
    return True


def flat_decompose(space, x):
    """Rotate a tangent matrix into the flat: x = k (sum_i h_i A_i) k^-1.

    The canonical representative keeps |h_i| descending (the singular
    values of the free n x m block), with k in the isotropy group.  The
    coordinates h are in lattice units.

    Returns
    -------
    (k, h) : (ndarray, FlatCoordinates)
    """
    u, s, vh = special_svd(x[..., : space.n, space.n :], space.oriented)
    k = _block_diag(u, nk.herm(vh))
    return k, FlatCoordinates(space, np.linalg.solve(space.lattice_coeff, s[..., None])[..., 0])


def random_factors(space, seed, sigma_max=None, size=None):
    """The factors ``(w, sig, z)`` of the random space-like slope (or a
    stack of ``size``) that ``verify._drawn_slopes`` draws from the values
    and frames streams of ``seed``, the top singular value ``sigma_max`` (a
    value, or one per slope) in place of the drawn one if given, and the
    lower values scaled with it."""
    slopes = verify._drawn_slopes(space, seed, size)
    return slopes.svd(slopes.top if sigma_max is None else sigma_max)


def random_slope(space, seed, sigma_max=None, size=None):
    """The slope ``w[:, :n] diag(sig) z^H`` of :func:`random_factors`."""
    w, sig, z = random_factors(space, seed, sigma_max, size)
    return (w[..., :, : space.n] * sig[..., None, :]) @ nk.herm(z)


def random_coset(space, seed, sigma_max=None, size=None):
    """The boost of :func:`random_slope`'s slope at the same seed, built by
    ``coset_from_factors`` from its factors, so no SVD is taken and its
    point keeps its frame and slope SVD."""
    return coset_from_factors(space, *random_factors(space, seed, sigma_max, size))
