"""Test oracle for flat coordinates: a second SVD, of the free block of a
tangent matrix, independent of the slope SVD the library's logs read."""

import numpy as np

from dualspace import numkernel as nk
from dualspace.spaces import FlatCoordinates, _block_diag, special_svd


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
