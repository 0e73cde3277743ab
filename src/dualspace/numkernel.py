"""Dense real/complex matrix primitives the rest of the library builds on.

All data lives in plain numpy arrays.  Real matrices are float64 and
complex ones complex128; the dtype doubles as the field tag, and binary
operations follow numpy promotion (real operands are upcast to complex,
never the other way around).  Every function here is pure: arguments are
never mutated, so values are safe to share across threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DomainError, NumericalError


def as_matrix(a, dtype=None) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-d float64/complex128 array;
    a real ``dtype`` refuses complex input with a nonzero imaginary part."""
    out = np.asarray(a)
    if out.dtype.kind in "iub":
        out = out.astype(np.float64)
    elif out.dtype.kind == "f":
        out = out.astype(np.float64, copy=False)
    elif out.dtype.kind == "c":
        out = out.astype(np.complex128, copy=False)
    else:
        raise DomainError(f"unsupported entry type {out.dtype}")
    if dtype is not None:
        if out.dtype.kind == "c" and np.dtype(dtype).kind != "c":
            if np.any(out.imag != 0.0):
                raise DomainError("complex entries where a real matrix is expected")
            out = out.real
        out = out.astype(dtype, copy=False)
    if out.ndim != 2:
        raise DomainError(f"expected a matrix, got array of ndim {out.ndim}")
    if not np.all(np.isfinite(out)):
        raise DomainError("matrix has non-finite entries")
    return out


def is_real(a: np.ndarray) -> bool:
    return np.asarray(a).dtype.kind != "c"


def expm(x) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Backed by scipy's scaling-and-squaring Pade implementation, which meets
    the accuracy budget (relative error well below 1e-12 in spectral norm)
    for the moderate-norm, mostly normal matrices used throughout this
    library.
    """
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise DomainError(f"expm needs a square matrix, got {x.shape}")
    return scipy.linalg.expm(x)


def block_qr(a):
    """Factor an invertible matrix as ``q = a @ rinv`` with ``q`` in the
    compact group and ``rinv`` inverse-to an upper triangular matrix.

    One Householder QR (LAPACK, through ``np.linalg.qr``), made unique by
    moving the phase of each diagonal entry of R into the matching column
    of Q.  The triangular factor then has a positive real diagonal, which
    pins the result.  Being upper triangular, R lies in every parabolic
    (block upper-triangular) subgroup, so no block shape is needed.

    Returns
    -------
    (q, rinv)
        ``q`` orthogonal/unitary, ``rinv`` upper triangular with
        ``a @ rinv == q``.

    Raises
    ------
    DomainError
        If ``a`` is not square.
    NumericalError
        If a diagonal entry of R, the part of a column orthogonal to the
        columns before it, drops below 1e-12 of that column's norm, i.e.
        the matrix is numerically singular.
    """
    a = as_matrix(a)
    k = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"block_qr needs a square matrix, got {a.shape}")

    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    mag = np.abs(diag)
    small = np.flatnonzero(mag <= 1e-12 * np.maximum(np.linalg.norm(a, axis=0), 1e-300))
    if small.size:
        raise NumericalError(f"QR breakdown at column {small[0]}: input is singular")
    phase = diag / mag
    q = q * phase
    r = phase.conj()[:, None] * r
    rinv = scipy.linalg.solve_triangular(r, np.eye(k, dtype=r.dtype))
    return q, rinv


def orthonormal_basis(l) -> np.ndarray:
    """Orthonormal frame of the column span of a full-column-rank matrix, from
    one thin SVD: the singular values give the rank verdict, U the frame."""
    l = as_matrix(l)
    u, sv, _ = np.linalg.svd(l, full_matrices=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
        raise DomainError("rank-deficient column span")
    return u


def projector(l) -> np.ndarray:
    """Orthogonal projector onto the column span of ``l``."""
    q = orthonormal_basis(l)
    return q @ q.conj().T


def frame_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Frobenius distance between the orthogonal projectors onto the spans
    of two orthonormal frames: the principal-angle metric of the
    Grassmannian, zero exactly when the spans coincide."""
    if q1.shape[0] != q2.shape[0]:
        raise DomainError(f"ambient dimensions differ: {q1.shape[0]} vs {q2.shape[0]}")
    return float(np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T))


def projector_distance(l1, l2) -> float:
    """:func:`frame_distance` between the spans of two full-column-rank
    matrices; invariant under right multiplication by invertible matrices."""
    return frame_distance(orthonormal_basis(l1), orthonormal_basis(l2))
