"""Dense real/complex matrix primitives the rest of the library builds on.

All data lives in plain numpy arrays.  Real matrices are float64 and
complex ones complex128; the dtype doubles as the field tag, and binary
operations follow numpy promotion (real operands are upcast to complex,
never the other way around).  The kernels take a matrix or a stack of
matrices: leading axes index samples, the last two are the matrix, and a
stack is checked once, with every slice held to the test a single matrix
meets.  Every function here but :func:`read_only` is pure: arguments are
never mutated, so values are safe to share across threads.

The library's exponentials are all of tangent vectors, which are
Hermitian (noncompact side) or skew-Hermitian (compact side), and
:func:`exp_tangent` takes them from one ``eigh``; no general matrix
exponential is needed, and numpy is the only dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError


def as_matrix(a, dtype=None) -> np.ndarray:
    """Validate and return ``a`` as a finite float64/complex128 matrix, or
    stack of matrices (ndim >= 2); a real ``dtype`` refuses complex input
    with a nonzero imaginary part."""
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
    if out.ndim < 2:
        raise DomainError(f"expected a matrix, got array of ndim {out.ndim}")
    if not np.all(np.isfinite(out)):
        raise DomainError("matrix has non-finite entries")
    return out


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place: the one place the library sets an
    array's ``writeable`` flag, for the arrays of every value, descriptor
    and lattice it builds."""
    a.flags.writeable = False
    return a


def is_real(a: np.ndarray) -> bool:
    return np.asarray(a).dtype.kind != "c"


def herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each slice of a stack."""
    return a.conj().swapaxes(-1, -2)


def per_slice(x):
    """A per-slice result: a Python scalar for one matrix, an array over a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def exp_tangent(x, *, hermitian: bool) -> np.ndarray:
    """Exponential of a Hermitian (``hermitian=True``) or skew-Hermitian
    (``hermitian=False``) matrix, or of each slice of a stack, from one
    ``eigh``.

    The caller names the side; the kernel does not test symmetry, since a
    computed ``k h k^H`` is Hermitian only to rounding.  ``eigh`` reads the
    lower triangle.  A skew ``x`` is ``-i`` times the Hermitian ``i x =
    V diag(lam) V^H``, so ``exp(x) = V diag(exp(-i lam)) V^H``, taken real
    for real ``x``.
    """
    x = as_matrix(x)
    if x.shape[-2] != x.shape[-1]:
        raise DomainError(f"exponential needs a square matrix, got {x.shape}")
    if hermitian:
        lam, v = np.linalg.eigh(x)
        return (v * np.exp(lam)[..., None, :]) @ herm(v)
    lam, v = np.linalg.eigh(1j * x)
    out = (v * np.exp(-1j * lam)[..., None, :]) @ herm(v)
    return out.real if is_real(x) else out


def phase_fixed_qr(a: np.ndarray):
    """``a = q @ r`` with ``q`` orthogonal/unitary and ``r`` upper triangular
    with a positive real diagonal, for a square matrix or a stack of them.

    One Householder QR (LAPACK, through ``np.linalg.qr``), made unique by
    moving the phase of each diagonal entry of R into the matching column
    of Q.  ``a`` must be a finite float64/complex128 array.

    Raises
    ------
    NumericalError
        If a diagonal entry of R, the part of a column orthogonal to the
        columns before it, drops below 1e-12 of that column's norm in any
        slice, i.e. the matrix is numerically singular.
    """
    q, r = np.linalg.qr(a)
    diag = r.diagonal(0, -2, -1)
    mag = np.abs(diag)
    small = mag <= 1e-12 * np.maximum(np.linalg.norm(a, axis=-2), 1e-300)
    if small.any():
        col = int(np.nonzero(small)[-1][0])
        raise NumericalError(f"QR breakdown at column {col}: input is singular")
    phase = diag / mag
    return q * phase[..., None, :], phase.conj()[..., :, None] * r


def orthonormal_basis(l: np.ndarray) -> np.ndarray:
    """Orthonormal frame of the column span of a full-column-rank matrix, or
    of each slice of a stack, from one thin SVD: the singular values give
    the rank verdict of every slice, U the frame.  ``l`` must be a finite
    float64/complex128 array (see :func:`as_matrix`)."""
    u, sv, _ = np.linalg.svd(l, full_matrices=False)
    if ((sv[..., 0] == 0.0) | (sv[..., -1] <= 1e-10 * sv[..., 0])).any():
        raise DomainError("rank-deficient column span")
    return u


def projector(l) -> np.ndarray:
    """Orthogonal projector onto the column span of ``l``."""
    q = orthonormal_basis(as_matrix(l))
    return q @ herm(q)


def frame_distance(q1: np.ndarray, q2: np.ndarray):
    """Frobenius distance between the orthogonal projectors onto the spans
    of two orthonormal frames: the principal-angle metric of the
    Grassmannian, zero exactly when the spans coincide.  A float for two
    frames, an array over stacks of them."""
    if q1.shape[-2] != q2.shape[-2]:
        raise DomainError(f"ambient dimensions differ: {q1.shape[-2]} vs {q2.shape[-2]}")
    return per_slice(np.linalg.norm(q1 @ herm(q1) - q2 @ herm(q2), axis=(-2, -1)))
