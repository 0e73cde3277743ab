"""Catalog of the classical symmetric-space families in scope.

Each family is one row of the table :data:`FAMILIES`: its field, metric
scale and orientation, its extra CLI ids, and, for a family of one fixed
n, that n and its lattice coefficients.  :func:`make_space`, the CLI's
space ids and the family sets of ``verify`` all read that table, so a new
family is a new row.  Each space is described by a :class:`SpaceDescriptor`
holding the indefinite form and the unit lattice; the base point and the
commuting flat generators are fixed by the conventions:

* the ambient space is R^(n+m) or C^(n+m) with n <= m, the quadratic form
  has signature (n, m), and the base point is the span of the first n
  coordinate axes;
* the compact-side flat generator ``R_i`` has +1 at entry (i, n+i) and -1
  at (n+i, i); its noncompact partner has +1 at both, so that the flat
  geodesics are plane rotations respectively boosts;
* the inner product is ``metric_scale * Re tr(X^H Y)``, which evaluates to
  -1/2 tr(XY) on the compact side at the default scale 1/2 and makes the
  ``R_i`` orthonormal.  The circle/sphere family uses scale 2, so its
  closed geodesics have length 4*pi; this pins where the quarter and half
  regions land for the rank-1 stereographic comparisons.

Points, tangent vectors and flat coordinates may hold one value or a
stack of them along leading axes; the functions here act slice by slice
and check a stack once.  On the oriented families a point's orientation
is that of its frame ``rep``; nothing else records it.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numkernel as nk
from .errors import DomainError
from .lattice import LatticeBasis, _coords_array


class Family(enum.Enum):
    """Symmetric-space families in the catalog."""

    REAL_GRASSMANNIAN = "gr-real"
    COMPLEX_GRASSMANNIAN = "gr-complex"
    ORIENTED_TWO_PLANE = "oriented-2plane"
    CIRCLE_SPHERE = "sphere"


class Side(enum.Enum):
    COMPACT = "compact"
    NONCOMPACT = "noncompact"


@dataclass(frozen=True, eq=False)
class SpaceDescriptor:
    """One classical symmetric-space family instance.

    Immutable after construction, arrays included (each is read-only);
    build through :func:`make_space`.  ``lattice_inv`` is the inverse of
    ``lattice_coeff``, taken once by :func:`make_space`: it maps coordinates
    with respect to the generators R_i to lattice units,
    ``cartan @ lattice_inv.T``, for every point read afterwards.
    """

    family: Family
    n: int
    m: int
    rank: int
    field: str                      # "real" or "complex"
    metric_scale: float             # c in <X, Y> = c * Re tr(X^H Y)
    oriented: bool                  # determinant-one groups, oriented subspaces
    form_j: np.ndarray              # diag(+1 x n, -1 x m)
    lattice_coeff: np.ndarray       # columns: lattice generators in R_i coordinates
    lattice_inv: np.ndarray         # inverse of lattice_coeff
    lattice: LatticeBasis

    @property
    def dim(self) -> int:
        return self.n + self.m

    @property
    def dtype(self):
        return np.complex128 if self.field == "complex" else np.float64

    def label(self) -> str:
        return f"{self.family.value}({self.n},{self.m})"


def _fill(obj, **fields):
    """The one constructor body of the value classes (tangent vectors, flat
    coordinates, points and ``embeddings.GroupElement``): set ``fields`` on
    ``obj``, make each array among them read-only, so every array a value
    holds is, and run the class's invariant check ``_check``, once for a
    whole stack.  A public constructor hands it a private copy of the
    caller's array, :func:`_built` the arrays the library built."""
    for name, value in fields.items():
        object.__setattr__(obj, name,
                           nk.read_only(value) if isinstance(value, np.ndarray) else value)
    obj._check()
    return obj


def _built(cls, **fields):
    """An instance of a value class holding arrays the library built
    itself, kept with no copy and no ``as_matrix``, read-only by
    :func:`_fill`."""
    return _fill(object.__new__(cls), **fields)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Element of the tangent space at the base point, as a block matrix
    (or a stack of them).

    The matrix has vanishing diagonal blocks and off-diagonal blocks tied
    by ``lower = -upper^H`` (compact side) or ``lower = +upper^H``
    (noncompact side).  Its matrix is read-only, as every value's arrays
    are (:func:`_fill`).
    """

    space: SpaceDescriptor
    side: Side
    x: np.ndarray

    def __post_init__(self):
        _fill(self, x=np.array(nk.as_matrix(self.x, dtype=self.space.dtype)))  # a copy

    def _check(self):
        x = self.x
        dim, n = self.space.dim, self.space.n
        if x.shape[-2:] != (dim, dim):
            raise DomainError(f"tangent matrix must be {dim} x {dim}")
        sign = -1.0 if self.side is Side.COMPACT else 1.0
        resid = np.maximum.reduce([
            np.abs(x[..., :n, :n]).max(axis=(-2, -1)),
            np.abs(x[..., n:, n:]).max(axis=(-2, -1)),
            np.abs(x[..., n:, :n] - sign * nk.herm(x[..., :n, n:])).max(axis=(-2, -1)),
        ])
        scale = np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))
        if not (resid <= 1e-12 * scale).all():
            raise DomainError("matrix does not lie in the tangent block structure")


@dataclass(frozen=True, eq=False)
class FlatCoordinates:
    """Coordinates of a flat tangent vector in the lattice basis; a stack of
    vectors has shape (..., rank), checked by the lattice's coordinate
    rule.  The coordinates are read-only, as every value's arrays are
    (:func:`_fill`)."""

    space: SpaceDescriptor
    coords: np.ndarray

    def __post_init__(self):
        _fill(self, coords=np.array(self.coords, dtype=np.float64))  # a copy

    def _check(self):
        _coords_array(self.coords, self.space.lattice)

    def cartan_coords(self) -> np.ndarray:
        """Coordinates with respect to the generators R_i."""
        return self.coords @ self.space.lattice_coeff.T

    def matrix(self, side: Side) -> np.ndarray:
        """The flat tangent matrix sum_i c_i R_i on the given side: the
        Cartan coordinates c_i written into the entries (i, n+i) and
        (n+i, i) of one zero stack, negated at (n+i, i) on the compact side
        (the generators of the module docstring)."""
        space, cart = self.space, self.cartan_coords()
        i = np.arange(space.rank)
        out = np.zeros(cart.shape[:-1] + (space.dim, space.dim), dtype=space.dtype)
        out[..., i, space.n + i] = cart
        out[..., space.n + i, i] = -cart if side is Side.COMPACT else cart
        return out


@dataclass(frozen=True, eq=False)
class SubspacePoint:
    """Point of the (compact or dual) Grassmannian, as a tall frame matrix,
    or a stack of points as a stack of frames.

    The orthonormal frame ``basis`` of the span is computed once, at
    construction, and every comparison reads it; a frame the library built
    orthonormal by construction is passed in as ``basis`` and kept without
    an SVD.  Both arrays are read-only, as every value's arrays are
    (:func:`_fill`).  Two points are equal when their column spans
    coincide, and, for the oriented families, when their frames ``rep``
    carry the same orientation.
    """

    space: SpaceDescriptor
    rep: np.ndarray
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _fill(self, rep=np.array(nk.as_matrix(self.rep, dtype=self.space.dtype)))  # a copy

    def _check(self):
        if self.rep.shape[-2:] != (self.space.dim, self.space.n):
            raise DomainError(f"representative must be {self.space.dim} x {self.space.n}")
        if "basis" not in vars(self):
            object.__setattr__(self, "basis", nk.read_only(nk.orthonormal_basis(self.rep)))

    def distance(self, other: "SubspacePoint"):
        return nk.frame_distance(self.basis, other.basis)


def same_orientation(a: SubspacePoint, b: SubspacePoint):
    """Whether the frames of two points of one span carry the same
    orientation, per slice of a stack; always true off the oriented
    families."""
    if not a.space.oriented:
        return True
    # the sign of det(rel), rel = (bh a)^-1 (bh b) the change of frame in the span
    bh = nk.herm(a.basis)
    sign = np.sign(np.real(np.linalg.det(bh @ b.rep) * np.conj(np.linalg.det(bh @ a.rep))))
    return nk.per_slice(sign > 0)


def same_point(a: SubspacePoint, b: SubspacePoint):
    """Equality of subspace points, per slice of a stack: spans within 1e-9
    of each other, and the same orientation on the oriented families."""
    return nk.per_slice(np.logical_and(a.distance(b) <= 1e-9, same_orientation(a, b)))


# ---------------------------------------------------------------------------
# catalog construction


MAX_DIM = 256  # the bound on n + m, four times the targeted 64
# the bound on a CLI sample count, 500 times the default 200: a verify pass
# holds the draws of one space at a time, about 6 KB per sample at its
# peak, and a cut-locus grid takes one cut radius per sample
MAX_SAMPLES = 100_000


class FamilyRow(NamedTuple):
    """What sets one family apart; :func:`make_space` reads nothing else.

    The rank is n in every family.  A family of one fixed n gives its
    lattice coefficients (columns: generators in R_i coordinates, a
    read-only array its descriptors share); the others have pi * I_n.
    """

    field: str                      # "real" or "complex"
    metric_scale: float
    oriented: bool
    aliases: tuple = ()             # CLI ids besides ``Family.value``
    fixed_n: int | None = None
    lattice_coeff: np.ndarray | None = None


FAMILIES = {
    Family.REAL_GRASSMANNIAN: FamilyRow("real", 0.5, False),
    Family.COMPLEX_GRASSMANNIAN: FamilyRow("complex", 0.5, False),
    # generators pi*(R_1 + R_2) and pi*(R_1 - R_2): orthogonal, equal length
    Family.ORIENTED_TWO_PLANE: FamilyRow("real", 0.5, True, ("oriented2",), 2, nk.read_only(
        np.pi * np.array([[1.0, 1.0], [1.0, -1.0]]))),
    Family.CIRCLE_SPHERE: FamilyRow("real", 2.0, True, ("circle",), 1,
                                    nk.read_only(2.0 * np.pi * np.eye(1))),
}


def make_space(family: Family, n: int, m: int) -> SpaceDescriptor:
    """Build the descriptor for one catalog space from its row of
    :data:`FAMILIES`.

    Parameters
    ----------
    family : Family
        A :class:`Family` or its value.  Real and complex Grassmannians
        accept any 1 <= n <= m.  The oriented families are the rank <= 2
        ones: oriented 2-planes need n = 2 (rank 2), and n = 1 gives the
        oriented lines, i.e. the circle/sphere family (rank 1), whose
        descriptor is returned.
    n, m : int
        Subspace dimension and codimension, n <= m, with n + m <= MAX_DIM.

    Raises
    ------
    DomainError
        For families outside the catalog (quaternionic and exceptional
        spaces are unsupported) or invalid (n, m), before any allocation.
    """
    try:
        family = Family(family)
    except ValueError:
        raise DomainError(f"unsupported family {family!r}") from None
    try:
        n, m = operator.index(n), operator.index(m)
    except TypeError:
        raise DomainError(f"n and m must be integers, got (n, m) = ({n!r}, {m!r})") from None
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if m < n:
        raise DomainError(f"catalog convention requires m >= n, got (n, m) = ({n}, {m})")
    if n + m > MAX_DIM:
        raise DomainError(f"need n + m <= {MAX_DIM}, got n + m = {n + m}")
    if family is Family.ORIENTED_TWO_PLANE and n == 1:
        family = Family.CIRCLE_SPHERE
    row = FAMILIES[family]
    if row.fixed_n not in (None, n):
        raise DomainError(f"the {family.value} family needs n = {row.fixed_n}, got n={n}")

    coeff = nk.read_only(np.pi * np.eye(n)) if row.lattice_coeff is None else row.lattice_coeff
    gen_norm = np.sqrt(2.0 * row.metric_scale)  # |R_i| under the family metric
    return SpaceDescriptor(
        family=family,
        n=n,
        m=m,
        rank=n,
        field=row.field,
        metric_scale=row.metric_scale,
        oriented=row.oriented,
        form_j=nk.read_only(np.diag(np.concatenate([np.ones(n), -np.ones(m)]))),
        lattice_coeff=coeff,
        lattice_inv=nk.read_only(np.linalg.inv(coeff)),
        lattice=LatticeBasis(generators=gen_norm * coeff),
    )


CATALOG = (
    (Family.REAL_GRASSMANNIAN, 1, 1),
    (Family.REAL_GRASSMANNIAN, 1, 2),
    (Family.REAL_GRASSMANNIAN, 2, 2),
    (Family.REAL_GRASSMANNIAN, 2, 3),
    (Family.REAL_GRASSMANNIAN, 3, 4),
    (Family.COMPLEX_GRASSMANNIAN, 1, 1),
    (Family.COMPLEX_GRASSMANNIAN, 1, 2),
    (Family.COMPLEX_GRASSMANNIAN, 2, 2),
    (Family.ORIENTED_TWO_PLANE, 2, 2),
    (Family.CIRCLE_SPHERE, 1, 1),
    (Family.CIRCLE_SPHERE, 1, 2),
)


# ---------------------------------------------------------------------------
# membership tests and group constructions


def _form_residual(space: SpaceDescriptor, a: np.ndarray, side: Side) -> np.ndarray:
    """``max |A^H J A - J|`` per slice, J = I (compact) or the signature form.

    J is diagonal with entries +-1, so ``A^H J`` is ``A^H`` with its columns
    scaled, exactly, and the compact side takes no product with J at all.
    """
    if side is Side.COMPACT:
        j, ah = np.eye(space.dim), nk.herm(a)
    else:
        j = space.form_j
        ah = nk.herm(a) * j.diagonal()
    return np.abs(ah @ a - j).max(axis=(-2, -1))


def in_group(space: SpaceDescriptor, a, side: Side) -> bool:
    """Whether ``a``, or every slice of a stack, preserves the defining form
    of the given side.

    Compact side: A^H A = I.  Noncompact side: A^H J A = J for the
    signature (n, m) form.  The oriented families additionally require
    det A = +1.  The tolerance 1e-10 applies relative to ||A||^2, which is
    the natural scale of the residual.  A non-finite entry fails the test.
    """
    tol = 1e-10
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2:] != (space.dim, space.dim):
        raise DomainError(f"expected a {space.dim} x {space.dim} matrix, got {a.shape}")
    if space.field == "real" and not nk.is_real(a):
        if not np.max(np.abs(a.imag)) <= tol:
            return False
        a = a.real
    # residuals of A^H J A - J grow like ||A||^2 * eps; keep the test
    # meaningful for strong boosts without loosening it near the identity
    big = np.abs(a).max(axis=(-2, -1))
    if not np.isfinite(big).all():
        return False
    scaled = tol * np.maximum(1.0, big ** 2)
    ok = _form_residual(space, a, side) <= scaled
    if space.oriented:
        ok &= np.abs(np.linalg.det(a) - 1.0) <= scaled
    return bool(ok.all())


def transitivity_element(space: SpaceDescriptor, y) -> np.ndarray:
    """The standard form-preserving matrix mapping the base point to span([I; Y]).

    ``y`` is the m x n slope block (or a stack of them), space-like iff its
    singular values are below one (else DomainError): one stacked
    :func:`slope_svd` of the validated slope, then :func:`_boost_factors`.
    """
    y = nk.as_matrix(y, dtype=space.dtype)
    if y.shape[-2:] != (space.m, space.n):
        raise DomainError(f"slope block must be {space.m} x {space.n}, got {y.shape}")
    return _boost_factors(space, *slope_svd(space, y))


def _boost_factors(space: SpaceDescriptor, w: np.ndarray, s: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """The boost of the slope ``Y = w[:, :n] diag(s) z^H``, or of a stack,
    from its factors: ``diag(z, w)`` an isotropy element, of which only the
    first n columns of ``w`` are read.

    With ``ch = 1/sqrt((1 - s)(1 + s))``, A is ``k exp(sum_i artanh(s_i)
    B_i) k^-1`` in closed form; A^H J A = J, det A = 1, and A[:, :n] spans
    [I; Y].  DomainError if any |s_i| >= 1.
    """
    if not np.abs(s).max() < 1.0:
        raise DomainError("slope has a singular value >= 1: input is not space-like")
    n = space.n
    ch = 1.0 / np.sqrt((1.0 - s) * (1.0 + s))
    sch = s * ch
    wn = w[..., :, :n]
    wnh = nk.herm(wn)
    a = np.empty(s.shape[:-1] + (space.dim, space.dim), dtype=space.dtype)
    a[..., :, :n] = _flat_frame(space, z, w, ch, sch)
    a[..., :n, n:] = (z * sch[..., None, :]) @ wnh
    a[..., n:, n:] = (wn * (ch - 1.0)[..., None, :]) @ wnh
    diag = np.arange(n, space.dim)
    a[..., diag, diag] += 1.0
    return a


def _flat_frame(space: SpaceDescriptor, z, w, c, s) -> np.ndarray:
    """The frame ``[z diag(c) z^H; w[:, :n] diag(s) z^H]`` (or a stack): the
    image of the base point under ``diag(z, w)`` times a flat element
    whose (i, n+i) planes have diagonal blocks ``c`` and off-diagonal
    blocks ``s``: orthonormal when ``c^2 + s^2 = 1``, the boost's first n
    columns at ``(ch, s ch)``."""
    zh, wn = nk.herm(z), w[..., :, : space.n]
    return np.concatenate(((z * c[..., None, :]) @ zh, (wn * s[..., None, :]) @ zh), axis=-2)


def _block_diag(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(u, v) of two square blocks, or of two stacks of them."""
    n = u.shape[-1]
    m = v.shape[-1]
    out = np.zeros(u.shape[:-2] + (n + m, n + m), dtype=np.promote_types(u.dtype, v.dtype))
    out[..., :n, :n] = u
    out[..., n:, n:] = v
    return out


def special_svd(b: np.ndarray, oriented: bool):
    """Full SVD ``b = u @ diag(s) @ vh`` of an n x m block (n <= m), or of
    each slice of a stack, with both factors pushed into the special group
    when ``oriented``.

    Flipping column j of u together with row j of vh preserves the
    product; a sign mask applies the flip to the slices that need it.
    When m > n a row of vh outside the singular block is free; when m = n
    the leftover sign is absorbed into the last (smallest) value of ``s``,
    which may therefore come back negative.
    """
    u, s, vh = np.linalg.svd(b, full_matrices=True)
    if not oriented:
        return u, s, vh
    n = u.shape[-1]
    m = vh.shape[-1]
    flip = np.where(np.linalg.det(u) < 0, -1.0, 1.0)[..., None]
    u[..., :, n - 1] *= flip
    vh[..., n - 1, :] *= flip
    flip = np.where(np.linalg.det(vh) < 0, -1.0, 1.0)
    if m > n:
        vh[..., m - 1, :] *= flip[..., None]
    else:
        vh[..., n - 1, :] *= flip[..., None]
        s[..., n - 1] *= flip
    return u, s, vh


def slope_svd(space: SpaceDescriptor, y: np.ndarray):
    """SVD ``y = w[:, :n] @ diag(s) @ z^H`` of an m x n slope, or of each slice
    of a stack, with ``diag(z, w)`` an isotropy element; the one space-like
    test is max |s| < 1."""
    u, s, vh = special_svd(nk.herm(y), space.oriented)
    return nk.herm(vh), s, u

