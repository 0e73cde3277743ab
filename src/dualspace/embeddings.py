"""The embeddings of a noncompact symmetric space into its compact dual.

Four maps are provided, all landing in the compact space of the same
descriptor and all agreeing with each other on the Grassmannian families:

* ``p_embed``  -- realize the coset as a space-like subspace (act on the
  base point and keep the column span);
* ``g_embed``  -- factor the group element through the parabolic subgroup
  by QR; the orthogonal/unitary factor represents the image coset;
* ``f_embed``  -- pull the coset back to the tangent space, contract the
  flat coordinates into the quarter-lattice box, and push forward along
  the compact flat, a direct sum of plane rotations, whose frame is
  written down in closed form, as a coset built from slope factors does;
* ``b_embed_rank1`` -- the stereographic formula on the rank-1 flat of the
  circle/sphere family, the one place where it differs from ``f_embed``;
  it and f's rank-1 profile ``f_flat_rank1`` are one kernel at two scales.

``embed`` dispatches to p, g or f by id.  The four take a noncompact
``GroupElement`` of the space asked for and refuse anything else with
DomainError; a ``SubspacePoint`` goes to the logs instead.

A ``GroupElement`` may hold a stack of cosets along leading axes; every
map then embeds the whole stack at once and returns a stack of points,
with each check (form, rank, boundary) run once over the stack.  One
coset is a stack with no leading axes, so it runs the same code.

Each frame, slope and image of a coset is computed once and kept on the
immutable object that owns it: a coset keeps its point, shared by p and
f, and the g and f images ``embed`` gives of it, and a point keeps its
frame and its slope's SVD, shared by the noncompact log, f and
``space_like``.  The compact side reads the same SVD: the
factors of the negated slope differ from it only by signs.  A coset
built from a slope SVD (``coset_from_factors``: slope input and random
draws) keeps on its point the frame in closed form and that SVD, so its
slope is never formed; any other point reads its frame by an SVD and its
slope off that frame.  The g and f images keep the frames they are built
with, orthonormal by construction.  Every map refuses a coset of another
space, so what a coset keeps is the same whichever space asks first.

The sign convention of the flat contraction is chosen so that p, g and f
produce literally the same subspaces: a boost of rapidity t along a flat
direction lands at the rotation angle theta with tan(theta) = -tanh(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import DomainError, NumericalError
from .spaces import (
    FlatCoordinates,
    Side,
    SpaceDescriptor,
    SubspacePoint,
    TangentVector,
    _block_diag,
    _boost_factors,
    _built,
    _fill,
    _flat_frame,
    in_group,
    slope_svd,
)

# the library's only space-like tolerance: the logs and f refuse slope
# singular values in [1 - 1e-13, 1), where artanh amplifies roundoff
BOUNDARY_GUARD = 1e-13
# the largest double below 1/4, the bound of h_flat's open quarter box
_QUARTER_INSIDE = np.nextafter(0.25, 0.0)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A form-preserving matrix representing a coset point, or a stack of
    them.  Its matrix is read-only, as every value's arrays are
    (``spaces._fill``)."""

    space: SpaceDescriptor
    side: Side
    a: np.ndarray

    def __post_init__(self):
        _fill(self, a=np.array(nk.as_matrix(self.a, dtype=self.space.dtype)))  # a copy

    def _check(self):
        if not in_group(self.space, self.a, self.side):
            raise DomainError("matrix does not preserve the defining form of this side")

    def point(self) -> SubspacePoint:
        """The image of the base point, built once and shared by every reader."""
        return _kept(self, "_point", lambda: _built(
            SubspacePoint, space=self.space, rep=self.a[..., : self.space.n]))


def coset_from_factors(space: SpaceDescriptor, w: np.ndarray, s: np.ndarray,
                       z: np.ndarray) -> GroupElement:
    """The coset of the slope ``w[:, :n] diag(s) z^H`` (or a stack) from
    factors in :func:`slope_svd`'s conventions, by :func:`_boost_factors`,
    built together with the point it keeps.  That point keeps the frame
    ``[z C z^H; w[:, :n] S z^H]``, ``C = 1/sqrt(1 + s^2)``, ``S = s C``, and
    the factors as its slope SVD.  It takes ownership of ``w``, ``s`` and
    ``z``, which it makes read-only."""
    a = _boost_factors(space, w, s, z)
    c = 1.0 / np.sqrt(1.0 + s * s)
    point = _built(SubspacePoint, space=space, rep=a[..., : space.n],
                   basis=_flat_frame(space, z, w, c, s * c),
                   _slope_svd=tuple(map(nk.read_only, (w, s, z))))
    return _built(GroupElement, space=space, side=Side.NONCOMPACT, a=a, _point=point)


def _kept(obj, name: str, compute):
    """``compute()``, stored on the immutable ``obj`` under ``name`` on first
    use and read back after: a frame or slope of a coset is computed once
    for every map and check that reads it.  What it stores is read-only
    already, as every array a value holds is: a value, or the slope SVD
    :func:`_slope_factors` freezes.  An exception is not stored, so a
    refused point raises again on the next read."""
    kept = obj.__dict__
    if name not in kept:
        kept[name] = compute()
    return kept[name]


def h_flat(coords: FlatCoordinates) -> FlatCoordinates:
    """Contract noncompact flat coordinates into the open quarter-lattice box.

    Acts coordinate-wise in lattice units as x -> -arctan(tanh(pi x)) / pi,
    the sign-flipped odd increasing squash, with range (-1/4, 1/4).  The
    quarter box is half of the half-lattice box where the cut locus sits,
    which is what keeps the resulting embedding inside the space-like
    region.  tanh saturates to 1.0 in double precision around |x| ~ 6,
    beyond the range reachable from any admissible coset (the boundary
    guard caps lattice coordinates near 4.9); the result is clipped there
    so the image stays open.
    """
    out = np.arctan(np.tanh(np.pi * coords.coords)) / np.pi
    out = np.minimum(np.maximum(out, -_QUARTER_INSIDE), _QUARTER_INSIDE)
    return _built(FlatCoordinates, space=coords.space, coords=-out)


def _rank1_profile(t, k: float):
    """The rank-1 flat profile ``k*arctan(tanh(t/k))``, a float for a scalar
    t, an array over an array.  |tanh(t/k)| >= 1 - ``BOUNDARY_GUARD`` raises
    NumericalError: tanh rounds to 1 soon after, and the angle to the wall."""
    t = np.asarray(t, dtype=np.float64)
    if not np.isfinite(t).all():
        raise DomainError("need a finite flat parameter")
    h = np.tanh(t / k)
    if (np.abs(h) >= 1.0 - BOUNDARY_GUARD).any():
        raise NumericalError("flat parameter too close to the boundary for double precision")
    return nk.per_slice(k * np.arctan(h))


def b_embed_rank1(t):
    """Stereographic embedding of the rank-1 flat, in arc-length units.

    Maps the boost parameter t to the angle 2*arctan(tanh(t/2)), with range
    (-pi/2, pi/2): a quarter of the closed geodesic of length 4*pi used by
    the circle/sphere family.  |t| beyond about 30.6 raises NumericalError
    (:func:`_rank1_profile`).
    """
    return _rank1_profile(t, 2.0)


def f_flat_rank1(t):
    """Flat profile of ``f_embed`` on the circle/sphere family,
    4*arctan(tanh(t/4)).

    Same arc-length units and orientation as :func:`b_embed_rank1`, so the
    two are directly comparable: this one has range (-pi, pi), twice the
    stereographic range, and the two differ at every t != 0.  |t| beyond
    about 61.3 raises NumericalError (:func:`_rank1_profile`).
    """
    return _rank1_profile(t, 4.0)


def space_like(space: SpaceDescriptor, point: SubspacePoint):
    """Whether the form is positive definite on the subspace: every slope
    singular value below 1, no tolerance, from the very slope SVD the logs
    and f read, so their verdicts agree on every point.  Per slice of a stack;
    a stack holding a point that is not a graph over the base point is
    space-like nowhere."""
    try:
        _, sig, _ = _slope_factors(space, point)
    except DomainError:
        return nk.per_slice(np.zeros(point.rep.shape[:-2], dtype=bool))
    return nk.per_slice(np.abs(sig).max(axis=-1) < 1.0)


def _own_coset(space: SpaceDescriptor, g, name: str):
    """DomainError unless ``g`` is a noncompact :class:`GroupElement` of
    ``space``'s family and shape: an image computed under another space
    would be mislabelled, and kept on ``g`` for every later reader."""
    if not isinstance(g, GroupElement) or g.side is not Side.NONCOMPACT:
        raise DomainError(f"{name} expects a noncompact coset representative")
    if (g.space.family, g.space.n, g.space.m) != (space.family, space.n, space.m):
        raise DomainError(f"{name} on {space.label()} got a coset of {g.space.label()}")


def p_embed(space: SpaceDescriptor, g: GroupElement) -> SubspacePoint:
    """Space-like realization: the image of the base point under the coset."""
    _own_coset(space, g, "p_embed")
    return g.point()


def g_embed(space: SpaceDescriptor, g: GroupElement) -> GroupElement:
    """Parabolic factorization: the compact factor Q of A = QR.

    R is upper triangular, so it lies in the parabolic (block
    upper-triangular) subgroup and A and Q represent the same coset of it.
    Well defined on cosets: right-multiplying A by an isotropy element only
    changes the result by right isotropy multiplication, so the image
    subspace is unchanged.
    """
    _own_coset(space, g, "g_embed")
    q, _ = nk.phase_fixed_qr(g.a)
    return _built(GroupElement, space=space, side=Side.COMPACT, a=q)


def embed(space: SpaceDescriptor, which: str, g: GroupElement) -> SubspacePoint:
    """Image subspace of a noncompact coset under embedding ``which``: "p",
    "g" or "f", computed once and kept on the coset, as its point is, for
    every later call.  The g image keeps a copy of the first n columns of
    the unitary factor as its frame, orthonormal by construction, so the
    whole factor is not held."""
    _own_coset(space, g, "embed")  # before a kept image is read
    if which == "p":
        return p_embed(space, g)
    if which == "g":
        def g_image():
            frame = g_embed(space, g).a[..., : space.n].copy()
            return _built(SubspacePoint, space=space, rep=frame, basis=frame)
        return _kept(g, "_g_image", g_image)
    if which == "f":
        return _kept(g, "_f_image", lambda: f_embed(space, g))
    raise DomainError(f"unknown embedding id {which!r}")


def _slope_block(space: SpaceDescriptor, point: SubspacePoint) -> np.ndarray:
    """Slope Y with span([I; Y]) = span(point), read off the stored frame,
    whose top block has singular values >= 1/sqrt(2) if space-like; per
    slice of a stack, DomainError if any slice is not a graph."""
    n = space.n
    top = point.basis[..., :n, :]
    if (np.linalg.svd(top, compute_uv=False)[..., -1] <= 1e-13).any():
        raise DomainError("subspace is not a graph over the base point")
    return point.basis[..., n:, :] @ np.linalg.inv(top)


def _slope_factors(space: SpaceDescriptor, point: SubspacePoint):
    """:func:`slope_svd` of the point's slope, taken once per point and read
    by the logs of both sides, f and :func:`space_like` alike, read-only."""
    return _kept(point, "_slope_svd", lambda: tuple(
        map(nk.read_only, slope_svd(space, _slope_block(space, point)))))


def _checked_slope_svd(space: SpaceDescriptor, point: SubspacePoint):
    """Slope SVD of a space-like graph point, with boundary classification.

    The subspace is space-like exactly when every slope singular value is
    below one; values in [1 - 1e-13, 1) are mathematically fine but are
    rejected rather than clamped, since artanh would amplify roundoff past
    any useful accuracy there.  A stack is refused if any slice is.
    """
    w, sig, z = _slope_factors(space, point)
    top = float(np.max(np.abs(sig)))
    if top >= 1.0:
        raise DomainError("point is not space-like")
    if top >= 1.0 - BOUNDARY_GUARD:
        raise NumericalError("coset too close to the boundary for double precision")
    return w, sig, z


def _negated_factors(space: SpaceDescriptor, w: np.ndarray, sig: np.ndarray):
    """The factors ``(w', sig')`` of :func:`slope_svd` of ``-Y`` from those
    ``(w, sig, z)`` of ``Y``, with the same ``z``: ``-Y = (-w) diag(sig)
    z^H``.  On the oriented families with m odd, ``det(-w) = -1``, so
    :func:`special_svd`'s rule flips the last column of ``w'`` back, and
    when m = n, where that column is in the singular block, also negates
    the last value of ``sig'``."""
    w = -w
    if space.oriented and space.m % 2:
        w[..., :, -1] *= -1.0
        if space.m == space.n:
            sig = sig.copy()
            sig[..., -1] *= -1.0
    return w, sig


def _log_flat(space: SpaceDescriptor, point: SubspacePoint, side: Side):
    """Isotropy blocks (z, w) and lattice-unit flat coordinates h of the log
    of a point (or stack) on either side, log = k h.matrix(side) k^-1 with
    k = diag(z, w), read off the point's one slope SVD.

    Noncompact side: the slope's singular values are hyperbolic tangents of
    the flat coefficients.  Compact side: they are tangents, and since the
    slope of a flat point is minus the tangent of its angle, the factors
    of the negated slope are read off the same SVD by a sign change.  The
    coefficients, in R_i coordinates, go to lattice units through the
    space's ``lattice_inv``, taken once when the space is built, so no
    linear system is solved per point.
    """
    if side is Side.NONCOMPACT:
        w, sig, z = _checked_slope_svd(space, point)
        cart = np.arctanh(sig)
    else:
        w, sig, z = _slope_factors(space, point)
        w, sig = _negated_factors(space, w, sig)
        cart = np.arctan(sig)
    return z, w, _built(FlatCoordinates, space=space, coords=cart @ space.lattice_inv.T)


def _log(space: SpaceDescriptor, point: SubspacePoint, side: Side) -> TangentVector:
    """The log k h.matrix(side) k^-1 of a point (or stack) on either side."""
    z, w, coords = _log_flat(space, point, side)
    k = _block_diag(z, w)
    return _built(TangentVector, space=space, side=side, x=k @ coords.matrix(side) @ nk.herm(k))


def log_noncompact(space: SpaceDescriptor, point: SubspacePoint) -> TangentVector:
    """Tangent vector X with exp(X) . o = point, on the noncompact side.

    Computed from the singular value decomposition of the slope block: the
    singular values are hyperbolic tangents of the flat coefficients and
    the singular bases assemble the isotropy rotation.

    Raises
    ------
    DomainError
        If the point is not space-like.
    NumericalError
        If a singular value of the slope exceeds 1 - 1e-13; such cosets
        are rejected rather than clamped.
    """
    return _log(space, point, Side.NONCOMPACT)


def log_compact(space: SpaceDescriptor, point: SubspacePoint) -> TangentVector:
    """Tangent vector X with exp(X) . o = point, on the compact side.

    Valid on the chart where the point is a graph over the base point, in
    particular everywhere the embeddings of this module take values.  Flat
    coefficients are arctangents of the slope's singular values; the sign
    convention (slope of a flat point is minus the tangent of its angle)
    is handled by the factors of the negated slope, read off the point's
    slope SVD.
    """
    return _log(space, point, Side.COMPACT)


def point_flat_coords(space: SpaceDescriptor, point: SubspacePoint, side: Side) -> FlatCoordinates:
    """Lattice-unit flat coordinates of the log of a point, on either side."""
    return _log_flat(space, point, side)[2]


def f_embed(space: SpaceDescriptor, g: GroupElement) -> SubspacePoint:
    """Cut-locus embedding of a noncompact coset: the contracted noncompact
    log, pushed forward along the compact flat.

    The pipeline takes the noncompact log of the coset's point, applies
    the coordinate-wise contraction on the flat in lattice units, rotates
    back with the same isotropy element, and lands on the compact side.
    The compact flat is a direct sum of rotations of the (i, n+i) planes,
    so with the slope SVD ``Y = w S z^H`` and the contracted angles Theta
    the image is spanned by ``[z cos(Theta) z^H ; -w[:, :n] sin(Theta) z^H]``
    (:func:`_flat_frame`), the first n columns of the compact exponential,
    with no exponential taken; that frame is orthonormal by construction
    and is kept as the image's frame.  The image always lies strictly
    inside half of the cut radius.  A slope singular value >= 1 - 1e-13
    raises NumericalError, and so does one >= 1: the coset's point is
    space-like, so that reading is roundoff.  A point's own domain verdict
    is :func:`log_noncompact`'s.
    """
    _own_coset(space, g, "f_embed")
    try:
        z, w, coords = _log_flat(space, g.point(), Side.NONCOMPACT)
    except DomainError as exc:
        raise NumericalError(f"coset too close to the boundary: {exc}") from exc
    theta = h_flat(coords).cartan_coords()
    rep = _flat_frame(space, z, w, np.cos(theta), -np.sin(theta))
    return _built(SubspacePoint, space=space, rep=rep, basis=rep)

