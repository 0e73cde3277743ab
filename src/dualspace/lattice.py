"""Unit-lattice computations on a maximal flat.

The flat is modelled abstractly: a lattice is a set of generator vectors
in some orthonormal coordinate system of the flat together with its Gram
matrix, decoupled from any matrix realization.  This keeps the rank-2
counterexample lattice of the special unitary group SU(3) in scope even
though it has no Grassmannian realization here.

Directions through these functions may be given either as plain
coordinate arrays (with an explicit ``LatticeBasis``) or as
``spaces.FlatCoordinates`` objects, which carry their space's lattice
along.  Coordinates are always with respect to the lattice generators.
The closed-form radius and the region fraction also take a stack of
directions, one per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import DomainError

_REL_TIE = 1e-12


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Generators of a full-rank lattice in an inner-product space.

    ``generators`` holds one generator per column, expressed in orthonormal
    coordinates of the flat.  Computed from them once: ``gram``, the matrix
    of pairwise inner products, its smallest eigenvalue ``eigmin``,
    ``alpha2``, the mean squared generator length ``mean(diag(gram))``,
    which is the common squared length alpha^2 of the closed-form cut
    radius, and ``orthonormal``, whether the generators are orthogonal and
    of equal length (to 1e-10 relative; see :func:`is_orthonormal`).
    """

    generators: np.ndarray
    gram: np.ndarray = field(init=False)
    eigmin: float = field(init=False)
    alpha2: float = field(init=False)
    orthonormal: bool = field(init=False)

    def __post_init__(self):
        gens = np.array(self.generators, dtype=np.float64)
        if gens.ndim != 2 or gens.shape[0] != gens.shape[1]:
            raise DomainError("generators must form a square coordinate matrix")
        object.__setattr__(self, "generators", gens)
        gram = gens.T @ gens
        gram = 0.5 * (gram + gram.T)
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 0.0:
            raise DomainError("lattice Gram matrix must be positive definite")
        alpha2 = float(np.mean(np.diag(gram)))
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "eigmin", float(eigs[0]))
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "orthonormal", bool(
            np.max(np.abs(gram - alpha2 * np.eye(len(gram)))) <= 1e-10 * alpha2))

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    def norms(self) -> np.ndarray:
        return np.sqrt(np.diag(self.gram))


@dataclass(frozen=True)
class CutRadiusResult:
    """Cut radius along a direction, with the lattice vector attaining it.

    ``radius`` equals <A,A> / (2 |<X,A>|) at A = sum_i minimizer[i] * A_i
    for the direction X normalized to unit length.
    """

    radius: float
    minimizer: tuple
    used_closed_form: bool


def _coords_array(coords, basis, stack: bool = False):
    """Accept FlatCoordinates-like objects or raw arrays plus a basis; one
    direction, or with ``stack`` rows of shape (..., rank)."""
    if basis is None:
        space = getattr(coords, "space", None)
        if space is None or getattr(space, "lattice", None) is None:
            raise DomainError("no lattice basis supplied and none attached to the coordinates")
        basis = space.lattice
    x = np.asarray(getattr(coords, "coords", coords), dtype=np.float64)
    if x.ndim < 1 or (x.ndim != 1 and not stack) or x.shape[-1] != basis.rank:
        raise DomainError(f"expected {basis.rank} flat coordinates, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite flat coordinates")
    return x, basis


def is_orthonormal(basis: LatticeBasis) -> bool:
    """Whether the given generators are orthogonal and of equal length: the
    verdict ``basis.orthonormal`` computed with the basis.

    The test applies to the generators as given; recognizing a lattice that
    only becomes orthonormal after a change of Z-basis would need a
    reduction step and is out of scope.
    """
    return basis.orthonormal


def _norm2(x, gram):
    """<x, x> under the Gram matrix, per row of a stack."""
    return np.sum((x @ gram) * x, axis=-1)


def _unit_direction(x, gram):
    # scaled to max |x_i| = 1 first, so the Gram norm of a finite nonzero x
    # neither overflows nor underflows
    scale = np.abs(x).max(axis=-1, keepdims=True)
    if not np.all(scale > 0.0):
        raise DomainError("zero flat direction")
    x = x / scale
    return x / np.sqrt(_norm2(x, gram))[..., None]


def cut_radius_closed(coords, basis: LatticeBasis = None):
    """Cut radius along a flat direction, by the orthonormal-lattice formula;
    an array of radii for a stack of directions.

    For a unit direction X this is alpha^2 / (2 max_i |<X, A_i>|) where
    alpha is the common generator length.  The input direction may have any
    positive length; only its direction enters.

    Raises
    ------
    DomainError
        If the lattice is not orthonormal (use :func:`cut_radius_brute`)
        or a direction is zero.
    """
    x, basis = _coords_array(coords, basis, stack=True)
    if not is_orthonormal(basis):
        raise DomainError("closed-form cut radius needs an orthonormal lattice")
    return nk.per_slice(_closed_form(x, basis)[0])


def _closed_form(x, basis: LatticeBasis):
    """(radius, |<X, A_i>| for every generator A_i) on an orthonormal
    lattice, per row of a stack of directions X; the generator attaining
    the radius is the argmax of the second."""
    c = np.abs(_unit_direction(x, basis.gram) @ basis.gram)
    return basis.alpha2 / (2.0 * c.max(axis=-1)), c


def _l1_shell(rank: int, s: int):
    """Integer vectors with L1 norm exactly s, in deterministic order."""
    if rank == 1:
        if s == 0:
            yield (0,)
        else:
            yield (-s,)
            yield (s,)
        return
    for v in range(-s, s + 1):
        for rest in _l1_shell(rank - 1, s - abs(v)):
            yield (v,) + rest


def cut_radius_brute(coords, basis: LatticeBasis = None) -> CutRadiusResult:
    """Cut radius by exact minimization of <A,A> / (2|<X,A>|) over the lattice.

    Nonzero lattice vectors are enumerated in shells of increasing L1 norm.
    With X normalized, Cauchy-Schwarz gives value >= |A|/2, so the search
    can stop once every vector in the current shell is longer than twice
    the best value found; |A|^2 >= eigmin(gram) |m|_2^2 >= eigmin |m|_1^2 / r
    turns that into a shell bound.  Ties are broken by lexicographic order
    of the integer coefficient vector, making the minimizer reproducible.
    """
    x, basis = _coords_array(coords, basis)
    gram = basis.gram
    r = basis.rank
    x = _unit_direction(x, gram)
    c = gram @ x
    if float(np.max(np.abs(c))) < 1e-14:
        raise DomainError("direction is orthogonal to the whole lattice (infinite cut radius)")

    eigmin = basis.eigmin
    best = np.inf
    best_m = None
    s = 1
    while True:
        if best_m is not None and s * np.sqrt(eigmin / r) / 2.0 > best * (1.0 + _REL_TIE):
            break
        for m in _l1_shell(r, s):
            mv = np.array(m, dtype=np.float64)
            d = abs(float(c @ mv))
            if d < 1e-14:
                continue
            val = float(mv @ gram @ mv) / (2.0 * d)
            if val < best * (1.0 - _REL_TIE):
                best, best_m = val, m
            elif val <= best * (1.0 + _REL_TIE) and best_m is not None and m < best_m:
                best_m = m
        s += 1
    return CutRadiusResult(radius=best, minimizer=best_m, used_closed_form=False)


def cut_radius(coords, basis: LatticeBasis = None) -> CutRadiusResult:
    """Cut radius by the closed form when available, brute force otherwise."""
    x, basis = _coords_array(coords, basis)
    radius, minimizer = _cut_radii(x[None], basis, minimizers=True)
    return CutRadiusResult(radius=float(radius[0]), minimizer=tuple(minimizer[0].tolist()),
                           used_closed_form=basis.orthonormal)


def _cut_radii(x, basis: LatticeBasis, minimizers: bool):
    """Radii of a stack of directions, one per row, and, with
    ``minimizers``, the integer coefficients of the lattice vectors
    attaining them, one row each (else None): every row from one vectorised
    closed form on an orthonormal lattice, each row by the brute-force
    search otherwise.  The one place that chooses."""
    if not basis.orthonormal:
        found = [cut_radius_brute(row, basis) for row in x]
        return (np.array([res.radius for res in found]),
                np.array([res.minimizer for res in found], dtype=np.int64) if minimizers else None)
    radius, c = _closed_form(x, basis)
    if not minimizers:
        return radius, None
    i0 = np.argmax(c, axis=-1)
    return radius, -np.equal.outer(i0, np.arange(basis.rank)).astype(np.int64)


def region_fraction(coords, basis: LatticeBasis = None):
    """Length of a flat vector as a fraction of the cut radius along its
    own direction; 0 for the zero vector.  A stack of vectors gives an
    array, with the radii of all rows found at once (see :func:`cut_radius`)."""
    x, basis = _coords_array(coords, basis, stack=True)
    nrm = np.sqrt(np.maximum(_norm2(x, basis.gram), 0.0))
    hit = nrm > 0.0
    frac = np.zeros(nrm.shape)
    if hit.any():
        frac[hit] = nrm[hit] / _cut_radii(x[hit], basis, minimizers=False)[0]
    return nk.per_slice(frac)


def in_half_region(coords, fraction: float, basis: LatticeBasis = None):
    """Whether a flat vector (or each row of a stack) lies strictly inside
    ``fraction`` of the cut radius.

    The open star-shaped region { tX : |X| = 1, t < fraction * t0(X) } is
    where the embeddings of this library take their values (fraction 1/2,
    or 1/4 for the stereographic one on the sphere).  The zero vector is
    inside for every fraction.
    """
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must be in (0, 1], got {fraction}")
    return region_fraction(coords, basis) < fraction


def su3_lattice() -> LatticeBasis:
    """Integral lattice of SU(3) on its maximal torus (rank 2).

    This is the hexagonal lattice spanned by two vectors of equal length
    2*pi meeting at 120 degrees, with Gram matrix 2*pi^2 * [[2, -1], [-1, 2]].
    It is the standard counterexample: a full-rank unit lattice that is not
    orthonormal, so the closed-form cut radius does not apply to it.
    """
    alpha = 2.0 * np.pi
    gens = alpha * np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])
    return LatticeBasis(generators=gens)
