"""Unit-lattice computations on a maximal flat.

The flat is modelled abstractly: a lattice is a set of generator vectors
in some orthonormal coordinate system of the flat together with its Gram
matrix, decoupled from any matrix realization.  This keeps the rank-2
counterexample lattice of the special unitary group SU(3) in scope even
though it has no Grassmannian realization here.

Directions through these functions are plain coordinate arrays with
respect to the generators of an explicit ``LatticeBasis``, one direction
or a stack of them, one per row.  :func:`cut_radius` is the one place
that chooses between the closed form and the brute-force search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import DomainError

_REL_TIE = 1e-12
# the brute walk scores at most this many (direction, lattice vector) values
# at once, so a stack of MAX_SAMPLES directions walks in bounded memory
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Generators of a full-rank lattice in an inner-product space.

    ``generators`` holds one generator per column, expressed in orthonormal
    coordinates of the flat, as a read-only copy of the caller's array.
    Computed from them once: ``gram``, the matrix of pairwise inner
    products (read-only), its smallest eigenvalue ``eigmin``, ``alpha2``,
    the mean squared generator length ``mean(diag(gram))``, which is the
    common squared length alpha^2 of the closed-form cut radius, and
    ``orthonormal``, whether the generators are orthogonal and of equal
    length (to 1e-10 relative).  That verdict is for the generators as
    given: recognizing a lattice that only becomes orthonormal after a
    change of Z-basis would need a reduction step and is out of scope.
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
        object.__setattr__(self, "generators", nk.read_only(gens))
        gram = gens.T @ gens
        gram = nk.read_only(0.5 * (gram + gram.T))
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
    for the direction X normalized to unit length.  ``visited`` is the
    number of lattice vectors the brute-force search scored, 0 for the
    closed form.
    """

    radius: float
    minimizer: tuple
    used_closed_form: bool
    visited: int


def _coords_array(coords, basis: LatticeBasis):
    """Coordinates in ``basis`` as a float array: one direction, or a stack
    of them as rows of shape (..., rank)."""
    x = np.asarray(coords, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] != basis.rank:
        raise DomainError(f"expected {basis.rank} flat coordinates, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite flat coordinates")
    return x


def _norm2(x, gram):
    """<x, x> under the Gram matrix, per row of a stack."""
    return ((x @ gram) * x).sum(axis=-1)


def _unit_direction(x, gram):
    # scaled to max |x_i| = 1 first, so the Gram norm of a finite nonzero x
    # neither overflows nor underflows
    scale = np.abs(x).max(axis=-1, keepdims=True)
    if not np.all(scale > 0.0):
        raise DomainError("zero flat direction")
    x = x / scale
    return x / np.sqrt(_norm2(x, gram))[..., None]


def cut_radius_closed(coords, basis: LatticeBasis):
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
    x = _coords_array(coords, basis)
    if not basis.orthonormal:
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


def _dot(a, b):
    """Sum of a * b over the last axis, broadcast over the others, term by
    term in a fixed order: a row gets the same bits alone or in any stack,
    which a BLAS product does not promise."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _inner_products(x, gram):
    """<X, A_i> for every generator A_i, with X the unit direction along each
    row of x, scaled as in :func:`_unit_direction` but with every sum in a
    fixed order (:func:`_dot`)."""
    scale = np.abs(x).max(axis=-1, keepdims=True)
    if not scale.all():
        raise DomainError("zero flat direction")
    y = x / scale
    c = _dot(y[:, None, :], gram)
    c /= np.sqrt(_dot(c, y))[:, None]
    return c


def _brute_walk(x, basis: LatticeBasis, minimizer: bool = False):
    """The brute-force search for a stack of directions, one per row, in
    one walk over the L1 shells.

    Each shell is generated once, and its values |A|^2 / (2|<X, A>|) are
    scored for every row still searching as one (rows x vectors) matrix,
    at most ``_BLOCK`` entries at a time.  A row retires once the shell
    bound passes its best value.  Returns the radii and the number of
    lattice vectors scored per row; with ``minimizer``, for a stack of one
    direction, also the coefficients of the lexicographically smallest
    vector within the tie of its radius, picked from every value scored.
    """
    gram, r = basis.gram, basis.rank
    c = _inner_products(x, gram)
    if (np.abs(c).max(axis=-1) < 1e-14).any():
        raise DomainError("direction is orthogonal to the whole lattice (infinite cut radius)")

    best, visited = np.empty(len(x)), np.empty(len(x), dtype=np.int64)
    live, best_live = np.arange(len(x)), np.full(len(x), np.inf)  # the rows still searching
    shells, scored = [], []  # with minimizer: each shell and its values
    step, half_gram = math.sqrt(basis.eigmin / r) / 2.0, 0.5 * gram
    total, s = 0, 1
    while live.size:
        m = np.array(list(_l1_shell(r, s)), dtype=np.float64)
        half = _norm2(m, half_gram)  # |A|^2 / 2, so a value is half / |<X, A>|
        per = max(1, _BLOCK // len(m))
        for lo in range(0, live.size, per):
            d = np.abs(_dot(c[lo:lo + per, None, :], m))
            val = np.divide(half, d, out=np.full(d.shape, np.inf), where=d >= 1e-14)
            np.minimum(best_live[lo:lo + per], val.min(axis=-1), out=best_live[lo:lo + per])
        if minimizer:
            shells.append(m)
            scored.append(val[0])
        total += len(m)
        s += 1
        keep = s * step <= best_live * (1.0 + _REL_TIE)
        if keep.all():
            continue
        if not keep.any():  # the last rows retire together
            best[live], visited[live] = best_live, total
            break
        gone = ~keep
        best[live[gone]], visited[live[gone]] = best_live[gone], total
        live, c, best_live = live[keep], c[keep], best_live[keep]
    if not minimizer:
        return best, visited
    tied = np.concatenate(shells)[np.concatenate(scored) <= best[0] * (1.0 + _REL_TIE)]
    return best, visited, np.array(min(tied.tolist()), dtype=np.int64)  # lexicographic min


def cut_radius_brute(coords, basis: LatticeBasis):
    """Cut radius by exact minimization of <A,A> / (2|<X,A>|) over the lattice;
    an array of radii for a stack of directions, all from one walk.

    Nonzero lattice vectors are enumerated in shells of increasing L1 norm.
    With X normalized, Cauchy-Schwarz gives value >= |A|/2, so the search
    along X can stop once every vector in the current shell is longer than
    twice the best value found; |A|^2 >= eigmin(gram) |m|_2^2 >=
    eigmin |m|_1^2 / r turns that into a shell bound.  The radius is the
    least value met; the minimizer is the lexicographically smallest
    integer coefficient vector whose value is within a relative 1e-12 of
    it, so neither depends on the order of the walk.  ``visited`` counts
    the lattice vectors scored.
    """
    x = _coords_array(coords, basis)
    if x.ndim > 1:
        return _brute_walk(x.reshape(-1, basis.rank), basis)[0].reshape(x.shape[:-1])
    radius, visited, minimizer = _brute_walk(x[None], basis, minimizer=True)
    return CutRadiusResult(radius=float(radius[0]), minimizer=tuple(minimizer.tolist()),
                           used_closed_form=False, visited=int(visited[0]))


def cut_radius(coords, basis: LatticeBasis):
    """Cut radius by the closed form when the lattice is orthonormal, brute
    force otherwise: a :class:`CutRadiusResult` for one direction, and for
    a stack of directions the array of radii, from one vectorised closed
    form or one walk."""
    x = _coords_array(coords, basis)
    if not basis.orthonormal:
        return cut_radius_brute(x, basis)
    if x.ndim > 1:
        return _closed_form(x, basis)[0]
    radius, c = _closed_form(x[None], basis)
    minimizer = [0] * basis.rank
    minimizer[int(np.argmax(c[0]))] = -1
    return CutRadiusResult(radius=float(radius[0]), minimizer=tuple(minimizer),
                           used_closed_form=True, visited=0)


def region_fraction(coords, basis: LatticeBasis):
    """Length of a flat vector as a fraction of the cut radius along its
    own direction; 0 for the zero vector.  A stack of vectors gives an
    array, with the radii of all rows found at once (see :func:`cut_radius`)."""
    x = _coords_array(coords, basis)
    nrm = np.sqrt(np.maximum(_norm2(x, basis.gram), 0.0))
    hit = nrm > 0.0
    frac = np.zeros(nrm.shape)
    if hit.any():
        frac[hit] = nrm[hit] / cut_radius(x[hit], basis)
    return nk.per_slice(frac)


def in_half_region(coords, fraction: float, basis: LatticeBasis):
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
