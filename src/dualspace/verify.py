"""Executable property suites with reproducible seeds.

Each check draws its whole batch of samples at once from seeded
streams, runs the batch through the stacked kernels (one SVD, QR or
exponential per stage, not per sample), evaluates a pointwise identity
per sample, and returns a :class:`PropertyReport` with the worst residual
(or margin) seen and, in ``details["worst_index"]``, the index of the
sample that gave it.  Aggregation is worst-case, not mean: the identities
under test are exact, so a single bad sample is a failure, and a NaN is a
failure and the worst.  ``failures`` counts failing samples, and the worst
sample is a failing one whenever any fails; :func:`_report` builds every
report by this rule.  :func:`_checked` refuses a sample count that is
not an integer of at least one, so no report passes over an empty batch,
and a seed that is not a non-negative integer, so every report is
reproducible from (property name, seed, samples); a bool is neither.

Each drawn quantity has its own stream, :func:`_stream` of the seed and
the quantity's key, drawn one record per sample, so sample i of a run is
sample i of every longer run with the same seed; a draw that rejects
candidates keeps the first ones accepted (:func:`_first_accepted`).

The triple, equivariance, round-trip and image checks of one space read
one opening draw, :func:`_shared_draw`: the slope factors, from which the
image check builds its cosets, and, when the first of the others reads
it, the isotropy stack ``k`` and the form-checked stack ``[k a, a]`` of
moved and unmoved cosets, which keeps its point, that point's frame and
slope SVD, and its g and f images.  Only the draw of the last ``(space,
samples, seed)`` is kept, and only what is a function of it, so each
report is the one the check gives alone, in any order of calls, and
:func:`run_suite` clears it once a space's checks have run.

:data:`CLAIMS` is the one table of which property is claimed on which
family; :func:`run_suite` and the CLI read it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numkernel as nk
from .embeddings import (
    GroupElement,
    b_embed_rank1,
    coset_from_factors,
    embed,
    log_noncompact,
    point_flat_coords,
    space_like,
)
from .errors import DomainError, NumericalError
from .lattice import cut_radius_brute, cut_radius_closed, in_half_region
from .spaces import (
    CATALOG,
    FAMILIES,
    Family,
    FlatCoordinates,
    Side,
    SpaceDescriptor,
    SubspacePoint,
    _boost_factors,
    _built,
    make_space,
    same_orientation,
)

DEFAULT_SEED = 0x5EED


@dataclass
class PropertyReport:
    """Outcome of one property check over a sample batch."""

    property_name: str
    samples: int
    failures: int
    worst_residual: float
    seed: int
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "samples": self.samples,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# seeded sampling helpers

# the keys of the streams, one per drawn quantity: slope values, slope
# frames, k, flat directions, stereographic t, and each kind of triangle
_VALUES, _FRAMES, _ISOTROPY, _FLATS, _STEREO, _SPHERES, _HYPERBOLAS = range(7)


def _stream(seed: int, quantity: int) -> np.random.Generator:
    """The stream of one drawn quantity at ``seed``, the one place the
    library opens a generator: it depends on ``(seed, quantity)`` alone, so
    opening it twice gives the same numbers."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(quantity,)))


def random_orthogonal(rng, k, complex_: bool = False, special: bool = False,
                      size: int | None = None) -> np.ndarray:
    """Haar random orthogonal/unitary matrix of order ``k``, or, for a tuple
    ``k``, block diagonal with independent Haar blocks of those orders; a
    stack of ``size`` of them.  With ``special`` the last column of each
    block is divided by the block's determinant.

    The draw is the polar factor ``U V^H`` of a Gaussian matrix ``G = U S
    V^H``, from one SVD of the whole stack.  It is Haar because ``polar(QG)
    = Q polar(G)`` and ``QG`` has the law of ``G`` for every fixed
    orthogonal/unitary ``Q``, over the reals and the complex numbers alike.
    The polar factor of a block-diagonal ``G`` is the block diagonal of
    the blocks' own factors; the blocks off the diagonal, zero up to
    rounding, are set to exactly zero.

    Raises
    ------
    NumericalError
        If a Gaussian draw is numerically singular (smallest singular value
        at most 1e-12 of the largest), where the polar factor is not unique.
    """
    blocks = k if isinstance(k, tuple) else (k,)
    shape = () if size is None else (size,)
    owner = np.array([i for i, b in enumerate(blocks) for _ in range(b)])
    diagonal = owner[:, None] == owner
    # one record per matrix: the blocks' entries row by row, complex ones as (re, im)
    entries = (sum(b * b for b in blocks),) + ((2,) if complex_ else ())
    record = rng.standard_normal(shape + entries)
    g = np.zeros(shape + diagonal.shape, dtype=np.complex128 if complex_ else np.float64)
    g[..., diagonal] = record.view(np.complex128)[..., 0] if complex_ else record
    u, sv, vh = np.linalg.svd(g)
    if (sv[..., -1] <= 1e-12 * sv[..., 0]).any():
        raise NumericalError("singular Gaussian draw: its polar factor is not unique")
    q = u @ vh
    np.copyto(q, 0.0, where=~diagonal)
    if special:
        for b, stop in zip(blocks, itertools.accumulate(blocks)):
            span = slice(stop - b, stop)
            q[..., :, stop - 1] /= np.linalg.det(q[..., span, span])[..., None]
    return q


def random_isotropy(space: SpaceDescriptor, rng, size: int | None = None) -> np.ndarray:
    """Random element of the isotropy group of the base point, or a stack of
    ``size`` of them."""
    return random_orthogonal(rng, (space.n, space.m), space.field == "complex",
                             special=space.oriented, size=size)


class _Slopes(NamedTuple):
    """The drawn factors of a random space-like slope ``w[:, :n] diag(sig)
    z^H``, or of a stack: the top singular values ``top``, the ratios
    ``sig[1:] / sig[0]`` of the lower ones to it, and the isotropy blocks
    ``w`` and ``z``."""

    top: np.ndarray
    ratios: np.ndarray
    w: np.ndarray
    z: np.ndarray

    def svd(self, top) -> tuple:
        """``(w, sig, z)`` in :func:`slope_svd`'s conventions, with top
        singular values ``top`` (the drawn ones, or a value or one per
        slope in their place) and the lower ones the kept ratios times
        them; ``sig`` is a new array."""
        sig = np.empty(self.ratios.shape[:-1] + (self.ratios.shape[-1] + 1,))
        sig[..., 0] = top
        sig[..., 1:] = self.ratios * sig[..., :1]
        return self.w, sig, self.z


def _drawn_slopes(space: SpaceDescriptor, seed: int, size) -> _Slopes:
    """The :class:`_Slopes` of a random space-like slope at ``seed``, or of
    a stack of ``size``: n uniforms per slope from the values stream, the
    first scaled to [0, 0.95] as the top singular value, and a random
    isotropy element diag(z, w) from the frames stream.  The ratios are
    the cumulative products of the ``u_j^(1/(n-j))`` of the other uniforms
    ``u``: by Renyi's representation ``D_j = D_(j-1) u_j^(1/(n-j))`` the
    lower values are the order statistics of n - 1 uniform draws,
    descending as :func:`slope_svd` gives them."""
    shape = () if size is None else (size,)
    n = space.n
    values = _stream(seed, _VALUES).random(shape + (n,))
    ratios = np.cumprod(values[..., 1:] ** (1.0 / np.arange(n - 1, 0, -1)), axis=-1)
    k = random_isotropy(space, _stream(seed, _FRAMES), size)
    # copies of the blocks, so a kept draw does not hold k's zero blocks
    return _Slopes(0.95 * values[..., 0], ratios, k[..., n:, n:].copy(), k[..., :n, :n].copy())


def _first_accepted(rng, samples: int, draw, accept) -> np.ndarray:
    """The first ``samples`` candidates that ``accept`` keeps, in the order
    ``draw(rng, count)`` reads them from the stream ``rng``, sample axis
    first.  Each pass reads as many candidates as are still missing, so the
    candidates a shorter run keeps are the first ones a longer run keeps."""
    kept, missing = [], samples
    while missing:
        batch = draw(rng, missing)
        kept.append(batch[accept(batch)])
        missing -= len(kept[-1])
    return np.concatenate(kept)


def random_unit_flat(space: SpaceDescriptor, rng, size: int) -> np.ndarray:
    """A stack of ``size`` random unit directions in the flat, in lattice
    coordinates: the Gaussian draws of norm at least 1e-3, in the stream's
    order, scaled to unit length."""
    x = _first_accepted(rng, size, lambda rng, count: rng.standard_normal((count, space.rank)),
                        lambda x: nk.norm(x, -1) >= 1e-3)
    return x / np.sqrt(np.sum((x @ space.lattice.gram) * x, axis=-1))[:, None]


# ---------------------------------------------------------------------------
# property checks


def _checked(samples, seed) -> tuple:
    """``(samples, seed)`` as Python ints: a check draws an integer count of
    at least one sample from a non-negative integer seed, and refuses
    anything else, a bool included, with DomainError before it draws or
    reads a kept draw."""
    if type(samples) is int and type(seed) is int and samples >= 1 and seed >= 0:
        return samples, seed
    counts = []
    for what, value, least in (("an integer count of at least one sample", samples, 1),
                               ("a non-negative integer seed", seed, 0)):
        try:
            count = operator.index(value)
        except TypeError:
            count = None
        if count is None or isinstance(value, bool) or count < least:
            raise DomainError(f"a check needs {what}, got {value!r}")
        counts.append(count)
    return tuple(counts)


@dataclass(frozen=True, eq=False)
class _Draw:
    """The opening draw of the sampled checks on one space at one ``(seed,
    samples)``, read-only: the slope factors ``slopes`` of
    :func:`_drawn_slopes`, and the isotropy stack :attr:`isotropy` and the
    stack :attr:`moved_and_unmoved`, each built when first read.  It keeps
    its seed, no generator state."""

    space: SpaceDescriptor
    samples: int
    seed: int
    slopes: _Slopes

    @functools.cached_property
    def isotropy(self) -> np.ndarray:
        """The isotropy stack ``k``, from the isotropy stream."""
        k = random_isotropy(self.space, _stream(self.seed, _ISOTROPY), self.samples)
        return nk.read_only(k)

    @functools.cached_property
    def moved_and_unmoved(self) -> GroupElement:
        """The stack ``[k a, a]`` of moved and unmoved cosets ``a``, the
        boosts of the drawn slopes, form-checked once and built when first
        read.  It keeps its point, the frame and slope SVD read off it, and
        its g and f images, for every check that reads them.  A refused
        stack is not kept, so it raises again on the next read."""
        boost = _boost_factors(self.space, *self.slopes.svd(self.slopes.top))
        k = self.isotropy
        return _built(GroupElement, space=self.space, side=Side.NONCOMPACT,
                      a=np.concatenate([k @ boost, boost]))


@functools.lru_cache(maxsize=1)
def _shared_draw(space: SpaceDescriptor, samples: int, seed: int) -> _Draw:
    """The :class:`_Draw` of the last ``(space, samples, seed)`` asked for,
    kept until another is asked for; the space is keyed by identity.  A
    caller passes counts :func:`_checked` has returned, so the memo never
    hashes a value a check refuses."""
    slopes = _Slopes(*map(nk.read_only, _drawn_slopes(space, seed, samples)))
    return _Draw(space, samples, seed, slopes)


def _report(name: str, samples: int, seed: int, tol, values, ok=None, **details) -> PropertyReport:
    """The report of one value per sample: a residual, failing where not
    at most ``tol``, or, with ``tol`` None, a margin; ``ok`` overrides the
    verdicts.  The worst is the largest residual or smallest margin (the
    first NaN), over the failing samples if any fail."""
    values = np.asarray(values, dtype=np.float64)
    ok = values <= tol if ok is None else np.asarray(ok)
    if values.shape != (samples,) or ok.shape != (samples,):
        raise ValueError(f"{name}: {values.shape} values, {ok.shape} verdicts, {samples} samples")
    failures = ok.size - int(ok.sum())
    score = values if tol is not None else -values
    worst = int(score.argmax())
    if failures:
        failing = np.flatnonzero(~ok)
        worst = int(failing[score[failing].argmax()])
    return PropertyReport(name, samples, failures, float(values[worst]), seed, tol,
                          details={**details, "worst_index": worst})


def check_triple_equality(space, samples: int = 200, seed: int = DEFAULT_SEED,
                          tol: float = 1e-9) -> PropertyReport:
    """Pairwise agreement of the three embeddings on random cosets, the
    three distances of the batch taken in one stacked call.  The cosets are
    the unmoved half ``a`` of the space's opening stack ``[k a, a]``, whose
    p, g and f images the equivariance checks read too.  p's frame is the
    SVD frame of the coset's first n columns, and f reads its slope off
    that frame; the closed-form frame and the drawn factors a coset built
    from them keeps are not read."""
    stack = _shared_draw(space, *_checked(samples, seed)).moved_and_unmoved
    p, q, f = (embed(space, which, stack).basis[samples:] for which in ("p", "g", "f"))
    resid = nk.frame_distance(np.stack([p, p, q]), np.stack([q, f, f])).max(axis=0)
    return _report("triple-equality/" + space.label(), samples, seed, tol, resid)


def check_equivariance(space, embedding_id: str, samples: int = 200,
                       seed: int = DEFAULT_SEED, tol: float = 1e-9) -> PropertyReport:
    """embed(k . x) == k . embed(x) for random isotropy elements k; images of
    opposite orientation (oriented families) have residual inf.

    The cosets ``a`` and ``k`` are the space's opening draw: the boosts of
    the slopes :func:`_drawn_slopes` draws, and the isotropy stack.  The
    moved cosets ``k a`` and the cosets ``a`` form one stack, with one form
    check, shared by the three maps at one ``(seed, samples)``, and are
    embedded in one pass; the right-hand side moves the frames of the
    second half by ``k``, with no SVD.
    """
    draw = _shared_draw(space, *_checked(samples, seed))
    k = draw.isotropy
    images = embed(space, embedding_id, draw.moved_and_unmoved)
    rep, basis = images.rep, images.basis
    lhs = _built(SubspacePoint, space=space, rep=rep[:samples], basis=basis[:samples])
    # k is unitary, so the moved frames stay orthonormal and are kept
    rhs = _built(SubspacePoint, space=space, rep=k @ rep[samples:], basis=k @ basis[samples:])
    resid = np.where(same_orientation(lhs, rhs), lhs.distance(rhs), np.inf)
    return _report(f"equivariance-{embedding_id}/" + space.label(), samples, seed, tol, resid)


def check_image_region(space, embedding_id: str, samples: int = 500,
                       seed: int = DEFAULT_SEED) -> PropertyReport:
    """Images are space-like and sit strictly inside their region.

    The region is half of the cut radius for p, g and f, and a quarter for
    the stereographic map on the circle/sphere family.  One fifth of the
    samples are drawn at slope 1 - 1e-6 to probe the boundary: those must
    approach the quarter-lattice box within 1e-5 without crossing it.  The
    reported value is the smallest margin, of a failing sample if any, and
    ``details["worst_index"]`` the sample it came from.

    The cosets of p, g and f are built from the slope factors of the
    space's opening draw, with the top singular value of every fifth slope
    set to 1 - 1e-6 and its lower values rescaled with it."""
    samples, seed = _checked(samples, seed)
    near_boundary = np.arange(samples) % 5 == 0

    if embedding_id == "b":
        if space.family is not Family.CIRCLE_SPHERE:
            raise DomainError("the stereographic check runs on the circle/sphere family")
        quarter = np.pi / 2.0  # quarter of the cut radius 2*pi in arc length
        t = _stream(seed, _STEREO).uniform(-20.0, 20.0, samples)
        # a boundary probe keeps the sign of its draw, at |t| = 14
        t = np.where(near_boundary, np.copysign(14.0, t), t)
        margins = quarter - np.abs(b_embed_rank1(t))
        return _report("image-region-b/" + space.label(), samples, seed, None, margins,
                       margins > 0.0, region_fraction=0.25)

    slopes = _shared_draw(space, samples, seed).slopes
    top = np.where(near_boundary, 1.0 - 1e-6, slopes.top)
    pt = embed(space, embedding_id, coset_from_factors(space, *slopes.svd(top)))
    coords = point_flat_coords(space, pt, Side.COMPACT)
    # distance from the largest lattice coordinate to the 1/4 box wall
    gap = 0.25 - np.max(np.abs(coords.coords), axis=-1)
    ok = space_like(space, pt) & in_half_region(coords.coords, 0.5, space.lattice) & (gap > 0.0)
    ok &= ~near_boundary | (gap < 1e-5)
    return _report(f"image-region-{embedding_id}/" + space.label(), samples, seed, None, gap,
                   ok, region_fraction=0.5, near_boundary_gap=float(np.max(gap[near_boundary])))


def check_cut_loci_grassmannian(space, samples: int = 100,
                                seed: int = DEFAULT_SEED) -> PropertyReport:
    """At the cut radius the image subspace meets the orthocomplement of the
    base point; strictly before it, it does not.

    Along a unit flat direction the top block of the geodesic frame is
    diagonal with entries cos(t x_i), so the first rank drop happens
    exactly at t = t0.  The residual reported is the smallest singular
    value of that block at t0; a sample fails when it exceeds 1e-10 or
    when the block's smallest singular value at t0 - 0.01 is below 1e-3.
    The frames of the whole batch at both times come from one stacked
    exponential.
    """
    if space.family is not Family.REAL_GRASSMANNIAN:
        raise DomainError("cut loci structure check runs on real Grassmannians")
    samples, seed = _checked(samples, seed)
    xl = random_unit_flat(space, _stream(seed, _FLATS), size=samples)
    t0 = cut_radius_closed(xl, space.lattice)
    flat = _built(FlatCoordinates, space=space, coords=xl).matrix(Side.COMPACT)
    times = np.stack([t0, t0 - 0.01])[..., None, None]
    frames = nk.exp_tangent(times * flat, hermitian=False)[..., : space.n]
    deficient, full = np.linalg.svd(frames[..., : space.n, :], compute_uv=False)[..., -1]
    return _report("cut-loci/" + space.label(), samples, seed, 1e-10, deficient,
                   (deficient <= 1e-10) & (full >= 1e-3))


def check_cut_radius_agreement(space, samples: int = 1000,
                               seed: int = DEFAULT_SEED, tol: float = 1e-12) -> PropertyReport:
    """Brute-force lattice minimization equals the closed form (orthonormal
    case); the brute search walks its shells once for the whole batch."""
    samples, seed = _checked(samples, seed)
    x = random_unit_flat(space, _stream(seed, _FLATS), size=samples)
    resid = np.abs(cut_radius_closed(x, space.lattice) - cut_radius_brute(x, space.lattice))
    return _report("cut-radius-agreement/" + space.label(), samples, seed, tol, resid)


def check_round_trip(space, samples: int = 500, seed: int = DEFAULT_SEED,
                     tol: float = 1e-9) -> PropertyReport:
    """exp(log(point)) reproduces random space-like points: the point of the
    space's opening stack ``[k a, a]``, the one p embeds and f reads its
    slope off.  The residual of sample i is the worse of its two cosets
    ``k_i a_i`` and ``a_i``."""
    pt = _shared_draw(space, *_checked(samples, seed)).moved_and_unmoved.point()
    back = nk.exp_tangent(log_noncompact(space, pt).x, hermitian=True)[..., : space.n]
    resid = _built(SubspacePoint, space=space, rep=back).distance(pt)
    return _report("round-trip/" + space.label(), samples, seed, tol,
                   resid.reshape(2, samples).max(axis=0))


# ---------------------------------------------------------------------------
# trigonometric duality (sphere and hyperbolic plane)


_NEXT = [1, 2, 0]  # the vertices, sides or angles after each one, cyclically
_LAST = [2, 0, 1]


def _measure(p1, p2, p3, kappa):
    """Sides (a, b, c) opposite and angles (A, B, C) at the vertices
    p1, p2, p3 (3-vectors, or stacks with the coordinates last) of a
    triangle of curvature ``kappa``: 1 on the sphere, -1 on the hyperbolic
    plane, as arrays with the three values first.  Under the form diag(1,
    1, kappa) a side's (hyperbolic) cosine is ``kappa <v, w>``, and the
    angle at u lies between the tangents ``v - kappa <u, v> u`` and ``w -
    kappa <u, w> u`` towards the other two vertices."""
    u = np.stack([p1, p2, p3])
    v, w = u[_NEXT], u[_LAST]
    form = np.array([1.0, 1.0, kappa])

    def inner(x, y):
        return (x * form * y).sum(axis=-1)

    tv = v - kappa * inner(u, v)[..., None] * u
    tw = w - kappa * inner(u, w)[..., None] * u
    cos = inner(tv, tw) / np.sqrt(inner(tv, tv) * inner(tw, tw))
    dots = kappa * inner(v, w)
    sides = (np.arccos(np.minimum(np.maximum(dots, -1.0), 1.0)) if kappa > 0
             else np.arccosh(np.maximum(dots, 1.0)))
    return sides, np.arccos(np.minimum(np.maximum(cos, -1.0), 1.0))


def _law_residuals(sides, angles, kappa):
    """Worst residual of the laws of sines and of cosines of a triangle of
    curvature ``kappa``, or per triangle of a stack, with the three sides
    and angles first."""
    sides, angles = np.asarray(sides), np.asarray(angles)
    sf, cf = (np.sin(sides), np.cos(sides)) if kappa > 0 else (np.sinh(sides), np.cosh(sides))
    sine = np.abs(sf * np.sin(angles[_NEXT]) - sf[_NEXT] * np.sin(angles)).max(axis=0)
    cosine = np.abs(cf - (cf[_NEXT] * cf[_LAST]
                          + kappa * sf[_NEXT] * sf[_LAST] * np.cos(angles))).max(axis=0)
    return sine, cosine


def _plus_sign_residual(sides, angles):
    # the plus-sign variant of the hyperbolic law of cosines, recorded for
    # reference but never asserted (the minus-sign law is the identity that
    # actually holds; check_trig_duality_random reports its worst value)
    a, b, c = sides
    A = angles[0]
    return np.abs(np.cosh(a) - (np.cosh(b) * np.cosh(c) + np.sinh(b) * np.sinh(c) * np.cos(A)))


def _sphere_triangles(rng, count):
    """The side opposite and the angle at each vertex of ``count`` random
    spherical triangles, shape (count, 3, 2): the vertices are three
    rotated copies of the pole, the last columns of one stack of three
    rotations per triangle."""
    pts = random_orthogonal(rng, 3, special=True, size=3 * count)[..., 2]
    return np.stack(_measure(*pts.reshape(count, 3, 3).swapaxes(0, 1), 1.0)).T


def _hyperbolic_triangles(rng, count):
    """As :func:`_sphere_triangles`, of random hyperbolic triangles whose
    vertices are three boosted and rotated copies of the apex, from one
    record of an angle t and a rapidity r per vertex: the apex boosted
    along x by r and turned about the z axis by t is ``(cos t sinh r, sin
    t sinh r, cosh r)``."""
    turn, rapidity = (rng.random((count, 3, 2)) * (2 * np.pi, 1.4) + (0.0, 0.2)).T
    sh = np.sinh(rapidity)
    pts = np.stack([np.cos(turn) * sh, np.sin(turn) * sh, np.cosh(rapidity)], axis=-1)
    return np.stack(_measure(*pts, -1.0)).T


def check_trig_duality_random(samples: int = 100, seed: int = DEFAULT_SEED,
                              tol: float = 1e-8) -> PropertyReport:
    """Both laws on random triangles, measured from random group orbits.

    ``samples`` spherical and ``samples`` hyperbolic triangles are drawn
    and measured in batches, and the i-th of each form pair i, whose
    residual is the worst of its four laws; ``failures`` counts pairs.
    ``details["worst_index"]`` is the worst pair, i.e. the number of
    accepted pairs before it.  A triangle with a side or an angle out of
    bounds is rejected; one with a NaN is not.
    """
    samples, seed = _checked(samples, seed)

    def scan(key, draw, low, high):
        # sides and angles, each (3, samples), of the triangles kept
        return _first_accepted(_stream(seed, key), samples, draw, lambda t: ~(
            (t.min(1) < low) | (t.max(1) > high)).any(1)).T

    sphere = scan(_SPHERES, _sphere_triangles, (0.2, 0.2), (2.5, 2.9))
    hyper = scan(_HYPERBOLAS, _hyperbolic_triangles, (0.2, 0.05), (4.0, np.inf))
    resid = np.stack(_law_residuals(*sphere, 1.0) + _law_residuals(*hyper, -1.0))
    return _report("trig-duality-random", samples, seed, tol, resid.max(axis=0),
                   hyperbolic_plus_sign_worst=float(np.max(_plus_sign_residual(*hyper))))


# ---------------------------------------------------------------------------
# suite


def catalog_spaces():
    return [make_space(f, n, m) for f, n, m in CATALOG]


ALL_FAMILIES = frozenset(FAMILIES)
GRASSMANNIANS = frozenset(family for family, row in FAMILIES.items() if not row.oriented)

# (property id, check, extra arguments after the space, families claimed
# on; None for the space-free triangle laws).  On the oriented planes f
# differs from p by design, so neither the triple equality nor f's box
# test is claimed there; the sphere's image map is the stereographic b.
CLAIMS = (
    ("triple", check_triple_equality, (), GRASSMANNIANS),
    ("equivariance", check_equivariance, ("p",), ALL_FAMILIES),
    ("equivariance", check_equivariance, ("g",), ALL_FAMILIES),
    ("equivariance", check_equivariance, ("f",), ALL_FAMILIES),
    ("image", check_image_region, ("f",), GRASSMANNIANS),
    ("image", check_image_region, ("b",), frozenset({Family.CIRCLE_SPHERE})),
    ("cutradius", check_cut_radius_agreement, (), ALL_FAMILIES),
    ("roundtrip", check_round_trip, (), ALL_FAMILIES),
    ("cutloci", check_cut_loci_grassmannian, (), frozenset({Family.REAL_GRASSMANNIAN})),
    ("trig", check_trig_duality_random, (), None),
)

PROPERTIES = tuple(dict.fromkeys(prop for prop, *_ in CLAIMS))


def run_suite(samples: int = 200, seed: int = DEFAULT_SEED, spaces=None,
              prop: str = "all", tol: float | None = None) -> list:
    """Run each selected row of :data:`CLAIMS` on the spaces of its families.

    ``spaces`` defaults to the whole catalog and ``prop`` to every
    property; a space-free row runs once.  Every row runs ``samples``
    samples, and ``tol`` replaces the tolerance of every check that takes one.
    The checks run space by space, and a space's opening draw is cleared
    once its checks have run, so one space's draw is held at a time; the
    reports come in the order of the rows of :data:`CLAIMS`,
    spaces in order within a row.

    Raises
    ------
    DomainError
        If ``prop`` names a property claimed on none of the spaces.
    """
    spaces = catalog_spaces() if spaces is None else spaces
    rows = []  # (check, extra, keywords, families, reports), one per selected row
    for name, check, extra, families in CLAIMS:
        if prop in ("all", name):
            kw = {"samples": samples, "seed": seed}
            if tol is not None and "tol" in inspect.signature(check).parameters:
                kw["tol"] = tol
            rows.append((check, extra, kw, families, []))
    for sp in spaces:
        for check, extra, kw, families, found in rows:
            if families is not None and sp.family in families:
                found.append(check(sp, *extra, **kw))
        # the memo builds the next space's draw before it drops this one
        _shared_draw.cache_clear()
    for check, extra, kw, families, found in rows:
        if families is None:
            found.append(check(*extra, **kw))
    reports = [report for *_, found in rows for report in found]
    if not reports:
        raise DomainError(f"property {prop!r} is not claimed on the family of "
                          + ", ".join(sp.label() for sp in spaces))
    return reports
