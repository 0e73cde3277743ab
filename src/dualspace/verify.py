"""Executable property suites with reproducible seeds.

Each check draws its whole batch of samples at once from a seeded
generator, runs the batch through the stacked kernels (one SVD, QR or
exponential per stage, not per sample), evaluates a pointwise identity
per sample, and returns a :class:`PropertyReport` with the worst residual
(or margin) seen and, in ``details["worst_index"]``, the index of the
sample that gave it.  Aggregation is worst-case, not mean: the identities
under test are exact, so a single bad sample is a failure, and a NaN is a
failure and the worst.  ``failures`` counts failing samples, and the worst
sample is a failing one whenever any fails; :func:`_report` builds every
report by this rule.  Every check draws from :func:`_generator`, which
refuses a sample count that is not an integer of at least one, so no
report passes over an empty batch, and a seed that is not a non-negative
integer, so every report is reproducible from (property name, seed,
samples); a bool is neither.

The triple, equivariance, round-trip and image checks of one space read
one opening draw: :func:`_shared_draw` draws from ``default_rng(seed)``
the slope factors :func:`_slope_factors` draws, then the isotropy stack
``k``, and keeps both.  The image check builds its cosets from those
factors, with the top singular value of every fifth slope set to 1 -
1e-6, next to the boundary.  The triple, equivariance and round-trip
checks read the form-checked stack of moved and unmoved cosets
``[k a, a]``, built from the same factors when the first of them reads
it, so a lone image check builds none.  The stack keeps its point, that
point's frame and slope SVD, and its g and f images, each computed by
the first check to read it.  Triple compares the three images of the
unmoved half, equivariance the two halves, and the round trip maps the
point of both halves back.  The draw of the last ``(space, samples,
seed)`` only is kept, and a check refuses a bad sample count or seed
before it reads the memo.  All that is kept is a function of the draw
alone, so each report is the one the check gives alone, in any order of
calls.  :func:`run_suite` runs space by space and clears the draw once a
space's checks have run.  The cut-radius, cut-loci, stereographic image
and triangle checks each draw alone.

:data:`CLAIMS` is the one table of which property is claimed on which
family; :func:`run_suite` and the CLI read it.
"""

from __future__ import annotations

import functools
import inspect
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
    g = np.zeros(shape + (sum(blocks),) * 2, dtype=np.complex128 if complex_ else np.float64)
    spans = [slice(sum(blocks[:i]), sum(blocks[:i + 1])) for i in range(len(blocks))]
    for b, span in zip(blocks, spans):
        g[..., span, span] = rng.standard_normal(shape + (b, b))
        if complex_:
            g[..., span, span] += 1j * rng.standard_normal(shape + (b, b))
    u, sv, vh = np.linalg.svd(g)
    if (sv[..., -1] <= 1e-12 * sv[..., 0]).any():
        raise NumericalError("singular Gaussian draw: its polar factor is not unique")
    q = u @ vh
    for span in spans:
        if span.start:
            q[..., span, : span.start] = 0.0
        if span.stop < q.shape[-1]:
            q[..., span, span.stop :] = 0.0
    if special:
        for span in spans:
            q[..., :, span.stop - 1] /= np.linalg.det(q[..., span, span])[..., None]
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


def _slope_factors(space: SpaceDescriptor, rng, size) -> _Slopes:
    """The :class:`_Slopes` of a random space-like slope, or of a stack of
    ``size``, drawn in this order: the top singular values, uniform in
    [0, 0.95], then n - 1 uniforms ``u``, then a random isotropy element
    diag(z, w).  The n - 1 values below the top are the order statistics
    of as many uniform draws, descending as :func:`slope_svd` gives them,
    built by Renyi's representation ``D_j = D_(j-1) u_j^(1/(n-j))``: the
    ratios are the cumulative products of the ``u_j^(1/(n-j))``."""
    shape = () if size is None else (size,)
    n = space.n
    top = rng.uniform(0.0, 0.95, size=shape)
    u = rng.uniform(0.0, 1.0, size=shape + (n - 1,))
    ratios = np.cumprod(u ** (1.0 / np.arange(n - 1, 0, -1)), axis=-1)
    k = random_isotropy(space, rng, size)
    # copies of the blocks, so a kept draw does not hold k's zero blocks
    return _Slopes(top, ratios, k[..., n:, n:].copy(), k[..., :n, :n].copy())


def random_unit_flat(space: SpaceDescriptor, rng, size: int | None = None) -> np.ndarray:
    """Random unit direction in the flat, in lattice coordinates, or a stack
    of ``size`` of them; draws of norm below 1e-3 are drawn again."""
    shape = (space.rank,) if size is None else (size, space.rank)
    x = rng.standard_normal(shape)
    while True:
        short = nk.norm(x, -1) < 1e-3
        if not short.any():
            break
        x[short] = rng.standard_normal((int(np.count_nonzero(short)), space.rank))
    g = space.lattice.gram
    return x / np.sqrt(np.sum((x @ g) * x, axis=-1))[..., None]


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


def _generator(samples, seed):
    """The seeded generator of one check, refusing what :func:`_checked`
    refuses."""
    return np.random.default_rng(_checked(samples, seed)[1])


@dataclass(frozen=True, eq=False)
class _Draw:
    """The opening draw of the sampled checks on one space at one ``(seed,
    samples)``, read-only: the factors ``slopes`` that
    :func:`_slope_factors` draws first from ``default_rng(seed)``, and the
    isotropy stack ``isotropy`` (``k``) drawn after them.  The image check
    builds its cosets from the factors; the others read the stack
    :attr:`moved_and_unmoved`."""

    space: SpaceDescriptor
    slopes: _Slopes
    isotropy: np.ndarray

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
    kept until another is asked for; the space is keyed by identity.  The
    isotropy stack is drawn at once, so no generator state is kept.  A
    caller passes counts :func:`_checked` has returned, so the memo never
    hashes a value a check refuses."""
    rng = _generator(samples, seed)
    slopes = _Slopes(*map(nk.read_only, _slope_factors(space, rng, samples)))
    return _Draw(space, slopes, nk.read_only(random_isotropy(space, rng, size=samples)))


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

    The cosets ``a`` and then ``k`` are the space's opening draw: the
    boosts of the slopes :func:`_slope_factors` draws, and the isotropy
    stack drawn after them.  The moved cosets ``k a`` and the cosets
    ``a`` form one stack, with one form check, shared by the three maps
    at one ``(seed, samples)``, and are embedded in one pass; the
    right-hand side moves the frames of the second half by ``k``, with no
    SVD.
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
    space's opening draw, those of the stack ``[k a, a]`` the other
    sampled checks read, with the top singular value of every fifth slope
    set to 1 - 1e-6 and its lower values rescaled with it, so the report
    is the same alone, after those checks or in :func:`run_suite`."""
    counts = _checked(samples, seed)
    near_boundary = np.arange(samples) % 5 == 0

    if embedding_id == "b":
        if space.family is not Family.CIRCLE_SPHERE:
            raise DomainError("the stereographic check runs on the circle/sphere family")
        rng = _generator(*counts)
        quarter = np.pi / 2.0  # quarter of the cut radius 2*pi in arc length
        t = np.where(near_boundary, rng.choice([-14.0, 14.0], samples),
                     rng.uniform(-20.0, 20.0, samples))
        margins = quarter - np.abs(b_embed_rank1(t))
        return _report("image-region-b/" + space.label(), samples, seed, None, margins,
                       margins > 0.0, region_fraction=0.25)

    slopes = _shared_draw(space, *counts).slopes
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
    rng = _generator(samples, seed)
    xl = random_unit_flat(space, rng, size=samples)
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
    x = random_unit_flat(space, _generator(samples, seed), size=samples)
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
    """Vertices of ``count`` random spherical triangles, three rotated copies
    of the pole each: the last columns of one stack of 3 * count rotations."""
    pts = random_orthogonal(rng, 3, special=True, size=3 * count)[..., 2]
    return pts.reshape(count, 3, 3).swapaxes(0, 1)


def _hyperbolic_triangles(rng, count):
    """Vertices of ``count`` random hyperbolic triangles, three boosted and
    rotated copies of the apex each: the apex boosted along x by a rapidity
    r and turned about the z axis by an angle t is
    ``(cos t sinh r, sin t sinh r, cosh r)``."""
    turn = rng.uniform(0, 2 * np.pi, size=(3, count))
    rapidity = rng.uniform(0.2, 1.6, size=(3, count))
    sh = np.sinh(rapidity)
    return np.stack([np.cos(turn) * sh, np.sin(turn) * sh, np.cosh(rapidity)], axis=-1)


def _accepted_triangles(rng, samples, draw, kappa, rejected):
    """Sides and angles, each of shape (3, samples), of ``samples`` accepted
    random triangles of curvature ``kappa``.  Every pending triangle is
    drawn and measured at once, and only the rejected ones are drawn again;
    accepted triangles keep the order they were drawn in."""
    sides, angles = np.empty((3, samples)), np.empty((3, samples))
    done = 0
    while done < samples:
        sm, am = _measure(*draw(rng, samples - done), kappa)
        keep = ~rejected(sm, am)
        new = done + int(np.count_nonzero(keep))
        sides[:, done:new], angles[:, done:new] = sm[:, keep], am[:, keep]
        done = new
    return sides, angles


def check_trig_duality_random(samples: int = 100, seed: int = DEFAULT_SEED,
                              tol: float = 1e-8) -> PropertyReport:
    """Both laws on random triangles, measured from random group orbits.

    ``samples`` spherical and ``samples`` hyperbolic triangles are drawn
    and measured in batches, and the i-th of each form pair i, whose
    residual is the worst of its four laws; ``failures`` counts pairs.
    ``details["worst_index"]`` is the worst pair, i.e. the number of
    accepted pairs before it.
    """
    rng = _generator(samples, seed)
    sphere = _accepted_triangles(
        rng, samples, _sphere_triangles, 1.0,
        lambda s, a: (s.min(0) < 0.2) | (s.max(0) > 2.5) | (a.min(0) < 0.2) | (a.max(0) > 2.9))
    hyper = _accepted_triangles(
        rng, samples, _hyperbolic_triangles, -1.0,
        lambda s, a: (s.min(0) < 0.2) | (s.max(0) > 4.0) | (a.min(0) < 0.05))
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
