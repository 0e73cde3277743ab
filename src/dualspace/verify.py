"""Executable property suites with reproducible seeds.

Each check draws its whole batch of samples at once from a seeded
generator, runs the batch through the stacked kernels (one SVD, QR or
exponential per stage, not per sample), evaluates a pointwise identity
per sample, and returns a :class:`PropertyReport` with the worst residual
seen and, in ``details["worst_index"]``, the index of the sample that
gave it.  Residual aggregation is worst-case, not mean: the identities
under test are exact, so a single bad sample is a failure, and a NaN
residual is a failure and the worst.  :func:`_report` applies this
policy to the residual checks.  Every check draws from :func:`_generator`,
which refuses fewer than one sample, so no report can pass over an empty
batch.  Reports are reproducible from (property name, seed, samples).

The triple, equivariance and round-trip checks of one space open with the
same draw from ``default_rng(seed)``: the slope factors of
:func:`random_slope`.  That draw is taken once per space and ``(seed,
samples)`` and kept (:class:`_DrawStore`), with what is built from it on
first use: the boost that triple and equivariance read, and, for the
three equivariance checks, the isotropy stack drawn next and the
form-checked stack of moved and unmoved cosets, whose point keeps the
frame and slope SVD that p and f read.  The store holds one ``(seed,
samples)`` at a time and shares draws, never results: each report is the
one the check gives alone, in any order of calls.  :func:`run_suite` runs
space by space and drops a space's draw once its checks have run.  The
image, cut-radius, cut-loci and triangle checks draw as before.

:data:`CLAIMS` is the one table of which property is claimed on which
family; :func:`run_suite` and the CLI read it.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .embeddings import (
    GroupElement,
    _kept,
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
        q[..., span, : span.start] = 0.0
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


def _slope_factors(space: SpaceDescriptor, rng, sigma_max, size):
    """The factors ``(w, sig, z)`` of :func:`random_slope`, drawn in its
    order: the singular values, descending as :func:`slope_svd` gives
    them, then the isotropy element diag(z, w).  The n - 1 values below
    ``sig[0]`` are the order statistics of as many uniform draws, built
    from them by Renyi's representation: ``D_j = D_(j-1) u_j^(1/(n-j))``."""
    shape = () if size is None else (size,)
    n = space.n
    sig = np.empty(shape + (n,))
    sig[..., 0] = rng.uniform(0.0, 0.95, size=shape) if sigma_max is None else sigma_max
    u = rng.uniform(0.0, 1.0, size=shape + (n - 1,))
    sig[..., 1:] = np.cumprod(u ** (1.0 / np.arange(n - 1, 0, -1)), axis=-1) * sig[..., :1]
    k = random_isotropy(space, rng, size)
    return k[..., n:, n:], sig, k[..., :n, :n]


def random_slope(space: SpaceDescriptor, rng, sigma_max=None,
                 size: int | None = None) -> np.ndarray:
    """Random space-like slope block ``w[:, :n] diag(sig) z^H``, or a stack of
    ``size`` of them: largest singular value ``sigma_max`` (a value, or one
    per slope) or uniform in [0, 0.95], the others uniform below it in
    descending order, and ``diag(z, w)`` a random isotropy element."""
    return _slope(space, *_slope_factors(space, rng, sigma_max, size))


def _slope(space: SpaceDescriptor, w, sig, z) -> np.ndarray:
    """The slope ``w[:, :n] diag(sig) z^H`` of factors, or of a stack."""
    return (w[..., :, : space.n] * sig[..., None, :]) @ nk.herm(z)


def random_coset(space: SpaceDescriptor, rng, sigma_max=None,
                 size: int | None = None) -> GroupElement:
    """Random noncompact coset, or a stack of ``size``: the boost of the slope
    :func:`random_slope` would draw from the same generator, built by
    :func:`coset_from_factors` from the factors it is drawn from, so no SVD
    is taken and its point keeps its frame and slope SVD.  The form
    check runs once on the whole stack."""
    return coset_from_factors(space, *_slope_factors(space, rng, sigma_max, size))


def random_unit_flat(space: SpaceDescriptor, rng, size: int | None = None) -> np.ndarray:
    """Random unit direction in the flat, in lattice coordinates, or a stack
    of ``size`` of them; draws of norm below 1e-3 are drawn again."""
    shape = (space.rank,) if size is None else (size, space.rank)
    x = rng.standard_normal(shape)
    while True:
        short = np.linalg.norm(x, axis=-1) < 1e-3
        if not np.any(short):
            break
        x[short] = rng.standard_normal((int(np.count_nonzero(short)), space.rank))
    g = space.lattice.gram
    return x / np.sqrt(np.sum((x @ g) * x, axis=-1))[..., None]


# ---------------------------------------------------------------------------
# property checks


def _generator(samples: int, seed: int):
    """The seeded generator of one check, which must draw at least one sample."""
    if samples < 1:
        raise DomainError(f"a check needs at least one sample, got {samples}")
    return np.random.default_rng(seed)


def _worst_index(values: np.ndarray, largest: bool = True) -> int:
    """Index of the worst of a batch of residuals (largest) or margins
    (smallest); the first NaN when there is one, since a NaN is the worst."""
    return int(np.argmax(values) if largest else np.argmin(values))


class _Draw:
    """The opening draw of the sampled checks on one space at one ``(seed,
    samples)``: the factors ``(w, sig, z)`` that :func:`_slope_factors`
    draws first from ``default_rng(seed)``, read-only, and the generator's
    state right after them.  The boost of those factors, the isotropy
    stack drawn next and the form-checked stack of both are built on first
    use and kept read-only by :func:`_kept`, which stores no exception."""

    def __init__(self, space: SpaceDescriptor, samples: int, seed: int):
        rng = _generator(samples, seed)
        self.space, self.key = space, (seed, samples)
        self.factors = _slope_factors(space, rng, None, samples)
        for arr in self.factors:
            arr.flags.writeable = False
        self.state = rng.bit_generator.state

    def boost(self) -> np.ndarray:
        """The cosets ``a`` of the factors, as :func:`random_coset` builds them."""
        return _kept(self, "_boost", lambda: _boost_factors(self.space, *self.factors))

    def isotropy(self) -> np.ndarray:
        """The isotropy stack ``k`` that the generator draws after the factors."""
        def draw():
            seed, samples = self.key
            rng = np.random.default_rng(seed)
            rng.bit_generator.state = self.state
            return random_isotropy(self.space, rng, size=samples)
        return _kept(self, "_isotropy", draw)

    def moved_and_unmoved(self) -> GroupElement:
        """The stack ``[k a, a]``, form-checked once; its point keeps the
        frame and slope SVD that every embedding of it reads."""
        def build():
            k, a = self.isotropy(), self.boost()
            both = _built(GroupElement, space=self.space, side=Side.NONCOMPACT,
                          a=np.concatenate([k @ a, a]))
            both.a.flags.writeable = False
            return both
        return _kept(self, "_moved_and_unmoved", build)


class _DrawStore:
    """The opening draws of one ``(seed, samples)``, one per space object.

    Each draw is kept on its space, as :func:`_kept` keeps a coset's frame,
    so it goes when its space does.  A request at another ``(seed,
    samples)`` first drops every kept draw: the store holds at most one
    suite pass.  Draws are deterministic, so a cleared store changes no
    report, only the work done; a check takes its draw once and holds it,
    so a draw dropped under a running check only costs a second draw."""

    def __init__(self):
        self.key = None
        self.spaces = weakref.WeakSet()

    def get(self, space: SpaceDescriptor, samples: int, seed: int) -> _Draw:
        if seed is None:  # fresh entropy on every call: nothing to share
            return _Draw(space, samples, seed)
        if (seed, samples) != self.key:
            self.clear()
        draw = vars(space).get("_opening_draw")
        # a copy of a space carries the draw of the space it was copied from
        if draw is None or draw.key != (seed, samples):
            draw = _Draw(space, samples, seed)
            vars(space)["_opening_draw"] = draw
            self.key = draw.key
            self.spaces.add(space)
        return draw

    def drop(self, space: SpaceDescriptor):
        """Drop the draw kept on ``space``, once no check of it is left."""
        vars(space).pop("_opening_draw", None)
        self.spaces.discard(space)

    def clear(self):
        for space in list(self.spaces):
            self.drop(space)
        self.key = None


_draws = _DrawStore()


def _report(name: str, samples: int, seed: int, tol: float, resid) -> PropertyReport:
    """Worst case of the residual array ``resid``, one entry per sample of a
    batch drawn from one seeded generator; a sample fails when its residual
    is not at most ``tol``, so a NaN fails and is the worst.
    ``details["worst_index"]`` is that sample's index."""
    resid = np.asarray(resid, dtype=np.float64)
    if resid.shape != (samples,):
        raise ValueError(f"{name}: {resid.shape} residuals for {samples} samples")
    failures = int(np.count_nonzero(~(resid <= tol)))
    worst = _worst_index(resid)
    return PropertyReport(name, samples, failures, float(resid[worst]), seed, tol,
                          details={"worst_index": worst})


def check_triple_equality(space, samples: int = 200, seed: int = DEFAULT_SEED,
                          tol: float = 1e-9) -> PropertyReport:
    """Pairwise agreement of the three embeddings on random cosets, the
    three distances of the batch taken in one stacked call.  The cosets are
    those :func:`random_coset` draws, built from the space's opening draw."""
    draw = _draws.get(space, samples, seed)
    g = coset_from_factors(space, *draw.factors, boost=draw.boost())
    p, q, f = (embed(space, which, g).basis for which in ("p", "g", "f"))
    resid = nk.frame_distance(np.stack([p, p, q]), np.stack([q, f, f])).max(axis=0)
    return _report("triple-equality/" + space.label(), samples, seed, tol, resid)


def check_equivariance(space, embedding_id: str, samples: int = 200,
                       seed: int = DEFAULT_SEED, tol: float = 1e-9) -> PropertyReport:
    """embed(k . x) == k . embed(x) for random isotropy elements k; images of
    opposite orientation (oriented families) have residual inf.

    The cosets ``a`` and then ``k`` are drawn as :func:`random_coset` and
    :func:`random_isotropy` would draw them: the space's opening draw and
    the stack drawn after it.  The moved cosets ``k a`` and the cosets
    ``a`` form one stack, with one form check, shared by the three maps
    at one ``(seed, samples)``, and are embedded in one pass; the
    right-hand side moves the frames of the second half by ``k``, with no
    SVD.
    """
    draw = _draws.get(space, samples, seed)
    k = draw.isotropy()
    images = embed(space, embedding_id, draw.moved_and_unmoved())
    rep, basis, sign = images.rep, images.basis, images.orientation
    lhs = _built(SubspacePoint, space=space, rep=rep[:samples], orientation=sign,
                 basis=basis[:samples])
    # k is unitary, so the moved frames stay orthonormal and are kept
    rhs = _built(SubspacePoint, space=space, rep=k @ rep[samples:], orientation=sign,
                 basis=k @ basis[samples:])
    resid = np.where(same_orientation(lhs, rhs), lhs.distance(rhs), np.inf)
    return _report(f"equivariance-{embedding_id}/" + space.label(), samples, seed, tol, resid)


def check_image_region(space, embedding_id: str, samples: int = 500,
                       seed: int = DEFAULT_SEED) -> PropertyReport:
    """Images are space-like and sit strictly inside their region.

    The region is half of the cut radius for p, g and f, and a quarter for
    the stereographic map on the circle/sphere family.  One fifth of the
    samples are drawn at slope 1 - 1e-6 to probe the boundary: those must
    approach the quarter-lattice box within 1e-5 without crossing it.  The
    reported value is the smallest margin, and ``details["worst_index"]``
    the sample it came from.
    """
    rng = _generator(samples, seed)
    near_boundary = np.arange(samples) % 5 == 0

    if embedding_id == "b":
        if space.family is not Family.CIRCLE_SPHERE:
            raise DomainError("the stereographic check runs on the circle/sphere family")
        quarter = np.pi / 2.0  # quarter of the cut radius 2*pi in arc length
        t = np.where(near_boundary, rng.choice([-14.0, 14.0], samples),
                     rng.uniform(-20.0, 20.0, samples))
        margins = quarter - np.abs(b_embed_rank1(t))
        worst = _worst_index(margins, largest=False)
        return PropertyReport("image-region-b/" + space.label(), samples,
                              int(np.count_nonzero(~(margins > 0.0))), float(margins[worst]),
                              seed, None, details={"region_fraction": 0.25,
                                                   "worst_index": worst})

    sigma = np.where(near_boundary, 1.0 - 1e-6, rng.uniform(0.0, 0.95, samples))
    pt = embed(space, embedding_id, random_coset(space, rng, sigma_max=sigma, size=samples))
    coords = point_flat_coords(space, pt, Side.COMPACT)
    # distance from the largest lattice coordinate to the 1/4 box wall
    gap = 0.25 - np.max(np.abs(coords.coords), axis=-1)
    ok = space_like(space, pt) & in_half_region(coords, 0.5) & (gap > 0.0)
    ok &= ~near_boundary | (gap < 1e-5)
    worst = _worst_index(gap, largest=False)
    return PropertyReport(f"image-region-{embedding_id}/" + space.label(), samples,
                          int(np.count_nonzero(~ok)), float(gap[worst]), seed, None,
                          details={"region_fraction": 0.5,
                                   "near_boundary_gap": float(np.max(gap[near_boundary])),
                                   "worst_index": worst})


def check_cut_loci_grassmannian(space, samples: int = 100,
                                seed: int = DEFAULT_SEED) -> PropertyReport:
    """At the cut radius the image subspace meets the orthocomplement of the
    base point; strictly before it, it does not.

    Along a unit flat direction the top block of the geodesic frame is
    diagonal with entries cos(t x_i), so the first rank drop happens
    exactly at t = t0; the residual reported is the largest violation of
    rank-deficiency at t0 respectively full rank at t0 - 0.01.  The frames
    of the whole batch at both times come from one stacked exponential.
    """
    if space.family is not Family.REAL_GRASSMANNIAN:
        raise DomainError("cut loci structure check runs on real Grassmannians")
    rng = _generator(samples, seed)
    xl = random_unit_flat(space, rng, size=samples)
    t0 = cut_radius_closed(xl, space.lattice)
    flat = FlatCoordinates(space, xl).matrix(Side.COMPACT)
    times = np.stack([t0, t0 - 0.01])[..., None, None]
    frames = nk.exp_tangent(times * flat, hermitian=False)[..., : space.n]
    deficient, full = np.linalg.svd(frames[..., : space.n, :], compute_uv=False)[..., -1]
    failures = np.count_nonzero(~(deficient <= 1e-10)) + np.count_nonzero(~(full >= 1e-3))
    worst = _worst_index(deficient)
    return PropertyReport("cut-loci/" + space.label(), samples, int(failures),
                          float(deficient[worst]), seed, 1e-10,
                          details={"worst_index": worst})


def check_cut_radius_agreement(space, samples: int = 1000,
                               seed: int = DEFAULT_SEED, tol: float = 1e-12) -> PropertyReport:
    """Brute-force lattice minimization equals the closed form (orthonormal
    case); the brute search runs once per direction."""
    x = random_unit_flat(space, _generator(samples, seed), size=samples)
    brute = [cut_radius_brute(row, space.lattice).radius for row in x]
    resid = np.abs(cut_radius_closed(x, space.lattice) - brute)
    return _report("cut-radius-agreement/" + space.label(), samples, seed, tol, resid)


def check_round_trip(space, samples: int = 500, seed: int = DEFAULT_SEED,
                     tol: float = 1e-9) -> PropertyReport:
    """exp(log(point)) reproduces random space-like points: the graphs of the
    slopes :func:`random_slope` draws, from the space's opening draw."""
    draw = _draws.get(space, samples, seed)
    rep = np.empty((samples, space.dim, space.n), dtype=space.dtype)
    rep[:, : space.n] = np.eye(space.n)
    rep[:, space.n :] = _slope(space, *draw.factors)
    pt = _built(SubspacePoint, space=space, rep=rep, orientation=None)
    back = nk.exp_tangent(log_noncompact(space, pt).x, hermitian=True)[..., : space.n]
    resid = _built(SubspacePoint, space=space, rep=back, orientation=None).distance(pt)
    return _report("round-trip/" + space.label(), samples, seed, tol, resid)


# ---------------------------------------------------------------------------
# trigonometric duality (sphere and hyperbolic plane)


def _rot_z(t):
    """Rotation by ``t`` about the z axis; a stack of them for an array ``t``."""
    c, s = np.cos(t), np.sin(t)
    out = np.zeros(np.shape(t) + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1], out[..., 1, 0] = -s, s
    out[..., 2, 2] = 1.0
    return out


def _boost_x(t):
    """Boost of rapidity ``t`` along x; a stack of them for an array ``t``."""
    c, s = np.cosh(t), np.sinh(t)
    out = np.zeros(np.shape(t) + (3, 3))
    out[..., 0, 0] = out[..., 2, 2] = c
    out[..., 0, 2] = out[..., 2, 0] = s
    out[..., 1, 1] = 1.0
    return out


_SPHERE_J = np.ones(3)  # diagonals of the Euclidean and the Minkowski form
_HYP_J = np.array([1.0, 1.0, -1.0])
_NEXT = [1, 2, 0]  # the vertices, sides or angles after each one, cyclically
_LAST = [2, 0, 1]


def _measure(p1, p2, p3, form, sign):
    """Sides (a, b, c) opposite and angles (A, B, C) at the vertices
    p1, p2, p3 (3-vectors, or stacks of them with the coordinates last),
    as arrays with the three values first.  The angle at u is measured
    between the tangents ``v - sign <u, v> u`` and ``w - sign <u, w> u``
    towards the other two vertices, under the diagonal ``form``."""
    u = np.stack([p1, p2, p3])
    v, w = u[_NEXT], u[_LAST]

    def inner(x, y):
        return (x * form * y).sum(axis=-1)

    tv = v - sign * inner(u, v)[..., None] * u
    tw = w - sign * inner(u, w)[..., None] * u
    cos = inner(tv, tw) / np.sqrt(inner(tv, tv) * inner(tw, tw))
    return inner(v, w), np.arccos(np.clip(cos, -1.0, 1.0))


def _measure_sphere(p1, p2, p3):
    dots, angles = _measure(p1, p2, p3, _SPHERE_J, 1.0)
    return np.arccos(np.clip(dots, -1.0, 1.0)), angles


def _measure_hyperbolic(p1, p2, p3):
    minks, angles = _measure(p1, p2, p3, _HYP_J, -1.0)
    return np.arccosh(np.maximum(-minks, 1.0)), angles


def _law_residuals(sides, angles, hyperbolic: bool):
    """Worst residual of the laws of sines and of cosines of a triangle, or
    per triangle of a stack, with the three sides and angles first."""
    sides, angles = np.asarray(sides), np.asarray(angles)
    sf = np.sinh(sides) if hyperbolic else np.sin(sides)
    cf = np.cosh(sides) if hyperbolic else np.cos(sides)
    sine = np.abs(sf * np.sin(angles[_NEXT]) - sf[_NEXT] * np.sin(angles)).max(axis=0)
    sign = -1.0 if hyperbolic else 1.0
    cosine = np.abs(cf - (cf[_NEXT] * cf[_LAST]
                          + sign * sf[_NEXT] * sf[_LAST] * np.cos(angles))).max(axis=0)
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
    rotated copies of the apex each."""
    turn = rng.uniform(0, 2 * np.pi, size=(3, count))
    rapidity = rng.uniform(0.2, 1.6, size=(3, count))
    return (_rot_z(turn) @ _boost_x(rapidity))[..., 2]


def _accepted_triangles(rng, samples, draw, measure, rejected):
    """Sides and angles, each of shape (3, samples), of ``samples`` accepted
    random triangles.  Every pending triangle is drawn and measured at once,
    and only the rejected ones are drawn again; accepted triangles keep the
    order they were drawn in."""
    sides, angles = np.empty((3, samples)), np.empty((3, samples))
    done = 0
    while done < samples:
        sm, am = measure(*draw(rng, samples - done))
        keep = ~rejected(sm, am)
        new = done + int(np.count_nonzero(keep))
        sides[:, done:new], angles[:, done:new] = sm[:, keep], am[:, keep]
        done = new
    return sides, angles


def check_trig_duality_random(samples: int = 100, seed: int = DEFAULT_SEED,
                              tol: float = 1e-8) -> PropertyReport:
    """Both laws on random triangles, measured from random group orbits.

    ``samples`` spherical and ``samples`` hyperbolic triangles are drawn
    and measured in batches, and the i-th of each form pair i.
    ``details["worst_index"]`` is the pair with the worst residual, i.e.
    the number of accepted pairs before it.
    """
    rng = _generator(samples, seed)
    sphere = _accepted_triangles(
        rng, samples, _sphere_triangles, _measure_sphere,
        lambda s, a: (s.min(0) < 0.2) | (s.max(0) > 2.5) | (a.min(0) < 0.2) | (a.max(0) > 2.9))
    hyper = _accepted_triangles(
        rng, samples, _hyperbolic_triangles, _measure_hyperbolic,
        lambda s, a: (s.min(0) < 0.2) | (s.max(0) > 4.0) | (a.min(0) < 0.05))
    resid = np.stack(_law_residuals(*sphere, hyperbolic=False)
                     + _law_residuals(*hyper, hyperbolic=True))
    per_pair = resid.max(axis=0)
    worst = _worst_index(per_pair)
    return PropertyReport("trig-duality-random", samples, int(np.count_nonzero(~(resid <= tol))),
                          float(per_pair[worst]), seed, tol,
                          details={"hyperbolic_plus_sign_worst":
                                   float(np.max(_plus_sign_residual(*hyper))),
                                   "worst_index": worst})


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
    The checks run space by space, and a space's opening draw is dropped
    once its checks have run, so the store holds one space's draw at a
    time; the reports come in the order of the rows of :data:`CLAIMS`,
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
        _draws.drop(sp)
    for check, extra, kw, families, found in rows:
        if families is None:
            found.append(check(*extra, **kw))
    reports = [report for *_, found in rows for report in found]
    if not reports:
        raise DomainError(f"property {prop!r} is not claimed on the family of "
                          + ", ".join(sp.label() for sp in spaces))
    return reports
