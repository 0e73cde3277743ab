"""Executable property suites with reproducible seeds.

Each check draws a fixed number of samples from a seeded generator,
evaluates a pointwise identity, and returns a :class:`PropertyReport`
with the worst residual seen.  Residual aggregation is worst-case, not
mean: the identities under test are exact, so a single bad sample is a
failure, and a NaN residual is a failure and the worst.  :func:`_sampled`
is the one loop that applies this policy.  Every check draws from
:func:`_generator`, which refuses fewer than one sample, so no report can
pass over an empty batch.  Reports are reproducible from
(property name, seed, samples).  :data:`CLAIMS` is the one table of which
property is claimed on which family; :func:`run_suite` and the CLI read it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .embeddings import (
    GroupElement,
    b_embed_rank1,
    embed,
    log_noncompact,
    point_flat_coords,
    space_like,
)
from .errors import DomainError
from .lattice import cut_radius_brute, cut_radius_closed, in_half_region
from .spaces import (
    CATALOG,
    Family,
    FlatCoordinates,
    Side,
    SpaceDescriptor,
    SubspacePoint,
    act,
    make_space,
    same_orientation,
    transitivity_element,
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


def random_orthogonal(rng, k: int, complex_: bool = False, special: bool = False) -> np.ndarray:
    """Haar-ish random orthogonal/unitary matrix (QR with sign-fixed diagonal)."""
    g = rng.standard_normal((k, k))
    if complex_:
        g = g + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d = d / np.abs(d)
    q = q * d.conj()
    if special:
        det = np.linalg.det(q)
        q = q.copy()
        q[:, -1] = q[:, -1] / det
    return q


def random_isotropy(space: SpaceDescriptor, rng) -> np.ndarray:
    """Random element of the isotropy group of the base point."""
    cplx = space.field == "complex"
    k1 = random_orthogonal(rng, space.n, cplx, special=space.oriented)
    k2 = random_orthogonal(rng, space.m, cplx, special=space.oriented)
    out = np.zeros((space.dim, space.dim), dtype=space.dtype)
    out[: space.n, : space.n] = k1
    out[space.n :, space.n :] = k2
    return out


def random_slope(space: SpaceDescriptor, rng, sigma_max: float | None = None) -> np.ndarray:
    """Random space-like slope block: largest singular value uniform in [0, 0.95]."""
    if sigma_max is None:
        sigma_max = rng.uniform(0.0, 0.95)
    sig = np.empty(space.n)
    if space.n:
        sig[0] = sigma_max
        sig[1:] = rng.uniform(0.0, sigma_max, size=space.n - 1) if sigma_max > 0 else 0.0
    cplx = space.field == "complex"
    w = random_orthogonal(rng, space.m, cplx)[:, : space.n]
    z = random_orthogonal(rng, space.n, cplx)
    return w @ np.diag(sig) @ z.conj().T


def random_coset(space: SpaceDescriptor, rng, sigma_max: float | None = None) -> GroupElement:
    y = random_slope(space, rng, sigma_max)
    return GroupElement(space, Side.NONCOMPACT, transitivity_element(space, y))


def random_unit_flat(space: SpaceDescriptor, rng) -> np.ndarray:
    """Random unit direction in the flat, in lattice coordinates."""
    x = rng.standard_normal(space.rank)
    while np.linalg.norm(x) < 1e-3:
        x = rng.standard_normal(space.rank)
    g = space.lattice.gram
    return x / np.sqrt(x @ g @ x)


# ---------------------------------------------------------------------------
# property checks


def _generator(samples: int, seed: int):
    """The seeded generator of one check, which must draw at least one sample."""
    if samples < 1:
        raise DomainError(f"a check needs at least one sample, got {samples}")
    return np.random.default_rng(seed)


def _sampled(name: str, samples: int, seed: int, tol: float, residual) -> PropertyReport:
    """Worst case of ``residual(rng)`` over ``samples`` draws from one seeded
    generator; a sample fails when its residual is not at most ``tol``."""
    rng = _generator(samples, seed)
    resid = np.array([residual(rng) for _ in range(samples)], dtype=np.float64)
    failures = int(np.count_nonzero(~(resid <= tol)))
    return PropertyReport(name, samples, failures, float(np.max(resid, initial=0.0)), seed, tol)


def check_triple_equality(space, samples: int = 200, seed: int = DEFAULT_SEED,
                          tol: float = 1e-9) -> PropertyReport:
    """Pairwise agreement of the three embeddings on random cosets."""
    def residual(rng):
        g = random_coset(space, rng)
        p, q, f = (embed(space, which, g) for which in ("p", "g", "f"))
        return max(p.distance(q), p.distance(f), q.distance(f))
    return _sampled("triple-equality/" + space.label(), samples, seed, tol, residual)


def check_equivariance(space, embedding_id: str, samples: int = 200,
                       seed: int = DEFAULT_SEED, tol: float = 1e-9) -> PropertyReport:
    """embed(k . x) == k . embed(x) for random isotropy elements k; images of
    opposite orientation (oriented families) have residual inf."""
    def residual(rng):
        g = random_coset(space, rng)
        k = random_isotropy(space, rng)
        moved = GroupElement(space, Side.NONCOMPACT, k @ g.a)
        lhs = embed(space, embedding_id, moved)
        rhs = act(k, embed(space, embedding_id, g))
        return lhs.distance(rhs) if same_orientation(lhs, rhs) else np.inf
    return _sampled(f"equivariance-{embedding_id}/" + space.label(), samples, seed, tol,
                    residual)


def check_image_region(space, embedding_id: str, samples: int = 500,
                       seed: int = DEFAULT_SEED) -> PropertyReport:
    """Images are space-like and sit strictly inside their region.

    The region is half of the cut radius for p, g and f, and a quarter for
    the stereographic map on the circle/sphere family.  One fifth of the
    samples are drawn at slope 1 - 1e-6 to probe the boundary: those must
    approach the quarter-lattice box within 1e-5 without crossing it.
    """
    rng = _generator(samples, seed)
    failures = 0
    worst_margin = np.inf  # smallest distance to the boundary (must stay > 0)
    boundary_gap = 0.0     # largest gap at the near-boundary samples

    if embedding_id == "b":
        if space.family is not Family.CIRCLE_SPHERE:
            raise DomainError("the stereographic check runs on the circle/sphere family")
        quarter = np.pi / 2.0  # quarter of the cut radius 2*pi in arc length
        for i in range(samples):
            t = rng.uniform(-20.0, 20.0) if i % 5 else rng.choice([-14.0, 14.0])
            ang = abs(b_embed_rank1(t))
            margin = quarter - ang
            worst_margin = min(worst_margin, margin)
            failures += not margin > 0.0
        return PropertyReport("image-region-b/" + space.label(), samples, failures,
                              float(worst_margin), seed, None,
                              details={"region_fraction": 0.25})

    for i in range(samples):
        near_boundary = i % 5 == 0
        sigma = 1.0 - 1e-6 if near_boundary else None
        g = random_coset(space, rng, sigma_max=sigma)
        pt = embed(space, embedding_id, g)
        ok = space_like(space, pt)
        coords = point_flat_coords(space, pt, Side.COMPACT)
        inside = in_half_region(coords, 0.5)
        # distance from the largest lattice coordinate to the 1/4 box wall
        gap = 0.25 - float(np.max(np.abs(coords.coords)))
        worst_margin = min(worst_margin, gap)
        if near_boundary:
            boundary_gap = max(boundary_gap, gap)
            ok = ok and 0.0 < gap < 1e-5
        failures += not (ok and inside and gap > 0.0)
    return PropertyReport(f"image-region-{embedding_id}/" + space.label(), samples,
                          failures, float(worst_margin), seed, None,
                          details={"region_fraction": 0.5,
                                   "near_boundary_gap": boundary_gap})


def check_cut_loci_grassmannian(space, samples: int = 100,
                                seed: int = DEFAULT_SEED) -> PropertyReport:
    """At the cut radius the image subspace meets the orthocomplement of the
    base point; strictly before it, it does not.

    Along a unit flat direction the top block of the geodesic frame is
    diagonal with entries cos(t x_i), so the first rank drop happens
    exactly at t = t0; the residual reported is the largest violation of
    rank-deficiency at t0 respectively full rank at t0 - 0.01.
    """
    if space.family is not Family.REAL_GRASSMANNIAN:
        raise DomainError("cut loci structure check runs on real Grassmannians")
    rng = _generator(samples, seed)
    failures = 0
    worst = 0.0
    for _ in range(samples):
        xl = random_unit_flat(space, rng)
        t0 = cut_radius_closed(xl, space.lattice)
        flat = FlatCoordinates(space, xl).matrix(Side.COMPACT)
        for t, expect_deficient in ((t0, True), (t0 - 0.01, False)):
            frame = nk.expm(t * flat)[:, : space.n]
            svals = np.linalg.svd(frame[: space.n, :], compute_uv=False)
            smallest = float(svals[-1])
            if expect_deficient:
                worst = max(worst, smallest)
                failures += smallest > 1e-10
            else:
                failures += smallest < 1e-3
    return PropertyReport("cut-loci/" + space.label(), samples, failures,
                          worst, seed, 1e-10)


def check_cut_radius_agreement(space, samples: int = 1000,
                               seed: int = DEFAULT_SEED, tol: float = 1e-12) -> PropertyReport:
    """Brute-force lattice minimization equals the closed form (orthonormal case)."""
    def residual(rng):
        x = random_unit_flat(space, rng)
        return abs(cut_radius_closed(x, space.lattice) - cut_radius_brute(x, space.lattice).radius)
    return _sampled("cut-radius-agreement/" + space.label(), samples, seed, tol, residual)


def check_round_trip(space, samples: int = 500, seed: int = DEFAULT_SEED,
                     tol: float = 1e-9) -> PropertyReport:
    """exp(log(point)) reproduces random space-like points."""
    def residual(rng):
        pt = SubspacePoint(space, np.vstack([np.eye(space.n, dtype=space.dtype),
                                             random_slope(space, rng)]))
        xv = log_noncompact(space, pt)
        return SubspacePoint(space, nk.expm(xv.x)[:, : space.n]).distance(pt)
    return _sampled("round-trip/" + space.label(), samples, seed, tol, residual)


# ---------------------------------------------------------------------------
# trigonometric duality (sphere and hyperbolic plane)


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _boost_x(t):
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


_HYP_J = np.diag([1.0, 1.0, -1.0])


def _sphere_vertices(sides, rng):
    a, b, c = sides
    if not (0 < a < np.pi and 0 < b < np.pi and 0 < c < np.pi and a + b + c < 2 * np.pi):
        raise DomainError("sides do not bound a spherical triangle")
    denom = np.sin(b) * np.sin(c)
    if denom < 1e-12:
        raise DomainError("degenerate spherical triangle")
    cos_a_angle = (np.cos(a) - np.cos(b) * np.cos(c)) / denom
    if abs(cos_a_angle) >= 1.0 - 1e-12:
        raise DomainError("degenerate spherical triangle")
    pole = np.array([0.0, 0.0, 1.0])
    p1 = pole
    p2 = _rot_y(c) @ pole
    p3 = _rot_z(np.arccos(cos_a_angle)) @ _rot_y(b) @ pole
    # scramble with a random rotation so the measurement is generic
    rot = random_orthogonal(rng, 3, special=True)
    return [rot @ p for p in (p1, p2, p3)]


def _hyperbolic_vertices(sides, rng):
    a, b, c = sides
    if min(sides) <= 0 or a >= b + c or b >= a + c or c >= a + b:
        raise DomainError("sides do not bound a hyperbolic triangle")
    denom = np.sinh(b) * np.sinh(c)
    cos_a_angle = (np.cosh(b) * np.cosh(c) - np.cosh(a)) / denom
    if abs(cos_a_angle) >= 1.0 - 1e-12:
        raise DomainError("degenerate hyperbolic triangle")
    base = np.array([0.0, 0.0, 1.0])
    p1 = base
    p2 = _boost_x(c) @ base
    p3 = _rot_z(np.arccos(cos_a_angle)) @ _boost_x(b) @ base
    iso = _rot_z(rng.uniform(0, 2 * np.pi)) @ _boost_x(rng.uniform(0, 1.0)) \
        @ _rot_z(rng.uniform(0, 2 * np.pi))
    return [iso @ p for p in (p1, p2, p3)]


def _measure_sphere(p1, p2, p3):
    def dist(u, v):
        return float(np.arccos(np.clip(u @ v, -1.0, 1.0)))

    def angle(u, v, w):
        tv = v - (u @ v) * u
        tw = w - (u @ w) * u
        return float(np.arccos(np.clip(
            (tv @ tw) / (np.linalg.norm(tv) * np.linalg.norm(tw)), -1.0, 1.0)))

    a, b, c = dist(p2, p3), dist(p1, p3), dist(p1, p2)
    A, B, C = angle(p1, p2, p3), angle(p2, p3, p1), angle(p3, p1, p2)
    return (a, b, c), (A, B, C)


def _measure_hyperbolic(p1, p2, p3):
    def mink(u, v):
        return float(u @ _HYP_J @ v)

    def dist(u, v):
        return float(np.arccosh(max(-mink(u, v), 1.0)))

    def angle(u, v, w):
        tv = v + mink(u, v) * u
        tw = w + mink(u, w) * u
        nv = np.sqrt(mink(tv, tv))
        nw = np.sqrt(mink(tw, tw))
        return float(np.arccos(np.clip(mink(tv, tw) / (nv * nw), -1.0, 1.0)))

    a, b, c = dist(p2, p3), dist(p1, p3), dist(p1, p2)
    A, B, C = angle(p1, p2, p3), angle(p2, p3, p1), angle(p3, p1, p2)
    return (a, b, c), (A, B, C)


def _law_residuals(sides, angles, hyperbolic: bool):
    a, b, c = sides
    A, B, C = angles
    sf = np.sinh if hyperbolic else np.sin
    cf = np.cosh if hyperbolic else np.cos
    sine = max(
        abs(sf(a) * np.sin(B) - sf(b) * np.sin(A)),
        abs(sf(b) * np.sin(C) - sf(c) * np.sin(B)),
        abs(sf(a) * np.sin(C) - sf(c) * np.sin(A)),
    )
    sign = -1.0 if hyperbolic else 1.0
    cosine = max(
        abs(cf(a) - (cf(b) * cf(c) + sign * sf(b) * sf(c) * np.cos(A))),
        abs(cf(b) - (cf(a) * cf(c) + sign * sf(a) * sf(c) * np.cos(B))),
        abs(cf(c) - (cf(a) * cf(b) + sign * sf(a) * sf(b) * np.cos(C))),
    )
    return float(sine), float(cosine)


def _plus_sign_residual(sides, angles):
    # the plus-sign variant of the hyperbolic law of cosines, recorded for
    # reference but never asserted (the minus-sign law is the identity that
    # actually holds; see check_trig_duality)
    a, b, c = sides
    A = angles[0]
    return float(abs(np.cosh(a) - (np.cosh(b) * np.cosh(c) + np.sinh(b) * np.sinh(c) * np.cos(A))))


def check_trig_duality(sides, seed: int = DEFAULT_SEED, tol: float = 1e-8) -> PropertyReport:
    """Law of sines and law of cosines on one triangle, spherical and hyperbolic.

    The triangle with the given sides is built from group elements
    (rotations for the sphere, boosts for the hyperbolic plane), scrambled
    by a random isometry, then all sides and angles are measured back from
    the vertex geometry and plugged into both laws.  The hyperbolic law of
    cosines is asserted with its minus sign; the plus-sign variant's
    residual is recorded in the details for comparison, not asserted.
    """
    rng = np.random.default_rng(seed)
    sides = tuple(float(s) for s in sides)
    worst = 0.0
    failures = 0
    count = 0
    details = {}

    spherical_ok = all(0 < s < np.pi for s in sides) and sum(sides) < 2 * np.pi
    if spherical_ok:
        verts = _sphere_vertices(sides, rng)
        sm, am = _measure_sphere(*verts)
        sine, cosine = _law_residuals(sm, am, hyperbolic=False)
        worst = max(worst, sine, cosine)
        failures += (sine > tol) + (cosine > tol)
        details["spherical"] = {"sine": sine, "cosine": cosine}
        count += 1

    verts = _hyperbolic_vertices(sides, rng)
    sm, am = _measure_hyperbolic(*verts)
    sine, cosine = _law_residuals(sm, am, hyperbolic=True)
    worst = max(worst, sine, cosine)
    failures += (sine > tol) + (cosine > tol)
    details["hyperbolic"] = {"sine": sine, "cosine": cosine}
    details["hyperbolic_plus_sign_residual"] = _plus_sign_residual(sm, am)
    count += 1

    return PropertyReport("trig-duality", count, failures, worst, seed, tol, details)


def check_trig_duality_random(samples: int = 100, seed: int = DEFAULT_SEED,
                              tol: float = 1e-8) -> PropertyReport:
    """Both laws on random triangles, measured from random group orbits."""
    rng = _generator(samples, seed)
    worst = 0.0
    failures = 0
    plus_worst = 0.0
    done = 0
    while done < samples:
        # random spherical triangle from three rotated copies of the pole
        pts = [random_orthogonal(rng, 3, special=True) @ np.array([0.0, 0.0, 1.0])
               for _ in range(3)]
        sm, am = _measure_sphere(*pts)
        if min(sm) < 0.2 or max(sm) > 2.5 or min(am) < 0.2 or max(am) > 2.9:
            continue
        sine, cosine = _law_residuals(sm, am, hyperbolic=False)
        worst = max(worst, sine, cosine)
        failures += (sine > tol) + (cosine > tol)

        # random hyperbolic triangle from three boosted copies of the apex
        pts = []
        for _ in range(3):
            iso = _rot_z(rng.uniform(0, 2 * np.pi)) @ _boost_x(rng.uniform(0.2, 1.6))
            pts.append(iso @ np.array([0.0, 0.0, 1.0]))
        sm, am = _measure_hyperbolic(*pts)
        if min(sm) < 0.2 or max(sm) > 4.0 or min(am) < 0.05:
            continue
        sine, cosine = _law_residuals(sm, am, hyperbolic=True)
        worst = max(worst, sine, cosine)
        failures += (sine > tol) + (cosine > tol)
        plus_worst = max(plus_worst, _plus_sign_residual(sm, am))
        done += 1
    return PropertyReport("trig-duality-random", samples, failures, worst, seed, tol,
                          details={"hyperbolic_plus_sign_worst": plus_worst})


# ---------------------------------------------------------------------------
# suite


def catalog_spaces():
    return [make_space(f, n, m) for f, n, m in CATALOG]


ALL_FAMILIES = frozenset(Family)
GRASSMANNIANS = frozenset({Family.REAL_GRASSMANNIAN, Family.COMPLEX_GRASSMANNIAN})

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

    Raises
    ------
    DomainError
        If ``prop`` names a property claimed on none of the spaces.
    """
    spaces = catalog_spaces() if spaces is None else spaces
    reports = []
    for name, check, extra, families in CLAIMS:
        if prop not in ("all", name):
            continue
        kw = {"samples": samples, "seed": seed}
        if tol is not None and "tol" in inspect.signature(check).parameters:
            kw["tol"] = tol
        targets = [()] if families is None else [(sp,) for sp in spaces if sp.family in families]
        reports += [check(*target, *extra, **kw) for target in targets]
    if not reports:
        raise DomainError(f"property {prop!r} is not claimed on the family of "
                          + ", ".join(sp.label() for sp in spaces))
    return reports
