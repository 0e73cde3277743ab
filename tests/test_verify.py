"""Tests for the property-report machinery and the triangle checks."""

import copy
import functools

import numpy as np
import pytest

from dualspace import numkernel as nk
from dualspace import verify
from dualspace.embeddings import _slope_factors
from dualspace.errors import DomainError, NumericalError
from dualspace.spaces import (
    Family,
    Side,
    SubspacePoint,
    TangentVector,
    make_space,
    transitivity_element,
)

from expm_oracle import expm
from flat_oracle import cartan_basis, random_slope

GR23 = make_space(Family.REAL_GRASSMANNIAN, 2, 3)

# equilateral hyperbolic triangle with unit sides: the angle solves the
# minus-sign law of cosines, cos A = cosh(1) / (cosh(1) + 1)
COS_A_EQUILATERAL = 0.6067761335170363
A_EQUILATERAL = 0.9187978721780273


# ---------------------------------------------------------------------------
# sampling


HAAR_DRAWS = 20_000


def haar_moments_hold(q) -> bool:
    """Whether the sample moments of a stack of draws match those of Haar
    measure on O(k) or U(k) within 5 standard errors of the sample mean:
    E[Q_ij] = 0, E|Q_ij|^2 = 1/k and E|tr Q|^2 = 1."""
    k = q.shape[-1]
    tr2 = np.abs(np.trace(q, axis1=-2, axis2=-1)) ** 2
    for values, expected in ((q.real, 0.0), (q.imag, 0.0), (np.abs(q) ** 2, 1.0 / k),
                             (tr2, 1.0)):
        err = np.std(values, axis=0) / np.sqrt(len(values))
        if not (np.abs(np.mean(values, axis=0) - expected) <= 5.0 * err + 1e-12).all():
            return False
    return True


@pytest.mark.parametrize("k, complex_, special", [(3, False, False), (3, False, True),
                                                  (2, True, False)],
                         ids=["O(3)", "SO(3)", "U(2)"])
def test_random_orthogonal_has_haar_moments(k, complex_, special):
    q = verify.random_orthogonal(np.random.default_rng(97), k, complex_, special,
                                 size=HAAR_DRAWS)
    assert np.abs(nk.herm(q) @ q - np.eye(k)).max() <= 1e-14
    if special:
        assert np.abs(np.linalg.det(q) - 1.0).max() <= 1e-14
    assert haar_moments_hold(q)


@pytest.mark.parametrize("space", [make_space(Family.REAL_GRASSMANNIAN, 2, 3),
                                   make_space(Family.COMPLEX_GRASSMANNIAN, 1, 2)],
                         ids=lambda sp: sp.label())
def test_isotropy_blocks_have_haar_moments(space):
    n = space.n
    k = verify.random_isotropy(space, np.random.default_rng(101), size=HAAR_DRAWS)
    assert not k[:, :n, n:].any() and not k[:, n:, :n].any()  # exactly zero off the blocks
    for block in (k[:, :n, :n], k[:, n:, n:]):
        assert haar_moments_hold(block)


@pytest.mark.parametrize("k, complex_", [(3, False), (2, True)], ids=["O(3)", "U(2)"])
def test_haar_moments_reject_qr_without_the_phase_fix(k, complex_):
    rng = np.random.default_rng(103)
    g = rng.standard_normal((HAAR_DRAWS, k, k))
    if complex_:
        g = g + 1j * rng.standard_normal((HAAR_DRAWS, k, k))
    assert not haar_moments_hold(np.linalg.qr(g)[0])


def test_random_orthogonal_refuses_a_singular_draw():
    class Zeros:
        def standard_normal(self, shape):
            return np.zeros(shape)

    with pytest.raises(NumericalError):
        verify.random_orthogonal(Zeros(), 3)


@pytest.mark.parametrize("space", verify.catalog_spaces(), ids=lambda sp: sp.label())
def test_random_coset_is_the_boost_of_random_slope(space):
    for seed in (107, 109):
        got = verify.random_coset(space, np.random.default_rng(seed), size=200).a
        y = random_slope(space, np.random.default_rng(seed), size=200)
        want = transitivity_element(space, y)
        scale = np.abs(want).max(axis=(-2, -1))
        assert (np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * scale).all()


def test_reports_are_reproducible():
    r1 = verify.check_triple_equality(GR23, samples=20, seed=42)
    r2 = verify.check_triple_equality(GR23, samples=20, seed=42)
    assert r1.to_dict() == r2.to_dict()
    r3 = verify.check_triple_equality(GR23, samples=20, seed=43)
    assert r3.worst_residual != r1.worst_residual


# ---------------------------------------------------------------------------
# the memo of opening draws


def held():
    """How many opening draws verify's memo holds."""
    return verify._shared_draw.cache_info().currsize


def fresh_draws(monkeypatch):
    """Make every check build its opening draw afresh, with a memo that
    holds none."""
    monkeypatch.setattr(verify, "_shared_draw",
                        functools.lru_cache(maxsize=0)(verify._shared_draw.__wrapped__))


def claimed_rows(space):
    return [(check, extra) for _, check, extra, families in verify.CLAIMS
            if families is not None and space.family in families]


def space_outer_pass(samples, seed, reverse=False):
    """Every claimed check, space by space as the benchmark's op runs them,
    or within each space in reverse order."""
    reports = []
    for space in verify.catalog_spaces():
        rows = claimed_rows(space)
        for check, extra in rows[::-1] if reverse else rows:
            reports.append(check(space, *extra, samples=samples, seed=seed).to_dict())
    return reports


def test_shared_draws_give_the_reports_of_fresh_ones(monkeypatch):
    # property by property (run_suite) and space by space, in either order
    # within a space: sharing the opening draws changes no report
    shared = ([r.to_dict() for r in verify.run_suite(6, 79)], space_outer_pass(6, 79),
              space_outer_pass(5, 83, reverse=True))
    fresh_draws(monkeypatch)
    fresh = ([r.to_dict() for r in verify.run_suite(6, 79)], space_outer_pass(6, 79),
             space_outer_pass(5, 83, reverse=True))
    assert shared == fresh
    # the two orders run the same checks: every report but the space-free one
    by_space = [r for r in shared[0] if r["property"] != "trig-duality-random"]
    assert sorted(by_space, key=str) == sorted(shared[1], key=str)


def test_opening_draw_is_what_a_lone_generator_draws():
    # random_coset's cosets and then the isotropy stack, in the generator's
    # order, bit for bit: the cosets as the unmoved half of the stack
    draw = verify._shared_draw(GR23, 4, 3)
    rng = np.random.default_rng(3)
    coset = verify.random_coset(GR23, rng, size=4)
    k = verify.random_isotropy(GR23, rng, size=4)
    assert np.array_equal(draw.isotropy, k)
    assert np.array_equal(draw.moved_and_unmoved.a, np.concatenate([k @ coset.a, coset.a]))


def test_stored_draws_are_read_only():
    for which in ("p", "g", "f"):
        verify.check_equivariance(GR23, which, samples=4, seed=3)
    draw = verify._shared_draw(GR23, 4, 3)
    both = draw.moved_and_unmoved
    # the stack's point keeps its slope and slope SVD read-only as every
    # kept point does (embeddings._kept), and so do its kept images
    arrays = [draw.isotropy, both.a, both.point().rep,
              *_slope_factors(GR23, both.point()),
              *(getattr(verify.embed(GR23, which, both), name)
                for which in ("g", "f") for name in ("rep", "basis"))]
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        draw.isotropy[0, 0, 0] = 0.5


@pytest.mark.parametrize("space", [GR23, make_space(Family.COMPLEX_GRASSMANNIAN, 2, 2)],
                         ids=lambda sp: sp.label())
@pytest.mark.parametrize("samples", [2, 64])
def test_triple_and_equivariance_reports_do_not_depend_on_the_order(space, samples):
    # whichever of them reads the shared stack first, the others read the
    # point, frame, slope SVD and images it kept: every report is the one
    # the check gives alone
    checks = [(verify.check_triple_equality, ())] + [
        (verify.check_equivariance, (which,)) for which in ("p", "g", "f")] + [
        (verify.check_round_trip, ())]

    def report(check, extra):
        return check(space, *extra, samples=samples, seed=31).to_dict()

    alone = []
    for check, extra in checks:
        verify._shared_draw.cache_clear()
        alone.append(report(check, extra))
    verify._shared_draw.cache_clear()
    assert [report(check, extra) for check, extra in checks] == alone
    verify._shared_draw.cache_clear()
    assert [report(check, extra) for check, extra in checks[::-1]] == alone[::-1]


def test_a_kept_points_frame_is_read_only():
    # the frame equivariance-p reads off the shared stack, and -f reuses,
    # cannot be changed under a later check of the same (seed, samples)
    for which in ("p", "g", "f"):
        verify.check_equivariance(GR23, which, samples=4, seed=3)
    draw = verify._shared_draw(GR23, 4, 3)
    assert draw.moved_and_unmoved.point().basis.flags.writeable is False


def test_a_new_seed_or_sample_count_drops_the_store():
    # the memo holds one draw: a repeated key returns it, and another space
    # (by identity, so a copy too), sample count or seed replaces it
    gr11 = make_space(Family.REAL_GRASSMANNIAN, 1, 1)
    first = verify._shared_draw(GR23, 4, 3)
    assert verify._shared_draw(GR23, 4, 3) is first and held() == 1
    for space, samples, seed in ((gr11, 4, 3), (copy.copy(GR23), 4, 3), (GR23, 5, 3),
                                 (GR23, 4, 4)):
        other = verify._shared_draw(space, samples, seed)
        assert other is not first and held() == 1
        assert other.isotropy.shape == (samples, space.dim, space.dim)
        assert verify._shared_draw(space, samples, seed) is other
    again = verify._shared_draw(GR23, 4, 3)
    assert again is not first
    assert np.array_equal(again.isotropy, first.isotropy)
    assert np.array_equal(again.moved_and_unmoved.a, first.moved_and_unmoved.a)
    verify._shared_draw.cache_clear()
    assert held() == 0


@pytest.mark.parametrize("seed", [None, 1.5, -1])
def test_a_check_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # a report is reproducible from (property, seed, samples) only, so no
    # check draws from fresh entropy, and none keeps a draw it refused
    for _, check, extra, families in verify.CLAIMS:
        with pytest.raises(DomainError, match="non-negative integer seed"):
            check(*claimed_target(families), *extra, samples=4, seed=seed)
    assert held() == 0


def test_a_refused_stack_is_not_kept(monkeypatch):
    # an isotropy stack outside the group makes the stack fail its form
    # check: the failure is raised again on the next call, never stored
    def scaled(space, rng, size=None):
        return np.broadcast_to(2.0 * np.eye(space.dim), (size, space.dim, space.dim))

    monkeypatch.setattr(verify, "random_isotropy", scaled)
    for which in ("p", "g"):
        with pytest.raises(DomainError, match="defining form"):
            verify.check_equivariance(GR23, which, samples=4, seed=3)
        assert held() == 0
    monkeypatch.undo()
    assert verify.check_equivariance(GR23, "p", samples=4, seed=3).passed


def test_triple_equality_report():
    r = verify.check_triple_equality(GR23, samples=50, seed=7)
    assert r.failures == 0
    assert r.worst_residual <= 1e-9
    assert r.passed


def test_equivariance_reports():
    for which in ("p", "g", "f"):
        r = verify.check_equivariance(GR23, which, samples=40, seed=11)
        assert r.failures == 0, which
        assert r.worst_residual <= 1e-9


def test_image_region_report_with_boundary_probes():
    r = verify.check_image_region(GR23, "f", samples=60, seed=13)
    assert r.failures == 0
    assert 0.0 < r.worst_residual          # never crosses the wall
    assert 0.0 < r.details["near_boundary_gap"] < 1e-5


def test_image_region_b_on_sphere():
    sphere = make_space(Family.CIRCLE_SPHERE, 1, 2)
    r = verify.check_image_region(sphere, "b", samples=60, seed=17)
    assert r.failures == 0
    assert r.details["region_fraction"] == 0.25
    with pytest.raises(DomainError):
        verify.check_image_region(GR23, "b", samples=5, seed=17)


def test_cut_loci_report():
    r = verify.check_cut_loci_grassmannian(GR23, samples=40, seed=19)
    assert r.failures == 0
    assert r.worst_residual <= 1e-10


def test_cut_loci_double_degeneracy_hits_corank_two():
    # equal flat coefficients: both principal cosines vanish together at
    # the cut radius, so the top block drops rank by two
    from dualspace import numkernel as nk
    from dualspace.lattice import cut_radius_closed
    from dualspace.spaces import FlatCoordinates, Side

    x = np.array([1.0, 1.0])
    t0 = cut_radius_closed(x, GR23.lattice)
    xu = x / np.sqrt(x @ GR23.lattice.gram @ x)
    flat = TangentVector(GR23, Side.COMPACT, FlatCoordinates(GR23, t0 * xu).matrix(Side.COMPACT))
    top = expm(flat.x)[:2, :2]
    svals = np.linalg.svd(top, compute_uv=False)
    assert np.all(svals <= 1e-10)


def test_cut_radius_agreement_report():
    r = verify.check_cut_radius_agreement(GR23, samples=200, seed=23)
    assert r.failures == 0
    assert r.worst_residual <= 1e-12


def test_round_trip_report():
    r = verify.check_round_trip(GR23, samples=60, seed=29)
    assert r.failures == 0
    assert r.worst_residual <= 1e-9


# ---------------------------------------------------------------------------
# triangles


POLE = np.array([0.0, 0.0, 1.0])


def sphere_triangle(sides, rng):
    """Measured (sides, angles) of the spherical triangle with the given
    sides: the pole, a point at distance c along x and one at distance b,
    at the angle the law of cosines gives, moved by a random rotation."""
    a, b, c = sides
    angle = np.arccos((np.cos(a) - np.cos(b) * np.cos(c)) / (np.sin(b) * np.sin(c)))
    verts = (POLE, np.array([np.sin(c), 0.0, np.cos(c)]),
             np.array([np.sin(b) * np.cos(angle), np.sin(b) * np.sin(angle), np.cos(b)]))
    rot = verify.random_orthogonal(rng, 3, special=True)
    return verify._measure(*(rot @ p for p in verts), 1.0)


def rot_z(t):
    """Rotation by ``t`` about the z axis."""
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def boost_x(t):
    """Boost of rapidity ``t`` along x."""
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def hyperbolic_triangle(sides, rng):
    """As :func:`sphere_triangle` on the hyperboloid, with boosts instead of
    rotations and the minus-sign law of cosines, moved by a random isometry."""
    a, b, c = sides
    angle = np.arccos((np.cosh(b) * np.cosh(c) - np.cosh(a)) / (np.sinh(b) * np.sinh(c)))
    verts = (POLE, np.array([np.sinh(c), 0.0, np.cosh(c)]),
             np.array([np.sinh(b) * np.cos(angle), np.sinh(b) * np.sin(angle), np.cosh(b)]))
    iso = rot_z(rng.uniform(0, 2 * np.pi)) @ boost_x(rng.uniform(0, 1.0)) \
        @ rot_z(rng.uniform(0, 2 * np.pi))
    return verify._measure(*(iso @ p for p in verts), -1.0)


def test_trig_octant_triangle():
    rng = np.random.default_rng(1)
    sides = (np.pi / 2, np.pi / 2, np.pi / 2)
    sm, am = sphere_triangle(sides, rng)
    np.testing.assert_allclose(am, [np.pi / 2] * 3, atol=1e-12)
    sine, cosine = verify._law_residuals(sm, am, 1.0)
    assert sine <= 1e-12
    assert cosine <= 1e-12
    sm, am = hyperbolic_triangle(sides, rng)
    assert max(verify._law_residuals(sm, am, -1.0)) <= 1e-8


def test_trig_equilateral_hyperbolic_angle():
    sides, angles = hyperbolic_triangle((1.0, 1.0, 1.0), np.random.default_rng(2))
    np.testing.assert_allclose(sides, [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(angles, [A_EQUILATERAL] * 3, atol=1e-12)
    assert np.cos(angles[0]) == pytest.approx(COS_A_EQUILATERAL, abs=1e-12)
    # consistency of the frozen value with its defining identity
    assert COS_A_EQUILATERAL == pytest.approx(np.cosh(1.0) / (np.cosh(1.0) + 1.0), abs=1e-14)


def test_trig_right_spherical_triangle_pythagoras():
    # choose sides with cos a = cos b cos c; the measured angle A is then pi/2
    rng = np.random.default_rng(3)
    b, c = 0.8, 1.1
    a = np.arccos(np.cos(b) * np.cos(c))
    sm, am = sphere_triangle((a, b, c), rng)
    assert am[0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert max(verify._law_residuals(sm, am, 1.0)) <= 1e-8
    sm, am = hyperbolic_triangle((a, b, c), rng)
    assert max(verify._law_residuals(sm, am, -1.0)) <= 1e-8


def test_trig_plus_sign_variant_is_recorded_not_asserted():
    rng = np.random.default_rng(5)
    sm, am = sphere_triangle((1.0, 1.0, 1.0), rng)
    assert max(verify._law_residuals(sm, am, 1.0)) <= 1e-8
    sm, am = hyperbolic_triangle((1.0, 1.0, 1.0), rng)
    assert max(verify._law_residuals(sm, am, -1.0)) <= 1e-8  # the minus-sign law holds
    plus = verify._plus_sign_residual(sm, am)
    # the two variants differ by 2 sinh(b) sinh(c) cos(A)
    expected = 2.0 * np.sinh(1.0) ** 2 * COS_A_EQUILATERAL
    assert plus == pytest.approx(expected, abs=1e-10)
    r = verify.check_trig_duality_random(samples=5, seed=5)
    assert r.passed
    assert r.details["hyperbolic_plus_sign_worst"] > r.tolerance


def test_trig_random_draws_pending_triangles_in_batches(monkeypatch):
    calls = {"sphere": [], "hyperbolic": [], "rotations": []}

    def counted(key, fn):
        def wrapper(rng, count, *args, **kwargs):
            calls[key].append(count)
            return fn(rng, count, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "_sphere_triangles",
                        counted("sphere", verify._sphere_triangles))
    monkeypatch.setattr(verify, "_hyperbolic_triangles",
                        counted("hyperbolic", verify._hyperbolic_triangles))
    random_orthogonal = verify.random_orthogonal

    def rotations(rng, k, *args, size=None, **kwargs):
        calls["rotations"].append((k, size))
        return random_orthogonal(rng, k, *args, size=size, **kwargs)

    monkeypatch.setattr(verify, "random_orthogonal", rotations)
    r = verify.check_trig_duality_random(samples=200, seed=31)
    assert r.passed
    for key in ("sphere", "hyperbolic"):
        counts = calls[key]
        # all triangles at once, then only the rejected ones: a few draw calls, not one per triangle
        assert counts[0] == 200 and len(counts) <= 12, key
        assert all(later <= earlier for earlier, later in zip(counts, counts[1:])), key
    # one stack of three rotations per spherical triangle, one stack per draw call
    assert calls["rotations"] == [(3, 3 * count) for count in calls["sphere"]]


def test_trig_random_batch():
    r = verify.check_trig_duality_random(samples=30, seed=31)
    assert r.failures == 0
    assert r.worst_residual <= 1e-8
    assert r.details["hyperbolic_plus_sign_worst"] > 0.0


def test_run_suite_smoke():
    reports = verify.run_suite(samples=8, seed=37)
    assert all(r.failures == 0 for r in reports)
    names = {r.property_name.split("/")[0] for r in reports}
    assert {"triple-equality", "equivariance-p", "equivariance-g", "equivariance-f",
            "image-region-f", "image-region-b", "cut-radius-agreement",
            "round-trip", "cut-loci", "trig-duality-random"} <= names


def test_run_suite_runs_every_claimed_row():
    reports = verify.run_suite(samples=2, seed=41)
    # 8 Grassmannians x 7 rows, 5 real ones x cut loci, oriented2(2,2) and
    # the two spheres x (equivariance p/g/f, cut radius, round trip), b on
    # both spheres, and the triangle laws once
    assert len(reports) == 56 + 5 + 5 + 2 * 6 + 1
    assert all(r.samples == 2 for r in reports)
    names = {r.property_name for r in reports}
    assert "image-region-b/sphere(1,1)" in names
    assert "cut-loci/gr-real(1,1)" in names
    off_grassmannian = {n.split("/")[0] for n in names if "/gr-" not in n}
    assert not off_grassmannian & {"triple-equality", "image-region-f", "cut-loci"}


def test_run_suite_runs_space_by_space_in_claims_order(monkeypatch):
    # one space's draw is held at a time and cleared once its checks have
    # run, while the reports keep the order of the rows of CLAIMS
    calls = []  # (space, draws held before the call), one per opening draw
    opening = verify._shared_draw

    def holding(space, samples, seed):
        calls.append((space, held()))
        return opening(space, samples, seed)

    holding.cache_info, holding.cache_clear = opening.cache_info, opening.cache_clear
    spaces = verify.catalog_spaces()
    monkeypatch.setattr(verify, "_shared_draw", holding)
    reports = [r.to_dict() for r in verify.run_suite(samples=2, seed=43, spaces=spaces)]
    firsts = [i for i, (space, _) in enumerate(calls) if i == 0 or calls[i - 1][0] is not space]
    # every space's first check finds no draw held, and its later ones its own
    assert [calls[i][0] for i in firsts] == spaces
    assert [n for _, n in calls] == [0 if i in firsts else 1 for i in range(len(calls))]
    assert held() == 0
    row_by_row = [check(*target, *extra, samples=2, seed=43).to_dict()
                  for _, check, extra, families in verify.CLAIMS
                  for target in ([()] if families is None else
                                 [(sp,) for sp in spaces if sp.family in families])]
    assert reports == row_by_row


def test_run_suite_unclaimed_property_names_family():
    oriented = make_space(Family.ORIENTED_TWO_PLANE, 2, 2)
    with pytest.raises(DomainError, match="triple.*oriented-2plane"):
        verify.run_suite(2, spaces=[oriented], prop="triple")
    r, = verify.run_suite(2, spaces=[oriented], prop="roundtrip", tol=1e-6)
    assert r.tolerance == 1e-6


def test_sampled_counts_nan_as_failure():
    values = np.array([1e-12, float("nan"), 1e-13])
    r = verify._report("probe", 3, 0, 1e-9, values)
    assert r.failures == 1
    assert np.isnan(r.worst_residual)
    assert r.details["worst_index"] == 1


@pytest.mark.parametrize("tol, values, ok, failures, worst", [
    # residuals: the failing sample is worst although another is larger
    (1e-9, [5e-10, 1e-12, 8e-10], [True, False, True], 1, 1),
    (1e-9, [2e-9, 1e-12, 3e-9], [False, True, False], 2, 2),
    (1e-9, [5e-10, 1e-12, 8e-10], None, 0, 2),
    # margins: the smallest failing margin, or the smallest of all
    (None, [0.3, 0.2, 0.1], [True, False, True], 1, 1),
    (None, [0.3, 0.2, 0.25], [False, True, False], 2, 2),
    (None, [0.3, 0.1, 0.2], [True, True, True], 0, 1),
    (None, [0.3, float("nan"), -0.1], [True, False, False], 2, 1),
], ids=["residual-one", "residual-two", "residual-pass", "margin-one", "margin-two",
        "margin-pass", "margin-nan"])
def test_the_worst_sample_is_a_failing_one(tol, values, ok, failures, worst):
    r = verify._report("probe", 3, 0, tol, values, ok, extra=1.5)
    assert r.failures == failures
    assert r.details == {"extra": 1.5, "worst_index": worst}
    np.testing.assert_equal(r.worst_residual, values[worst])


def test_report_refuses_values_or_verdicts_of_another_shape():
    with pytest.raises(ValueError, match="3 samples"):
        verify._report("probe", 3, 0, 1e-9, np.zeros(2))
    with pytest.raises(ValueError, match="3 samples"):
        verify._report("probe", 3, 0, None, np.zeros(3), np.ones(2, dtype=bool))


def test_failures_count_samples_in_every_report():
    reports = verify.run_suite(10, seed=1, tol=0.0)
    assert all(0 <= r.failures <= r.samples for r in reports)
    trig, = (r for r in reports if r.property_name == "trig-duality-random")
    assert trig.failures == trig.samples == 10


every_claimed_check = pytest.mark.parametrize(
    "check, extra, families", [row[1:] for row in verify.CLAIMS],
    ids=["-".join((row[0],) + row[2]) for row in verify.CLAIMS])


def claimed_target(families):
    """The space argument of a check claimed on ``families``: none for the
    space-free row, else the first catalog space of those families."""
    return () if families is None else (
        next(sp for sp in verify.catalog_spaces() if sp.family in families),)


@pytest.mark.parametrize("samples", [0, -1])
@every_claimed_check
def test_every_claimed_check_refuses_empty_batches(check, extra, families, samples):
    with pytest.raises(DomainError, match="at least one sample"):
        check(*claimed_target(families), *extra, samples=samples)


@pytest.mark.parametrize("samples", [2.5, 2.0, "3"])
@every_claimed_check
def test_every_claimed_check_refuses_a_sample_count_that_is_not_an_integer(
        check, extra, families, samples):
    # refused as the seed is, before any draw: not a numpy or comparison TypeError
    with pytest.raises(DomainError, match="integer count of at least one sample"):
        check(*claimed_target(families), *extra, samples=samples)
    assert held() == 0


def test_run_suite_refuses_zero_samples():
    with pytest.raises(DomainError, match="at least one sample"):
        verify.run_suite(0)


def test_round_trip_compares_points(monkeypatch):
    calls = []
    orthonormal_basis = nk.orthonormal_basis

    def counted(l):
        calls.append(len(l))
        return orthonormal_basis(l)

    monkeypatch.setattr(nk, "orthonormal_basis", counted)
    r = verify.check_round_trip(GR23, samples=5, seed=3)
    assert r.passed
    # one frame per point, of both halves of the opening stack [k a, a] and
    # of the points they map back to: one stack each
    assert calls == [10, 10]


def test_equivariance_counts_orientation(monkeypatch):
    embed = verify.embed

    def flipping_embed(space, which, g):
        # same span everywhere, reversed frame orientation on some inputs
        pt = embed(space, which, g)
        rep = pt.rep.copy()
        rep[g.a[..., -1, 0] <= 0, :, -1] *= -1.0
        return SubspacePoint(space, rep)

    grassmannian = verify.check_equivariance(GR23, "f", samples=20, seed=13)
    monkeypatch.setattr(verify, "embed", flipping_embed)
    for sp in (make_space(Family.ORIENTED_TWO_PLANE, 2, 2), make_space(Family.CIRCLE_SPHERE, 1, 2)):
        for which in ("p", "g", "f"):
            r = verify.check_equivariance(sp, which, samples=20, seed=13)
            assert r.failures > 0, (sp.label(), which)
            assert r.worst_residual == np.inf
    flipped = verify.check_equivariance(GR23, "f", samples=20, seed=13)
    assert flipped.passed
    assert flipped.worst_residual == pytest.approx(grassmannian.worst_residual, abs=1e-15)


def test_equivariance_fails_a_map_that_is_not_equivariant(monkeypatch):
    embed = verify.embed
    spaces = (GR23, make_space(Family.COMPLEX_GRASSMANNIAN, 1, 2),
              make_space(Family.ORIENTED_TWO_PLANE, 2, 2), make_space(Family.CIRCLE_SPHERE, 1, 2))

    def turned_embed(space, which, g):
        # every frame of the stack turned by one fixed rotation of the (0, n)
        # plane, which moves the base point, so it is not an isotropy element
        turn = nk.exp_tangent(0.3 * cartan_basis(space, Side.COMPACT)[0], hermitian=False)
        return SubspacePoint(space, turn @ embed(space, which, g).rep)

    for sp in spaces:
        for which in ("p", "g", "f"):
            assert verify.check_equivariance(sp, which, samples=20, seed=17).passed
    monkeypatch.setattr(verify, "embed", turned_embed)
    for sp in spaces:
        for which in ("p", "g", "f"):
            r = verify.check_equivariance(sp, which, samples=20, seed=17)
            assert r.failures > 0, (sp.label(), which)
            assert r.worst_residual > 1e-3, (sp.label(), which)
