"""Tests for the four embeddings and their supporting maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspace import numkernel as nk
from dualspace.embeddings import (
    GroupElement,
    b_embed_rank1,
    embed,
    f_embed,
    f_flat_rank1,
    g_embed,
    h_flat,
    log_compact,
    log_noncompact,
    p_embed,
    point_flat_coords,
    space_like,
)
from dualspace.embeddings import _checked_slope_svd
from dualspace.errors import DomainError, NumericalError
from dualspace.spaces import (
    Family,
    FlatCoordinates,
    Side,
    SubspacePoint,
    TangentVector,
    in_group,
    in_isotropy,
    _block_diag,
    make_space,
    transitivity_element,
)
from dualspace.lattice import region_fraction
from dualspace.verify import catalog_spaces, random_coset, random_orthogonal

from flat_oracle import flat_decompose

GR11 = make_space(Family.REAL_GRASSMANNIAN, 1, 1)
GR22 = make_space(Family.REAL_GRASSMANNIAN, 2, 2)
GR23 = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
GC12 = make_space(Family.COMPLEX_GRASSMANNIAN, 1, 2)
SPHERE = make_space(Family.CIRCLE_SPHERE, 1, 2)

# frozen values, all evaluated directly from the defining elementary
# functions at high precision
H_AT_HALF = -0.23625313549946275          # -arctan(tanh(pi/2))/pi
B_AT_ONE = 0.8657694832396586             # 2*arctan(tanh(1/2))
F_FLAT_AT_ONE = 0.9607621582674589        # 4*arctan(tanh(1/4))
THETA_BOOST1 = -0.6508801680230075        # -arctan(tanh(1))


def boost_coset(space, t):
    a = np.eye(space.dim)
    a[0, 0] = a[space.n, space.n] = np.cosh(t)
    a[0, space.n] = a[space.n, 0] = np.sinh(t)
    return GroupElement(space, Side.NONCOMPACT, a)


def capped(y, cap=0.9):
    top = np.linalg.svd(y, compute_uv=False)[0]
    return y * (cap / top) if top > cap else y


def coset_from_slope(space, y):
    return GroupElement(space, Side.NONCOMPACT, transitivity_element(space, y))


def graph_point(space, y):
    return SubspacePoint(space, np.vstack([np.eye(space.n, dtype=space.dtype), y]))


# ---------------------------------------------------------------------------
# the flat contraction


def test_h_flat_fixes_zero():
    out = h_flat(FlatCoordinates(GR23, np.zeros(2)))
    np.testing.assert_allclose(out.coords, 0.0, atol=1e-15)


def test_h_flat_frozen_value():
    out = h_flat(FlatCoordinates(GR11, np.array([0.5])))
    assert out.coords[0] == pytest.approx(H_AT_HALF, abs=1e-14)


def test_h_flat_saturates_at_quarter():
    out = h_flat(FlatCoordinates(GR11, np.array([30.0])))
    assert -0.25 < out.coords[0] < -0.25 + 1e-9
    out = h_flat(FlatCoordinates(GR11, np.array([-30.0])))
    assert 0.25 - 1e-9 < out.coords[0] < 0.25


@settings(max_examples=50, deadline=None)
@given(st.floats(-20, 20))
def test_h_flat_is_odd(x):
    def h1(v):
        return h_flat(FlatCoordinates(GR11, np.array([v]))).coords[0]

    assert h1(-x) == pytest.approx(-h1(x), abs=1e-15)


def test_h_flat_strictly_monotone_on_reachable_range():
    # strictly decreasing (the contraction carries a minus sign) wherever
    # tanh has not saturated, which covers every admissible coset
    grid = np.linspace(-3.0, 3.0, 61)
    vals = [h_flat(FlatCoordinates(GR11, np.array([v]))).coords[0] for v in grid]
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# rank-1 closed forms


def test_b_embed_values():
    assert b_embed_rank1(0.0) == 0.0
    assert b_embed_rank1(1.0) == pytest.approx(B_AT_ONE, abs=1e-14)
    assert abs(b_embed_rank1(20.0)) < np.pi / 2
    assert b_embed_rank1(20.0) == pytest.approx(np.pi / 2, abs=1e-8)
    assert b_embed_rank1(-1.0) == pytest.approx(-B_AT_ONE, abs=1e-14)


def test_f_flat_rank1_values():
    assert f_flat_rank1(0.0) == 0.0
    assert f_flat_rank1(1.0) == pytest.approx(F_FLAT_AT_ONE, abs=1e-14)
    assert abs(f_flat_rank1(40.0)) < np.pi
    assert f_flat_rank1(40.0) == pytest.approx(np.pi, abs=1e-8)


def test_b_embed_rejects_nonfinite():
    with pytest.raises(DomainError):
        b_embed_rank1(np.inf)


def test_b_embed_takes_an_array():
    ts = np.array([-20.0, -1.0, 0.0, 1.0, 14.0])
    assert type(b_embed_rank1(1.0)) is float
    np.testing.assert_array_equal(b_embed_rank1(ts), [b_embed_rank1(t) for t in ts])
    with pytest.raises(DomainError):
        b_embed_rank1(np.array([0.0, np.nan]))


def test_sphere_matrix_pipeline_matches_flat_profile():
    # metric scale 2 on the sphere: rapidity t/2 sits at metric distance t;
    # the circle case (trivial isotropy) exercises the signed-coefficient path
    circle = make_space(Family.CIRCLE_SPHERE, 1, 1)
    for sp in (SPHERE, circle):
        for t in (0.3, 1.0, 2.5, -0.8, -2.0):
            g = boost_coset(sp, t / 2.0)
            pt = f_embed(sp, g)
            raw_angle = np.arctan2(-pt.rep[1, 0], pt.rep[0, 0])
            assert 2.0 * raw_angle == pytest.approx(-f_flat_rank1(t), abs=1e-12)


# ---------------------------------------------------------------------------
# space_like


def test_space_like_base_point_and_timelike_plane():
    assert space_like(GR11, GR11.base_point())
    timelike = SubspacePoint(GR11, np.array([[0.0], [1.0]]))
    assert not space_like(GR11, timelike)


def test_space_like_boundary_along_flat():
    # exp(t X) . o is space-like exactly while every rotation angle stays
    # below pi/4
    x = FlatCoordinates(GR22, np.array([1.0, 0.5]) / np.pi)
    flat = TangentVector(GR22, Side.COMPACT, x.matrix(Side.COMPACT)).x
    t_boundary = np.pi / 4.0  # max coefficient is 1
    for t, expected in ((t_boundary - 1e-3, True), (t_boundary + 1e-3, False)):
        rep = nk.expm(t * flat)[:, :2]
        assert space_like(GR22, SubspacePoint(GR22, rep)) is expected


@pytest.mark.parametrize("space", catalog_spaces(), ids=lambda sp: sp.label())
def test_space_like_of_a_point_equals_that_of_a_fresh_copy(space):
    # f keeps its slope SVD on the coset's point; the verdicts read off the
    # kept slopes equal those of points that read their slopes anew
    sigma = np.array([0.0, 0.5, 0.95, 1.0 - 1e-6])
    g = random_coset(space, np.random.default_rng(89), sigma_max=sigma, size=len(sigma))
    for which in ("f", "p", "g"):
        pt = embed(space, which, g)
        first = space_like(space, pt)
        point_flat_coords(space, pt, Side.COMPACT)
        fresh = SubspacePoint(space, pt.rep)
        assert np.array_equal(space_like(space, pt), space_like(space, fresh)), which
        assert np.array_equal(space_like(space, pt), first), which


def test_a_refused_slope_read_is_kept_for_space_like():
    # the boundary boost: f refuses the slope 1 it reads, p reports it
    g = boost_coset(GR11, 20.0)
    with pytest.raises(NumericalError):
        f_embed(GR11, g)
    fresh = SubspacePoint(GR11, g.point().rep)
    assert space_like(GR11, g.point()) is space_like(GR11, fresh) is False
    timelike = SubspacePoint(GR11, np.array([[0.0], [1.0]]))
    assert space_like(GR11, timelike) is space_like(GR11, timelike) is False


def test_space_like_flips_at_unit_slope():
    # the top singular value of the slope crosses 1 between the two cases
    rng = np.random.default_rng(31)
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    z, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    for top, expected in [(0.999, True), (1.001, False)]:
        y = w[:, :2] @ np.diag([top, 0.3]) @ z.T
        assert space_like(GR23, graph_point(GR23, y)) is expected
        if expected:
            transitivity_element(GR23, y)
        else:
            with pytest.raises(DomainError):
                transitivity_element(GR23, y)


def log_calls_space_like(space, point):
    """False iff log_noncompact refuses the point as not space-like; its
    boundary guard (NumericalError) still counts as space-like."""
    try:
        log_noncompact(space, point)
    except DomainError:
        return False
    except NumericalError:
        pass
    return True


@pytest.mark.parametrize(
    "space",
    [GR11, GR23, make_space(Family.COMPLEX_GRASSMANNIAN, 2, 2),
     make_space(Family.ORIENTED_TWO_PLANE, 2, 2)],
    ids=lambda sp: sp.label(),
)
def test_one_space_like_verdict_up_to_the_boundary(space):
    # transitivity_element, space_like and log_noncompact give one verdict
    # on graph points [I; Y] and on coset points A[:, :n], up to 1e-15
    # below slope 1 and just above it
    rng = np.random.default_rng(5)
    cplx = space.field == "complex"
    w = random_orthogonal(rng, space.m, cplx)[:, : space.n]
    z = random_orthogonal(rng, space.n, cplx)
    for sigma in [1.0 - 10.0 ** -k for k in range(1, 16)] + [1.0 + 1e-12]:
        y = (w * np.linspace(sigma, 0.3, space.n)) @ z.conj().T
        expected = sigma < 1.0
        points = [graph_point(space, y)]
        if expected:
            points.append(SubspacePoint(space, transitivity_element(space, y)[:, : space.n]))
        else:
            with pytest.raises(DomainError):
                transitivity_element(space, y)
        for pt in points:
            assert space_like(space, pt) is expected, sigma
            assert log_calls_space_like(space, pt) is expected, sigma


# ---------------------------------------------------------------------------
# p and g


def test_p_embed_identity_and_isotropy():
    base = GR23.base_point()
    ident = GroupElement(GR23, Side.NONCOMPACT, np.eye(5))
    assert p_embed(GR23, ident).distance(base) <= 1e-14
    k = np.eye(5)
    k[2:, 2:] = np.diag([-1.0, 1.0, -1.0])
    kg = GroupElement(GR23, Side.NONCOMPACT, k)
    assert p_embed(GR23, kg).distance(base) <= 1e-14


def test_p_embed_transitivity_slope():
    rng = np.random.default_rng(3)
    y = capped(0.4 * rng.standard_normal((3, 2)))
    pt = p_embed(GR23, coset_from_slope(GR23, y))
    assert pt.distance(graph_point(GR23, y)) <= 1e-11
    assert space_like(GR23, pt)


def test_g_embed_identity():
    out = g_embed(GR23, GroupElement(GR23, Side.NONCOMPACT, np.eye(5)))
    np.testing.assert_allclose(out.a, np.eye(5), atol=1e-14)


def test_g_embed_boost_is_pinned_rotation():
    out = g_embed(GR11, boost_coset(GR11, 1.0))
    c, s = np.cos(THETA_BOOST1), np.sin(THETA_BOOST1)
    np.testing.assert_allclose(out.a, [[c, s], [-s, c]], atol=1e-12)
    assert in_group(GR11, out.a, Side.COMPACT)


def test_g_embed_well_defined_on_cosets():
    rng = np.random.default_rng(5)
    y = capped(0.5 * rng.standard_normal((3, 2)))
    g = coset_from_slope(GR23, y)
    k = np.eye(5)
    k1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    k2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    k[:2, :2], k[2:, 2:] = k1, k2
    moved = GroupElement(GR23, Side.NONCOMPACT, g.a @ k)
    q1 = g_embed(GR23, g)
    q2 = g_embed(GR23, moved)
    assert q1.point().distance(q2.point()) <= 1e-10
    assert in_isotropy(GR23, q1.a.T @ q2.a, tol=1e-9)  # differ by right isotropy


def test_g_embed_matches_p_embed():
    rng = np.random.default_rng(7)
    for sp in (GR23, GC12):
        for _ in range(20):
            y = 0.5 * rng.standard_normal((sp.m, sp.n))
            if sp.field == "complex":
                y = y + 0.5j * rng.standard_normal((sp.m, sp.n))
            g = coset_from_slope(sp, capped(y))
            assert p_embed(sp, g).distance(g_embed(sp, g).point()) <= 1e-10


# ---------------------------------------------------------------------------
# logs


def test_log_noncompact_base_point_is_zero():
    xv = log_noncompact(GR23, GR23.base_point())
    assert np.max(np.abs(xv.x)) <= 1e-14


def test_log_noncompact_scalar_slope():
    pt = graph_point(GR11, np.array([[np.tanh(1.0)]]))
    xv = log_noncompact(GR11, pt)
    assert xv.x[0, 1] == pytest.approx(1.0, abs=1e-14)  # artanh of the slope


def test_log_noncompact_round_trip():
    rng = np.random.default_rng(11)
    for sp in (GR23, GC12, GR22):
        for _ in range(30):
            y = 0.45 * rng.standard_normal((sp.m, sp.n))
            if sp.field == "complex":
                y = y + 0.45j * rng.standard_normal((sp.m, sp.n))
            top = np.linalg.svd(y, compute_uv=False)[0]
            if top >= 0.97:
                y *= 0.9 / top
            pt = graph_point(sp, y)
            xv = log_noncompact(sp, pt)
            back = nk.expm(xv.x)[:, : sp.n]
            assert nk.frame_distance(nk.orthonormal_basis(back), pt.basis) <= 1e-9


def test_log_noncompact_rejects_near_boundary():
    y = np.array([[1.0 - 1e-14]])
    with pytest.raises(NumericalError):
        log_noncompact(GR11, graph_point(GR11, y))


def test_log_noncompact_rejects_non_spacelike():
    with pytest.raises(DomainError):
        log_noncompact(GR11, SubspacePoint(GR11, np.array([[1.0], [1.5]])))


def test_log_compact_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        theta = rng.uniform(-1.2, 1.2, 2)  # inside the graph chart
        flat = TangentVector(GR23, Side.COMPACT,
                             FlatCoordinates(GR23, theta / np.pi).matrix(Side.COMPACT))
        pt = SubspacePoint(GR23, nk.expm(flat.x)[:, :2])
        xv = log_compact(GR23, pt)
        back = nk.expm(xv.x)[:, :2]
        assert nk.frame_distance(nk.orthonormal_basis(back), pt.basis) <= 1e-10


@pytest.mark.parametrize(
    "space",
    catalog_spaces() + [make_space(Family.REAL_GRASSMANNIAN, 16, 48)],
    ids=lambda sp: sp.label(),
)
def test_point_flat_coords_match_flat_decompose_of_log(space):
    # the closed form read off the slope SVD against a second SVD of the log
    rng = np.random.default_rng(47)
    for _ in range(5 if space.dim > 8 else 20):
        g = random_coset(space, rng)
        cases = ((Side.NONCOMPACT, g.point(), log_noncompact),
                 (Side.COMPACT, g.point(), log_compact),
                 (Side.COMPACT, f_embed(space, g), log_compact))
        for side, pt, log in cases:
            _, expected = flat_decompose(space, log(space, pt).x)
            got = point_flat_coords(space, pt, side)
            assert np.max(np.abs(got.coords - expected.coords)) <= 1e-12


# ---------------------------------------------------------------------------
# f


def test_f_embed_identity_coset():
    out = f_embed(GR23, GroupElement(GR23, Side.NONCOMPACT, np.eye(5)))
    assert out.distance(GR23.base_point()) <= 1e-14


def test_f_embed_scalar_relation():
    # rank one: boost of rapidity t lands at angle theta, tan(theta) = -tanh(t)
    for t in np.linspace(-3, 3, 25):
        if abs(t) < 1e-12:
            continue
        pt = f_embed(GR11, boost_coset(GR11, t))
        slope = pt.rep[1, 0] / pt.rep[0, 0]
        theta = -np.arctan(slope)
        assert np.tan(theta) + np.tanh(t) == pytest.approx(0.0, abs=1e-12)


def test_f_embed_flat_relation_per_coordinate():
    # on the maximal flat the map acts per coordinate: compare against the
    # compact flat point with angles -arctan(tanh(y_i))
    rng = np.random.default_rng(17)
    for _ in range(10):
        yc = rng.uniform(-2.0, 2.0, 2)
        flat_n = TangentVector(GR23, Side.NONCOMPACT,
                               FlatCoordinates(GR23, yc / np.pi).matrix(Side.NONCOMPACT))
        coset = GroupElement(GR23, Side.NONCOMPACT, nk.expm(flat_n.x))
        got = f_embed(GR23, coset)
        theta = -np.arctan(np.tanh(yc))
        flat_c = TangentVector(GR23, Side.COMPACT,
                               FlatCoordinates(GR23, theta / np.pi).matrix(Side.COMPACT))
        expected = nk.expm(flat_c.x)[:, :2]
        assert got.distance(SubspacePoint(GR23, expected)) <= 1e-12


def f_embed_by_expm(space, g):
    """f through the compact exponential of the contracted flat point."""
    w, sig, z = _checked_slope_svd(space, g.point())
    lattice_coords = np.linalg.solve(space.lattice_coeff, np.arctanh(sig))
    contracted = h_flat(FlatCoordinates(space, lattice_coords))
    k = _block_diag(z, w)
    return nk.expm(k @ contracted.matrix(Side.COMPACT) @ k.conj().T)[:, : space.n]


@pytest.mark.parametrize(
    "space",
    catalog_spaces() + [make_space(Family.REAL_GRASSMANNIAN, 16, 48)],
    ids=lambda sp: sp.label(),
)
def test_f_embed_closed_frame_matches_compact_exponential(space):
    rng = np.random.default_rng(37)
    for _ in range(5 if space.dim > 8 else 20):
        g = random_coset(space, rng)
        got = f_embed(space, g).rep
        assert np.max(np.abs(got - f_embed_by_expm(space, g))) <= 1e-12


def test_f_embed_accepts_subspace_points():
    rng = np.random.default_rng(19)
    y = capped(0.4 * rng.standard_normal((3, 2)))
    via_group = f_embed(GR23, coset_from_slope(GR23, y))
    via_point = f_embed(GR23, graph_point(GR23, y))
    assert via_group.distance(via_point) <= 1e-11


def test_f_embed_matches_p_on_degenerate_directions():
    # repeated singular values make the flat decomposition non-unique; the
    # subspace realization p is decomposition-free, so agreement with it
    # checks independence of the arbitrary choice
    rng = np.random.default_rng(23)
    for _ in range(10):
        w, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        z, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        y = w[:, :2] @ np.diag([0.6, 0.6]) @ z.T
        g = coset_from_slope(GR23, y)
        assert f_embed(GR23, g).distance(p_embed(GR23, g)) <= 1e-9


def test_f_embed_image_is_spacelike_and_inside_half_region():
    rng = np.random.default_rng(29)
    for _ in range(20):
        y = capped(0.9 * rng.standard_normal((3, 2)), cap=0.95)
        pt = f_embed(GR23, coset_from_slope(GR23, y))
        assert space_like(GR23, pt)
        coords = point_flat_coords(GR23, pt, Side.COMPACT)
        assert np.max(np.abs(coords.coords)) < 0.25
        assert region_fraction(coords) < 0.5


def test_f_embed_inverts_through_the_contraction():
    # on the image, undoing the flat contraction recovers the noncompact
    # log: the two canonical coordinate profiles match exactly
    rng = np.random.default_rng(43)
    for _ in range(10):
        y = capped(0.6 * rng.standard_normal((3, 2)))
        g = coset_from_slope(GR23, y)
        theta = point_flat_coords(GR23, f_embed(GR23, g), Side.COMPACT).coords
        recovered = np.arctanh(np.tan(np.pi * np.abs(theta))) / np.pi
        original = np.abs(point_flat_coords(GR23, p_embed(GR23, g), Side.NONCOMPACT).coords)
        np.testing.assert_allclose(np.sort(recovered), np.sort(original), atol=1e-10)


def test_f_embed_on_a_coset_reads_a_boundary_slope_as_numerical():
    # cosh(20) == sinh(20) in double precision: the boost is accepted as a
    # group element, but its point reads slope 1.  A coset's point is
    # space-like, so that reading is roundoff: NumericalError, not DomainError
    g = boost_coset(GR11, 20.0)
    with pytest.raises(NumericalError):
        f_embed(GR11, g)
    with pytest.raises(NumericalError):
        embed(GR11, "f", g)
    # the same subspace given as a point keeps its domain verdict
    with pytest.raises(DomainError):
        f_embed(GR11, g.point())
    with pytest.raises(DomainError):
        log_noncompact(GR11, g.point())


def test_f_embed_rejects_wrong_inputs():
    with pytest.raises(DomainError):
        f_embed(GR11, np.eye(2))
    compact = GroupElement(GR11, Side.COMPACT, np.eye(2))
    with pytest.raises(DomainError):
        f_embed(GR11, compact)


# ---------------------------------------------------------------------------
# cross-map properties (small versions; the acceptance suite runs them at scale)


def test_triple_equality_small():
    rng = np.random.default_rng(31)
    for sp in (GR22, GC12):
        for _ in range(25):
            y = 0.5 * rng.standard_normal((sp.m, sp.n))
            if sp.field == "complex":
                y = y + 0.5j * rng.standard_normal((sp.m, sp.n))
            g = coset_from_slope(sp, capped(y))
            pp = p_embed(sp, g)
            gg = g_embed(sp, g).point()
            ff = f_embed(sp, g)
            assert max(pp.distance(gg), pp.distance(ff), gg.distance(ff)) <= 1e-9


def test_embed_dispatches_by_id():
    rng = np.random.default_rng(53)
    g = coset_from_slope(GR23, capped(0.5 * rng.standard_normal((3, 2))))
    direct = {"p": p_embed(GR23, g), "g": g_embed(GR23, g).point(), "f": f_embed(GR23, g)}
    for which, pt in direct.items():
        np.testing.assert_array_equal(embed(GR23, which, g).rep, pt.rep)
    with pytest.raises(DomainError):
        embed(GR23, "x", g)


def test_equivariance_small():
    rng = np.random.default_rng(37)
    sp = GR23
    for _ in range(15):
        y = capped(0.5 * rng.standard_normal((3, 2)))
        g = coset_from_slope(sp, y)
        k = np.zeros((5, 5))
        k1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        k2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        k[:2, :2], k[2:, 2:] = k1, k2
        moved = GroupElement(sp, Side.NONCOMPACT, k @ g.a)
        for embed in (p_embed, f_embed):
            lhs = embed(sp, moved)
            rhs = SubspacePoint(sp, k @ embed(sp, g).rep)
            assert lhs.distance(rhs) <= 1e-9


def test_real_f_restricts_complex_f():
    # a real slope seen inside the complex Grassmannian of the same shape
    # must land on the same subspace
    rng = np.random.default_rng(41)
    real = GR23
    cplx = make_space(Family.COMPLEX_GRASSMANNIAN, 2, 3)
    for _ in range(10):
        y = capped(0.5 * rng.standard_normal((3, 2)))
        pt_r = f_embed(real, coset_from_slope(real, y))
        pt_c = f_embed(cplx, coset_from_slope(cplx, y.astype(np.complex128)))
        p1 = nk.projector(pt_r.rep).astype(np.complex128)
        p2 = nk.projector(pt_c.rep)
        assert np.linalg.norm(p1 - p2) <= 1e-9


def test_group_element_validates_membership():
    with pytest.raises(DomainError):
        GroupElement(GR11, Side.NONCOMPACT, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_group_element_rejects_complex_entries_on_a_real_family():
    a = np.eye(2) + 0.3j * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="complex"):
        GroupElement(GR11, Side.NONCOMPACT, a)


def test_zero_imaginary_complex_slope_still_embeds():
    y = np.array([[0.5 + 0.0j]])
    pt = embed(GR11, "f", coset_from_slope(GR11, y))
    assert pt.rep.dtype == np.float64
    assert pt.distance(embed(GR11, "f", coset_from_slope(GR11, y.real))) == 0.0


def test_space_like_reads_the_stored_frame(monkeypatch):
    base = GR22.base_point()
    timelike = SubspacePoint(GR22, np.eye(4)[:, 2:])

    def refuse(_):
        raise AssertionError("frame recomputed")

    monkeypatch.setattr(nk, "orthonormal_basis", refuse)
    assert space_like(GR22, base)
    assert not space_like(GR22, timelike)
