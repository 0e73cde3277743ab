"""Tests for lattice orthonormality, cut radii, and region membership."""

import itertools

import numpy as np
import pytest

from dualspace import lattice
from dualspace.errors import DomainError
from dualspace.lattice import (
    LatticeBasis,
    cut_radius,
    cut_radius_brute,
    cut_radius_closed,
    in_half_region,
    su3_lattice,
)
from dualspace.spaces import (
    CATALOG,
    Family,
    FlatCoordinates,
    Side,
    TangentVector,
    make_space,
)

from flat_oracle import flat_decompose

PI = np.pi
GR22 = make_space(Family.REAL_GRASSMANNIAN, 2, 2)
GR23 = make_space(Family.REAL_GRASSMANNIAN, 2, 3)


def skewed(k, skew):
    """Z^k in the unimodular basis I + skew * (superdiagonal)."""
    return LatticeBasis(generators=np.eye(k) + skew * np.eye(k, k=1))


# the skewed bases of the cut-radius benchmark workload
SKEWED = {"z2-skew4": skewed(2, 4), "z3-skew2": skewed(3, 2), "z4-skew1": skewed(4, 1)}
STACK_LATTICES = {"su3": su3_lattice(),
                  **{make_space(f, n, m).label(): make_space(f, n, m).lattice
                     for f, n, m in CATALOG},
                  **SKEWED}


def brute_full_enumeration(basis, x, bound=6):
    """Independent oracle: plain double loop over |m_i| <= bound."""
    g = basis.gram
    x = np.asarray(x, float)
    x = x / np.sqrt(x @ g @ x)
    best = np.inf
    for m in itertools.product(range(-bound, bound + 1), repeat=basis.rank):
        if not any(m):
            continue
        mv = np.array(m, float)
        d = abs(x @ g @ mv)
        if d < 1e-14:
            continue
        best = min(best, (mv @ g @ mv) / (2 * d))
    return best


# ---------------------------------------------------------------------------
# orthonormality


def test_grassmannian_lattice_is_orthonormal():
    assert GR23.lattice.orthonormal
    np.testing.assert_allclose(GR23.lattice.gram, PI ** 2 * np.eye(2), atol=1e-12)


def test_su3_lattice_is_not_orthonormal():
    basis = su3_lattice()
    assert not basis.orthonormal
    np.testing.assert_allclose(basis.gram, 2 * PI ** 2 * np.array([[2, -1], [-1, 2]]),
                               atol=1e-10)


def test_single_generator_is_orthonormal():
    assert LatticeBasis(generators=np.array([[2.7]])).orthonormal


def test_basis_keeps_its_eigmin_and_verdict(monkeypatch):
    basis = su3_lattice()
    assert basis.eigmin == np.linalg.eigvalsh(basis.gram)[0]
    assert basis.orthonormal is False and GR23.lattice.orthonormal is True

    def refuse(*args, **kwargs):
        raise AssertionError("the Gram spectrum is computed once, with the basis")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert cut_radius_brute(np.array([1.0, 0.3]), basis).radius > 0.0
    assert not basis.orthonormal


def test_lattice_basis_rejects_degenerate_gram():
    with pytest.raises(DomainError):
        LatticeBasis(generators=np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_axis_direction():
    assert cut_radius_closed(np.array([1.0, 0.0]), GR23.lattice) == pytest.approx(PI / 2, abs=1e-14)


def test_closed_form_diagonal_direction():
    r = cut_radius_closed(np.array([1.0, 1.0]), GR22.lattice)
    assert r == pytest.approx(PI / np.sqrt(2.0), abs=1e-12)
    assert r == pytest.approx(2.221441469079183, abs=1e-12)


def test_closed_form_sphere_is_antipodal_distance():
    # rank one: the radius is half the closed geodesic (length 4*pi here)
    sphere = make_space(Family.CIRCLE_SPHERE, 1, 2)
    assert cut_radius_closed(np.array([1.0]), sphere.lattice) == pytest.approx(2 * PI, rel=1e-14)


def test_closed_form_rejects_su3():
    with pytest.raises(DomainError):
        cut_radius_closed(np.array([1.0, 0.0]), su3_lattice())


def test_closed_form_rejects_zero_direction():
    with pytest.raises(DomainError):
        cut_radius_closed(np.zeros(2), GR22.lattice)


# ---------------------------------------------------------------------------
# brute force


def test_brute_equals_closed_on_random_directions():
    rng = np.random.default_rng(101)
    for sp in (make_space(Family.REAL_GRASSMANNIAN, 1, 2), GR22,
               make_space(Family.REAL_GRASSMANNIAN, 3, 4)):
        for _ in range(200):
            x = rng.standard_normal(sp.rank)
            closed = cut_radius_closed(x, sp.lattice)
            brute = cut_radius_brute(x, sp.lattice)
            assert abs(closed - brute.radius) <= 1e-12


def test_brute_axis_minimizer():
    res = cut_radius_brute(np.array([1.0, 0.0]), GR23.lattice)
    assert res.radius == pytest.approx(PI / 2, abs=1e-14)
    assert res.minimizer == (-1, 0)  # lexicographic tie-break between +-e_1
    assert not res.used_closed_form


def test_brute_su3_along_generator():
    res = cut_radius_brute(np.array([1.0, 0.0]), su3_lattice())
    assert res.radius == pytest.approx(PI, abs=1e-12)
    assert res.minimizer == (-1, 0)


def test_su3_naive_formula_disagrees_with_brute_force():
    # evaluating the orthonormal-lattice formula on the hexagonal lattice
    # (generator coordinates, alpha^2 from the generator norm) overshoots
    # along the direction bisecting the generators
    basis = su3_lattice()
    x = np.array([1.0, 1.0])
    xu = x / np.sqrt(x @ basis.gram @ x)
    c = basis.gram @ xu
    naive = basis.gram[0, 0] / (2 * np.max(np.abs(c)))
    brute = cut_radius_brute(x, basis).radius
    assert naive == pytest.approx(2 * PI, abs=1e-12)
    assert brute == pytest.approx(PI, abs=1e-12)
    assert abs(naive - brute) > 1.0


def test_brute_invariant_on_minimizer():
    rng = np.random.default_rng(103)
    for basis in (GR22.lattice, su3_lattice()):
        for _ in range(50):
            x = rng.standard_normal(2)
            res = cut_radius_brute(x, basis)
            xu = x / np.sqrt(x @ basis.gram @ x)
            mv = np.array(res.minimizer, float)
            value = (mv @ basis.gram @ mv) / (2 * abs(xu @ basis.gram @ mv))
            assert value == pytest.approx(res.radius, abs=1e-12)


def test_pruned_search_never_misses_full_enumeration():
    rng = np.random.default_rng(105)
    bases = [GR22.lattice, su3_lattice(), GR23.lattice]
    # plus a few random positive definite rank-3 Gram matrices
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        bases.append(LatticeBasis(generators=a @ a.T + 3 * np.eye(3)))
    for basis in bases:
        for _ in range(60):
            x = rng.standard_normal(basis.rank)
            pruned = cut_radius_brute(x, basis).radius
            full = brute_full_enumeration(basis, x)
            assert pruned == pytest.approx(full, rel=1e-12)


def test_radius_is_scale_invariant():
    rng = np.random.default_rng(107)
    x = rng.standard_normal(2)
    r1 = cut_radius_brute(x, GR22.lattice).radius
    r2 = cut_radius_brute(3.7 * x, GR22.lattice).radius
    assert r1 == pytest.approx(r2, rel=1e-14)


def test_radius_invariant_under_isotropy_rotation():
    # rotating a tangent vector by the isotropy group, then reading the
    # radius off its flat decomposition, gives the same answer
    rng = np.random.default_rng(109)
    sp = GR23
    for _ in range(20):
        b = rng.standard_normal((2, 3))
        x = np.zeros((5, 5))
        x[:2, 2:] = b
        x[2:, :2] = b.T
        _, h1 = flat_decompose(sp, TangentVector(sp, Side.NONCOMPACT, x).x)
        k1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        k2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        k = np.zeros((5, 5))
        k[:2, :2], k[2:, 2:] = k1, k2
        _, h2 = flat_decompose(sp, TangentVector(sp, Side.NONCOMPACT, k @ x @ k.T).x)
        r1 = cut_radius_brute(h1.coords, sp.lattice).radius
        r2 = cut_radius_brute(h2.coords, sp.lattice).radius
        assert r1 == pytest.approx(r2, abs=1e-10)


def test_brute_rejects_zero_direction():
    with pytest.raises(DomainError):
        cut_radius_brute(np.zeros(2), GR22.lattice)
    with pytest.raises(DomainError):
        cut_radius_brute(np.array([[1.0, 0.0], [0.0, 0.0]]), GR22.lattice)


# ---------------------------------------------------------------------------
# one walk for a stack of directions


@pytest.mark.parametrize("name", list(STACK_LATTICES))
def test_stack_gives_the_single_calls_bit_for_bit(name):
    basis = STACK_LATTICES[name]
    rng = np.random.default_rng(111)
    x = np.vstack([np.eye(basis.rank), -np.eye(basis.rank),
                   rng.standard_normal((40, basis.rank))])
    for radius in (cut_radius_brute, cut_radius):  # cut_radius: closed or brute, as chosen
        stack = radius(x, basis)
        assert stack.shape == (len(x),)
        assert np.array_equal(stack, [radius(row, basis).radius for row in x])
        assert np.array_equal(radius(x.reshape(2, -1, basis.rank), basis), stack.reshape(2, -1))
        assert radius(x[:0], basis).shape == (0,)


def test_stack_matches_full_enumeration():
    # the random rank-3 Grams of test_pruned_search_never_misses_full_enumeration
    rng = np.random.default_rng(105)
    bases = [LatticeBasis(generators=a @ a.T + 3 * np.eye(3))
             for a in (rng.standard_normal((3, 3)) for _ in range(3))]
    rng = np.random.default_rng(113)
    for basis in bases + list(SKEWED.values()):
        x = rng.standard_normal((60 if basis.rank < 4 else 8, basis.rank))
        full = [brute_full_enumeration(basis, row, bound=6 if basis.rank < 4 else 4)
                for row in x]
        np.testing.assert_allclose(cut_radius_brute(x, basis), full, rtol=1e-12, atol=0.0)


def values_near_the_minimum(basis, x, bound=3):
    """Independent oracle: the least value over |m_i| <= bound, and every
    vector whose value is within the relative tie of it, with its value."""
    g = basis.gram
    x = np.asarray(x, float) / np.sqrt(x @ g @ x)
    values = {}
    for m in itertools.product(range(-bound, bound + 1), repeat=basis.rank):
        mv = np.array(m, float)
        d = abs(x @ g @ mv)
        if any(m) and d >= 1e-14:
            values[m] = (mv @ g @ mv) / (2 * d)
    low = min(values.values())
    return low, {m: v for m, v in values.items() if v <= low * (1 + lattice._REL_TIE)}


@pytest.mark.parametrize("delta", [3e-13, -3e-13])
def test_near_tie_gives_the_minimum_and_the_lexicographic_first(delta):
    # on Z^2 along (1, 1 + delta), e1, e2 and e1 + e2 score within the
    # relative tie 1e-12 of each other without being equal
    basis = LatticeBasis(generators=np.eye(2))
    x = np.array([1.0, 1.0 + delta])
    low, tied = values_near_the_minimum(basis, x)
    assert set(tied) == {(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)}
    assert max(tied.values()) > low * (1 + 1e-14)
    # the minimizer is the first in lexicographic order, not the least value
    assert tied[(-1, -1)] > low * (1 + 1e-14)
    res = cut_radius_brute(x, basis)
    assert res.radius == pytest.approx(low, rel=1e-15)
    assert res.radius < tied[(-1, -1)] * (1 - 1e-14)
    assert res.minimizer == (-1, -1)
    assert cut_radius_brute(x[None], basis)[0] == res.radius


def test_one_walk_generates_each_shell_once(monkeypatch):
    basis = SKEWED["z3-skew2"]
    walked = []
    shell = lattice._l1_shell

    def counted(rank, s):
        if rank == basis.rank:  # the walk's calls, not the shell's own recursion
            walked.append(s)
        return shell(rank, s)

    monkeypatch.setattr(lattice, "_l1_shell", counted)
    x = np.random.default_rng(115).standard_normal((200, 3))
    radii = cut_radius_brute(x, basis)
    stack_walk = list(walked)
    assert stack_walk == list(range(1, len(stack_walk) + 1))
    single_walks = []
    for row in x:
        walked.clear()
        assert cut_radius_brute(row, basis).radius == radii[len(single_walks)]
        single_walks.append(len(walked))
    # the stack walks as far as its farthest row, each shell once; row by
    # row, the same shells are generated once per row
    assert len(stack_walk) == max(single_walks)
    assert sum(single_walks) > 20 * len(stack_walk)


@pytest.mark.parametrize("name,direction,visited", [
    ("z2-skew4", (1.0, 0.3), 84),
    ("z2-skew4", (-0.4, 1.0), 84),
    ("z3-skew2", (0.2, -0.7, 1.1), 3302),
    ("z3-skew2", (1.0, 0.0, 0.0), 832),
    ("z4-skew1", (0.5, -0.3, 0.9, 0.1), 1288),
    ("z4-skew1", (0.0, 0.0, 0.0, 1.0), 3648),
])
def test_visited_counts_are_pinned(name, direction, visited):
    # every vector of the L1 shells up to the one where the walk stops
    res = cut_radius_brute(np.array(direction), SKEWED[name])
    assert res.visited == visited
    assert cut_radius(np.array(direction), SKEWED[name]) == res


def test_closed_form_visits_nothing():
    res = cut_radius(np.array([1.0, 0.3]), GR22.lattice)
    assert res.used_closed_form and res.visited == 0
    assert cut_radius_brute(np.array([1.0, 0.3]), GR22.lattice).visited == 4


# ---------------------------------------------------------------------------
# region membership


def test_zero_vector_is_inside_every_region():
    assert in_half_region(np.zeros(2), 0.5, GR22.lattice)
    assert in_half_region(np.zeros(2), 0.25, GR22.lattice)


def test_half_region_boundary_on_grassmannian():
    # along a single generator the half boundary sits at pi/4 in metric
    # units, i.e. lattice coordinate 1/4
    eps = 1e-6
    inside = FlatCoordinates(GR23, np.array([0.25 - eps, 0.0]))
    outside = FlatCoordinates(GR23, np.array([0.25 + eps, 0.0]))
    assert in_half_region(inside.coords, 0.5, GR23.lattice)
    assert not in_half_region(outside.coords, 0.5, GR23.lattice)


def test_quarter_vs_half_region_distinguish_sphere_images():
    from dualspace.embeddings import b_embed_rank1, f_flat_rank1

    sphere = make_space(Family.CIRCLE_SPHERE, 1, 2)
    alpha = 4 * PI  # sphere lattice generator length
    b_angle = b_embed_rank1(5.0)
    f_angle = f_flat_rank1(5.0)
    b_coords = FlatCoordinates(sphere, np.array([b_angle / alpha]))
    f_coords = FlatCoordinates(sphere, np.array([f_angle / alpha]))
    assert in_half_region(b_coords.coords, 0.25, sphere.lattice)
    assert in_half_region(f_coords.coords, 0.5, sphere.lattice)
    assert not in_half_region(f_coords.coords, 0.25, sphere.lattice)


def test_half_region_validates_fraction():
    with pytest.raises(DomainError):
        in_half_region(np.array([0.1, 0.1]), 0.0, GR22.lattice)
