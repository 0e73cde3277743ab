"""Tests for the space catalog: descriptors, membership, flat decomposition."""

import tracemalloc

import numpy as np
import pytest

from dualspace import cli
from dualspace import numkernel as nk
from dualspace.embeddings import GroupElement
from dualspace.errors import DomainError
from dualspace.spaces import (
    CATALOG,
    MAX_DIM,
    Family,
    FlatCoordinates,
    Side,
    SubspacePoint,
    TangentVector,
    _form_residual,
    in_group,
    make_space,
    same_orientation,
    same_point,
    special_svd,
    transitivity_element,
)

from expm_oracle import expm
from flat_oracle import base_point, cartan_basis, flat_decompose, in_isotropy, random_coset

GRASSMANNIANS = [
    make_space(Family.REAL_GRASSMANNIAN, 1, 1),
    make_space(Family.REAL_GRASSMANNIAN, 2, 3),
    make_space(Family.COMPLEX_GRASSMANNIAN, 1, 2),
    make_space(Family.COMPLEX_GRASSMANNIAN, 2, 2),
]


def half_trace_inner(x, y):
    return -0.5 * np.real(np.trace(x @ y))


def random_slope(space, rng, scale=0.5):
    y = rng.uniform(-scale, scale, (space.m, space.n))
    if space.field == "complex":
        y = y + 1j * rng.uniform(-scale, scale, (space.m, space.n))
    # keep it safely space-like
    top = np.linalg.svd(y, compute_uv=False)[0]
    if top >= 0.95:
        y *= 0.9 / top
    return y


# ---------------------------------------------------------------------------
# make_space


def test_make_space_smallest_real_grassmannian():
    sp = make_space(Family.REAL_GRASSMANNIAN, 1, 1)
    assert sp.rank == 1
    np.testing.assert_allclose(sp.lattice.gram, [[np.pi ** 2]], atol=1e-14)
    gen = sp.lattice_coeff @ np.array([1.0])
    np.testing.assert_allclose(gen, [np.pi])


def test_make_space_gr23_cartan_data():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    assert sp.rank == 2
    r1, r2 = cartan_basis(sp, Side.COMPACT)
    assert np.max(np.abs(r1 @ r2 - r2 @ r1)) <= 1e-12
    assert r1[0, 2] == 1.0 and r1[2, 0] == -1.0
    assert r2[1, 3] == 1.0 and r2[3, 1] == -1.0


def test_make_space_sphere_is_rank_one():
    sp = make_space(Family.CIRCLE_SPHERE, 1, 1)
    assert sp.rank == 1
    assert sp.oriented
    sp2 = make_space(Family.CIRCLE_SPHERE, 1, 2)
    np.testing.assert_allclose(sp2.lattice.gram, [[16 * np.pi ** 2]], rtol=1e-14)


def test_make_space_oriented_two_plane():
    sp = make_space(Family.ORIENTED_TWO_PLANE, 2, 2)
    assert sp.rank == 2
    np.testing.assert_allclose(sp.lattice.gram, 2 * np.pi ** 2 * np.eye(2), atol=1e-12)
    assert sp.lattice.orthonormal
    # the rank-1 oriented case is the sphere
    sp1 = make_space(Family.ORIENTED_TWO_PLANE, 1, 3)
    assert sp1.rank == 1
    assert sp1.family is Family.CIRCLE_SPHERE
    assert sp1.label() == "sphere(1,3)"
    np.testing.assert_allclose(sp1.lattice.gram, [[16 * np.pi ** 2]], rtol=1e-14)


_ORIENTED2_COEFF = np.pi * np.array([[1.0, 1.0], [1.0, -1.0]])

# (family, n, m) -> (family, rank, field, metric_scale, oriented,
# lattice_coeff, lattice.gram), written out by hand
PINNED_DESCRIPTORS = {
    (Family.REAL_GRASSMANNIAN, 1, 1): (Family.REAL_GRASSMANNIAN, 1, "real", 0.5, False,
                                       np.pi * np.eye(1), np.pi * np.pi * np.eye(1)),
    (Family.REAL_GRASSMANNIAN, 1, 2): (Family.REAL_GRASSMANNIAN, 1, "real", 0.5, False,
                                       np.pi * np.eye(1), np.pi * np.pi * np.eye(1)),
    (Family.REAL_GRASSMANNIAN, 2, 2): (Family.REAL_GRASSMANNIAN, 2, "real", 0.5, False,
                                       np.pi * np.eye(2), np.pi * np.pi * np.eye(2)),
    (Family.REAL_GRASSMANNIAN, 2, 3): (Family.REAL_GRASSMANNIAN, 2, "real", 0.5, False,
                                       np.pi * np.eye(2), np.pi * np.pi * np.eye(2)),
    (Family.REAL_GRASSMANNIAN, 3, 4): (Family.REAL_GRASSMANNIAN, 3, "real", 0.5, False,
                                       np.pi * np.eye(3), np.pi * np.pi * np.eye(3)),
    (Family.COMPLEX_GRASSMANNIAN, 1, 1): (Family.COMPLEX_GRASSMANNIAN, 1, "complex", 0.5, False,
                                          np.pi * np.eye(1), np.pi * np.pi * np.eye(1)),
    (Family.COMPLEX_GRASSMANNIAN, 1, 2): (Family.COMPLEX_GRASSMANNIAN, 1, "complex", 0.5, False,
                                          np.pi * np.eye(1), np.pi * np.pi * np.eye(1)),
    (Family.COMPLEX_GRASSMANNIAN, 2, 2): (Family.COMPLEX_GRASSMANNIAN, 2, "complex", 0.5, False,
                                          np.pi * np.eye(2), np.pi * np.pi * np.eye(2)),
    (Family.ORIENTED_TWO_PLANE, 2, 2): (Family.ORIENTED_TWO_PLANE, 2, "real", 0.5, True,
                                        _ORIENTED2_COEFF, 2 * np.pi * np.pi * np.eye(2)),
    (Family.CIRCLE_SPHERE, 1, 1): (Family.CIRCLE_SPHERE, 1, "real", 2.0, True,
                                   2 * np.pi * np.eye(1), 16 * np.pi * np.pi * np.eye(1)),
    (Family.CIRCLE_SPHERE, 1, 2): (Family.CIRCLE_SPHERE, 1, "real", 2.0, True,
                                   2 * np.pi * np.eye(1), 16 * np.pi * np.pi * np.eye(1)),
    # the oriented lines are the sphere
    (Family.ORIENTED_TWO_PLANE, 1, 3): (Family.CIRCLE_SPHERE, 1, "real", 2.0, True,
                                        2 * np.pi * np.eye(1), 16 * np.pi * np.pi * np.eye(1)),
}


@pytest.mark.parametrize("key", CATALOG + ((Family.ORIENTED_TWO_PLANE, 1, 3),),
                         ids=lambda k: f"{k[0].value}({k[1]},{k[2]})")
def test_descriptor_fields_are_pinned(key):
    family, rank, fld, scale, oriented, coeff, gram = PINNED_DESCRIPTORS[key]
    sp = make_space(*key)
    assert sp.family is family
    assert (sp.n, sp.m) == key[1:]
    assert sp.rank == rank
    assert sp.field == fld
    assert sp.metric_scale == scale
    assert sp.oriented is oriented
    np.testing.assert_array_equal(sp.lattice_coeff, coeff)
    np.testing.assert_array_equal(np.diag(sp.lattice.gram), np.diag(gram))
    # off the diagonal pi*pi - pi*pi may leave a rounding residue, where the
    # BLAS fuses the multiply-add
    np.testing.assert_allclose(sp.lattice.gram, gram, rtol=0,
                               atol=np.finfo(float).eps * gram.max())


@pytest.mark.parametrize("space_id, n, m, family", [
    ("gr-real", 2, 3, Family.REAL_GRASSMANNIAN),
    ("gr-complex", 1, 2, Family.COMPLEX_GRASSMANNIAN),
    ("oriented2", 2, 2, Family.ORIENTED_TWO_PLANE),
    ("oriented-2plane", 2, 2, Family.ORIENTED_TWO_PLANE),
    ("sphere", 1, 2, Family.CIRCLE_SPHERE),
    ("circle", 1, 1, Family.CIRCLE_SPHERE),
])
def test_every_cli_id_resolves_to_its_family(space_id, n, m, family):
    sp = cli.parse_space(space_id, n, m)
    assert sp.family is family
    assert (sp.n, sp.m) == (n, m)


@pytest.mark.parametrize("argv", [("oriented2", "3", "4"), ("sphere", "2", "2")])
def test_cli_rejects_a_family_outside_its_fixed_n(capsys, argv):
    assert cli.main(["lattice-info", *argv]) == cli.DOMAIN_EXIT == 3
    assert capsys.readouterr().out == ""


def test_make_space_rejects_bad_dimensions():
    with pytest.raises(DomainError):
        make_space(Family.REAL_GRASSMANNIAN, 3, 2)
    with pytest.raises(DomainError):
        make_space(Family.REAL_GRASSMANNIAN, 0, 2)
    with pytest.raises(DomainError):
        make_space(Family.ORIENTED_TWO_PLANE, 3, 4)
    with pytest.raises(DomainError):
        make_space("quaternionic", 1, 2)
    with pytest.raises(DomainError):
        make_space(Family.REAL_GRASSMANNIAN, 2.9, 3)
    with pytest.raises(DomainError):
        make_space(Family.REAL_GRASSMANNIAN, "2", 3)


def test_make_space_refuses_sizes_above_the_bound_before_allocating():
    assert MAX_DIM == 256
    assert make_space(Family.REAL_GRASSMANNIAN, 128, 128).dim == MAX_DIM
    tracemalloc.start()
    try:
        for n, m in [(128, 129), (1, MAX_DIM), (10 ** 6, 10 ** 6)]:
            with pytest.raises(DomainError, match="n \\+ m <= 256"):
                make_space(Family.REAL_GRASSMANNIAN if n > 1 else Family.CIRCLE_SPHERE, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("family,n,m", CATALOG)
def test_catalog_descriptor_invariants(family, n, m):
    sp = make_space(family, n, m)
    compact = cartan_basis(sp, Side.COMPACT)
    # pairwise commuting and orthonormal under -tr/2
    for i, a in enumerate(compact):
        for j, b in enumerate(compact):
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12
            assert half_trace_inner(a, b) == pytest.approx(float(i == j), abs=1e-13)
    # every lattice generator exponentiates into the isotropy group
    for col in range(sp.rank):
        coeffs = sp.lattice_coeff[:, col]
        gen = sum(c * r for c, r in zip(coeffs, compact))
        assert in_isotropy(sp, expm(gen))
    # base point is fixed by construction
    base = base_point(sp)
    assert base.rep.shape == (sp.dim, sp.n)


@pytest.mark.parametrize("family,n,m", [
    (Family.CIRCLE_SPHERE, 1, 2),
    (Family.ORIENTED_TWO_PLANE, 2, 2),
])
def test_oriented_lattices_are_not_finer(family, n, m):
    # halving an oriented-family lattice generator must leave the isotropy
    # group: the orientation constraint is what doubles the lattice
    sp = make_space(family, n, m)
    compact = cartan_basis(sp, Side.COMPACT)
    coeffs = sp.lattice_coeff[:, 0] / 2.0
    gen = sum(c * r for c, r in zip(coeffs, compact))
    assert not in_isotropy(sp, expm(gen))


# ---------------------------------------------------------------------------
# membership tests


def test_in_group_identity_both_sides():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    eye = np.eye(5)
    assert in_group(sp, eye, Side.COMPACT)
    assert in_group(sp, eye, Side.NONCOMPACT)


def test_in_group_boost():
    sp = make_space(Family.REAL_GRASSMANNIAN, 1, 1)
    b = np.array([[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]])
    assert in_group(sp, b, Side.NONCOMPACT)
    assert not in_group(sp, b, Side.COMPACT)


def test_in_group_transitivity_elements():
    rng = np.random.default_rng(5)
    for sp in GRASSMANNIANS:
        a = transitivity_element(sp, random_slope(sp, rng))
        assert in_group(sp, a, Side.NONCOMPACT)


def dense_form_verdicts(space, a, side, tol=1e-10):
    """Per-slice verdicts and residuals of the form test with J as a dense
    matrix, ``A^H J A - J`` with J = I on the compact side."""
    j = np.eye(space.dim) if side is Side.COMPACT else space.form_j
    with np.errstate(invalid="ignore"):  # inf * 0 in the product by J
        resid = np.abs(nk.herm(a) @ j @ a - j).max(axis=(-2, -1))
        scaled = tol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)) ** 2)
        ok = resid <= scaled
        if space.oriented:
            ok &= np.abs(np.linalg.det(a) - 1.0) <= scaled
    return ok, resid


FORM_SPACES = [make_space(*key) for key in CATALOG] + [
    make_space(Family.REAL_GRASSMANNIAN, 32, 32), make_space(Family.COMPLEX_GRASSMANNIAN, 16, 16)]


@pytest.mark.parametrize("space", FORM_SPACES, ids=lambda sp: sp.label())
def test_diagonal_form_test_matches_the_dense_one(space):
    # J is a +-1 diagonal, so scaling the columns of A^H by it, or skipping
    # the product by I, is exact: the residuals agree bit for bit and so do
    # the verdicts, on members, on slices pushed across the tolerance and
    # on slices holding an inf or a NaN
    rng = np.random.default_rng(103)
    boosts = random_coset(space, 103, size=8).a
    compact = nk.phase_fixed_qr(boosts)[0]
    for side, members in ((Side.NONCOMPACT, boosts), (Side.COMPACT, compact)):
        noise = rng.standard_normal(members.shape)
        if space.field == "complex":
            noise = noise + 1j * rng.standard_normal(members.shape)
        steps = np.array([0.0, 1e-12, 1e-11, 2e-11, 5e-11, 1e-10, 1e-9, 1e-6])[:, None, None]
        near = members + steps * noise
        _, resid = dense_form_verdicts(space, near, side)
        assert np.array_equal(_form_residual(space, near, side), resid)
        bad = np.concatenate([near, near[:3]])
        bad[8, 0, 0], bad[9, -1, 1], bad[10, 1, -1] = np.inf, np.nan, -np.inf
        dense, _ = dense_form_verdicts(space, bad, side)
        # the steps cross the tolerance, and no non-finite slice passes
        assert dense[:8].any() and not dense[:8].all() and not dense[8:].any()
        for i, verdict in enumerate(dense):
            assert in_group(space, bad[i], side) == verdict, (side, i)
        assert in_group(space, bad[:8], side) == dense[:8].all()
        assert not in_group(space, bad, side)


# ---------------------------------------------------------------------------
# transitivity element


def test_transitivity_zero_slope_is_identity():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    np.testing.assert_allclose(transitivity_element(sp, np.zeros((3, 2))), np.eye(5), atol=1e-14)


def test_transitivity_scalar_boost():
    # for the 1x1 slope tanh(1): (1 - tanh^2)^(-1/2) = cosh, so the element
    # is exactly the unit boost
    sp = make_space(Family.REAL_GRASSMANNIAN, 1, 1)
    a = transitivity_element(sp, np.array([[np.tanh(1.0)]]))
    expected = np.array([[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]])
    np.testing.assert_allclose(a, expected, atol=1e-12)


def test_transitivity_preserves_form_and_base_point():
    rng = np.random.default_rng(9)
    for sp in GRASSMANNIANS:
        w, _ = np.linalg.qr(rng.standard_normal((sp.m, sp.m)))
        z, _ = np.linalg.qr(rng.standard_normal((sp.n, sp.n)))
        sig = np.linspace(0.9, 0.1, sp.n)
        y = (w[:, : sp.n] * sig) @ z.T
        if sp.field == "complex":
            y = y.astype(np.complex128)
        a = transitivity_element(sp, y)
        j = sp.form_j.astype(a.dtype)
        assert np.max(np.abs(a.conj().T @ j @ a - j)) <= 1e-10
        target = np.vstack([np.eye(sp.n, dtype=sp.dtype), y])
        assert nk.frame_distance(nk.orthonormal_basis(a[:, : sp.n]),
                                 nk.orthonormal_basis(target)) <= 1e-10


def test_transitivity_rejects_non_spacelike():
    sp = make_space(Family.REAL_GRASSMANNIAN, 1, 1)
    with pytest.raises(DomainError):
        transitivity_element(sp, np.array([[1.2]]))


# ---------------------------------------------------------------------------
# special_svd


def _sym2x2_eigs(g):
    # characteristic-polynomial eigenvalues of a symmetric 2x2 matrix
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    disc = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return tr / 2.0 + disc, tr / 2.0 - disc


def _svd_product(u, s, vh):
    k = len(s)
    return (u[:, :k] * s) @ vh[:k, :]


def test_special_svd_zero_matrix():
    _, s, _ = special_svd(np.zeros((2, 3)), oriented=False)
    np.testing.assert_allclose(s, [0.0, 0.0])


def test_special_svd_diagonal():
    u, s, vh = special_svd(np.diag([3.0, 1.0]), oriented=False)
    np.testing.assert_allclose(s, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.abs(vh), np.eye(2), atol=1e-14)


def test_special_svd_against_characteristic_polynomial():
    y = np.array([[0.6, 0.0], [0.0, 0.2], [0.0, 0.0]])
    lam1, lam2 = _sym2x2_eigs(y.T @ y)
    _, s, _ = special_svd(y, oriented=False)
    np.testing.assert_allclose(s, [np.sqrt(lam1), np.sqrt(lam2)], atol=1e-14)
    np.testing.assert_allclose(s, [0.6, 0.2], atol=1e-14)


def test_special_svd_reconstruction_and_orthogonality():
    rng = np.random.default_rng(11)
    for shape in [(3, 5), (5, 3), (4, 4)]:
        y = rng.standard_normal(shape)
        # the oriented push needs rows <= cols, the catalog's n x m blocks
        for oriented in (False, True) if shape[0] <= shape[1] else (False,):
            u, s, vh = special_svd(y, oriented)
            assert np.linalg.norm(y - _svd_product(u, s, vh)) <= 1e-11 * np.linalg.norm(y)
            assert np.max(np.abs(u.conj().T @ u - np.eye(shape[0]))) <= 1e-12
            assert np.max(np.abs(vh @ vh.conj().T - np.eye(shape[1]))) <= 1e-12
            assert np.all(np.diff(np.abs(s)) <= 0)
            if oriented:
                assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.det(vh) == pytest.approx(1.0, abs=1e-12)


def test_special_svd_complex():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    u, s, vh = special_svd(y, oriented=False)
    assert np.linalg.norm(y - _svd_product(u, s, vh)) <= 1e-11 * np.linalg.norm(y)


def test_special_svd_square_oriented_sign_goes_to_last_value():
    # det < 0 on a square block cannot be split between two special factors
    y = np.diag([0.7, 0.3]) @ np.array([[0.0, 1.0], [1.0, 0.0]])
    u, s, vh = special_svd(y, oriented=True)
    np.testing.assert_allclose(s, [0.7, -0.3], atol=1e-14)
    assert np.linalg.det(u) == pytest.approx(1.0) and np.linalg.det(vh) == pytest.approx(1.0)
    np.testing.assert_allclose(_svd_product(u, s, vh), y, atol=1e-14)


# ---------------------------------------------------------------------------
# tangent vectors and the flat decomposition



def tangent_from_block(sp, b, side):
    x = np.zeros((sp.dim, sp.dim), dtype=sp.dtype)
    x[: sp.n, sp.n :] = b
    sign = -1.0 if side is Side.COMPACT else 1.0
    x[sp.n :, : sp.n] = sign * b.conj().T
    return TangentVector(sp, side, x)


def test_tangent_vector_validates_block_structure():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    bad = np.zeros((5, 5))
    bad[0, 1] = 1.0  # inside the diagonal block
    with pytest.raises(DomainError):
        TangentVector(sp, Side.NONCOMPACT, bad)


def test_flat_decompose_flat_input():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    coords = FlatCoordinates(sp, np.array([0.4, 0.1]))
    k, h = flat_decompose(sp, TangentVector(sp, Side.NONCOMPACT, coords.matrix(Side.NONCOMPACT)).x)
    np.testing.assert_allclose(h.coords, [0.4, 0.1], atol=1e-12)
    assert in_isotropy(sp, k)
    assert np.max(np.abs(np.abs(k) - np.eye(5))) <= 1e-12  # block signs only


def test_flat_decompose_round_trip():
    rng = np.random.default_rng(17)
    for sp in GRASSMANNIANS:
        for _ in range(10):
            b = rng.standard_normal((sp.n, sp.m))
            if sp.field == "complex":
                b = b + 1j * rng.standard_normal((sp.n, sp.m))
            xv = tangent_from_block(sp, b, Side.NONCOMPACT)
            k, h = flat_decompose(sp, xv.x)
            assert in_isotropy(sp, k, tol=1e-9)
            rec = k @ h.matrix(Side.NONCOMPACT) @ k.conj().T
            assert np.max(np.abs(rec - xv.x)) <= 1e-10
            # canonical order: magnitudes descending
            mags = np.abs(h.coords)
            assert np.all(np.diff(mags) <= 1e-12)


def test_flat_decompose_matches_svd_oracle():
    # the flat coefficients of a Grassmannian tangent block are exactly its
    # singular values; lattice coordinates divide out the generator length pi
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    rng = np.random.default_rng(19)
    b = rng.standard_normal((2, 3))
    s = np.linalg.svd(b, compute_uv=False)
    _, h = flat_decompose(sp, tangent_from_block(sp, b, Side.NONCOMPACT).x)
    np.testing.assert_allclose(h.coords * np.pi, s, atol=1e-12)


def test_flat_decompose_recovers_known_construction():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 2)
    rng = np.random.default_rng(23)
    h0 = np.array([0.7, 0.2])
    k1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    k2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    k0 = np.zeros((4, 4))
    k0[:2, :2], k0[2:, 2:] = k1, k2
    x = k0 @ FlatCoordinates(sp, h0 / np.pi).matrix(Side.NONCOMPACT) @ k0.T
    k, h = flat_decompose(sp, TangentVector(sp, Side.NONCOMPACT, x).x)
    np.testing.assert_allclose(np.sort(np.abs(h.coords * np.pi))[::-1],
                               np.sort(h0)[::-1], atol=1e-10)
    rec = k @ h.matrix(Side.NONCOMPACT) @ k.T
    np.testing.assert_allclose(rec, x, atol=1e-10)


@pytest.mark.parametrize("family,n,m", CATALOG)
@pytest.mark.parametrize("side", [Side.COMPACT, Side.NONCOMPACT])
def test_flat_matrix_is_sum_over_cartan_basis(family, n, m, side):
    sp = make_space(family, n, m)
    one = np.linspace(0.3, -0.2, sp.rank)
    # bit for bit, for one direction and for a stack with a zero row
    for x in (one, np.stack([one, np.zeros(sp.rank), -7.0 * one[::-1]])):
        coords = FlatCoordinates(sp, x)
        stacked = np.moveaxis(coords.cartan_coords(), -1, 0)
        expected = sum(c[..., None, None] * r for c, r in zip(stacked, cartan_basis(sp, side)))
        got = coords.matrix(side)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
    coords = FlatCoordinates(sp, one)
    cart = coords.cartan_coords()
    # the layout of the R_i: c_i at (i, n+i), and -c_i (compact) or +c_i at (n+i, i)
    lower = -1.0 if side is Side.COMPACT else 1.0
    explicit = np.zeros((sp.dim, sp.dim))
    for i, c in enumerate(cart):
        explicit[i, n + i] = c
        explicit[n + i, i] = lower * c
    np.testing.assert_allclose(coords.matrix(side), explicit, atol=1e-15)


def test_flat_coordinates_reconstruction_invariant():
    for sp in GRASSMANNIANS:
        coords = FlatCoordinates(sp, np.linspace(0.3, -0.2, sp.rank))
        xv = TangentVector(sp, Side.COMPACT, coords.matrix(Side.COMPACT))
        _, h = flat_decompose(sp, xv.x)
        gram = sp.lattice.gram
        nrm1 = np.sqrt(coords.coords @ gram @ coords.coords)
        nrm2 = np.sqrt(h.coords @ gram @ h.coords)
        assert nrm1 == pytest.approx(nrm2, abs=1e-12)


# ---------------------------------------------------------------------------
# subspace points


def test_subspace_point_rejects_rank_deficient():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    rep = np.zeros((5, 2))
    rep[:, 0] = rep[:, 1] = np.arange(5.0)
    with pytest.raises(DomainError):
        SubspacePoint(sp, rep)


def test_same_point_ignores_basis_change():
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    rng = np.random.default_rng(29)
    rep = rng.standard_normal((5, 2))
    g = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    assert same_point(SubspacePoint(sp, rep), SubspacePoint(sp, rep @ g))


def test_same_point_tracks_orientation():
    sp = make_space(Family.ORIENTED_TWO_PLANE, 2, 2)
    rep = np.vstack([np.eye(2), np.zeros((2, 2))])
    flipped = rep[:, ::-1]  # same plane, reversed frame orientation
    a = SubspacePoint(sp, rep)
    b = SubspacePoint(sp, flipped)
    assert a.distance(b) <= 1e-14
    assert not same_point(a, b)
    # reversing a column of the reversed frame restores the orientation
    assert same_point(a, SubspacePoint(sp, flipped * [1.0, -1.0]))


def test_subspace_point_stores_its_frame():
    sp = make_space(Family.COMPLEX_GRASSMANNIAN, 2, 2)
    rng = np.random.default_rng(31)
    rep = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    pt = SubspacePoint(sp, rep)
    assert np.max(np.abs(pt.basis.conj().T @ pt.basis - np.eye(2))) <= 1e-14
    assert nk.frame_distance(pt.basis, nk.orthonormal_basis(rep)) <= 1e-14


def test_comparisons_read_the_stored_frames(monkeypatch):
    sp = make_space(Family.ORIENTED_TWO_PLANE, 2, 2)
    rng = np.random.default_rng(37)
    rep = rng.standard_normal((4, 2))
    g = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    a, b = SubspacePoint(sp, rep), SubspacePoint(sp, rep @ g)
    c = SubspacePoint(sp, rep[:, ::-1])

    def refuse(*_):
        raise AssertionError("frame recomputed")

    monkeypatch.setattr(nk, "orthonormal_basis", refuse)
    assert a.distance(b) <= 1e-13
    assert np.linalg.det(g) > 0 and same_point(a, b)
    assert a.distance(c) <= 1e-13
    assert not same_point(a, c)


def solved_orientation(a, b):
    """The verdict of ``same_orientation`` as the sign of the determinant of
    the change of frame within the common span, solved for."""
    bh = nk.herm(a.basis)
    sign = np.sign(np.real(np.linalg.det(np.linalg.solve(bh @ a.rep, bh @ b.rep))))
    return nk.per_slice(sign > 0)


@pytest.mark.parametrize("space", [make_space(Family.ORIENTED_TWO_PLANE, 2, 2),
                                   make_space(Family.CIRCLE_SPHERE, 1, 2)],
                         ids=lambda sp: sp.label())
def test_same_orientation_reads_the_sign_of_the_change_of_frame(space):
    # the same frames, the frames reversed (last column negated) and frames
    # changed by a random matrix of either determinant sign, each as given
    # and with its last column reversed: the verdicts are the solved change
    # of frame's, for a stack and slice by slice
    rng = np.random.default_rng(47)
    rep = rng.standard_normal((8, space.dim, space.n))
    flip = np.ones(space.n)
    flip[-1] = -1.0
    mix = rng.standard_normal((8, space.n, space.n))
    a = SubspacePoint(space, rep)
    verdicts = []
    for frames in (rep, rep * flip, rep @ mix):
        for other in (frames, frames * flip):
            b = SubspacePoint(space, other)
            got = same_orientation(a, b)
            assert np.array_equal(got, solved_orientation(a, b))
            for i in range(len(rep)):
                lone_a = SubspacePoint(space, rep[i])
                lone_b = SubspacePoint(space, other[i])
                assert same_orientation(lone_a, lone_b) == solved_orientation(lone_a, lone_b)
                assert same_orientation(lone_a, lone_b) == got[i]
            verdicts.append(got)
    assert np.any(verdicts) and not np.all(verdicts)


def test_a_point_and_a_coset_keep_read_only_copies_of_their_arrays():
    # changing the caller's array afterwards changes neither the point's
    # frame nor its distances, and neither stored array can be written
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    rng = np.random.default_rng(53)
    rep, other = rng.standard_normal((2, 5, 2))
    p, there = SubspacePoint(sp, rep), SubspacePoint(sp, other)
    kept, far = rep.copy(), p.distance(there)
    assert far > 0.1
    rep[:] = other
    assert np.array_equal(p.rep, kept)
    assert p.distance(there) == far
    with pytest.raises(ValueError, match="read-only"):
        p.rep[0, 0] = 1.0
    a = random_coset(sp, 53).a.copy()
    g = GroupElement(sp, Side.NONCOMPACT, a)
    kept = a.copy()
    a[:] = np.eye(5)
    assert np.array_equal(g.a, kept)
    with pytest.raises(ValueError, match="read-only"):
        g.a[0, 0] = 1.0


def test_a_tangent_vector_and_flat_coordinates_keep_read_only_copies():
    # a later write to the caller's array reaches neither object, and neither
    # stored array can be written: a NaN or an entry off the tangent block
    # structure written there would get past the checks made at construction
    sp = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    c = np.array([0.1, 0.2])
    fc = FlatCoordinates(sp, c)
    x = fc.matrix(Side.COMPACT)
    t = TangentVector(sp, Side.COMPACT, x)
    kept = x.copy()
    c[0], x[0, 0] = np.nan, 1.0
    assert np.array_equal(fc.coords, [0.1, 0.2])
    assert np.array_equal(t.x, kept)
    with pytest.raises(ValueError, match="read-only"):
        fc.coords[0] = 9.0
    with pytest.raises(ValueError, match="read-only"):
        t.x[0, 0] = 1.0
