"""Tests for the dense matrix kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspace import numkernel as nk
from dualspace.embeddings import log_noncompact
from dualspace.errors import DomainError, NumericalError
from dualspace.spaces import Family, FlatCoordinates, Side, SubspacePoint, make_space
from dualspace.verify import catalog_spaces, random_coset, random_unit_flat

from expm_oracle import expm
from flat_oracle import random_slope

# angle of the rotation produced by orthonormalizing the unit boost:
# tan(theta) = -tanh(1), evaluated independently of the kernel under test
THETA_BOOST = -np.arctan(np.tanh(1.0))


def rotation(t):
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


def boost(t):
    return np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])


# ---------------------------------------------------------------------------
# expm, the test oracle the exp_tangent tests compare with


def test_expm_zero_is_identity():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_expm_rotation_generator():
    t = np.pi / 3
    x = t * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(expm(x), rotation(t), atol=1e-13)


def test_expm_boost_generator():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(expm(x), boost(1.0), atol=1e-13)


def test_expm_accuracy_large_norm():
    # eigendecomposition oracle on a symmetric matrix of spectral norm 50
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    s = a + a.T
    s *= 50.0 / np.linalg.norm(s, 2)
    w, v = np.linalg.eigh(s)
    oracle = (v * np.exp(w)) @ v.T
    got = expm(s)
    assert np.linalg.norm(got - oracle, 2) <= 1e-12 * np.linalg.norm(oracle, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_expm_inverse_property(dim, key):
    rng = np.random.default_rng(key)
    x = rng.uniform(-1.0, 1.0, (dim, dim))
    x *= min(1.0, 10.0 / max(np.linalg.norm(x, 2), 1e-9))
    prod = expm(x) @ expm(-x)
    assert np.max(np.abs(prod - np.eye(dim))) <= 1e-10


def test_expm_conjugation_equivariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 4))
    k, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lhs = expm(k @ x @ k.T)
    rhs = k @ expm(x) @ k.T
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# exp_tangent

TANGENT_SPACES = catalog_spaces() + [make_space(Family.REAL_GRASSMANNIAN, 16, 48)]


@pytest.mark.parametrize("space", TANGENT_SPACES, ids=lambda sp: sp.label())
def test_exp_tangent_matches_expm_on_both_sides(space):
    rng = np.random.default_rng(83)
    n, size = space.n, 200
    top = np.broadcast_to(np.eye(n, dtype=space.dtype), (size, n, n))
    point = SubspacePoint(space, np.concatenate([top, random_slope(space, rng, size=size)], -2))
    # noncompact tangents: Hermitian only to rounding, as the round trip makes them
    x = log_noncompact(space, point).x
    got, ref = nk.exp_tangent(x, hermitian=True), expm(x)
    rel = np.linalg.norm(got - ref, 2, axis=(-2, -1)) / np.linalg.norm(ref, 2, axis=(-2, -1))
    assert got.dtype == space.dtype
    assert np.max(rel) <= 1e-13
    # compact flats, skew-Hermitian, at |t| <= 2 along unit directions
    t = rng.uniform(-2.0, 2.0, size)[:, None, None]
    flat = t * FlatCoordinates(space, random_unit_flat(space, rng, size)).matrix(Side.COMPACT)
    got = nk.exp_tangent(flat, hermitian=False)
    assert got.dtype == space.dtype
    assert np.max(np.abs(got - expm(flat))) <= 1e-13
    for i in (0, 101, 199):
        np.testing.assert_allclose(got[i], nk.exp_tangent(flat[i], hermitian=False),
                                   rtol=0.0, atol=1e-14)


def test_exp_tangent_closed_forms():
    t = np.pi / 3
    x = t * np.array([[0.0, 1.0], [-1.0, 0.0]])
    got = nk.exp_tangent(x, hermitian=False)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, rotation(t), atol=1e-14)
    np.testing.assert_allclose(nk.exp_tangent(x @ x.T / t**2, hermitian=True),
                               np.e * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(nk.exp_tangent([[0.0, 1.0], [1.0, 0.0]], hermitian=True),
                               boost(1.0), atol=1e-14)
    np.testing.assert_allclose(nk.exp_tangent(1j * t * np.eye(2), hermitian=False),
                               np.exp(1j * t) * np.eye(2), atol=1e-14)


def test_exp_tangent_rejects_bad_input():
    with pytest.raises(DomainError):
        nk.exp_tangent(np.ones((2, 3)), hermitian=True)
    with pytest.raises(DomainError):
        nk.exp_tangent(np.array([[0.0, np.inf], [-np.inf, 0.0]]), hermitian=False)


# ---------------------------------------------------------------------------
# phase_fixed_qr


def assert_pinned_factors(a, q, r, tol=1e-10):
    """q unitary, r upper triangular with a positive real diagonal, a = q r."""
    k = a.shape[-1]
    assert np.max(np.abs(q.conj().T @ q - np.eye(k))) <= tol
    # upper triangular, hence in every parabolic (block upper-triangular) subgroup
    assert np.max(np.abs(np.tril(r, -1))) <= tol
    assert np.max(np.abs(q @ r - a)) <= tol * max(1.0, np.max(np.abs(a)))
    # positive real diagonal pins the representative
    assert np.max(np.abs(np.diag(r).imag)) <= 1e-12
    assert np.all(np.diag(r).real > 0)


def test_phase_fixed_qr_identity():
    q, r = nk.phase_fixed_qr(np.eye(3))
    np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(r, np.eye(3), atol=1e-14)


def test_phase_fixed_qr_boost_gives_pinned_rotation():
    q, r = nk.phase_fixed_qr(boost(1.0))
    expected = rotation(THETA_BOOST)
    np.testing.assert_allclose(q, expected, atol=1e-12)
    assert THETA_BOOST == pytest.approx(-0.6508801680230075, abs=1e-12)
    np.testing.assert_allclose(q @ r, boost(1.0), atol=1e-12)


def test_phase_fixed_qr_random_invertible():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + np.eye(4)
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        q, r = nk.phase_fixed_qr(a)
        assert_pinned_factors(a, q, r)


def test_phase_fixed_qr_complex_unitary_factor():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = nk.phase_fixed_qr(a)
    assert_pinned_factors(a, q, r)


def test_phase_fixed_qr_singular_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError):
        nk.phase_fixed_qr(a)


def mgs_reference(a):
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    k = a.shape[0]
    q = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    r = np.zeros((k, k), dtype=q.dtype)
    for j in range(k):
        for _ in range(2):
            for i in range(j):
                c = np.vdot(q[:, i], q[:, j])
                r[i, j] += c
                q[:, j] = q[:, j] - c * q[:, i]
        r[j, j] = np.linalg.norm(q[:, j])
        q[:, j] = q[:, j] / r[j, j]
    return q, r


@pytest.mark.parametrize("family,n,m", [
    (Family.REAL_GRASSMANNIAN, 16, 48),
    (Family.COMPLEX_GRASSMANNIAN, 16, 16),
])
def test_phase_fixed_qr_matches_gram_schmidt_reference(family, n, m):
    space = make_space(family, n, m)
    rng = np.random.default_rng(31)
    for _ in range(3):
        a = random_coset(space, rng).a
        q, r = nk.phase_fixed_qr(a)
        q_ref, r_ref = mgs_reference(a)
        assert np.max(np.abs(q - q_ref)) <= 1e-10
        assert np.max(np.abs(r - r_ref)) <= 1e-10 * max(1.0, np.max(np.abs(r_ref)))
        assert_pinned_factors(a, q, r)


def test_phase_fixed_qr_nearly_repeated_column_raises():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((6, 6))
    a[:, -1] = a[:, -2] + 1e-14 * rng.standard_normal(6)
    with pytest.raises(NumericalError):
        nk.phase_fixed_qr(a)


@pytest.mark.parametrize("complex_", [False, True])
def test_phase_fixed_qr_stack_with_a_singular_slice(complex_):
    rng = np.random.default_rng(33)
    a = rng.standard_normal((4, 5, 5)) + 2 * np.eye(5)
    if complex_:
        a = a + 1j * rng.standard_normal((4, 5, 5))
    a[2, :, -1] = a[2, :, 0]
    # one singular slice refuses the whole stack
    with pytest.raises(NumericalError):
        nk.phase_fixed_qr(a)
    with pytest.raises(NumericalError):
        nk.phase_fixed_qr(a[2])
    # the other slices, as a stack, match their single-matrix factors
    rest = a[[0, 1, 3]]
    q, r = nk.phase_fixed_qr(rest)
    for i in range(3):
        qi, ri = nk.phase_fixed_qr(rest[i])
        assert np.max(np.abs(q[i] - qi)) <= 1e-14
        assert np.max(np.abs(r[i] - ri)) <= 1e-14
        assert_pinned_factors(rest[i], q[i], r[i])


# ---------------------------------------------------------------------------
# orthonormal_basis


@pytest.mark.parametrize("complex_", [False, True])
def test_orthonormal_basis_is_an_orthonormal_frame_of_the_span(complex_):
    rng = np.random.default_rng(53)
    l = rng.standard_normal((6, 3))
    if complex_:
        l = l + 1j * rng.standard_normal((6, 3))
    q = nk.orthonormal_basis(l)
    assert q.shape == l.shape and q.dtype == l.dtype
    assert np.max(np.abs(q.conj().T @ q - np.eye(3))) <= 1e-14
    # every column of l lies in span(q), and q has full rank 3
    assert np.linalg.norm(l - q @ (q.conj().T @ l)) <= 1e-13 * np.linalg.norm(l)


# ---------------------------------------------------------------------------
# projector distance: frame_distance over orthonormal_basis


def projector_distance(l1, l2):
    return nk.frame_distance(nk.orthonormal_basis(l1), nk.orthonormal_basis(l2))


def test_projector_distance_right_action_invariance():
    rng = np.random.default_rng(41)
    l = rng.standard_normal((5, 2))
    g = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    assert projector_distance(l, l @ g) <= 1e-12


def test_projector_distance_orthogonal_lines():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert projector_distance(e1, e2) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_projector_distance_boost_vs_rotation_line():
    # the boost line [1; tanh 1] and the rotated line [1; -tan theta]
    # coincide exactly when tan(theta) = -tanh(1)
    l1 = np.array([[1.0], [np.tanh(1.0)]])
    l2 = np.array([[1.0], [-np.tan(THETA_BOOST)]])
    assert projector_distance(l1, l2) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_projector_distance_pseudometric(key):
    rng = np.random.default_rng(key)
    mats = [rng.standard_normal((4, 2)) for _ in range(3)]
    d01 = projector_distance(mats[0], mats[1])
    d10 = projector_distance(mats[1], mats[0])
    d02 = projector_distance(mats[0], mats[2])
    d12 = projector_distance(mats[1], mats[2])
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d01 <= d02 + d12 + 1e-12
    assert projector_distance(mats[0], mats[0]) <= 1e-13


def test_projector_distance_rank_deficient_raises():
    with pytest.raises(DomainError):
        projector_distance(np.zeros((3, 2)), np.eye(3)[:, :2])
