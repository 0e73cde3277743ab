"""The constants a space or a lattice keeps (``lattice_inv``, ``alpha2``)
and the in-place forms that read them give what the direct formulas give:
the closed-form radius and the region fraction bit for bit, the
lattice-unit coordinates through the kept inverse to 4 eps of a solve
against ``lattice_coeff``, and the boost with its identity added in place
the sum with ``np.eye``.  Every catalog space and two large ones, one input
and a stack, both sides."""

import numpy as np
import pytest

from dualspace import lattice, verify
from dualspace import numkernel as nk
from dualspace.embeddings import _negated_factors, _slope_factors, point_flat_coords
from dualspace.spaces import FAMILIES, Family, Side, _boost_factors, make_space

from flat_oracle import random_coset, random_factors

SPACES = verify.catalog_spaces() + [make_space(Family.REAL_GRASSMANNIAN, 16, 48),
                                    make_space(Family.COMPLEX_GRASSMANNIAN, 16, 16)]
EPS = np.finfo(float).eps


def directions(rank, seed, size):
    """A stack of ``size`` flat directions, the second of them zero, and one
    direction."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size, rank))
    x[1] = 0.0
    return x, rng.standard_normal(rank)


def solved_radius(x, basis):
    """The closed-form radius with alpha^2 taken from the Gram matrix and the
    largest inner product gathered at its argmax."""
    c = np.abs(lattice._unit_direction(x, basis.gram) @ basis.gram)
    i0 = np.argmax(c, axis=-1)
    alpha2 = float(np.mean(np.diag(basis.gram)))
    return alpha2 / (2.0 * np.take_along_axis(c, i0[..., None], axis=-1)[..., 0]), i0


@pytest.mark.parametrize("space", SPACES + [None],
                         ids=lambda sp: "su3" if sp is None else sp.label())
def test_radii_and_fractions_equal_the_per_call_formulas(space):
    # each formula sees the shape the library passes on: a lone direction
    # stays one-dimensional in cut_radius_closed, a row of one in cut_radius
    basis = lattice.su3_lattice() if space is None else space.lattice
    assert basis.alpha2 == float(np.mean(np.diag(basis.gram)))

    def radii(rows):
        if basis.orthonormal:
            return solved_radius(rows, basis)[0]
        return np.array([lattice.cut_radius_brute(row, basis).radius for row in rows])

    def norms(rows):
        return np.sqrt(np.maximum(np.sum((rows @ basis.gram) * rows, axis=-1), 0.0))

    x, one = directions(basis.rank, 5, 7)
    nonzero = np.delete(x, 1, axis=0)
    frac = lattice.region_fraction(x, basis)
    assert frac[1] == 0.0
    assert np.array_equal(np.delete(frac, 1), norms(x)[np.arange(len(x)) != 1] / radii(nonzero))
    assert lattice.region_fraction(one, basis) == norms(one) / radii(one[None])[0]
    if basis.orthonormal:
        assert np.array_equal(lattice.cut_radius_closed(nonzero, basis), radii(nonzero))
        assert lattice.cut_radius_closed(one, basis) == radii(one)
        radius, i0 = solved_radius(one[None], basis)
        minimizer = np.zeros(basis.rank, dtype=int)
        minimizer[i0[0]] = -1
        res = lattice.cut_radius(one, basis)
        assert res.used_closed_form
        assert (res.radius, res.minimizer) == (radius[0], tuple(minimizer))


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_lattice_units_through_the_kept_inverse_match_a_solve(space):
    assert not space.lattice_inv.flags.writeable
    assert np.abs(space.lattice_inv @ space.lattice_coeff - np.eye(space.rank)).max() <= 4 * EPS
    for seed, size in ((7, 5), (8, None)):
        point = random_coset(space, seed, size=size).point()
        w, sig, _ = _slope_factors(space, point)
        carts = {Side.NONCOMPACT: np.arctanh(sig),
                 Side.COMPACT: np.arctan(_negated_factors(space, w, sig)[1])}
        for side, cart in carts.items():
            got = point_flat_coords(space, point, side).coords
            want = np.linalg.solve(space.lattice_coeff, cart[..., None])[..., 0]
            scale = np.abs(want).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 4 * EPS * scale), side


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_boost_adds_the_identity_in_place(space):
    for seed, size in ((11, 5), (12, None)):
        w, s, z = random_factors(space, seed, size=size)
        a = _boost_factors(space, w, s, z)
        n = space.n
        wn = w[..., :, :n]
        ch = 1.0 / np.sqrt((1.0 - s) * (1.0 + s))
        lower = np.eye(space.m) + (wn * (ch - 1.0)[..., None, :]) @ nk.herm(wn)
        assert np.array_equal(a[..., n:, n:], lower)


def test_kept_constants_are_read_only():
    # a write to one of these would leave what was computed from it
    # (lattice_inv, eigmin, alpha2, the orthonormal verdict) out of step
    kept = [row.lattice_coeff for row in FAMILIES.values() if row.lattice_coeff is not None]
    for space in SPACES:
        kept += [space.form_j, space.lattice_coeff, space.lattice_inv]
    for basis in [space.lattice for space in SPACES] + [lattice.su3_lattice()]:
        kept += [basis.generators, basis.gram]
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    gens = np.eye(2)
    basis = lattice.LatticeBasis(generators=gens)
    gens[0, 0] = 2.0
    assert np.array_equal(basis.generators, np.eye(2)) and basis.orthonormal
