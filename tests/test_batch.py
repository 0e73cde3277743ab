"""A stack of inputs through the stacked kernels equals its slices one by one,
the checks of a single input hold for every slice of a stack, a sampled
check makes the same pinned SVD, QR, inverse and eigh calls for 64 samples
as for 2 (an equivariance check embeds its moved and unmoved cosets in one
pass), and one `embed --method all` call reads each frame and slope once."""

import numpy as np
import pytest

from dualspace import cli
from dualspace import numkernel as nk
from dualspace import verify
from dualspace.embeddings import (
    GroupElement,
    _slope_block,
    _slope_factors,
    embed,
    f_embed,
    log_compact,
    log_noncompact,
    point_flat_coords,
)
from dualspace.errors import DomainError, NumericalError
from dualspace.spaces import (
    Family,
    Side,
    SubspacePoint,
    make_space,
    same_orientation,
    same_point,
    slope_svd,
    special_svd,
    transitivity_element,
)

from flat_oracle import random_coset, random_slope

SPACES = verify.catalog_spaces() + [make_space(Family.REAL_GRASSMANNIAN, 16, 48)]
STACK = 5
TOL = 1e-13


def assert_close(stacked, single):
    assert np.max(np.abs(np.asarray(stacked) - np.asarray(single)), initial=0.0) <= TOL


def slopes(space, seed, sigma_max=None):
    return random_slope(space, seed, sigma_max, size=STACK)


def graph_points(space, y):
    top = np.broadcast_to(np.eye(space.n, dtype=space.dtype), (len(y), space.n, space.n))
    return SubspacePoint(space, np.concatenate([top, y], axis=-2))


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_stacked_svds_match_their_slices(space):
    y = slopes(space, 61)
    y[1::2, :, 0] *= -1.0  # for m = n this flips the sign of det(y) on every other slice
    w, s, z = slope_svd(space, y)
    u, t, vh = special_svd(nk.herm(y), space.oriented)
    for i in range(STACK):
        singles = slope_svd(space, y[i]) + special_svd(y[i].conj().T, space.oriented)
        for stacked, single in zip((w, s, z, u, t, vh), singles):
            assert_close(stacked[i], single)
    if space.oriented:
        # the sign push left both factors in the special group, slice by slice
        assert_close(np.linalg.det(u), 1.0)
        assert_close(np.linalg.det(vh), 1.0)
        if space.m == space.n:
            # det(u) det(vh) has the sign of det(y), so the push ran on some slices
            raw_u, _, raw_vh = np.linalg.svd(nk.herm(y))
            assert ((np.linalg.det(raw_u) < 0) | (np.linalg.det(raw_vh) < 0)).any()


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_stacked_cosets_and_embeddings_match_their_slices(space):
    y = slopes(space, 67)
    a = transitivity_element(space, y)
    g = GroupElement(space, Side.NONCOMPACT, a)
    singles = [GroupElement(space, Side.NONCOMPACT, transitivity_element(space, y[i]))
               for i in range(STACK)]
    for i in range(STACK):
        assert_close(a[i], singles[i].a)
    points = {which: embed(space, which, g) for which in ("p", "g", "f")}
    for which, pts in points.items():
        for i in range(STACK):
            single = embed(space, which, singles[i])
            assert_close(pts.rep[i], single.rep)
            assert_close(pts.basis[i], single.basis)
    flipped = SubspacePoint(space, points["g"].rep[..., ::-1])  # same spans, frames reversed
    for other in (points["g"], flipped):
        dist = points["p"].distance(other)
        same = np.broadcast_to(same_orientation(points["p"], other), STACK)  # True if unoriented
        equal = same_point(points["p"], other)
        for i in range(STACK):
            lhs = SubspacePoint(space, points["p"].rep[i])
            rhs = SubspacePoint(space, other.rep[i])
            assert abs(dist[i] - lhs.distance(rhs)) <= TOL
            assert same[i] == same_orientation(lhs, rhs)
            assert equal[i] == same_point(lhs, rhs)
    if space.oriented and space.n > 1:
        assert np.all(same_orientation(points["p"], points["g"]))
        assert not np.any(same_orientation(points["p"], flipped))


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_one_rank_deficient_slice_fails_the_stack(space):
    rep = graph_points(space, slopes(space, 71)).rep.copy()
    rep[2, :, -1] = 0.0
    with pytest.raises(DomainError, match="rank-deficient"):
        SubspacePoint(space, rep)
    with pytest.raises(DomainError, match="rank-deficient"):
        nk.orthonormal_basis(rep)


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_one_slice_at_the_boundary_fails_the_logs_and_f(space):
    sigma = np.full(STACK, 0.5)
    sigma[3] = 1.0 - 1e-14
    y = slopes(space, 73, sigma)
    points = graph_points(space, y)
    cosets = GroupElement(space, Side.NONCOMPACT, transitivity_element(space, y))
    with pytest.raises(NumericalError):
        log_noncompact(space, points)
    with pytest.raises(NumericalError):
        f_embed(space, cosets)
    log_compact(space, points)  # the compact log has no boundary


class CallCounter:
    """Counts calls of np.linalg.svd, np.linalg.qr, np.linalg.inv,
    np.linalg.eigh, the kernel behind the exponentials of the round trip and
    the cut loci, and np.linalg.solve, so an exact pin also pins the solves
    (none: the lattice-unit map is the space's kept inverse, and orientations
    are compared by determinants)."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for name in ("svd", "qr", "inv", "eigh", "solve"):
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def run(self, check, *args, **kwargs) -> dict:
        self.calls = {}
        check(*args, **kwargs)
        return self.calls


@pytest.mark.parametrize("space", [make_space(Family.REAL_GRASSMANNIAN, 2, 3),
                                   make_space(Family.ORIENTED_TWO_PLANE, 2, 2)],
                         ids=lambda sp: sp.label())
@pytest.mark.parametrize("check, extra, calls", [
    # the opening draw (the coset draw and the isotropy draw), then one
    # pass over the stack of moved and unmoved cosets, whose images the
    # equivariance checks read too: p's frame; g's QR; f's graph check and
    # slope SVD, read off p's frame
    (verify.check_triple_equality, (), {"svd": 5, "inv": 1, "qr": 1}),
    # the coset draw, the isotropy draw, then one pass over the stack of
    # moved and unmoved cosets: p's frame; g's QR; f's frame, graph check
    # and slope SVD.  The moved frames take no SVD.
    (verify.check_equivariance, ("p",), {"svd": 3}),
    (verify.check_equivariance, ("g",), {"svd": 2, "qr": 1}),
    (verify.check_equivariance, ("f",), {"svd": 5, "inv": 1}),
    # the slope draw of the opening draw, then the graph check and the one
    # slope SVD of f's image, which its compact coordinates and space_like
    # both read; no isotropy stack is drawn and no stack is built
    (verify.check_image_region, ("f",), {"svd": 3, "inv": 1}),
    # the opening draw (the slope draw and the isotropy draw); the frame,
    # graph check and slope SVD of the stack's point; the exponential; the
    # frame of the point it maps back to
    (verify.check_round_trip, (), {"svd": 6, "inv": 1, "eigh": 1}),
], ids=["triple", "equivariance-p", "equivariance-g", "equivariance-f", "image-f", "round-trip"])
def test_sampled_checks_make_as_many_kernel_calls_for_any_batch(monkeypatch, space, check, extra,
                                                                calls):
    # each count is cold: the memo of opening draws starts empty, and holds
    # no draw of the next sample count
    counter = CallCounter(monkeypatch)
    for samples in (2, 64):
        assert counter.run(check, space, *extra, samples=samples, seed=5) == calls, samples


@pytest.mark.parametrize("space", [make_space(Family.REAL_GRASSMANNIAN, 2, 3),
                                   make_space(Family.ORIENTED_TWO_PLANE, 2, 2)],
                         ids=lambda sp: sp.label())
def test_checks_after_the_first_read_its_opening_draw(monkeypatch, space):
    # in the order of one pass over a space at one (seed, samples): only the
    # first check draws the slope factors and the isotropy stack and builds
    # the stack of moved and unmoved cosets, and only the first to embed the
    # stack by p, g or f does: the stack keeps its images
    counter = CallCounter(monkeypatch)
    warm = [
        # the slope and isotropy draws; p's frame; g's QR; f's graph check
        # and slope SVD, read off p's frame
        (verify.check_triple_equality, (), {"svd": 5, "inv": 1, "qr": 1}),
        (verify.check_equivariance, ("p",), {}),
        (verify.check_equivariance, ("g",), {}),
        (verify.check_equivariance, ("f",), {}),
        # the graph check and slope SVD of f's image of the cosets built
        # from the drawn slope factors, with no draw
        (verify.check_image_region, ("f",), {"svd": 2, "inv": 1}),
        # the exponential and the frame of the point it maps back to: the
        # stack's point, frame and slope SVD are the ones triple read
        (verify.check_round_trip, (), {"svd": 1, "eigh": 1}),
    ]
    for samples in (2, 64):
        for check, extra, calls in warm:
            got = counter.run(check, space, *extra, samples=samples, seed=5)
            assert got == calls, (check.__name__, extra, samples)
        verify._shared_draw.cache_clear()
        # equivariance-g first: it draws and takes g's QR, and the triple
        # check after it is left p's frame and f's graph check and slope SVD
        got = counter.run(verify.check_equivariance, space, "g", samples=samples, seed=5)
        assert got == {"svd": 2, "qr": 1}, samples
        got = counter.run(verify.check_triple_equality, space, samples=samples, seed=5)
        assert got == {"svd": 3, "inv": 1}, samples


# built once, as the benchmark builds its spaces before its ops
CATALOG = verify.catalog_spaces()
SPHERE = make_space(Family.CIRCLE_SPHERE, 1, 2)
# one catalog pass at seed 2: the slope, isotropy and Haar draws, frames,
# graph checks and slope SVDs (svd); g's QRs, one per Grassmannian, since
# the triple and equivariance checks share the images of one stack; the
# graph inverses of the read slopes; the exponentials of the round trips
# and the cut loci (eigh).  The round trip reads the point, frame and
# slope SVD of the stack triple embedded, and the image check the slope
# factors of the opening draw
CATALOG_PASS_CALLS = {"svd": 70, "qr": 8, "inv": 16, "eigh": 11}


def catalog_pass(seed: int):
    """One pass of the 61 checks of the benchmark's catalog-verify op at 2
    samples, in its order, from the emptied memo each test starts with: each
    Grassmannian's seven checks, yielding the space after them, then the
    cut loci, the stereographic image and the triangle laws."""
    for space in CATALOG:
        if space.family not in verify.GRASSMANNIANS:
            continue
        verify.check_triple_equality(space, samples=2, seed=seed)
        for which in ("p", "g", "f"):
            verify.check_equivariance(space, which, samples=2, seed=seed)
        verify.check_image_region(space, "f", samples=2, seed=seed)
        verify.check_cut_radius_agreement(space, samples=2, seed=seed)
        verify.check_round_trip(space, samples=2, seed=seed)
        yield space
    for space in CATALOG:
        if space.family is Family.REAL_GRASSMANNIAN and space.n > 1:
            verify.check_cut_loci_grassmannian(space, samples=2, seed=seed)
    verify.check_image_region(SPHERE, "b", samples=2, seed=seed)
    verify.check_trig_duality_random(2, seed)


def test_catalog_pass_makes_two_haar_draws_per_grassmannian(monkeypatch):
    # each Grassmannian's seven checks draw the opening factors, which the
    # image check reads too, and the isotropy stack, 2 Haar draws instead
    # of 9, and the triangle laws 3 at this seed, 19 in all
    draws = []
    haar = verify.random_orthogonal

    def counted(*args, **kwargs):
        draws.append(1)
        return haar(*args, **kwargs)

    monkeypatch.setattr(verify, "random_orthogonal", counted)
    before = 0
    for space in catalog_pass(seed=2):
        assert len(draws) - before == 2, space.label()
        before = len(draws)
    assert len(draws) == 19


def test_catalog_pass_opens_one_stream_per_drawn_quantity(monkeypatch):
    # each Grassmannian's seven checks open the values, frames and isotropy
    # streams of the opening draw, which triple, equivariance, image and
    # round trip read, and the cut-radius check's flat stream; the cut loci
    # their flat streams, the stereographic image its stream and the
    # triangle laws one per kind of triangle, 38 in all.  A check that
    # opens a stream again for a draw the opening draw serves, or a
    # generator of its own, raises a count
    opened, generators = [], []
    stream, default_rng = verify._stream, np.random.default_rng

    def counted_stream(seed, quantity):
        opened.append(quantity)
        return stream(seed, quantity)

    def counted(seed):
        generators.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(verify, "_stream", counted_stream)
    monkeypatch.setattr(np.random, "default_rng", counted)
    opening = [verify._VALUES, verify._FRAMES, verify._ISOTROPY, verify._FLATS]
    before = 0
    for space in catalog_pass(seed=2):
        assert opened[before:] == opening, space.label()
        before = len(opened)
    assert opened[before:] == [verify._FLATS] * 3 + [verify._STEREO, verify._SPHERES,
                                                     verify._HYPERBOLAS]
    assert len(opened) == len(generators) == 38


def test_catalog_pass_kernel_counts_are_pinned(monkeypatch):
    # the kernels of one catalog-verify op at a fixed seed, with no solve:
    # every map to lattice units multiplies by the space's kept inverse
    counter = CallCounter(monkeypatch)
    counter.run(lambda: list(catalog_pass(seed=2)))
    assert counter.calls == CATALOG_PASS_CALLS


def test_cut_loci_makes_as_many_kernel_calls_for_any_batch(monkeypatch):
    counter = CallCounter(monkeypatch)
    space = make_space(Family.REAL_GRASSMANNIAN, 2, 3)
    few = counter.run(verify.check_cut_loci_grassmannian, space, samples=2, seed=5)
    many = counter.run(verify.check_cut_loci_grassmannian, space, samples=64, seed=5)
    assert few.get("eigh") and few == many


def test_every_sampled_report_names_its_worst_sample():
    for r in verify.run_suite(samples=6, seed=79):
        assert 0 <= r.details["worst_index"] < r.samples, r.property_name


def test_embed_all_reads_each_frame_and_slope_once(monkeypatch, tmp_path, capsys):
    # the slope SVD behind the boost, which the coset's point keeps with
    # its frame for p, f, space_like and the compact coordinates; g's QR;
    # the inverse of the lattice coefficients that make_space keeps on the
    # descriptor (lattice_inv), the one map to lattice units of the call
    slope = tmp_path / "y.json"
    slope.write_text("[[0.3, -0.1], [0.2, 0.4], [-0.5, 0.1]]")
    counter = CallCounter(monkeypatch)
    argv = ["embed", "gr-real", "2", "3", "--method", "all", "--input", str(slope)]
    assert counter.run(cli.main, argv) == {"svd": 1, "qr": 1, "inv": 1}
    assert capsys.readouterr().out


FRAME_SPACES = verify.catalog_spaces() + [make_space(Family.REAL_GRASSMANNIAN, 16, 48),
                                          make_space(Family.REAL_GRASSMANNIAN, 32, 32),
                                          make_space(Family.COMPLEX_GRASSMANNIAN, 16, 16)]


@pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda sp: sp.label())
def test_frames_kept_without_an_svd_are_orthonormal(monkeypatch, space):
    g = random_coset(space, 83, size=64)
    counter = CallCounter(monkeypatch)
    for which, svds in (("p", 0), ("g", 0), ("f", 0)):  # p and f read what the coset keeps
        counter.calls = {}
        frame = embed(space, which, g).basis
        assert counter.calls.get("svd", 0) == svds, which
        assert np.abs(nk.herm(frame) @ frame - np.eye(space.n)).max() <= 1e-14, which


@pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda sp: sp.label())
def test_kept_factors_equal_the_factors_read_off_the_coset(space):
    # a coset built from its slope SVD keeps the frame, slope and SVD of its
    # point; a point made from the coset's matrix reads them off its frame
    y = random_slope(space, 97, size=4)
    y[1::2, :, 0] *= -1.0  # for m = n this flips the sign of det(y) on every other slice
    cosets = [random_coset(space, 98, size=16)]
    cosets += [cli.coset_from_matrix(space, y[i]) for i in range(len(y))]
    # the read frame's SVD rounds by a few dim * eps: 2.8e-14 at dimension 64
    tol = max(1e-14, 4 * space.dim * np.finfo(float).eps)
    for g in cosets:
        kept = g.point()
        read = SubspacePoint(space, g.a[..., : space.n])
        assert np.all(nk.frame_distance(kept.basis, read.basis) <= tol)
        w, s, z = _slope_factors(space, kept)
        assert np.abs(s - _slope_factors(space, read)[1]).max() <= 1e-12
        assert np.abs((w[..., :, : space.n] * s[..., None, :]) @ nk.herm(z)
                      - _slope_block(space, kept)).max() <= 1e-14
        for side in Side:
            got = point_flat_coords(space, kept, side).coords
            assert np.abs(got - point_flat_coords(space, read, side).coords).max() <= 1e-12
        assert np.all(same_point(kept, read))  # orientation included


@pytest.mark.parametrize("space", SPACES, ids=lambda sp: sp.label())
def test_random_coset_takes_one_svd_and_no_qr(monkeypatch, space):
    # the Haar draw of the isotropy element is the only factorisation: the
    # boost is built from the drawn factors, with no slope SVD
    counter = CallCounter(monkeypatch)
    for size in (2, 64):
        assert counter.run(random_coset, space, 89, size=size) == {"svd": 1}, size
