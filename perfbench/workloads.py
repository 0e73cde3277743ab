"""The benchmark's three workloads: inputs from a seed, one op, and its check.

Each workload class builds every input from its seed in ``__init__``,
runs one op in ``op(i)`` and checks that op's output in ``check(i, out)``.
A check returns a list of problems; an empty list means the output is
right.  The checks recompute what they need with plain numpy and never
compare against a saved copy of earlier output.

Program functions are looked up on their module at every call
(``verify.<check>``, ``cli.main``, ``lattice.cut_radius``), so the
run-time wrappers of ``layertrace.py`` see the calls the workloads make.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

from dualspace import cli, lattice, verify
from dualspace.spaces import Family, make_space

# Per-op inputs are drawn into pools this large and cycled through.
POOL = 4096


# ---------------------------------------------------------------------------
# catalog-verify: one pass over the property checks of the whole catalog

SAMPLES = 2

GRASSMANNIANS = (
    (Family.REAL_GRASSMANNIAN, 1, 1),
    (Family.REAL_GRASSMANNIAN, 1, 2),
    (Family.REAL_GRASSMANNIAN, 2, 2),
    (Family.REAL_GRASSMANNIAN, 2, 3),
    (Family.REAL_GRASSMANNIAN, 3, 4),
    (Family.COMPLEX_GRASSMANNIAN, 1, 1),
    (Family.COMPLEX_GRASSMANNIAN, 1, 2),
    (Family.COMPLEX_GRASSMANNIAN, 2, 2),
)
CUT_LOCI = ((Family.REAL_GRASSMANNIAN, 2, 2),
            (Family.REAL_GRASSMANNIAN, 2, 3),
            (Family.REAL_GRASSMANNIAN, 3, 4))
SPHERE = (Family.CIRCLE_SPHERE, 1, 2)

# (check function, report name prefix, tolerance the report must carry).
# A tolerance of None marks a margin report: its worst value must be > 0.
PER_GRASSMANNIAN = (
    ("check_triple_equality", (), "triple-equality", 1e-9),
    ("check_equivariance", ("p",), "equivariance-p", 1e-9),
    ("check_equivariance", ("g",), "equivariance-g", 1e-9),
    ("check_equivariance", ("f",), "equivariance-f", 1e-9),
    ("check_image_region", ("f",), "image-region-f", None),
    ("check_cut_radius_agreement", (), "cut-radius-agreement", 1e-12),
    ("check_round_trip", (), "round-trip", 1e-9),
)


def catalog_checks():
    """The fixed list of (check, space or None, extra args, report name, tolerance).

    The same 61 checks ``verify.run_suite`` ran when this benchmark was
    written, all at ``SAMPLES`` samples, so a later change to the suite
    does not change the work measured here.
    """
    checks = []
    for key in GRASSMANNIANS:
        sp = make_space(*key)
        for fn, extra, prefix, tol in PER_GRASSMANNIAN:
            checks.append((fn, sp, extra, f"{prefix}/{sp.label()}", tol))
    for key in CUT_LOCI:
        sp = make_space(*key)
        checks.append(("check_cut_loci_grassmannian", sp, (), f"cut-loci/{sp.label()}", 1e-10))
    sp = make_space(*SPHERE)
    checks.append(("check_image_region", sp, ("b",), f"image-region-b/{sp.label()}", None))
    checks.append(("check_trig_duality_random", None, (), "trig-duality-random", 1e-8))
    return checks


class CatalogVerify:
    """One op is one pass over ``catalog_checks()`` with a fresh seed."""

    call_s = calls = {}  # per-lattice call times; only cut-radius has them

    def __init__(self, seed: int, workdir=None):
        self.checks = catalog_checks()
        self.seeds = np.random.default_rng(seed).integers(0, 2**31, size=POOL)

    def op(self, i: int):
        s = int(self.seeds[i % POOL])
        reports = []
        for fn, sp, extra, _, _ in self.checks:
            check = getattr(verify, fn)
            if sp is None:
                reports.append(check(SAMPLES, s))
            else:
                reports.append(check(sp, *extra, samples=SAMPLES, seed=s))
        return reports

    def check(self, i: int, reports) -> list:
        if len(reports) != len(self.checks):
            return [f"{len(reports)} reports, expected {len(self.checks)}"]
        problems = []
        for rep, (_, _, _, name, tol) in zip(reports, self.checks):
            if rep.property_name != name:
                problems.append(f"report {rep.property_name!r}, expected {name!r}")
            elif rep.samples != SAMPLES:
                problems.append(f"{name}: {rep.samples} samples, expected {SAMPLES}")
            elif rep.failures != 0:
                problems.append(f"{name}: {rep.failures} failures")
            elif rep.tolerance != tol:
                problems.append(f"{name}: tolerance {rep.tolerance}, expected {tol}")
            elif tol is None and not rep.worst_residual > 0.0:
                problems.append(f"{name}: margin {rep.worst_residual} is not positive")
            elif tol is not None and not rep.worst_residual <= tol:
                problems.append(f"{name}: worst residual {rep.worst_residual} above {tol}")
        return problems


# ---------------------------------------------------------------------------
# embed-large: `dualspace embed <space> --method all` at dimension 32-64

EMBED_SPACES = (("gr-real", 16, 48), ("gr-real", 32, 32), ("gr-complex", 16, 16))
SLOPES_PER_SPACE = 4
EMBED_KEYS = {"space", "method", "result", "residuals", "seed", "version"}
EMBED_TOL = 1e-9
FRACTION_TOL = 1e-12


def random_slope(rng, n: int, m: int, complex_: bool) -> np.ndarray:
    """Slope Y = W diag(s) Z^H, s_max uniform in [0.05, 0.95], the rest in [0, s_max]."""
    smax = rng.uniform(0.05, 0.95)
    s = np.concatenate([[smax], rng.uniform(0.0, smax, size=n - 1)])

    def frame(k):
        g = rng.standard_normal((k, k))
        if complex_:
            g = g + 1j * rng.standard_normal((k, k))
        return np.linalg.qr(g)[0]

    return frame(m)[:, :n] @ np.diag(s) @ frame(n).conj().T


def matrix_json(y: np.ndarray) -> str:
    if np.iscomplexobj(y):
        return json.dumps([[[v.real, v.imag] for v in row] for row in y.tolist()])
    return json.dumps(y.tolist())


def projector(a: np.ndarray) -> np.ndarray:
    q = np.linalg.qr(a)[0]
    return q @ q.conj().T


class EmbedLarge:
    """One op is one in-process `dualspace embed ... --method all` per large space.

    Slope files are written to ``workdir``; op i reads slope i mod
    ``SLOPES_PER_SPACE`` of each space.
    """

    call_s = calls = {}

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.inputs = []  # per space: list of (argv, slope, expected region fraction)
        for family, n, m in EMBED_SPACES:
            per_space = []
            for k in range(SLOPES_PER_SPACE):
                y = random_slope(rng, n, m, family == "gr-complex")
                path = os.path.join(workdir, f"{family}-{n}-{m}-{k}.json")
                with open(path, "w") as fh:
                    fh.write(matrix_json(y))
                argv = ["embed", family, str(n), str(m), "--method", "all", "--input", path]
                smax = np.linalg.svd(y, compute_uv=False)[0]
                per_space.append((argv, y, 2.0 / np.pi * np.arctan(smax)))
            self.inputs.append(per_space)

    def op(self, i: int):
        outs = []
        for per_space in self.inputs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(per_space[i % SLOPES_PER_SPACE][0])
            outs.append((code, out.getvalue(), err.getvalue()))
        return outs

    def check(self, i: int, outs) -> list:
        problems = []
        for per_space, (code, text, err) in zip(self.inputs, outs):
            argv, y, fraction = per_space[i % SLOPES_PER_SPACE]
            label = " ".join(argv[1:4])
            if code != 0:
                problems.append(f"{label}: exit {code}: {err.strip()}")
                continue
            problems += [f"{label}: {p}" for p in embed_problems(text, y, fraction)]
        return problems


def embed_problems(text: str, y: np.ndarray, fraction: float) -> list:
    """What is wrong with one `embed --method all` output for slope ``y``."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if set(out) != EMBED_KEYS:
        return [f"keys {sorted(out)}, expected {sorted(EMBED_KEYS)}"]
    problems = []
    res = out["residuals"]
    for pair in ("p-g", "p-f", "g-f"):
        if not res.get(pair, np.inf) <= EMBED_TOL:
            problems.append(f"residual {pair} = {res.get(pair)}")
    result = out["result"]
    rows = [[complex(*v) if isinstance(v, list) else v for v in row]
            for row in result["subspace"]]
    sub = np.array(rows)
    graph = np.vstack([np.eye(y.shape[1]), y])
    if sub.shape != graph.shape:
        problems.append(f"subspace shape {sub.shape}, expected {graph.shape}")
    else:
        dist = float(np.linalg.norm(projector(sub) - projector(graph)))
        if not dist <= EMBED_TOL:
            problems.append(f"subspace is {dist} away from span([I; Y])")
    if result["space_like"] is not True:
        problems.append(f"space_like is {result['space_like']}")
    if not abs(result["region_fraction"] - fraction) <= FRACTION_TOL:
        problems.append(f"region_fraction {result['region_fraction']}, expected {fraction}")
    return problems


# ---------------------------------------------------------------------------
# cut-radius: lattice.cut_radius along random flat directions

RADIUS_TOL = 1e-12  # relative


def bidiagonal(k: int, skew: int) -> np.ndarray:
    """Unimodular upper-bidiagonal basis of Z^k: ones on the diagonal, ``skew`` above."""
    return np.eye(k) + skew * np.eye(k, k=1)


def _pm(vectors) -> np.ndarray:
    v = np.array(vectors, dtype=np.float64)
    return np.vstack([v, -v])


# Voronoi-relevant vectors of each lattice, in orthonormal flat coordinates.
_HEX = 2.0 * np.pi * np.array([[1.0, 0.0], [-0.5, np.sqrt(3.0) / 2.0], [0.5, np.sqrt(3.0) / 2.0]])
RELEVANT = {
    "su3": _pm(_HEX),
    "gr-real-3-4": _pm(np.pi * np.eye(3)),
    "oriented2-2-2": _pm(np.pi * np.array([[1.0, 1.0], [1.0, -1.0]])),
    "z2-skew": _pm(np.eye(2)),
    "z3-skew": _pm(np.eye(3)),
    "z4-skew": _pm(np.eye(4)),
}

# Skews chosen so that every direction solves in milliseconds today.
SKEWS = {"z2-skew": (2, 4), "z3-skew": (3, 2), "z4-skew": (4, 1)}


def cut_lattices() -> dict:
    """The fixed lattice list of the cut-radius workload, by name."""
    out = {
        "su3": lattice.su3_lattice(),
        "gr-real-3-4": make_space(Family.REAL_GRASSMANNIAN, 3, 4).lattice,
        "oriented2-2-2": make_space(Family.ORIENTED_TWO_PLANE, 2, 2).lattice,
    }
    for name, (k, skew) in SKEWS.items():
        out[name] = lattice.LatticeBasis(generators=bidiagonal(k, skew))
    return out


class CutRadius:
    """One op solves one direction on every lattice of ``cut_lattices()``.

    Directions are isotropic Gaussian vectors in orthonormal flat
    coordinates, handed to the program in lattice coordinates.  The time of
    each call is added to ``call_s[name]`` and counted in ``calls[name]``.
    """

    def __init__(self, seed: int, workdir=None):
        rng = np.random.default_rng(seed)
        self.lattices = cut_lattices()
        self.generators = {}  # the bases the directions were drawn in, kept for the checks
        self.directions = {}
        for name, basis in self.lattices.items():
            self.generators[name] = np.array(basis.generators)
            v = rng.standard_normal((POOL, basis.rank))
            self.directions[name] = np.linalg.solve(self.generators[name], v.T).T
        self.call_s = dict.fromkeys(self.lattices, 0.0)
        self.calls = dict.fromkeys(self.lattices, 0)

    def op(self, i: int):
        out = []
        for name, basis in self.lattices.items():
            x = self.directions[name][i % POOL]
            t0 = time.perf_counter()
            res = lattice.cut_radius(x, basis)
            self.call_s[name] += time.perf_counter() - t0
            self.calls[name] += 1
            out.append(res)
        return out

    def check(self, i: int, results) -> list:
        problems = []
        for name, res in zip(self.lattices, results):
            x = self.directions[name][i % POOL]
            problems += [f"{name}: {p}" for p in radius_problems(self.generators[name], x, res,
                                                                  RELEVANT[name])]
        return problems


def radius_problems(generators: np.ndarray, x: np.ndarray, res, relevant: np.ndarray) -> list:
    """What is wrong with one cut-radius result for lattice direction ``x``."""
    v = generators @ x
    v = v / np.linalg.norm(v)
    dots = np.abs(relevant @ v)
    hit = dots > 1e-14
    expected = float(np.min(np.sum(relevant[hit] ** 2, axis=1) / (2.0 * dots[hit])))
    problems = []
    if not abs(res.radius - expected) <= RADIUS_TOL * expected:
        problems.append(f"radius {res.radius}, expected {expected}")
    m = np.array(res.minimizer, dtype=np.float64)
    if m.shape != x.shape or not np.all(m == np.round(m)) or not np.any(m):
        return problems + [f"minimizer {res.minimizer} is not a nonzero integer vector"]
    a = generators @ m
    d = abs(float(a @ v))
    value = float(a @ a) / (2.0 * d) if d > 0.0 else np.inf
    if not abs(value - res.radius) <= RADIUS_TOL * res.radius:
        problems.append(f"value {value} at minimizer {res.minimizer} is not the radius {res.radius}")
    return problems


WORKLOADS = {"catalog-verify": CatalogVerify, "embed-large": EmbedLarge, "cut-radius": CutRadius}


def build_spaces(workload: str):
    """Build the spaces and lattices a workload runs on (timed as set-up)."""
    if workload == "catalog-verify":
        return catalog_checks()
    if workload == "embed-large":
        return [cli.parse_space(*key) for key in EMBED_SPACES]
    if workload == "cut-radius":
        return cut_lattices()
    raise ValueError(f"unknown workload {workload!r}")
