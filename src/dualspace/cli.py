"""Command-line surface: catalog inspection, embeddings, cut radii, verification.

Subcommands
-----------
lattice-info    rank, Gram matrix, orthonormality verdict, generator norms
cut-radius      cut radius along a flat direction, with minimizing vector
cutlocus-grid   (direction, radius) samples over the unit sphere of the flat
embed           run one or all embeddings on a coset given as matrix data
verify          run the claims of ``verify.CLAIMS`` on one space or all; exit 0
                iff no failures, 3 if the property is claimed on none of them

Output goes to stdout as JSON with the stable key set
{space, method, result, residuals, seed, version} (CSV for grid data),
diagnostics to stderr.  Exit codes: 0 ok, 2 usage, 3 mathematical domain
error, 4 numerical failure.  The environment variable DUALSPACE_SEED
overrides the default sampling seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, numkernel as nk, verify
from .embeddings import (
    GroupElement,
    b_embed_rank1,
    coset_from_factors,
    embed,
    f_flat_rank1,
    point_flat_coords,
    space_like,
)
from .errors import DomainError, NumericalError
from .lattice import (
    LatticeBasis,
    cut_radius,
    cut_radius_brute,
    is_orthonormal,
    region_fraction,
    su3_lattice,
)
from .spaces import Family, Side, SpaceDescriptor, make_space, slope_svd

USAGE_EXIT, DOMAIN_EXIT, NUMERICAL_EXIT = 2, 3, 4

_FAMILY_IDS = {
    "gr-real": Family.REAL_GRASSMANNIAN,
    "gr-complex": Family.COMPLEX_GRASSMANNIAN,
    "oriented2": Family.ORIENTED_TWO_PLANE,
    "oriented-2plane": Family.ORIENTED_TWO_PLANE,
    "sphere": Family.CIRCLE_SPHERE,
    "circle": Family.CIRCLE_SPHERE,
}


def default_seed() -> int:
    raw = os.environ.get("DUALSPACE_SEED")
    if raw is None:
        return verify.DEFAULT_SEED
    try:
        seed = int(raw, 0)
    except ValueError:
        seed = -1
    if seed < 0:
        raise UsageError(f"DUALSPACE_SEED must be a non-negative integer, got {raw!r}")
    return seed


class UsageError(Exception):
    pass


def parse_space(family: str, n, m):
    """Resolve a (family, n, m) triple; 'su3' names the counterexample lattice."""
    if family == "su3":
        return None
    if family not in _FAMILY_IDS:
        raise UsageError(f"unknown space id {family!r} "
                         f"(choose from {sorted(_FAMILY_IDS)} or 'su3')")
    if n is None or m is None:
        raise UsageError(f"space {family!r} needs dimensions: {family} N M")
    return make_space(_FAMILY_IDS[family], int(n), int(m))


def space_lattice(family: str, n, m):
    if family == "su3":
        return None, su3_lattice(), "su3"
    sp = parse_space(family, n, m)
    return sp, sp.lattice, sp.label()


def emit(payload: dict, stream=None):
    # json.dumps runs the C encoder; json.dump to a stream never does
    text = json.dumps(payload, sort_keys=True, default=_jsonify)
    (stream or sys.stdout).write(text + "\n")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.atleast_2d(obj)
            return [[[x, y] if y != 0.0 else x for x, y in zip(re, im)]
                    for re, im in zip(obj.real.tolist(), obj.imag.tolist())]
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return _c(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _c(v):
    v = complex(v)
    return [v.real, v.imag] if v.imag != 0.0 else v.real


def envelope(space_label: str, method: str, result, residuals=None, seed=None) -> dict:
    return {
        "space": space_label,
        "method": method,
        "result": result,
        "residuals": residuals or {},
        "seed": seed if seed is not None else default_seed(),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# input parsing for embed


def _from_json_entries(data):
    """Array-of-arrays with scalars or [re, im] pairs as entries.

    Numeric input, a matrix of numbers or of [re, im] pairs only, converts
    with one ``np.array`` call; anything else (null, mixed or ragged rows)
    is read entry by entry.  :func:`read_matrix` refuses strings and
    booleans before the JSON is parsed.
    """
    try:
        arr = np.array(data)
    except (ValueError, TypeError, OverflowError):  # ragged, or not numbers
        arr = None
    if arr is not None and arr.dtype.kind in "fi":
        if arr.ndim == 2:
            return arr.astype(np.float64)
        if arr.ndim == 3 and arr.shape[-1] == 2:
            return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]
    rows = []
    complex_seen = False
    for row in data:
        out = []
        for v in row:
            if isinstance(v, (list, tuple)):
                if len(v) != 2:
                    raise UsageError("complex entries must be [re, im] pairs")
                out.append(complex(v[0], v[1]))
                complex_seen = True
            else:
                out.append(float(v))
        rows.append(out)
    arr = np.array(rows, dtype=np.complex128 if complex_seen else np.float64)
    if not complex_seen:
        arr = arr.astype(np.float64)
    return arr


def read_matrix(path: str) -> np.ndarray:
    """Matrix from a JSON or CSV file ('-' reads stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    text = text.strip()
    if not text:
        raise UsageError("empty matrix input")
    if text[0] in "[{":
        # numbers, null, NaN and Infinity spell no 'r' or 's': those come
        # from true and false, as '"' comes from a string
        if '"' in text or "r" in text or "s" in text:
            raise UsageError("cannot parse JSON matrix: entries must be numbers or "
                             "[re, im] pairs, not strings or booleans")
        try:
            return _from_json_entries(json.loads(text))
        except (json.JSONDecodeError, TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"cannot parse JSON matrix: {exc}") from exc
    try:
        rows = [[float(v) for v in line.replace(",", " ").split()]
                for line in text.splitlines() if line.strip()]
        return np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise UsageError(f"cannot parse CSV matrix: {exc}") from exc


def coset_from_matrix(space: SpaceDescriptor, arr: np.ndarray) -> GroupElement:
    """Interpret input as a full group element or as a slope block."""
    if arr.shape == (space.dim, space.dim):
        return GroupElement(space, Side.NONCOMPACT, arr)
    if arr.shape == (space.m, space.n):
        # transitivity_element's boost, from the slope SVD its point keeps
        return coset_from_factors(space, *slope_svd(space, nk.as_matrix(arr, dtype=space.dtype)))
    if arr.shape == (space.n, space.m) and space.n != space.m:
        raise UsageError(f"slope block must be m x n = {space.m} x {space.n} "
                         f"(got its transpose)")
    raise UsageError(f"matrix shape {arr.shape} fits neither a group element "
                     f"({space.dim} x {space.dim}) nor a slope block "
                     f"({space.m} x {space.n})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_lattice_info(args) -> int:
    sp, basis, label = space_lattice(args.space, args.n, args.m)
    result = {
        "rank": basis.rank,
        "gram": basis.gram,
        "orthonormal": is_orthonormal(basis),
        "generator_norms": basis.norms(),
    }
    if sp is not None:
        result.update({"family": sp.family.value, "n": sp.n, "m": sp.m,
                       "signature": [sp.n, sp.m], "field": sp.field})
    emit(envelope(label, "lattice-info", result))
    return 0


def _parse_direction(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"--direction must be comma-separated numbers, got {text!r}") from exc


def _check_samples(samples: int):
    if samples < 1:
        raise UsageError(f"--samples must be a positive count, got {samples}")


def cmd_cut_radius(args) -> int:
    sp, basis, label = space_lattice(args.space, args.n, args.m)
    x = _parse_direction(args.direction)
    residuals = {}
    if args.method == "brute":
        res = cut_radius_brute(x, basis)
    else:
        res = cut_radius(x, basis)  # brute force already when the lattice is not orthonormal
        if args.method == "closed" and not res.used_closed_form:
            raise DomainError("closed form needs an orthonormal lattice; use --method brute")
        if args.method == "both" and res.used_closed_form:
            closed, res = res, cut_radius_brute(x, basis)
            residuals["closed_vs_brute"] = abs(closed.radius - res.radius)
    result = {
        "direction": x,
        "radius": res.radius,
        "minimizer": list(res.minimizer),
        "used_closed_form": res.used_closed_form,
    }
    emit(envelope(label, "cut-radius", result, residuals))
    return 0


def _grid_rows(basis: LatticeBasis, samples: int):
    """(angles, radius) rows over the unit sphere of the flat, rank <= 3."""
    r = basis.rank
    if r > 3:
        raise DomainError("cutlocus-grid is limited to rank <= 3 flats")
    if r == 1:
        x = np.array([1.0])
        yield (), cut_radius(x, basis).radius
        return
    if r == 2:
        for i in range(samples):
            phi = 2 * np.pi * i / samples
            x = np.array([np.cos(phi), np.sin(phi)])
            yield (phi,), cut_radius(x, basis).radius
        return
    k = max(int(np.sqrt(samples)), 2)
    for i in range(k):
        theta = np.pi * (i + 0.5) / k
        for j in range(k):
            phi = 2 * np.pi * j / k
            x = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi),
                          np.cos(theta)])
            yield (theta, phi), cut_radius(x, basis).radius


def cmd_cutlocus_grid(args) -> int:
    _check_samples(args.samples)
    sp, basis, label = space_lattice(args.space, args.n, args.m)
    rows = list(_grid_rows(basis, args.samples))
    if args.format == "json":
        emit(envelope(label, "cutlocus-grid",
                      {"rows": [list(a) + [t0] for a, t0 in rows]}))
        return 0
    header = {1: "t0", 2: "phi,t0", 3: "theta,phi,t0"}[basis.rank]
    sys.stdout.write(header + "\n")
    for angles, t0 in rows:
        sys.stdout.write(",".join(f"{v:.17g}" for v in (*angles, t0)) + "\n")
    return 0


def cmd_embed(args) -> int:
    sp = parse_space(args.space, args.n, args.m)
    if sp is None:
        raise UsageError("embed needs a catalog space, not a bare lattice id")
    if args.method == "b":
        if sp.family is not Family.CIRCLE_SPHERE:
            raise DomainError("the stereographic method runs on the circle/sphere family")
        if args.t is None:
            raise UsageError("--method b takes the flat parameter via --t")
        angle = b_embed_rank1(args.t)
        result = {"angle": angle, "flat_profile_f": f_flat_rank1(args.t),
                  "region_fraction": abs(angle) / (2 * np.pi)}
        emit(envelope(sp.label(), "b", result))
        return 0

    if args.input is None:
        raise UsageError("embed needs --input (matrix file or '-')")
    g = coset_from_matrix(sp, read_matrix(args.input))
    methods = ("p", "g", "f") if args.method == "all" else (args.method,)
    points = {m: embed(sp, m, g) for m in methods}
    residuals = {}
    if len(points) > 1:
        pairs = [("p", "g"), ("p", "f"), ("g", "f")]
        residuals = {f"{a}-{b}": points[a].distance(points[b]) for a, b in pairs}
    first = points[methods[0]]
    coords = point_flat_coords(sp, first, Side.COMPACT)
    result = {
        "subspace": first.rep,
        "flat_coords": coords.coords,
        "region_fraction": region_fraction(coords),
        "space_like": space_like(sp, first),
    }
    emit(envelope(sp.label(), args.method, result, residuals))
    return 0


def _parse_space_id(text: str) -> SpaceDescriptor:
    """A catalog space written ``family:n:m`` with integer n and m."""
    family, *dims = text.split(":")
    if family == "su3":
        raise UsageError("verify needs a catalog space, not the su3 lattice")
    try:
        n, m = (int(d) for d in dims)
    except ValueError as exc:
        raise UsageError(f"--space must be family:n:m with integer n and m, got {text!r}") from exc
    return parse_space(family, n, m)


def cmd_verify(args) -> int:
    _check_samples(args.samples)
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.tol is not None and not 0.0 <= args.tol < np.inf:
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol}")
    seed = args.seed if args.seed is not None else default_seed()
    spaces = None if args.space == "all" else [_parse_space_id(args.space)]
    reports = verify.run_suite(args.samples, seed, spaces, args.property, args.tol)
    payload = envelope(args.space, f"verify/{args.property}",
                       [r.to_dict() for r in reports], seed=seed)
    residuals = [r.worst_residual for r in reports if r.tolerance is not None]
    margins = [r.worst_residual for r in reports if r.tolerance is None]
    payload["residuals"] = {"worst_residual": max(residuals, default=None),
                            "worst_margin": min(margins, default=None)}
    emit(payload)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_space_args(p):
    p.add_argument("space", help="space id: gr-real, gr-complex, oriented2, sphere, or su3")
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("m", nargs="?", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    top = argparse.ArgumentParser(
        prog="dualspace",
        description="Embeddings of noncompact symmetric spaces into their compact duals",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="unit lattice data for a space")
    _add_space_args(p)
    p.set_defaults(func=cmd_lattice_info)

    p = sub.add_parser("cut-radius", help="cut radius along a flat direction")
    _add_space_args(p)
    p.add_argument("--direction", required=True,
                   help="comma-separated lattice coordinates of the direction")
    p.add_argument("--method", choices=("brute", "closed", "both"), default="both")
    p.set_defaults(func=cmd_cut_radius)

    p = sub.add_parser("cutlocus-grid", help="sample the cut radius over flat directions")
    _add_space_args(p)
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_cutlocus_grid)

    p = sub.add_parser("embed", help="embed a coset into the compact dual")
    _add_space_args(p)
    p.add_argument("--method", choices=("p", "g", "f", "b", "all"), default="all")
    p.add_argument("--input", help="matrix file (JSON array-of-arrays or CSV), '-' for stdin")
    p.add_argument("--t", type=float, default=None,
                   help="flat parameter for the rank-1 stereographic method")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--space", default="all", help="family:n:m, or 'all'")
    p.add_argument("--property", default="all", choices=("all",) + verify.PROPERTIES,
                   help="one property, or 'all'; each runs on the families that claim it")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=lambda v: int(v, 0), default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance of every selected check that takes one")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
