"""Tests for the command-line interface: schema, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualspace
from dualspace.cli import _jsonify, emit, main, parse_space
from dualspace.verify import random_slope

ENVELOPE_KEYS = {"space", "method", "result", "residuals", "seed", "version"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert set(payload) == ENVELOPE_KEYS
    return payload


def test_lattice_info_real_grassmannian(capsys):
    payload = run_json(capsys, "lattice-info", "gr-real", "2", "3")
    result = payload["result"]
    assert result["orthonormal"] is True
    np.testing.assert_allclose(result["generator_norms"], [np.pi, np.pi], atol=1e-12)
    assert result["rank"] == 2


def test_lattice_info_su3(capsys):
    payload = run_json(capsys, "lattice-info", "su3")
    assert payload["result"]["orthonormal"] is False
    assert payload["result"]["rank"] == 2


def test_lattice_info_complex_rank_one(capsys):
    payload = run_json(capsys, "lattice-info", "gr-complex", "1", "1")
    assert payload["result"]["rank"] == 1


def test_unknown_space_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "lattice-info", "octonionic", "1", "2")
    assert code == 2
    assert "unknown space" in err


def test_missing_dimensions_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "lattice-info", "gr-real")
    assert code == 2


def test_cut_radius_closed_on_su3_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "cut-radius", "su3", "--direction", "1,0",
                           "--method", "closed")
    assert code == 3
    assert "orthonormal" in err


def test_cut_radius_diagonal(capsys):
    payload = run_json(capsys, "cut-radius", "gr-real", "2", "2",
                       "--direction", "1,1")
    assert payload["result"]["radius"] == pytest.approx(np.pi / np.sqrt(2), abs=1e-12)
    assert payload["residuals"]["closed_vs_brute"] <= 1e-12


@pytest.mark.parametrize("method,used_closed", [("brute", False), ("closed", True),
                                                ("both", False)])
def test_cut_radius_methods(capsys, method, used_closed):
    payload = run_json(capsys, "cut-radius", "gr-real", "3", "4",
                       "--direction", "1,0.3,0.2", "--method", method)
    result = payload["result"]
    # closed form alpha^2 / (2 max |<X, A_i>|) with alpha = pi, |X| = 1
    x = np.array([1.0, 0.3, 0.2])
    assert result["radius"] == pytest.approx(np.pi * np.linalg.norm(x) / 2.0, abs=1e-12)
    assert result["minimizer"] == [-1, 0, 0]
    assert result["used_closed_form"] is used_closed
    if method == "both":
        assert payload["residuals"]["closed_vs_brute"] <= 1e-12
    else:
        assert payload["residuals"] == {}


def test_cut_radius_bad_direction_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "cut-radius", "gr-real", "2", "2", "--direction", "abc")
    assert code == 2
    assert out == ""
    assert "--direction" in err


@pytest.mark.parametrize("method", ["closed", "brute"])
@pytest.mark.parametrize("direction", ["1e308,1e308", "1e-300,1e-300"])
def test_cut_radius_of_huge_and_tiny_directions(capsys, method, direction):
    # the Gram norm of either direction overflows or underflows unless the
    # direction is scaled first; a RuntimeWarning fails the suite
    payload = run_json(capsys, "cut-radius", "gr-real", "2", "2",
                       "--direction", direction, "--method", method)
    assert payload["result"]["radius"] == pytest.approx(np.pi / np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("lattice-info", "gr-real", "99999", "99999"),
    ("cut-radius", "gr-complex", "99999", "99999", "--direction", "1"),
    ("embed", "gr-real", "99999", "99999", "--input", "-"),
    ("verify", "--space", "sphere:1:99999", "--samples", "1"),
])
def test_spaces_above_the_size_bound_are_domain_errors(capsys, argv):
    # refused by make_space before anything is allocated: an allocation of
    # this size would fail with a MemoryError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "n + m <= 256" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--samples", "0"),
    ("verify", "--space", "gr-real:1:2", "--property", "triple", "--samples", "-2"),
    ("cutlocus-grid", "gr-real", "2", "2", "--samples", "-3"),
])
def test_nonpositive_samples_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_emit_matches_json_dump():
    rng = np.random.default_rng(41)
    payload = {
        "real": rng.standard_normal((64, 16)),
        "complex": rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16)),
        "scalars": [np.float64(0.1), np.int64(-3), np.float32(2.5), 1 + 2j, complex(4.0, 0.0)],
        "nested": {"b": True, "a": None, "s": "text"},
    }
    expected = io.StringIO()
    json.dump(payload, expected, sort_keys=True, default=_jsonify)
    expected.write("\n")
    got = io.StringIO()
    emit(payload, got)
    assert got.getvalue() == expected.getvalue()
    # complex entries are [re, im] pairs, plain numbers when the imaginary part is zero
    out = json.loads(got.getvalue())
    z = payload["complex"]
    assert out["complex"][3][5] == [z[3, 5].real, z[3, 5].imag]
    assert out["scalars"][3:] == [[1.0, 2.0], 4.0]
    assert json.loads(json.dumps(np.array([1 + 0j, 2j]), default=_jsonify)) == [[1.0, [0.0, 2.0]]]


def test_embed_all_methods_scalar_slope(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text(json.dumps([[np.tanh(1.0)]]))
    payload = run_json(capsys, "embed", "gr-real", "1", "1",
                       "--method", "all", "--input", str(f))
    res = payload["result"]
    assert res["space_like"] is True
    assert res["region_fraction"] < 0.5
    for key in ("p-g", "p-f", "g-f"):
        assert payload["residuals"][key] <= 1e-9
    # flat coordinate of the image: arctan(tanh 1)/pi in lattice units
    assert res["flat_coords"][0] == pytest.approx(np.arctan(np.tanh(1.0)) / np.pi, abs=1e-12)


def test_embed_group_element_input(tmp_path, capsys):
    t = 0.7
    a = [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]
    f = tmp_path / "a.csv"
    f.write_text("\n".join(",".join(str(v) for v in row) for row in a))
    payload = run_json(capsys, "embed", "gr-real", "1", "1",
                       "--method", "f", "--input", str(f))
    slope = payload["result"]["subspace"][1][0] / payload["result"]["subspace"][0][0]
    assert slope == pytest.approx(np.tanh(t), abs=1e-12)


def test_embed_complex_entries(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text(json.dumps([[[0.3, 0.4]], [[0.1, -0.2]]]))  # 2x1 complex slope
    payload = run_json(capsys, "embed", "gr-complex", "1", "2",
                       "--method", "all", "--input", str(f))
    assert payload["residuals"]["p-f"] <= 1e-9


def test_embed_complex_slope_on_real_family_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[[0.5, 0.4]]]"))
    code, out, err = run_cli(capsys, "embed", "gr-real", "1", "1",
                             "--method", "all", "--input", "-")
    assert code == 3
    assert out == ""
    assert "complex" in err


def test_embed_stereographic(capsys):
    payload = run_json(capsys, "embed", "sphere", "1", "2", "--method", "b", "--t", "1")
    assert payload["result"]["angle"] == pytest.approx(0.8657694832396586, abs=1e-12)
    assert payload["result"]["flat_profile_f"] == pytest.approx(0.9607621582674589, abs=1e-12)


def test_embed_identity_gives_base_point(tmp_path, capsys):
    f = tmp_path / "id.json"
    f.write_text(json.dumps(np.eye(3).tolist()))
    payload = run_json(capsys, "embed", "gr-real", "1", "2",
                       "--method", "all", "--input", str(f))
    rep = np.array(payload["result"]["subspace"])
    np.testing.assert_allclose(rep.ravel(), [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(payload["result"]["flat_coords"], [0.0], atol=1e-12)
    assert all(v <= 1e-12 for v in payload["residuals"].values())


def test_embed_su3_is_usage_error(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text(json.dumps([[0.1]]))
    code, _, err = run_cli(capsys, "embed", "su3", "--method", "p", "--input", str(f))
    assert code == 2


def test_embed_bad_shape_is_usage_error(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text(json.dumps([[0.1, 0.2, 0.3]]))
    code, _, err = run_cli(capsys, "embed", "gr-real", "1", "1",
                           "--method", "p", "--input", str(f))
    assert code == 2


@pytest.mark.parametrize("text,code", [
    ("[[1" + "0" * 400 + "]]", 2),               # too large for a float
    ("[[[1" + "0" * 400 + ", 0]]]", 2),          # the same as a [re, im] pair
    ("[[null]]", 2),
    ("[[0.5, null]]", 2),
    ('[["0.5"]]', 2),                             # a string is not a number
    ("[[true]]", 2),                              # nor is a boolean
    ("[[true, 0], [0, 1]]", 2),                   # a boolean among numbers
    ("[[[0.5, false]]]", 2),                      # a boolean in a [re, im] pair
    ("[[0.5], [[0.1, 0.2]]]", 2),                # ragged: a 2 x 1 slope, wrong shape
    ("[[[0.5, 1, 2]]]", 2),
    ("[[NaN]]", 3),
], ids=["huge-int", "huge-int-pair", "null", "mixed-null", "string", "bool", "mixed-bool",
        "bool-pair", "ragged", "triple", "nan"])
def test_embed_json_entries_exit_codes(tmp_path, capsys, text, code):
    f = tmp_path / "y.json"
    f.write_text(text)
    got, _, err = run_cli(capsys, "embed", "gr-complex", "1", "1",
                          "--method", "p", "--input", str(f))
    assert got == code, err
    if "0" * 400 in text or '"' in text or "true" in text or "false" in text:
        assert "cannot parse JSON matrix" in err


def test_embed_non_spacelike_is_domain_error(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text(json.dumps([[1.5]]))
    code, _, err = run_cli(capsys, "embed", "gr-real", "1", "1",
                           "--method", "p", "--input", str(f))
    assert code == 3


def test_embed_near_boundary_is_numerical_error(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text(json.dumps([[1.0 - 1e-14]]))
    code, _, err = run_cli(capsys, "embed", "gr-real", "1", "1",
                           "--method", "f", "--input", str(f))
    assert code == 4
    assert "boundary" in err


@pytest.mark.parametrize("method,code", [("p", 0), ("g", 4), ("f", 4), ("all", 4)])
def test_embed_boundary_boost_is_never_a_domain_error(tmp_path, capsys, method, code):
    # cosh(20) == sinh(20) in double precision: the group element is
    # accepted, its point reads slope 1; f reports that as roundoff (4) like
    # g's QR breakdown, and p reports the subspace it reads
    f = tmp_path / "boost.json"
    f.write_text(json.dumps([[np.cosh(20.0), np.sinh(20.0)], [np.sinh(20.0), np.cosh(20.0)]]))
    got, out, err = run_cli(capsys, "embed", "gr-real", "1", "1",
                            "--method", method, "--input", str(f))
    assert got == code, err
    if code == 0:
        assert json.loads(out)["result"]["space_like"] is False


@pytest.mark.parametrize("sigma,methods", [(1.0 - 1e-10, ("p", "f", "all")),
                                           (1.0 - 1e-11, ("p", "f", "all")),
                                           (1.0 - 1e-12, ("p", "f"))])
def test_embed_near_boundary_slopes_are_space_like(tmp_path, capsys, sigma, methods):
    rng = np.random.default_rng(5)
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    z, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    f = tmp_path / "y.json"
    f.write_text(json.dumps((w[:, :2] @ np.diag([sigma, 0.3]) @ z.T).tolist()))
    for method in methods:
        payload = run_json(capsys, "embed", "gr-real", "2", "3",
                           "--method", method, "--input", str(f))
        assert payload["result"]["space_like"] is True, method


def test_embed_scalar_slope_just_below_one_is_space_like(tmp_path, capsys):
    f = tmp_path / "y.json"
    f.write_text("[[0.999999999999]]")
    payload = run_json(capsys, "embed", "gr-real", "1", "1", "--method", "p", "--input", str(f))
    assert payload["result"]["space_like"] is True


def matrix_json(y: np.ndarray) -> str:
    if np.iscomplexobj(y):
        return json.dumps([[[v.real, v.imag] for v in row] for row in y.tolist()])
    return json.dumps(y.tolist())


@pytest.mark.parametrize("space", [("gr-real", 1, 1), ("gr-real", 2, 3), ("gr-complex", 2, 2),
                                   ("oriented2", 2, 2)],
                         ids=lambda sp: "-".join(map(str, sp)))
def test_slopes_accepted_at_the_boundary_are_space_like(tmp_path, capsys, space):
    # at sigma = 1 - 1e-15 the boost refuses some slopes (exit 3 for p and
    # f alike); on every slope it accepts, p reads the slope SVD the coset
    # was built from, so it prints space_like true, and f refuses the
    # boundary (exit 4)
    family, n, m = space
    sp = parse_space(family, n, m)
    f = tmp_path / "y.json"
    accepted = 0
    for seed in range(50):
        y = random_slope(sp, np.random.default_rng(seed), sigma_max=1.0 - 1e-15)
        f.write_text(matrix_json(y))
        argv = ("embed", family, str(n), str(m), "--input", str(f), "--method")
        code, out, err = run_cli(capsys, *argv, "p")
        code_f, _, err_f = run_cli(capsys, *argv, "f")
        if code == 3:
            assert code_f == 3, err_f
            continue
        accepted += 1
        assert code == 0, err
        assert json.loads(out)["result"]["space_like"] is True, seed
        assert code_f == 4 and "boundary" in err_f, seed
    assert accepted >= 10


def test_cutlocus_grid_su3_uses_brute_force(capsys):
    code, out, _ = run_cli(capsys, "cutlocus-grid", "su3", "--samples", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi,t0"
    radii = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(r > 0 for r in radii)


def test_cutlocus_grid_rows_match_closed_form(capsys):
    code, out, _ = run_cli(capsys, "cutlocus-grid", "gr-real", "2", "2",
                           "--samples", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi,t0"
    for line in lines[1:]:
        phi, t0 = (float(v) for v in line.split(","))
        x = np.array([np.cos(phi), np.sin(phi)])
        xu = x / (np.pi * np.linalg.norm(x))
        expected = 1.0 / (2.0 * np.max(np.abs(xu)))
        assert t0 == pytest.approx(expected, abs=1e-9)
    # octant symmetry: quarter-turn invariance of the radius profile
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values[:10] == pytest.approx(values[10:20], abs=1e-9)


def test_cutlocus_grid_rank_one_constant(capsys):
    code, out, _ = run_cli(capsys, "cutlocus-grid", "gr-real", "1", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t0"
    assert float(lines[1]) == pytest.approx(np.pi / 2, abs=1e-12)


def test_cutlocus_grid_rank_too_large(capsys):
    code, _, err = run_cli(capsys, "cutlocus-grid", "gr-real", "4", "4")
    assert code == 3
    assert "rank" in err


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--space", "gr-real:1:2",
                           "--property", "triple", "--samples", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"][0]["failures"] == 0


@pytest.mark.parametrize("space", ["gr-real:a:b", "su3", "gr-real:2:3:9", "gr-real:2",
                                   "gr-real", "octonionic:1:2"])
def test_verify_bad_space_is_usage_error(capsys, space):
    code, out, err = run_cli(capsys, "verify", "--space", space, "--property", "triple",
                             "--samples", "2")
    assert code == 2
    assert out == ""
    if space == "su3":
        assert "verify needs a catalog space" in err


@pytest.mark.parametrize("space,prop,family", [("oriented2:2:2", "triple", "oriented-2plane"),
                                               ("oriented2:2:2", "image", "oriented-2plane"),
                                               ("sphere:1:2", "cutloci", "sphere")])
def test_verify_unclaimed_property_is_domain_error(capsys, space, prop, family):
    code, out, err = run_cli(capsys, "verify", "--space", space, "--property", prop,
                             "--samples", "2")
    assert code == 3
    assert out == ""
    assert prop in err and family in err


def verify_reports(capsys, *argv):
    payload = run_json(capsys, "verify", "--samples", "2", *argv)
    return payload, {r["property"]: r for r in payload["result"]}


def test_verify_one_space_all_properties(capsys):
    _, reports = verify_reports(capsys, "--space", "gr-real:2:3", "--property", "all")
    claimed = ["triple-equality", "equivariance-p", "equivariance-g", "equivariance-f",
               "image-region-f", "cut-radius-agreement", "round-trip", "cut-loci"]
    assert set(reports) == {f"{c}/gr-real(2,3)" for c in claimed} | {"trig-duality-random"}


def test_verify_all_spaces_one_property(capsys):
    payload, reports = verify_reports(capsys, "--space", "all", "--property", "triple")
    assert len(payload["result"]) == 8
    assert all(name.startswith("triple-equality/gr-") for name in reports)


def test_verify_trig_needs_no_space(capsys):
    payload, reports = verify_reports(capsys, "--property", "trig")
    assert list(reports) == ["trig-duality-random"]


def test_verify_oriented_line_is_the_sphere(capsys):
    _, reports = verify_reports(capsys, "--space", "oriented2:1:1", "--property", "image")
    assert list(reports) == ["image-region-b/sphere(1,1)"]


def test_verify_tol_reaches_every_check_that_takes_one(capsys):
    _, reports = verify_reports(capsys, "--space", "gr-real:2:2", "--property", "all",
                                "--tol", "1e-3")
    fixed = {"image-region-f/gr-real(2,2)": None, "cut-loci/gr-real(2,2)": 1e-10}
    for name, r in reports.items():
        assert r["tolerance"] == fixed.get(name, 1e-3), name


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed", "x"], ["--tol", "nan"],
                                  ["--tol", "inf"], ["--tol", "-1"], ["--tol", "x"]])
def test_verify_bad_seed_or_tol_is_usage_error(capsys, argv):
    try:
        code = main(["verify", "--space", "gr-real:1:1", "--samples", "1", *argv])
    except SystemExit as exc:  # argparse rejects a value that is not a number
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_negative_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DUALSPACE_SEED", "-1")
    code, out, err = run_cli(capsys, "verify", "--space", "gr-real:1:1", "--samples", "1")
    assert code == 2
    assert out == "" and "DUALSPACE_SEED" in err
    monkeypatch.setenv("DUALSPACE_SEED", "x")
    assert run_cli(capsys, "lattice-info", "su3")[0] == 2


def test_verify_accepts_zero_tol_and_prefixed_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--space", "gr-real:1:1", "--property", "cutradius",
                           "--samples", "2", "--seed", "0x10", "--tol", "0")
    payload = json.loads(out)
    assert payload["seed"] == 16
    assert {r["tolerance"] for r in payload["result"]} == {0.0}
    assert code in (0, 1)


def test_verify_residuals_split_worst_residual_and_margin(capsys):
    payload, reports = verify_reports(capsys, "--space", "gr-real:1:2", "--property", "all")
    margins = [r["worst_residual"] for r in reports.values() if r["tolerance"] is None]
    residuals = [r["worst_residual"] for r in reports.values() if r["tolerance"] is not None]
    assert len(margins) == 1 and len(residuals) == 8
    assert payload["residuals"] == {"worst_residual": max(residuals),
                                    "worst_margin": min(margins)}
    # an image margin is the distance to a wall, far above any residual
    assert payload["residuals"]["worst_margin"] > payload["residuals"]["worst_residual"]


SPACE_IDS = st.sampled_from(["gr-real", "gr-complex", "oriented2", "sphere", "circle", "su3",
                             "junk", ""])
DIMS = st.sampled_from(["-1", "0", "1", "2", "3", "x", "1.5"])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["lattice-info", "cut-radius", "cutlocus-grid", "embed",
                                    "verify", "junk"]))
    samples = str(draw(st.integers(-2, 3)))
    if command == "verify":
        space = draw(st.one_of(
            st.just("all"),
            st.builds(lambda f, dims: ":".join([f, *dims]), SPACE_IDS,
                      st.lists(DIMS, max_size=3))))
        prop = draw(st.sampled_from(("all",) + dualspace.verify.PROPERTIES + ("junk",)))
        argv = ["verify", "--space", space, "--property", prop, "--samples", samples]
        for flag, values in (("--seed", ["-1", "0", "0x10", "x"]),
                             ("--tol", ["1e-9", "0", "-1", "nan", "inf", "x"])):
            value = draw(st.one_of(st.none(), st.sampled_from(values)))
            if value is not None:
                argv += [flag, value]
        return argv
    argv = [command, draw(SPACE_IDS)] + draw(st.lists(DIMS, max_size=2))
    if command == "cut-radius":
        argv += ["--direction", draw(st.sampled_from(["1,0", "1,0,0", "0,0", "nan,1", "a"]))]
    elif command == "cutlocus-grid":
        argv += ["--samples", samples, "--format", draw(st.sampled_from(["csv", "json"]))]
    elif command == "embed":
        argv += draw(st.sampled_from([["--method", "b", "--t", "1"], ["--method", "b"],
                                      ["--method", "p"], ["--method", "b", "--t", "nan"]]))
    return argv


@settings(max_examples=60, deadline=None)
@given(cli_argv())
def test_cli_random_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in {0, 1, 2, 3, 4}, (argv, err.getvalue())
    text = out.getvalue()
    if text and "csv" not in argv:
        json.loads(text, parse_constant=reject_constant)  # no bare NaN or Infinity


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "cut-radius", "gr-real", "2", "3", "--direction", "2,1")
    _, out2, _ = run_cli(capsys, "cut-radius", "gr-real", "2", "3", "--direction", "2,1")
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DUALSPACE_SEED", "0x2A")
    payload = run_json(capsys, "lattice-info", "gr-real", "1", "1")
    assert payload["seed"] == 42


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process and a coset keeps the frames and
    # slopes read off it: neither may leak between calls
    slope, other = tmp_path / "y.json", tmp_path / "y2.json"
    slope.write_text(json.dumps([[0.3, -0.1], [0.2, 0.4], [-0.5, 0.1]]))
    other.write_text(json.dumps([[-0.2, 0.1], [0.4, 0.3], [0.1, -0.6]]))
    calls = [
        ("cut-radius", "gr-real", "2", "2", "--direction", "1,1", "--method", "brute"),
        ("cut-radius", "gr-real", "2", "2", "--direction", "1,1"),
        ("lattice-info", "su3"),
        ("cutlocus-grid", "gr-real", "2", "2", "--samples", "4", "--format", "json"),
        ("cutlocus-grid", "gr-real", "2", "2", "--samples", "3"),
        ("embed", "gr-real", "2", "3", "--method", "all", "--input", str(slope)),
        ("embed", "gr-real", "2", "3", "--method", "p", "--input", str(slope)),
        ("embed", "gr-real", "2", "3", "--method", "all", "--input", str(other)),
    ]
    env = dict(os.environ)
    src = str(Path(dualspace.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in calls:
        _, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "dualspace.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert out == fresh.stdout


def test_cold_calls_never_import_scipy(tmp_path):
    # a fresh process: the test session itself has scipy loaded through nk.expm
    slope = tmp_path / "y.json"
    slope.write_text(json.dumps([[0.3], [-0.2]]))
    calls = [
        ["embed", "gr-real", "1", "2", "--method", "all", "--input", str(slope)],
        ["cut-radius", "su3", "--direction", "1,0.3"],
        ["lattice-info", "su3"],
        ["cutlocus-grid", "gr-real", "2", "2"],
        ["verify", "--samples", "2"],
    ]
    script = f"""
import sys
import numpy as np
from dualspace import cli, numkernel as nk
for argv in {calls!r}:
    assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "a command imported scipy"
assert (nk.expm(np.array([[0.0, 1.0], [0.0, 0.0]])) == [[1.0, 1.0], [0.0, 1.0]]).all()
"""
    env = dict(os.environ)
    src = str(Path(dualspace.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
