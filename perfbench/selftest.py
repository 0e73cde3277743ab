"""Self-test of the benchmark's output checks.

Each workload's check must accept the program's real answer and reject
every perturbed copy of it.  Run from the repository root:

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per case and exits 0 iff every case passes.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402

SEED = 7
outcomes = []


def expect(case: str, problems: list, rejected: bool):
    ok = bool(problems) == rejected
    outcomes.append(ok)
    verdict = f"rejected ({problems[0]})" if problems else "accepted"
    print(f"{'PASS' if ok else 'FAIL'} {case}: {verdict}")


def catalog_cases():
    wl = W.CatalogVerify(SEED)
    reports = wl.op(0)
    expect("catalog-verify real pass", wl.check(0, reports), False)

    def changed(k, **fields):
        out = list(reports)
        out[k] = dataclasses.replace(reports[k], **fields)
        return wl.check(0, out)

    margin = next(k for k, c in enumerate(wl.checks) if c[4] is None)
    expect("catalog-verify one failure", changed(0, failures=1), True)
    expect("catalog-verify fewer samples", changed(1, samples=W.SAMPLES - 1), True)
    expect("catalog-verify residual above tolerance", changed(2, worst_residual=2e-9), True)
    expect("catalog-verify loosened tolerance", changed(0, tolerance=1e-6), True)
    expect("catalog-verify margin at zero", changed(margin, worst_residual=0.0), True)
    expect("catalog-verify wrong property", changed(0, property_name="triple-equality/x"), True)
    expect("catalog-verify report missing", wl.check(0, reports[:-1]), True)


def embed_cases(workdir):
    wl = W.EmbedLarge(SEED, workdir)
    outs = wl.op(0)
    expect("embed-large real outputs", wl.check(0, outs), False)

    def changed(edit, code=0):
        out = json.loads(outs[0][1])
        edit(out)
        return wl.check(0, [(code, json.dumps(out), "")] + outs[1:])

    def residual(out):
        out["residuals"]["p-g"] = 1e-6

    def subspace(out):
        out["result"]["subspace"][0][0] += 1e-6

    def not_space_like(out):
        out["result"]["space_like"] = False

    def fraction(out):
        out["result"]["region_fraction"] += 1e-10

    def extra_key(out):
        out["extra"] = 1

    def missing_residual(out):
        del out["residuals"]["g-f"]

    expect("embed-large residual above 1e-9", changed(residual), True)
    expect("embed-large missing residual", changed(missing_residual), True)
    expect("embed-large moved subspace", changed(subspace), True)
    expect("embed-large not space-like", changed(not_space_like), True)
    expect("embed-large region fraction off by 1e-10", changed(fraction), True)
    expect("embed-large extra key", changed(extra_key), True)
    expect("embed-large nonzero exit", changed(lambda out: None, code=4), True)


def cut_cases():
    wl = W.CutRadius(SEED)
    results = wl.op(0)
    expect("cut-radius real results", wl.check(0, results), False)
    for k, name in enumerate(wl.lattices):
        def changed(**fields):
            out = list(results)
            out[k] = dataclasses.replace(results[k], **fields)
            return wl.check(0, out)

        res = results[k]
        doubled = tuple(2 * int(v) for v in res.minimizer)
        expect(f"cut-radius {name} radius off by 1e-9",
               changed(radius=res.radius * (1 + 1e-9)), True)
        expect(f"cut-radius {name} doubled minimizer", changed(minimizer=doubled), True)
        expect(f"cut-radius {name} zero minimizer",
               changed(minimizer=(0,) * len(res.minimizer)), True)


def main() -> int:
    catalog_cases()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        embed_cases(workdir)
    cut_cases()
    print(f"{sum(outcomes)}/{len(outcomes)} cases pass")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
