"""Benchmark of the dualspace library and CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ``src/``.
Workloads (see README.md): ``catalog-verify``, ``embed-large`` and
``cut-radius``, each a closed loop with one caller and one BLAS thread.
Every op's output is checked; an op that raises or whose output is wrong
counts as failed and the run goes on.

Times are reported in reference seconds (see calibrate.py): each op's
wall and CPU time is scaled by the speed of a fixed numpy kernel run
just before and after it, which cancels most of the host's speed swings.

``--trace 0`` times ops for ``--seconds`` of op time after an untimed
warm-up and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops during which every library function is wrapped by
``layertrace.Tracer``, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object; a copy is written
to ``perfbench/out/``, with the spans of a traced run.
"""

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("catalog-verify", "embed-large", "cut-radius")
SETUP_PROBES = 9      # timed set-up probes per run, after one untimed one
WARMUP_SECONDS = 1.0  # untimed ops before the measured phase
SHOWN_PROBLEMS = 5    # failed ops described on stderr

# Functions and constructors whose calls and self time per op are reported.
LAYER_FUNCTIONS = (
    "numkernel.block_qr", "numkernel.expm", "numkernel.projector_distance",
    "numkernel.orthonormal_basis", "numkernel.is_positive_definite",
    "spaces.transitivity_element", "spaces.in_group", "spaces.SubspacePoint",
    "spaces.flat_decompose", "spaces.make_space",
    "embeddings.p_embed", "embeddings.g_embed", "embeddings.f_embed",
    "embeddings.log_noncompact", "embeddings.point_flat_coords",
    "embeddings.image_region_fraction", "embeddings.space_like", "embeddings.GroupElement",
    "lattice.cut_radius", "lattice.cut_radius_closed", "lattice.cut_radius_brute",
    "lattice.is_orthonormal",
    "verify.random_coset", "verify.random_slope", "verify.random_isotropy",
    "verify.check_triple_equality", "verify.check_equivariance", "verify.check_image_region",
    "verify.check_cut_loci_grassmannian", "verify.check_cut_radius_agreement",
    "verify.check_round_trip", "verify.check_trig_duality_random",
    "cli.main", "cli.build_parser", "cli.emit",
)


class Phase:
    """Ops run back to back; only the ops themselves are timed, not their checks.

    Each op's speed factor, from the reference kernels of ``calibrate``
    run just before and just after it, turns its wall and CPU seconds
    into reference seconds.
    """

    def __init__(self):
        self.durations = []  # wall seconds of each op
        self.factors = []    # speed factor of each op, from the kernels around it
        self.busy = 0.0      # wall seconds inside ops
        self.cpu_ref = 0.0   # process CPU seconds inside ops, in reference seconds
        self.failed = 0      # ops that raised or whose output was wrong
        self.wrong = 0       # ops whose output was wrong

    @property
    def ops(self) -> int:
        return len(self.durations)

    def ref_durations(self) -> list:
        return [d * f for d, f in zip(self.durations, self.factors)]


def run_op(wl, i: int, phase: Phase, clock):
    """Run, time and check op ``i``; neither the check nor the clock's kernel is timed."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out, error = wl.op(i), None
    except Exception:  # the run goes on; the op counts as failed
        out, error = None, traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    factor = clock.factor()
    phase.durations.append(t1 - t0)
    phase.factors.append(factor)
    phase.busy += t1 - t0
    phase.cpu_ref += (c1 - c0) * factor
    problems = [error] if error else wl.check(i, out)
    if problems:
        phase.failed += 1
        phase.wrong += error is None
        if phase.failed <= SHOWN_PROBLEMS:
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)


def run_ops(wl, seconds: float, first: int, phase: Phase, clock) -> int:
    """Run ops ``first, first + 1, ...`` until ``seconds`` of op time; return the next index."""
    i = first
    while phase.busy < seconds:
        run_op(wl, i, phase, clock)
        i += 1
    return i


def run_traced(wl, seconds: float, first: int, tracer, plain: Phase, traced: Phase, clock):
    """Run each op untraced, then again traced, until ``seconds`` of op time in all.

    Pairing the same input on the same machine state makes the ratio of
    the two times the tracing overhead, not drift or input variation.
    """
    i = first
    while plain.busy + traced.busy < seconds:
        run_op(wl, i, plain, clock)
        tracer.op = i
        tracer.install()
        try:
            run_op(wl, i, traced, clock)
        finally:
            tracer.uninstall()
        i += 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(workload: str, env: dict) -> tuple:
    """Median of ``SETUP_PROBES`` fresh-process set-up times (see probe.py),
    in reference seconds and in wall seconds.

    One untimed probe runs first, so bytecode caches are written and the
    timed probes all start alike.
    """
    ref, wall = [], []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        if k:
            seconds, factor = (float(v) for v in proc.stdout.split()[-2:])
            ref.append(seconds * factor)
            wall.append(seconds)
    return statistics.median(ref), statistics.median(wall)


def end_to_end(setup_s: float, timed: Phase) -> dict:
    """The end-to-end metrics; every time is in reference seconds (see calibrate.py)."""
    ref = timed.ref_durations()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": timed.ops / sum(ref), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ref) * 1e3, "unit": "ms"},
        "cpu_ms_per_op": {"value": timed.cpu_ref * 1e3 / timed.ops, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(tracer, wl, lattices, plain: Phase, traced: Phase, imports: dict) -> dict:
    """The per-layer metrics; times in reference units, scaled by the median speed factor.

    ``lattices`` names the cut-radius lattices; every workload reports them.
    """
    layers = tracer.per_op(traced.ops)
    factor = statistics.median(plain.factors + traced.factors)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, self_ms = layers.get(name, (0.0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": self_ms * factor, "unit": "ms"}
    for name in lattices:
        calls = wl.calls.get(name, 0)
        us = wl.call_s[name] * 1e6 * factor / calls if calls else 0.0
        metrics[f"lattice.cut_radius.{name}.us_per_call"] = {"value": us, "unit": "us"}
    for package, ms in imports.items():
        metrics[f"import.{package}_ms"] = {"value": ms, "unit": "ms"}
    overhead = statistics.median(t / p for t, p in zip(traced.durations, plain.durations)) - 1.0
    metrics["trace.overhead_pct"] = {"value": overhead * 100.0, "unit": "%"}
    metrics["trace.spans_per_op"] = {"value": tracer.span_count / traced.ops, "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dualspace" / "__init__.py").is_file():
        print(f"error: no dualspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layertrace
    import workloads

    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"inputs-{tag}-", dir=OUT)
    try:
        if args.trace:
            imports = layertrace.import_ms(env)
        else:
            setup_s, setup_wall = setup_seconds(args.workload, env)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        clock = calibrate.SpeedClock()
        warm = Phase()
        i = run_ops(wl, WARMUP_SECONDS, 0, warm, clock)
        if not args.trace:
            timed = Phase()
            run_ops(wl, args.seconds, i, timed, clock)
            phases = [timed]
            metrics = end_to_end(setup_s, timed)
            wall = {"setup_s": setup_wall, "ops_per_s": timed.ops / timed.busy,
                    "op_p50_ms": statistics.median(timed.durations) * 1e3,
                    "speed_factor_p50": statistics.median(timed.factors)}
        else:
            wl.call_s = dict.fromkeys(wl.call_s, 0.0)
            wl.calls = dict.fromkeys(wl.calls, 0)
            tracer = layertrace.Tracer()
            plain, traced = Phase(), Phase()
            run_traced(wl, args.seconds, i, tracer, plain, traced, clock)
            phases = [plain, traced]
            metrics = per_layer(tracer, wl, workloads.RELEVANT, plain, traced, imports)
            wall = {"speed_factor_p50": statistics.median(plain.factors + traced.factors)}
            tracer.write(OUT / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": warm.wrong == 0 and all(p.wrong == 0 for p in phases),
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    line = json.dumps(result)
    # The stored copy adds the uncalibrated wall-clock figures.
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(result, wall=wall)) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
