"""Closed-loop benchmark for stabent.

One process runs one workload, single-threaded, one operation at a time:
the next operation starts when the previous one has finished. Run from the
repository root:

    python3 perfbench/run.py --workload tableau-clifford --seed 1 --seconds 35 --trace 0

Inputs come from --seed. Operations run for --seconds seconds of timed wall
time; each result is checked against `reference` outside the timed region.
Readable metric lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones. With --trace 1 the run measures half the
time untraced and half traced, and reports the per-layer metrics from the
traced half, including tracing overhead. Exit code 2 means the benchmark
could not run (for example, no stabent sources next to it).
"""

# BLAS thread pools must be pinned before numpy loads: the machine is small,
# and extra threads would compete with the single-threaded loop.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

_T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "op_latency_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "coverage": "ratio",
}

# Per-layer metrics of the traced run. Times are shares of the traced ops'
# total wall time, so a layer a workload never calls reads 0 as a share, not
# as a time: `<name>.share` is a function's inclusive time, `<name>.self.share`
# its self time, and `<layer>.self.share` a module's summed self time. The
# layer self shares plus `op.remainder.share` make 1; `op.wall_s` is the mean
# traced op wall time. `circuits.random_circuit.share` is a share of set-up.
PER_LAYER = {
    "cli.main.self.share": "ratio",
    "cli.parse_circuit.share": "ratio",
    "cli.self.share": "ratio",
    "circuits.random_circuit.share": "ratio",
    "circuits.gates": "count",
    "tableau.simulate_clifford.share": "ratio",
    "tableau.weyl_group_from_tableau.share": "ratio",
    "tableau.self.share": "ratio",
    "statevector.simulate_circuit.share": "ratio",
    "statevector.characteristic_distribution.share": "ratio",
    "statevector.characteristic_distribution.peak_bytes": "bytes",
    "statevector.table_bytes": "bytes",
    "statevector.bell_difference_sample_bits.share": "ratio",
    "statevector.draws": "count",
    "statevector.self.share": "ratio",
    "weyl.expectation_rows.share": "ratio",
    "weyl.expectation_rows.rows": "count",
    "weyl.expectation_rows.ops": "count",
    "weyl.self.share": "ratio",
    "symplectic.is_isotropic.share": "ratio",
    "symplectic.is_isotropic.calls": "count",
    "symplectic.span.share": "ratio",
    "symplectic.symplectic_complement.share": "ratio",
    "symplectic.restrict_to_cut.share": "ratio",
    "symplectic.restrict_to_cut.calls": "count",
    "symplectic.self.share": "ratio",
    "estimator.estimate_entropy.share": "ratio",
    "estimator.estimate_entropy.self.share": "ratio",
    "estimator.distinct_ratio": "ratio",
    "estimator.dim_S": "count",
    "estimator.r_applied": "ratio",
    "estimator.interval_width_bits.mean": "bits",
    "estimator.self.share": "ratio",
    "distinguisher.distinguish.self.share": "ratio",
    "distinguisher.success_rate": "ratio",
    "distinguisher.self.share": "ratio",
    "trace.self.share": "ratio",
    "op.remainder.share": "ratio",
    "op.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counters whose per-run value is a ratio of two totals: name -> (numerator, denominator).
RATIOS = {
    "estimator.distinct_ratio": ("estimator.distinct", "estimator.drawn"),
    "estimator.dim_S": ("estimator.dim_S.sum", "estimator.estimate_entropy.calls"),
    "estimator.r_applied": ("estimator.r_applied.sum", "estimator.estimate_entropy.calls"),
    "estimator.interval_width_bits.mean": (
        "estimator.width.sum", "estimator.estimate_entropy.calls"),
    "distinguisher.success_rate": (
        "distinguisher.success_rate.sum", "distinguisher.distinguish.calls"),
}
PEAKS = ("statevector.characteristic_distribution.peak_bytes", "statevector.table_bytes")
LAYERS = ("cli", "tableau", "statevector", "weyl", "symplectic", "estimator",
          "distinguisher", "trace")


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_stabent():
    """Import stabent from this checkout's src/, and from nowhere else."""
    pkg = SRC / "stabent"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no stabent package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stabent

    if Path(stabent.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"stabent imported from {stabent.__file__}, not {pkg}")
    return stabent


def time_fresh_import() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import stabent.cli"],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return perf_counter() - t0


def run_setup(wl, seed: int, workdir: Path) -> dict:
    """Set up SETUP_REPEATS times and keep the medians.

    Each repeat is a fresh-interpreter import plus this workload's input
    generation (circuits, files, and for cut-profile the groups and samples).
    """
    totals, gen_times, gates = [], [], 0

    def gen(fn, *args):
        nonlocal gen_time, gates
        t0 = perf_counter()
        circ = fn(*args)
        gen_time += perf_counter() - t0
        gates += len(circ.gates)
        return circ

    for _ in range(SETUP_REPEATS):
        gen_time, gates = 0.0, 0
        import_s = time_fresh_import()
        t0 = perf_counter()
        wl.setup(seed, workdir, gen)
        totals.append(import_s + perf_counter() - t0)
        gen_times.append(gen_time)
    return {
        "setup_s": statistics.median(totals),
        "circuits.random_circuit_s": statistics.median(gen_times),
        "circuits.gates": gates,
    }


def measure(wl, seconds: float, call) -> dict:
    """Run operations until `seconds` of timed wall time have passed.

    Only `call(i)` is timed. A raised exception, a non-zero exit code and a
    failed check all count as a failed operation.
    """
    from workloads import Verdict

    latencies, verdicts = [], []
    timed = 0.0
    i = 0
    while i == 0 or timed < seconds:
        t0 = perf_counter()
        try:
            result = call(i)
        except Exception as exc:  # the loop must go on and report the failure
            result = exc
        dt = perf_counter() - t0
        timed += dt
        latencies.append(dt)
        if isinstance(result, Exception):
            verdict = Verdict(False, reason=f"raised {result!r}")
        else:
            try:
                verdict = wl.check(i, result)
            except Exception as exc:
                verdict = Verdict(False, reason=f"check raised {exc!r}")
        if not verdict.ok:
            print(f"op {i} failed: {verdict.reason or 'output check'}", file=sys.stderr)
        verdicts.append(verdict)
        i += 1
    failed = sum(not v.ok for v in verdicts)
    intervals = [iv for v in verdicts for iv in v.intervals]
    return {
        "attempted": len(verdicts),
        "failed": failed,
        "latencies": latencies,
        "throughput": (len(verdicts) - failed) / timed,
        "coverage": (sum(c for _, _, c in intervals) / len(intervals)) if intervals else 0.0,
        "width": (sum(u - l for l, u, _ in intervals) / len(intervals)) if intervals else 0.0,
    }


def install_tracer(tracer) -> None:
    """Wrap every traced public function at the name its caller looks up."""
    import numpy as np
    from stabent.symplectic import Subspace

    def draws(tr, args, kwargs, result):
        tr.add("statevector.draws", kwargs.get("count", args[2] if len(args) > 2 else 0))

    def table(tr, args, kwargs, result):
        tr.peak("statevector.table_bytes", 2 * 8 * 4**result.n)  # p and cdf, float64

    def rows(tr, args, kwargs, result):
        count, size = result.shape  # one row of 2^n values per X half
        tr.add("weyl.expectation_rows.rows", count)
        tr.add("weyl.expectation_rows.ops", count * size * int(math.log2(size)))

    def report(tr, args, kwargs, rep):
        tr.add("estimator.dim_S.sum", rep.dim_s)
        tr.add("estimator.r_applied.sum", rep.r > 0)
        tr.add("estimator.width.sum", rep.upper - rep.lower)
        samples = kwargs.get("samples")
        if samples is not None:
            tr.add("estimator.drawn", len(samples))
            tr.add("estimator.distinct", len(np.unique(samples)))

    def success(tr, args, kwargs, result):
        tr.add("distinguisher.success_rate.sum", result.success_rate)

    tracer.patch("stabent.cli", "main", "cli.main")
    tracer.patch("stabent.cli", "parse_circuit", "cli.parse_circuit")
    tracer.patch("stabent.cli", "simulate_clifford", "tableau.simulate_clifford")
    tracer.patch("stabent.cli", "weyl_group_from_tableau", "tableau.weyl_group_from_tableau")
    tracer.patch("stabent.cli", "distinguish", "distinguisher.distinguish", after=success)
    for mod in ("stabent.cli", "stabent.distinguisher"):
        tracer.patch(mod, "simulate_circuit", "statevector.simulate_circuit")
        tracer.patch(mod, "characteristic_distribution",
                     "statevector.characteristic_distribution", after=table, trace_alloc=True)
        tracer.patch(mod, "bell_difference_sample_bits",
                     "statevector.bell_difference_sample_bits", after=draws)
    for mod in ("stabent.cli", "stabent.distinguisher", "stabent.estimator"):
        tracer.patch(mod, "estimate_entropy", "estimator.estimate_entropy", after=report)
    tracer.patch("stabent.statevector", "expectation_rows", "weyl.expectation_rows", after=rows)
    for mod in ("stabent.weyl", "stabent.estimator"):
        tracer.patch(mod, "is_isotropic", "symplectic.is_isotropic")
    tracer.patch("stabent.estimator", "symplectic_complement", "symplectic.symplectic_complement")
    tracer.patch("stabent.estimator", "restrict_to_cut", "symplectic.restrict_to_cut")
    tracer.patch_classmethod(Subspace, "from_bit_rows", "symplectic.span")


def layer_metrics(per_op: dict, traced: dict, untraced: dict, setup: dict):
    """Per-layer metrics over the traced ops, the mean seconds per op behind
    each share, and the largest gap between an op's wall time and its layer
    self times plus remainder."""
    ops = len(per_op)
    totals: dict[str, float] = {}
    for rec in per_op.values():
        for key, value in rec.items():
            totals[key] = totals.get(key, 0.0) + value
    wall = totals["op.wall_s"]
    seconds = {}
    out = {}
    for name in PER_LAYER:
        if name.endswith(".share"):
            key = name.removesuffix(".share") + "_s"
            seconds[name] = totals.get(key, 0.0) / ops
            out[name] = totals.get(key, 0.0) / wall
        else:
            out[name] = totals.get(name, 0.0) / ops
    for name, (num, den) in RATIOS.items():
        out[name] = totals[num] / totals[den] if totals.get(den) else 0.0
    for name in PEAKS:
        out[name] = max((rec.get(name, 0.0) for rec in per_op.values()), default=0.0)
    seconds["circuits.random_circuit.share"] = setup["circuits.random_circuit_s"]
    out["circuits.random_circuit.share"] = setup["circuits.random_circuit_s"] / setup["setup_s"]
    out["circuits.gates"] = setup["circuits.gates"]
    out["trace.overhead_ratio"] = traced["throughput"] / untraced["throughput"]
    gap = max(
        abs(sum(rec.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
            + rec["op.remainder_s"] - rec["op.wall_s"])
        for rec in per_op.values()
    )
    return out, seconds, gap


def print_metrics(metrics: dict, units: dict, seconds: dict) -> None:
    for name, value in metrics.items():
        extra = f"  ({seconds[name]:.6g} s)" if name in seconds else ""
        print(f"  {name:<52} {value:>14.6g} {units[name]}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_stabent()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _T_START
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = run_setup(wl, args.seed, workdir)
        if not args.trace:
            run = measure(wl, args.seconds, wl.op)
        else:
            run = measure(wl, args.seconds / 2, wl.op)
            tracer = spans.Tracer()
            install_tracer(tracer)
            try:
                traced = measure(wl, args.seconds / 2, lambda i: tracer.run_op(i, wl.op, i))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  in-process import {import_s:.3f} s; set-up repeated {SETUP_REPEATS} times")
    failed_ratio = run["failed"] / run["attempted"]
    print(f"  ops {run['attempted']}  failed_op_ratio {failed_ratio:.6g}  "
          f"interval_width_bits.mean {run['width']:.6g} bits")
    print("  op latencies (s): " + " ".join(f"{t:.3f}" for t in run["latencies"]))
    correct = run["failed"] == 0 and run["coverage"] >= 1.0 - wl.delta - 1e-12
    attempted, failed = run["attempted"], run["failed"]
    if not args.trace:
        metrics = {
            "throughput_ops_per_s": run["throughput"],
            "op_latency_s.p50": statistics.median(run["latencies"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup["setup_s"],
            "coverage": run["coverage"],
        }
        units, seconds = END_TO_END, {}
    else:
        per_op = tracer.per_op()
        metrics, seconds, gap = layer_metrics(per_op, traced, run, setup)
        units = PER_LAYER
        traces = OUT / "traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")
        print(f"  traced ops {traced['attempted']}; spans written to {traces}; largest gap "
              f"between op wall time and layer self times plus remainder {gap:.3g} s")
        print("  traced op wall / remainder (s): " + " ".join(
            f"{rec['op.wall_s']:.3f}/{rec['op.remainder_s']:.2g}"
            for rec in per_op.values()))
        correct = (correct and traced["failed"] == 0
                   and traced["coverage"] >= 1.0 - wl.delta - 1e-12 and gap < 1e-6)
        attempted += traced["attempted"]
        failed += traced["failed"]
    print_metrics(metrics, units, seconds)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
