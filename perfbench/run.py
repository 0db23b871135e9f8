"""nlse4 benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload evolve_1d_me --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every operation passed its correctness gates, 1 otherwise; a
checkout without ``src/nlse4`` exits with 2 and prints no result.  Metric
definitions and workload rationale are in ``perfbench/README.md``.
"""

import os
import sys
import time

_PROCESS_T0 = time.perf_counter()

# Single-threaded baseline: pinned before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("evolve_1d_me", "evolve_2d_ext", "bands_mathieu")

#: Fresh-process set-up measurements per untraced run; setup_s is their median.
SETUP_PROBES = 5
#: Nominal duration of one calibration block (workloads.Calibration).  End-
#: to-end times are reported as wall * CAL_REF_S / mean block time measured
#: around and during the same operation, i.e. in seconds of a host on which
#: a block takes CAL_REF_S; raw wall times are printed and saved alongside.
CAL_REF_S = 0.01
#: Share of a traced run's time spent on untraced rounds, the reference for
#: trace.overhead_frac.
TRACE_REFERENCE_SHARE = 0.35


def metric_units() -> tuple:
    """({name: unit} of end_to_end metrics, same of per_layer) from
    BENCHMARK.json, the one list of what a run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def use_checkout_source() -> None:
    """Import nlse4 from this checkout's src/ or stop with exit code 2."""
    if not (SRC / "nlse4" / "__init__.py").is_file():
        print(f"perfbench: no nlse4 package under {SRC}; run from a full source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nlse4

    if Path(nlse4.__file__).resolve().parent != (SRC / "nlse4").resolve():
        print(f"perfbench: imported nlse4 from {nlse4.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def run_rounds(wl, seconds: float, span=None) -> list:
    """Repeat the workload's rounds while another median round would end
    nearer to ``seconds`` than stopping now (always at least one round)."""
    results, round_walls = [], []
    t_start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in wl.rounds():
            results.append(op(span))
        round_walls.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * statistics.median(round_walls) > seconds:
            return results


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up time of one fresh interpreter, measured in a child process,
    with the calibration time measured right after it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalised(wall_s: float, calib_s: float) -> float:
    return wall_s * CAL_REF_S / calib_s


def end_to_end(wl, results: list, probes: list) -> tuple:
    """(metrics, samples, raw samples): medians of host-normalised samples."""
    ok = [r for r in results if r.ok]
    if wl.spec["kind"] == "evolve":
        timed = [r for r in ok if r.kind == "evolve"]
        items, per_item = wl.spec["steps_per_op"], timed
    else:
        timed = [r for r in ok if r.kind == "edge"]
        items, per_item = wl.inputs["config"]["bands"]["samples"], [r for r in ok if r.kind == "chart"]
    rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    values = {
        "setup_s": [normalised(p["setup_s"], p["calib_s"]) for p in probes],
        "items_per_s": [items / normalised(r.wall_s, r.calib_s) for r in per_item],
        "op_s": [normalised(r.wall_s, r.calib_s) for r in timed],
        "peak_rss_mb": rss,
    }
    raw = {
        "setup_s": [p["setup_s"] for p in probes],
        "items_per_s": [items / r.wall_s for r in per_item],
        "op_s": [r.wall_s for r in timed],
        "peak_rss_mb": rss,
    }
    metrics = {k: statistics.median(v) for k, v in values.items() if v}
    return metrics, values, raw


def per_layer(wl, att: dict, traced: list, reference_rounds: list, traced_rounds: list) -> dict:
    from tracing import named_buckets

    def per(x, n):
        return x / n if n else 0.0

    self_s, calls, scoped = att["self_s"], att["calls"], att["scoped"]
    inclusive, opened = att["inclusive_s"], att["opened"]
    ok_evolve = [r for r in traced if r.ok and r.kind == "evolve"]
    steps = len(ok_evolve) * wl.spec["steps_per_op"] if wl.spec["kind"] == "evolve" else 0
    samples = calls.get("diagnostics.observables_sample", 0)
    edges = opened.get("bands.bisection", 0)
    cli_calls = calls.get("cli.main", 0)
    total = sum(self_s.values())
    fft_calls = sum(n for name, n in calls.items() if name.startswith("fft."))
    reported = sum(v for bucket, v in self_s.items() if bucket in named_buckets())
    return {
        "spectral.fft_calls_per_step": per(fft_calls, steps),
        "spectral.fft_bytes_per_step": per(att["fft_bytes"], steps),
        "spectral.fft_s_frac": per(self_s.get("fft", 0.0), total),
        "spectral.self_s": per(self_s.get("spectral", 0.0), steps),
        "hydro.decompose_calls_per_step": per(calls.get("hydro.hydro_decompose", 0), steps),
        "hydro.decompose_self_s": per(self_s.get("hydro.decompose", 0.0), steps),
        "hydro.composites_calls_per_step": per(calls.get("hydro.fourth_order_composites", 0), steps),
        "hydro.composites_self_s": per(self_s.get("hydro.composites", 0.0), steps),
        "evolution.multiplier_self_s": per(self_s.get("evolution.multiplier", 0.0), steps),
        "evolution.evolve_self_s": per(self_s.get("evolution.evolve", 0.0), steps),
        "functionals.pair_calls_per_step": per(calls.get("functionals.functional_pair", 0), steps),
        "functionals.pair_self_s": per(self_s.get("functionals.pair", 0.0), steps),
        "diagnostics.sample_self_s": per(self_s.get("diagnostics.sample", 0.0), samples),
        "diagnostics.decompose_calls_per_sample": per(scoped["decompose_in_sample"], samples),
        "currents.continuity_self_s": per(self_s.get("currents.continuity", 0.0), samples),
        "currents.currents_self_s": per(self_s.get("currents.currents", 0.0), samples),
        "io.bytes_written": per(sum(r.bytes_written for r in traced if r.ok), cli_calls),
        "io.write_s": per(self_s.get("io.write", 0.0), cli_calls),
        "cli.overhead_s": per(self_s.get("cli.overhead", 0.0), cli_calls),
        "bands.discriminant_evals_per_edge": per(scoped["floquet_in_bisection"], edges),
        "bands.bisection_self_s": per(self_s.get("bands.bisection", 0.0), edges),
        "bands.chart_s": per(inclusive.get("bands.chart", 0.0), opened.get("bands.chart", 0)),
        "bands.fourier_edges_s": per(inclusive.get("bands.fourier_edges", 0.0),
                                     opened.get("bands.fourier_edges", 0)),
        "trace.overhead_frac": statistics.median(traced_rounds) / statistics.median(reference_rounds) - 1.0,
        "trace.unattributed_frac": per(total - reported, total),
    }


def op_round_walls(results: list, per_round: int) -> list:
    """Host-normalised operation time of each round (gates excluded)."""
    walls = [normalised(r.wall_s, r.calib_s) for r in results]
    return [sum(walls[i:i + per_round]) for i in range(0, len(walls), per_round)]


def run_workload(args) -> int:
    use_checkout_source()
    from tracing import Tracer, attribute, installed_wrappers
    from workloads import Workload

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = Workload.prepare(args.workload, args.seed, workdir)
        try:
            wl.warmup()
        except Exception as exc:  # the frozen inputs were rejected: one failed run
            print(f"warm-up failed: {type(exc).__name__}: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        per_round = len(wl.rounds())
        prov = provenance(args.seed)
        if args.trace:
            t0 = time.perf_counter()
            reference = run_rounds(wl, args.seconds * TRACE_REFERENCE_SHARE)
            remaining = args.seconds - (time.perf_counter() - t0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(wl, remaining, span=tracer.span)
            finally:
                tracer.uninstall()
            leftover = installed_wrappers()
            if leftover:
                raise RuntimeError(f"tracer wrappers left installed: {leftover}")
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            tracer.save(WORK / "traces" / f"trace-{args.workload}.npz")
            att = attribute(tracer)
            results = reference + traced
            metrics = per_layer(wl, att, traced, op_round_walls(reference, per_round),
                                op_round_walls(traced, per_round))
            units = metric_units()[1]
            total = sum(att["self_s"].values())
            print("traced self time by bucket:")
            for bucket, secs in sorted(att["self_s"].items(), key=lambda kv: -kv[1]):
                print(f"  {bucket:<24} {secs:10.4f} s  {100.0 * secs / total:6.2f} %")
            samples = raw = {}
        else:
            probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            results = run_rounds(wl, args.seconds)
            metrics, samples, raw = end_to_end(wl, results, probes)
            units = metric_units()[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.kind}: {r.detail}")
    attempted = len(results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  provenance {json.dumps(prov)}")
    for name, unit in units.items():
        if name in metrics:
            line = f"  {name:<40} {metrics[name]:.6g} {unit}"
            vals = samples.get(name, [])
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f"  (n={len(vals)}, q1 {q1:.6g}, q3 {q3:.6g}; raw median {statistics.median(raw[name]):.6g})"
            print(line)
    print(f"  {'error_rate':<40} {len(failed) / attempted:.6g} failed/attempted ({len(failed)}/{attempted})")
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "cal_ref_s": CAL_REF_S, "metrics": metrics,
              "samples": samples, "raw_samples": raw,
              "ops": [r.__dict__ for r in results]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    correct = not failed and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    use_checkout_source()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return code


def probe_main(args) -> int:
    """Child-process body of probe_setup: import, build inputs, warm up."""
    use_checkout_source()
    import numpy  # noqa: F401

    import nlse4  # noqa: F401
    from workloads import Workload

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = Workload.prepare(args.workload, args.seed, workdir)
        wl.warmup()
        elapsed = time.perf_counter() - _PROCESS_T0
        calib = statistics.mean(wl.calibrate.bracket())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "calib_s": calib}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        return probe_main(args)
    if args.workload == "all":
        return run_all(args)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
