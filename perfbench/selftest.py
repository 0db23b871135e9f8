"""Self-tests of the benchmark harness (not of nlse4).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that workload inputs are a
pure function of the seed, that traced counts repeat exactly, that tracing
leaves every CLI artifact byte-identical, that no tracer wrapper survives a
traced run, that the host-speed sampler samples and then restores the signal
state, and that the launcher refuses a checkout without ``src/``.
Takes about half a minute; exits 1 if any check fails.
"""

import importlib
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / f"selftest-pid{os.getpid()}"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import nlse4  # noqa: E402
from tracing import Tracer, attribute, installed_wrappers  # noqa: E402
from workloads import Calibration, Workload, load_specs, make_inputs  # noqa: E402


def _artifacts(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _traced(op) -> tuple:
    tracer = Tracer()
    tracer.install()
    try:
        result = op(tracer.span)
    finally:
        tracer.uninstall()
    assert result.ok, result.detail
    top = {tracer.names[tracer.name_id[i]] for i in range(len(tracer.start)) if tracer.parent[i] < 0}
    assert all(name.startswith("bench.") for name in top), top
    return attribute(tracer), result


def test_inputs_are_a_function_of_the_seed():
    specs = load_specs()
    for name, spec in specs.items():
        assert make_inputs(spec, 7) == make_inputs(spec, 7), name
        a = Workload.prepare(name, 7, WORK / f"{name}-a")
        b = Workload.prepare(name, 7, WORK / f"{name}-b")
        assert a.config_path.read_bytes() == b.config_path.read_bytes(), name
        assert a.warmup_path.read_bytes() == b.warmup_path.read_bytes(), name
    bands = specs["bands_mathieu"]
    lo, hi = bands["q_range"]
    qs = {make_inputs(bands, seed)["q"] for seed in range(8)}
    assert len(qs) == 8 and all(lo <= q <= hi for q in qs)


def test_traced_counts_repeat_exactly():
    wl = Workload.prepare("evolve_1d_me", 3, WORK / "counts-1d")
    wl.warmup()
    steps = wl.spec["steps_per_op"]
    per_step = []
    for _ in range(2):
        att, _ = _traced(wl.op_evolve)
        per_step.append(sum(n for k, n in att["calls"].items() if k.startswith("fft.")) / steps)
    assert per_step[0] == per_step[1], per_step
    assert 40 < per_step[0] < 70, per_step

    bands = Workload.prepare("bands_mathieu", 3, WORK / "counts-bands")
    assert bands.op_chart().ok
    evals = []
    for _ in range(2):
        att, _ = _traced(lambda span: bands.op_edge(0, span))
        assert att["opened"]["bands.bisection"] == 1
        evals.append(att["scoped"]["floquet_in_bisection"])
    assert evals[0] == evals[1] and evals[0] > 2, evals


def test_tracing_leaves_artifacts_byte_identical():
    for name in ("evolve_1d_me", "evolve_2d_ext"):
        wl = Workload.prepare(name, 5, WORK / f"bytes-{name}")
        wl.warmup()
        assert wl.op_evolve().ok
        plain = _artifacts(wl.workdir / "op")
        _traced(wl.rounds()[0])  # the calibrated operation: calibration stays untraced
        traced = _artifacts(wl.workdir / "op")
        assert "summary.json" in plain and plain == traced, name


def test_wrappers_cover_every_binding_and_are_removed():
    evolution = importlib.import_module("nlse4.evolution")
    currents_mod = importlib.import_module("nlse4.currents")
    hydro = importlib.import_module("nlse4.hydro")
    originals = (evolution.hydro_decompose, np.fft.rfftn, np.fft.irfft2, nlse4.currents)
    assert installed_wrappers() == []
    tracer = Tracer()
    tracer.install()
    try:
        bound = (evolution.hydro_decompose, currents_mod.currents, hydro.hydro_decompose,
                 np.fft.fftn, np.fft.rfftn, np.fft.irfft2, np.fft.ihfft, nlse4.currents)
        assert all(hasattr(f, "__perfbench_original__") for f in bound)
        assert not hasattr(np.fft.fftfreq, "__perfbench_original__")
        assert installed_wrappers()
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert (evolution.hydro_decompose, np.fft.rfftn, np.fft.irfft2, nlse4.currents) == originals


def test_sampler_measures_during_and_restores_signal_state():
    cal = Calibration()
    before = signal.getsignal(signal.SIGALRM)
    with cal.sampling() as blocks:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * Calibration.SAMPLE_INTERVAL_S:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
        inside = cal.handler_time(t0, t1)
    assert len(blocks) >= 2 and inside > 0.0, (blocks, inside)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert cal.handler_time(t0, t1) == 0.0


def test_checkout_without_source_is_refused():
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "evolve_1d_me", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    try:
        for name, fn in tests:
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failed += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
