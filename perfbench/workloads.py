"""Workload inputs, timed operations and correctness gates.

Every input is a literal in ``workloads.json``; the seed only picks the
random state (passed to ``nlse4 evolve`` as ``--seed``) or draws the Mathieu
q.  The package is driven from outside: ``nlse4.cli.main`` for whole CLI
calls and ``nlse4.bands.band_edge_bisection`` for bisected edges, both
looked up at call time so a tracer installed later sees them.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().with_name("workloads.json")


def load_specs() -> dict:
    return json.loads(SPEC_PATH.read_text())


class GateFailure(Exception):
    """An operation ran but its output failed a correctness gate."""


@dataclass
class OpResult:
    kind: str  # "evolve", "chart" or "edge"
    wall_s: float
    ok: bool
    detail: str = ""
    bytes_written: int = 0
    calib_s: float = 0.0


class Calibration:
    """A fixed kernel, independent of nlse4, that measures the host's speed.

    One block mixes interpreter-bound work, small-array numpy calls and 2D
    FFTs, the three kinds of work the workloads spend their time in.  An
    operation is bracketed by BRACKET_BLOCKS blocks before and after it, and
    while ``sampling`` is active a timer signal runs one more block every
    SAMPLE_INTERVAL_S, so a long operation is also measured while it runs.
    The transforms are bound at construction, before any tracer is
    installed, so the kernel is never traced.
    """

    BRACKET_BLOCKS = 2
    SAMPLE_INTERVAL_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x1 = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        self.x2 = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        self.fft, self.ifft = np.fft.fft, np.fft.ifft
        self.fft2, self.ifft2 = np.fft.fft2, np.fft.ifft2
        self._samples = None

    def block(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(75000):
            acc += i * i
        for _ in range(75):
            self.ifft(self.fft(self.x1) * 1.0001)
        for _ in range(4):
            self.ifft2(self.fft2(self.x2) * 1.0001)
        return time.perf_counter() - t0

    def bracket(self) -> list:
        return [self.block() for _ in range(self.BRACKET_BLOCKS)]

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        block = self.block()
        self._samples.append((t0, block, time.perf_counter() - t0))

    @contextmanager
    def sampling(self):
        """Run timer-driven blocks during the body; yields their times."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        blocks = []
        try:
            yield blocks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            blocks.extend(b for _, b, _ in self._samples)
            self._samples = None

    def handler_time(self, t0: float, t1: float) -> float:
        """Seconds the timer blocks took between t0 and t1."""
        if self._samples is None:
            return 0.0
        return sum(h for start, _, h in self._samples if t0 <= start <= t1)


@dataclass
class Workload:
    """A prepared workload: its spec, the seed-derived inputs, the CLI
    configs written from them and a private directory for CLI outputs."""

    spec: dict
    seed: int
    workdir: Path
    inputs: dict
    config_path: Path
    warmup_path: Path
    calibrate: Calibration = field(default_factory=Calibration)

    # -- set-up ------------------------------------------------------------

    @classmethod
    def prepare(cls, name: str, seed: int, workdir) -> "Workload":
        specs = load_specs()
        if name not in specs:
            raise KeyError(f"unknown workload {name!r}; choose from {sorted(specs)}")
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = make_inputs(specs[name], int(seed))
        paths = []
        for fname, config in (("config.json", inputs["config"]), ("warmup.json", inputs["warmup_config"])):
            paths.append(workdir / fname)
            paths[-1].write_text(json.dumps(config, sort_keys=True, indent=1))
        return cls(specs[name], int(seed), workdir, inputs, *paths)

    def warmup(self) -> None:
        """One minimal call of the workload's CLI command, with its gates."""
        out = self.workdir / "warmup"
        rc = self._cli(self.warmup_path, out)
        if rc != 0:
            raise GateFailure(f"warm-up exited with code {rc}")
        check_summary(out)

    def _cli(self, config_path: Path, out: Path) -> int:
        import nlse4.cli

        shutil.rmtree(out, ignore_errors=True)
        args = [self.spec["kind"], "--config", str(config_path), "--out", str(out), "--quiet"]
        if self.spec["kind"] == "evolve":
            args += ["--seed", str(self.seed)]
        return nlse4.cli.main(args)

    # -- operations ----------------------------------------------------------

    def rounds(self):
        """The operations of one round, as callables taking a tracer span
        factory (or None).

        evolve: one ``nlse4 evolve`` run.  bands: a chart, the first edge, a
        chart, the second edge (charts interleave with edges so both see the
        same host conditions).
        """
        if self.spec["kind"] == "evolve":
            ops = [self.op_evolve]
        else:
            ops = []
            for i in range(len(self.spec["edges"])):
                ops.append(self.op_chart)
                ops.append(lambda span=None, i=i: self.op_edge(i, span))
        return [self._calibrated(op) for op in ops]

    def _calibrated(self, op):
        """Measure host speed around the operation and, untraced, during it
        (traced runs keep the timer blocks out of their spans)."""
        def run(span=None):
            before = self.calibrate.bracket()
            during = []
            if span is None:
                with self.calibrate.sampling() as during:
                    result = op(span)
            else:
                result = op(span)
            blocks = before + during + self.calibrate.bracket()
            result.calib_s = sum(blocks) / len(blocks)
            return result
        return run

    def _timed(self, fn, span, name):
        """(result, wall seconds, exception or None).  The wall time leaves
        out the calibration's timer blocks; a tracer span wraps the call
        when one is given."""
        err = None
        result = None
        t0 = time.perf_counter()
        try:
            if span is None:
                result = fn()
            else:
                with span(name):
                    result = fn()
        except Exception as exc:  # reported as a failed operation by the caller
            err = exc
        t1 = time.perf_counter()
        return result, t1 - t0 - self.calibrate.handler_time(t0, t1), err

    def op_evolve(self, span=None) -> OpResult:
        out = self.workdir / "op"
        rc, wall, err = self._timed(lambda: self._cli(self.config_path, out), span, "bench.evolve")
        try:
            if err is not None:
                raise err
            if rc != 0:
                raise GateFailure(f"nlse4 evolve exited with code {rc}")
            check_summary(out)
            check_observables(out, self.spec)
        except Exception as exc:  # any failure of the operation counts in error_rate
            return OpResult("evolve", wall, False, f"{type(exc).__name__}: {exc}")
        return OpResult("evolve", wall, True, bytes_written=_tree_bytes(out))

    def op_chart(self, span=None) -> OpResult:
        out = self.workdir / "chart"
        rc, wall, err = self._timed(lambda: self._cli(self.config_path, out), span, "bench.chart")
        try:
            if err is not None:
                raise err
            if rc != 0:
                raise GateFailure(f"nlse4 bands exited with code {rc}")
            summary = check_summary(out)
            rows = _read_csv(out / "band_chart.csv")
            want = self.inputs["config"]["bands"]["samples"]
            if len(rows) != want:
                raise GateFailure(f"band_chart.csv has {len(rows)} rows, expected {want}")
            self.inputs["fourier"] = summary["results"]
        except Exception as exc:
            return OpResult("chart", wall, False, f"{type(exc).__name__}: {exc}")
        return OpResult("chart", wall, True, bytes_written=_tree_bytes(out))

    def op_edge(self, index: int, span=None) -> OpResult:
        """Bisect one edge inside +-half-width of its Fourier value and check
        that the two routes agree (the criterion-9 dual-route check)."""
        import nlse4.bands

        spec = self.spec
        edge = spec["edges"][index]
        try:
            fourier = self.inputs.get("fourier")
            if fourier is None:
                raise GateFailure("no Fourier edges: the chart operation has not succeeded")
            target = float(fourier[edge["route"]][edge["index"]])
        except Exception as exc:
            return OpResult("edge", 0.0, False, f"{type(exc).__name__}: {exc}")
        h = spec["bracket_half_width"]

        def call():
            hill = nlse4.bands.mathieu_hill(self.inputs["q"])
            return nlse4.bands.band_edge_bisection(
                hill, target - h, target + h, edge["branch"], tol=spec["bisection_tol"])

        value, wall, err = self._timed(call, span, "bench.edge")
        try:
            if err is not None:
                raise err
            gap = abs(value - target)
            if not gap <= spec["dual_route_tol"]:
                raise GateFailure(f"bisected edge {value!r} differs from Fourier {target!r} by {gap:.3e}")
        except Exception as exc:
            return OpResult("edge", wall, False, f"{type(exc).__name__}: {exc}")
        return OpResult("edge", wall, True)


def make_inputs(spec: dict, seed: int) -> dict:
    """Seed-derived inputs: the CLI configs and, for bands, the Mathieu q."""
    config = json.loads(json.dumps(spec["config"]))
    warm = json.loads(json.dumps(spec["config"]))
    inputs = {"config": config, "warmup_config": warm}
    if spec["kind"] == "evolve":
        warm["evolution"]["t_end"] = spec["warmup_t_end"]
    else:
        import numpy as np

        lo, hi = spec["q_range"]
        q = float(np.random.default_rng(seed).uniform(lo, hi))
        config["bands"]["mathieu_q"] = q
        warm["bands"]["mathieu_q"] = q
        warm["bands"]["samples"] = spec["warmup_samples"]
        inputs["q"] = q
    return inputs


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_summary(out: Path) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    if "abort" in summary:
        raise GateFailure(f"run aborted: {summary['abort']}")
    failed = [c["name"] for c in summary["checks"] if not c["pass"]]
    if failed or not summary["checks"] or summary.get("all_passed") is not True:
        raise GateFailure(f"summary checks failed: {failed}")
    return summary


def check_observables(out: Path, spec: dict) -> None:
    ev = spec["config"]["evolution"]
    steps = round(ev["t_end"] / ev["dt"])
    want = steps // ev["stride"] + 1 + (1 if steps % ev["stride"] else 0)
    rows = _read_csv(out / "observables.csv")
    if len(rows) != want:
        raise GateFailure(f"observables.csv has {len(rows)} rows, expected {want}")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.values()):
            raise GateFailure("observables.csv holds a non-finite value")
    bound = spec["cont_residual_max"]
    if bound is not None:
        worst = max(abs(float(r["cont_residual"])) for r in rows)
        if not worst <= bound:
            raise GateFailure(f"cont_residual {worst:.3e} exceeds {bound:.1e}")
    snaps = sorted((out / "fields").glob("snapshot_*.fld"))
    if len(snaps) != want:
        raise GateFailure(f"{len(snaps)} field snapshots, expected {want}")
