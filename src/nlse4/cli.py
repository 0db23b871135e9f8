"""Command-line driver: evolve / bands / check / ehrenfest / separability.

Configuration is a JSON document validated against the schema documented in
the README (and docs/config.md); unknown keys are rejected so typos cannot
silently change a run.  All artifacts (CSV, summary JSON, field snapshots)
are byte-stable for identical configurations: no timestamps, sorted JSON
keys, 17-significant-digit floats.

Exit codes: 0 all checks passed; 1 at least one check failed (report still
written); 2 configuration error; 3 numerical abort (partial report written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .bands import band_edges, floquet_analyze, hill_from_stationary, mathieu_hill
from .coeffs import MEParams, dg_coeffs, dg_linearizable, ext_coeffs, linear_coeffs
from .diagnostics import ehrenfest_consistency, separability_test
from .evolution import EvolutionAbort, EvolutionConfig, evolve
from .io import (
    REPORT_FORMAT_VERSION,
    axis_columns,
    fmt,
    write_csv,
    write_field_snapshot,
    write_observables_csv,
    write_summary,
)
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, make_grid
from .states import harmonic_potential, make_state

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Configuration file malformed or inconsistent."""


def _require_keys(section: dict, where: str, required=(), optional=()):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    allowed = set(required) | set(optional)
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}: missing required key {key!r}")


def _parse_grid(cfg: dict) -> Grid:
    _require_keys(cfg, "grid", required=("dims", "n", "length"))
    try:
        return make_grid(int(cfg["dims"]), int(cfg["n"]), float(cfg["length"]))
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_constants(cfg) -> PhysicalConstants:
    if cfg is None:
        return NATURAL_UNITS
    _require_keys(cfg, "constants", optional=("hbar", "mass"))
    try:
        return PhysicalConstants(hbar=float(cfg.get("hbar", 1.0)), mass=float(cfg.get("mass", 1.0)))
    except Exception as exc:
        raise ConfigError(f"constants: {exc}") from exc


def _parse_coeffs(cfg):
    _require_keys(cfg, "coeffs", required=("preset",), optional=("params",))
    preset = cfg["preset"]
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("coeffs.params: expected an object")
    try:
        if preset == "linear":
            _require_keys(params, "coeffs.params")
            return linear_coeffs()
        if preset == "me":
            _require_keys(params, "coeffs.params", required=("D1",), optional=("b1", "b6"))
            return MEParams(D1=float(params["D1"]), b1=float(params.get("b1", 0.0)),
                            b6=float(params.get("b6", 0.0)))
        if preset == "dg":
            _require_keys(params, "coeffs.params", optional=("a", "b", "D"))
            return dg_coeffs(a=params.get("a", (1.0, 1.0, 0.0, 0.0, 0.0)),
                             b=params.get("b", (0.0,) * 5), D=float(params.get("D", 1.0)))
        if preset == "dg-linearizable":
            _require_keys(params, "coeffs.params", required=("d1", "d2"))
            return dg_linearizable(float(params["d1"]), float(params["d2"]))
        if preset == "ext":
            _require_keys(params, "coeffs.params", required=("a", "b"), optional=("D", "x14"))
            return ext_coeffs(a=params["a"], b=params["b"], D=float(params.get("D", 1.0)),
                              x14=float(params.get("x14", 0.0)))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"coeffs: {exc}") from exc
    raise ConfigError(f"coeffs.preset: unknown preset {preset!r}")


def _parse_potential(cfg, grid: Grid, constants: PhysicalConstants):
    if cfg is None:
        return None
    _require_keys(cfg, "potential", required=("kind",), optional=("omega",))
    kind = cfg["kind"]
    if kind == "none":
        return None
    if kind == "harmonic":
        if "omega" not in cfg:
            raise ConfigError("potential: harmonic kind requires 'omega'")
        return harmonic_potential(grid, float(cfg["omega"]), constants)
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")


def _parse_state(cfg, grid: Grid, constants: PhysicalConstants, seed_override=None):
    _require_keys(cfg, "state", required=("kind",), optional=("params", "seed"))
    params = dict(cfg.get("params", {}))
    if cfg["kind"] == "random":
        seed = seed_override if seed_override is not None else cfg.get("seed", params.pop("seed", 0))
        params["seed"] = int(seed)
    try:
        return make_state(grid, cfg["kind"], constants=constants, **params)
    except TypeError as exc:
        raise ConfigError(f"state: {exc}") from exc
    except Exception as exc:
        raise ConfigError(f"state: {exc}") from exc


def _parse_evolution(cfg, coeffs, constants, potential) -> EvolutionConfig:
    _require_keys(
        cfg, "evolution", required=("dt", "t_end"),
        optional=("integrator", "stride", "norm_tol", "snapshots", "eps_rho", "gate_factor",
                  "ratio_floor", "mask_limit", "filter_fraction"),
    )
    try:
        return EvolutionConfig(
            dt=float(cfg["dt"]),
            t_end=float(cfg["t_end"]),
            coeffs=coeffs,
            constants=constants,
            potential=potential,
            integrator=cfg.get("integrator", "ifrk4"),
            stride=int(cfg.get("stride", 50)),
            norm_tol=float(cfg.get("norm_tol", 1e-6)),
            eps_rho=float(cfg.get("eps_rho", 1e-12)),
            gate_factor=float(cfg.get("gate_factor", 16384.0)),
            ratio_floor=float(cfg.get("ratio_floor", 1e-8)),
            mask_limit=float(cfg.get("mask_limit", 0.95)),
            filter_fraction=float(cfg.get("filter_fraction", 0.8)),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"evolution: {exc}") from exc


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config must declare \"version\": {CONFIG_VERSION}")
    return raw


def _summary_skeleton(command: str, config: dict) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "command": command,
        "config": config,
        "checks": [],
    }


def _finish(out_dir: Path, summary: dict, quiet: bool) -> int:
    failed = [c for c in summary["checks"] if not c["pass"]]
    summary["all_passed"] = not failed
    write_summary(out_dir / "summary.json", summary)
    if not quiet:
        for c in summary["checks"]:
            print(f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}: {fmt(c['measured'])} (tol {fmt(c['tolerance'])})")
        print(f"summary written to {out_dir / 'summary.json'}")
    return 0 if not failed else 1


def cmd_evolve(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    _require_keys(config, "config", required=("version", "grid", "state", "coeffs", "evolution"),
                  optional=("constants", "potential", "report_norm_tol"))
    grid = _parse_grid(config["grid"])
    constants = _parse_constants(config.get("constants"))
    coeffs = _parse_coeffs(config["coeffs"])
    potential = _parse_potential(config.get("potential"), grid, constants)
    psi0 = _parse_state(config["state"], grid, constants, seed_override=seed)
    evcfg = _parse_evolution(config["evolution"], coeffs, constants, potential)

    summary = _summary_skeleton("evolve", config)
    try:
        traj = evolve(grid, psi0, evcfg)
    except EvolutionAbort as abort:
        summary["abort"] = {"reason": abort.reason, "t_last": abort.t_last}
        write_summary(out_dir / "summary.json", summary)
        if not quiet:
            print(f"numerical abort: {abort}")
        return 3

    write_observables_csv(out_dir / "observables.csv", traj)
    if config["evolution"].get("snapshots", False):
        snap_dir = out_dir / "fields"
        snap_dir.mkdir(exist_ok=True)
        for i, (t, field) in enumerate(zip(traj.ts, traj.fields)):
            write_field_snapshot(snap_dir / f"snapshot_{i:06d}.fld", grid, field)

    norms = [s.norm for s in traj.observables]
    drift = max(abs(n - norms[0]) for n in norms)
    tol = float(config.get("report_norm_tol", 1e-8))
    summary["checks"].append({"name": "norm_drift", "measured": drift, "tolerance": tol,
                              "pass": drift <= tol, "note": f"{len(traj.ts)} snapshots"})
    summary["results"] = {
        "t_end": traj.ts[-1],
        "final_norm": norms[-1],
        "final_e_l": traj.observables[-1].e_l,
        "final_e_me": traj.observables[-1].e_me,
    }
    return _finish(out_dir, summary, quiet)


def cmd_check(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    _require_keys(config, "config", required=("version",), optional=("seed",))
    run_seed = int(seed if seed is not None else config.get("seed", 0))
    results = checks_mod.run_all(run_seed)
    summary = _summary_skeleton("check", config)
    summary["seed"] = run_seed
    summary["checks"] = [r.as_dict() for r in results]
    rows = [[i, r.measured, r.tolerance, 1.0 if r.passed else 0.0] for i, r in enumerate(results)]
    write_csv(out_dir / "checks.csv", ["index", "measured", "tolerance", "pass"], rows)
    return _finish(out_dir, summary, quiet)


def cmd_bands(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    _require_keys(config, "config", required=("version", "bands"), optional=("constants",))
    constants = _parse_constants(config.get("constants"))
    section = config["bands"]
    _require_keys(section, "bands", required=("a_min", "a_max", "samples"),
                  optional=("mathieu_q", "D1", "b1", "amplitude", "energy"))
    if "mathieu_q" in section:
        hill = mathieu_hill(float(section["mathieu_q"]))
    else:
        for key in ("D1", "amplitude", "energy"):
            if key not in section:
                raise ConfigError("bands: need either mathieu_q or (D1, amplitude, energy[, b1])")
        me = MEParams(D1=float(section["D1"]), b1=float(section.get("b1", 0.0)), b6=0.0)
        hill = hill_from_stationary(me, float(section["amplitude"]), float(section["energy"]), constants)

    a_min, a_max = float(section["a_min"]), float(section["a_max"])
    samples = int(section["samples"])
    if samples < 2:
        raise ConfigError("bands.samples: need at least 2")
    a_values = np.linspace(a_min, a_max, samples)
    results = floquet_analyze(hill, a_values)
    rows = [[r.a, r.tr_m, 1.0 if r.stable else 0.0, r.nu.real, r.nu.imag] for r in results]
    write_csv(out_dir / "band_chart.csv", ["spectral_parameter", "trM", "stable", "nu_real", "nu_imag"], rows)

    edges = band_edges(hill, a_min, a_max)
    summary = _summary_skeleton("bands", config)
    summary["results"] = {
        "edges": [float(v) for v in edges["edges"]],
        "periodic": [float(v) for v in edges["periodic"]],
        "antiperiodic": [float(v) for v in edges["antiperiodic"]],
        "pure_mathieu": hill.pure_mathieu,
        "period": hill.period,
        "q0": hill.q0,
    }
    det_dev = max(abs(r.det_m - 1.0) for r in results)
    summary["checks"].append({"name": "monodromy_det", "measured": det_dev, "tolerance": 1e-10,
                              "pass": det_dev <= 1e-10, "note": f"{samples} samples"})
    return _finish(out_dir, summary, quiet)


def cmd_ehrenfest(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    _require_keys(config, "config",
                  required=("version", "grid", "state", "coeffs", "evolution"),
                  optional=("constants", "potential", "ehrenfest"))
    section = config.get("ehrenfest", {})
    _require_keys(section, "ehrenfest", optional=("tolerance_scale", "control"))
    grid = _parse_grid(config["grid"])
    constants = _parse_constants(config.get("constants"))
    coeffs = _parse_coeffs(config["coeffs"])
    potential = _parse_potential(config.get("potential"), grid, constants)
    psi0 = _parse_state(config["state"], grid, constants, seed_override=seed)
    evcfg = _parse_evolution(config["evolution"], coeffs, constants, potential)

    summary = _summary_skeleton("ehrenfest", config)
    try:
        traj = evolve(grid, psi0, evcfg)
    except EvolutionAbort as abort:
        summary["abort"] = {"reason": abort.reason, "t_last": abort.t_last}
        write_summary(out_dir / "summary.json", summary)
        return 3

    report = ehrenfest_consistency(traj)
    per_axis = (report.r1, report.r2, report.i1, report.i2, report.p_mean)
    rows = [[t] + [v for arr in per_axis for v in arr[i]] for i, t in enumerate(report.ts)]
    header = ["t"] + axis_columns(("r1", "r2", "I1", "I2", "p_mean"), grid.dims)
    write_csv(out_dir / "ehrenfest.csv", header, rows)

    scale = max(1.0, float(np.abs(report.p_mean).max()))
    tol = float(section.get("tolerance_scale", 1e-4)) * scale
    summary["checks"].append({"name": "ehrenfest_r1", "measured": report.max_r1, "tolerance": tol,
                              "pass": report.max_r1 <= tol, "note": "m d<x>/dt - <p> - I1"})
    if section.get("control", True):
        control = ehrenfest_consistency(traj, include_i1=False)
        ratio = control.max_r1 / max(report.max_r1, 1e-300)
        summary["checks"].append({"name": "ehrenfest_i1_needed", "measured": ratio, "tolerance": 10.0,
                                  "pass": ratio >= 10.0,
                                  "note": "residual growth when I1 is zeroed"})
    summary["results"] = {"max_r1": report.max_r1, "max_r2": report.max_r2,
                          "max_abs_i1": float(np.abs(report.i1).max())}
    return _finish(out_dir, summary, quiet)


def cmd_separability(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    _require_keys(config, "config",
                  required=("version", "grid", "coeffs", "evolution", "separability"),
                  optional=("constants",))
    section = config["separability"]
    _require_keys(section, "separability", required=("state1", "state2"),
                  optional=("potential1", "potential2", "tolerance"))
    grid = _parse_grid(config["grid"])
    if grid.dims != 1:
        raise ConfigError("separability: grid must be one-dimensional (the product grid is built internally)")
    constants = _parse_constants(config.get("constants"))
    coeffs = _parse_coeffs(config["coeffs"])
    psi1 = _parse_state(section["state1"], grid, constants, seed_override=seed)
    psi2 = _parse_state(section["state2"], grid, constants)
    pot1 = _parse_potential(section.get("potential1"), grid, constants)
    pot2 = _parse_potential(section.get("potential2"), grid, constants)
    ev = config["evolution"]
    _require_keys(ev, "evolution", required=("dt", "t_end"), optional=("stride",))

    summary = _summary_skeleton("separability", config)
    try:
        deviation = separability_test(
            grid, psi1, psi2, pot1, pot2, coeffs,
            t_end=float(ev["t_end"]), dt=float(ev["dt"]), stride=int(ev.get("stride", 50)),
            constants=constants,
        )
    except EvolutionAbort as abort:
        summary["abort"] = {"reason": abort.reason, "t_last": abort.t_last}
        write_summary(out_dir / "summary.json", summary)
        return 3

    tol = float(section.get("tolerance", 1e-6))
    summary["checks"].append({"name": "separability_deviation", "measured": deviation,
                              "tolerance": tol, "pass": deviation <= tol,
                              "note": "max |psi_2D - psi_1 x psi_2| over sampled times"})
    summary["results"] = {"deviation": deviation}
    return _finish(out_dir, summary, quiet)


COMMANDS = {
    "evolve": cmd_evolve,
    "bands": cmd_bands,
    "check": cmd_check,
    "ehrenfest": cmd_ehrenfest,
    "separability": cmd_separability,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nlse4", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, out_dir, args.seed, args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EvolutionAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
