"""Command-line driver: evolve / bands / check / ehrenfest / separability.

Configuration is a JSON document validated against the schema documented in
the README (and docs/config.md).  Each section is read through one key table
(key -> converter): unknown keys and values of the wrong type are errors,
so typos cannot silently change a run, and only the keys present are passed
on, so each default belongs to the library function that receives them.  All
artifacts (CSV, summary JSON, field snapshots) are byte-stable for identical
configurations: no timestamps, sorted JSON keys, 17-significant-digit floats.

Exit codes: 0 all checks passed; 1 at least one check failed (report still
written); 2 configuration error, including a run that cannot start (``dt``
above the stability bound, or a state over ``mask_limit`` at t = 0); 3
numerical abort, a later overflow included (partial report written).
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
from .diagnostics import SEPARABILITY_MAX_N, ehrenfest_consistency, separability_test
from .evolution import EvolutionAbort, EvolutionConfig, MaskOverflowError, StabilityError, evolve
from .io import (
    REPORT_FORMAT_VERSION,
    axis_columns,
    fmt,
    write_csv,
    write_field_snapshot,
    write_observables_csv,
    write_summary,
)
from .spectral import Grid, PhysicalConstants, make_grid
from .states import harmonic_potential, make_state

CONFIG_VERSION = 1

#: Seed of checks and ``random`` states when neither config nor ``--seed`` sets one.
_DEFAULT_SEED = 0


class ConfigError(ValueError):
    """Configuration file malformed or inconsistent."""


def _raw(value):
    """Converter of a value checked elsewhere: a nested section, ``version``, a name."""
    return value


def _typed(kind):
    """Converter to ``kind`` (bool, int or float) of a JSON value of that type
    only: never a string, a bool only for bool, an integral number for int."""
    def convert(value):
        if (not isinstance(value, (int, float)) or isinstance(value, bool) != (kind is bool)
                or (kind is int and value != int(value))):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    return convert


_bool, _int, _float = _typed(bool), _typed(int), _typed(float)


def _floats(values) -> tuple:
    return tuple(_float(v) for v in values)


def _read_section(section, where: str, keys: dict, required=()) -> dict:
    """The keys present in ``section``, each converted by the ``keys`` table
    (allowed key -> converter); absent optional keys stay absent, so their
    defaults are the ones of the function the dict is passed to."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r} (allowed: {sorted(keys)})")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}: missing required key {key!r}")
    converted = {}
    try:
        for key, value in section.items():
            converted[key] = keys[key](value)
    except Exception as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc
    return converted


def _construct(where: str, builder, *args, **kwargs):
    """``builder(*args, **kwargs)``, with its errors reported as ConfigErrors."""
    try:
        return builder(*args, **kwargs)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_grid(cfg: dict) -> Grid:
    keys = {"dims": _int, "n": _int, "length": _float}
    return _construct("grid", make_grid, **_read_section(cfg, "grid", keys, required=tuple(keys)))


def _parse_constants(cfg) -> PhysicalConstants:
    keys = _read_section({} if cfg is None else cfg, "constants", {"hbar": _float, "mass": _float})
    return _construct("constants", PhysicalConstants, **keys)


#: preset -> (builder, required params, optional params), params as key tables;
#: each builder receives the run's constants, then the params present.
_COEFF_PRESETS = {
    "linear": (lambda constants: linear_coeffs(), {}, {}),
    "me": (lambda constants, **p: MEParams(**p), {"D1": _float}, {"b1": _float, "b6": _float}),
    "dg": (lambda constants, **p: dg_coeffs(**p), {}, {"a": _floats, "b": _floats, "D": _float}),
    "dg-linearizable": (lambda constants, **p: dg_linearizable(**p, constants=constants),
                        {"d1": _float, "d2": _float}, {}),
    "ext": (lambda constants, **p: ext_coeffs(**p), {"a": _floats, "b": _floats}, {"D": _float, "x14": _float}),
}


def _parse_coeffs(cfg, constants: PhysicalConstants):
    section = _read_section(cfg, "coeffs", {"preset": _raw, "params": _raw}, required=("preset",))
    preset = section["preset"]
    if not isinstance(preset, str) or preset not in _COEFF_PRESETS:
        raise ConfigError(f"coeffs.preset: unknown preset {preset!r}")
    builder, required, optional = _COEFF_PRESETS[preset]
    params = _read_section(section.get("params", {}), "coeffs.params", {**required, **optional}, required)
    return _construct("coeffs", builder, constants, **params)


def _parse_potential(cfg, grid: Grid, constants: PhysicalConstants):
    if cfg is None:
        return None
    section = _read_section(cfg, "potential", {"kind": _raw, "omega": _float}, required=("kind",))
    kind = section["kind"]
    if kind == "none":
        return None
    if kind == "harmonic":
        if "omega" not in section:
            raise ConfigError("potential: harmonic kind requires 'omega'")
        return harmonic_potential(grid, section["omega"], constants)
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")


def _parse_state(cfg, grid: Grid, constants: PhysicalConstants, seed_override=None):
    section = _read_section(cfg, "state", {"kind": _raw, "params": dict, "seed": _int}, required=("kind",))
    params = section.get("params", {})
    try:
        if section["kind"] == "random":
            seed = section.get("seed", params.pop("seed", _DEFAULT_SEED))
            params["seed"] = seed_override if seed_override is not None else _int(seed)
        return make_state(grid, section["kind"], constants=constants, **params)
    except Exception as exc:
        raise ConfigError(f"state: {exc}") from exc


#: Required ``evolution`` keys and their types.
_EVOLUTION_SPAN = {"dt": _float, "t_end": _float}

#: Optional ``evolution`` keys and their types; absent keys keep the EvolutionConfig default.
_EVOLUTION_OPTIONS = {
    "stride": _int, "norm_tol": _float, "eps_rho": _float, "gate_factor": _float,
    "ratio_floor": _float, "mask_limit": _float, "filter_fraction": _float,
}


def _parse_evolution(cfg, coeffs, constants, potential, snapshots: bool = False) -> EvolutionConfig:
    """The run's EvolutionConfig; ``snapshots`` admits the key of that name,
    which only a command that writes field snapshots may accept."""
    keys = {**_EVOLUTION_SPAN, **({"snapshots": _bool} if snapshots else {}), **_EVOLUTION_OPTIONS}
    options = _read_section(cfg, "evolution", keys, required=tuple(_EVOLUTION_SPAN))
    options.pop("snapshots", None)
    config = _construct("evolution", EvolutionConfig, coeffs=coeffs, constants=constants,
                        potential=potential, **options)
    _construct("evolution", config.n_steps)  # t_end must be a whole number of steps
    return config


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


#: Top-level sections of the commands that evolve one state.
_RUN_REQUIRED = ("version", "grid", "state", "coeffs", "evolution")
_RUN_SECTIONS = dict.fromkeys((*_RUN_REQUIRED, "constants", "potential"), _raw)


def _summary_skeleton(command: str, config: dict) -> dict:
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "command": command,
        "config": config,
        "checks": [],
    }


def _finish(out_dir: Path, summary: dict, results: list, quiet: bool) -> int:
    """Write the summary with its check rows, each a CheckResult; returns
    exit code 0 if all passed, else 1."""
    failed = [r for r in results if not r.passed]
    summary["checks"] = [r.as_dict() for r in results]
    summary["all_passed"] = not failed
    write_summary(out_dir / "summary.json", summary)
    if not quiet:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {fmt(r.measured)} (tol {fmt(r.tolerance)})")
        print(f"summary written to {out_dir / 'summary.json'}")
    return 0 if not failed else 1


def _abort(out_dir: Path, summary: dict, abort: EvolutionAbort, quiet: bool) -> int:
    """Write the partial report of an aborted run; returns exit code 3."""
    summary["abort"] = {"reason": abort.reason, "t_last": abort.t_last}
    write_summary(out_dir / "summary.json", summary)
    if not quiet:
        print(f"numerical abort: {abort}")
    return 3


def _evolve_run(command: str, config: dict, out_dir: Path, seed, quiet: bool) -> tuple:
    """Parse the run sections and evolve: ``(grid, trajectory, summary)``,
    with trajectory None after an abort (partial report written)."""
    grid = _parse_grid(config["grid"])
    constants = _parse_constants(config.get("constants"))
    coeffs = _parse_coeffs(config["coeffs"], constants)
    potential = _parse_potential(config.get("potential"), grid, constants)
    psi0 = _parse_state(config["state"], grid, constants, seed_override=seed)
    evcfg = _parse_evolution(config["evolution"], coeffs, constants, potential,
                             snapshots=command == "evolve")
    summary = _summary_skeleton(command, config)
    try:
        return grid, evolve(grid, psi0, evcfg), summary
    except EvolutionAbort as abort:
        _abort(out_dir, summary, abort, quiet)
        return grid, None, summary


def cmd_evolve(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    top = _read_section(config, "config", {**_RUN_SECTIONS, "report_norm_tol": _float}, _RUN_REQUIRED)
    grid, traj, summary = _evolve_run("evolve", config, out_dir, seed, quiet)
    if traj is None:
        return 3

    write_observables_csv(out_dir / "observables.csv", traj)
    if config["evolution"].get("snapshots"):
        snap_dir = out_dir / "fields"
        snap_dir.mkdir(exist_ok=True)
        for i, (t, field) in enumerate(zip(traj.ts, traj.fields)):
            write_field_snapshot(snap_dir / f"snapshot_{i:06d}.fld", grid, field)

    norms = [s.norm for s in traj.observables]
    tol = {"tolerance": top["report_norm_tol"]} if "report_norm_tol" in top else {}
    row = checks_mod.norm_drift(norms, note=f"{len(traj.ts)} snapshots", **tol)
    summary["results"] = {
        "t_end": traj.ts[-1],
        "final_norm": norms[-1],
        "final_e_l": traj.observables[-1].e_l,
        "final_e_me": traj.observables[-1].e_me,
    }
    return _finish(out_dir, summary, [row], quiet)


def cmd_check(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    top = _read_section(config, "config", {"version": _raw, "seed": _int}, required=("version",))
    run_seed = seed if seed is not None else top.get("seed", _DEFAULT_SEED)
    results = checks_mod.run_all(run_seed)
    summary = _summary_skeleton("check", config)
    summary["seed"] = run_seed
    rows = [[i, r.measured, r.tolerance, 1.0 if r.passed else 0.0] for i, r in enumerate(results)]
    write_csv(out_dir / "checks.csv", ["index", "measured", "tolerance", "pass"], rows)
    return _finish(out_dir, summary, results, quiet)


#: ``bands`` keys: the sweep, then either ``mathieu_q`` or the stationary reduction.
_BANDS_KEYS = {
    "a_min": _float, "a_max": _float, "samples": _int, "mathieu_q": _float,
    "D1": _float, "b1": _float, "amplitude": _float, "energy": _float,
}


def cmd_bands(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    top = _read_section(config, "config", dict.fromkeys(("version", "bands", "constants"), _raw),
                        required=("version", "bands"))
    constants = _parse_constants(top.get("constants"))
    section = _read_section(top["bands"], "bands", _BANDS_KEYS, required=("a_min", "a_max", "samples"))
    if "mathieu_q" in section:
        hill = _construct("bands", mathieu_hill, section["mathieu_q"])
    elif all(key in section for key in ("D1", "amplitude", "energy")):
        me = _construct("bands", MEParams, **{key: section[key] for key in ("D1", "b1") if key in section})
        hill = _construct("bands", hill_from_stationary, me, section["amplitude"], section["energy"], constants)
    else:
        raise ConfigError("bands: need either mathieu_q or (D1, amplitude, energy[, b1])")

    a_min, a_max, samples = section["a_min"], section["a_max"], section["samples"]
    if samples < 2:
        raise ConfigError("bands.samples: need at least 2")
    if not a_min < a_max:  # also rejects NaN
        raise ConfigError(f"bands: need a_min < a_max, got {a_min} and {a_max}")
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
    return _finish(out_dir, summary, [checks_mod.monodromy_det(results, note=f"{samples} samples")], quiet)


def cmd_ehrenfest(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    top = _read_section(config, "config", {**_RUN_SECTIONS, "ehrenfest": _raw}, _RUN_REQUIRED)
    section = _read_section(top.get("ehrenfest", {}), "ehrenfest", {"tolerance_scale": _float})
    grid, traj, summary = _evolve_run("ehrenfest", config, out_dir, seed, quiet)
    if traj is None:
        return 3

    report = ehrenfest_consistency(traj)
    per_axis = (report.r1, report.r2, report.i1, report.i2, report.p_mean)
    rows = [[t] + [v for arr in per_axis for v in arr[i]] for i, t in enumerate(report.ts)]
    header = ["t"] + axis_columns(("r1", "r2", "I1", "I2", "p_mean"), grid.dims)
    write_csv(out_dir / "ehrenfest.csv", header, rows)

    summary["results"] = {"max_r1": report.max_r1, "max_r2": report.max_r2, "max_abs_i1": report.max_abs_i1}
    return _finish(out_dir, summary, checks_mod.ehrenfest_checks(report, **section), quiet)


def cmd_separability(config: dict, out_dir: Path, seed, quiet: bool) -> int:
    required = ("version", "grid", "coeffs", "evolution", "separability")
    top = _read_section(config, "config", dict.fromkeys((*required, "constants"), _raw), required)
    section = _read_section(top["separability"], "separability",
                            {**dict.fromkeys(("state1", "state2", "potential1", "potential2"), _raw),
                             "tolerance": _float},
                            required=("state1", "state2"))
    grid = _parse_grid(top["grid"])
    if grid.dims != 1:
        raise ConfigError("separability: grid must be one-dimensional (the product grid is built internally)")
    if grid.n > SEPARABILITY_MAX_N:
        raise ConfigError(f"separability: grid.n must be at most {SEPARABILITY_MAX_N} "
                          "(the product grid is n^2)")
    constants = _parse_constants(top.get("constants"))
    coeffs = _parse_coeffs(top["coeffs"], constants)
    psi1 = _parse_state(section["state1"], grid, constants, seed_override=seed)
    psi2 = _parse_state(section["state2"], grid, constants)
    pot1 = _parse_potential(section.get("potential1"), grid, constants)
    pot2 = _parse_potential(section.get("potential2"), grid, constants)
    span = _read_section(top["evolution"], "evolution",
                         {**_EVOLUTION_SPAN, "stride": _EVOLUTION_OPTIONS["stride"]},
                         required=tuple(_EVOLUTION_SPAN))
    # the three runs share dt, t_end and stride; check them before the first
    runs = _construct("evolution", EvolutionConfig, **span)
    _construct("evolution", runs.n_steps)  # t_end must be a whole number of steps

    summary = _summary_skeleton("separability", config)
    try:
        deviation = separability_test(grid, psi1, psi2, pot1, pot2, coeffs, constants=constants, **span)
    except EvolutionAbort as abort:
        return _abort(out_dir, summary, abort, quiet)

    summary["results"] = {"deviation": deviation}
    tol = {"tolerance": section["tolerance"]} if "tolerance" in section else {}
    return _finish(out_dir, summary, [checks_mod.separability_deviation(deviation, **tol)], quiet)


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
    except (ConfigError, StabilityError, MaskOverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EvolutionAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
