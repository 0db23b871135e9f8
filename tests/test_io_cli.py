"""Serialization formats and the command-line driver."""

import dataclasses
import inspect
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import nlse4 as q
from nlse4 import bands, checks
from nlse4.cli import (
    _COEFF_PRESETS,
    _EVOLUTION_OPTIONS,
    _STATE_KINDS,
    _parse_coeffs,
    _parse_constants,
    _parse_evolution,
    _parse_state,
    main,
)
from nlse4.io import read_field_snapshot, write_field_snapshot


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


EVOLVE_CONFIG = {
    "version": 1,
    "grid": {"dims": 1, "n": 64, "length": 20.0},
    "state": {"kind": "gaussian_packet", "params": {"t0": 1.0}},
    "coeffs": {"preset": "me", "params": {"D1": 0.1, "b1": 0.05, "b6": 0.02}},
    "evolution": {"dt": 1e-3, "t_end": 0.02, "stride": 10, "snapshots": True},
}


class TestSnapshotFormat:
    def test_roundtrip(self, tmp_path):
        grid = q.make_grid(1, 64, 20.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        path = tmp_path / "field.fld"
        write_field_snapshot(path, grid, psi)
        grid2, psi2 = read_field_snapshot(path)
        assert grid2 == grid
        assert np.array_equal(psi2, psi.astype(complex))

    def test_roundtrip_2d(self, tmp_path):
        grid = q.make_grid(2, 32, 12.0)
        psi = q.random_state(grid, seed=3, cutoff=4)
        path = tmp_path / "field2d.fld"
        write_field_snapshot(path, grid, psi)
        _, psi2 = read_field_snapshot(path)
        assert np.array_equal(psi2, psi)

    def test_header_layout(self, tmp_path):
        grid = q.make_grid(1, 64, 20.0)
        path = tmp_path / "field.fld"
        write_field_snapshot(path, grid, np.ones(grid.shape, dtype=complex))
        raw = path.read_bytes()
        assert raw[:8] == b"NLSE4FLD"
        assert int(np.frombuffer(raw, "<u4", 1, 8)[0]) == 1
        assert int(np.frombuffer(raw, "<u4", 1, 12)[0]) == 1
        assert int(np.frombuffer(raw, "<u4", 1, 16)[0]) == 64
        assert float(np.frombuffer(raw, "<f8", 1, 20)[0]) == 20.0
        assert len(raw) == 32 + 2 * 8 * 64

    @pytest.mark.parametrize("dims,n", [(1, 32), (2, 16)], ids=["1d", "2d"])
    def test_bytes_are_header_plus_interleaved_payload(self, tmp_path, dims, n):
        grid = q.make_grid(dims, n, 7.5)
        psi = q.random_state(grid, seed=2, cutoff=3)
        psi.flat[0] = complex(-0.0, psi.flat[0].imag)  # the sign of zero must survive
        path = tmp_path / "field.fld"
        write_field_snapshot(path, grid, psi)
        header = b"NLSE4FLD" + struct.pack("<IIIdI", 1, dims, n, 7.5, 0)
        payload = b"".join(struct.pack("<dd", z.real, z.imag) for z in psi.ravel(order="C"))
        assert path.read_bytes() == header + payload
        _, back = read_field_snapshot(path)
        assert back.tobytes() == psi.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fld"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_field_snapshot(path)

    @pytest.mark.parametrize("cut", [48, -48], ids=["trailing-bytes", "truncated"])
    def test_wrong_length_rejected(self, tmp_path, cut):
        """A file must hold the header plus exactly n^dims samples: trailing
        bytes or a truncated payload raise with the expected size."""
        grid = q.make_grid(2, 16, 7.5)
        path = tmp_path / "field.fld"
        write_field_snapshot(path, grid, q.random_state(grid, seed=2, cutoff=3))
        raw = path.read_bytes()
        assert len(raw) == 32 + 16 * 16**2
        path.write_bytes(raw + b"\x00" * cut if cut > 0 else raw[:cut])
        with pytest.raises(ValueError, match=f"must hold {32 + 16 * 16**2} bytes, got {len(raw) + cut}"):
            read_field_snapshot(path)


class TestEvolveCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, "run.json", EVOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / "observables.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_passed"] is True
        assert summary["checks"][0]["name"] == "norm_drift"
        header = (out / "observables.csv").read_text().splitlines()[0]
        assert header == "t,norm,E_L,E_ME,x_mean,p_mean,I1,I2,cont_residual"
        snaps = sorted((out / "fields").iterdir())
        assert len(snaps) == 3  # t = 0, 0.01, 0.02 at stride 10

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, "run.json", EVOLVE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "observables.csv").read_bytes() == (out2 / "observables.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "fields" / "snapshot_000000.fld").read_bytes() == (
            out2 / "fields" / "snapshot_000000.fld"
        ).read_bytes()

    @pytest.mark.parametrize("section, table", [
        ("grid", {"dims": 1, "n": 64, "length": 20.0, "bogus": 1}),
        ("evolution", {**EVOLVE_CONFIG["evolution"], "integrator": "rk4"}),
    ], ids=["grid-bogus", "evolution-integrator"])
    def test_unknown_key_exits_2(self, tmp_path, section, table):
        bad = dict(EVOLVE_CONFIG)
        bad[section] = table
        cfg = _write_config(tmp_path, "bad.json", bad)
        out = tmp_path / "out_bad"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert not (out / "summary.json").exists()

    def test_missing_version_exits_2(self, tmp_path):
        bad = {k: v for k, v in EVOLVE_CONFIG.items() if k != "version"}
        cfg = _write_config(tmp_path, "bad2.json", bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_numerical_abort_exits_3(self, tmp_path):
        cfg_data = json.loads(json.dumps(EVOLVE_CONFIG))
        cfg_data["grid"] = {"dims": 1, "n": 64, "length": 2 * np.pi}
        cfg_data["state"] = {"kind": "random", "seed": 3, "params": {"cutoff": 6, "amplitude": 0.45}}
        cfg_data["coeffs"] = {"preset": "me", "params": {"D1": 0.8}}
        bound = q.stability_bound(q.make_grid(1, 64, 2 * np.pi), q.MEParams(D1=0.8))
        dt = 0.98 * bound
        cfg_data["evolution"] = {"dt": dt, "t_end": 4000 * dt, "stride": 100, "norm_tol": 1e-10}
        cfg = _write_config(tmp_path, "abort.json", cfg_data)
        out = tmp_path / "out_abort"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert "abort" in summary


class TestBandsCommand:
    def test_chart_and_edges(self, tmp_path):
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": -1.0, "a_max": 10.0, "samples": 40},
        })
        out = tmp_path / "bands_out"
        assert main(["bands", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header = (out / "band_chart.csv").read_text().splitlines()[0]
        assert header == "spectral_parameter,trM,stable,nu_real,nu_imag"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["edges"][0] == pytest.approx(-0.4551386, abs=1e-6)
        assert summary["results"]["pure_mathieu"] is True

    def test_summary_reports_the_chart_acceptance(self, tmp_path):
        # the chart is the Hill discriminant; the Magnus monodromy recomputes
        # 9 evenly spaced samples, both ends included, and the summary
        # reports their step-halving acceptance
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": -1.0, "a_max": 10.0, "samples": 200},
        })
        out = tmp_path / "bands_out"
        assert main(["bands", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        results = summary["results"]
        a_values = np.linspace(-1.0, 10.0, 200)
        subset = [0, 25, 50, 75, 100, 124, 149, 174, 199]
        hill = q.mathieu_hill(1.0)
        checked = q.floquet_analyze(hill, a_values[subset])
        assert results["monodromy_steps"] == checked[0].n_steps
        assert 0.0 < results["tol_achieved"] == checked[0].tol_achieved <= bands._MONODROMY_RTOL
        # the largest entry scale S, and the det row's |det M - 1| / (n eps S),
        # which rounding alone keeps below 10
        assert results["monodromy_entry_scale"] == max(r.entry_scale for r in checked) >= 1.0
        ratio = max(abs(r.det_m - 1.0) / (r.n_steps * np.finfo(float).eps * r.entry_scale) for r in checked)
        det_row, routes_row = summary["checks"]
        assert (det_row["name"], det_row["tolerance"], det_row["pass"]) == ("monodromy_det", 1e-10, True)
        assert det_row["measured"] == max(abs(r.det_m - 1.0) for r in checked)
        assert det_row["note"] == f"9 of 200 samples; max |det M - 1| / (n eps S) = {ratio:.3g}"
        assert ratio <= 10.0
        chart = bands.hill_discriminant(hill, a_values)
        deviation = max(abs(chart[i] - r.tr_m) / max(1.0, abs(r.tr_m)) for i, r in zip(subset, checked))
        assert (routes_row["name"], routes_row["tolerance"], routes_row["pass"]) == ("chart_routes", 1e-9, True)
        assert routes_row["measured"] == deviation

    def test_chart_is_the_hill_discriminant(self, tmp_path):
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": -1.0, "a_max": 10.0, "samples": 40},
        })
        out = tmp_path / "bands_out"
        assert main(["bands", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "band_chart.csv").read_text().splitlines()[1:]
        chart = bands.hill_discriminant(q.mathieu_hill(1.0), np.linspace(-1.0, 10.0, 40))
        assert [float(line.split(",")[1]) for line in lines] == chart.tolist()

    @pytest.mark.parametrize("a_min", [-1.0, -5.0])
    def test_mathieu_charts_pass_both_rows(self, tmp_path, a_min):
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": a_min, "a_max": 10.0, "samples": 200},
        })
        out = tmp_path / "bands_out"
        assert main(["bands", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = json.loads((out / "summary.json").read_text())["checks"]
        assert [row["name"] for row in rows] == ["monodromy_det", "chart_routes"]
        assert rows[1]["measured"] <= 1e-9

    def test_range_beyond_the_discriminant_basis_is_a_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": -1.0, "a_max": 1e6, "samples": 2},
        })
        assert main(["bands", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_few_samples_are_all_checked(self, tmp_path):
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": -1.0, "a_max": 10.0, "samples": 5},
        })
        out = tmp_path / "bands_out"
        assert main(["bands", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = json.loads((out / "summary.json").read_text())["checks"]
        assert all(row["note"].startswith("5 of 5 samples") for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, "bands.json", {
            "version": 1,
            "bands": {"mathieu_q": 1.0, "a_min": -1.0, "a_max": 10.0, "samples": 40},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bands", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["bands", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "band_chart.csv").read_bytes() == (out2 / "band_chart.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_stationary_reduction_config(self, tmp_path):
        cfg = _write_config(tmp_path, "bands2.json", {
            "version": 1,
            "bands": {"D1": 1.0, "b1": 0.2, "amplitude": 0.6, "energy": 0.5,
                      "a_min": -1.0, "a_max": 4.0, "samples": 20},
        })
        out = tmp_path / "bands2_out"
        assert main(["bands", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["pure_mathieu"] is False


def _ehrenfest_config(dims, n):
    me_omega = 1.0 / (0.1 * 1.0)
    length = 5 * 2 * np.pi / np.sqrt(me_omega)
    return {
        "version": 1,
        "grid": {"dims": dims, "n": n, "length": length},
        "state": {"kind": "gaussian_packet", "params": {"t0": 0.64}},
        "coeffs": {"preset": "me", "params": {"D1": 0.1, "b1": 0.05, "b6": 0.02}},
        "evolution": {"dt": 1e-4, "t_end": 30e-4, "stride": 1, "ratio_floor": 1e-5},
    }


#: A displaced coherent state in the harmonic potential, linear equation (I1 = 0).
HARMONIC_EHRENFEST_CONFIG = {
    "version": 1,
    "grid": {"dims": 1, "n": 128, "length": 18.0},
    "state": {"kind": "coherent", "params": {"omega": 1.0, "x0": 1.0}},
    "coeffs": {"preset": "linear"},
    "potential": {"kind": "harmonic", "omega": 1.0},
    "evolution": {"dt": 1e-3, "t_end": 1.0, "stride": 10},
}


def _check_rows(out):
    """name -> pass of the check rows in ``out``'s summary."""
    return {c["name"]: c["pass"] for c in json.loads((out / "summary.json").read_text())["checks"]}


class TestEhrenfestCommand:
    def test_report(self, tmp_path):
        """Both relations are gated; I1 stays under the tolerance here, so
        the control row, which would fail on this correct run, is absent."""
        cfg = _write_config(tmp_path, "ehr.json", _ehrenfest_config(1, 64))
        out = tmp_path / "ehr_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header = (out / "ehrenfest.csv").read_text().splitlines()[0]
        assert header == "t,r1,r2,I1,I2,p_mean"
        assert _check_rows(out) == {"ehrenfest_r1": True, "ehrenfest_r2": True}

    def test_report_2d_per_axis_columns(self, tmp_path):
        cfg = _write_config(tmp_path, "ehr2d.json", _ehrenfest_config(2, 32))
        out = tmp_path / "ehr2d_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "ehrenfest.csv").read_text().splitlines()
        assert lines[0] == "t,r1_x,r1_y,r2_x,r2_y,I1_x,I1_y,I2_x,I2_y,p_mean_x,p_mean_y"
        assert all(len(line.split(",")) == 11 for line in lines[1:])
        assert _check_rows(out) == {"ehrenfest_r1": True, "ehrenfest_r2": True}

    def test_snapshots_key_rejected(self, tmp_path, capsys):
        """ehrenfest writes no field snapshots, so it refuses the key."""
        cfg_data = _ehrenfest_config(1, 64)
        cfg_data["evolution"]["snapshots"] = True
        cfg = _write_config(tmp_path, "ehr_snap.json", cfg_data)
        out = tmp_path / "ehr_snap_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "'snapshots'" in capsys.readouterr().err
        assert not (out / "fields").exists()

    def test_harmonic_force_term(self, tmp_path):
        """A displaced coherent state in the harmonic potential: <p> swings
        under the force, and r2 = d<p>/dt + <grad V> - I2 stays at the
        centered-difference level only if the <grad V> term is right."""
        cfg = _write_config(tmp_path, "ehr_harmonic.json", HARMONIC_EHRENFEST_CONFIG)
        out = tmp_path / "ehr_harmonic_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["max_r1"] <= 1e-4
        assert results["max_r2"] <= 1e-4
        lines = (out / "ehrenfest.csv").read_text().splitlines()[1:]
        assert max(abs(float(line.split(",")[-1])) for line in lines) > 0.5  # p_mean
        assert _check_rows(out) == {"ehrenfest_r1": True, "ehrenfest_r2": True}

    def test_momentum_relation_gated(self, tmp_path):
        """A tolerance between max r1 (1.39e-5) and max r2 (1.67e-5) fails
        the run on the second relation alone."""
        cfg_data = {**HARMONIC_EHRENFEST_CONFIG, "ehrenfest": {"tolerance_scale": 1.5e-5}}
        cfg = _write_config(tmp_path, "ehr_tight.json", cfg_data)
        out = tmp_path / "ehr_tight_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert _check_rows(out) == {"ehrenfest_r1": True, "ehrenfest_r2": False}

    @staticmethod
    def _refused_before_evolving(tmp_path, monkeypatch, capsys, t_end):
        """Run ``ehrenfest`` on a linear packet (dt 1e-3, stride 10) with an
        evolve that must not be reached; return its stderr."""
        import nlse4.cli

        def unreachable(*args):
            raise AssertionError("evolved a run whose samples cannot be differenced")

        monkeypatch.setattr(nlse4.cli, "evolve", unreachable)
        cfg_data = {"version": 1, "grid": {"dims": 1, "n": 64, "length": 24.0},
                    "state": {"kind": "gaussian_packet", "params": {"t0": 1.0}}, "coeffs": {"preset": "linear"},
                    "evolution": {"dt": 1e-3, "t_end": t_end, "stride": 10}}
        cfg = _write_config(tmp_path, "ehr_sampling.json", cfg_data)
        out = tmp_path / "ehr_sampling_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert not (out / "summary.json").exists()
        return capsys.readouterr().err

    def test_ragged_sampling_refused(self, tmp_path, monkeypatch, capsys):
        """25 steps at stride 10: the last sample is 5 steps after the one
        before it, so centered differences cannot use it."""
        err = self._refused_before_evolving(tmp_path, monkeypatch, capsys, 0.025)
        assert err.startswith("configuration error: ") and "not a multiple of stride 10" in err

    def test_too_few_samples_refused(self, tmp_path, monkeypatch, capsys):
        """10 steps at stride 10 give two samples; centered differences need three."""
        err = self._refused_before_evolving(tmp_path, monkeypatch, capsys, 0.01)
        assert err.startswith("configuration error: ") and "give 2 samples" in err

    @pytest.mark.parametrize("quiet", [False, True])
    def test_abort_reported(self, tmp_path, capsys, quiet):
        cfg_data = _ehrenfest_config(1, 64)
        cfg_data["evolution"]["norm_tol"] = 1e-30
        cfg = _write_config(tmp_path, "ehr_abort.json", cfg_data)
        out = tmp_path / "ehr_abort_out"
        args = ["ehrenfest", "--config", cfg, "--out", str(out)] + (["--quiet"] if quiet else [])
        assert main(args) == 3
        summary = json.loads((out / "summary.json").read_text())
        printed = capsys.readouterr().out
        if quiet:
            assert printed == ""
        else:
            assert printed.startswith("numerical abort: ")
            assert summary["abort"]["reason"] in printed


class TestSeparabilityCommand:
    def test_linear_product(self, tmp_path):
        cfg = _write_config(tmp_path, "sep.json", {
            "version": 1,
            "grid": {"dims": 1, "n": 64, "length": 20.0},
            "coeffs": {"preset": "linear"},
            "evolution": {"dt": 2e-3, "t_end": 0.1, "stride": 25},
            "separability": {
                "state1": {"kind": "gaussian_packet", "params": {"t0": 1.0}},
                "state2": {"kind": "gaussian_packet", "params": {"t0": 1.3}},
                "tolerance": 1e-8,
            },
        })
        out = tmp_path / "sep_out"
        assert main(["separability", "--config", cfg, "--out", str(out), "--quiet"]) == 0


def test_check_command_runs_registry(tmp_path):
    cfg = _write_config(tmp_path, "check.json", {"version": 1, "seed": 0})
    out = tmp_path / "check_out"
    code = main(["check", "--config", cfg, "--out", str(out), "--quiet"])
    summary = json.loads((out / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"]] == [
        fn.__name__.removeprefix("check_") for fn in checks.ALL_CHECKS
    ]
    assert len((out / "checks.csv").read_text().splitlines()) == 1 + len(checks.ALL_CHECKS)
    failed = [f"{c['name']}: {c['measured']} vs {c['tolerance']}" for c in summary["checks"] if not c["pass"]]
    assert not failed, failed
    assert code == 0


def test_raising_check_reported_as_valid_json(tmp_path, monkeypatch):
    """A check that raises is a failed check whose non-finite measured value
    is null in the summary (strict JSON) and nan in the CSV."""
    def check_broken(seed=0):
        raise RuntimeError("broken")

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    monkeypatch.setattr(checks, "ALL_CHECKS", [check_broken])
    cfg = _write_config(tmp_path, "check.json", {"version": 1})
    out = tmp_path / "check_out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    [entry] = summary["checks"]
    assert entry["name"] == "broken" and entry["measured"] is None and not entry["pass"]
    assert "RuntimeError: broken" in entry["note"]
    assert (out / "checks.csv").read_text().splitlines()[1] == "0,nan,0,0"


def test_evolution_defaults_come_from_config_class():
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    parsed = _parse_evolution({"dt": 1e-3, "t_end": 0.02}, me, q.NATURAL_UNITS, None)
    assert parsed == q.EvolutionConfig(dt=1e-3, t_end=0.02, coeffs=me)


def test_config_doc_evolution_table_matches_code():
    """docs/config.md lists exactly the accepted evolution keys, and each
    documented default is the EvolutionConfig default."""
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    section = text.split("### `evolution`", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    documented = {key.strip().strip("`"): default.strip() for key, _, default in rows}
    assert set(documented) == {"dt", "t_end", "snapshots", *_EVOLUTION_OPTIONS}
    defaults = {f.name: f.default for f in dataclasses.fields(q.EvolutionConfig)}
    for key, kind in _EVOLUTION_OPTIONS.items():
        assert kind(json.loads(documented[key])) == defaults[key], key  # read as a config value


def test_section_defaults_come_from_library():
    """A config that omits every optional key parses to the library's defaults."""
    constants = _parse_constants({})
    assert constants == _parse_constants(None) == q.PhysicalConstants()
    assert _parse_coeffs({"preset": "me", "params": {"D1": 0.1}}, constants) == q.MEParams(D1=0.1)
    assert _parse_coeffs({"preset": "dg"}, constants) == q.dg_coeffs()
    a, b = [0.1] * 13, [0.05] * 13
    assert _parse_coeffs({"preset": "ext", "params": {"a": a, "b": b}}, constants) == q.ext_coeffs(a, b)


def test_config_doc_constants_and_coeffs_tables_match_code():
    """docs/config.md gives the PhysicalConstants defaults, and each coeffs
    preset row names exactly the params that preset accepts."""
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()

    def table_rows(heading):
        section = text.split(f"### `{heading}`", 1)[1].split("\n#", 1)[0]
        return [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in section.splitlines() if line.startswith("| `")]

    documented = {key.strip("`"): float(default) for key, _, default in table_rows("constants")}
    assert documented == {f.name: f.default for f in dataclasses.fields(q.PhysicalConstants)}
    presets = {preset.strip("`"): set(re.findall(r"`(\w+)`", params))
               for preset, params in table_rows("coeffs")}
    assert presets == {name: {*required, *optional}
                       for name, (_, required, optional) in _COEFF_PRESETS.items()}


def test_state_tables_match_builders_and_doc():
    """Each state kind's key tables name exactly its builder's parameters
    (the required ones being those without a default, except the ``random``
    seed, which the command line fills in), and docs/config.md lists them
    under that kind."""
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    bullets = dict(re.findall(r"^\* `(\w+)`: (.*(?:\n  .*)*)", text, flags=re.M))
    assert set(_STATE_KINDS) == set(q.states._KINDS)
    for kind, (required, optional) in _STATE_KINDS.items():
        params = inspect.signature(q.states._KINDS[kind]).parameters
        named = {name: p for name, p in params.items() if name not in ("grid", "constants")}
        assert set(required) == {name for name, p in named.items() if p.default is p.empty} - {"seed"}, kind
        assert {*required, *optional} == set(named), kind
        assert set(re.findall(r"`(\w+)`", bullets[kind])) - {"state"} >= set(named), kind


def test_per_axis_state_params_accept_lists():
    """A per-axis state parameter given as a list builds the same state as
    the library call with that list."""
    grid = q.make_grid(2, 32, 20.0)
    cfg = {"kind": "gaussian_packet", "params": {"t0": 1.0, "x0": [0.5, -1], "p0": [1, 0.0]}}
    psi = _parse_state(cfg, grid, q.NATURAL_UNITS)
    assert np.array_equal(psi, q.gaussian_packet(grid, t0=1.0, x0=(0.5, -1.0), p0=(1.0, 0.0)))
    eig = _parse_state({"kind": "harmonic_eigenstate", "params": {"level": [1, 0], "omega": 1.0}},
                       grid, q.NATURAL_UNITS)
    assert np.array_equal(eig, q.harmonic_eigenstate(grid, (1, 0), 1.0))


SEPARABILITY_CONFIG = {
    "version": 1,
    "grid": {"dims": 1, "n": 64, "length": 20.0},
    "coeffs": {"preset": "linear"},
    "evolution": {"dt": 2e-3, "t_end": 0.1},
    "separability": {
        "state1": {"kind": "gaussian_packet", "params": {"t0": 1.0}},
        "state2": {"kind": "gaussian_packet", "params": {"t0": 1.3}},
    },
}

#: Valid states on the EVOLVE_CONFIG grid; each malformed-value row spoils one param.
RANDOM_STATE = {"kind": "random", "params": {"cutoff": 6, "amplitude": 0.3}}
EIGENSTATE = {"kind": "harmonic_eigenstate", "params": {"level": 1, "omega": 1.0}}

STATIONARY_BANDS_CONFIG = {
    "version": 1,
    "bands": {"D1": 1.0, "amplitude": 0.6, "energy": 0.5, "a_min": -1.0, "a_max": 4.0, "samples": 20},
}


@pytest.mark.parametrize("command, config, path, value", [
    ("bands", STATIONARY_BANDS_CONFIG, ("bands", "samples"), "many"),
    ("bands", STATIONARY_BANDS_CONFIG, ("bands", "D1"), -1),
    ("bands", STATIONARY_BANDS_CONFIG, ("bands", "a_min"), 10.0),
    ("bands", STATIONARY_BANDS_CONFIG, ("bands", "a_min"), float("nan")),
    ("evolve", {**EVOLVE_CONFIG, "potential": {"kind": "harmonic"}}, ("potential", "omega"), "stiff"),
    ("ehrenfest", _ehrenfest_config(1, 64), ("ehrenfest", "tolerance_scale"), "x"),
    ("ehrenfest", _ehrenfest_config(1, 64), ("ehrenfest", "control"), False),
    ("separability", SEPARABILITY_CONFIG, ("separability", "tolerance"), "tight"),
    ("separability", SEPARABILITY_CONFIG, ("evolution", "dt"), "tiny"),
    ("evolve", EVOLVE_CONFIG, ("report_norm_tol",), "loose"),
    ("evolve", EVOLVE_CONFIG, ("evolution", "dt"), 3e-3),
    ("separability", SEPARABILITY_CONFIG, ("grid", "n"), 256),
    ("separability", SEPARABILITY_CONFIG, ("evolution", "dt"), -1),
    ("separability", SEPARABILITY_CONFIG, ("evolution", "dt"), 3e-3),
    ("separability", SEPARABILITY_CONFIG, ("evolution", "stride"), 0),
    ("evolve", EVOLVE_CONFIG, ("evolution", "norm_tol"), float("nan")),
    ("evolve", EVOLVE_CONFIG, ("evolution", "filter_fraction"), -0.8),
    ("evolve", EVOLVE_CONFIG, ("evolution", "mask_limit"), -0.5),
    ("evolve", EVOLVE_CONFIG, ("evolution", "eps_rho"), -1e-12),
    ("evolve", EVOLVE_CONFIG, ("evolution", "gate_factor"), -16384.0),
    ("evolve", EVOLVE_CONFIG, ("evolution", "ratio_floor"), -1e-8),
    ("evolve", EVOLVE_CONFIG, ("evolution", "dt"), "1e-3"),
    ("evolve", EVOLVE_CONFIG, ("evolution", "stride"), 2.7),
    ("evolve", EVOLVE_CONFIG, ("evolution", "snapshots"), "false"),
    ("evolve", EVOLVE_CONFIG, ("evolution", "norm_tol"), True),
    ("evolve", EVOLVE_CONFIG, ("grid", "n"), "64"),
    ("evolve", {**EVOLVE_CONFIG, "coeffs": {"preset": "dg"}}, ("coeffs", "params", "a"), "11000"),
    ("evolve", {**EVOLVE_CONFIG, "state": RANDOM_STATE}, ("state", "params", "cutoff"), 6.5),
    ("evolve", {**EVOLVE_CONFIG, "state": RANDOM_STATE}, ("state", "params", "amplitude"), False),
    ("evolve", {**EVOLVE_CONFIG, "state": EIGENSTATE}, ("state", "params", "level"), 1.7),
    ("evolve", EVOLVE_CONFIG, ("state", "params", "t0"), True),
    ("evolve", EVOLVE_CONFIG, ("state", "params", "p0"), [True]),
], ids=["bands-samples", "bands-D1", "bands-a-reversed", "bands-a-nan", "potential-omega",
        "ehrenfest-tolerance_scale", "ehrenfest-control", "separability-tolerance", "separability-dt",
        "report_norm_tol", "evolution-dt-not-dividing",
        "separability-n-above-cap", "separability-dt-negative", "separability-dt-not-dividing",
        "separability-stride-zero", "evolution-norm_tol-nan", "evolution-filter_fraction-negative",
        "evolution-mask_limit-negative", "evolution-eps_rho-negative", "evolution-gate_factor-negative",
        "evolution-ratio_floor-negative", "evolution-dt-string", "evolution-stride-fraction",
        "evolution-snapshots-string", "evolution-norm_tol-bool", "grid-n-string", "coeffs-a-string",
        "state-cutoff-fraction", "state-amplitude-bool", "state-level-fraction", "state-t0-bool",
        "state-p0-list-of-bool"])
def test_malformed_value_exits_2(tmp_path, capsys, command, config, path, value):
    """A key the section does not know, a value that does not convert, or
    one that its constructor rejects is a configuration error reported
    before any run, not a traceback."""
    cfg_data = json.loads(json.dumps(config))
    *sections, key = path
    table = cfg_data
    for name in sections:
        table = table.setdefault(name, {})
    table[key] = value
    cfg = _write_config(tmp_path, "bad.json", cfg_data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("command, config, path", [
    ("bands", STATIONARY_BANDS_CONFIG, ("bands", "energy")),
    ("evolve", {**EVOLVE_CONFIG, "potential": {"kind": "harmonic", "omega": 0.1}}, ("potential", "omega")),
], ids=["bands-energy", "potential-omega"])
def test_non_finite_number_exits_2(tmp_path, capsys, command, config, path, literal):
    """Python's json reads NaN, Infinity and -Infinity, and 1e999 overflows
    to inf.  A config holding one is a configuration error before any run,
    not a null in the report or a numerical abort."""
    cfg_data = json.loads(json.dumps(config))
    *sections, key = path
    table = cfg_data
    for name in sections:
        table = table[name]
    table[key] = "VALUE"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(cfg_data).replace('"VALUE"', literal))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and literal in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("grid, state, evolution, message", [
    ({"dims": 1, "n": 64, "length": 2 * np.pi},
     {"kind": "random", "params": {"cutoff": 6, "amplitude": 0.35}},
     {"dt": 0.1, "t_end": 0.2}, "exceeds stability bound"),
    ({"dims": 1, "n": 128, "length": 24.0},
     {"kind": "gaussian_packet", "params": {"t0": 1.0}},
     {"dt": 1e-3, "t_end": 2e-3, "mask_limit": 0.1}, "below the density floor"),
], ids=["dt-above-stability-bound", "state-over-mask_limit"])
def test_run_that_cannot_start_exits_2(tmp_path, capsys, grid, state, evolution, message):
    """A dt above the stability bound, or an initial state with more of the
    grid under the density floor than mask_limit allows, stops the run before
    its first step: a configuration error, not a traceback."""
    cfg = _write_config(tmp_path, "run.json", {
        "version": 1, "grid": grid, "state": state, "evolution": evolution,
        "coeffs": {"preset": "me", "params": {"D1": 0.5}},
    })
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not (out / "summary.json").exists()


def test_mid_run_mask_overflow_exits_3(tmp_path):
    """A stage input that crosses mask_limit after the first step began is a
    numerical abort: exit 3, and the partial report names the density floor
    and the last good time.  The packet starts 38.3% masked and narrows past
    50% near t = 0.45."""
    cfg = _write_config(tmp_path, "run.json", {
        "version": 1, "grid": {"dims": 1, "n": 128, "length": 24.0},
        "state": {"kind": "gaussian_packet", "params": {"t0": 1.0, "t": -1.0}},
        "coeffs": {"preset": "me", "params": {"D1": 0.1, "b1": 0.05, "b6": 0.02}},
        "evolution": {"dt": 1e-3, "t_end": 0.5, "stride": 10, "mask_limit": 0.5},
    })
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    abort = json.loads((out / "summary.json").read_text())["abort"]
    assert abort["t_last"] > 0.0 and "below the density floor" in abort["reason"]


@pytest.mark.parametrize("command, config", [
    ("evolve", EVOLVE_CONFIG),
    ("bands", STATIONARY_BANDS_CONFIG),
    ("check", {"version": 1, "seed": 0}),
    ("ehrenfest", _ehrenfest_config(1, 64)),
    ("separability", SEPARABILITY_CONFIG),
], ids=["evolve", "bands", "check", "ehrenfest", "separability"])
def test_summary_rows_are_check_results(tmp_path, command, config):
    """Every command writes its check rows in the one CheckResult format."""
    cfg = _write_config(tmp_path, "run.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "summary.json").read_text())["checks"]
    keys = set(checks.CheckResult("row", 0.0, 0.0, True).as_dict())
    assert rows and all(set(row) == keys for row in rows)


def test_dg_linearizable_preset_uses_configured_constants(tmp_path):
    """The preset's coefficients carry the configured hbar/m, so the CLI run
    equals a library run with dg_linearizable(d1, d2, constants)."""
    cfg = _write_config(tmp_path, "dglin.json", {
        "version": 1,
        "grid": {"dims": 1, "n": 128, "length": 2 * np.pi},
        "constants": {"mass": 2.0},
        "state": {"kind": "random", "seed": 5, "params": {"cutoff": 6, "amplitude": 0.3}},
        "coeffs": {"preset": "dg-linearizable", "params": {"d1": 0.3, "d2": -0.2}},
        "evolution": {"dt": 1e-4, "t_end": 0.01, "stride": 50, "snapshots": True},
    })
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, final = read_field_snapshot(sorted((out / "fields").iterdir())[-1])

    constants = q.PhysicalConstants(mass=2.0)
    grid = q.make_grid(1, 128, 2 * np.pi)
    psi0 = q.random_state(grid, seed=5, cutoff=6, amplitude=0.3, constants=constants)
    config = q.EvolutionConfig(dt=1e-4, t_end=0.01, coeffs=q.dg_linearizable(0.3, -0.2, constants),
                               constants=constants, stride=50)
    assert np.array_equal(final, q.evolve(grid, psi0, config).final)
