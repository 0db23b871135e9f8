"""Serialization formats and the command-line driver."""

import json

import numpy as np
import pytest

import nlse4 as q
from nlse4.cli import _parse_evolution, main
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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fld"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(ValueError):
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

    def test_unknown_key_exits_2(self, tmp_path):
        bad = dict(EVOLVE_CONFIG)
        bad["grid"] = {"dims": 1, "n": 64, "length": 20.0, "bogus": 1}
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
        "ehrenfest": {"control": False},
    }


class TestEhrenfestCommand:
    def test_report(self, tmp_path):
        cfg = _write_config(tmp_path, "ehr.json", _ehrenfest_config(1, 64))
        out = tmp_path / "ehr_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        header = (out / "ehrenfest.csv").read_text().splitlines()[0]
        assert header == "t,r1,r2,I1,I2,p_mean"

    def test_report_2d_per_axis_columns(self, tmp_path):
        cfg = _write_config(tmp_path, "ehr2d.json", _ehrenfest_config(2, 32))
        out = tmp_path / "ehr2d_out"
        assert main(["ehrenfest", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "ehrenfest.csv").read_text().splitlines()
        assert lines[0] == "t,r1_x,r1_y,r2_x,r2_y,I1_x,I1_y,I2_x,I2_y,p_mean_x,p_mean_y"
        assert all(len(line.split(",")) == 11 for line in lines[1:])


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
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["checks"]) >= 20
    assert all(c["pass"] for c in summary["checks"])


def test_evolution_defaults_come_from_config_class():
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    parsed = _parse_evolution({"dt": 1e-3, "t_end": 0.02}, me, q.NATURAL_UNITS, None)
    assert parsed == q.EvolutionConfig(dt=1e-3, t_end=0.02, coeffs=me)
