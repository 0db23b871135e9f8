"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured value next to its tolerance.

Rows whose invariant ``nlse4 check`` also runs call that registry check and
assert its result against the tolerance pinned here: criteria 1, 2 and 3,
the first row of 4, both rows of 8, the first two rows of 9, and both rows
of 11.  Criterion 10 asserts the rows of ``checks.ehrenfest_checks``, the
rows ``nlse4 ehrenfest`` reports, and criterion 7 row 1 the row of
``checks.separability_deviation``, the row ``nlse4 separability`` reports.
The other rows (4 row 2, 5, 6, 7 row 2, 9 rows 3-4 and 12) run scenarios too
heavy for the registry and build them here.
"""

import json

import numpy as np

import nlse4 as q
from nlse4 import checks
from nlse4.cli import main as cli_main
from nlse4.diagnostics import ehrenfest_consistency, separability_test
from nlse4.evolution import EvolutionConfig, evolve, stability_bound
from nlse4.states import galilean_boost

from helpers import banded_localized_state, perturbed_plane_wave

CON = q.NATURAL_UNITS
ME_PRESET = q.MEParams(D1=0.1, b1=0.05, b6=0.02)


def report(criterion, description, measured, tolerance, passed=None, larger_is_pass=False):
    if passed is None:
        passed = measured >= tolerance if larger_is_pass else measured <= tolerance
    rel = ">=" if larger_is_pass else "<="
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion:>2}: {description}: "
          f"{measured:.3e} {rel} {tolerance:.1e}")
    assert passed, f"criterion {criterion}: {description}: {measured} vs {tolerance}"


def report_check(criterion, description, result, tolerance, larger_is_pass=False):
    """Report a registry check's result against the criterion's pinned tolerance."""
    assert result.tolerance == tolerance, f"{result.name}: tolerance {result.tolerance} != pinned {tolerance}"
    report(criterion, description, result.measured, tolerance, passed=result.passed, larger_is_pass=larger_is_pass)


def test_criterion_01_homogeneity_suite():
    report_check(1, "homogeneity over 20 random (psi, lambda) pairs, relative to max|F|",
                 checks.check_functional_homogeneity(), 1e-12)


def test_criterion_02_norm_conservation():
    report_check(2, "norm drift over 1000 IF-RK4 steps (perturbed Gaussian)",
                 checks.check_norm_conservation(), 1e-8)


def test_criterion_03_linear_limit_oracle():
    report_check(3, "zero-coefficient free Gaussian vs closed form at t=1", checks.check_linear_limit(), 1e-6)


def test_criterion_04_weak_nonlinearity():
    report_check(4, "nonlinear action on quadratic-phase states", checks.check_weak_nonlinearity(), 1e-10)

    grid = q.make_grid(1, 128, 24.0)
    psi0 = q.gaussian_packet(grid, t0=1.0)
    shared = dict(dt=5e-4, t_end=1.0, stride=1000, observables=False)
    traj_me = evolve(grid, psi0, EvolutionConfig(coeffs=ME_PRESET, **shared))
    traj_lin = evolve(grid, psi0, EvolutionConfig(coeffs=None, **shared))
    dev = np.abs(traj_me.final - traj_lin.final).max()
    report(4, "three-parameter variant vs linear trajectory from the packet at t=1", dev, 1e-8)


def test_criterion_05_unmodified_stationary_states():
    grid = q.make_grid(1, 128, 18.0)
    pot = q.harmonic_potential(grid, 1.0)
    worst = 0.0
    for level in (0, 1):
        psi0 = q.harmonic_eigenstate(grid, level, omega=1.0)
        rho0 = np.abs(psi0) ** 2
        traj = evolve(grid, psi0, EvolutionConfig(dt=2e-3, t_end=5.0, coeffs=ME_PRESET,
                                                  stride=1250, potential=pot, observables=False))
        worst = max(worst, np.abs(np.abs(traj.final) ** 2 - rho0).max())
    report(5, "oscillator ground/first-excited density drift over t=5", worst, 1e-6)


def test_criterion_06_galilean_covariance():
    grid = q.make_grid(1, 128, 2 * np.pi)
    psi0 = perturbed_plane_wave(grid, seed=3, cutoff=6, amplitude=0.35)
    v = q.wavenumber(grid, 3)

    def commutation_defect(coeffs, t_goal, norm_tol):
        dt = 0.5 * stability_bound(grid, coeffs)
        nst = max(2, int(round(t_goal / dt)))
        T = nst * dt

        def run(psi):
            cfg = EvolutionConfig(dt=dt, t_end=T, coeffs=coeffs, stride=10**6,
                                  observables=False, norm_tol=norm_tol)
            return evolve(grid, psi, cfg).final

        ab = run(galilean_boost(grid, psi0, v, 0.0))
        ba = galilean_boost(grid, run(psi0), v, T)
        return np.abs(ab - ba).max()

    dev = commutation_defect(ME_PRESET, 2e-3, 1e-4)
    report(6, "boost-then-evolve vs evolve-then-boost (commensurate boost)", dev, 1e-6)
    bad_b = [0.0] * 13
    bad_b[3] = 0.01
    dev_bad = commutation_defect(q.ext_coeffs(a=[0.0] * 13, b=bad_b), 5e-4, 1e-4)
    report(6, "negative control: bare-grad-S term breaks covariance by >= 10x", dev_bad,
           10 * 1e-6, larger_is_pass=True)


def test_criterion_07_weak_separability():
    grid = q.make_grid(1, 64, 18.0)
    psi1 = q.gaussian_packet(grid, t0=1.0)
    psi2 = q.harmonic_eigenstate(grid, 0, omega=1.0)
    pot2 = q.harmonic_potential(grid, 1.0)
    dev = separability_test(grid, psi1, psi2, None, pot2, ME_PRESET,
                            t_end=0.5, dt=2e-3, stride=50)
    report_check(7, "product-state 2D vs tensor deviation at t=0.5 (64^2)",
                 checks.separability_deviation(dev), 1e-6)

    grid_c = q.make_grid(1, 64, 2 * np.pi)
    f1 = perturbed_plane_wave(grid_c, seed=7, cutoff=5, amplitude=0.3)
    f2 = perturbed_plane_wave(grid_c, seed=8, cutoff=5, amplitude=0.3)
    probe = q.ext_coeffs(a=[0.0] * 13, b=[0.0] * 13, x14=0.5)
    dev_bad = separability_test(grid_c, f1, f2, None, None, probe, t_end=1e-3, dt=1e-4, stride=5)
    report(7, "separability-breaking probe control", dev_bad, 1e-3, larger_is_pass=True)


def test_criterion_08_stationary_flux_and_period():
    report_check(8, "stationary flux residual, harmonic mode on 5 random densities",
                 checks.check_stationary_flux(), 1e-12)
    report_check(8, "measured mode period vs 2 pi / sqrt(omega)", checks.check_period_law(), 1e-10)


def test_criterion_09_band_structure():
    report_check(9, "unmodulated band edges at n^2 (n <= 3)", checks.check_band_edges_unmodulated(), 1e-8)
    report_check(9, "monodromy determinant across 200-sample chart", checks.check_monodromy_det(), 1e-10)

    hill = q.mathieu_hill(1.0)
    coarse = q.floquet_analyze(hill, [-0.4551386], base_steps=512)[0].tr_m
    fine = q.floquet_analyze(hill, [-0.4551386], base_steps=2048)[0].tr_m
    report(9, "a0(q=1) discriminant stability under step halving", abs(coarse - fine), 1e-6)
    a0 = q.band_edge_bisection(hill, -1.0, 0.0, branch=2.0, tol=1e-9)
    report(9, "a0(q=1) from monodromy bisection vs frozen value", abs(a0 + 0.4551386), 1e-6)


def test_criterion_10_ehrenfest():
    me = ME_PRESET
    omega = q.mode_frequency(me, CON)
    grid = q.make_grid(1, 64, 5 * 2 * np.pi / np.sqrt(omega))
    psi0 = banded_localized_state(grid, me, amplitude=0.5, sigma=0.85)
    cfg = EvolutionConfig(dt=1e-4, t_end=42e-4, coeffs=me, stride=1,
                          ratio_floor=1e-5, norm_tol=1e-5)
    traj = evolve(grid, psi0, cfg)
    rep = ehrenfest_consistency(traj)
    tol = 1e-4 * max(1.0, float(np.abs(rep.p_mean).max()))
    assert np.abs(rep.i1).max() > 1e-3, "correction must be genuinely nonzero"
    rows = checks.ehrenfest_checks(rep)
    assert [r.name for r in rows] == ["ehrenfest_r1", "ehrenfest_r2", "ehrenfest_i1_needed"]
    r1, r2, i1_needed = rows
    report_check(10, "position relation residual with the correction included", r1, tol)
    report_check(10, "momentum relation residual with the correction included", r2, tol)
    report_check(10, "residual growth when the correction is zeroed", i1_needed, 10.0, larger_is_pass=True)


def test_criterion_11_gauge_form_equivalence():
    report_check(11, "vector-potential form vs canonical form (b6 = 0), 10 states", checks.check_gauge_form(), 1e-8)
    # documented-discrepancy path: the b6 channel carries a constant factor 2
    report_check(11, "b6-channel discrepancy matches the constant-factor prediction",
                 checks.check_gauge_form_b6_factor(), 1e-6)


def test_criterion_12_determinism(tmp_path):
    for dims, n in ((1, 64), (2, 32)):
        config = {
            "version": 1,
            "grid": {"dims": dims, "n": n, "length": 20.0},
            "state": {"kind": "random", "seed": 7, "params": {"cutoff": 6, "amplitude": 0.3}},
            "coeffs": {"preset": "me", "params": {"D1": 0.05, "b1": 0.02, "b6": 0.01}},
            "evolution": {"dt": 1e-4, "t_end": 0.005, "stride": 10, "snapshots": True},
            "report_norm_tol": 1e-6,
        }
        cfg_path = tmp_path / f"det{dims}d.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}_{dims}d"
            assert cli_main(["evolve", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        identical = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("observables.csv", "summary.json", "fields/snapshot_000001.fld")
        )
        report(12, f"byte-identical {dims}D CSV/summary/snapshots across reruns", 0.0 if identical else 1.0,
               0.0, passed=identical)

    bands_cfg = tmp_path / "bands.json"
    bands_cfg.write_text(json.dumps({"version": 1, "bands": {"mathieu_q": 0.7, "a_min": -1.0,
                                                             "a_max": 5.0, "samples": 30}}))
    b_outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        assert cli_main(["bands", "--config", str(bands_cfg), "--out", str(out), "--quiet"]) == 0
        b_outs.append(out)
    identical_b = (b_outs[0] / "band_chart.csv").read_bytes() == (b_outs[1] / "band_chart.csv").read_bytes()
    report(12, "byte-identical band chart across reruns", 0.0 if identical_b else 1.0,
           0.0, passed=identical_b)
