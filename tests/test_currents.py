"""Probability currents, the extended continuity equation, effective mass."""

import importlib

import numpy as np
import pytest

import nlse4 as q
from nlse4 import checks
from nlse4.currents import continuity_residual, currents
from nlse4.evolution import EvolutionConfig, evolve
from nlse4.functionals import eval_functional
from nlse4.hydro import hydro_decompose, weighted_grad_of_ratio

from helpers import derived, extra_current, perturbed_gaussian, perturbed_plane_wave

# the package binds the name ``currents`` to the function
currents_mod = importlib.import_module("nlse4.currents")


class TestCurrents:
    def test_plane_wave(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        k = q.wavenumber(grid, 3)
        psi = np.exp(1j * k * grid.axis_coords())
        hv = hydro_decompose(grid, psi)
        me = q.MEParams(D1=0.4, b1=0.0, b6=0.0)
        assert np.abs(currents(hv, None)[0] - k).max() <= 1e-9
        for i, di in enumerate(me.d_currents()):
            assert np.abs(extra_current(hv, i, di)[0]).max() <= 1e-8

    def test_phase_mode_extra_current(self):
        # S = eps sin(kx) on unit density: j1 = D1 * S''' = -D1 eps k^3 cos(kx)
        grid = q.make_grid(1, 128, 2 * np.pi)
        x = grid.axis_coords()
        eps, mode, d1 = 0.3, 2, 0.7
        k = q.wavenumber(grid, mode)
        psi = np.exp(1j * eps * np.sin(k * x))
        hv = hydro_decompose(grid, psi)
        expected = -d1 * eps * k**3 * np.cos(k * x)
        assert np.abs(extra_current(hv, 0, d1)[0] - expected).max() <= 1e-8 * k**3

    def test_real_gaussian_current_pattern(self):
        # real state: grad S = 0, so j_linear = j1 = j4 = j5 = 0 while the
        # density-driven currents j2, j3 survive
        grid = q.make_grid(1, 128, 18.0)
        x = grid.axis_coords()
        psi = np.exp(-(x**2) / 2.0).astype(complex)
        hv = hydro_decompose(grid, psi)
        j1, j2, j3, j4, j5 = (extra_current(hv, i, 0.3)[0] for i in range(5))
        assert np.abs(currents(hv, None)[0]).max() <= 1e-12
        assert np.abs(j1).max() <= 1e-10
        assert np.abs(j4).max() <= 1e-10
        assert np.abs(j5).max() <= 1e-10
        assert np.abs(j2).max() > 1e-2
        assert np.abs(j3).max() > 1e-2

    def test_zero_couplings_reduce_to_linear(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=4)
        hv = hydro_decompose(grid, psi)
        total = currents(hv, (0.0,) * 5)
        assert np.abs(total[0] - hv.g[0]).max() == 0.0

    def test_none_couplings_are_the_linear_equation(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        hv = hydro_decompose(grid, perturbed_plane_wave(grid, seed=4))
        none, zeros = currents(hv, None), currents(hv, (0.0,) * 5)
        assert all(np.array_equal(x, y) for x, y in zip(none, zeros))


class TestOneWeightedGradient:
    """The couplings weight the five numerators before one gradient."""

    COEFFS = q.ext_coeffs(a=[0.4, -0.3, 0.25, 0.15, -0.2] * 2 + [0.0] * 3, b=[0.0] * 13, D=0.5)

    @staticmethod
    def view():
        grid = q.make_grid(2, 32, 2 * np.pi)
        return hydro_decompose(grid, perturbed_plane_wave(grid, seed=7, cutoff=4, amplitude=0.3))

    def test_total_is_linear_plus_single_coupling_extras(self):
        hv = self.view()
        d = self.COEFFS.d_currents()
        assert all(di != 0.0 for di in d)
        summed = currents(hv, None)
        for i, di in enumerate(d):
            summed = [s + e for s, e in zip(summed, extra_current(hv, i, di))]
        total = currents(hv, self.COEFFS)
        scale = max(np.abs(t).max() for t in total)
        assert max(np.abs(t - s).max() for t, s in zip(total, summed)) <= 1e-12 * scale

    def test_divergence_takes_one_weighted_gradient(self, monkeypatch):
        hv = self.view()
        calls = []
        original = currents_mod.weighted_grad_of_ratio
        monkeypatch.setattr(currents_mod, "weighted_grad_of_ratio",
                            lambda hv, numerator: calls.append(numerator) or original(hv, numerator))
        currents_mod.current_divergence(hv, self.COEFFS)
        assert len(calls) == 1
        currents_mod.current_divergence(hv, None)
        assert len(calls) == 1


class TestFormEquivalence:
    def test_five_currents_match_functional_gradient(self):
        """Divergence-family currents equal rho grad F with the second-order
        functional built from the coefficient mapping (D1, D4, D2, D3, D5)."""
        grid = q.make_grid(1, 256, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=10, cutoff=6, amplitude=0.3)
        hv = hydro_decompose(grid, psi)
        D = (0.4, -0.3, 0.25, 0.15, -0.2)
        total_extra = currents(hv, D)[0] - currents(hv, None)[0]
        f = eval_functional((D[0], D[3], D[1], D[2], D[4]), "dg", hv)
        rho_grad_f = weighted_grad_of_ratio(hv, hv.rho * f)[0]
        assert np.abs(total_extra - rho_grad_f).max() <= 1e-10


class TestContinuityResidual:
    def test_linear_gaussian_second_order(self):
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0, t=0.3)
        resids = []
        for dt in (2e-4, 1e-4):
            cfg = EvolutionConfig(dt=dt, t_end=2 * dt, coeffs=None, stride=1, observables=False)
            traj = evolve(grid, psi0, cfg)
            field, _ = continuity_residual(derived(grid, traj.fields[0], None),
                                           derived(grid, traj.fields[1], None), dt)
            resids.append(field.max())
        assert resids[1] <= 1e-6
        assert resids[0] / resids[1] == pytest.approx(4.0, rel=0.3)  # O(dt^2)

    def test_nonlinear_perturbed_plane_wave(self):
        # resolution must keep composite content under the band filter, or
        # the per-step filter trim shows up in the finite-difference rate
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=3, cutoff=5, amplitude=0.3)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        dt = 2e-6
        cfg = EvolutionConfig(dt=dt, t_end=2 * dt, coeffs=me, stride=1, observables=False, norm_tol=1e-4)
        traj = evolve(grid, psi0, cfg)
        field, _ = continuity_residual(derived(grid, traj.fields[0], me), derived(grid, traj.fields[1], me), dt)
        assert field.max() <= 1e-6

    def test_sample_uses_configured_eps_rho(self):
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0, p0=q.wavenumber(grid, 3))
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        dt = 1e-4
        cfg = EvolutionConfig(dt=dt, t_end=dt, coeffs=me, stride=1, eps_rho=1e-6)
        traj = evolve(grid, psi0, cfg)
        before, after = traj.fields
        _, at_run_floor = continuity_residual(derived(grid, before, me, eps_rho=1e-6),
                                              derived(grid, after, me, eps_rho=1e-6), dt)
        _, at_default = continuity_residual(derived(grid, before, me), derived(grid, after, me), dt)
        assert traj.observables[1].cont_residual == at_run_floor
        assert at_run_floor != at_default

    @pytest.mark.parametrize("mixed", ["eps_rho", "coeffs", "constants"])
    def test_records_that_mix_settings_rejected(self, mixed):
        """Both records of a residual carry their own view: a pair whose
        node floors, coefficients or constants differ raises instead of
        mixing them."""
        grid = q.make_grid(1, 128, 24.0)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        before, after = perturbed_gaussian(grid, seed=11), perturbed_gaussian(grid, seed=12)
        other = {
            "eps_rho": dict(coeffs=me, eps_rho=1e-6),
            "coeffs": dict(coeffs=q.MEParams(D1=0.1, b1=0.05, b6=0.0)),
            "constants": dict(coeffs=me, constants=q.PhysicalConstants(hbar=1.0, mass=2.0)),
        }[mixed]
        first = derived(grid, before, me)
        with pytest.raises(ValueError, match="records differ"):
            continuity_residual(first, derived(grid, after, **other), 1e-3)
        assert np.isfinite(continuity_residual(first, derived(grid, after, me), 1e-3)[1])

    def test_stationary_state_terms_vanish_separately(self):
        grid = q.make_grid(1, 128, 18.0)
        psi = q.harmonic_eigenstate(grid, 0, omega=1.0)
        pot = q.harmonic_potential(grid, 1.0)
        dt = 1e-4
        cfg = EvolutionConfig(dt=dt, t_end=2 * dt, coeffs=None, stride=1,
                              observables=False, potential=pot)
        traj = evolve(grid, psi, cfg)
        rho0 = np.abs(traj.fields[0]) ** 2
        rho1 = np.abs(traj.fields[1]) ** 2
        assert np.abs((rho1 - rho0) / dt).max() <= 1e-10
        hv = hydro_decompose(grid, traj.fields[0])
        div = q.divergence(grid, currents(hv, (0.0,) * 5))
        assert np.abs(div).max() <= 1e-10


def test_dt_convergence_residual_spans_its_snapshot_interval(monkeypatch):
    """The check's residual floor divides by the time between the two
    snapshots it compares, not by the step size."""
    seen = []
    original = checks.continuity_residual
    monkeypatch.setattr(checks, "continuity_residual",
                        lambda before, after, dt: seen.append(dt) or original(before, after, dt))
    checks.check_dt_convergence()
    dt0 = 0.5 * q.stability_bound(q.make_grid(1, 64, 2 * np.pi), checks._ME_PRESET)
    assert seen == [pytest.approx(16 * dt0, rel=1e-12)]


def test_divergence_family_norm_conservation():
    """Second-order divergence family (a1 = a2, a4 = a5 = 0) conserves the
    norm over a thousand steps on a periodic grid."""
    grid = q.make_grid(1, 64, 2 * np.pi)
    psi0 = perturbed_plane_wave(grid, seed=5, cutoff=5, amplitude=0.3)
    cs = q.dg_coeffs(a=(1.0, 1.0, 0.0, 0.0, 0.0), b=(0.1, -0.05, 0.08, 0.02, 0.04), D=0.2)
    dt = 1e-4
    cfg = EvolutionConfig(dt=dt, t_end=1000 * dt, coeffs=cs, stride=1000,
                          observables=False, norm_tol=1e-5)
    traj = evolve(grid, psi0, cfg)
    drift = abs(grid.integrate(np.abs(traj.final) ** 2) - 1.0)
    assert drift <= 1e-8
