"""Energies, Ehrenfest residuals, separability harness."""

import importlib

import numpy as np
import pytest

import nlse4 as q
from nlse4.diagnostics import (
    ehrenfest_consistency,
    ehrenfest_corrections,
    energy,
    expectation_p,
    expectation_x,
    observables_sample,
    separability_test,
)
from nlse4.evolution import EvolutionConfig, evolve, nonlinear_multiplier, stability_bound

from helpers import banded_localized_state, perturbed_plane_wave

CON = q.NATURAL_UNITS


class TestEnergy:
    def test_plane_wave_kinetic(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        k = q.wavenumber(grid, 3)
        psi = np.exp(1j * k * grid.axis_coords())  # unit density
        e_l, e_me = energy(grid, psi, None, q.MEParams(D1=0.1), CON)
        assert e_l == pytest.approx(0.5 * k**2 * grid.length, rel=1e-10)
        assert e_me == e_l  # plane wave: LapLap S = 0

    def test_quadratic_phase_equality(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0, t=0.5)
        e_l, e_me = energy(grid, psi, None, q.MEParams(D1=0.1, b1=0.3, b6=0.1), CON)
        assert e_me == e_l

    def test_b_equal_cancellation(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=2)
        e_l, e_me = energy(grid, psi, None, q.MEParams(D1=0.1, b1=0.3, b6=0.3), CON)
        assert e_me == e_l

    def test_difference_linear_in_b1_minus_b6(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=4)
        gap = None
        for b1, b6 in ((0.05, 0.02), (0.13, 0.10), (0.23, 0.20)):
            e_l, e_me = energy(grid, psi, None, q.MEParams(D1=0.1, b1=b1, b6=b6), CON)
            if gap is None:
                gap = e_me - e_l
            assert e_me - e_l == pytest.approx(gap, abs=1e-12)

    def test_oscillator_ground_energy(self):
        grid = q.make_grid(1, 128, 18.0)
        psi = q.harmonic_eigenstate(grid, 0, omega=1.0)
        pot = q.harmonic_potential(grid, 1.0)
        e_l, _ = energy(grid, psi, pot, None, CON)
        assert e_l == pytest.approx(0.5, abs=1e-9)


class TestEhrenfestCorrections:
    def test_gaussian_packet_zero(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0, t=0.3)
        i1, i2 = ehrenfest_corrections(grid, psi, q.MEParams(D1=0.1, b1=0.05, b6=0.02), CON)
        assert abs(i1[0]) <= 1e-10 and abs(i2[0]) <= 1e-10

    def test_zero_couplings_exact_zero(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        i1, i2 = ehrenfest_corrections(grid, psi, q.MEParams(D1=0.0), CON)
        assert i1[0] == 0.0 and i2[0] == 0.0

    def test_i1_against_independent_quadrature(self):
        """Windowed harmonic phase mode: I1 from the spectral machinery vs a
        brute-force quadrature of -m D1 x d/dx[rho S'''] built from a
        fourth-order finite-difference stack on a 16x refined grid."""
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.0)
        omega = q.mode_frequency(me, CON)
        k0 = np.sqrt(omega)
        length = 5 * 2 * np.pi / k0
        grid = q.make_grid(1, 128, length)
        sigma, A = 0.85, 0.5
        psi = banded_localized_state(grid, me, amplitude=A, sigma=sigma)
        i1, _ = ehrenfest_corrections(grid, psi, me, CON)

        fine = 16 * grid.n
        x = -0.5 * length + (length / fine) * np.arange(fine)
        h = length / fine
        rho = np.exp(-((x / sigma) ** 2))
        rho /= rho.sum() * h
        s_profile = (A / k0) * np.sin(k0 * x)

        def d_dx(f):  # 4th-order central difference, periodic
            return (8 * (np.roll(f, -1) - np.roll(f, 1))
                    - (np.roll(f, -2) - np.roll(f, 2))) / (12.0 * h)

        s3 = d_dx(d_dx(d_dx(s_profile)))
        integrand = x * d_dx(rho * s3)
        i1_oracle = -1.0 * me.D1 * integrand.sum() * h
        assert abs(i1[0]) > 1e-3  # the correction is genuinely nonzero here
        assert i1[0] == pytest.approx(i1_oracle, abs=1e-6)

    def test_translation_invariance(self):
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.0)
        omega = q.mode_frequency(me, CON)
        grid = q.make_grid(1, 128, 5 * 2 * np.pi / np.sqrt(omega))
        psi = banded_localized_state(grid, me, amplitude=0.5, sigma=0.85)
        shifted = np.roll(psi, 12)
        i1a, _ = ehrenfest_corrections(grid, psi, me, CON)
        i1b, _ = ehrenfest_corrections(grid, shifted, me, CON, enforce_tails=False)
        assert abs(i1a[0] - i1b[0]) <= 1e-8

    def test_fat_tails_rejected(self):
        grid = q.make_grid(1, 64, 8.0)
        x = grid.axis_coords()
        psi = np.exp(-(x**2) / 8.0).astype(complex)
        psi /= np.sqrt(grid.integrate(np.abs(psi) ** 2))
        with pytest.raises(q.StateError):
            ehrenfest_corrections(grid, psi, q.MEParams(D1=0.1), CON)


class TestEhrenfestConsistency:
    def test_linear_free_gaussian(self):
        grid = q.make_grid(1, 128, 30.0)
        p0 = q.wavenumber(grid, 10)
        psi0 = q.gaussian_packet(grid, t0=1.2, p0=p0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.5, coeffs=q.MEParams(D1=0.0), stride=25)
        traj = evolve(grid, psi0, cfg)
        report = ehrenfest_consistency(traj)
        assert report.max_r1 <= 1e-6
        assert report.max_r2 <= 1e-6

    def test_me_band_state_needs_correction(self):
        # Short window and raised ratio floor: around localized states the
        # deep-tail shell rho/max in [1e-8, 1e-5] hosts a violent phase
        # instability (rate ~ (D1/2)|grad rho/rho| k^3), so the fourth-order
        # ratios are cut at 1e-5 here and the run kept to a few ms.
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        omega = q.mode_frequency(me, CON)
        grid = q.make_grid(1, 64, 5 * 2 * np.pi / np.sqrt(omega))
        psi0 = banded_localized_state(grid, me, amplitude=0.5, sigma=0.85)
        cfg = EvolutionConfig(dt=1e-4, t_end=42e-4, coeffs=me, stride=1,
                              ratio_floor=1e-5, norm_tol=1e-5)
        traj = evolve(grid, psi0, cfg)
        report = ehrenfest_consistency(traj)
        control = ehrenfest_consistency(traj, include_i1=False)
        scale = max(1.0, float(np.abs(report.p_mean).max()))
        assert np.abs(report.i1).max() > 1e-3
        assert report.max_r1 <= 1e-4 * scale
        assert control.max_r1 >= 10.0 * report.max_r1


class TestSeparability:
    def test_linear_free_gaussians_factorize(self):
        grid = q.make_grid(1, 64, 20.0)
        psi1 = q.gaussian_packet(grid, t0=1.0, x0=1.0)
        psi2 = q.gaussian_packet(grid, t0=1.4, x0=-0.5)
        dev = separability_test(grid, psi1, psi2, None, None, None,
                                t_end=0.3, dt=2e-3, stride=50)
        assert dev <= 1e-8

    def test_me_product_state(self):
        grid = q.make_grid(1, 64, 18.0)
        psi1 = q.gaussian_packet(grid, t0=1.0)
        psi2 = q.harmonic_eigenstate(grid, 0, omega=1.0)
        pot2 = q.harmonic_potential(grid, 1.0)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        dev = separability_test(grid, psi1, psi2, None, pot2, me,
                                t_end=0.5, dt=2e-3, stride=50)
        assert dev <= 1e-6

    def test_forbidden_term_breaks_separability(self):
        # the (Lap S)^2 probe couples the factors through the cross term
        # 2 Lap S_1 Lap S_2; a short window suffices to show the violation
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi1 = perturbed_plane_wave(grid, seed=7, cutoff=5, amplitude=0.3)
        psi2 = perturbed_plane_wave(grid, seed=8, cutoff=5, amplitude=0.3)
        cs = q.ext_coeffs(a=[0.0] * 13, b=[0.0] * 13, x14=0.5)
        dev = separability_test(grid, psi1, psi2, None, None, cs,
                                t_end=1e-3, dt=1e-4, stride=5)
        assert dev >= 1e-3

    def test_grid_size_cap(self):
        grid = q.make_grid(1, 256, 20.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        with pytest.raises(ValueError):
            separability_test(grid, psi, psi, None, None, None, t_end=0.1, dt=1e-3)


def test_expectation_values_centered_coordinates():
    grid = q.make_grid(1, 128, 24.0)
    psi = q.gaussian_packet(grid, t0=1.0, x0=1.5, p0=q.wavenumber(grid, 8))
    assert expectation_x(grid, psi)[0] == pytest.approx(1.5, abs=1e-9)
    assert expectation_p(grid, psi)[0] == pytest.approx(q.wavenumber(grid, 8), rel=1e-9)


class TestEngineParity:
    """MEParams and its ``ext`` expansion run through different engines
    (composites vs the generic functional pair) but describe one equation."""

    @pytest.mark.parametrize("b6", [0.0, 0.02])
    def test_me_and_expansion_agree(self, b6):
        me = q.MEParams(D1=0.1, b1=0.05, b6=b6)
        cs = me.expand()
        omega = q.mode_frequency(me, CON)
        grid = q.make_grid(1, 128, 5 * 2 * np.pi / np.sqrt(omega))
        psi = banded_localized_state(grid, me, amplitude=0.5, sigma=0.85)

        i1_me, i2_me = ehrenfest_corrections(grid, psi, me, CON)
        i1_cs, i2_cs = ehrenfest_corrections(grid, psi, cs, CON)
        assert abs(i1_me[0]) > 1e-2 and abs(i2_me[0]) > 1e-2
        assert i1_cs[0] == pytest.approx(i1_me[0], abs=1e-6)
        assert i2_cs[0] == pytest.approx(i2_me[0], abs=1e-6)

        assert energy(grid, psi, None, cs, CON) == energy(grid, psi, None, me, CON)
        hv = q.hydro_decompose(grid, psi, max_masked_fraction=1.0)
        j_me, j_cs = q.currents(hv, me), q.currents(hv, cs)
        assert j_cs.couplings == j_me.couplings
        for a, b in zip([j_me.j_linear] + j_me.extras(), [j_cs.j_linear] + j_cs.extras()):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSharedDecomposition:
    """One observables sample decomposes its snapshot once and hands the
    view to energy, Ehrenfest corrections and continuity residual."""

    COEFFS = [None, q.MEParams(D1=0.1, b1=0.05, b6=0.02),
              q.ext_coeffs(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
                           b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])]

    @staticmethod
    def state(eps_rho):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=5, cutoff=5, amplitude=0.3)
        return grid, psi, q.hydro_decompose(grid, psi, eps_rho=eps_rho, max_masked_fraction=1.0)

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["linear", "me", "ext"])
    def test_supplied_view_gives_identical_results(self, coeffs):
        grid, psi, hv = self.state(1e-6)
        pot = q.harmonic_potential(grid, 1.0)
        assert (energy(grid, psi, pot, coeffs, CON, eps_rho=1e-6, hv=hv)
                == energy(grid, psi, pot, coeffs, CON, eps_rho=1e-6))
        assert (ehrenfest_corrections(grid, psi, coeffs, CON, eps_rho=1e-6, enforce_tails=False, hv=hv)
                == ehrenfest_corrections(grid, psi, coeffs, CON, eps_rho=1e-6, enforce_tails=False))

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["linear", "me", "ext"])
    def test_sample_decomposes_at_most_once_per_snapshot(self, coeffs, monkeypatch):
        calls = []
        original = q.hydro_decompose
        # by full name: the package re-exports the function ``currents``
        for name in ("diagnostics", "currents", "evolution"):
            mod = importlib.import_module(f"nlse4.{name}")
            monkeypatch.setattr(mod, "hydro_decompose",
                                lambda *a, **k: calls.append(1) or original(*a, **k))
        grid, psi, _ = self.state(1e-12)
        observables_sample(grid, psi, 0.0, None, coeffs, CON)
        assert len(calls) == 1
        calls.clear()
        later = psi * np.exp(0.01j)
        sample = observables_sample(grid, later, 1e-3, None, coeffs, CON, prev=(0.0, psi))
        assert len(calls) <= 2
        assert np.isfinite(sample.cont_residual)


class _NotCoeffs:
    is_linear = True  # looks linear, but is no coefficient object


@pytest.mark.parametrize("call", [
    lambda grid, psi, c: energy(grid, psi, None, c, CON),
    lambda grid, psi, c: ehrenfest_corrections(grid, psi, c, CON),
    lambda grid, psi, c: q.currents(q.hydro_decompose(grid, psi, max_masked_fraction=1.0), c),
    lambda grid, psi, c: nonlinear_multiplier(grid, psi, c),
    lambda grid, psi, c: stability_bound(grid, c),
], ids=["energy", "ehrenfest_corrections", "currents", "nonlinear_multiplier", "stability_bound"])
@pytest.mark.parametrize("bogus", [object(), _NotCoeffs()], ids=["object", "duck"])
def test_unsupported_coefficient_object_rejected(call, bogus):
    grid = q.make_grid(1, 128, 24.0)
    psi = q.gaussian_packet(grid, t0=1.0)
    with pytest.raises(q.CoeffError, match=type(bogus).__name__):
        call(grid, psi, bogus)
