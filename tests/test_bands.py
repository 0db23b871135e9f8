"""Stationary phase modes, Hill reduction, Floquet band structure."""

import numpy as np
import pytest

import nlse4 as q
from nlse4.bands import (
    BandError,
    PhaseMode,
    _integrate_monodromy,
    band_edge_bisection,
    band_edges,
    bloch_density_profile,
    floquet_analyze,
    hill_from_stationary,
    mathieu_hill,
    measured_period,
    mode_frequency,
    stationary_flux_residual,
)
from nlse4.evolution import EvolutionConfig, evolve, stability_bound
from nlse4.spectral import spectral_derivative

from helpers import bloch_state

CON = q.NATURAL_UNITS

# Lowest Mathieu characteristic value at q = 1, frozen from the monodromy
# oracle after step-halving convergence (tests below re-derive it).
A0_Q1 = -0.4551386


class TestPhaseMode:
    def test_period(self):
        me = q.MEParams(D1=0.25)
        mode = PhaseMode.from_params(me, CON, amplitude=1.0)
        assert mode.omega == pytest.approx(4.0)
        assert mode.period == pytest.approx(np.pi)

    def test_frequency_scaling(self):
        # doubling D1 halves omega
        w1 = mode_frequency(q.MEParams(D1=0.2), CON)
        w2 = mode_frequency(q.MEParams(D1=0.4), CON)
        assert w2 == pytest.approx(0.5 * w1, rel=1e-14)

    def test_bracket_vanishes_identically(self):
        me = q.MEParams(D1=0.25)
        mode = PhaseMode.from_params(me, CON, amplitude=0.8, phase=0.3)
        grid = q.make_grid(1, 64, 3 * mode.period)
        gs = mode.grad_s(grid)
        bracket = spectral_derivative(grid, gs, order=2) + mode.omega * gs
        assert np.abs(bracket).max() <= 1e-12

    def test_d1_zero_rejected(self):
        with pytest.raises(BandError):
            mode_frequency(q.MEParams(D1=0.0), CON)


class TestStationaryFlux:
    def test_phase_mode_any_density(self):
        me = q.MEParams(D1=0.25)
        mode = PhaseMode.from_params(me, CON, amplitude=0.5)
        grid = q.make_grid(1, 32, 2 * mode.period)
        rng = np.random.default_rng(3)
        for _ in range(5):
            env = q.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=5, amplitude=0.5)
            rho = np.abs(env) ** 2
            rho /= grid.integrate(rho)
            assert stationary_flux_residual(grid, rho, mode, me, CON) <= 1e-12

    def test_constant_phase(self):
        me = q.MEParams(D1=0.25)
        grid = q.make_grid(1, 64, np.pi)
        rho = np.full(grid.shape, 1.0 / grid.length)
        assert stationary_flux_residual(grid, rho, np.zeros(grid.shape), me, CON) == 0.0

    def test_detuned_mode_analytic_value(self):
        # S' = A cos(kx) with k^2 != omega on rho = 1:
        # residual = max |(omega - k^2) A k sin(kx)| over the grid
        me = q.MEParams(D1=0.25)  # omega = 4
        grid = q.make_grid(1, 128, 2 * np.pi)
        A, mode_idx = 0.7, 3
        k = q.wavenumber(grid, mode_idx)
        x = grid.axis_coords()
        gs = A * np.cos(k * x)
        rho = np.ones(grid.shape)
        expected = np.abs((4.0 - k**2) * A * k * np.sin(k * x)).max()
        measured = stationary_flux_residual(grid, rho, gs, me, CON)
        assert measured == pytest.approx(expected, rel=1e-10)

    def test_requires_d1(self):
        grid = q.make_grid(1, 64, np.pi)
        with pytest.raises(BandError):
            stationary_flux_residual(grid, np.ones(grid.shape), np.zeros(grid.shape),
                                     q.MEParams(D1=0.0), CON)


class TestMeasuredPeriod:
    def test_phase_mode_period(self):
        me = q.MEParams(D1=0.1)  # omega = 10
        mode = PhaseMode.from_params(me, CON, amplitude=0.6)
        grid = q.make_grid(1, 256, 5 * mode.period)
        assert abs(measured_period(grid, mode.grad_s(grid)) - mode.period) <= 1e-10

    def test_d1_scaling_of_measured_period(self):
        for d1 in (0.1, 0.2):
            me = q.MEParams(D1=d1)
            mode = PhaseMode.from_params(me, CON, amplitude=0.4)
            grid = q.make_grid(1, 256, 4 * mode.period)
            assert abs(measured_period(grid, mode.grad_s(grid)) - 2 * np.pi / np.sqrt(1.0 / d1)) <= 1e-10


class TestHillMapping:
    def test_frozen_coefficients(self):
        me = q.MEParams(D1=1.0, b1=0.25, b6=0.0)  # omega = 1
        hill = hill_from_stationary(me, amplitude=0.8, energy=0.9, constants=CON)
        assert hill.q0 == pytest.approx((2 * 0.9 - 0.32) / 1.0)
        harm = dict((k, (c, s)) for k, c, s in hill.harmonics)
        assert harm[2][0] == pytest.approx(-0.32)
        assert harm[1][1] == pytest.approx(-2 * 0.25 * 0.8)
        assert hill.period == pytest.approx(2 * np.pi)
        assert not hill.pure_mathieu

    def test_pure_mathieu_when_b1_zero(self):
        me = q.MEParams(D1=1.0, b1=0.0, b6=0.0)
        hill = hill_from_stationary(me, amplitude=1.0, energy=0.75, constants=CON)
        assert hill.pure_mathieu
        assert hill.q0 == pytest.approx(1.0)
        assert hill.mathieu_q == pytest.approx(0.25)
        assert hill.period == pytest.approx(np.pi)

    def test_no_modulation_constant_q(self):
        me = q.MEParams(D1=1.0)
        hill = hill_from_stationary(me, amplitude=0.0, energy=0.75, constants=CON)
        assert hill.q0 == pytest.approx(1.5)  # 2mE/hbar^2 at omega = 1
        assert len(hill.harmonics) == 0

    def test_requires_b6_zero_and_positive_d1(self):
        with pytest.raises(BandError):
            hill_from_stationary(q.MEParams(D1=1.0, b6=0.1), 1.0, 0.0, CON)
        with pytest.raises(BandError):
            hill_from_stationary(q.MEParams(D1=-1.0), 1.0, 0.0, CON)

    def test_pointwise_cross_check_against_stationary_expression(self):
        """Evaluate y'' + Q y with the mapped Q against the dynamics-form
        stationary expression R'' + [2mE - (S')^2 - 2 m b1 LapLapS] R (in z
        units) on an arbitrary smooth periodic profile."""
        me = q.MEParams(D1=0.5, b1=0.3, b6=0.0)
        omega = mode_frequency(me, CON)
        A, E = 0.8, 0.9
        hill = hill_from_stationary(me, A, E, CON)
        k0 = np.sqrt(omega)
        grid = q.make_grid(1, 64, hill.period / k0)
        x = grid.axis_coords()
        z = k0 * x
        y = np.exp(0.3 * np.cos(z) + 0.1 * np.sin(2 * z))
        route1 = spectral_derivative(grid, y, order=2) / omega + hill.q_eval(z) * y
        sp = A * np.cos(k0 * x)
        lap_lap_s = spectral_derivative(grid, sp, order=3)
        route2 = (spectral_derivative(grid, y, order=2)
                  + (2 * E - sp**2 - 2 * me.b1 * lap_lap_s) * y) / omega
        assert np.abs(route1 - route2).max() <= 1e-10


class TestFloquet:
    def test_constant_coefficient(self):
        hill = q.HillEquation(period=np.pi, q0=0.0, harmonics=())
        res = floquet_analyze(hill, [0.25, 0.81, -1.0])
        assert res[0].stable and res[0].nu == pytest.approx(0.5, abs=1e-8)
        assert res[1].stable and res[1].nu == pytest.approx(0.9, abs=1e-7)
        assert not res[2].stable
        assert res[2].nu.imag == pytest.approx(1.0, abs=1e-8)

    def test_determinant_preserved(self):
        res = floquet_analyze(mathieu_hill(1.0), np.linspace(-1, 10, 50))
        assert max(abs(r.det_m - 1.0) for r in res) <= 1e-10

    def test_unmodulated_band_edges(self):
        edges = band_edges(mathieu_hill(0.0), -0.5, 9.5)["edges"]
        np.testing.assert_allclose(edges, [0, 1, 1, 4, 4, 9, 9], atol=1e-8)

    def test_a0_q1_dual_route(self):
        hill = mathieu_hill(1.0)
        eig = band_edges(hill, -1.0, 0.5)["edges"][0]
        mono = band_edge_bisection(hill, -1.0, 0.0, branch=2.0, tol=1e-9)
        assert eig == pytest.approx(A0_Q1, abs=1e-6)
        assert mono == pytest.approx(A0_Q1, abs=1e-6)
        assert mono == pytest.approx(eig, abs=1e-6)

    def test_step_halving_stability_of_a0(self):
        hill = mathieu_hill(1.0)
        coarse = floquet_analyze(hill, [A0_Q1], base_steps=512)[0].tr_m
        fine = floquet_analyze(hill, [A0_Q1], base_steps=2048)[0].tr_m
        assert abs(coarse - fine) <= 1e-6

    def test_edges_approach_squares_linearly_in_q(self):
        for qv, bound in ((0.1, 0.15), (0.05, 0.075)):
            edges = band_edges(mathieu_hill(qv), -0.5, 9.5)["edges"]
            assert np.abs(edges - np.array([0, 1, 1, 4, 4, 9, 9])).max() <= 1.5 * qv
        # the odd-family splitting is exactly linear: a1 - b1 ~ 2q
        gap_01 = np.diff(band_edges(mathieu_hill(0.1), 0.5, 1.5)["edges"])[0]
        gap_005 = np.diff(band_edges(mathieu_hill(0.05), 0.5, 1.5)["edges"])[0]
        assert gap_01 / gap_005 == pytest.approx(2.0, rel=0.15)

    def test_bisection_requires_sign_change(self):
        with pytest.raises(BandError):
            band_edge_bisection(mathieu_hill(0.0), 0.5, 0.8, branch=2.0)

    def test_bisection_rejects_reversed_bracket(self):
        with pytest.raises(BandError):
            band_edge_bisection(mathieu_hill(1.0), 0.0, -1.0, branch=2.0)
        with pytest.raises(BandError):
            band_edge_bisection(mathieu_hill(1.0), -0.5, -0.5, branch=2.0)

    def test_bisection_rejects_nonpositive_tol(self):
        for tol in (0.0, -1e-9):
            with pytest.raises(BandError):
                band_edge_bisection(mathieu_hill(1.0), -1.0, 0.0, branch=2.0, tol=tol)


def _stepwise_monodromy(hill, a_values, n_steps):
    """Oracle: classical per-step RK4 on the state [y, y'] for both
    canonical initial conditions; returns the monodromy matrices
    (2, 2, len(a_values)).  Step j starts at z = j h (an accumulated
    ``z += h`` drifts by O(n eps), which alone moves tr M by ~1e-12)."""
    h = hill.period / n_steps
    y = np.zeros((2, 2, a_values.size))
    y[0, 0, :] = 1.0
    y[1, 1, :] = 1.0

    def deriv(z, s):
        qz = a_values + hill.modulation(np.array(z))
        out = np.empty_like(s)
        out[0] = s[1]
        out[1] = -qz * s[0]
        return out

    for step in range(n_steps):
        z = step * h
        k1 = deriv(z, y)
        k2 = deriv(z + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(z + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(z + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestMonodromyProduct:
    """The ordered product of closed-form RK4 step propagators against the
    per-step RK4 oracle.  tr M is compared relative to max(1, |tr M|), the
    scale of the step-halving acceptance; det M = m00 m11 - m01 m10 cancels
    to ~1 from products of size |m00 m11| + |m01 m10|, which is its scale."""

    HILLS = {
        "mathieu": mathieu_hill(1.0),
        "stationary_sin": hill_from_stationary(q.MEParams(D1=1.0, b1=0.25, b6=0.0),
                                               amplitude=0.8, energy=0.9, constants=CON),
    }

    def test_stationary_hill_has_sin_harmonic(self):
        hill = self.HILLS["stationary_sin"]
        assert hill.period == pytest.approx(2 * np.pi)
        assert any(k == 1 and sk != 0.0 for k, _, sk in hill.harmonics)

    # a block holds 4096 // n_a steps: 4096 for one sample, 20 for 200
    @pytest.mark.parametrize("name", sorted(HILLS))
    @pytest.mark.parametrize("n_a,n_steps", [(1, 3), (1, 4096), (1, 6476),
                                             (200, 3), (200, 20), (200, 4096), (200, 6476)])
    def test_matches_stepwise_oracle(self, name, n_a, n_steps):
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 10.0, n_a) if n_a > 1 else np.array([A0_Q1])
        tr, det = _integrate_monodromy(hill, a_values, n_steps)
        m = _stepwise_monodromy(hill, a_values, n_steps)
        tr_ref = m[0, 0] + m[1, 1]
        det_ref = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        det_scale = np.abs(m[0, 0] * m[1, 1]) + np.abs(m[0, 1] * m[1, 0])
        assert np.all(np.abs(tr - tr_ref) <= 1e-12 * np.maximum(1.0, np.abs(tr_ref)))
        assert np.all(np.abs(det - det_ref) <= 1e-12 * det_scale)

    def test_bitwise_repeatable(self):
        hill = self.HILLS["stationary_sin"]
        a_values = np.linspace(-1.0, 10.0, 200)
        first = _integrate_monodromy(hill, a_values, 6476)
        second = _integrate_monodromy(hill, a_values, 6476)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)


class TestBlochStateCrossCheck:
    def test_ground_profile_nodeless(self):
        me = q.MEParams(D1=1.0, b1=1.0, b6=0.0)
        hill = hill_from_stationary(me, 0.3, 0.0, CON)
        a0, (modes, cvec) = bloch_density_profile(hill)
        z = np.linspace(0, hill.period, 512, endpoint=False)
        base = 2 * np.pi / hill.period
        y = (np.exp(1j * np.outer(z, modes * base)) @ cvec).real
        assert y.min() > 0.0
        assert y.max() == pytest.approx(1.0, rel=1e-12)

    def test_band_state_stationary_under_full_dynamics(self):
        """Hill ground solution carrying the harmonic phase mode holds its
        density under the full nonlinear evolution (the strongest joint test
        of the reduction, the eigenproblem and the integrator)."""
        me = q.MEParams(D1=1.0, b1=1.0, b6=0.0)
        grid, psi0, rho, energy = bloch_state(me, amplitude=0.3)
        assert stationary_flux_residual(
            grid, rho, 0.3 * np.cos(grid.axis_coords()), me, CON) <= 1e-12
        nst = int(np.ceil(0.2 / (0.5 * stability_bound(grid, me))))
        traj = evolve(grid, psi0, EvolutionConfig(dt=0.2 / nst, t_end=0.2, coeffs=me,
                                                  stride=nst, observables=False))
        assert np.abs(np.abs(traj.final) ** 2 - rho).max() <= 1e-4
        # the full state just rotates at the mapped stationary energy
        assert np.abs(traj.final - psi0 * np.exp(-1j * energy * 0.2)).max() <= 1e-6
