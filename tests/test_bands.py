"""Stationary phase modes, Hill reduction, Floquet band structure."""

import math
import tracemalloc

import numpy as np
import pytest

import nlse4 as q
from nlse4 import bands
from nlse4.bands import (
    BandError,
    HillEquation,
    ODEToleranceError,
    PhaseMode,
    _integrate_monodromy,
    _itp_root,
    band_edge_bisection,
    band_edges,
    bloch_density_profile,
    floquet_analyze,
    hill_discriminant,
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

    @pytest.mark.parametrize("period, q0", [(np.pi, np.inf), (np.pi, np.nan), (np.nan, 0.0), (np.inf, 0.0)])
    def test_rejects_non_finite_period_and_q0(self, period, q0):
        with pytest.raises(BandError):
            HillEquation(period=period, q0=q0, harmonics=((2, -2.0, 0.0),))

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_rejects_non_finite_harmonic_wavenumber(self, k):
        with pytest.raises(BandError, match="harmonic wavenumbers"):
            HillEquation(period=np.pi, q0=0.0, harmonics=((k, -2.0, 0.0),))

    def test_rejects_non_finite_energy(self):
        with pytest.raises(BandError):
            hill_from_stationary(q.MEParams(D1=1.0), 1.0, np.nan, CON)

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
        # a Magnus step is exact for a constant Q: only rounding remains
        assert res[0].stable and res[0].nu == pytest.approx(0.5, abs=1e-12)
        assert res[1].stable and res[1].nu == pytest.approx(0.9, abs=1e-12)
        assert not res[2].stable
        assert res[2].nu.imag == pytest.approx(1.0, abs=1e-12)

    def test_a0_q1_dual_route(self):
        hill = mathieu_hill(1.0)
        eig = band_edges(hill, -1.0, 0.5)["edges"][0]
        mono = band_edge_bisection(hill, -1.0, 0.0, branch=2.0, tol=1e-9)
        assert eig == pytest.approx(A0_Q1, abs=1e-6)
        assert mono == pytest.approx(A0_Q1, abs=1e-6)
        assert mono == pytest.approx(eig, abs=1e-6)

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

    def test_bisection_rejects_non_finite_tol(self):
        for tol in (np.inf, np.nan):
            with pytest.raises(BandError):
                band_edge_bisection(mathieu_hill(1.0), -1.0, 0.0, branch=2.0, tol=tol)

    def test_bisection_rejects_tol_below_float_spacing(self):
        # no bracket of floats this close to -0.46 is that narrow, so the
        # search could never end
        with pytest.raises(BandError, match="float spacing"):
            band_edge_bisection(mathieu_hill(1.0), -1.0, 0.0, branch=2.0, tol=1e-20)

    def test_bisection_rejects_non_finite_bracket_end(self):
        for a_hi in (np.inf, np.nan):
            with pytest.raises(BandError):
                band_edge_bisection(mathieu_hill(1.0), -1.0, a_hi, branch=2.0)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_floquet_rejects_non_finite_samples(self, a):
        with pytest.raises(BandError, match="finite"):
            floquet_analyze(mathieu_hill(1.0), [0.0, a])

    @pytest.mark.parametrize("base_steps", [0, -4, 2.5])
    def test_floquet_rejects_non_positive_integer_base_steps(self, base_steps):
        with pytest.raises(BandError, match="base_steps"):
            floquet_analyze(mathieu_hill(1.0), [0.0], base_steps=base_steps)

    def test_strong_modulation_edge_fails_typed_on_monodromy_route(self):
        # At q = 20 tr M ~ +-2 at the lowest edge is a difference of
        # monodromy entries of order 1e4, so the step-halving tolerance
        # relative to max(1, |tr M|) cannot be met there: both monodromy
        # routes must raise the typed error (not return NaN or hang), while
        # the Fourier route still resolves the edge.
        hill = mathieu_hill(20.0)
        edge = band_edges(hill, -40.0, 10.0)["periodic"][0]
        assert edge == pytest.approx(-31.3134, abs=1e-4)
        with pytest.raises(ODEToleranceError):
            floquet_analyze(hill, [edge])
        with pytest.raises(ODEToleranceError):
            band_edge_bisection(hill, edge - 0.05, edge + 0.05, branch=2.0, tol=1e-9)


def _counting_floquet(monkeypatch):
    """Record the sample of every Floquet integration made through
    ``bands.floquet_analyze``."""
    calls = []
    original = bands.floquet_analyze

    def counted(hill, a_values, *args, **kwargs):
        calls.append(tuple(np.atleast_1d(a_values)))
        return original(hill, a_values, *args, **kwargs)

    monkeypatch.setattr(bands, "floquet_analyze", counted)
    return calls


def _loop_budget(width, tol):
    """ITP's worst case: one evaluation beyond bisection's (n0 = 1)."""
    return math.ceil(math.log2(width / tol)) + 1


class TestEdgeSearch:
    """The ITP search behind ``band_edge_bisection``: evaluation budgets on
    the Mathieu edges, the worst case on synthetic functions, accuracy and
    repeatability."""

    @pytest.mark.parametrize("qv", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("route, branch", [("periodic", 2.0), ("antiperiodic", -2.0)])
    def test_mathieu_edge_budget(self, qv, route, branch, monkeypatch):
        hill = mathieu_hill(qv)
        target = float(band_edges(hill, -1.0, 10.0)[route][0])
        calls = _counting_floquet(monkeypatch)
        edge = band_edge_bisection(hill, target - 0.05, target + 0.05, branch, tol=1e-9)
        assert len(calls) <= 9  # plain bisection takes 29
        assert abs(edge - target) <= 1e-9

    def test_q1_unit_bracket_budget(self, monkeypatch):
        calls = _counting_floquet(monkeypatch)
        edge = band_edge_bisection(mathieu_hill(1.0), -1.0, 0.0, branch=2.0, tol=1e-9)
        assert len(calls) <= 12  # plain bisection takes 32
        assert edge == pytest.approx(A0_Q1, abs=1e-6)

    def test_repeated_searches_make_identical_calls(self, monkeypatch):
        hill = mathieu_hill(1.0)
        calls = _counting_floquet(monkeypatch)
        first = band_edge_bisection(hill, -1.0, 0.0, branch=2.0, tol=1e-9)
        sequence = list(calls)
        calls.clear()
        assert band_edge_bisection(hill, -1.0, 0.0, branch=2.0, tol=1e-9) == first
        assert calls == sequence

    @pytest.mark.parametrize("root", [1.0 / 3.0, 0.5 + 1e-10, 0.999])
    def test_sign_jump_within_worst_case(self, root):
        xs = []

        def jump(x):
            xs.append(x)
            return -1.0 if x < root else 1.0

        tol = 1e-9
        x = _itp_root(jump, 0.0, 1.0, -1.0, 1.0, tol)
        assert len(xs) <= _loop_budget(1.0, tol)
        assert abs(x - root) <= 0.5 * tol

    @pytest.mark.parametrize("root", [1.0 / 3.0, 0.7071067811865476])
    def test_flat_root_within_worst_case(self, root):
        xs = []

        def flat(x):
            xs.append(x)
            return (x - root) ** 9

        tol = 1e-9
        x = _itp_root(flat, 0.0, 1.0, flat(0.0), flat(1.0), tol)
        assert len(xs) - 2 <= _loop_budget(1.0, tol)
        assert abs(x - root) <= 0.5 * tol

    @pytest.mark.parametrize("slope, offset", [(1.0, 1e-17), (3.0, -1e-17)])
    def test_root_between_adjacent_floats_stays_fast(self, slope, offset):
        # The sign change sits between two neighbouring floats, as it does
        # for a converged discriminant.  Once one end lands there, regula
        # falsi returns that end itself; without the tol/4 clamp every later
        # trial re-evaluates it and the search falls back to the worst case.
        root, tol = 1.0 / 3.0, 1e-9
        xs = []

        def f(x):
            xs.append(x)
            return slope * (x - root) + offset

        lo, hi = root - 0.05, root + 0.05
        f_lo, f_hi = f(lo), f(hi)
        xs.clear()
        x = _itp_root(f, lo, hi, f_lo, f_hi, tol)
        assert len(xs) <= 9 and len(set(xs)) == len(xs)
        assert abs(x - root) <= 0.5 * tol

    def test_linear_root_within_half_tol(self):
        root, tol = -0.4551386, 1e-9

        def line(a):
            return 3.0 * (a - root)

        x = _itp_root(line, -1.0, 0.0, line(-1.0), line(0.0), tol)
        assert abs(x - root) <= 0.5 * tol


def _stepwise_monodromy(hill, a_values, n_steps):
    """Cross-method oracle: classical per-step RK4 on the state [y, y'] for both
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


def _stepwise_magnus(hill, a_values, n_steps):
    """Oracle: the Magnus step by an independent route, one step at a time.
    Each Omega_j = [[alpha, h], [-h qbar, -alpha]] (Gauss points
    (j + 1/2 -+ sqrt(3)/6) h) is exponentiated by a Taylor series after
    scaling by 2**-k to norm <= 1/2, then squared k times; the step
    propagators are multiplied in sequence.  Returns the monodromy matrices
    (2, 2, len(a_values))."""
    h = hill.period / n_steps
    nodes = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
    y = np.zeros((2, 2, a_values.size))
    y[0, 0] = y[1, 1] = 1.0
    for start in range(0, n_steps, 512):
        steps = np.arange(start, min(n_steps, start + 512))
        mod = hill.modulation((steps[:, None] + nodes) * h)
        q1 = a_values + mod[:, :1]
        q2 = a_values + mod[:, 1:]
        qbar = 0.5 * (q1 + q2)
        alpha = math.sqrt(3.0) / 12.0 * h * h * (q2 - q1)
        omega = np.array([[alpha, np.full_like(alpha, h)], [-h * qbar, -alpha]])
        norm = np.abs(omega).sum(axis=1).max()
        k = max(0, math.ceil(math.log2(norm / 0.5)))
        x = omega / 2.0**k
        term = np.broadcast_to(np.eye(2)[:, :, None, None], omega.shape).copy()
        expm = term.copy()
        for order in range(1, 20):
            term = np.einsum("ij...,jk...->ik...", term, x) / order
            expm = expm + term
        for _ in range(k):
            expm = np.einsum("ij...,jk...->ik...", expm, expm)
        for j in range(steps.size):
            y = np.einsum("ij...,jk...->ik...", expm[:, :, j], y)
    return y


def _tr_det(m):
    return m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _blockwise_monodromy(hill, a_values, n_steps):
    """Frozen oracle: the Magnus kernel reduced one block at a time.
    Blocks of max(1, _BLOCK_ELEMENTS // size) steps, each step propagator
    c I + sc Omega, each block reduced by a pairwise tree (later step on the
    left, an odd tail carried up) and folded into the running product in
    step order; returns the monodromy matrices (2, 2, len(a_values)).
    c = cosh s and sc = sinh s / s are the Horner sums of their series in
    s^2, terms k <= 4, where |s^2| <= 1e-2 and the closed forms beyond."""

    def matmul22(b, a):
        return np.array([
            [b[0, 0] * a[0, 0] + b[0, 1] * a[1, 0], b[0, 0] * a[0, 1] + b[0, 1] * a[1, 1]],
            [b[1, 0] * a[0, 0] + b[1, 1] * a[1, 0], b[1, 0] * a[0, 1] + b[1, 1] * a[1, 1]],
        ])

    def horner(x, coeffs):
        out = x * coeffs[-1]
        for coeff in coeffs[-2:0:-1]:
            out = (out + coeff) * x
        return out + coeffs[0]

    tau = 1e-2
    cosh_series = [1.0 / math.factorial(2 * k) for k in range(5)]
    sinhc_series = [1.0 / math.factorial(2 * k + 1) for k in range(5)]

    h = hill.period / n_steps
    hh = h * h
    nodes = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
    block = max(1, bands._BLOCK_ELEMENTS // a_values.size)
    mono = np.zeros((2, 2, a_values.size))
    mono[0, 0] = mono[1, 1] = 1.0
    for start in range(0, n_steps, block):
        count = min(block, n_steps - start)
        mod = hill.modulation(((start + np.arange(count))[:, None] + nodes) * h)
        q1 = mod[:, :1] + a_values
        q2 = mod[:, 1:] + a_values
        qbar = (q1 + q2) * 0.5
        alpha = (q2 - q1) * (math.sqrt(3.0) / 12.0 * hh)
        s2 = alpha * alpha - qbar * hh
        s = np.sqrt(np.abs(s2))
        with np.errstate(invalid="ignore"):
            c = np.where(s2 < -tau, np.cos(s), np.where(s2 > tau, np.cosh(s), horner(s2, cosh_series)))
            sc = np.where(s2 < -tau, np.sin(s) / s, np.where(s2 > tau, np.sinh(s) / s, horner(s2, sinhc_series)))
        p = np.array([[c + alpha * sc, sc * h], [(qbar * -h) * sc, c - alpha * sc]])
        while p.shape[2] > 1:
            odd = p[:, :, -1:] if p.shape[2] % 2 else None
            p = matmul22(p[:, :, 1::2], p[:, :, 0:-1:2])
            if odd is not None:
                p = np.concatenate([p, odd], axis=2)
        mono = matmul22(p[:, :, 0], mono)
    return mono


class TestMonodromyProduct:
    """The ordered product of Magnus step propagators against a per-step
    Magnus oracle built by Taylor exponentials and, at fine steps, against
    per-step RK4.  tr M is compared relative to max(1, |tr M|), the scale of
    the step-halving acceptance; det M = m00 m11 - m01 m10 cancels to ~1
    from products of size |m00 m11| + |m01 m10|, which is its scale.
    Against the frozen block-by-block loop both must match bit for bit."""

    HILLS = {
        "mathieu": mathieu_hill(1.0),
        "stationary_sin": hill_from_stationary(q.MEParams(D1=1.0, b1=0.25, b6=0.0),
                                               amplitude=0.8, energy=0.9, constants=CON),
    }

    def test_stationary_hill_has_sin_harmonic(self):
        hill = self.HILLS["stationary_sin"]
        assert hill.period == pytest.approx(2 * np.pi)
        assert any(k == 1 and sk != 0.0 for k, _, sk in hill.harmonics)

    # a block holds max(1, _BLOCK_ELEMENTS // n_a) steps: 4096 for one
    # sample, 20 for 200; 6476 steps end in a partial block
    @pytest.mark.parametrize("name", sorted(HILLS))
    @pytest.mark.parametrize("n_a,n_steps", [(1, 3), (1, 4096), (1, 6476),
                                             (200, 3), (200, 20), (200, 4096), (200, 6476)])
    def test_matches_stepwise_oracle(self, name, n_a, n_steps):
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 10.0, n_a) if n_a > 1 else np.array([A0_Q1])
        tr, det, _ = _integrate_monodromy(hill, a_values, n_steps)
        m = _stepwise_magnus(hill, a_values, n_steps)
        tr_ref, det_ref = _tr_det(m)
        det_scale = np.abs(m[0, 0] * m[1, 1]) + np.abs(m[0, 1] * m[1, 0])
        assert np.all(np.abs(tr - tr_ref) <= 1e-12 * np.maximum(1.0, np.abs(tr_ref)))
        assert np.all(np.abs(det - det_ref) <= 1e-12 * det_scale)

    # RK4 and Magnus share no step formula; at 16384 steps both truncation
    # errors are below 1e-13, so they must agree on the monodromy itself
    @pytest.mark.parametrize("name", sorted(HILLS))
    def test_agrees_with_rk4_at_fine_steps(self, name):
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 10.0, 41)
        tr = _integrate_monodromy(hill, a_values, 16384)[0]
        tr_rk4, _ = _tr_det(_stepwise_monodromy(hill, a_values, 16384))
        assert np.all(np.abs(tr - tr_rk4) <= 1e-11 * np.maximum(1.0, np.abs(tr_rk4)))

    @pytest.mark.parametrize("name", sorted(HILLS))
    def test_fourth_order_under_step_halving(self, name):
        # a fourth-order method divides its error by 2**4 = 16 per halving
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 10.0, 200)
        tr_ref = _integrate_monodromy(hill, a_values, 16384)[0]
        errors = [np.max(np.abs(_integrate_monodromy(hill, a_values, n)[0] - tr_ref)
                         / np.maximum(1.0, np.abs(tr_ref))) for n in (256, 512, 1024)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    @pytest.mark.parametrize("name", sorted(HILLS))
    def test_det_at_rounding_level(self, name):
        """Every step has det 1 in exact arithmetic, so |det M - 1| is
        rounding alone.  First-order bound with eps the float spacing at 1:
        each of the n step propagators misses det 1 by at most 8 eps (c and
        sc within 2 ulp, three roundings per entry; the series read
        <= 0.62 ulp, the closed forms that the stationary Hill uses for a
        third of its steps here about 1 ulp), each of the n - 1
        products adds at most 2 eps S, and the final m00 m11 - m01 m10 adds
        eps S, where S = max(1, |m00 m11| + |m01 m10|) is the entry scale of
        M and stands in for that of the partial products.  So
        |det M - 1| <= 10 n eps S.  RK4 at the same steps misses it by
        10^6 and more over this range."""
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 400.0, 200)
        n_steps = 1024
        m = _blockwise_monodromy(hill, a_values, n_steps)
        scale = np.maximum(1.0, np.abs(m[0, 0] * m[1, 1]) + np.abs(m[0, 1] * m[1, 0]))
        _, det, entry_scale = _integrate_monodromy(hill, a_values, n_steps)
        assert np.array_equal(det, _tr_det(m)[1])
        assert np.array_equal(entry_scale, scale)
        assert np.all(np.abs(det - 1.0) <= 10 * n_steps * np.finfo(float).eps * scale)

    def test_series_matches_closed_forms(self):
        """Where |s^2| <= tau the step evaluates c and sc by their series in
        s^2.  With h = 1 and q1 = q2 = -x a step has s^2 = x exactly and
        alpha = 0, so p00 = p11 = c and p01 = sc; both must agree with the
        closed forms to 2 eps relative, over both signs, at s^2 = 0 and at
        exactly +-tau."""
        tau = bands._SERIES_BOUND
        x = np.concatenate([np.linspace(-tau, tau, 4001), [0.0, -tau, tau]])
        p = bands._magnus_steps(-x, -x, 1.0)
        c, sc = p[1, 1], p[0, 1]
        assert np.array_equal(p[0, 0], c)
        s = np.sqrt(np.abs(x))
        zero = x == 0.0
        with np.errstate(invalid="ignore"):
            c_ref = np.where(x < 0.0, np.cos(s), np.cosh(s))
            sc_ref = np.where(zero, 1.0, np.where(x < 0.0, np.sin(s), np.sinh(s)) / s)
        eps = np.finfo(float).eps
        assert np.all(c[zero] == 1.0) and np.all(sc[zero] == 1.0)
        assert np.all(np.abs(c - c_ref) <= 2 * eps * np.abs(c_ref))
        assert np.all(np.abs(sc - sc_ref) <= 2 * eps * np.abs(sc_ref))

    # 200 samples over [-1, 400]: at 3 and 20 steps most steps have
    # |s^2| > tau and take the closed forms; the Mathieu steps at 20 steps
    # and the stationary steps at 1024 steps hold both kinds of step
    @pytest.mark.parametrize("name,n_steps,mixed", [("mathieu", 3, False), ("mathieu", 20, True),
                                                    ("stationary_sin", 3, False),
                                                    ("stationary_sin", 20, False),
                                                    ("stationary_sin", 1024, True)])
    def test_closed_form_steps_bit_identical_to_oracle(self, name, n_steps, mixed):
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 400.0, 200)
        h = hill.period / n_steps
        mod = hill.modulation((np.arange(n_steps)[:, None] + bands._GAUSS_NODES) * h)
        q1, q2 = mod[:, :1] + a_values, mod[:, 1:] + a_values
        s2 = (math.sqrt(3.0) / 12.0 * h * h * (q2 - q1)) ** 2 - h * h * 0.5 * (q1 + q2)
        assert np.any(np.abs(s2) > bands._SERIES_BOUND)
        assert np.any(np.abs(s2) <= bands._SERIES_BOUND) == mixed
        tr, det, _ = _integrate_monodromy(hill, a_values, n_steps)
        tr_ref, det_ref = _tr_det(_blockwise_monodromy(hill, a_values, n_steps))
        assert np.array_equal(tr, tr_ref)
        assert np.array_equal(det, det_ref)

    # 4097 samples exceed _BLOCK_ELEMENTS, so their blocks hold one step;
    # 9 samples (the checked subset of a chart) make blocks of 455 steps;
    # at fewer samples 21, 81, 4097 and 6476 steps end in a partial block
    @pytest.mark.parametrize("name", sorted(HILLS))
    @pytest.mark.parametrize("n_a", [1, 2, 7, 9, 200, 4097])
    @pytest.mark.parametrize("n_steps", [1, 3, 20, 21, 81, 1448, 4096, 4097, 6476])
    def test_bit_identical_to_blockwise_oracle(self, name, n_a, n_steps):
        hill = self.HILLS[name]
        a_values = np.linspace(-1.0, 10.0, n_a) if n_a > 1 else np.array([A0_Q1])
        tr, det, _ = _integrate_monodromy(hill, a_values, n_steps)
        tr_ref, det_ref = _tr_det(_blockwise_monodromy(hill, a_values, n_steps))
        assert np.array_equal(tr, tr_ref)
        assert np.array_equal(det, det_ref)

    @pytest.mark.parametrize("n_a,n_steps,scales", [(200, 6476, (1, 4)), (1, 2896, (1, 4, 16))])
    def test_temporaries_bounded_independently_of_steps(self, n_a, n_steps, scales):
        hill = self.HILLS["mathieu"]
        a_values = np.linspace(-1.0, 10.0, n_a) if n_a > 1 else np.array([A0_Q1])
        peaks = []
        for scale in scales:
            tracemalloc.start()  # numpy reports its data buffers here
            try:
                _integrate_monodromy(hill, a_values, scale * n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 3 * 2**20
        # 4x the steps allocate nothing more; one sample's 2896 steps fill
        # less than a 4096-step block, so it is checked from 4n to 16n.
        # numpy keeps freed shape/stride blocks in a cache (up to 7 per
        # dimension count) that fills over the first blocks of a call, about
        # 100 B, so the peak may rise by one block row of 8 _BLOCK_ELEMENTS
        # bytes; a buffer of one float per step would add 8 bytes for each
        # added step, at least 155 kB in both cases
        assert peaks[-1] <= peaks[-2] + 8 * bands._BLOCK_ELEMENTS

    def test_bitwise_repeatable(self):
        hill = self.HILLS["stationary_sin"]
        a_values = np.linspace(-1.0, 10.0, 200)
        first = _integrate_monodromy(hill, a_values, 6476)
        second = _integrate_monodromy(hill, a_values, 6476)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)


def _stationary(D1, b1, amplitude, energy):
    return hill_from_stationary(q.MEParams(D1=D1, b1=b1), amplitude, energy, constants=CON)


class TestHillDiscriminant:
    """tr M from the periodic eigenvalues of the Hill operator against the
    Magnus monodromy, which shares no code with it, and against the
    antiperiodic eigenvalues, which come from a different matrix."""

    # (hill, a_min, a_max, tolerance relative to max(1, |tr M|))
    CHARTS = {
        "mathieu_q1": (mathieu_hill(1.0), -1.0, 10.0, 1e-10),
        "mathieu_q1_deep": (mathieu_hill(1.0), -10.0, 10.0, 1e-10),
        "mathieu_q1_wide": (mathieu_hill(1.0), -1.0, 400.0, 1e-10),
        "mathieu_q20": (mathieu_hill(20.0), -40.0, 10.0, 1e-9),
        "stationary_weak": (_stationary(1.0, 0.2, 0.6, 0.5), -1.0, 4.0, 1e-9),
        "stationary_mid": (_stationary(0.5, 0.1, 1.5, 1.0), -5.0, 20.0, 1e-9),
        "stationary_strong": (_stationary(1.0, 0.5, 2.0, 0.3), -10.0, 30.0, 1e-9),
    }

    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_matches_the_magnus_chart(self, name):
        hill, a_min, a_max, tol = self.CHARTS[name]
        a_values = np.linspace(a_min, a_max, 200)
        tr = np.array([r.tr_m for r in floquet_analyze(hill, a_values)])
        deviation = np.abs(hill_discriminant(hill, a_values) - tr) / np.maximum(1.0, np.abs(tr))
        assert deviation.max() <= tol

    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_antiperiodic_edges_are_roots_of_delta_plus_two(self, name):
        """|Delta + 2| at each Fourier antiperiodic edge is at most 1e-9, or
        at most the change of Delta over 1e-9 in a there: at q = 20 the
        lowest gap is 4e-6 wide and Delta changes by 1e6 per unit a, so the
        edge's own rounding alone moves Delta by more than 1e-9."""
        hill, a_min, a_max, _ = self.CHARTS[name]
        edges = band_edges(hill, a_min, a_max)["antiperiodic"]
        assert edges.size >= 3
        delta = hill_discriminant(hill, np.concatenate([edges, edges - 1e-9, edges + 1e-9]))
        at, below, above = np.split(delta, 3)
        assert np.all(np.abs(at + 2.0) <= np.maximum(1e-9, 0.5 * np.abs(above - below)))

    def test_constant_coefficient_is_a_cosine(self):
        hill = HillEquation(period=np.pi, q0=0.0, harmonics=())
        a_values = np.array([-1.0, 0.0, 0.25, 0.81, 4.0, 30.0])
        root = np.sqrt(np.abs(a_values)) * np.pi
        exact = np.where(a_values < 0.0, 2.0 * np.cosh(root), 2.0 * np.cos(root))
        assert np.abs(hill_discriminant(hill, a_values) - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("name", ["mathieu_q1_wide", "stationary_strong"])
    def test_closed_form_tail_matches_a_summed_tail(self, name):
        """The Euler-Maclaurin tail between N and 2e5 against the free-pair
        logs summed term by term there (correctly rounded), on the shift
        series the tail uses."""
        hill, a_min, a_max, _ = self.CHARTS[name]
        a_values = np.linspace(a_min, a_max, 5)
        base = 2.0 * np.pi / hill.period
        fourier = bands._fourier_coefficients(hill)
        pairs, _, terms = bands._discriminant_plan(fourier, base, max(abs(a_min), abs(a_max)))
        last = 200_000
        closed = (bands._log_tail(fourier, base, pairs, terms, a_values)
                  - bands._log_tail(fourier, base, last, terms, a_values))
        n = np.arange(pairs + 1, last + 1, dtype=float)[:, None]
        shift = bands._pair_shift_series(fourier, base, 2 * terms)[::2]
        delta = sum(e * n ** (-2.0 * i) for i, e in enumerate(shift[:terms]) if i)
        logs = 2.0 * np.log1p((delta - a_values) / (base * n) ** 2)
        summed = np.array([math.fsum(column) for column in logs.T])
        assert np.abs(closed - summed).max() <= 1e-14

    def test_pair_shift_is_the_mathieu_expansion(self):
        """For y'' + (a - 2q cos 2z) y = 0 the periodic characteristic values
        of even order r = 2n behave as r^2 + q^2 / (2 (r^2 - 1))
        + (5 r^2 + 7) q^4 / (32 (r^2 - 1)^3 (r^2 - 4)) + O(q^6)
        (Abramowitz & Stegun, ch. 20); at q = 0.1 and r = 40 the omitted
        q^6 term is about 1e-23."""
        qv, n = 0.1, 20
        base = 2.0
        shift = bands._pair_shift_series(bands._fourier_coefficients(mathieu_hill(qv)), base, 24)
        series = sum(e * n ** -float(i) for i, e in enumerate(shift))
        r2 = (2.0 * n) ** 2
        expected = qv**2 / (2 * (r2 - 1)) + (5 * r2 + 7) * qv**4 / (32 * (r2 - 1) ** 3 * (r2 - 4))
        assert series == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, a):
        with pytest.raises(BandError, match="finite"):
            hill_discriminant(mathieu_hill(1.0), [0.0, a])

    def test_rejects_samples_beyond_its_basis(self):
        # |a| / w_N^2 <= 1/16 at w0 = 2 allows up to |a| = (512 * 2 / 4)^2
        hill = mathieu_hill(1.0)
        assert np.isfinite(hill_discriminant(hill, [-1.0, 65536.0])).all()
        with pytest.raises(BandError, match="eigenvalue pairs"):
            hill_discriminant(hill, [-1.0, 65537.0])


class TestFourierEdges:
    """``band_edges`` sizes its bases by the chart's plan
    (``_discriminant_plan``) and validates its range."""

    def test_edges_far_above_the_lowest_bands(self):
        # the range reaches past (48 w0)^2 = 9216 (w0 = 2), where a basis
        # of 48 modes ends: the basis must grow with the range
        edges = band_edges(mathieu_hill(1.0), 9000.0, 10200.0)["edges"]
        assert edges.size == 12
        assert np.abs(edges - np.repeat(np.arange(95, 101) ** 2, 2)).max() <= 1e-3

    def test_rejects_a_range_beyond_its_basis(self):
        with pytest.raises(BandError, match="eigenvalue pairs"):
            band_edges(mathieu_hill(1.0), -1.0, 70000.0)

    @pytest.mark.parametrize("a_min, a_max", [(np.nan, 10.0), (-1.0, np.nan), (-np.inf, np.inf),
                                              (-1.0, np.inf), (10.0, -1.0), (1.0, 1.0)])
    def test_rejects_non_finite_or_reversed_range(self, a_min, a_max):
        with pytest.raises(BandError, match="finite with a_min < a_max"):
            band_edges(mathieu_hill(1.0), a_min, a_max)


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
