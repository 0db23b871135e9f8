"""Time stepping, boosts, and the vector-potential form."""

import numpy as np
import pytest

import nlse4 as q
from nlse4.diagnostics import GaugeFormError, gauge_form_residual
from nlse4.evolution import (
    DEFAULT_FILTER_FRACTION,
    EvolutionAbort,
    EvolutionConfig,
    StabilityError,
    _filter_mask,
    evolve,
    nonlinear_multiplier,
    nonlinear_rhs,
    stability_bound,
)
from nlse4.states import BoostError, galilean_boost

from helpers import multiplier, perturbed_gaussian, perturbed_plane_wave


class TestNonlinearRHS:
    def test_linear_eigenstate(self):
        grid = q.make_grid(1, 128, 18.0)
        psi = q.harmonic_eigenstate(grid, 0, omega=1.0)
        pot = q.harmonic_potential(grid, 1.0)
        rhs = nonlinear_rhs(grid, psi, pot, q.linear_coeffs())
        expected = -1j * q.harmonic_energy(0, 1.0) * psi
        assert np.abs(rhs - expected).max() <= 1e-8

    def test_me_plane_wave_inert(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = q.plane_wave(grid, 3)
        mult = multiplier(grid, psi, q.MEParams(D1=0.1, b1=0.05, b6=0.02))
        assert np.abs(mult).max() == 0.0

    def test_me_packet_inert(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0, t=0.4)
        mult = multiplier(grid, psi, q.MEParams(D1=0.1, b1=0.05, b6=0.02))
        assert np.abs(mult * psi).max() <= 1e-10


class TestEvolve:
    def test_moving_packet_oracle(self):
        grid = q.make_grid(1, 128, 30.0)
        p0 = q.wavenumber(grid, 12)
        psi0 = q.gaussian_packet(grid, t0=1.0, x0=-3.0, p0=p0)
        traj = evolve(grid, psi0, EvolutionConfig(dt=1e-3, t_end=1.0, coeffs=None,
                                                  stride=500, observables=False))
        exact = q.gaussian_packet(grid, t0=1.0, x0=-3.0, p0=p0, t=1.0)
        assert np.abs(traj.final - exact).max() <= 1e-6

    def test_me_annihilates_packet_trajectory(self):
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        shared = dict(dt=5e-4, t_end=0.2, stride=400, observables=False)
        traj_me = evolve(grid, psi0, EvolutionConfig(coeffs=me, **shared))
        traj_lin = evolve(grid, psi0, EvolutionConfig(coeffs=None, **shared))
        assert np.abs(traj_me.final - traj_lin.final).max() <= 1e-10

    def test_ifrk4_agrees_with_rk4_oracle(self):
        """Plain RK4 on the full right-hand side, band-filtered after every
        step as the run filters it, is the oracle for the IF-RK4 stepper."""
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=1)
        me = q.MEParams(D1=0.05, b1=0.02, b6=0.01)
        dt = 0.2 * stability_bound(grid, me)
        a = evolve(grid, psi0, EvolutionConfig(dt=dt, t_end=40 * dt, coeffs=me, stride=100,
                                               observables=False, norm_tol=1e-4))
        filt = _filter_mask(grid, DEFAULT_FILTER_FRACTION)

        def band_filter(p):
            return np.fft.ifftn(filt * np.fft.fftn(p))

        def rhs(p):
            return nonlinear_rhs(grid, p, None, me)

        psi = band_filter(psi0.astype(complex))
        for _ in range(40):
            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * dt * k1)
            k3 = rhs(psi + 0.5 * dt * k2)
            k4 = rhs(psi + dt * k3)
            psi = band_filter(psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        assert np.abs(a.final - psi).max() <= 1e-7

    @staticmethod
    def retransforming_if_rk4(grid, psi0, cfg):
        """IF-RK4 that takes every stage input's view from a new forward
        transform of that input: the oracle for the stepper, which reads the
        views of stages b, c and d off the spectra it synthesizes them from."""
        e_half = np.exp(-1j * grid.k_squared() / 2.0 * (cfg.dt / 2.0))
        e_full = e_half * e_half
        filt = _filter_mask(grid, cfg.filter_fraction)
        dt = cfg.dt

        def N(p):
            hv = q.hydro_decompose(grid, p, eps_rho=cfg.eps_rho, gate_factor=cfg.gate_factor,
                                   ratio_floor=cfg.ratio_floor)
            return nonlinear_multiplier(hv, cfg.coeffs) * p

        fft, ifft = np.fft.fftn, np.fft.ifftn
        psi = ifft(filt * fft(psi0))
        for _ in range(cfg.n_steps()):
            psi_hat = fft(psi)
            a_hat = fft(N(psi))
            b_hat = fft(N(ifft(e_half * (psi_hat + (0.5 * dt) * a_hat))))
            c_hat = fft(N(ifft(e_half * psi_hat + (0.5 * dt) * b_hat)))
            d_hat = fft(N(ifft(e_full * psi_hat + dt * e_half * c_hat)))
            psi = ifft(filt * (e_full * psi_hat + (dt / 6.0) * (
                e_full * a_hat + 2.0 * e_half * (b_hat + c_hat) + d_hat)))
        return psi

    @pytest.mark.parametrize("dims", [1, 2], ids=["1d_me", "2d_ext"])
    def test_stage_spectrum_reuse_agrees_with_retransforming_oracle(self, dims):
        if dims == 1:
            grid = q.make_grid(1, 128, 2 * np.pi)
            psi0 = perturbed_plane_wave(grid, seed=5, cutoff=5, amplitude=0.3)
            coeffs = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        else:
            grid = q.make_grid(2, 32, 2 * np.pi)
            psi0 = q.random_state(grid, seed=3, cutoff=4, amplitude=0.3)
            coeffs = q.ext_coeffs(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
                                  b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])
        dt = 0.2 * stability_bound(grid, coeffs)
        cfg = EvolutionConfig(dt=dt, t_end=10 * dt, coeffs=coeffs, stride=100,
                              observables=False, norm_tol=1e-4)
        oracle = self.retransforming_if_rk4(grid, psi0, cfg)
        final = evolve(grid, psi0, cfg).final
        assert np.abs(final - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_mask_guard_on_nonlinear_initial_state_only(self):
        """mask_limit guards the decompositions the stepper reads; a linear
        run decomposes only to sample, without the guard."""
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0)
        masked = q.hydro_decompose(grid, psi0).masked_fraction
        limit = 0.5 * masked
        assert 0.0 < limit < EvolutionConfig.mask_limit
        shared = dict(dt=1e-3, t_end=2e-3, stride=1, mask_limit=limit)
        with pytest.raises(q.MaskOverflowError) as err:
            evolve(grid, psi0, EvolutionConfig(coeffs=q.MEParams(D1=0.1, b1=0.05, b6=0.02), **shared))
        assert err.value.fraction > limit
        traj = evolve(grid, psi0, EvolutionConfig(coeffs=None, **shared))
        assert len(traj.observables) == 3

    def test_mid_run_mask_overflow_aborts_with_partial_trajectory(self):
        """A stage input that crosses mask_limit after the first step began
        aborts the run, with the steps before it kept: the packet starts
        38.3% masked and narrows past 50% near t = 0.45."""
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0, t=-1.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.5, coeffs=q.MEParams(D1=0.1, b1=0.05, b6=0.02),
                              stride=10, mask_limit=0.5)
        with pytest.raises(EvolutionAbort) as err:
            evolve(grid, psi0, cfg)
        overflow = err.value.__cause__
        assert isinstance(overflow, q.MaskOverflowError) and overflow.fraction > cfg.mask_limit
        assert 0.0 < err.value.trajectory.ts[-1] <= err.value.t_last

    def test_norm_guard_reference_is_the_filtered_state(self):
        """Content above the band filter is removed once, at t = 0; the norm
        guard measures drift from the filtered state, so a linear run does
        not abort on the filter's own loss."""
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi0 = q.random_state(grid, seed=1, cutoff=60)
        traj = evolve(grid, psi0, EvolutionConfig(dt=1e-3, t_end=0.1, coeffs=None, stride=10))
        norms = [s.norm for s in traj.observables]
        assert len(norms) == 11
        assert norms[0] < 1.0 - 1e-3  # the filter's loss shows in the t = 0 row
        assert max(norms) - min(norms) <= 1e-12

    def test_stability_bound_enforced(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=2)
        me = q.MEParams(D1=0.5, b1=0.0, b6=0.0)
        bound = stability_bound(grid, me)
        with pytest.raises(StabilityError):
            evolve(grid, psi0, EvolutionConfig(dt=5 * bound, t_end=50 * bound,
                                               coeffs=me, observables=False))

    def test_abort_reports_last_good_time(self):
        # drive an unstable run: large coupling near the stability edge
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=3, amplitude=0.45)
        me = q.MEParams(D1=0.8, b1=0.0, b6=0.0)
        dt = 0.98 * stability_bound(grid, me)
        cfg = EvolutionConfig(dt=dt, t_end=4000 * dt, coeffs=me, stride=50,
                              observables=False, norm_tol=1e-10)
        with pytest.raises(EvolutionAbort) as err:
            evolve(grid, psi0, cfg)
        assert err.value.t_last >= 0.0
        # the partial trajectory never runs past the reported last good time
        assert err.value.trajectory.ts[-1] <= err.value.t_last + 1e-12

    def test_non_finite_sample_aborts(self):
        """A sample with a non-finite entry aborts the run like norm drift
        does, with the partial trajectory and the last good time; here the
        norm stays finite and the drift guard is off."""
        grid = q.make_grid(1, 128, 24.0)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        dt = stability_bound(grid, me)
        cfg = EvolutionConfig(dt=dt, t_end=40 * dt, coeffs=me, stride=1, norm_tol=1e300)
        with np.errstate(all="ignore"), pytest.raises(EvolutionAbort) as err:
            evolve(grid, perturbed_gaussian(grid), cfg)
        assert err.value.reason == "non-finite samples"
        assert isinstance(err.value.__cause__, ValueError)
        traj = err.value.trajectory
        assert len(traj.observables) == len(traj.ts) > 1
        assert traj.ts[-1] == pytest.approx(err.value.t_last, rel=1e-12)

    def test_snapshot_times_strictly_increasing(self):
        grid = q.make_grid(1, 64, 20.0)
        psi0 = q.gaussian_packet(grid, t0=1.0)
        traj = evolve(grid, psi0, EvolutionConfig(dt=1e-3, t_end=0.01, coeffs=None, stride=3))
        assert all(b > a for a, b in zip(traj.ts, traj.ts[1:]))


#: Transform calls of one IF-RK4 step of the 1D three-parameter engine: four
#: stage views of 3 and four composites of 4, one forward per stage
#: right-hand side, the new state's inverse and its forward.  Each stacked
#: call counts once; per-field transforms made 49.
ME_1D_TRANSFORMS_PER_STEP = 34


def test_me_1d_transform_budget(monkeypatch):
    """Counts the numpy.fft calls per step of a short 1D ME run, so undoing
    the stacked transforms of a stage fails here."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    grid = q.make_grid(1, 256, 2 * np.pi)
    psi0 = perturbed_plane_wave(grid, seed=2)
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    dt = 0.05 * stability_bound(grid, me)

    def calls_for(steps):
        calls.clear()
        evolve(grid, psi0, EvolutionConfig(dt=dt, t_end=steps * dt, coeffs=me, stride=steps,
                                           observables=False))
        return len(calls)

    assert calls_for(6) - calls_for(2) == 4 * ME_1D_TRANSFORMS_PER_STEP


class TestGalileanBoost:
    def test_identity_at_zero_velocity(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=4)
        assert np.abs(galilean_boost(grid, psi, 0.0, t=0.7) - psi).max() <= 1e-13

    def test_plane_wave_momentum_shift(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        pw = q.plane_wave(grid, 2)
        v = q.wavenumber(grid, 3)
        assert np.abs(galilean_boost(grid, pw, v, t=0.0) - q.plane_wave(grid, 5)).max() <= 1e-13

    def test_boost_maps_free_solutions_to_free_solutions(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        k, v = q.wavenumber(grid, 2), q.wavenumber(grid, 3)
        t = 0.7
        solution_t = q.plane_wave(grid, 2) * np.exp(-0.5j * k**2 * t)
        k5 = q.wavenumber(grid, 5)
        expected = q.plane_wave(grid, 5) * np.exp(-0.5j * k5**2 * t)
        assert np.abs(galilean_boost(grid, solution_t, v, t=t) - expected).max() <= 1e-12

    def test_incommensurate_velocity_rejected(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        with pytest.raises(BoostError):
            galilean_boost(grid, q.plane_wave(grid, 1), 0.37, t=0.0)


class TestGaugeForm:
    def test_all_zero_is_exact(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=5)
        assert gauge_form_residual(grid, psi, q.MEParams(D1=0.0)) <= 1e-12

    def test_plane_wave_trivial(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = q.plane_wave(grid, 3)
        assert gauge_form_residual(grid, psi, q.MEParams(D1=0.2, b1=0.05, b6=0.0)) <= 1e-12

    def test_b6_zero_equivalence(self):
        grid = q.make_grid(1, 256, 2 * np.pi)
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = q.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=6, amplitude=0.3)
            assert gauge_form_residual(grid, psi, q.MEParams(D1=0.2, b1=0.05, b6=0.0)) <= 1e-8

    def test_zero_coupling_with_b_rejected(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = q.plane_wave(grid, 1)
        with pytest.raises(GaugeFormError):
            gauge_form_residual(grid, psi, q.MEParams(D1=0.0, b1=0.1))

    def test_requires_natural_units(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = q.plane_wave(grid, 1)
        with pytest.raises(GaugeFormError):
            gauge_form_residual(grid, psi, q.MEParams(D1=0.1), q.PhysicalConstants(hbar=2.0))


def test_me_oscillator_eigenstates_unmodified():
    grid = q.make_grid(1, 128, 18.0)
    pot = q.harmonic_potential(grid, 1.0)
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    for level in (0, 1):
        psi0 = q.harmonic_eigenstate(grid, level, omega=1.0)
        rho0 = np.abs(psi0) ** 2
        traj = evolve(grid, psi0, EvolutionConfig(dt=2e-3, t_end=1.0, coeffs=me,
                                                  stride=500, potential=pot, observables=False))
        assert np.abs(np.abs(traj.final) ** 2 - rho0).max() <= 1e-8
