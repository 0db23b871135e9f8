"""Reference state synthesis: oracles and validation."""

import numpy as np
import pytest

import nlse4 as q
from nlse4.spectral import laplacian
from nlse4.states import StateError, check_tails

from helpers import derived


class TestPlaneWave:
    def test_unit_density_and_momentum(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = q.plane_wave(grid, 3)
        assert np.abs(np.abs(psi) ** 2 - 1.0).max() <= 1e-14
        k = q.wavenumber(grid, 3)
        sample = q.observables_sample(derived(grid, psi, None), 0.0, None)
        p = sample.p_mean[0] / sample.norm
        assert p == pytest.approx(k, rel=1e-12)

    def test_incommensurate_rejected(self):
        grid = q.make_grid(1, 64, 5.0)
        with pytest.raises(StateError):
            q.plane_wave(grid, 2.5)


class TestGaussianPacket:
    def test_t0_slice_is_real_up_to_global_phase(self):
        grid = q.make_grid(1, 128, 20.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        # spatially constant phase: S varies only through the global constant
        phase = np.angle(psi[np.abs(psi) > 1e-6 * np.abs(psi).max()])
        assert np.ptp(phase) <= 1e-10

    def test_normalized(self):
        grid = q.make_grid(1, 128, 20.0)
        for t in (0.0, 0.8):
            psi = q.gaussian_packet(grid, t0=1.0, t=t)
            assert grid.integrate(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-13)

    def test_family_solves_free_equation(self):
        """Centered time difference of the synthesized family against the
        spectral Hamiltonian action; pins the dispersive phase convention."""
        grid = q.make_grid(1, 128, 24.0)
        t0, t, delta = 1.0, 0.4, 1e-5
        psi = q.gaussian_packet(grid, t0=t0, t=t, p0=q.wavenumber(grid, 2))
        plus = q.gaussian_packet(grid, t0=t0, t=t + delta, p0=q.wavenumber(grid, 2))
        minus = q.gaussian_packet(grid, t0=t0, t=t - delta, p0=q.wavenumber(grid, 2))
        dpsi_dt = (plus - minus) / (2.0 * delta)
        rhs = 0.5j * laplacian(grid, psi)  # -(i/hbar)(-hbar^2/2m) Lap psi, natural units
        assert np.abs(dpsi_dt - rhs).max() <= 1e-8

    def test_box_too_small_rejected(self):
        grid = q.make_grid(1, 64, 6.0)
        with pytest.raises(StateError):
            q.gaussian_packet(grid, t0=1.0)

    def test_2d_product(self):
        grid = q.make_grid(2, 64, 20.0)
        psi = q.gaussian_packet(grid, t0=(1.0, 1.5), x0=(0.5, -0.5))
        assert grid.integrate(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestHarmonicEigenstate:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_discrete_eigenresidual(self, level):
        grid = q.make_grid(1, 128, 18.0)
        con = q.NATURAL_UNITS
        psi = q.harmonic_eigenstate(grid, level, omega=1.0)
        pot = q.harmonic_potential(grid, 1.0)
        h_psi = -0.5 * laplacian(grid, psi) + pot.values * psi
        energy = q.harmonic_energy(level, 1.0)
        assert np.abs(h_psi - energy * psi).max() <= 1e-8
        assert grid.integrate(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_negative_level(self):
        grid = q.make_grid(1, 128, 18.0)
        with pytest.raises(StateError):
            q.harmonic_eigenstate(grid, -1, omega=1.0)


class TestCoherentState:
    def test_linear_phase(self):
        grid = q.make_grid(1, 128, 20.0)
        p0 = q.wavenumber(grid, 4)
        psi = q.coherent_state(grid, omega=1.0, x0=1.0, p0=p0)
        hv = q.hydro_decompose(grid, psi)
        dense = hv.rho > 1e-4 * hv.rho.max()
        assert np.abs((hv.grad_s[0] - p0)[dense]).max() <= 1e-8
        assert np.abs(hv.lap_s[dense]).max() <= 1e-6


class TestRandomState:
    def test_deterministic(self):
        grid = q.make_grid(1, 128, 7.0)
        a = q.random_state(grid, seed=7, cutoff=grid.n // 8)
        b = q.random_state(grid, seed=7, cutoff=grid.n // 8)
        assert np.array_equal(a, b)

    def test_nodeless_and_band_limited(self):
        grid = q.make_grid(1, 128, 7.0)
        psi = q.random_state(grid, seed=4)
        assert np.abs(psi).min() > 0.2 * np.abs(psi).max()
        spec = np.abs(np.fft.fft(psi))
        modes = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n))
        assert spec[modes > grid.n // 8].max() <= 1e-12 * spec.max()

    def test_2d(self):
        grid = q.make_grid(2, 32, 5.0)
        psi = q.random_state(grid, seed=1, cutoff=4)
        assert grid.integrate(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_make_state_dispatch_and_unknown_kind():
    grid = q.make_grid(1, 64, 20.0)
    psi = q.make_state(grid, "gaussian_packet", t0=1.0)
    assert psi.shape == grid.shape
    with pytest.raises(StateError):
        q.make_state(grid, "soliton")


def test_check_tails_threshold():
    grid = q.make_grid(1, 128, 20.0)
    psi = q.gaussian_packet(grid, t0=1.0)
    assert check_tails(grid, psi) <= 1e-14


def test_potentials():
    grid = q.make_grid(2, 32, 8.0)
    ho = q.harmonic_potential(grid, omega=2.0)
    X, Y = grid.coords()
    assert np.abs(ho.values - 2.0 * (X**2 + Y**2)).max() <= 1e-12
    assert np.abs(ho.grad[0] - 4.0 * X).max() <= 1e-12
