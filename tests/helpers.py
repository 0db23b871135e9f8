"""Shared state builders for the test suite."""

import numpy as np

import nlse4 as q
from nlse4.evolution import nonlinear_multiplier


def perturbed_gaussian(grid, seed=11, amplitude=0.1, cutoff=12, t0=1.0):
    """Gaussian packet with a band-limited multiplicative perturbation."""
    base = q.gaussian_packet(grid, t0=t0)
    pert = q.random_state(grid, seed=seed, cutoff=cutoff, amplitude=0.3)
    psi = base * (1.0 + amplitude * pert / np.abs(pert).max())
    return psi / np.sqrt(grid.integrate(np.abs(psi) ** 2))


def perturbed_plane_wave(grid, seed=3, cutoff=6, amplitude=0.35):
    """Nodeless fully periodic state with active phase structure."""
    return q.random_state(grid, seed=seed, cutoff=cutoff, amplitude=amplitude)


def banded_localized_state(grid, me, amplitude=0.5, sigma=0.85, constants=q.NATURAL_UNITS):
    """Wide-Gaussian density carrying the harmonic phase mode of ``me``.

    The box length must hold an integer number of mode periods so the phase
    profile S = (A/sqrt(omega)) sin(sqrt(omega) x) is periodic.
    """
    omega = q.mode_frequency(me, constants)
    k0 = np.sqrt(omega)
    ratio = k0 * grid.length / (2.0 * np.pi)
    assert abs(ratio - round(ratio)) < 1e-9, "box must hold whole mode periods"
    x = grid.axis_coords()
    rho = np.exp(-(x / sigma) ** 2)
    rho = rho / grid.integrate(rho)
    phase = (amplitude / k0) * np.sin(k0 * x)
    return np.sqrt(rho) * np.exp(1j * phase)


def bloch_state(me, amplitude, n=64, periods=2, constants=q.NATURAL_UNITS):
    """Stationary band state: Hill ground density with the harmonic phase.

    Returns (grid, psi, rho, energy)."""
    hill = q.hill_from_stationary(me, amplitude, 0.0, constants)
    a0, (modes, cvec) = q.bloch_density_profile(hill)
    omega = q.mode_frequency(me, constants)
    energy = q.stationary_energy_from_q0(a0, amplitude, omega, constants)
    k0 = np.sqrt(omega)
    grid = q.make_grid(1, n, periods * hill.period / k0)
    x = grid.axis_coords()
    base = 2.0 * np.pi / hill.period
    y = (np.exp(1j * np.outer(k0 * x, modes * base)) @ cvec).real
    rho = y**2
    rho = rho / grid.integrate(rho)
    psi = np.sqrt(rho) * np.exp(1j * (amplitude / k0) * np.sin(k0 * x))
    return grid, psi, rho, energy


def multiplier(grid, psi, coeffs):
    """The multiplier of a bare psi, decomposed at the default gates."""
    return nonlinear_multiplier(q.hydro_decompose(grid, psi), coeffs)


def derived(grid, psi, coeffs, constants=q.NATURAL_UNITS, **gates):
    """The record of one standalone state, decomposed at the default gates
    or at the given ``gates``."""
    return q.derive(q.hydro_decompose(grid, psi, **gates), coeffs, constants)
