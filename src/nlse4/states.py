"""Reference state synthesis, analytic potentials and the Galilean boost.

All synthesized localized states are checked to decay below a relative tail
threshold at the box edge, because spectral treatment of fourth-order terms
is only trustworthy when the periodic images do not overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, _forward, _inverse

TAIL_THRESHOLD = 1e-14


class StateError(ValueError):
    """Requested state is incompatible with the grid or parameters."""


@dataclass(frozen=True)
class Potential:
    """External potential with analytically known gradient."""

    values: np.ndarray
    grad: tuple


def harmonic_potential(grid: Grid, omega: float, constants: PhysicalConstants = NATURAL_UNITS) -> Potential:
    """V = (m omega^2 / 2) |x|^2 on centered coordinates."""
    xs = grid.coords()
    m = constants.mass
    v = 0.5 * m * omega**2 * sum(x**2 for x in xs)
    grads = tuple(m * omega**2 * x for x in xs)
    return Potential(values=v, grad=grads)


def _as_tuple(value, dims: int, name: str) -> tuple:
    if np.isscalar(value):
        return (float(value),) * dims
    value = tuple(float(v) for v in value)
    if len(value) != dims:
        raise StateError(f"{name} needs one entry per axis, got {len(value)} for dims={dims}")
    return value


def check_tails(grid: Grid, psi: np.ndarray) -> float:
    """Max relative density on the box-edge shell; raises above
    :data:`TAIL_THRESHOLD`."""
    rho = np.abs(psi) ** 2
    peak = rho.max()
    edge = max(rho.take(i, axis=a).max() for a in range(grid.dims) for i in (0, -1))
    rel = float(edge / peak)
    if rel > TAIL_THRESHOLD:
        raise StateError(
            f"state density at box edge is {rel:.2e} of peak (limit {TAIL_THRESHOLD:.0e}); "
            "box too small for the requested width"
        )
    return rel


def plane_wave(grid: Grid, mode, constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """exp(i k.x) with k = 2 pi mode / L per axis; unit density, not normalized."""
    modes = _as_tuple(mode, grid.dims, "mode")
    for mu in modes:
        if abs(mu - round(mu)) > 1e-9:
            raise StateError(f"plane-wave mode {mu} is not an integer; k must be commensurate with the box")
        if abs(mu) >= grid.n // 2:
            raise StateError(f"plane-wave mode {mu} at or beyond Nyquist for n={grid.n}")
    xs = grid.coords()
    phase = sum((2.0 * np.pi * round(mu) / grid.length) * x for mu, x in zip(modes, xs))
    return np.exp(1j * phase)


def wavenumber(grid: Grid, mode: int) -> float:
    return 2.0 * np.pi * mode / grid.length


def gaussian_packet(
    grid: Grid,
    t0,
    t: float = 0.0,
    x0=0.0,
    p0=0.0,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """Free-particle Gaussian packet, exact solution sampled at time ``t``.

    Width parameter t0 > 0 sets sigma0^2 = hbar t0 / m.  The returned slice
    carries the exact dispersive phase, so the family is an oracle for the
    zero-coefficient evolution: evolving the t=0 slice must reproduce the
    t=T slice.  The spatially constant part of the phase follows the exact
    propagator normalization (zero at t=0); any constant offset is a
    removable global phase.
    """
    hbar, m = constants.hbar, constants.mass
    t0s = _as_tuple(t0, grid.dims, "t0")
    x0s = _as_tuple(x0, grid.dims, "x0")
    p0s = _as_tuple(p0, grid.dims, "p0")
    if any(tv <= 0 for tv in t0s):
        raise StateError("packet width parameter t0 must be positive")
    xs = grid.coords()
    psi = np.ones(grid.shape, dtype=complex)
    for x, t0a, x0a, p0a in zip(xs, t0s, x0s, p0s):
        sigma0_sq = hbar * t0a / m
        z = 1.0 + 1j * t / t0a
        xi = x - x0a - (p0a / m) * t
        envelope = (np.pi * sigma0_sq) ** -0.25 / np.sqrt(z) * np.exp(-(xi**2) / (2.0 * sigma0_sq * z))
        boost = np.exp(1j * (p0a * (x - x0a) - 0.5 * p0a**2 * t / m) / hbar)
        psi = psi * envelope * boost
    check_tails(grid, psi)
    return _renormalize(grid, psi)


def _hermite(n: int, y: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial by recurrence."""
    h0 = np.ones_like(y)
    if n == 0:
        return h0
    h1 = 2.0 * y
    for j in range(1, n):
        h0, h1 = h1, 2.0 * y * h1 - 2.0 * j * h0
    return h1


def harmonic_eigenstate(
    grid: Grid,
    level,
    omega: float,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """Oscillator eigenstate (per-axis level in 2D), normalized on the grid."""
    hbar, m = constants.hbar, constants.mass
    levels = tuple(int(v) for v in np.atleast_1d(level))
    if len(levels) != grid.dims:
        if len(levels) == 1:
            levels = levels * grid.dims
        else:
            raise StateError("level needs one entry per axis")
    if any(l < 0 for l in levels):
        raise StateError("level must be non-negative")
    alpha = np.sqrt(m * omega / hbar)
    xs = grid.coords()
    psi = np.ones(grid.shape, dtype=complex)
    for x, nl in zip(xs, levels):
        y = alpha * x
        norm = (alpha**2 / np.pi) ** 0.25 / np.sqrt(2.0**nl * math.factorial(nl))
        psi = psi * norm * _hermite(nl, y) * np.exp(-0.5 * y**2)
    check_tails(grid, psi)
    return _renormalize(grid, psi)


def harmonic_energy(level, omega: float, constants: PhysicalConstants = NATURAL_UNITS) -> float:
    """Oscillator energy of ``level``, one quantum number per axis."""
    levels = tuple(int(v) for v in np.atleast_1d(level))
    return constants.hbar * omega * sum(l + 0.5 for l in levels)


def coherent_state(
    grid: Grid,
    omega: float,
    x0=0.0,
    p0=0.0,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """Displaced oscillator ground state with linear phase (Lap S = 0)."""
    hbar, m = constants.hbar, constants.mass
    x0s = _as_tuple(x0, grid.dims, "x0")
    p0s = _as_tuple(p0, grid.dims, "p0")
    alpha_sq = m * omega / hbar
    xs = grid.coords()
    psi = np.ones(grid.shape, dtype=complex)
    for x, x0a, p0a in zip(xs, x0s, p0s):
        psi = psi * (alpha_sq / np.pi) ** 0.25 * np.exp(-0.5 * alpha_sq * (x - x0a) ** 2 + 1j * p0a * x / hbar)
    check_tails(grid, psi)
    return _renormalize(grid, psi)


def random_state(
    grid: Grid,
    seed: int,
    cutoff: int | None = None,
    amplitude: float = 0.5,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """Deterministic band-limited nodeless random state.

    A unit background plus a complex random field with Fourier support
    |mode| <= cutoff (default n/8), scaled so |psi| stays away from zero.
    """
    if cutoff is None:
        cutoff = grid.n // 8
    if not 0 < cutoff < grid.n // 2:
        raise StateError(f"cutoff must lie in (0, n/2), got {cutoff}")
    if not 0.0 <= amplitude < 1.0:
        raise StateError("amplitude must lie in [0, 1) to keep the state nodeless")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    band = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) <= cutoff
    sel = np.logical_and.reduce(np.meshgrid(*[band] * grid.dims, indexing="ij"))
    sel[(0,) * grid.dims] = False
    coeffs[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
    f = _inverse(grid, coeffs, False)
    peak = np.abs(f).max()
    if peak > 0:
        f = f * (amplitude / peak)
    psi = 1.0 + f
    return _renormalize(grid, psi)


def _renormalize(grid: Grid, psi: np.ndarray) -> np.ndarray:
    norm = grid.integrate(np.abs(psi) ** 2)
    if not norm > 0:
        raise StateError("state has zero norm")
    return psi / np.sqrt(norm)


class BoostError(ValueError):
    """Boost velocity incommensurate with the periodic box."""


def galilean_boost(
    grid: Grid,
    psi: np.ndarray,
    v,
    t: float = 0.0,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """Boost a snapshot taken at time ``t`` into the frame moving with -v.

    psi'(x) = psi(x - v t) * exp(i m (v.x - |v|^2 t / 2) / hbar)

    A plane wave k maps to k + m v / hbar, and boosting commutes with the
    free evolution exactly.  Each m v_a L / hbar must be a multiple of
    2 pi so the boost phase is continuous across the periodic box.
    """
    grid.validate_field(psi)
    hbar, m = constants.hbar, constants.mass
    vs = np.atleast_1d(np.asarray(v, dtype=float))
    if vs.size == 1:
        vs = np.repeat(vs, grid.dims)
    if vs.size != grid.dims:
        raise BoostError(f"need one velocity component per axis, got {vs.size}")
    for va in vs:
        q = m * va * grid.length / (2.0 * np.pi * hbar)
        if abs(q - round(q)) > 1e-9:
            raise BoostError(
                f"velocity component {va} is incommensurate: m v L / hbar = {q} * 2 pi must be integral"
            )
    # translation by v t via exact Fourier shift
    psi_hat = _forward(grid, psi, False)
    shift = 1.0
    for a in range(grid.dims):
        shift = shift * np.exp(-1j * grid.k_along(a) * (vs[a] * t))
    shifted = _inverse(grid, psi_hat * shift, False)
    xs = grid.coords()
    phase = sum(m * vs[a] * xs[a] for a in range(grid.dims)) - 0.5 * m * float(vs @ vs) * t
    return shifted * np.exp(1j * phase / hbar)


_KINDS = {
    "plane_wave": plane_wave,
    "gaussian_packet": gaussian_packet,
    "harmonic_eigenstate": harmonic_eigenstate,
    "coherent": coherent_state,
    "random": random_state,
}


def make_state(grid: Grid, kind: str, constants: PhysicalConstants = NATURAL_UNITS, **params) -> np.ndarray:
    """Dispatch to a named state builder; see the individual builders."""
    try:
        builder = _KINDS[kind]
    except KeyError:
        raise StateError(f"unknown state kind {kind!r}; choose from {sorted(_KINDS)}") from None
    return builder(grid, constants=constants, **params)
