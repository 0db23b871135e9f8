"""Hydrodynamic decomposition of a wavefunction and fourth-order composites.

The decomposition never unwraps the phase.  Everything derives from three
globally smooth periodic fields,

    rho    = |psi|^2
    grad_rho_a = 2 Re(conj(psi) d_a psi)
    g_a    = Im(conj(psi) d_a psi)        (= rho * dS/dx_a)

combined pointwise, so 2pi branch cuts in S never enter.  Points where the
density falls below a floor ("nodes") carry zeroed derived fields and are
excluded from volume integrals; that exclusion is a documented bias source.

Fourth-order composites (e.g. rho*Lap(Lap S)) are assembled from
density-weighted numerators that decay with rho, and are zeroed wherever the
numerator falls below a spectral roundoff floor.  Consequences:

* states whose composites vanish identically (any spatially quadratic phase)
  are annihilated exactly, not just to truncation accuracy;
* the numerators stay finite through density tails, where bare ratios like
  Lap(Lap S) would amplify FFT roundoff without bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import Grid, divergence, gradient, gradient_and_laplacian, laplacian

#: Default relative density floor: points with rho < eps * max(rho) are masked.
DEFAULT_EPS_RHO = 1e-12

#: Default relative density cut below which fourth-order RATIO fields are
#: zeroed (on top of the node mask).  Small absolute numerator signals at
#: near-floor points would otherwise turn into huge local rates num/rho and
#: destabilize explicit time stepping; the bias committed by the cut scales
#: with the density at the cut and is documented alongside the node mask.
DEFAULT_RATIO_FLOOR = 1e-8

#: Default safety factor between machine epsilon and the gate applied to
#: fourth-order numerators.  The observed spectral noise in the numerators is
#: about 256 * eps * (1 + k_max)^3 * field_scale on chirped packets, and the
#: gate sits 64x above that; genuine nonlinear signals in desk-scale runs sit
#: another 5+ orders higher.  Calibrated on Gaussian-packet annihilation
#: tests; see tests/test_evolution.py.
DEFAULT_GATE_FACTOR = 16384.0

_EPS = np.finfo(float).eps


class MaskOverflowError(ValueError):
    """Raised when too much of the grid falls below the density floor."""

    def __init__(self, fraction: float, limit: float):
        self.fraction = fraction
        self.limit = limit
        super().__init__(
            f"{100 * fraction:.1f}% of grid points are below the density floor "
            f"(limit {100 * limit:.0f}%); state too singular for this scheme"
        )


@dataclass
class HydroView:
    """Derived hydrodynamic fields of one wavefunction.

    ``grad_s``/``grad_log_rho`` are lists with one array per axis.  ``mask``
    is True at points below the density floor; derived ratio fields are zero
    there.  The smooth numerators (``g``, ``grad_rho``, ``rho_lap_s`` ...)
    are kept because every higher composite is built from them.
    """

    grid: Grid
    psi: np.ndarray
    rho: np.ndarray
    grad_s: list
    grad_log_rho: list
    lap_s: np.ndarray
    lap_rho_over_rho: np.ndarray
    mask: np.ndarray
    floor: float
    # smooth building blocks
    g: list = field(repr=False, default=None)
    grad_rho: list = field(repr=False, default=None)
    lap_rho: np.ndarray = field(repr=False, default=None)
    rho_lap_s: np.ndarray = field(repr=False, default=None)
    safe_rho: np.ndarray = field(repr=False, default=None)

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean())

    def zero_masked(self, arr: np.ndarray) -> np.ndarray:
        return np.where(self.mask, 0.0, arr)

    def ratio(self, numerator: np.ndarray) -> np.ndarray:
        """numerator / rho with masked points zeroed."""
        return np.where(self.mask, 0.0, numerator / self.safe_rho)

    def dot_grad_s(self, vec: list) -> np.ndarray:
        return sum(v * s for v, s in zip(vec, self.grad_s))

    def dot_grad_log_rho(self, vec: list) -> np.ndarray:
        return sum(v * s for v, s in zip(vec, self.grad_log_rho))


def hydro_decompose(
    grid: Grid,
    psi: np.ndarray,
    eps_rho: float = DEFAULT_EPS_RHO,
    max_masked_fraction: float = 0.25,
) -> HydroView:
    """Decompose psi into density, phase gradients and their Laplacians.

    ``eps_rho`` is relative to max(rho).  Raises :class:`MaskOverflowError`
    if more than ``max_masked_fraction`` of the grid is below the floor.
    """
    grid.validate_field(psi)
    if not np.all(np.isfinite(psi)):
        raise ValueError("wavefunction contains non-finite samples")

    psi = np.ascontiguousarray(psi, dtype=complex)
    dpsi = gradient(grid, psi)
    rho = (psi.real**2 + psi.imag**2)
    conj = psi.conj()
    g = [(conj * d).imag for d in dpsi]
    grad_rho = [2.0 * (conj * d).real for d in dpsi]
    lap_rho = laplacian(grid, rho)

    floor = eps_rho * rho.max()
    mask = rho < floor
    frac = float(mask.mean())
    if frac > max_masked_fraction:
        raise MaskOverflowError(frac, max_masked_fraction)

    safe_rho = np.where(mask, 1.0, rho)
    grad_s = [np.where(mask, 0.0, ga / safe_rho) for ga in g]
    grad_log_rho = [np.where(mask, 0.0, dra / safe_rho) for dra in grad_rho]

    # rho*Lap S = div g - grad_rho . g / rho, all built from smooth fields
    div_g = divergence(grid, g)
    dot = sum(dra * ga for dra, ga in zip(grad_rho, g))
    rho_lap_s = div_g - np.where(mask, 0.0, dot / safe_rho)
    lap_s = np.where(mask, 0.0, rho_lap_s / safe_rho)
    lap_rho_over_rho = np.where(mask, 0.0, lap_rho / safe_rho)

    return HydroView(
        grid=grid,
        psi=psi,
        rho=rho,
        grad_s=grad_s,
        grad_log_rho=grad_log_rho,
        lap_s=lap_s,
        lap_rho_over_rho=lap_rho_over_rho,
        mask=mask,
        floor=float(floor),
        g=g,
        grad_rho=grad_rho,
        lap_rho=lap_rho,
        rho_lap_s=rho_lap_s,
        safe_rho=safe_rho,
    )


def weighted_grad_of_ratio(hv: HydroView, numerator: np.ndarray) -> list:
    """rho * grad(numerator / rho), computed as grad(W) - (W/rho) grad(rho).

    ``numerator`` must be the density-weighted form W = rho * w of the ratio
    field w; the result then decays with rho instead of blowing up in tails.
    """
    ratio = hv.ratio(numerator)
    dW = gradient(hv.grid, numerator)
    return [dWa - ratio * dra for dWa, dra in zip(dW, hv.grad_rho)]


def noise_gate(hv: HydroView, gate_factor: float = DEFAULT_GATE_FACTOR) -> float:
    """Absolute floor below which fourth-order numerators are roundoff.

    FFT roundoff enters the smooth first-level fields at machine epsilon
    times their magnitude and is amplified by one factor of k_max per further
    differentiation; two more derivative levels reach the fourth order.
    """
    kM = 1.0 + hv.grid.kmax
    scale = max(
        1.0,
        max(abs(ga).max() for ga in hv.g),
        max(abs(da).max() for da in hv.grad_rho),
        abs(hv.rho_lap_s).max(),
        hv.rho.max(),
    )
    return gate_factor * _EPS * kM**3 * scale


@dataclass
class FourthOrder:
    """Density-weighted fourth-order phase composites.

    ``q`` is rho*grad(Lap S) (one array per axis); ``div_q`` its divergence;
    ``r1`` = rho*Lap(Lap S); ``r6`` = grad_rho . grad(Lap S).  ``u``, ``t1``,
    ``t6`` are the corresponding ratio fields, zeroed below the node mask and
    wherever the numerator sits under the noise gate.
    """

    q: list
    div_q: np.ndarray
    r1: np.ndarray
    r6: np.ndarray
    u: np.ndarray
    t1: np.ndarray
    t6: np.ndarray
    gate: float
    ratio_floor: float


def fourth_order_composites(
    hv: HydroView,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
) -> FourthOrder:
    """Compute rho-weighted fourth-order composites of the phase.

    Identities used (P = rho*Lap S, all exact for smooth rho > 0):

        q   = rho grad(Lap S)        = grad P - (P/rho) grad rho
        r6  = grad_rho . grad(Lap S) = grad_rho . q / rho
        r1  = rho Lap(Lap S)         = Lap P - 2 r6 - (P/rho) Lap rho
        div_q = rho [Lap(Lap S) + grad(log rho) . grad(Lap S)]
    """
    grid = hv.grid
    P = hv.rho_lap_s
    ratio_P = hv.ratio(P)
    dP, lap_P = gradient_and_laplacian(grid, P)
    q = [dPa - ratio_P * dra for dPa, dra in zip(dP, hv.grad_rho)]
    div_q = divergence(grid, q)
    r6 = hv.ratio(sum(dra * qa for dra, qa in zip(hv.grad_rho, q)))
    r1 = lap_P - 2.0 * r6 - ratio_P * hv.lap_rho

    gate = noise_gate(hv, gate_factor)
    dens_ok = hv.rho >= ratio_floor * hv.rho.max()
    u = _gated_ratio(hv, div_q, gate, dens_ok)
    t1 = _gated_ratio(hv, r1, gate, dens_ok)
    t6 = _gated_ratio(hv, r6, gate, dens_ok)
    return FourthOrder(q=q, div_q=div_q, r1=r1, r6=r6, u=u, t1=t1, t6=t6,
                       gate=gate, ratio_floor=ratio_floor)


def _gated_ratio(hv: HydroView, numerator: np.ndarray, gate: float, dens_ok: np.ndarray) -> np.ndarray:
    keep = (~hv.mask) & dens_ok & (np.abs(numerator) > gate)
    return np.where(keep, numerator / hv.safe_rho, 0.0)
