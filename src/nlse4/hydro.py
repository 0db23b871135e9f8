"""Hydrodynamic decomposition of a wavefunction and fourth-order composites.

The decomposition never unwraps the phase.  Everything derives from three
globally smooth periodic fields,

    rho    = |psi|^2
    grad_rho_a = 2 Re(conj(psi) d_a psi)
    g_a    = Im(conj(psi) d_a psi)        (= rho * dS/dx_a)

combined pointwise, so 2pi branch cuts in S never enter.  Points where the
density falls below a floor ("nodes") carry zeroed derived fields and are
excluded from volume integrals; that exclusion is a documented bias source.

A decomposition builds only these smooth fields, the Laplacian of rho, the
weighted Laplacian rho*Lap S, the node mask and two reductions (max(rho),
read by the node floor, the noise gate and the ratio floor, and the masked
fraction, which a run compares with its ``mask_limit``; a decomposition
rejects only a psi that vanishes identically).  It also fixes the view's
low-density gates: the node floor ``eps_rho``, the noise gate
``gate_factor`` and the ratio cut ``ratio_floor`` are recorded on the view,
and every consumer of the view (composites, noise gate, multiplier, energy,
Ehrenfest corrections, continuity residual) reads them from there; no other
public function takes a gate.  The ratio fields grad S, grad log rho,
Lap S and Lap rho / rho are derived on first read: the generic functional
engine, diagnostics and checks read them, the three-parameter engine does
not.

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
from functools import cached_property

import numpy as np

from .spectral import (
    Grid,
    _forward,
    _forward_stack,
    _gradient,
    _ik,
    _inverse_and_gradient,
    _inverse_stack,
    _laplacian_symbol,
    _stack,
    divergence,
    gradient,
)

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


@dataclass
class HydroView:
    """Derived hydrodynamic fields of one wavefunction.

    A decomposition builds the smooth numerators (``g``, ``grad_rho``,
    ``lap_rho``, ``rho_lap_s``), the node ``mask`` (True at points below the
    density floor), ``safe_rho`` and the reductions ``rho_max`` and
    ``masked_fraction``; every higher composite is built from these.  The
    gates it was decomposed at (``eps_rho``, ``gate_factor``,
    ``ratio_floor``) are fixed for the view's lifetime.  The ratio fields
    ``grad_s``/``grad_log_rho`` (lists with one array per axis), ``lap_s``
    and ``lap_rho_over_rho`` are zero at masked points and are derived on
    first read: the three-parameter engine never reads them.
    """

    grid: Grid
    psi: np.ndarray
    rho: np.ndarray
    mask: np.ndarray
    rho_max: float
    masked_fraction: float
    eps_rho: float
    gate_factor: float
    ratio_floor: float
    # smooth building blocks
    g: list = field(repr=False)
    grad_rho: list = field(repr=False)
    lap_rho: np.ndarray = field(repr=False)
    rho_lap_s: np.ndarray = field(repr=False)
    safe_rho: np.ndarray = field(repr=False)
    _fourth_order: "FourthOrder | None" = field(repr=False, default=None)

    @cached_property
    def grad_s(self) -> list:
        return [self.ratio(ga) for ga in self.g]

    @cached_property
    def grad_log_rho(self) -> list:
        return [self.ratio(dra) for dra in self.grad_rho]

    @cached_property
    def lap_s(self) -> np.ndarray:
        return self.ratio(self.rho_lap_s)

    @cached_property
    def lap_rho_over_rho(self) -> np.ndarray:
        return self.ratio(self.lap_rho)

    def zero_masked(self, arr: np.ndarray) -> np.ndarray:
        return np.where(self.mask, 0.0, arr)

    def ratio(self, numerator: np.ndarray) -> np.ndarray:
        """numerator / rho with masked points zeroed."""
        return np.where(self.mask, 0.0, numerator / self.safe_rho)

    def dot_grad_s(self, vec: list) -> np.ndarray:
        return sum(v * s for v, s in zip(vec, self.grad_s))

    def dot_grad_log_rho(self, vec: list) -> np.ndarray:
        return sum(v * s for v, s in zip(vec, self.grad_log_rho))

    def fourth_order(self, keep: bool = True) -> "FourthOrder":
        """:func:`fourth_order_composites` of this view at its own gates.
        Composites built with ``keep`` stay on the view, and every later
        call returns them.

        The multiplier keeps them, so the energy of a sampled state reuses
        them; the energy passes ``keep=False``, because when it is the only
        reader (the generic engine) the view would otherwise hold the
        composites through the next step, which measurably slows 2D runs.
        """
        fo = self._fourth_order
        if fo is None:
            fo = fourth_order_composites(self)
            if keep:
                self._fourth_order = fo
        return fo


def hydro_decompose(
    grid: Grid,
    psi: np.ndarray | None,
    eps_rho: float = DEFAULT_EPS_RHO,
    psi_hat: np.ndarray | None = None,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
) -> HydroView:
    """Decompose psi into density, its phase-current numerators and their
    derivatives.

    ``eps_rho`` is relative to max(rho).  The view records it together with
    the fourth-order gates ``gate_factor`` and ``ratio_floor``, which
    :func:`fourth_order_composites` and :func:`noise_gate` read.  Raises
    ValueError if psi vanishes identically.
    ``psi_hat``, if given, is the spectrum ``fftn(psi)`` (or the spectrum psi
    was synthesized from) and replaces the forward transform of psi.  With
    ``psi`` None the state is decomposed from ``psi_hat`` alone: psi and its
    gradient come from one inverse transform, and the spectrum is validated
    as psi would be.
    """
    if psi is None:
        if psi_hat is None:
            raise ValueError("need the wavefunction or its spectrum psi_hat")
        grid.validate_field(psi_hat)
        if not np.isfinite(psi_hat).all():
            raise ValueError("spectrum contains non-finite samples")
        psi, dpsi = _inverse_and_gradient(grid, psi_hat)
    else:
        grid.validate_field(psi)
        if not np.isfinite(psi).all():
            raise ValueError("wavefunction contains non-finite samples")
        psi = np.ascontiguousarray(psi, dtype=complex)
        dpsi = _gradient(grid, _forward(psi, False) if psi_hat is None else psi_hat, False)

    # rho and g share one stack, so each transform of them is one call
    dims = grid.dims
    smooth = _stack(grid, 1 + dims)
    rho = smooth[0]
    np.add(psi.real**2, psi.imag**2, out=rho)
    conj = psi.conj()
    grad_rho = []
    for a, da in enumerate(dpsi):
        cd = conj * da
        smooth[1 + a][...] = cd.imag
        grad_rho.append(2.0 * cd.real)
    g = list(smooth[1:])

    rho_max = float(rho.max())
    if rho_max == 0.0:
        raise ValueError("wavefunction vanishes identically")
    mask = rho < eps_rho * rho_max

    # Lap rho and div g, from one forward and one inverse transform of stacks
    spec = _forward_stack(grid, smooth)
    lap_div = _stack(grid, 2, half=True)
    np.multiply(_laplacian_symbol(grid.n, grid.length, dims, True), spec[0], out=lap_div[0])
    np.multiply(_ik(grid, 0, True), spec[1], out=lap_div[1])
    for a in range(1, dims):
        lap_div[1] += _ik(grid, a, True) * spec[1 + a]
    lap_rho, div_g = _inverse_stack(grid, lap_div)

    safe_rho = np.where(mask, 1.0, rho)
    # rho*Lap S = div g - grad_rho . g / rho, all built from smooth fields
    dot = grad_rho[0] * g[0]
    for a in range(1, dims):
        dot += grad_rho[a] * g[a]
    rho_lap_s = div_g - np.where(mask, 0.0, dot / safe_rho)

    return HydroView(
        grid=grid,
        psi=psi,
        rho=rho,
        mask=mask,
        rho_max=rho_max,
        masked_fraction=np.count_nonzero(mask) / mask.size,
        eps_rho=eps_rho,
        gate_factor=gate_factor,
        ratio_floor=ratio_floor,
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


def noise_gate(hv: HydroView) -> float:
    """Absolute floor below which fourth-order numerators of ``hv`` are
    roundoff, at the view's ``gate_factor``.

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
        hv.rho_max,
    )
    return hv.gate_factor * _EPS * kM**3 * scale


@dataclass
class FourthOrder:
    """Density-weighted fourth-order phase composites.

    ``div_q`` is the divergence of q = rho*grad(Lap S).  ``u``, ``t1`` and
    ``t6`` are the ratio fields div_q/rho, Lap(Lap S) and
    grad(log rho) . grad(Lap S), zeroed below the node mask, below the ratio
    floor and wherever the numerator sits under the noise ``gate``.
    """

    div_q: np.ndarray
    u: np.ndarray
    t1: np.ndarray
    t6: np.ndarray
    gate: float


def fourth_order_composites(hv: HydroView) -> FourthOrder:
    """Compute rho-weighted fourth-order composites of the phase, gated at
    the view's ``gate_factor`` and ``ratio_floor``.

    Identities used (P = rho*Lap S, all exact for smooth rho > 0):

        q   = rho grad(Lap S)        = grad P - (P/rho) grad rho
        r6  = grad_rho . grad(Lap S) = grad_rho . q / rho
        r1  = rho Lap(Lap S)         = Lap P - 2 r6 - (P/rho) Lap rho
        div_q = rho [Lap(Lap S) + grad(log rho) . grad(Lap S)]
    """
    grid = hv.grid
    dims = grid.dims
    P = hv.rho_lap_s
    ratio_P = hv.ratio(P)
    # grad P and Lap P from one inverse transform of a stack
    P_hat = _forward(P, True)
    spec = _stack(grid, dims + 1, half=True)
    for a in range(dims):
        np.multiply(_ik(grid, a, True), P_hat, out=spec[a])
    np.multiply(_laplacian_symbol(grid.n, grid.length, dims, True), P_hat, out=spec[dims])
    *dP, lap_P = _inverse_stack(grid, spec)
    q = [dPa - ratio_P * dra for dPa, dra in zip(dP, hv.grad_rho)]

    # the numerators of u, t1 and t6
    nums = _stack(grid, 3)
    div_q, r1, r6 = nums
    div_q[...] = divergence(grid, q)
    dot = hv.grad_rho[0] * q[0]
    for a in range(1, dims):
        dot += hv.grad_rho[a] * q[a]
    r6[...] = hv.ratio(dot)
    np.subtract(lap_P, 2.0 * r6, out=r1)
    r1 -= ratio_P * hv.lap_rho

    gate = noise_gate(hv)
    dense = ~hv.mask & (hv.rho >= hv.ratio_floor * hv.rho_max)
    if dims == 1:  # one pass over the stack
        u, t1, t6 = _gated_ratio(hv, nums, gate, dense)
    else:
        u, t1, t6 = (_gated_ratio(hv, num, gate, dense) for num in nums)
    return FourthOrder(div_q=div_q, u=u, t1=t1, t6=t6, gate=gate)


def _gated_ratio(hv: HydroView, numerator: np.ndarray, gate: float, dense: np.ndarray) -> np.ndarray:
    """numerator / rho where ``dense`` (unmasked, above the ratio floor) and
    the numerator clears the noise gate, zero elsewhere; ``numerator`` may
    be a stack of 1D numerators."""
    keep = dense & (np.abs(numerator) > gate)
    return np.where(keep, numerator / hv.safe_rho, 0.0)
