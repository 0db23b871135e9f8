"""Probability currents and the extended continuity equation.

The five extra currents of the fourth-order divergence family are

    j1 = D1 rho grad(Lap S)           j2 = D2 rho grad(Lap rho / rho)
    j3 = D3 rho grad((grad rho/rho)^2)
    j4 = D4 rho grad((grad rho/rho).grad S)
    j5 = D5 rho grad((grad S)^2)

and the continuity equation reads

    d rho/dt + (hbar/m) div(rho grad S) + sum_i div(j_i) = 0.

Each current is assembled from its density-weighted numerator, so the
fields decay with rho in tails instead of amplifying roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffError, CoeffSet, MEParams
from .hydro import HydroView, weighted_grad_of_ratio
from .spectral import PhysicalConstants, NATURAL_UNITS, divergence


@dataclass(frozen=True)
class CurrentSet:
    """Linear current plus the five divergence-family currents (lists of
    per-axis arrays) and their couplings."""

    j_linear: list
    j1: list
    j2: list
    j3: list
    j4: list
    j5: list
    couplings: tuple

    def extras(self) -> list:
        return [self.j1, self.j2, self.j3, self.j4, self.j5]

    def total(self) -> list:
        out = [a.copy() for a in self.j_linear]
        for j in self.extras():
            for axisidx, comp in enumerate(j):
                out[axisidx] = out[axisidx] + comp
        return out


def _current_couplings(couplings) -> tuple:
    if couplings is None:  # the linear equation
        return (0.0,) * 5
    if isinstance(couplings, (CoeffSet, MEParams)):
        return couplings.d_currents()
    try:
        d = tuple(float(v) for v in couplings)
    except TypeError:
        raise CoeffError(f"unsupported coefficient object {type(couplings).__name__}") from None
    if len(d) != 5:
        raise ValueError(f"need 5 current couplings, got {len(d)}")
    return d


def currents(hv: HydroView, couplings, constants: PhysicalConstants = NATURAL_UNITS) -> CurrentSet:
    """All currents of one state.  ``couplings`` may be MEParams, a CoeffSet
    (divergence-family D_i = a_i D), an explicit 5-sequence of D_i, or None
    for the linear equation."""
    d = _current_couplings(couplings)
    grid = hv.grid
    hbar, m = constants.hbar, constants.mass
    j_lin = [hbar / m * ga for ga in hv.g]

    zero = [np.zeros(grid.shape) for _ in range(grid.dims)]

    def weighted(numerator, di):
        if di == 0.0:
            return [z.copy() for z in zero]
        return [di * comp for comp in weighted_grad_of_ratio(hv, numerator)]

    w3 = sum(dra * dra for dra in hv.grad_rho)
    w4 = sum(dra * ga for dra, ga in zip(hv.grad_rho, hv.g))
    w5 = sum(ga * ga for ga in hv.g)
    j1 = weighted(hv.rho_lap_s, d[0])
    j2 = weighted(hv.lap_rho, d[1])
    j3 = weighted(hv.ratio(w3), d[2])
    j4 = weighted(hv.ratio(w4), d[3])
    j5 = weighted(hv.ratio(w5), d[4])
    return CurrentSet(j_linear=j_lin, j1=j1, j2=j2, j3=j3, j4=j4, j5=j5, couplings=d)


def current_divergence(hv: HydroView, couplings, constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """div of the total current (linear plus the five extras) of one state."""
    return divergence(hv.grid, currents(hv, couplings, constants).total())


def continuity_residual(before, after, dt: float) -> tuple:
    """Residual of the continuity equation over one stored snapshot pair,
    given as the records (:class:`nlse4.evolution.State`) of both states.

    The time derivative is the finite difference (rho_after - rho_before)/dt
    and the divergence uses the average of the two current fields, both
    second-order accurate at the interval midpoint, so the residual is an
    integrator check independent of the analytic right-hand side.

    Returns ``(abs_residual_field, signed_integral)``.  The signed integral
    equals the norm change rate and converges at the integrator's order.
    Each record supplies its current divergence ``div_j``, built once.  The
    two must share node floor, coefficients and constants: a pair that
    mixes them raises ``ValueError``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if (before.eps_rho, before.coeffs, before.constants) != (after.eps_rho, after.coeffs, after.constants):
        raise ValueError("records differ in node floor, coefficients or constants")
    drho_dt = (np.abs(after.psi) ** 2 - np.abs(before.psi) ** 2) / dt
    resid = drho_dt + (0.5 * before.div_j + 0.5 * after.div_j)
    return np.abs(resid), float(after.grid.integrate(resid))
