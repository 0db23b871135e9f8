"""Probability currents and the extended continuity equation.

The five extra currents of the fourth-order divergence family are

    j1 = D1 rho grad(Lap S)           j2 = D2 rho grad(Lap rho / rho)
    j3 = D3 rho grad((grad rho/rho)^2)
    j4 = D4 rho grad((grad rho/rho).grad S)
    j5 = D5 rho grad((grad S)^2)

and the continuity equation reads

    d rho/dt + (hbar/m) div(rho grad S) + sum_i div(j_i) = 0.

Each current is rho grad(W_i / rho) of a density-weighted numerator W_i, so
the fields decay with rho in tails instead of amplifying roundoff.  As in
:mod:`nlse4.functionals`, the couplings weight the numerators before the one
gradient, sum_i j_i = rho grad((sum_i D_i W_i) / rho), which differs from
summing the five gradients only by roundoff; a zero coupling costs nothing.
"""

from __future__ import annotations

import numpy as np

from .coeffs import CoeffError, CoeffSet, MEParams
from .hydro import HydroView, weighted_grad_of_ratio
from .spectral import PhysicalConstants, NATURAL_UNITS, divergence

#: The numerators W1..W5 of the five currents, built on demand.
_NUMERATORS = (
    lambda hv: hv.rho_lap_s,
    lambda hv: hv.lap_rho,
    lambda hv: hv.ratio(sum(dra * dra for dra in hv.grad_rho)),
    lambda hv: hv.ratio(sum(dra * ga for dra, ga in zip(hv.grad_rho, hv.g))),
    lambda hv: hv.ratio(sum(ga * ga for ga in hv.g)),
)


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


def currents(hv: HydroView, couplings, constants: PhysicalConstants = NATURAL_UNITS) -> list:
    """Total current of one state, one array per axis: the linear current
    (hbar/m) g plus the five extra currents.  ``couplings`` may be MEParams,
    a CoeffSet (divergence-family D_i = a_i D), an explicit 5-sequence of
    D_i, or None for the linear equation."""
    d = _current_couplings(couplings)
    j = [constants.hbar / constants.mass * ga for ga in hv.g]
    terms = (di * numerator(hv) for di, numerator in zip(d, _NUMERATORS) if di != 0.0)
    weighted = next(terms, None)  # sum_i D_i W_i, accumulated in place
    if weighted is not None:
        for term in terms:
            weighted += term
        for ja, extra in zip(j, weighted_grad_of_ratio(hv, weighted)):
            ja += extra
    return j


def current_divergence(hv: HydroView, couplings, constants: PhysicalConstants = NATURAL_UNITS) -> np.ndarray:
    """div of the total current (linear plus the five extras) of one state."""
    return divergence(hv.grid, currents(hv, couplings, constants))


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
