"""Pointwise evaluation of the homogeneous functionals.

This is the canonical "bare" evaluation path: composite terms are formed
innermost-first (build the inner scalar field, then differentiate it
spectrally) with no algebraic expansion.  It is exact for effectively
nodeless states; for strongly localized states the evolution module uses
density-weighted composites instead (see :mod:`nlse4.hydro`).

Derivatives are linear, so the ``ext`` terms of one coefficient half need
one derivative per term group, taken of the weighted inner-scalar sum:

    sum_j x_j Lap I_j                = Lap(sum_j x_j I_j)               (1..5)
    sum_j x_{5+j} g.grad I_j         = g.grad(sum_j x_{5+j} I_j)        (6..10)
    x11, x12, x13 terms              = grad S.grad(x11 I1 + x12 I3 + x13 I2)

with g = grad rho / rho.  Summing first differs from differentiating each
inner scalar only by roundoff.
"""

from __future__ import annotations

import numpy as np

from .coeffs import CoeffSet, CoeffError, VARIANT_LENGTHS
from .hydro import HydroView
from .spectral import gradient, laplacian


def _inner_scalars(hv: HydroView) -> list:
    """The five inner scalars I1..I5 in frozen term order."""
    i3 = sum(v * v for v in hv.grad_log_rho)
    i4 = sum(v * s for v, s in zip(hv.grad_log_rho, hv.grad_s))
    i5 = sum(s * s for s in hv.grad_s)
    return [hv.lap_s, hv.lap_rho_over_rho, i3, i4, i5]


def eval_functional(x, variant: str, hv: HydroView) -> np.ndarray:
    """Sum_i x_i F_i for one coefficient half, masked points zeroed.

    Index order is the table in :mod:`nlse4.coeffs`.  The ``ext`` terms are
    summed per group before differentiating (see the module docstring), so
    a half costs at most one Laplacian and two gradients, and a group whose
    coefficients are all zero costs no transform.
    """
    return _evaluate(x, variant, hv, _inner_scalars(hv))


def _evaluate(x, variant: str, hv: HydroView, inner: list) -> np.ndarray:
    """:func:`eval_functional`, given the view's inner scalars ``inner``."""
    x = tuple(float(v) for v in x)
    want = VARIANT_LENGTHS.get(variant)
    if want is None:
        raise CoeffError(f"unknown variant {variant!r}")
    if len(x) != want:
        raise CoeffError(f"variant {variant!r} needs {want} coefficients, got {len(x)}")

    grid = hv.grid
    out = np.zeros(grid.shape)

    if variant == "dg":
        order = [inner[0], inner[3], inner[1], inner[2], inner[4]]
        for xi, term in zip(x, order):
            if xi != 0.0:
                out = out + xi * term
        return hv.zero_masked(out)

    # ext: derivatives are linear, so each term group differentiates one
    # weighted sum of inner scalars; a group with zero weights costs nothing
    lap_sum = _weighted_sum(x[0:5], inner)  # terms 1..5: Lap I_j
    if lap_sum is not None:
        out = out + laplacian(grid, lap_sum)
    rho_sum = _weighted_sum(x[5:10], inner)  # terms 6..10: (grad rho/rho) . grad I_j
    if rho_sum is not None:
        out = out + hv.dot_grad_log_rho(gradient(grid, rho_sum))
    # terms 11..13: grad S . grad I_j for j = I1, I3, I2
    s_sum = _weighted_sum(x[10:13], (inner[0], inner[2], inner[1]))
    if s_sum is not None:
        out = out + hv.dot_grad_s(gradient(grid, s_sum))
    return hv.zero_masked(out)


def _weighted_sum(weights, fields):
    """sum_j w_j f_j over the nonzero weights, or None if all are zero."""
    terms = [w * f for w, f in zip(weights, fields) if w != 0.0]
    return sum(terms) if terms else None


def functional_pair(coeffs: CoeffSet, hv: HydroView) -> tuple:
    """(F_a, F_b) fields for a full coefficient set, including the optional
    separability-breaking probe x14 (Lap S)^2 in the Hermitian half.  The
    inner scalars are built once for both halves."""
    inner = _inner_scalars(hv)
    fa = _evaluate(coeffs.a, coeffs.variant, hv, inner)
    fb = _evaluate(coeffs.b, coeffs.variant, hv, inner)
    if coeffs.x14 != 0.0:
        fb = fb + forbidden_term(hv, coeffs.x14)
    return fa, fb


def forbidden_term(hv: HydroView, x14: float) -> np.ndarray:
    """x14 (Lap S)^2: homogeneous of degree zero but not additively
    separable over product states; used only as a negative control."""
    if x14 == 0.0:
        return np.zeros(hv.grid.shape)
    return hv.zero_masked(x14 * hv.lap_s**2)


def homogeneity_check(coeffs: CoeffSet, hv: HydroView, hv_l: HydroView) -> float:
    """max |F[lam psi] - F[psi]| over both halves at points unmasked in both
    views, relative to max |F[psi]|; ``hv`` and ``hv_l`` are the views of psi
    and of lam psi, which must not vanish."""
    if hv_l.rho_max == 0.0:
        raise ValueError("lam must be nonzero")
    keep = ~(hv.mask | hv_l.mask)
    dev = scale = 0.0
    for f, f_l in zip(functional_pair(coeffs, hv), functional_pair(coeffs, hv_l)):
        scale = max(scale, np.abs(f).max())
        dev = max(dev, float(np.abs(np.where(keep, f_l - f, 0.0)).max()))
    return dev / max(scale, 1e-30)
