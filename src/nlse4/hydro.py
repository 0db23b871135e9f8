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

The decomposition and its composites fill the arrays their transforms
read and write (the [rho, g, grad rho] and [P, F] stacks, their spectra,
the Lap rho / div g and composites spectra and rows, and the gated ratios)
through ``out=``, each taken by name from a workspace, a dict that maps
the name to its array (``_take``): a standalone call has none and lets
numpy allocate each array where it is made, and the time stepper passes a
stage's decomposition its run's workspace (see :mod:`nlse4.evolution`).
The view records its workspace, so its composites take their arrays from
the same one.  Every other temporary is a plain numpy expression.

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
    _half_shape,
    _ik,
    _inverse,
    _inverse_and_gradient,
    _laplacian_and_ik,
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


def _take(ws: dict | None, grid: Grid, name: str, rows: tuple | None, dtype: type = float,
          half: bool = False, written: bool = False) -> np.ndarray | None:
    """The array ``name`` of the workspace ``ws``, allocated on its first
    request: ``rows`` leading rows (a pair (a, b) for a + b * dims rows,
    None for one field) over the grid, or over the half spectrum of a real
    field if ``half``.  Each name is taken at one call site with one shape.
    Without a workspace (a standalone call, or a grid over
    ``evolution._WORKSPACE_POINTS`` points) an array the code fills row by
    row is ``written`` and allocated anew; any other is the ``out=`` of the
    call that makes it, and is None, so that numpy allocates it there."""
    arr = None if ws is None else ws.get(name)
    if arr is None and (ws is not None or written):
        shape = _half_shape(grid) if half else grid.shape
        if rows is not None:
            shape = (rows[0] + rows[1] * grid.dims,) + shape
        arr = np.empty(shape, dtype)
        if ws is not None:
            ws[name] = arr
    return arr


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

    The mask costs nothing on a view with no masked point
    (``masked_fraction`` 0): ``safe_rho`` is ``rho`` itself, and
    :meth:`zero_masked`, the one place that zeroes masked points, returns
    its argument untouched.  ``rho``, ``g`` and ``grad_rho`` are the rows of
    one array, so :func:`noise_gate` reduces the gradient rows in one pass.
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
    #: the rows [g, grad_rho] of one array
    _grads: np.ndarray = field(repr=False)
    _fourth_order: "FourthOrder | None" = field(repr=False, default=None)
    #: the workspace the view's composites take their arrays from (None: fresh)
    _ws: dict | None = field(repr=False, default=None)

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
        """``arr`` with its masked points set to +0.0, in place, and
        returned; pass a fresh temporary.  A view with no masked point
        leaves ``arr`` as it is.  Assignment writes +0.0 wherever the
        masked value was negative, as ``np.where(mask, 0.0, arr)`` would;
        multiplying by the complement of the mask would leave -0.0 there."""
        if self.masked_fraction:
            arr[self.mask] = 0.0
        return arr

    def ratio(self, numerator: np.ndarray) -> np.ndarray:
        """numerator / rho with masked points zeroed."""
        return self.zero_masked(numerator / self.safe_rho)

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
    *,
    _ws: dict | None = None,
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
    dims = grid.dims
    if psi is None:
        if psi_hat is None:
            raise ValueError("need the wavefunction or its spectrum psi_hat")
        grid.validate_field(psi_hat)
        if not np.logical_and.reduce(np.isfinite(psi_hat), axis=None):
            raise ValueError("spectrum contains non-finite samples")
        psi, dpsi = _inverse_and_gradient(grid, psi_hat, stack=_take(_ws, grid, "psi_rows", (1, 1), complex))
    else:
        grid.validate_field(psi)
        if not np.logical_and.reduce(np.isfinite(psi), axis=None):
            raise ValueError("wavefunction contains non-finite samples")
        psi = np.ascontiguousarray(psi, dtype=complex)
        _, dpsi = _inverse_and_gradient(grid, _forward(grid, psi, False) if psi_hat is None else psi_hat,
                                        with_psi=False)
    smooth = _take(_ws, grid, "smooth", (1, 2), written=True)

    # rho, g and grad_rho share one stack; rho and g, whose transforms are
    # taken, lead it, so each transform of them is one call
    rho = np.multiply(psi.real, psi.real, out=smooth[0])
    rho += psi.imag**2
    conj = psi.conj()
    for a, da in enumerate(dpsi):
        cd = conj * da
        smooth[1 + a] = cd.imag
        np.multiply(cd.real, 2.0, out=smooth[1 + dims + a])
    g, grad_rho = list(smooth[1:1 + dims]), list(smooth[1 + dims:])

    rho_max = float(np.maximum.reduce(rho, axis=None))
    if rho_max == 0.0:
        raise ValueError("wavefunction vanishes identically")
    mask = rho < eps_rho * rho_max
    masked = np.count_nonzero(mask)

    # Lap rho and div g, from one forward and one inverse transform of stacks
    smooth_hat = _take(_ws, grid, "smooth_hat", (1, 1), complex, half=True)
    spec = _forward(grid, smooth[:1 + dims], True, out=smooth_hat)
    lap_div_hat = np.multiply(_laplacian_and_ik(grid.n, grid.length, dims), spec[:2],
                              out=_take(_ws, grid, "lap_div_hat", (2, 0), complex, half=True))
    for a in range(1, dims):
        lap_div_hat[1] += _ik(grid, a, True) * spec[1 + a]
    lap_rho, div_g = _inverse(grid, lap_div_hat, True, out=_take(_ws, grid, "lap_div", (2, 0)))

    dot = grad_rho[0] * g[0]
    for a in range(1, dims):
        dot += grad_rho[a] * g[a]
    hv = HydroView(
        grid=grid,
        psi=psi,
        rho=rho,
        mask=mask,
        rho_max=rho_max,
        masked_fraction=masked / mask.size,
        eps_rho=eps_rho,
        gate_factor=gate_factor,
        ratio_floor=ratio_floor,
        g=g,
        grad_rho=grad_rho,
        lap_rho=lap_rho,
        rho_lap_s=div_g,
        safe_rho=np.where(mask, 1.0, rho) if masked else rho,
        _grads=smooth[1:],
        _ws=_ws,
    )
    # rho*Lap S = div g - grad_rho . g / rho, all built from smooth fields
    div_g -= hv.ratio(dot)
    return hv


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

    The scale is max(1, max|g|, max|grad rho|, max|rho Lap S|, max rho).  g
    and grad rho are rows of one array and take one abs-max between them.
    """
    kM = 1.0 + hv.grid.kmax
    scale = max(1.0, np.abs(hv._grads).max(), abs(hv.rho_lap_s).max(), hv.rho_max)
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

    q = grad P - F with F_a = (P/rho) d_a rho is linear in the spectra of P
    and F, so one forward transform of the stack [P, F_1, ...] and one
    inverse of [div q, Lap P, d_1 P, ...] give them all, with
    div q = sum_a ik_a (ik_a P^ - F_a^).  div q applies the odd symbol ik_a
    twice, as ``divergence(grid, q)`` does, so its Nyquist modes are zero;
    -|k|^2 P^ - sum_a ik_a F_a^ would keep them.
    """
    grid, dims = hv.grid, hv.grid.dims
    ws = hv._ws
    PF = _take(ws, grid, "PF", (1, 1), written=True)
    spec = _take(ws, grid, "composites_hat", (2, 1), complex, half=True, written=True)
    gated = _take(ws, grid, "gated_ratios", (3, 0), written=True)
    P = hv.rho_lap_s
    ratio_P = hv.ratio(P)
    PF[0] = P
    F = np.multiply(ratio_P, hv._grads[dims:], out=PF[1:])
    P_hat, *F_hat = _forward(grid, PF, True, out=_take(ws, grid, "PF_hat", (1, 1), complex, half=True))
    # spec[1:3] = [Lap P^, ik_1 P^]
    np.multiply(_laplacian_and_ik(grid.n, grid.length, dims), P_hat, out=spec[1:3])
    ik = _ik(grid, 0, True)
    np.subtract(spec[2], F_hat[0], out=spec[0])
    spec[0] *= ik
    for a in range(1, dims):
        ik = _ik(grid, a, True)
        np.multiply(ik, P_hat, out=spec[2 + a])
        spec[0] += ik * (spec[2 + a] - F_hat[a])
    # of the rows [div q, Lap P, d_1 P, ...] the first three become the
    # numerators [div q, r1, r6]
    rows = _inverse(grid, spec, True, out=_take(ws, grid, "composites", (2, 1)))
    nums = rows[:3]
    div_q, r1, r6 = nums
    dot = hv.grad_rho[0] * (r6 - F[0])
    for a in range(1, dims):
        dot += hv.grad_rho[a] * (rows[2 + a] - F[a])
    r6[...] = hv.ratio(dot)
    r1 -= 2.0 * r6
    r1 -= ratio_P * hv.lap_rho

    gate = noise_gate(hv)
    # unmasked and above the ratio floor in one comparison: float rounding
    # is monotone, so max(a, b) * rho_max = max(a * rho_max, b * rho_max)
    dense = hv.rho >= max(hv.eps_rho, hv.ratio_floor) * hv.rho_max
    # the ratios where dense and the numerator clears the noise gate, +0.0
    # elsewhere: the bits np.where(keep, nums / safe_rho, 0.0) writes
    keep = dense & (np.abs(nums) > gate)
    gated.fill(0.0)
    u, t1, t6 = np.divide(nums, hv.safe_rho, out=gated, where=keep)
    return FourthOrder(div_q=div_q, u=u, t1=t1, t6=t6, gate=gate)
