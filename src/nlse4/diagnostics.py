"""Energies, Ehrenfest-relation residuals, and the weak-separability harness.

The two energies are

    E_L  = integral of (hbar^2/2m)[(grad R)^2 + (grad S)^2 R^2] + V R^2
    E_ME = E_L + hbar (b1 - b6) * integral of rho Lap(Lap S)

with R = sqrt(rho); the modified Ehrenfest relations read

    m d<x>/dt = <p> + I1,        d<p>/dt = -<grad V> + I2,

where I1, I2 are the corrections induced by the non-Hermitian and Hermitian
nonlinear parts.  They are read off the multiplier the evolution applies
(:func:`nlse4.evolution.nonlinear_multiplier`), so the residual check is
end-to-end: time derivatives come from centered differences over stored
snapshots, never from analytic identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import is_linear
from .currents import continuity_residual
from .evolution import nonlinear_multiplier
from .hydro import (
    DEFAULT_EPS_RHO,
    DEFAULT_GATE_FACTOR,
    DEFAULT_RATIO_FLOOR,
    HydroView,
    fourth_order_composites,
    hydro_decompose,
)
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, gradient
from .states import Potential, check_tails


@dataclass(frozen=True)
class ObservablesSample:
    """Per-snapshot record; vector quantities carry one entry per axis."""

    t: float
    norm: float
    e_l: float
    e_me: float
    x_mean: tuple
    p_mean: tuple
    i1: tuple
    i2: tuple
    grad_v_mean: tuple
    cont_residual: float

    def __post_init__(self):
        vals = [self.t, self.norm, self.e_l, self.e_me, self.cont_residual]
        vals += list(self.x_mean) + list(self.p_mean) + list(self.i1) + list(self.i2)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("observables contain non-finite entries")
        if not self.norm > 0:
            raise ValueError("norm must be positive")


def expectation_x(grid: Grid, psi: np.ndarray, enforce_tails: bool = False) -> tuple:
    """<x> per axis on centered coordinates; optionally errors on fat tails."""
    if enforce_tails:
        check_tails(grid, psi)
    rho = np.abs(psi) ** 2
    return tuple(float(grid.integrate(x * rho)) for x in grid.coords())


def expectation_p(grid: Grid, psi: np.ndarray, constants: PhysicalConstants = NATURAL_UNITS) -> tuple:
    """<p> per axis, hbar * integral of Im(conj(psi) grad psi)."""
    dpsi = gradient(grid, psi)
    conj = psi.conj()
    return tuple(float(constants.hbar * grid.integrate((conj * d).imag)) for d in dpsi)


def energy(
    grid: Grid,
    psi: np.ndarray,
    potential: Potential | None,
    coeffs,
    constants: PhysicalConstants = NATURAL_UNITS,
    eps_rho: float = DEFAULT_EPS_RHO,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
    hv: HydroView | None = None,
) -> tuple:
    """(E_L, E_ME).  The fourth-order correction vanishes identically for
    quadratic phases and whenever b1 = b6.  ``hv`` is an existing
    decomposition of ``psi`` (floor ``eps_rho``, any mask limit)."""
    if hv is None:
        hv = hydro_decompose(grid, psi, eps_rho=eps_rho, max_masked_fraction=1.0)
    hbar, m = constants.hbar, constants.mass
    grad_r_sq = 0.25 * hv.ratio(sum(d * d for d in hv.grad_rho))
    rho_grad_s_sq = hv.ratio(sum(ga * ga for ga in hv.g))
    dens = (hbar**2 / (2.0 * m)) * (grad_r_sq + rho_grad_s_sq)
    if potential is not None:
        dens = dens + potential.values * hv.rho
    e_l = float(grid.integrate(dens))

    b1, b6 = (0.0, 0.0) if is_linear(coeffs) else coeffs.b1_b6()
    if b1 == b6:
        return e_l, e_l
    fo = fourth_order_composites(hv, gate_factor=gate_factor, ratio_floor=ratio_floor)
    rho_lap_lap_s = fo.t1 * hv.rho  # gated numerator
    e_me = e_l + hbar * (b1 - b6) * float(grid.integrate(rho_lap_lap_s))
    return e_l, e_me


def ehrenfest_corrections(
    grid: Grid,
    psi: np.ndarray,
    coeffs,
    constants: PhysicalConstants = NATURAL_UNITS,
    eps_rho: float = DEFAULT_EPS_RHO,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
    enforce_tails: bool = True,
    hv: HydroView | None = None,
) -> tuple:
    """(I1, I2) per axis for one state.

        I1 = (2m/hbar) integral of x rho H_I
        I2 = integral of rho (2 H_I grad S - grad H_R)

    with H_I = hbar Re c and H_R = -hbar Im c from the evolution's
    multiplier c (both zero for the linear equation).
    The position-weighted integrand decays with rho, but the centered box
    coordinate still requires decayed tails, which are enforced by default.
    ``hv`` is an existing decomposition of ``psi`` (floor ``eps_rho``).
    """
    if enforce_tails:
        check_tails(grid, psi)
    hbar, m = constants.hbar, constants.mass
    if hv is None:
        hv = hydro_decompose(grid, psi, eps_rho=eps_rho, max_masked_fraction=1.0)
    c = nonlinear_multiplier(grid, psi, coeffs, gate_factor=gate_factor, ratio_floor=ratio_floor, hv=hv)
    if c is None:
        h_i = h_r = np.zeros(grid.shape)
    else:
        h_i, h_r = hbar * c.real, -hbar * c.imag
    rho_h_i = h_i * hv.rho
    xs = grid.coords()
    i1 = tuple(float((2.0 * m / hbar) * grid.integrate(x * rho_h_i)) for x in xs)
    # rho grad H_R = grad(rho H_R) - H_R grad rho, assembled from decaying fields
    rho_h_r = h_r * hv.rho
    d_rho_h_r = gradient(grid, rho_h_r)
    i2 = []
    for a in range(grid.dims):
        rho_grad_h_r = d_rho_h_r[a] - h_r * hv.grad_rho[a]
        i2.append(float(grid.integrate(2.0 * h_i * hv.g[a] - rho_grad_h_r)))
    return i1, tuple(i2)


def observables_sample(
    grid: Grid,
    psi: np.ndarray,
    t: float,
    potential: Potential | None,
    coeffs,
    constants: PhysicalConstants = NATURAL_UNITS,
    prev=None,
    eps_rho: float = DEFAULT_EPS_RHO,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
) -> ObservablesSample:
    """Assemble one observables record; ``prev`` is the previous snapshot
    (t, psi) used for the finite-difference continuity residual.  The
    snapshot is decomposed once, and energy, Ehrenfest corrections and
    residual share that view."""
    hv = hydro_decompose(grid, psi, eps_rho=eps_rho, max_masked_fraction=1.0)
    norm = float(grid.integrate(np.abs(psi) ** 2))
    e_l, e_me = energy(grid, psi, potential, coeffs, constants, eps_rho, gate_factor, ratio_floor, hv=hv)
    x_mean = expectation_x(grid, psi)
    p_mean = expectation_p(grid, psi, constants)
    i1, i2 = ehrenfest_corrections(
        grid, psi, coeffs, constants, eps_rho, gate_factor, ratio_floor, enforce_tails=False, hv=hv
    )
    if potential is not None:
        rho = np.abs(psi) ** 2
        gv = tuple(float(grid.integrate(g * rho)) for g in potential.grad)
    else:
        gv = (0.0,) * grid.dims
    cont = 0.0
    if prev is not None:
        t_prev, psi_prev = prev
        if t > t_prev:
            _, cont = continuity_residual(
                grid, psi_prev, psi, t - t_prev, coeffs, constants, eps_rho=eps_rho, hv_after=hv
            )
    return ObservablesSample(
        t=t, norm=norm, e_l=e_l, e_me=e_me, x_mean=x_mean, p_mean=p_mean,
        i1=i1, i2=i2, grad_v_mean=gv, cont_residual=float(cont),
    )


@dataclass
class EhrenfestReport:
    """Centered-difference residuals of the modified Ehrenfest relations at
    the interior snapshot times."""

    ts: np.ndarray
    r1: np.ndarray  # shape (n_interior, dims)
    r2: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    p_mean: np.ndarray
    include_i1: bool
    include_i2: bool

    @property
    def max_r1(self) -> float:
        return float(np.abs(self.r1).max())

    @property
    def max_r2(self) -> float:
        return float(np.abs(self.r2).max())


def ehrenfest_consistency(trajectory, include_i1: bool = True, include_i2: bool = True) -> EhrenfestReport:
    """Residuals r1 = m d<x>/dt - <p> - I1 and r2 = d<p>/dt + <grad V> - I2
    from a trajectory's sampled observables.  ``include_i1=False`` zeroes
    the correction, the negative control showing it is needed."""
    samples = trajectory.observables
    if len(samples) < 3:
        raise ValueError("need at least 3 sampled snapshots for centered differences")
    m = trajectory.config.constants.mass
    ts = np.array([s.t for s in samples])
    xs = np.array([s.x_mean for s in samples])
    ps = np.array([s.p_mean for s in samples])
    gv = np.array([s.grad_v_mean for s in samples])
    i1 = np.array([s.i1 for s in samples])
    i2 = np.array([s.i2 for s in samples])
    if not np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9, atol=0.0):
        raise ValueError("snapshots must be uniformly spaced for centered differences")
    h = ts[1] - ts[0]
    dx_dt = (xs[2:] - xs[:-2]) / (2.0 * h)
    dp_dt = (ps[2:] - ps[:-2]) / (2.0 * h)
    mid = slice(1, -1)
    r1 = m * dx_dt - ps[mid] - (i1[mid] if include_i1 else 0.0)
    r2 = dp_dt + gv[mid] - (i2[mid] if include_i2 else 0.0)
    return EhrenfestReport(
        ts=ts[mid], r1=r1, r2=r2, i1=i1[mid], i2=i2[mid], p_mean=ps[mid],
        include_i1=include_i1, include_i2=include_i2,
    )


def separability_test(
    grid: Grid,
    psi1: np.ndarray,
    psi2: np.ndarray,
    potential1: Potential | None,
    potential2: Potential | None,
    coeffs,
    t_end: float,
    dt: float,
    stride: int = 50,
    constants: PhysicalConstants = NATURAL_UNITS,
    eps_rho_2d: float = 1e-14,
    gate_factor: float = DEFAULT_GATE_FACTOR,
) -> float:
    """Max deviation between a jointly evolved product state and the tensor
    product of its independently evolved factors, over the sampled times.

    Both subsystems share the same 1D grid, mass and coefficient set; the
    joint potential is additive.  The 2D run uses a smaller density floor
    because the corners of a product state sit at the product of two tail
    densities.  Grids above 128 points per axis are rejected (the 2D state
    would not be desk-scale).
    """
    from .evolution import EvolutionConfig, evolve
    from .spectral import make_grid

    if grid.dims != 1:
        raise ValueError("separability test composes two 1D subsystems")
    if grid.n > 128:
        raise ValueError("2D product grid capped at 128^2")

    grid2 = make_grid(2, grid.n, grid.length)
    psi_2d = np.outer(psi1, psi2)

    def pot2d():
        if potential1 is None and potential2 is None:
            return None
        v1 = potential1.values if potential1 is not None else np.zeros(grid.shape)
        v2 = potential2.values if potential2 is not None else np.zeros(grid.shape)
        g1 = potential1.grad[0] if potential1 is not None else np.zeros(grid.shape)
        g2 = potential2.grad[0] if potential2 is not None else np.zeros(grid.shape)
        zeros = np.zeros(grid2.shape)
        return Potential(
            values=v1[:, None] + v2[None, :],
            grad=(g1[:, None] + zeros, g2[None, :] + zeros),
        )

    common = dict(
        dt=dt, t_end=t_end, coeffs=coeffs, constants=constants, stride=stride,
        observables=False, gate_factor=gate_factor,
    )
    traj_2d = evolve(grid2, psi_2d, EvolutionConfig(potential=pot2d(), eps_rho=eps_rho_2d, **common))
    traj_1 = evolve(grid, psi1, EvolutionConfig(potential=potential1, **common))
    traj_2 = evolve(grid, psi2, EvolutionConfig(potential=potential2, **common))

    dev = 0.0
    for f2d, f1, f2 in zip(traj_2d.fields, traj_1.fields, traj_2.fields):
        dev = max(dev, float(np.abs(f2d - np.outer(f1, f2)).max()))
    return dev
