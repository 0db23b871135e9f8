"""Energies, Ehrenfest-relation residuals, the weak-separability harness and
the vector-potential (gauge) form check.

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

Every sample-side function (:func:`energy`, :func:`ehrenfest_corrections`,
:func:`observables_sample`) takes the record of a state
(:class:`nlse4.evolution.State`, built by :func:`nlse4.evolution.derive`),
never a bare psi: its view fixes the low-density gates (node floor, noise
gate, ratio floor), so every quantity of one sample reads the same gates,
and its current numerator, multiplier and current divergence are built once
however many quantities read them.

:func:`gauge_form_residual` compares the three-parameter variant's canonical
Hamiltonian form against its vector-potential form on one state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import MEParams, is_linear
from .currents import continuity_residual
from .evolution import EvolutionConfig, State, evolve
from .hydro import hydro_decompose
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, divergence, gradient, laplacian, make_grid
from .states import Potential, check_tails


class _NonFiniteSample(ValueError):
    """A sample with a non-finite entry; :func:`nlse4.evolution.evolve` aborts on it."""


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
            raise _NonFiniteSample("observables contain non-finite entries")
        if not self.norm > 0:
            raise ValueError("norm must be positive")


def energy(state: State, potential: Potential | None) -> tuple:
    """(E_L, E_ME) of one state, at the gates of its view.  The fourth-order
    correction vanishes identically for quadratic phases and whenever
    b1 = b6."""
    hv, grid, coeffs = state.hv, state.grid, state.coeffs
    hbar, m = state.constants.hbar, state.constants.mass
    grad_r_sq = 0.25 * hv.ratio(sum(d * d for d in hv.grad_rho))
    rho_grad_s_sq = hv.ratio(sum(ga * ga for ga in state.hv.g))
    dens = (hbar**2 / (2.0 * m)) * (grad_r_sq + rho_grad_s_sq)
    if potential is not None:
        dens = dens + potential.values * hv.rho
    e_l = float(grid.integrate(dens))

    b1, b6 = (0.0, 0.0) if is_linear(coeffs) else coeffs.b1_b6()
    if b1 == b6:
        return e_l, e_l
    fo = hv.fourth_order(keep=False)
    rho_lap_lap_s = fo.t1 * hv.rho  # gated numerator
    e_me = e_l + hbar * (b1 - b6) * float(grid.integrate(rho_lap_lap_s))
    return e_l, e_me


def ehrenfest_corrections(state: State, enforce_tails: bool = True) -> tuple:
    """(I1, I2) per axis for one state.

        I1 = (2m/hbar) integral of x rho H_I
        I2 = integral of rho (2 H_I grad S - grad H_R)

    with H_I = hbar Re c and H_R = -hbar Im c from the evolution's
    multiplier c, the record's ``mult`` (both zero for the linear equation).
    The position-weighted integrand decays with rho, but the centered box
    coordinate still requires decayed tails, which are enforced by default.
    """
    hv, grid, c = state.hv, state.grid, state.mult
    if enforce_tails:
        check_tails(grid, state.psi)
    hbar, m = state.constants.hbar, state.constants.mass
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


def observables_sample(state: State, t: float, potential: Potential | None, prev=None) -> ObservablesSample:
    """Assemble the observables of one state's record at time ``t``; ``prev``
    is the previous snapshot as a pair (t, record), used for the
    finite-difference continuity residual.  <p> is hbar times the integral
    of the view's current numerator g; it, the energy, the Ehrenfest
    corrections and the residual read the records, so no snapshot is
    decomposed here and psi is not transformed again.
    """
    grid = state.grid
    rho = np.abs(state.psi) ** 2
    norm = float(grid.integrate(rho))
    e_l, e_me = energy(state, potential)
    x_mean = tuple(float(grid.integrate(x * rho)) for x in grid.coords())
    p_mean = tuple(float(state.constants.hbar * grid.integrate(ga)) for ga in state.hv.g)
    i1, i2 = ehrenfest_corrections(state, enforce_tails=False)
    if potential is not None:
        gv = tuple(float(grid.integrate(g * rho)) for g in potential.grad)
    else:
        gv = (0.0,) * grid.dims
    cont = 0.0
    if prev is not None:
        t_prev, before = prev
        if t > t_prev:
            _, cont = continuity_residual(before, state, t - t_prev)
    return ObservablesSample(
        t=t, norm=norm, e_l=e_l, e_me=e_me, x_mean=x_mean, p_mean=p_mean,
        i1=i1, i2=i2, grad_v_mean=gv, cont_residual=float(cont),
    )


@dataclass
class EhrenfestReport:
    """Centered-difference residuals of the modified Ehrenfest relations at
    the interior snapshot times."""

    ts: np.ndarray
    r1_uncorrected: np.ndarray  # m d<x>/dt - <p>, shape (n_interior, dims)
    r1: np.ndarray
    r2: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    p_mean: np.ndarray

    @property
    def max_r1(self) -> float:
        return float(np.abs(self.r1).max())

    @property
    def max_r2(self) -> float:
        return float(np.abs(self.r2).max())

    @property
    def max_abs_i1(self) -> float:
        return float(np.abs(self.i1).max())


def ehrenfest_consistency(trajectory) -> EhrenfestReport:
    """Residuals r1 = m d<x>/dt - <p> - I1 and r2 = d<p>/dt + <grad V> - I2
    from a trajectory's sampled observables, plus r1 without its correction
    (the negative control showing I1 is needed)."""
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
    r1_uncorrected = m * dx_dt - ps[mid]
    r1 = r1_uncorrected - i1[mid]
    r2 = dp_dt + gv[mid] - i2[mid]
    return EhrenfestReport(ts=ts[mid], r1_uncorrected=r1_uncorrected, r1=r1, r2=r2,
                           i1=i1[mid], i2=i2[mid], p_mean=ps[mid])


#: Density floor of the joint 2D run in :func:`separability_test`.
_PRODUCT_EPS_RHO = 1e-14

#: Largest 1D grid :func:`separability_test` accepts; its product grid is n^2.
SEPARABILITY_MAX_N = 128


def separability_test(
    grid: Grid,
    psi1: np.ndarray,
    psi2: np.ndarray,
    potential1: Potential | None,
    potential2: Potential | None,
    coeffs,
    t_end: float,
    dt: float,
    stride: int = EvolutionConfig.stride,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> float:
    """Max deviation between a jointly evolved product state and the tensor
    product of its independently evolved factors, over the sampled times.

    Both subsystems share the same 1D grid, mass and coefficient set; the
    joint potential is additive.  The 2D run uses a smaller density floor
    because the corners of a product state sit at the product of two tail
    densities.  Grids above 128 points per axis are rejected (the 2D state
    would not be desk-scale).
    """
    if grid.dims != 1:
        raise ValueError("separability test composes two 1D subsystems")
    if grid.n > SEPARABILITY_MAX_N:
        raise ValueError(f"2D product grid capped at {SEPARABILITY_MAX_N}^2")

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
        observables=False,
    )
    traj_2d = evolve(grid2, psi_2d, EvolutionConfig(potential=pot2d(), eps_rho=_PRODUCT_EPS_RHO, **common))
    traj_1 = evolve(grid, psi1, EvolutionConfig(potential=potential1, **common))
    traj_2 = evolve(grid, psi2, EvolutionConfig(potential=potential2, **common))

    dev = 0.0
    for f2d, f1, f2 in zip(traj_2d.fields, traj_1.fields, traj_2.fields):
        dev = max(dev, float(np.abs(f2d - np.outer(f1, f2)).max()))
    return dev


class GaugeFormError(ValueError):
    """Vector-potential form undefined for the requested parameters."""


def gauge_form_residual(
    grid: Grid,
    psi: np.ndarray,
    me: MEParams,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> float:
    """Pointwise gap between the vector-potential form and the canonical
    Hamiltonian form of the three-parameter variant.

    The vector potential is A = a grad(Lap S) with a = -m D1 / hbar and
    c1 = 2 m b1 / a, c2 = 2 m b6 / a:

        i dpsi/dt = -(1/2m)(grad - iA)^2 psi - (1/2m) A^2 psi
                    + (c1/2m)(div A) psi
                    + (1/2m)[c2 Re(w) + 2 Im(w)] psi,   w = A.grad(psi)/psi,

    written in natural units (hbar = 1 is required).  The two forms agree
    identically for b6 = 0; for b6 != 0 the c2 channel carries a constant
    factor-of-two discrepancy (measured residual = |b6/2| max|T6 psi|),
    which is reported rather than silently absorbed.
    """
    if constants.hbar != 1.0:
        raise GaugeFormError("vector-potential form is defined in natural units (hbar = 1)")
    m = constants.mass
    a_const = -m * me.D1 / constants.hbar
    if a_const == 0.0 and (me.b1 != 0.0 or me.b6 != 0.0):
        raise GaugeFormError("a = 0 (D1 = 0) with nonzero b1/b6: c1, c2 undefined")

    hv = hydro_decompose(grid, psi)
    lap_psi = laplacian(grid, psi)
    grad_lap_s = gradient(grid, hv.lap_s)
    t1 = hv.zero_masked(laplacian(grid, hv.lap_s))
    t6 = hv.zero_masked(hv.dot_grad_log_rho(grad_lap_s))

    op16 = -(1.0 / (2.0 * m)) * lap_psi + (
        -0.5j * me.D1 * (t1 + t6) + (me.b1 * t1 + me.b6 * t6)
    ) * psi

    if a_const == 0.0:
        op23 = -(1.0 / (2.0 * m)) * lap_psi
    else:
        A = [a_const * comp for comp in grad_lap_s]
        div_A = divergence(grid, A)
        dpsi = gradient(grid, psi)
        A_dot_grad = sum(Aa * da for Aa, da in zip(A, dpsi))
        A_sq = sum(Aa * Aa for Aa in A)
        cov = lap_psi - 1j * div_A * psi - 2j * A_dot_grad - A_sq * psi
        w = hv.ratio(A_dot_grad * psi.conj())
        c1 = 2.0 * m * me.b1 / a_const
        c2 = 2.0 * m * me.b6 / a_const
        op23 = (
            -(1.0 / (2.0 * m)) * cov
            - (1.0 / (2.0 * m)) * A_sq * psi
            + (c1 / (2.0 * m)) * div_A * psi
            + (1.0 / (2.0 * m)) * (c2 * w.real + 2.0 * w.imag) * psi
        )

    diff = hv.zero_masked(op23 - op16)
    return float(np.abs(diff).max())
