"""Time evolution of the modified equation.

The canonical form integrated here is

    i hbar dpsi/dt = (-hbar^2/2m Lap + V) psi
                     - (i hbar D / 2) F_{a} psi + hbar D F_{b} psi,

i.e. dpsi/dt = -(i/hbar)(H_L psi) - (D/2) F_a psi - i D F_b psi.  The F_a
half feeds the continuity equation, the F_b half the phase.

The nonlinear operator is the multiplier c(x) of :func:`nonlinear_multiplier`,
which the Ehrenfest corrections also read.  It picks one of two engines from
the coefficient type; every other per-type fact is a method of the type:

* ``MEParams`` (the three-parameter fourth-order variant) uses the
  density-weighted composites of :mod:`nlse4.hydro`.  They are robust on
  localized states, annihilate quadratic-phase states exactly, and the
  continuity contribution is a spectral total divergence, so the norm is
  conserved to roundoff.
* generic ``CoeffSet`` arrays use the bare functional evaluator, which is
  spectrally exact on effectively nodeless states (plane-wave backgrounds,
  band-limited random states); strongly localized states should prefer the
  three-parameter engine.

The default integrator is an integrating-factor RK4: the stiff kinetic part
advances exactly in Fourier space every stage, leaving only potential and
nonlinear terms to the explicit scheme.  Norm drift beyond tolerance aborts
the run rather than renormalizing, so continuity bugs cannot hide.

A dynamical property worth knowing when planning runs: linearizing the
three-parameter variant around a smooth active state (natural units) gives
perturbation growth at wavenumbers q with D1 q^2 > 1,

    lambda(q) = [-b1 q^4 + sqrt(b1^2 q^8 + q^4 (D1 q^2 - 1))] / 2,

approximately (D1 q^2 - 1)/(4 b1) once the b1 term dominates.  States the
operator annihilates (quadratic phases) are immune because the gated
nonlinearity returns exact zeros, but runs with active nonlinearity amplify
roundoff at up to lambda(k_max); choose window length, resolution and b1 so
that lambda(k_max) * t_end stays well below ln(tolerance/1e-16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import MEParams, is_linear
from .functionals import functional_pair
from .hydro import (
    DEFAULT_EPS_RHO,
    DEFAULT_GATE_FACTOR,
    DEFAULT_RATIO_FLOOR,
    HydroView,
    fourth_order_composites,
    hydro_decompose,
)
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, laplacian
from .states import Potential

#: Fraction of the Nyquist wavenumber above which modes are zeroed each step.
#: States must keep their content below this band; the filter only removes
#: roundoff accumulation that fourth-order composites would amplify.
DEFAULT_FILTER_FRACTION = 0.8

#: Explicit-stage stability margin |lambda| dt <= RK4_STABILITY.
RK4_STABILITY = 2.5

#: Masked-fraction guard inside a run; tail-safe boxes for fourth-order work
#: put well over a quarter of their points under the density floor.
DEFAULT_MASK_LIMIT = 0.95


class StabilityError(ValueError):
    """Time step violates the documented stability bound."""


class EvolutionAbort(RuntimeError):
    """Evolution stopped on norm drift or non-finite samples."""

    def __init__(self, reason: str, t_last: float, trajectory: "Trajectory"):
        self.reason = reason
        self.t_last = t_last
        self.trajectory = trajectory
        super().__init__(f"evolution aborted at t = {t_last:.6g}: {reason}")


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_end: float
    coeffs: object = None  # CoeffSet | MEParams | None for linear
    constants: PhysicalConstants = NATURAL_UNITS
    potential: Potential | None = None
    integrator: str = "ifrk4"
    stride: int = 50
    norm_tol: float = 1e-6
    eps_rho: float = DEFAULT_EPS_RHO
    gate_factor: float = DEFAULT_GATE_FACTOR
    ratio_floor: float = DEFAULT_RATIO_FLOOR
    mask_limit: float = DEFAULT_MASK_LIMIT
    filter_fraction: float = DEFAULT_FILTER_FRACTION
    observables: bool = True
    store_fields: bool = True

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be positive")
        if self.integrator not in ("ifrk4", "rk4"):
            raise ValueError(f"integrator must be 'ifrk4' or 'rk4', got {self.integrator!r}")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")

    def n_steps(self) -> int:
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        return n


@dataclass
class Trajectory:
    """Stored snapshots (t, psi) and per-snapshot observables."""

    grid: Grid
    config: EvolutionConfig
    ts: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    observables: list = field(default_factory=list)

    def append(self, t: float, psi: np.ndarray, sample=None):
        if self.ts and t <= self.ts[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.ts.append(t)
        if self.config.store_fields:
            self.fields.append(psi.copy())
        if sample is not None:
            self.observables.append(sample)

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


def nonlinear_multiplier(
    grid: Grid,
    psi: np.ndarray,
    coeffs,
    eps_rho: float = DEFAULT_EPS_RHO,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
    mask_limit: float = DEFAULT_MASK_LIMIT,
    hv: HydroView | None = None,
):
    """The complex field c(x) with nonlinear dpsi/dt = c(x) psi, or None.

    H_NL = i H_I + H_R with H_I = hbar Re c (continuity channel) and
    H_R = -hbar Im c (phase channel).  ``mask_limit`` guards the
    decomposition made when ``hv`` is not supplied.
    """
    if is_linear(coeffs):
        return None
    if hv is None:
        hv = hydro_decompose(grid, psi, eps_rho=eps_rho, max_masked_fraction=mask_limit)
    if isinstance(coeffs, MEParams):
        fo = fourth_order_composites(hv, gate_factor=gate_factor, ratio_floor=ratio_floor)
        return -(0.5 * coeffs.D1) * fo.u - 1j * (coeffs.b1 * fo.t1 + coeffs.b6 * fo.t6)
    fa, fb = functional_pair(coeffs, hv)
    return -(0.5 * coeffs.D) * fa - 1j * coeffs.D * fb


def nonlinear_rhs(
    grid: Grid,
    psi: np.ndarray,
    potential: Potential | None,
    coeffs,
    constants: PhysicalConstants = NATURAL_UNITS,
    eps_rho: float = DEFAULT_EPS_RHO,
    gate_factor: float = DEFAULT_GATE_FACTOR,
    ratio_floor: float = DEFAULT_RATIO_FLOOR,
    mask_limit: float = DEFAULT_MASK_LIMIT,
) -> np.ndarray:
    """Full dpsi/dt including the kinetic and potential terms."""
    hbar, m = constants.hbar, constants.mass
    out = -1j / hbar * (-(hbar**2) / (2.0 * m) * laplacian(grid, psi))
    if potential is not None:
        out = out - 1j / hbar * potential.values * psi
    mult = nonlinear_multiplier(
        grid, psi, coeffs, eps_rho=eps_rho, gate_factor=gate_factor,
        ratio_floor=ratio_floor, mask_limit=mask_limit,
    )
    if mult is not None:
        out = out + mult * psi
    return out


def stability_bound(
    grid: Grid,
    coeffs,
    constants: PhysicalConstants = NATURAL_UNITS,
    potential: Potential | None = None,
) -> float:
    """Largest stable dt for the explicit stages (empirically calibrated).

    The exactly propagated kinetic part imposes no constraint; the explicit
    rate is the potential plus the nonlinear terms acting at the grid's
    maximum wavenumber (k^2 for the second-order family, k^4 for the
    fourth-order one).
    """
    rate = 0.0
    if potential is not None:
        rate += float(np.abs(potential.values).max()) / constants.hbar
    if not is_linear(coeffs):
        rate += coeffs.explicit_rate(grid.kmax)
    if rate == 0.0:
        return np.inf
    return RK4_STABILITY / rate


def suggest_dt(grid, coeffs, constants=NATURAL_UNITS, potential=None, safety: float = 0.3) -> float:
    bound = stability_bound(grid, coeffs, constants, potential)
    if not np.isfinite(bound):
        return 1e-3
    return safety * bound


def _filter_mask(grid: Grid, fraction: float) -> np.ndarray:
    if fraction >= 1.0:
        return np.ones(grid.shape)
    k2 = grid.k_squared()
    return (k2 <= (fraction * grid.kmax) ** 2).astype(float)


def evolve(grid: Grid, psi0: np.ndarray, config: EvolutionConfig) -> Trajectory:
    """Advance psi0 to t_end, sampling observables every ``stride`` steps.

    Raises :class:`EvolutionAbort` (carrying the partial trajectory and the
    last good time) on norm drift beyond tolerance or non-finite samples,
    and :class:`StabilityError` if dt exceeds the documented bound.
    """
    from .diagnostics import observables_sample

    grid.validate_field(psi0)
    n_steps = config.n_steps()

    hbar, m = config.constants.hbar, config.constants.mass
    psi = np.ascontiguousarray(psi0, dtype=complex)
    vol = grid.cell_volume
    norm0 = float((np.abs(psi) ** 2).sum() * vol)

    symbol = -1j * hbar * grid.k_squared() / (2.0 * m)
    e_half = np.exp(symbol * (config.dt / 2.0))
    e_full = e_half * e_half
    filt = _filter_mask(grid, config.filter_fraction)

    pot_vals = config.potential.values if config.potential is not None else None

    def N(p):
        out = None
        if pot_vals is not None:
            out = (-1j / hbar) * pot_vals * p
        mult = nonlinear_multiplier(
            grid, p, config.coeffs, eps_rho=config.eps_rho,
            gate_factor=config.gate_factor, ratio_floor=config.ratio_floor,
            mask_limit=config.mask_limit,
        )
        if mult is not None:
            term = mult * p
            out = term if out is None else out + term
        if out is None:
            return np.zeros_like(p)
        return out

    traj = Trajectory(grid=grid, config=config)
    prev_snapshot = None

    def record(t, p):
        nonlocal prev_snapshot
        sample = None
        if config.observables:
            sample = observables_sample(
                grid,
                p,
                t,
                config.potential,
                config.coeffs,
                config.constants,
                prev=prev_snapshot,
                eps_rho=config.eps_rho,
                gate_factor=config.gate_factor,
                ratio_floor=config.ratio_floor,
            )
        traj.append(t, p, sample)
        prev_snapshot = (t, p.copy())

    # initial state passes through the band-limit filter once
    psi = np.fft.ifftn(filt * np.fft.fftn(psi))

    # Step-size guard.  The k_max^4 nonlinear rate only binds when the
    # nonlinearity is actually active on the initial state; on states it
    # annihilates (quadratic phases, eigenstates) the explicit stage is
    # potential-limited, and the norm guard below catches any activation
    # later in the run.
    mult0 = nonlinear_multiplier(
        grid, psi, config.coeffs, eps_rho=config.eps_rho,
        gate_factor=config.gate_factor, ratio_floor=config.ratio_floor,
        mask_limit=config.mask_limit,
    )
    active = mult0 is not None and float(np.abs(mult0).max()) > 0.0
    bound = stability_bound(
        grid, config.coeffs if active else None, config.constants, config.potential
    )
    if config.dt > bound:
        raise StabilityError(f"dt = {config.dt:.3e} exceeds stability bound {bound:.3e}")

    record(0.0, psi)

    dt = config.dt
    t = 0.0
    for step in range(1, n_steps + 1):
        if config.integrator == "ifrk4":
            psi_hat = np.fft.fftn(psi)
            a_hat = np.fft.fftn(N(psi))
            psi2 = np.fft.ifftn(e_half * (psi_hat + (0.5 * dt) * a_hat))
            b_hat = np.fft.fftn(N(psi2))
            psi3 = np.fft.ifftn(e_half * psi_hat + (0.5 * dt) * b_hat)
            c_hat = np.fft.fftn(N(psi3))
            psi4 = np.fft.ifftn(e_full * psi_hat + dt * e_half * c_hat)
            d_hat = np.fft.fftn(N(psi4))
            new_hat = filt * (
                e_full * psi_hat
                + (dt / 6.0) * (e_full * a_hat + 2.0 * e_half * (b_hat + c_hat) + d_hat)
            )
            psi = np.fft.ifftn(new_hat)
        else:  # plain rk4 on the full right-hand side

            def rhs(p):
                kin = np.fft.ifftn(-grid.k_squared() * np.fft.fftn(p))
                return (1j * hbar / (2.0 * m)) * kin + N(p)

            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * dt * k1)
            k3 = rhs(psi + 0.5 * dt * k2)
            k4 = rhs(psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            psi = np.fft.ifftn(filt * np.fft.fftn(psi))
        t = step * dt

        norm = float((psi.real**2 + psi.imag**2).sum() * vol)
        if not np.isfinite(norm):
            raise EvolutionAbort("non-finite samples", t - dt, traj)
        if abs(norm - norm0) > config.norm_tol * max(norm0, 1.0):
            raise EvolutionAbort(
                f"norm drift {abs(norm - norm0):.3e} exceeds tolerance {config.norm_tol:.1e}",
                t - dt,
                traj,
            )
        if step % config.stride == 0 or step == n_steps:
            record(t, psi)

    return traj


class BoostError(ValueError):
    """Boost velocity incommensurate with the periodic box."""


def galilean_boost(
    grid: Grid,
    psi: np.ndarray,
    v,
    t: float = 0.0,
    constants: PhysicalConstants = NATURAL_UNITS,
    beta: float = 1.0,
) -> np.ndarray:
    """Boost a snapshot taken at time ``t`` into the frame moving with -v.

    psi'(x) = psi(x - v t) * exp(i m_b (v.x - |v|^2 t / 2) / hbar)

    with m_b = m / beta (the ``beta`` hook applies the effective-mass
    rescaling of the second-order family; beta = 1 is the plain boost).
    A plane wave k maps to k + m_b v / hbar, and boosting commutes with the
    free evolution exactly.  Each m_b v_a L / hbar must be a multiple of
    2 pi so the boost phase is continuous across the periodic box.
    """
    grid.validate_field(psi)
    hbar, m = constants.hbar, constants.mass
    if beta == 0.0:
        raise BoostError("beta must be nonzero")
    m_b = m / beta
    vs = np.atleast_1d(np.asarray(v, dtype=float))
    if vs.size == 1 and grid.dims == 2:
        vs = np.repeat(vs, 2)
    if vs.size != grid.dims:
        raise BoostError(f"need one velocity component per axis, got {vs.size}")
    for va in vs:
        q = m_b * va * grid.length / (2.0 * np.pi * hbar)
        if abs(q - round(q)) > 1e-9:
            raise BoostError(
                f"velocity component {va} is incommensurate: m v L / hbar = {q} * 2 pi must be integral"
            )
    # translation by v t via exact Fourier shift
    psi_hat = np.fft.fftn(psi)
    shift = 1.0
    for a in range(grid.dims):
        shift = shift * np.exp(-1j * grid.k_along(a) * (vs[a] * t))
    shifted = np.fft.ifftn(psi_hat * shift)
    xs = grid.coords()
    phase = sum(m_b * vs[a] * xs[a] for a in range(grid.dims)) - 0.5 * m_b * float(vs @ vs) * t
    return shifted * np.exp(1j * phase / hbar)


class GaugeFormError(ValueError):
    """Vector-potential form undefined for the requested parameters."""


def gauge_form_residual(
    grid: Grid,
    psi: np.ndarray,
    me: MEParams,
    constants: PhysicalConstants = NATURAL_UNITS,
    eps_rho: float = DEFAULT_EPS_RHO,
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

    from .spectral import gradient, divergence

    hv = hydro_decompose(grid, psi, eps_rho=eps_rho)
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
        w = np.where(hv.mask, 0.0, A_dot_grad * psi.conj() / hv.safe_rho)
        c1 = 2.0 * m * me.b1 / a_const
        c2 = 2.0 * m * me.b6 / a_const
        op23 = (
            -(1.0 / (2.0 * m)) * cov
            - (1.0 / (2.0 * m)) * A_sq * psi
            + (c1 / (2.0 * m)) * div_A * psi
            + (1.0 / (2.0 * m)) * (c2 * w.real + 2.0 * w.imag) * psi
        )

    diff = np.where(hv.mask, 0.0, op23 - op16)
    return float(np.abs(diff).max())
