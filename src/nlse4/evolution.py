"""Time stepping of the modified equation.

The canonical form integrated here is

    i hbar dpsi/dt = (-hbar^2/2m Lap + V) psi
                     - (i hbar D / 2) F_{a} psi + hbar D F_{b} psi,

i.e. dpsi/dt = -(i/hbar)(H_L psi) - (D/2) F_a psi - i D F_b psi.  The F_a
half feeds the continuity equation, the F_b half the phase.

The nonlinear operator is the multiplier c(x) of :func:`nonlinear_multiplier`,
which takes a decomposed view and which the Ehrenfest corrections also read.
It picks one of two engines from the coefficient type; every other per-type
fact is a method of the type:

* ``MEParams`` (the three-parameter fourth-order variant) uses the
  density-weighted composites of :mod:`nlse4.hydro`.  They are robust on
  localized states, annihilate quadratic-phase states exactly, and the
  continuity contribution is a spectral total divergence, so the norm is
  conserved to roundoff.
* generic ``CoeffSet`` arrays use the bare functional evaluator, which is
  spectrally exact on effectively nodeless states (plane-wave backgrounds,
  band-limited random states); strongly localized states should prefer the
  three-parameter engine.

Time stepping is integrating-factor RK4, the only scheme: the stiff kinetic
part advances exactly in Fourier space every stage, leaving only potential
and nonlinear terms to the explicit scheme.  A private stepper, built once
per run from the grid and the config, owns the step: the integrating
factors, the band filter, the potential values and the explicit stage.
:func:`evolve` checks the step size, then loops over step, norm guard and
record.  Norm drift beyond tolerance aborts the run rather than
renormalizing, so continuity bugs cannot hide; the guard reads each new psi
before it is transformed or derived.  A non-finite sample aborts too.

Every state the run touches is derived once, into one :class:`State`
record (its view, its multiplier and, on first read, its current
divergence), and each stage reuses:

* stage a: the step's record, built when the state was made (the initial
  state's before the step-size guard, which reads the same multiplier),
  and its spectrum fftn(psi);
* stages b, c and d: the spectrum each is synthesized from, the only input
  of their views (psi and its gradient come from one inverse); their
  records are freed when the stage returns;
* the observables sample of a state: that state's record, and the stored
  snapshot and current divergence of the previous sample's record, carried
  forward for the continuity residual.

A stage builds what its multiplier reads and no more: the view's ratio
fields are derived on first read (the generic engine reads them), and the
three-parameter composites are built once per view, so a sample's energy
reuses the multiplier's.  On a 1D grid the decomposition and the
composites transform their fields as stacks, one call per stack, so a 1D
three-parameter step makes 34 transform calls; a 2D grid keeps one call
per field.

The config's low-density gates (``eps_rho``, ``gate_factor``,
``ratio_floor``) reach every record through its view.  The stepper guards
every stage input of a nonlinear run against ``mask_limit``: an initial
state over it raises :class:`MaskOverflowError`, a later one aborts the
run.  A state that is only sampled (the final one, or any state of a
linear run) is not guarded.  Sampled states and stage a use fftn(psi), so
a sample recomputed standalone from the stored fields matches the run bit
for bit.  A caller that holds only a bare psi (:func:`nonlinear_rhs`, the
registry checks) decomposes it at the default gates.

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
from functools import cached_property

import numpy as np

from .coeffs import MEParams, is_linear
from .currents import current_divergence
from .functionals import functional_pair
from .hydro import DEFAULT_EPS_RHO, DEFAULT_GATE_FACTOR, DEFAULT_RATIO_FLOOR, HydroView, hydro_decompose
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, _forward, _inverse, laplacian
from .states import Potential

#: Fraction of the Nyquist wavenumber above which modes are zeroed each step.
#: States must keep their content below this band; the filter only removes
#: roundoff accumulation that fourth-order composites would amplify.
DEFAULT_FILTER_FRACTION = 0.8

#: Explicit-stage stability margin |lambda| dt <= RK4_STABILITY.
RK4_STABILITY = 2.5



class StabilityError(ValueError):
    """Time step violates the documented stability bound."""


class MaskOverflowError(ValueError):
    """More of a stage input than ``mask_limit`` lies below the density floor."""

    def __init__(self, fraction: float, limit: float):
        self.fraction, self.limit = fraction, limit
        super().__init__(f"{100 * fraction:.1f}% of grid points are below the density floor "
                         f"(limit {100 * limit:.0f}%); state too singular for this scheme")


class EvolutionAbort(RuntimeError):
    """Evolution stopped on norm drift, non-finite samples or a mask overflow."""

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
    stride: int = 50
    norm_tol: float = 1e-6
    eps_rho: float = DEFAULT_EPS_RHO
    gate_factor: float = DEFAULT_GATE_FACTOR
    ratio_floor: float = DEFAULT_RATIO_FLOOR
    mask_limit: float = 0.95  # largest masked fraction of a stage input
    filter_fraction: float = DEFAULT_FILTER_FRACTION
    observables: bool = True

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be positive")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if not (self.norm_tol > 0.0 and np.isfinite(self.norm_tol)):
            raise ValueError("norm_tol must be positive and finite")
        if not 0.0 < self.filter_fraction <= 1.0:
            raise ValueError("filter_fraction must be in (0, 1]")
        if not 0.0 <= self.mask_limit <= 1.0:
            raise ValueError("mask_limit must be in [0, 1]")
        for name in ("eps_rho", "gate_factor", "ratio_floor"):
            value = getattr(self, name)
            if not (value >= 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be non-negative and finite")

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
        self.fields.append(psi.copy())
        if sample is not None:
            self.observables.append(sample)

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


def nonlinear_multiplier(hv: HydroView, coeffs):
    """The complex field c(x) with nonlinear dpsi/dt = c(x) psi for the state
    decomposed in ``hv``, or None for the linear equation.

    H_NL = i H_I + H_R with H_I = hbar Re c (continuity channel) and
    H_R = -hbar Im c (phase channel).  The three-parameter engine applies
    the gates of the view.
    """
    if is_linear(coeffs):
        return None
    if isinstance(coeffs, MEParams):
        fo = hv.fourth_order()
        return -(0.5 * coeffs.D1) * fo.u - 1j * (coeffs.b1 * fo.t1 + coeffs.b6 * fo.t6)
    fa, fb = functional_pair(coeffs, hv)
    return -(0.5 * coeffs.D) * fa - 1j * coeffs.D * fb


@dataclass(frozen=True)
class State:
    """What is derived once from one wavefunction: its view ``hv`` (which
    fixes the low-density gates), the multiplier ``mult`` built from it
    (None for the linear equation), the ``coeffs`` and ``constants`` both
    were built for, and, on first read, the current divergence ``div_j``.
    """

    hv: HydroView
    mult: np.ndarray | None
    coeffs: object
    constants: PhysicalConstants

    @property
    def psi(self) -> np.ndarray:
        return self.hv.psi

    @property
    def grid(self) -> Grid:
        return self.hv.grid

    @property
    def eps_rho(self) -> float:
        return self.hv.eps_rho

    @cached_property
    def div_j(self) -> np.ndarray:
        return current_divergence(self.hv, self.coeffs, self.constants)


@dataclass(frozen=True)
class _Carried:
    """What a continuity residual reads of a sampled record.  evolve carries
    this to the next sample instead of the record, so the sampled view is
    freed before the next state is derived; ``psi`` is the stored snapshot."""

    psi: np.ndarray
    div_j: np.ndarray
    grid: Grid
    eps_rho: float
    coeffs: object
    constants: PhysicalConstants


def derive(hv: HydroView, coeffs, constants: PhysicalConstants = NATURAL_UNITS) -> State:
    """The record of the state decomposed in ``hv``, at that view's gates.
    A standalone state is ``derive(hydro_decompose(grid, psi), coeffs,
    constants)``."""
    return State(hv, nonlinear_multiplier(hv, coeffs), coeffs, constants)


def _explicit_rhs(psi: np.ndarray, pot_vals, mult, hbar: float):
    """Potential plus nonlinear part of dpsi/dt, or None when both vanish;
    ``mult`` is the nonlinear multiplier of psi (None for the linear equation)."""
    out = None
    if pot_vals is not None:
        out = (-1j / hbar) * pot_vals * psi
    if mult is not None:
        term = mult * psi
        out = term if out is None else out + term
    return out


def nonlinear_rhs(
    grid: Grid,
    psi: np.ndarray,
    potential: Potential | None,
    coeffs,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """Full dpsi/dt including the kinetic and potential terms.  Nonlinear
    coefficients decompose psi at the default gates; the linear equation
    decomposes nothing."""
    hbar, m = constants.hbar, constants.mass
    out = -1j / hbar * (-(hbar**2) / (2.0 * m) * laplacian(grid, psi))
    mult = None
    if not is_linear(coeffs):
        mult = nonlinear_multiplier(hydro_decompose(grid, psi), coeffs)
    explicit = _explicit_rhs(psi, potential.values if potential is not None else None, mult, hbar)
    return out if explicit is None else out + explicit


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


def _filter_mask(grid: Grid, fraction: float) -> np.ndarray:
    if fraction >= 1.0:
        return np.ones(grid.shape)
    k2 = grid.k_squared()
    return (k2 <= (fraction * grid.kmax) ** 2).astype(float)


class _Stepper:
    """The IF-RK4 step of one run, built once from (grid, config): the kinetic
    integrating factors ``e_half``/``e_full``, the band filter ``filt``, the
    potential values and the explicit stage.  It keeps nothing between steps."""

    def __init__(self, grid: Grid, config: EvolutionConfig):
        hbar, m = config.constants.hbar, config.constants.mass
        self.grid, self.config, self.nonlinear = grid, config, not is_linear(config.coeffs)
        self.e_half = np.exp(-1j * hbar * grid.k_squared() / (2.0 * m) * (config.dt / 2.0))
        self.e_full = self.e_half * self.e_half
        self.filt = _filter_mask(grid, config.filter_fraction)
        self.pot_vals = config.potential.values if config.potential is not None else None

    def state(self, psi, psi_hat, sampled=False):
        """The record of psi (of the state synthesized as ``psi_hat`` when
        psi is None) at the config's gates.  A state a stage reads raises
        :class:`MaskOverflowError` over ``mask_limit``, and a linear run
        derives none; a state that is only ``sampled`` is not guarded."""
        if not (sampled or self.nonlinear):
            return None
        c = self.config
        hv = hydro_decompose(self.grid, psi, eps_rho=c.eps_rho, psi_hat=psi_hat,
                             gate_factor=c.gate_factor, ratio_floor=c.ratio_floor)
        if not sampled and hv.masked_fraction > c.mask_limit:
            raise MaskOverflowError(hv.masked_fraction, c.mask_limit)
        return derive(hv, c.coeffs, c.constants)

    def explicit_hat(self, p_hat, psi=None, state=None):
        """Spectrum of the explicit part at the stage input synthesized as
        ``p_hat``.  Stage a passes its psi and record; a later stage is
        decomposed from ``p_hat`` alone (a linear run inverts it), and its
        record is freed on return."""
        if psi is None:
            state = self.state(None, p_hat)
            psi = _inverse(self.grid, p_hat, False) if state is None else state.psi
        out = _explicit_rhs(psi, self.pot_vals, state and state.mult, self.config.constants.hbar)
        return _forward(np.zeros_like(psi) if out is None else out, False)

    def step(self, psi, psi_hat, state):
        """The filtered state one step after psi, given its spectrum
        ``psi_hat`` and its record ``state`` (None on a linear run)."""
        dt, e_half, e_full = self.config.dt, self.e_half, self.e_full
        a_hat = self.explicit_hat(psi_hat, psi, state)
        b_hat = self.explicit_hat(e_half * (psi_hat + (0.5 * dt) * a_hat))
        c_hat = self.explicit_hat(e_half * psi_hat + (0.5 * dt) * b_hat)
        d_hat = self.explicit_hat(e_full * psi_hat + dt * e_half * c_hat)
        new_hat = e_full * psi_hat + (dt / 6.0) * (e_full * a_hat + 2.0 * e_half * (b_hat + c_hat) + d_hat)
        return _inverse(self.grid, self.filt * new_hat, False)


def evolve(grid: Grid, psi0: np.ndarray, config: EvolutionConfig) -> Trajectory:
    """Advance psi0 to t_end, sampling observables every ``stride`` steps.

    Raises :class:`EvolutionAbort` (carrying the partial trajectory and the
    last good time) on norm drift, non-finite samples or a mask overflow, and
    :class:`StabilityError` or :class:`MaskOverflowError` if it cannot start.
    """
    from .diagnostics import _NonFiniteSample, observables_sample

    grid.validate_field(psi0)
    n_steps = config.n_steps()
    dt = config.dt
    stepper = _Stepper(grid, config)
    traj = Trajectory(grid=grid, config=config)
    prev = None

    def record(t, p, p_hat, state):
        """Store one snapshot; its sample reads the state's record, and what
        the next sample's continuity residual reads of it is carried on."""
        nonlocal prev
        if not config.observables:
            traj.append(t, p)
            return
        state = state or stepper.state(p, p_hat, sampled=True)
        try:
            sample = observables_sample(state, t, config.potential, prev=prev)
        except _NonFiniteSample as exc:
            raise EvolutionAbort("non-finite samples", t - dt, traj) from exc
        traj.append(t, p, sample)
        prev = (t, _Carried(traj.fields[-1], state.div_j, grid, state.eps_rho, config.coeffs,
                            config.constants))

    # initial state passes through the band-limit filter once; the norm
    # guard's reference is the filtered state the steps conserve
    psi = _inverse(grid, stepper.filt * _forward(np.ascontiguousarray(psi0, dtype=complex), False), False)
    psi_hat = _forward(psi, False)
    norm0 = float(grid.integrate(psi.real**2 + psi.imag**2))
    state = stepper.state(psi, psi_hat)

    # Step-size guard.  The k_max^4 nonlinear rate binds only where the
    # nonlinearity is active on the initial state; on states it annihilates
    # (quadratic phases, eigenstates) the explicit stage is potential-limited,
    # and the norm guard catches any activation later in the run.
    active = state is not None and float(np.abs(state.mult).max()) > 0.0
    bound = stability_bound(grid, config.coeffs if active else None, config.constants, config.potential)
    if dt > bound:
        raise StabilityError(f"dt = {dt:.3e} exceeds stability bound {bound:.3e}")

    record(0.0, psi, psi_hat, state)

    for step in range(1, n_steps + 1):
        t = step * dt
        try:
            psi = stepper.step(psi, psi_hat, state)
            # guard first: a blown-up state aborts before it is transformed or derived
            norm = float(grid.integrate(psi.real**2 + psi.imag**2))
            if not np.isfinite(norm):
                raise EvolutionAbort("non-finite samples", t - dt, traj)
            if abs(norm - norm0) > config.norm_tol * max(norm0, 1.0):
                raise EvolutionAbort(f"norm drift {abs(norm - norm0):.3e} exceeds tolerance "
                                     f"{config.norm_tol:.1e}", t - dt, traj)
            # Each state is transformed and derived once, for the next step's
            # stage a and for its sample.
            psi_hat = _forward(psi, False)
            last = step == n_steps
            state = None if last else stepper.state(psi, psi_hat)
        except MaskOverflowError as exc:
            raise EvolutionAbort(str(exc), t - dt, traj) from exc
        if last or step % config.stride == 0:
            record(t, psi, psi_hat, state)

    return traj
