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
per run from the grid and the config, owns the run: it holds the
integrating factors, the band filter, the potential values and the explicit
stage; it starts the run (the one pass of the band filter, the norm
reference, the initial record and the step-size guard), steps it with the
norm guard, and records its snapshots.  :func:`evolve` validates, builds
and starts the stepper, then loops over step and record.  An initial state
whose filtered norm is not finite and positive is refused with ValueError
before anything else, and so is one whose t = 0 sample is not finite; an
abort therefore always follows a step.  Norm drift beyond tolerance aborts
the run rather than renormalizing, so continuity bugs cannot hide; the
guard reads each new psi before it is transformed or derived.  A
non-finite sample aborts too.

Every state the run touches is derived once, into one :class:`State`
record (its view, its multiplier and, on first read, its current
divergence), and each stage reuses:

* stage a: the step's record, built when the state was made (the initial
  state's before the step-size guard, which reads the same multiplier),
  and its spectrum fftn(psi);
* stages b, c and d: the spectrum each is synthesized from, the only input
  of their views (psi and its gradient come from one inverse); their
  records live until the next stage, in the stepper's workspace where
  it keeps one;
* the observables sample of a state: that state's record, and the stored
  snapshot and current divergence of the previous sample's record, carried
  forward for the continuity residual.

A stage builds what its multiplier reads and no more: the view's ratio
fields are derived on first read (the generic engine reads them), and the
three-parameter composites are built once per view, so a sample's energy
reuses the multiplier's.  The decomposition and the composites transform
their fields as stacks, one call per stack (the gradient of a state given
with its spectrum too), so a three-parameter step makes 26 transform calls
on a 1D and on a 2D grid.

On a grid of at most 1024 points the stepper keeps a workspace, a dict
from array name to array: each array is allocated on its first request
(``hydro._take``) and reused for the rest of the run, so a run holds only
what its engine asks for.  It holds the arrays a later stage's
transforms read and write and the rows filled into them: the psi and
gradient stack, inverted in place, the [rho, g, grad rho] stack and its
spectrum, the Lap rho and div g spectrum and fields, the [P, F] stack and
its spectrum, the composites spectrum and rows, the gated ratios, the
explicit part and a linear stage's psi.  They are filled through ``out=``
in the operation order of plain numpy expressions, so every value keeps
its bits; every other temporary of a stage (psi*, the node mask, the
multiplier, ...) is a plain expression that numpy allocates where it is
made.  The stage spectra and inputs of a step, and every record that
outlives a stage (the state a step returns, the initial state, a sampled
state, a standalone :func:`derive`), are fresh arrays.  Reuse saves time
only where numpy's fixed cost per call and per fresh array dominates, and
it always raises the peak memory, so a larger grid allocates as it goes.

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

approximately (D1 q^2 - 1)/(4 b1) once the b1 term dominates.  Only this
growing branch is measured to match a run (to 4e-9 relative).  Where
D1 q^2 < 1 the expression does not give the decay a run shows: at
(D1, b1) = (0.004, 0.05), q = 14 a phase mode decayed at -0.063 against
-1.08, and at (0.1, 0.05), q = 3 at -4.16, outside both roots; so
``TestLinearDispersion`` (tests/test_evolution.py) asserts only that such
a mode does not grow.  States the operator annihilates (quadratic phases)
are immune because the gated nonlinearity returns exact zeros, but runs
with active nonlinearity amplify roundoff at up to lambda(k_max); choose
window length, resolution and b1 so that lambda(k_max) * t_end stays well
below ln(tolerance/1e-16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coeffs import MEParams, is_linear
from .currents import current_divergence
from .functionals import functional_pair
from .hydro import DEFAULT_EPS_RHO, DEFAULT_GATE_FACTOR, DEFAULT_RATIO_FLOOR, HydroView, _take, hydro_decompose
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, _forward, _inverse, _laplacian_symbol, laplacian
from .states import Potential

#: Fraction of the Nyquist wavenumber above which modes are zeroed each step.
#: States must keep their content below this band.  The filter acts on the
#: end of each step, not on the stage inputs, so it makes nonlinear IF-RK4
#: runs first order in dt (error ratios 1.9-2.3 per halving of dt); for that
#: reason checks.check_dt_convergence runs with filter_fraction = 1.0.
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
        if isinstance(self.stride, bool) or not isinstance(self.stride, (int, np.integer)) or self.stride < 1:
            raise ValueError(f"stride must be an integer of at least 1, got {self.stride!r}")
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
    """What a continuity residual reads of a sampled record.  The stepper
    carries this to the next sample instead of the record, so the sampled
    view is freed before the next state is derived; ``psi`` is the stored
    snapshot."""

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


def _explicit_rhs(psi: np.ndarray, pot_vals, mult, hbar: float, out=None):
    """Potential plus nonlinear part of dpsi/dt, or None when both vanish;
    ``mult`` is the nonlinear multiplier of psi (None for the linear
    equation).  The result is written into ``out`` when given."""
    rhs = None
    if pot_vals is not None:
        rhs = np.multiply(-1j / hbar, pot_vals, out=out)
        rhs *= psi
    if mult is not None:
        if rhs is None:
            rhs = np.multiply(mult, psi, out=out)
        else:
            rhs += mult * psi
    return rhs


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
    k2 = -_laplacian_symbol(grid.n, grid.length, grid.dims, False)
    return (k2 <= (fraction * grid.kmax) ** 2).astype(float)


class _GuardFailed(ValueError):
    """A state of the run failed the norm guard or gave a non-finite sample.
    After the first step began, :func:`evolve` turns this into
    :class:`EvolutionAbort` with ``str(self)`` as the reason; on the initial
    state's sample it refuses the state."""


#: Largest grid, in points, whose run keeps a stage workspace.  Reusing
#: the stage arrays pays where numpy's fixed cost per call and per fresh
#: array dominates: a 1D ME step at n = 1024 ran 5.9% faster and a 32^2 ME
#: step 4.3% (CPU time, 16 alternating runs each).  From 2048 points on it
#: saved nothing beyond the noise, or cost 2% (1D ME 2048 and 4096, 64^2
#: ME), while the traced peak of a run grew by 12-71% at every size.
_WORKSPACE_POINTS = 1024


class _Stepper:
    """One IF-RK4 run, built once from (grid, config): the kinetic
    integrating factors ``e_half``/``e_full``, the band filter ``filt``, the
    potential values, the explicit stage and the run's workspace ``ws``: a
    dict from name to array that later stages fill on first request, so a
    run holds only what its engine asks for (an ``ext`` run never holds the
    ME composite arrays), or None on a grid over ``_WORKSPACE_POINTS``
    points.  :meth:`start` sets the norm guard's reference ``norm0``;
    :meth:`record` carries what the next sample's continuity residual reads
    as ``prev``.  A step changes neither the stepper's settings nor its
    inputs, and what it returns holds no workspace array, so it can be
    repeated from a saved state."""

    def __init__(self, grid: Grid, config: EvolutionConfig):
        self.grid, self.config, self.nonlinear = grid, config, not is_linear(config.coeffs)
        k2 = -_laplacian_symbol(grid.n, grid.length, grid.dims, False)
        self.e_half = np.exp(-1j * config.constants.hbar * k2 / (2.0 * config.constants.mass) * (config.dt / 2.0))
        self.e_full = self.e_half * self.e_half
        self.filt = _filter_mask(grid, config.filter_fraction)
        self.pot_vals = config.potential.values if config.potential is not None else None
        self.norm0, self.prev = None, None
        self.ws = {} if grid.npoints <= _WORKSPACE_POINTS else None

    def start(self, psi0):
        """The initial (psi, psi_hat, state): psi0 passes through the band
        filter once, and the norm guard's reference is the filtered state the
        steps conserve.  Raises ValueError if that norm is not finite and
        positive or is less than half the norm of psi0 (the filter would
        evolve what is left of a state it mostly removed), then
        :class:`StabilityError` if dt exceeds the bound."""
        grid, c = self.grid, self.config
        psi0 = np.ascontiguousarray(psi0, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _inverse(grid, self.filt * _forward(grid, psi0, False), False)
            self.norm0 = float(grid.integrate(psi.real**2 + psi.imag**2))
            unfiltered = float(grid.integrate(psi0.real**2 + psi0.imag**2))
        if not (np.isfinite(self.norm0) and self.norm0 > 0.0):
            raise ValueError("initial state must have a finite, nonzero norm after the band filter")
        if self.norm0 < 0.5 * unfiltered:
            raise ValueError(f"the band filter removes {1.0 - self.norm0 / unfiltered:.1%} of the initial "
                             "state's norm; its content must lie below the filter")
        psi_hat = _forward(grid, psi, False)
        state = self.state(psi, psi_hat)
        # Step-size guard.  The k_max^4 nonlinear rate binds only where the
        # nonlinearity is active on the initial state; on states it annihilates
        # (quadratic phases, eigenstates) the explicit stage is potential-limited,
        # and the norm guard catches any activation later in the run.
        active = state is not None and float(np.abs(state.mult).max()) > 0.0
        bound = stability_bound(grid, c.coeffs if active else None, c.constants, c.potential)
        if c.dt > bound:
            raise StabilityError(f"dt = {c.dt:.3e} exceeds stability bound {bound:.3e}")
        return psi, psi_hat, state

    def state(self, psi, psi_hat, sampled=False, stage=False):
        """The record of psi (of the state synthesized as ``psi_hat`` when
        psi is None) at the config's gates.  A state a stage reads raises
        :class:`MaskOverflowError` over ``mask_limit``, and a linear run
        derives none; a state that is only ``sampled`` is not guarded.  The
        record of a ``stage`` lives in the workspace and is valid until the
        next stage; any other record holds fresh arrays."""
        if not (sampled or self.nonlinear):
            return None
        c = self.config
        hv = hydro_decompose(self.grid, psi, eps_rho=c.eps_rho, psi_hat=psi_hat, gate_factor=c.gate_factor,
                             ratio_floor=c.ratio_floor, _ws=self.ws if stage else None)
        if not sampled and hv.masked_fraction > c.mask_limit:
            raise MaskOverflowError(hv.masked_fraction, c.mask_limit)
        return derive(hv, c.coeffs, c.constants)

    def explicit_hat(self, p_hat, psi=None, state=None):
        """Spectrum of the explicit part at the stage input synthesized as
        ``p_hat``.  Stage a passes its psi and record; a later stage is
        decomposed from ``p_hat`` alone, into the workspace when the run
        keeps one (a linear run inverts it)."""
        if psi is None:
            state = self.state(None, p_hat, stage=True)
            psi = state.psi if state else _inverse(self.grid, p_hat, False,
                                                   out=_take(self.ws, self.grid, "linear_psi", None, complex))
        mult = state and state.mult
        filled = self.pot_vals is not None or mult is not None
        out = _take(self.ws, self.grid, "rhs", None, complex) if filled else None
        rhs = _explicit_rhs(psi, self.pot_vals, mult, self.config.constants.hbar, out)
        return _forward(self.grid, np.zeros_like(psi) if rhs is None else rhs, False)

    def step(self, psi, psi_hat, state, last):
        """The (psi, psi_hat, state) one step after psi, given its spectrum
        ``psi_hat`` and its record ``state`` (None on a linear run); the new
        state is None when the step is the ``last``.  The new psi passes the
        norm guard before it is transformed or derived: non-finite or drifted
        beyond ``norm_tol``, it raises :class:`_GuardFailed`."""
        dt, e_half, e_full, tol = self.config.dt, self.e_half, self.e_full, self.config.norm_tol
        a_hat = self.explicit_hat(psi_hat, psi, state)
        b_hat = self.explicit_hat(e_half * (psi_hat + (0.5 * dt) * a_hat))
        c_hat = self.explicit_hat(e_half * psi_hat + (0.5 * dt) * b_hat)
        full_hat = e_full * psi_hat
        d_hat = self.explicit_hat(full_hat + dt * e_half * c_hat)
        new_hat = full_hat + (dt / 6.0) * (e_full * a_hat + 2.0 * e_half * (b_hat + c_hat) + d_hat)
        psi = _inverse(self.grid, self.filt * new_hat, False)
        drift = abs(float(self.grid.integrate(psi.real**2 + psi.imag**2)) - self.norm0)
        if not np.isfinite(drift):
            raise _GuardFailed("non-finite samples")
        if drift > tol * max(self.norm0, 1.0):
            raise _GuardFailed(f"norm drift {drift:.3e} exceeds tolerance {tol:.1e}")
        # Each state is transformed and derived once, for the next step's
        # stage a and for its sample.
        psi_hat = _forward(self.grid, psi, False)
        return psi, psi_hat, None if last else self.state(psi, psi_hat)

    def record(self, traj: Trajectory, t: float, psi, psi_hat, state):
        """Store one snapshot in ``traj``; its sample reads the state's record
        (derived unguarded if the step derived none), and what the next
        sample's continuity residual reads of it is carried on."""
        from .diagnostics import _NonFiniteSample, observables_sample

        if not self.config.observables:
            return traj.append(t, psi)
        state = state or self.state(psi, psi_hat, sampled=True)
        try:
            sample = observables_sample(state, t, self.config.potential, prev=self.prev)
        except _NonFiniteSample as exc:
            raise _GuardFailed("non-finite samples") from exc
        traj.append(t, psi, sample)
        self.prev = (t, _Carried(traj.fields[-1], state.div_j, self.grid, state.eps_rho, state.coeffs,
                                 state.constants))


def evolve(grid: Grid, psi0: np.ndarray, config: EvolutionConfig) -> Trajectory:
    """Advance psi0 to t_end, sampling observables every ``stride`` steps.

    Raises :class:`EvolutionAbort` (carrying the partial trajectory and the
    last good time) on norm drift, non-finite samples or a mask overflow, and
    ValueError if it cannot start: a filtered norm that is not finite and
    positive, a non-finite t = 0 sample, :class:`StabilityError` or
    :class:`MaskOverflowError`.
    """
    grid.validate_field(psi0)
    n_steps = config.n_steps()
    stepper = _Stepper(grid, config)
    traj = Trajectory(grid=grid, config=config)
    psi, psi_hat, state = stepper.start(psi0)
    stepper.record(traj, 0.0, psi, psi_hat, state)  # a non-finite sample here refuses psi0
    try:
        for step in range(1, n_steps + 1):
            t, last = step * config.dt, step == n_steps
            psi, psi_hat, state = stepper.step(psi, psi_hat, state, last)
            if last or step % config.stride == 0:
                stepper.record(traj, t, psi, psi_hat, state)
    except (_GuardFailed, MaskOverflowError) as exc:
        # the abort's cause is the overflow, or the non-finite sample behind a failed guard
        raise EvolutionAbort(str(exc), t - config.dt, traj) from exc.__cause__ or exc
    return traj
