"""Runnable library invariants with measured values.

Every module-level invariant is expressed here as a named check returning
its measured value and tolerance, so a single command can demonstrate the
conservation laws, covariance properties and oracle agreements on a fresh
machine.

Each invariant has one scenario.  Where an acceptance criterion of
``tests/test_acceptance.py`` pins the same invariant, the criterion's
scenario wins: the check runs it at ``seed=0``, and the criterion calls the
check and asserts its result, so the two cannot drift apart.  Checks stay at
desk-scale runtimes; heavier runs (long evolutions, 2D separability, the
Ehrenfest window) stay in the acceptance suite.

Every row a command reports is a :class:`CheckResult`.  The rows of results
a command computes itself (the norm drift of a run, ``monodromy_det`` over a
band chart, the Ehrenfest rows over a report, the separability deviation)
are defined here once, with their default tolerances, by :func:`norm_drift`,
:func:`monodromy_det`, :func:`ehrenfest_checks` and
:func:`separability_deviation`, and the command and the acceptance suite
both call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bands, coeffs, diagnostics, evolution, functionals, hydro, states
from .currents import continuity_residual, currents
from .spectral import NATURAL_UNITS, gradient, laplacian, make_grid, spectral_derivative

# the three-parameter preset of the acceptance criteria
_ME_PRESET = coeffs.MEParams(D1=0.1, b1=0.05, b6=0.02)


def _state(grid, psi, c, con=NATURAL_UNITS):
    """The record of one standalone state, at the default gates."""
    return evolution.derive(hydro.hydro_decompose(grid, psi), c, con)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "note": self.note,
        }

    @classmethod
    def of(cls, name, measured, tolerance, note="", larger_is_pass=False) -> "CheckResult":
        """The result of comparing ``measured`` with ``tolerance``: it passes
        at or below the tolerance, or at or above it if ``larger_is_pass``."""
        ok = measured >= tolerance if larger_is_pass else measured <= tolerance
        return cls(name=name, measured=float(measured), tolerance=float(tolerance), passed=bool(ok), note=note)


def check_spectral_linearity(seed=0):
    grid = make_grid(1, 128, 7.0)
    rng = np.random.default_rng(seed)
    f = states.random_state(grid, seed=seed, cutoff=12)
    g = states.random_state(grid, seed=seed + 1, cutoff=12)
    al, be = rng.normal(size=2)
    dev = np.abs(
        spectral_derivative(grid, al * f + be * g)
        - al * spectral_derivative(grid, f)
        - be * spectral_derivative(grid, g)
    ).max()
    return CheckResult.of("spectral_linearity", dev, 1e-12)


def check_spectral_composition(seed=0):
    grid = make_grid(1, 128, 7.0)
    f = states.random_state(grid, seed=seed + 2, cutoff=12)
    twice = spectral_derivative(grid, spectral_derivative(grid, f))
    dev = np.abs(twice - spectral_derivative(grid, f, order=2)).max()
    return CheckResult.of("spectral_composition", dev, 1e-10)


def check_hydro_scaling_invariance(seed=0):
    grid = make_grid(1, 128, 7.0)
    psi = states.random_state(grid, seed=seed + 3)
    hv = hydro.hydro_decompose(grid, psi)
    lam = 1.7 * np.exp(1j * np.pi / 3.0)
    hv2 = hydro.hydro_decompose(grid, lam * psi)
    dev = max(
        np.abs(a - b).max() / max(1.0, np.abs(a).max())
        for a, b in [
            (hv.grad_s[0], hv2.grad_s[0]),
            (hv.grad_log_rho[0], hv2.grad_log_rho[0]),
            (hv.lap_s, hv2.lap_s),
            (hv.lap_rho_over_rho, hv2.lap_rho_over_rho),
        ]
    )
    return CheckResult.of("hydro_scaling_invariance", dev, 1e-12, note="relative to max(1, |field|)")


def check_hydro_roundtrip(seed=0):
    grid = make_grid(1, 128, 7.0)
    psi = states.random_state(grid, seed=seed + 4)
    hv = hydro.hydro_decompose(grid, psi)
    rebuilt = hv.rho * hv.grad_log_rho[0]
    dev = np.abs(rebuilt - spectral_derivative(grid, hv.rho)).max()
    return CheckResult.of("hydro_roundtrip", dev, 1e-10)


def check_functional_homogeneity(seed=0):
    grid = make_grid(1, 256, 7.0)
    rng = np.random.default_rng(2024 + seed)
    presets = (
        coeffs.dg_coeffs(a=(1, 1, 0.3, 0.2, -0.1), b=(0.2, -0.4, 0.1, 0.3, -0.2)),
        _ME_PRESET.expand(),
        coeffs.ext_coeffs(*np.random.default_rng(seed + 5).normal(size=(2, 13))),
    )
    worst = 0.0
    for i in range(20):
        psi = states.random_state(grid, seed=1000 + 20 * seed + i)
        lam = complex(rng.normal(), rng.normal())
        hv, hv_l = hydro.hydro_decompose(grid, psi), hydro.hydro_decompose(grid, lam * psi)
        for preset in presets:
            worst = max(worst, functionals.homogeneity_check(preset, hv, hv_l))
    return CheckResult.of("functional_homogeneity", worst, 1e-12,
                          note="20 (psi, lambda) pairs, relative to max |F|")


def check_galilean_b_audit(seed=0):
    grid = make_grid(1, 128, 2 * np.pi)
    psi = states.random_state(grid, seed=seed + 6, cutoff=6, amplitude=0.3)
    v = states.wavenumber(grid, 4)
    boosted = states.galilean_boost(grid, psi, v, t=0.0)
    x = np.zeros(13)
    for idx in (0, 1, 2, 5, 6, 7):  # surviving terms: no bare grad S
        x[idx] = 0.3 + 0.1 * idx
    hv = hydro.hydro_decompose(grid, psi)
    hvb = hydro.hydro_decompose(grid, boosted)
    f = functionals.eval_functional(x, "ext", hv)
    fb = functionals.eval_functional(x, "ext", hvb)
    scale = max(1.0, np.abs(f).max())
    dev = np.abs(f - fb).max() / scale
    return CheckResult.of("galilean_b_audit", dev, 1e-10, note="relative to max(1, |F_b|)")


def check_term_separability(seed=0):
    grid = make_grid(1, 64, 2 * np.pi)
    psi1 = states.random_state(grid, seed=seed + 7, cutoff=5, amplitude=0.3)
    psi2 = states.random_state(grid, seed=seed + 8, cutoff=5, amplitude=0.3)
    grid2 = make_grid(2, 64, 2 * np.pi)
    prod = np.outer(psi1, psi2)
    hv1 = hydro.hydro_decompose(grid, psi1)
    hv2 = hydro.hydro_decompose(grid, psi2)
    hv12 = hydro.hydro_decompose(grid2, prod)
    worst = 0.0
    for term in range(13):
        x = np.zeros(13)
        x[term] = 1.0
        f12 = functionals.eval_functional(x, "ext", hv12)
        f1 = functionals.eval_functional(x, "ext", hv1)
        f2 = functionals.eval_functional(x, "ext", hv2)
        scale = max(1.0, np.abs(f12).max())
        worst = max(worst, np.abs(f12 - (f1[:, None] + f2[None, :])).max() / scale)
    forb12 = functionals.forbidden_term(hv12, 1.0)
    forb1 = functionals.forbidden_term(hv1, 1.0)
    forb2 = functionals.forbidden_term(hv2, 1.0)
    violation = np.abs(forb12 - (forb1[:, None] + forb2[None, :])).max()
    note = f"forbidden-term violation {violation:.3e} (must be far above tolerance)"
    ok = worst <= 1e-10 and violation > 1e-3
    return CheckResult("term_separability", float(worst), 1e-10, bool(ok), note)


def check_gauge_coefficients(seed=0):
    """Operational oracle: assembled right-hand side from dg_linearizable
    equals the directly expanded covariant-derivative form."""
    grid = make_grid(1, 256, 2 * np.pi)
    rng = np.random.default_rng(seed + 9)
    worst = 0.0
    for d1, d2 in [(0.0, 0.0), (1.0, 0.0), (0.3, -0.7)]:
        cs = coeffs.dg_linearizable(d1, d2)
        for _ in range(3):
            psi = states.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=6, amplitude=0.3)
            lhs = evolution.nonlinear_rhs(grid, psi, None, cs)
            hv = hydro.hydro_decompose(grid, psi)
            A = [d1 * gs + d2 * gl for gs, gl in zip(hv.grad_s, hv.grad_log_rho)]
            dpsi = gradient(grid, psi)
            cov = (
                laplacian(grid, psi)
                - 1j * sum(spectral_derivative(grid, Aa, axis=a) for a, Aa in enumerate(A)) * psi
                - 2j * sum(Aa * da for Aa, da in zip(A, dpsi))
                - sum(Aa * Aa for Aa in A) * psi
            )
            rhs = (1j / 2.0) * cov  # -(i/hbar)(-(hbar^2/2m)(grad - iA)^2 psi), natural units
            worst = max(worst, np.abs(np.where(hv.mask, 0, lhs - rhs)).max())
    return CheckResult.of("gauge_coefficients", worst, 1e-10)


def check_current_form_equivalence(seed=0):
    """The five explicit currents match rho grad F (second-order functional
    with the divergence-family coefficient mapping)."""
    grid = make_grid(1, 128, 2 * np.pi)
    psi = states.random_state(grid, seed=seed + 10, cutoff=10)
    hv = hydro.hydro_decompose(grid, psi)
    D = (0.4, -0.3, 0.25, 0.15, -0.2)
    cs = currents(hv, D)
    total_extra = sum(j[0] for j in cs.extras())
    dg_map = (D[0], D[3], D[1], D[2], D[4])
    f = functionals.eval_functional(dg_map, "dg", hv)
    rho_grad_f = hydro.weighted_grad_of_ratio(hv, hv.rho * f)[0]
    dev = np.abs(total_extra - rho_grad_f).max()
    return CheckResult.of("current_form_equivalence", dev, 1e-10)


def check_currents_galilean_audit(seed=0):
    grid = make_grid(1, 128, 2 * np.pi)
    psi = states.random_state(grid, seed=seed + 11, cutoff=10)
    v = states.wavenumber(grid, 5)
    boosted = states.galilean_boost(grid, psi, v, t=0.0)
    D = (0.4, -0.3, 0.25, 0.0, 0.0)  # D4 = D5 = 0
    c0 = currents(hydro.hydro_decompose(grid, psi), D)
    cb = currents(hydro.hydro_decompose(grid, boosted), D)
    dev = max(
        np.abs(cb.j1[0] - c0.j1[0]).max(),
        np.abs(cb.j2[0] - c0.j2[0]).max(),
        np.abs(cb.j3[0] - c0.j3[0]).max(),
    )
    return CheckResult.of("currents_galilean_audit", dev, 1e-10)


def check_norm_conservation(seed=0):
    grid = make_grid(1, 256, 24.0)
    base = states.gaussian_packet(grid, t0=1.0)
    pert = states.random_state(grid, seed=seed + 11, cutoff=12, amplitude=0.3)
    psi0 = base * (1.0 + 0.1 * pert / np.abs(pert).max())
    psi0 = psi0 / np.sqrt(grid.integrate(np.abs(psi0) ** 2))
    active = np.abs(_state(grid, psi0, _ME_PRESET).mult).max()
    # window kept short so the model's short-wave instability cannot amplify
    # roundoff visibly (see the evolution module notes)
    dt = 2e-6
    cfg = evolution.EvolutionConfig(dt=dt, t_end=1000 * dt, coeffs=_ME_PRESET, stride=1000,
                                    observables=False, norm_tol=1e-5)
    traj = evolution.evolve(grid, psi0, cfg)
    drift = abs(grid.integrate(np.abs(traj.final) ** 2) - 1.0)
    note = f"1000 steps, three-parameter preset; max|mult(psi0)| {active:.3e} (must exceed 0.01)"
    ok = drift <= 1e-8 and active > 0.01
    return CheckResult("norm_conservation", float(drift), 1e-8, bool(ok), note)


def check_linear_limit():
    grid = make_grid(1, 128, 24.0)
    psi0 = states.gaussian_packet(grid, t0=1.0)
    cfg = evolution.EvolutionConfig(dt=1e-3, t_end=1.0, coeffs=None, stride=1000, observables=False)
    traj = evolution.evolve(grid, psi0, cfg)
    exact = states.gaussian_packet(grid, t0=1.0, t=1.0)
    dev = np.abs(traj.final - exact).max()
    return CheckResult.of("linear_limit", dev, 1e-6)


def check_weak_nonlinearity():
    grid = make_grid(1, 128, 24.0)
    worst = 0.0
    for psi in (
        states.plane_wave(grid, 3),
        states.gaussian_packet(grid, t0=1.0),
        states.gaussian_packet(grid, t0=1.0, t=0.6, p0=states.wavenumber(grid, 4)),
        states.coherent_state(grid, omega=1.0, x0=1.0, p0=states.wavenumber(grid, 4)),
    ):
        mult = _state(grid, psi, _ME_PRESET).mult
        worst = max(worst, np.abs(mult * psi).max())
    return CheckResult.of("weak_nonlinearity", worst, 1e-10, note="nonlinear dpsi/dt on quadratic-phase states")


def check_stationary_preservation():
    grid = make_grid(1, 128, 18.0)
    worst = 0.0
    for level in (0, 1):
        psi = states.harmonic_eigenstate(grid, level, omega=1.0)
        mult = _state(grid, psi, _ME_PRESET).mult
        worst = max(worst, np.abs(mult * psi).max())
    return CheckResult.of("stationary_preservation", worst, 1e-10)


def check_dt_convergence(seed=0):
    """Halving dt shrinks the trajectory error by the integrator order
    (>= 12x per halving for the 4th-order scheme).

    Measured against a dt/4 reference on an active smooth state.  The
    integrated continuity residual itself flattens at the numerator-gate
    bias level (reported in the note), so the order check works at state
    level where no such floor exists.
    """
    grid = make_grid(1, 64, 2 * np.pi)
    psi0 = states.random_state(grid, seed=seed + 13, cutoff=6, amplitude=0.35)
    bound = evolution.stability_bound(grid, _ME_PRESET)
    dt0 = 0.5 * bound
    T = 16 * dt0

    def final(dt):
        # band filter disabled: on this marginally resolved state it trims
        # real composite content once per step, an O(dt) effect that would
        # mask the integrator's own order
        cfg = evolution.EvolutionConfig(dt=dt, t_end=T, coeffs=_ME_PRESET, stride=10**6,
                                        observables=False, norm_tol=1e-3, filter_fraction=1.0)
        return evolution.evolve(grid, psi0, cfg)

    ref = final(dt0 / 4.0).final
    traj = final(dt0)
    err0 = np.abs(traj.final - ref).max()
    err1 = np.abs(final(dt0 / 2.0).final - ref).max()
    ratio = err0 / max(err1, 1e-300)
    _, integral = continuity_residual(_state(grid, traj.fields[-2], _ME_PRESET),
                                      _state(grid, traj.fields[-1], _ME_PRESET),
                                      traj.ts[-1] - traj.ts[-2])
    note = f"state errors {err0:.2e} -> {err1:.2e}; residual integral floor {abs(integral):.1e}"
    return CheckResult.of("dt_convergence", ratio, 12.0, larger_is_pass=True, note=note)


def monodromy_det(floquet_results, note="") -> CheckResult:
    """max |det M - 1| over a chart's Floquet results: every monodromy
    matrix of a Hill equation is unimodular."""
    dev = max(abs(r.det_m - 1.0) for r in floquet_results)
    return CheckResult.of("monodromy_det", dev, 1e-10, note=note)


def norm_drift(norms, tolerance=1e-8, note="") -> CheckResult:
    """max |N(t) - N(0)| over a run's sampled norms, the ``nlse4 evolve`` row."""
    drift = max(abs(n - norms[0]) for n in norms)
    return CheckResult.of("norm_drift", drift, tolerance, note=note)


def separability_deviation(deviation, tolerance=1e-6) -> CheckResult:
    """The deviation of a :func:`~nlse4.diagnostics.separability_test` run,
    the ``nlse4 separability`` row."""
    return CheckResult.of("separability_deviation", deviation, tolerance,
                          note="max |psi_2D - psi_1 x psi_2| over sampled times")


def check_monodromy_det():
    hill = bands.mathieu_hill(1.0)
    return monodromy_det(bands.floquet_analyze(hill, np.linspace(-1.0, 10.0, 200)))


def check_band_edges_unmodulated():
    hill = bands.mathieu_hill(0.0)
    edges = bands.band_edges(hill, -0.5, 9.5)["edges"]
    expected = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
    dev = np.abs(edges - expected).max() if len(edges) == len(expected) else np.inf
    return CheckResult.of("band_edges_unmodulated", dev, 1e-8)


def check_period_law():
    con = NATURAL_UNITS
    me = coeffs.MEParams(D1=0.25, b1=0.0, b6=0.0)
    mode = bands.PhaseMode.from_params(me, con, amplitude=0.5)
    grid = make_grid(1, 256, 5 * mode.period)
    closed_form = 2 * np.pi / np.sqrt(bands.mode_frequency(me, con))
    dev = abs(bands.measured_period(grid, mode.grad_s(grid)) - closed_form)
    # doubling D1 halves omega
    me2 = coeffs.MEParams(D1=0.5, b1=0.0, b6=0.0)
    scaling = abs(bands.mode_frequency(me2, con) - 0.5 * bands.mode_frequency(me, con))
    return CheckResult.of("period_law", max(dev, scaling), 1e-10)


def check_stationary_flux(seed=0):
    con = NATURAL_UNITS
    me = coeffs.MEParams(D1=0.25, b1=0.0, b6=0.0)
    mode = bands.PhaseMode.from_params(me, con, amplitude=0.5)
    # modest k_max keeps the roundoff floor of the identically-zero bracket
    # a safe factor under the tolerance
    grid = make_grid(1, 32, 2 * mode.period)
    rng = np.random.default_rng(seed + 14)
    worst = 0.0
    for _ in range(5):
        envelope = states.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=5, amplitude=0.5)
        rho = np.abs(envelope) ** 2
        rho = rho / grid.integrate(rho)
        worst = max(worst, bands.stationary_flux_residual(grid, rho, mode, me, con))
    return CheckResult.of("stationary_flux", worst, 1e-12)


def check_energy_b_linearity(seed=0):
    grid = make_grid(1, 128, 2 * np.pi)
    psi = states.random_state(grid, seed=seed + 15, cutoff=10)
    con = NATURAL_UNITS
    e_l1, e_me1 = diagnostics.energy(_state(grid, psi, _ME_PRESET, con), None)
    e_l2, e_me2 = diagnostics.energy(_state(grid, psi, coeffs.MEParams(D1=0.1, b1=0.1, b6=0.07), con), None)
    dev = abs((e_me1 - e_l1) - (e_me2 - e_l2))
    return CheckResult.of("energy_b_linearity", dev, 1e-12, note="E_ME - E_L depends on b1 - b6 only")


def check_i1_translation(seed=0):
    grid = make_grid(1, 128, 24.0)
    con = NATURAL_UNITS
    me = coeffs.MEParams(D1=0.1, b1=0.05, b6=0.0)
    k0 = np.sqrt(bands.mode_frequency(me, con))
    psi = states.gaussian_packet(grid, t0=1.2)
    mod = np.exp(1j * 0.4 * np.sin(k0 * grid.axis_coords()) / k0)
    psi1 = psi * mod
    psi1 = psi1 / np.sqrt(grid.integrate(np.abs(psi1) ** 2))
    shift = 16 * grid.dx
    shifted = np.roll(psi1, 16)
    i1a, _ = diagnostics.ehrenfest_corrections(_state(grid, psi1, me, con))
    i1b, _ = diagnostics.ehrenfest_corrections(_state(grid, shifted, me, con))
    dev = abs(i1a[0] - i1b[0])
    note = f"I1 = {i1a[0]:.4e}, shifted by {shift:.3f}"
    return CheckResult.of("i1_translation", dev, 1e-8, note=note)


def ehrenfest_checks(report, tolerance_scale=1e-4) -> list:
    """The rows of an Ehrenfest report: both relation residuals against
    ``tolerance_scale`` times max(1, |<p>|), and, where the correction I1
    exceeds that tolerance, the growth of the first residual when I1 is
    zeroed (>= 10x).  Where it does not, zeroing I1 moves r1 by at most the
    tolerance, so that control could show nothing and is not reported."""
    tol = tolerance_scale * max(1.0, float(np.abs(report.p_mean).max()))
    rows = [CheckResult.of("ehrenfest_r1", report.max_r1, tol, note="m d<x>/dt - <p> - I1"),
            CheckResult.of("ehrenfest_r2", report.max_r2, tol, note="d<p>/dt + <grad V> - I2")]
    if report.max_abs_i1 > tol:
        ratio = float(np.abs(report.r1_uncorrected).max()) / max(report.max_r1, 1e-300)
        rows.append(CheckResult.of("ehrenfest_i1_needed", ratio, 10.0, larger_is_pass=True,
                                   note="residual growth when I1 is zeroed"))
    return rows


def check_gauge_form(seed=0):
    grid = make_grid(1, 256, 2 * np.pi)
    con = NATURAL_UNITS
    rng = np.random.default_rng(seed + 16)
    worst = 0.0
    for _ in range(10):
        psi = states.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=6, amplitude=0.3)
        worst = max(worst, diagnostics.gauge_form_residual(grid, psi, coeffs.MEParams(D1=0.2, b1=0.05, b6=0.0), con))
    return CheckResult.of("gauge_form", worst, 1e-8, note="b6 = 0, 10 states")


def check_gauge_form_b6_factor(seed=0):
    """The printed vector-potential coupling drives the density-gradient
    channel at half weight: the b6 residual equals that constant factor
    instead of being random."""
    grid = make_grid(1, 256, 2 * np.pi)
    psi = states.random_state(grid, seed=seed + 12, cutoff=6, amplitude=0.3)
    me = coeffs.MEParams(D1=0.2, b1=0.05, b6=0.1)
    resid = diagnostics.gauge_form_residual(grid, psi, me, NATURAL_UNITS)
    hv = hydro.hydro_decompose(grid, psi)
    t6 = hv.zero_masked(hv.dot_grad_log_rho(gradient(grid, hv.lap_s)))
    predicted = np.abs(0.5 * me.b6 * t6 * psi).max()
    note = f"residual {resid:.3e} vs |b6/2| max|T6 psi| = {predicted:.3e}"
    return CheckResult.of("gauge_form_b6_factor", abs(resid - predicted) / predicted, 1e-6, note=note)


ALL_CHECKS = [
    check_spectral_linearity,
    check_spectral_composition,
    check_hydro_scaling_invariance,
    check_hydro_roundtrip,
    check_functional_homogeneity,
    check_galilean_b_audit,
    check_term_separability,
    check_gauge_coefficients,
    check_current_form_equivalence,
    check_currents_galilean_audit,
    check_norm_conservation,
    check_linear_limit,
    check_weak_nonlinearity,
    check_stationary_preservation,
    check_dt_convergence,
    check_monodromy_det,
    check_band_edges_unmodulated,
    check_period_law,
    check_stationary_flux,
    check_energy_b_linearity,
    check_i1_translation,
    check_gauge_form,
    check_gauge_form_b6_factor,
]


def run_all(seed: int = 0) -> list:
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn(seed) if "seed" in fn.__code__.co_varnames else fn())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(fn.__name__.removeprefix("check_"), float("nan"),
                                       0.0, False, f"raised {type(exc).__name__}: {exc}"))
    return results
