"""Time stepping, boosts, and the vector-potential form."""

import numpy as np
import pytest

import nlse4 as q
from nlse4.diagnostics import GaugeFormError, gauge_form_residual
from nlse4.evolution import (
    DEFAULT_FILTER_FRACTION,
    EvolutionAbort,
    EvolutionConfig,
    StabilityError,
    _filter_mask,
    _Stepper,
    evolve,
    nonlinear_multiplier,
    nonlinear_rhs,
    stability_bound,
)
from nlse4.states import BoostError, galilean_boost

from helpers import multiplier, perturbed_gaussian, perturbed_plane_wave


class TestNonlinearRHS:
    def test_linear_eigenstate(self):
        grid = q.make_grid(1, 128, 18.0)
        psi = q.harmonic_eigenstate(grid, 0, omega=1.0)
        pot = q.harmonic_potential(grid, 1.0)
        rhs = nonlinear_rhs(grid, psi, pot, q.linear_coeffs())
        expected = -1j * q.harmonic_energy(0, 1.0) * psi
        assert np.abs(rhs - expected).max() <= 1e-8

    def test_me_plane_wave_inert(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = q.plane_wave(grid, 3)
        mult = multiplier(grid, psi, q.MEParams(D1=0.1, b1=0.05, b6=0.02))
        assert np.abs(mult).max() == 0.0

    def test_me_packet_inert(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0, t=0.4)
        mult = multiplier(grid, psi, q.MEParams(D1=0.1, b1=0.05, b6=0.02))
        assert np.abs(mult * psi).max() <= 1e-10


class TestEvolve:
    def test_moving_packet_oracle(self):
        grid = q.make_grid(1, 128, 30.0)
        p0 = q.wavenumber(grid, 12)
        psi0 = q.gaussian_packet(grid, t0=1.0, x0=-3.0, p0=p0)
        traj = evolve(grid, psi0, EvolutionConfig(dt=1e-3, t_end=1.0, coeffs=None,
                                                  stride=500, observables=False))
        exact = q.gaussian_packet(grid, t0=1.0, x0=-3.0, p0=p0, t=1.0)
        assert np.abs(traj.final - exact).max() <= 1e-6

    def test_me_annihilates_packet_trajectory(self):
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        shared = dict(dt=5e-4, t_end=0.2, stride=400, observables=False)
        traj_me = evolve(grid, psi0, EvolutionConfig(coeffs=me, **shared))
        traj_lin = evolve(grid, psi0, EvolutionConfig(coeffs=None, **shared))
        assert np.abs(traj_me.final - traj_lin.final).max() <= 1e-10

    def test_ifrk4_agrees_with_rk4_oracle(self):
        """Plain RK4 on the full right-hand side, band-filtered after every
        step as the run filters it, is the oracle for the IF-RK4 stepper."""
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=1)
        me = q.MEParams(D1=0.05, b1=0.02, b6=0.01)
        dt = 0.2 * stability_bound(grid, me)
        a = evolve(grid, psi0, EvolutionConfig(dt=dt, t_end=40 * dt, coeffs=me, stride=100,
                                               observables=False, norm_tol=1e-4))
        filt = _filter_mask(grid, DEFAULT_FILTER_FRACTION)

        def band_filter(p):
            return np.fft.ifftn(filt * np.fft.fftn(p))

        def rhs(p):
            return nonlinear_rhs(grid, p, None, me)

        psi = band_filter(psi0.astype(complex))
        for _ in range(40):
            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * dt * k1)
            k3 = rhs(psi + 0.5 * dt * k2)
            k4 = rhs(psi + dt * k3)
            psi = band_filter(psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        assert np.abs(a.final - psi).max() <= 1e-7

    @staticmethod
    def retransforming_if_rk4(grid, psi0, cfg):
        """IF-RK4 that takes every stage input's view from a new forward
        transform of that input: the oracle for the stepper, which reads the
        views of stages b, c and d off the spectra it synthesizes them from."""
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        k2 = sum(np.meshgrid(*[k**2] * grid.dims, indexing="ij"))
        e_half = np.exp(-1j * k2 / 2.0 * (cfg.dt / 2.0))
        e_full = e_half * e_half
        filt = _filter_mask(grid, cfg.filter_fraction)
        dt = cfg.dt

        def N(p):
            hv = q.hydro_decompose(grid, p, eps_rho=cfg.eps_rho, gate_factor=cfg.gate_factor,
                                   ratio_floor=cfg.ratio_floor)
            return nonlinear_multiplier(hv, cfg.coeffs) * p

        fft, ifft = np.fft.fftn, np.fft.ifftn
        psi = ifft(filt * fft(psi0))
        for _ in range(cfg.n_steps()):
            psi_hat = fft(psi)
            a_hat = fft(N(psi))
            b_hat = fft(N(ifft(e_half * (psi_hat + (0.5 * dt) * a_hat))))
            c_hat = fft(N(ifft(e_half * psi_hat + (0.5 * dt) * b_hat)))
            d_hat = fft(N(ifft(e_full * psi_hat + dt * e_half * c_hat)))
            psi = ifft(filt * (e_full * psi_hat + (dt / 6.0) * (
                e_full * a_hat + 2.0 * e_half * (b_hat + c_hat) + d_hat)))
        return psi

    @pytest.mark.parametrize("dims", [1, 2], ids=["1d_me", "2d_ext"])
    def test_stage_spectrum_reuse_agrees_with_retransforming_oracle(self, dims):
        if dims == 1:
            grid = q.make_grid(1, 128, 2 * np.pi)
            psi0 = perturbed_plane_wave(grid, seed=5, cutoff=5, amplitude=0.3)
            coeffs = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        else:
            grid = q.make_grid(2, 32, 2 * np.pi)
            psi0 = q.random_state(grid, seed=3, cutoff=4, amplitude=0.3)
            coeffs = q.ext_coeffs(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
                                  b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])
        dt = 0.2 * stability_bound(grid, coeffs)
        cfg = EvolutionConfig(dt=dt, t_end=10 * dt, coeffs=coeffs, stride=100,
                              observables=False, norm_tol=1e-4)
        oracle = self.retransforming_if_rk4(grid, psi0, cfg)
        final = evolve(grid, psi0, cfg).final
        assert np.abs(final - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_mask_guard_on_nonlinear_initial_state_only(self):
        """mask_limit guards the decompositions the stepper reads; a linear
        run decomposes only to sample, without the guard."""
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0)
        masked = q.hydro_decompose(grid, psi0).masked_fraction
        limit = 0.5 * masked
        assert 0.0 < limit < EvolutionConfig.mask_limit
        shared = dict(dt=1e-3, t_end=2e-3, stride=1, mask_limit=limit)
        with pytest.raises(q.MaskOverflowError) as err:
            evolve(grid, psi0, EvolutionConfig(coeffs=q.MEParams(D1=0.1, b1=0.05, b6=0.02), **shared))
        assert err.value.fraction > limit
        traj = evolve(grid, psi0, EvolutionConfig(coeffs=None, **shared))
        assert len(traj.observables) == 3

    def test_mid_run_mask_overflow_aborts_with_partial_trajectory(self):
        """A stage input that crosses mask_limit after the first step began
        aborts the run, with the steps before it kept: the packet starts
        38.3% masked and narrows past 50% near t = 0.45."""
        grid = q.make_grid(1, 128, 24.0)
        psi0 = q.gaussian_packet(grid, t0=1.0, t=-1.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.5, coeffs=q.MEParams(D1=0.1, b1=0.05, b6=0.02),
                              stride=10, mask_limit=0.5)
        with pytest.raises(EvolutionAbort) as err:
            evolve(grid, psi0, cfg)
        overflow = err.value.__cause__
        assert isinstance(overflow, q.MaskOverflowError) and overflow.fraction > cfg.mask_limit
        assert 0.0 < err.value.trajectory.ts[-1] <= err.value.t_last

    def test_norm_guard_reference_is_the_filtered_state(self):
        """Content above the band filter is removed once, at t = 0; the norm
        guard measures drift from the filtered state, so a linear run does
        not abort on the filter's own loss."""
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi0 = q.random_state(grid, seed=1, cutoff=60)
        traj = evolve(grid, psi0, EvolutionConfig(dt=1e-3, t_end=0.1, coeffs=None, stride=10))
        norms = [s.norm for s in traj.observables]
        assert len(norms) == 11
        assert norms[0] < 1.0 - 1e-3  # the filter's loss shows in the t = 0 row
        assert max(norms) - min(norms) <= 1e-12

    def test_stability_bound_enforced(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=2)
        me = q.MEParams(D1=0.5, b1=0.0, b6=0.0)
        bound = stability_bound(grid, me)
        with pytest.raises(StabilityError):
            evolve(grid, psi0, EvolutionConfig(dt=5 * bound, t_end=50 * bound,
                                               coeffs=me, observables=False))

    def test_abort_reports_last_good_time(self):
        # drive an unstable run: large coupling near the stability edge
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi0 = perturbed_plane_wave(grid, seed=3, amplitude=0.45)
        me = q.MEParams(D1=0.8, b1=0.0, b6=0.0)
        dt = 0.98 * stability_bound(grid, me)
        cfg = EvolutionConfig(dt=dt, t_end=4000 * dt, coeffs=me, stride=50,
                              observables=False, norm_tol=1e-10)
        with pytest.raises(EvolutionAbort) as err:
            evolve(grid, psi0, cfg)
        assert err.value.t_last >= 0.0
        # the partial trajectory never runs past the reported last good time
        assert err.value.trajectory.ts[-1] <= err.value.t_last + 1e-12

    def test_non_finite_sample_aborts(self):
        """A sample with a non-finite entry aborts the run like norm drift
        does, with the partial trajectory and the last good time; here the
        norm stays finite and the drift guard is off."""
        grid = q.make_grid(1, 128, 24.0)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        dt = stability_bound(grid, me)
        cfg = EvolutionConfig(dt=dt, t_end=40 * dt, coeffs=me, stride=1, norm_tol=1e300)
        with np.errstate(all="ignore"), pytest.raises(EvolutionAbort) as err:
            evolve(grid, perturbed_gaussian(grid), cfg)
        assert err.value.reason == "non-finite samples"
        assert isinstance(err.value.__cause__, ValueError)
        traj = err.value.trajectory
        assert len(traj.observables) == len(traj.ts) > 1
        assert traj.ts[-1] == pytest.approx(err.value.t_last, rel=1e-12)

    @pytest.mark.parametrize("observables", [True, False])
    @pytest.mark.parametrize("coeffs", [None, q.MEParams(D1=0.1, b1=0.05, b6=0.02)], ids=["linear", "me"])
    @pytest.mark.parametrize("kind", ["nan", "huge", "zero"])
    def test_unevolvable_initial_state_refused(self, kind, coeffs, observables):
        """A state whose filtered norm is not finite and positive is refused
        with one ValueError, before the step-size guard and any snapshot,
        and without a warning (the suite turns warnings into errors): no
        run starts, so no abort carries a time before t = 0."""
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi0 = {"nan": 1.0, "huge": 1e160, "zero": 0.0}[kind] * perturbed_plane_wave(grid)
        if kind == "nan":
            psi0[5] = np.nan
        cfg = EvolutionConfig(dt=1e-6, t_end=2e-6, coeffs=coeffs, stride=1, observables=observables)
        with pytest.raises(ValueError, match="finite, nonzero norm") as err:
            evolve(grid, psi0, cfg)
        assert not isinstance(err.value, StabilityError)

    @pytest.mark.parametrize("coeffs", [None, q.MEParams(D1=0.1, b1=0.05, b6=0.02)], ids=["linear", "me"])
    def test_state_the_band_filter_mostly_removes_refused(self, coeffs):
        """A state whose content lies above the band filter (mode 30 on
        n = 64; the filter keeps |k| <= 25.6) would start from filtered
        roundoff; losing more than half its norm to the filter, it is
        refused with ValueError before any snapshot."""
        grid = q.make_grid(1, 64, 2 * np.pi)
        cfg = EvolutionConfig(dt=1e-6, t_end=2e-6, coeffs=coeffs, stride=1)
        with pytest.raises(ValueError, match="band filter removes 100.0%") as err:
            evolve(grid, q.plane_wave(grid, 30), cfg)
        assert not isinstance(err.value, StabilityError)

    def test_non_finite_initial_sample_refused(self):
        """A state of finite norm whose t = 0 sample is not finite is refused
        with ValueError, not aborted with a last good time before t = 0."""
        grid = q.make_grid(1, 64, 2 * np.pi)
        cfg = EvolutionConfig(dt=1e-6, t_end=2e-6, stride=1)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite samples"):
            evolve(grid, 1e150 * perturbed_plane_wave(grid), cfg)

    @pytest.mark.parametrize("stride", [2.5, np.nan, np.inf, True, 0, -3])
    def test_stride_must_be_a_positive_integer(self, stride):
        """Refused: a fractional stride samples where a multiple of it is a
        step (2.5: steps 5 and 10 of 10), a NaN or infinite one only t = 0
        and the end, and True runs as 1."""
        with pytest.raises(ValueError, match="stride must be"):
            EvolutionConfig(dt=1e-3, t_end=1e-2, stride=stride)

    def test_numpy_integer_stride_accepted(self):
        assert EvolutionConfig(dt=1e-3, t_end=1e-2, stride=np.int64(5)).stride == 5

    def test_snapshot_times_strictly_increasing(self):
        grid = q.make_grid(1, 64, 20.0)
        psi0 = q.gaussian_packet(grid, t0=1.0)
        traj = evolve(grid, psi0, EvolutionConfig(dt=1e-3, t_end=0.01, coeffs=None, stride=3))
        assert all(b > a for a, b in zip(traj.ts, traj.ts[1:]))


class TestLinearDispersion:
    """The growth rate the module docstring states for perturbations of a
    smooth active state,
    lambda(q) = [-b1 q^4 + sqrt(b1^2 q^8 + q^4 (D1 q^2 - 1))] / 2,
    read off a run: psi = exp(i eps (cos(14 x) + cos(3 x))) / sqrt(L) with
    eps = 1e-8 on n = 64, L = 2 pi, at 0.2x the stability bound, fitting the
    q-mode amplitude of the phase between t = 0.02 and t = 0.04 (the
    decaying branch of q = 14, at -2010, is gone by then).  q = 14 grows
    (D1 q^2 = 19.6); q = 3 has D1 q^2 = 0.9 < 1 and must not grow."""

    @staticmethod
    def rate(D1, b1, q_):
        return (-b1 * q_**4 + np.sqrt(b1**2 * q_**8 + q_**4 * (D1 * q_**2 - 1.0))) / 2.0

    @pytest.mark.parametrize("b6", [0.0, 0.02], ids=["b6_zero", "b6_nonzero"])
    def test_growth_rate_matches_linearization(self, b6):
        grid = q.make_grid(1, 64, 2 * np.pi)
        x = grid.axis_coords()
        me = q.MEParams(D1=0.1, b1=0.05, b6=b6)
        psi0 = np.exp(1e-8j * (np.cos(14 * x) + np.cos(3 * x))) / np.sqrt(grid.length)
        steps = 2 * int(np.ceil(0.02 / (0.2 * stability_bound(grid, me))))
        traj = evolve(grid, psi0, EvolutionConfig(dt=0.04 / steps, t_end=0.04, coeffs=me,
                                                  stride=steps // 2, observables=False))
        assert traj.ts[1:] == pytest.approx([0.02, 0.04], rel=1e-12)
        first, second = (np.abs(np.fft.fft(np.angle(f)))[[14, 3]] for f in traj.fields[1:])
        fitted = np.log(second / first) / 0.02
        # b6 multiplies t6 = grad(log rho) . grad(Lap S), which vanishes on a
        # uniform background, so the rate does not move with it
        assert fitted[0] == pytest.approx(self.rate(0.1, 0.05, 14), rel=1e-6)
        assert self.rate(0.1, 0.05, 3) < 0.0
        assert fitted[1] < 0.0


def _bits(psi, psi_hat, state):
    """The bytes of a (psi, psi_hat, state) triple: both fields, the record's
    multiplier and every array its view holds."""
    arrays = [psi, psi_hat, state.mult]
    for value in vars(state.hv).values():
        arrays += [a for a in (value if isinstance(value, list) else [value]) if isinstance(a, np.ndarray)]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("case", ["me_1d", "ext_2d"])
def test_step_from_a_saved_state_is_repeatable(case):
    """Two steps from the same (psi, psi_hat, state) return bit-identical
    triples and leave the inputs as they were, so a trial step or a
    rejected step can be taken again from the state it started at."""
    if case == "me_1d":
        grid = q.make_grid(1, 256, 2 * np.pi)
        psi0, coeffs = perturbed_plane_wave(grid, seed=2), q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    else:
        grid = q.make_grid(2, 32, 2 * np.pi)
        psi0 = q.random_state(grid, seed=1, cutoff=4, amplitude=0.3)
        coeffs = q.ext_coeffs(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
                              b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])
    dt = 0.05 * stability_bound(grid, coeffs)
    stepper = _Stepper(grid, EvolutionConfig(dt=dt, t_end=2 * dt, coeffs=coeffs))
    saved = stepper.start(psi0)
    before = _bits(*saved)
    first, second = stepper.step(*saved, False), stepper.step(*saved, False)
    assert _bits(*saved) == before
    assert _bits(*first) == _bits(*second)
    assert _bits(*first) != before


_EXT_2D = dict(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
               b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])


@pytest.mark.parametrize("case", ["me_1d", "me_2d", "ext_2d"])
def test_returned_states_hold_no_workspace_array(case):
    """A step returns fresh arrays: stepping three times from its own
    output leaves every triple returned before, and the saved start, with
    the bytes it had when returned, composites included."""
    if case == "me_1d":
        grid = q.make_grid(1, 256, 2 * np.pi)
        psi0, coeffs = perturbed_plane_wave(grid, seed=2), q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    else:
        grid = q.make_grid(2, 32, 2 * np.pi)
        psi0 = q.random_state(grid, seed=1, cutoff=4, amplitude=0.3)
        coeffs = q.MEParams(D1=0.1, b1=0.05, b6=0.02) if case == "me_2d" else q.ext_coeffs(**_EXT_2D)
    dt = 0.05 * stability_bound(grid, coeffs)
    stepper = _Stepper(grid, EvolutionConfig(dt=dt, t_end=4 * dt, coeffs=coeffs))
    assert stepper.ws is not None
    triples = [stepper.start(psi0)]
    for _ in range(3):
        triples.append(stepper.step(*triples[-1], False))
    for triple in triples:  # a generic view builds its composites for the energy alone
        triple[2].hv.fourth_order()

    def bits(triple):
        composites = vars(triple[2].hv._fourth_order).values()
        return _bits(*triple) + [a.tobytes() for a in composites if isinstance(a, np.ndarray)]

    bytes_when_returned = [bits(t) for t in triples]
    for _ in range(3):  # overwrite the workspace again
        stepper.step(*triples[-1], False)
    assert [bits(t) for t in triples] == bytes_when_returned


@pytest.mark.parametrize("case", ["me_1d", "masked_me_1d", "me_2d", "ext_2d"])
def test_a_stage_record_equals_the_standalone_record(case):
    """The record of a later stage, built into the workspace, and the
    standalone record of the same spectrum at the config's gates hold the
    same bits, field by field, and so do their explicit spectra.  The
    masked case decomposes a Gaussian with 71 of its 128 points (55.5%)
    below the density floor."""
    from nlse4.evolution import _explicit_rhs
    from nlse4.spectral import _forward

    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    if case == "me_1d":
        grid = q.make_grid(1, 256, 2 * np.pi)
        psi0, coeffs = perturbed_plane_wave(grid, seed=2), me
    elif case == "masked_me_1d":
        grid = q.make_grid(1, 128, 24.0)
        psi0, coeffs = perturbed_gaussian(grid), me
    else:
        grid = q.make_grid(2, 32, 2 * np.pi)
        psi0 = q.random_state(grid, seed=1, cutoff=4, amplitude=0.3)
        coeffs = me if case == "me_2d" else q.ext_coeffs(**_EXT_2D)
    dt = 0.05 * stability_bound(grid, coeffs)
    config = EvolutionConfig(dt=dt, t_end=4 * dt, coeffs=coeffs, gate_factor=8192.0, ratio_floor=1e-7)
    stepper = _Stepper(grid, config)
    assert stepper.ws is not None
    psi, psi_hat, _ = stepper.step(*stepper.start(psi0), False)  # the workspace is in use
    p_hat = stepper.e_half * psi_hat

    def bits(state):
        hv, fo = state.hv, state.hv.fourth_order()
        arrays = [hv.psi, hv.rho, hv.mask, *hv.g, *hv.grad_rho, hv.lap_rho, hv.rho_lap_s, hv.safe_rho,
                  fo.div_q, fo.u, fo.t1, fo.t6, state.mult]
        return [a.tobytes() for a in arrays] + [hv.masked_fraction, fo.gate]

    staged = bits(stepper.state(None, p_hat, stage=True))
    standalone = q.derive(q.hydro_decompose(grid, None, psi_hat=p_hat, eps_rho=config.eps_rho,
                                            gate_factor=config.gate_factor, ratio_floor=config.ratio_floor),
                          coeffs)
    if case == "masked_me_1d":
        assert standalone.hv.masked_fraction == 71 / 128
    assert staged == bits(standalone)
    rhs = _explicit_rhs(standalone.psi, None, standalone.mult, config.constants.hbar)
    assert stepper.explicit_hat(p_hat).tobytes() == _forward(grid, rhs, False).tobytes()


def test_a_later_stage_holds_only_its_multiplier_temporaries():
    """After the first step has filled the workspace, a later stage of a 1D
    ME step (decomposed from its spectrum alone, then its multiplier and
    explicit part) allocates no more than the plain-expression temporaries
    it holds at once: the arrays its transforms read and write come from
    the workspace.  Its peak is the multiplier's last subtraction, which
    holds the real continuity term (half a complex field), the complex
    phase term, the result and numpy's complex copy of the real operand
    (a ufunc's cast buffer spans up to 8192 points, so the whole field
    here), while the view holds its node mask: 3.5 complex fields and one
    boolean field.  The margin, two complex fields, covers the Python
    objects of the record, the finiteness mask of the spectrum and numpy's
    cache of shape blocks (about 100 B; together 0.7 fields); the same
    stage without the workspace allocates about 14 fields."""
    import tracemalloc

    grid = q.make_grid(1, 1024, 2 * np.pi)
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    dt = 0.05 * stability_bound(grid, me)
    stepper = _Stepper(grid, EvolutionConfig(dt=dt, t_end=4 * dt, coeffs=me))
    assert stepper.ws is not None
    psi, psi_hat, _ = stepper.step(*stepper.start(perturbed_plane_wave(grid, seed=2)), False)
    stage_input = stepper.e_half * psi_hat
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        spectrum = stepper.explicit_hat(stage_input)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    field = 16 * grid.npoints
    held = 3 * field + field // 2 + grid.npoints
    assert spectrum.nbytes == field
    assert peak <= held + 2 * field


@pytest.mark.parametrize("potential", [False, True])
def test_a_linear_run_holds_only_the_arrays_it_fills(potential):
    """A linear run decomposes nothing, so its workspace holds the psi that
    its later stages invert into, plus the explicit part only when there
    is a potential to fill it."""
    grid = q.make_grid(1, 128, 18.0)
    pot = q.harmonic_potential(grid, 1.0) if potential else None
    config = EvolutionConfig(dt=1e-3, t_end=2e-3, coeffs=q.linear_coeffs(), potential=pot)
    stepper = _Stepper(grid, config)
    stepper.step(*stepper.start(q.harmonic_eigenstate(grid, 0, omega=1.0)), False)
    assert set(stepper.ws) == ({"linear_psi", "rhs"} if potential else {"linear_psi"})


@pytest.mark.parametrize("dims, n, kept", [(1, 1024, True), (2, 32, True), (1, 2048, False), (2, 64, False)])
def test_only_grids_of_at_most_1024_points_keep_a_workspace(dims, n, kept):
    """The stage workspace pays only where numpy's fixed cost per call
    dominates (``_WORKSPACE_POINTS``); a larger grid allocates as it goes."""
    grid = q.make_grid(dims, n, 2 * np.pi)
    stepper = _Stepper(grid, EvolutionConfig(dt=1e-6, t_end=1e-6, coeffs=q.MEParams(D1=0.1, b1=0.05, b6=0.02)))
    assert (stepper.ws is not None) == kept


#: Transform calls of one IF-RK4 step of the 1D three-parameter engine.  Per
#: stage: ifft [psi, dpsi]; rfft [rho, g]; irfft [Lap rho, div g]; rfft
#: [P, F]; irfft [dP, Lap P, div q]; fft of the explicit part.  Four stages
#: of 6, plus the new state's inverse and its forward.  Each stacked call
#: counts once; per-field transforms made 49.
ME_1D_TRANSFORMS_PER_STEP = 26

#: The same on a 32^2 grid, without and with an observables sample every
#: step.  The stage-a view takes its gradient from the new state's spectrum
#: as one stacked inverse, as in 1D.  The sampled current divergence
#: forwards its two components as one stack.  One call per field made 65
#: and 74; one gradient call per axis made 27 and 35.
ME_2D_TRANSFORMS_PER_STEP = 26
ME_2D_TRANSFORMS_PER_SAMPLED_STEP = 34

#: Transform calls of one IF-RK4 step of the 2D ``ext`` engine on the
#: ``evolve_2d_ext`` coefficients, without and with an observables sample
#: every step.  One call per field in the decompositions made 89 and 105;
#: one gradient call per axis in the stage-a view made 71 and 81.
EXT_2D_TRANSFORMS_PER_STEP = 70
EXT_2D_TRANSFORMS_PER_SAMPLED_STEP = 80

#: ``np.where`` calls of one unsampled 1D three-parameter step on a state
#: with no masked point.  The gated-ratio pass of each composites build
#: writes its zeros in place, so none.  Masking every ratio with
#: ``np.where`` made 20, and gating with it 4.
ME_1D_UNMASKED_WHERES_PER_STEP = 0


def _calls_per_step(monkeypatch, module, names):
    """Counts the calls to ``module.<name>`` per step of a short run: the
    calls of six steps minus those of two, over four."""
    calls = []
    for name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def per_step(grid, psi0, coeffs, sampled=False):
        dt = 0.05 * stability_bound(grid, coeffs)

        def calls_for(steps):
            calls.clear()
            evolve(grid, psi0, EvolutionConfig(dt=dt, t_end=steps * dt, coeffs=coeffs,
                                               stride=1 if sampled else steps,
                                               observables=sampled))
            return len(calls)

        return (calls_for(6) - calls_for(2)) / 4

    return per_step


@pytest.fixture
def transforms_per_step(monkeypatch):
    return _calls_per_step(monkeypatch, np.fft,
                           ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"))


def test_me_1d_transform_budget(transforms_per_step):
    """Undoing the stacked transforms of a 1D or a 2D stage fails here."""
    grid = q.make_grid(1, 256, 2 * np.pi)
    psi0 = perturbed_plane_wave(grid, seed=2)
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    assert transforms_per_step(grid, psi0, me) == ME_1D_TRANSFORMS_PER_STEP
    grid = q.make_grid(2, 32, 2 * np.pi)
    psi0 = q.random_state(grid, seed=1, cutoff=4, amplitude=0.3)
    assert transforms_per_step(grid, psi0, me) == ME_2D_TRANSFORMS_PER_STEP
    assert transforms_per_step(grid, psi0, me, sampled=True) == ME_2D_TRANSFORMS_PER_SAMPLED_STEP


def test_me_1d_unmasked_masking_passes(monkeypatch):
    """On a state with no masked point the node mask costs no pass: masking
    a ratio, safe_rho or rho*Lap S with ``np.where`` again fails here."""
    grid = q.make_grid(1, 256, 2 * np.pi)
    psi0 = perturbed_plane_wave(grid, seed=2)
    assert q.hydro_decompose(grid, psi0).masked_fraction == 0.0
    wheres_per_step = _calls_per_step(monkeypatch, np, ("where",))
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    assert wheres_per_step(grid, psi0, me) == ME_1D_UNMASKED_WHERES_PER_STEP


def test_ext_2d_transform_budget(transforms_per_step):
    """A change to the transform calls of a 2D ``ext`` step, sampled or
    not, fails here."""
    grid = q.make_grid(2, 32, 2 * np.pi)
    psi0 = q.random_state(grid, seed=1, cutoff=4, amplitude=0.3)
    ext = q.ext_coeffs(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
                       b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])
    assert transforms_per_step(grid, psi0, ext) == EXT_2D_TRANSFORMS_PER_STEP
    assert transforms_per_step(grid, psi0, ext, sampled=True) == EXT_2D_TRANSFORMS_PER_SAMPLED_STEP


class TestGalileanBoost:
    def test_identity_at_zero_velocity(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=4)
        assert np.abs(galilean_boost(grid, psi, 0.0, t=0.7) - psi).max() <= 1e-13

    def test_plane_wave_momentum_shift(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        pw = q.plane_wave(grid, 2)
        v = q.wavenumber(grid, 3)
        assert np.abs(galilean_boost(grid, pw, v, t=0.0) - q.plane_wave(grid, 5)).max() <= 1e-13

    def test_boost_maps_free_solutions_to_free_solutions(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        k, v = q.wavenumber(grid, 2), q.wavenumber(grid, 3)
        t = 0.7
        solution_t = q.plane_wave(grid, 2) * np.exp(-0.5j * k**2 * t)
        k5 = q.wavenumber(grid, 5)
        expected = q.plane_wave(grid, 5) * np.exp(-0.5j * k5**2 * t)
        assert np.abs(galilean_boost(grid, solution_t, v, t=t) - expected).max() <= 1e-12

    def test_incommensurate_velocity_rejected(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        with pytest.raises(BoostError):
            galilean_boost(grid, q.plane_wave(grid, 1), 0.37, t=0.0)


class TestGaugeForm:
    def test_all_zero_is_exact(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=5)
        assert gauge_form_residual(grid, psi, q.MEParams(D1=0.0)) <= 1e-12

    def test_plane_wave_trivial(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = q.plane_wave(grid, 3)
        assert gauge_form_residual(grid, psi, q.MEParams(D1=0.2, b1=0.05, b6=0.0)) <= 1e-12

    def test_b6_zero_equivalence(self):
        grid = q.make_grid(1, 256, 2 * np.pi)
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = q.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=6, amplitude=0.3)
            assert gauge_form_residual(grid, psi, q.MEParams(D1=0.2, b1=0.05, b6=0.0)) <= 1e-8

    def test_zero_coupling_with_b_rejected(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = q.plane_wave(grid, 1)
        with pytest.raises(GaugeFormError):
            gauge_form_residual(grid, psi, q.MEParams(D1=0.0, b1=0.1))

    def test_requires_natural_units(self):
        grid = q.make_grid(1, 64, 2 * np.pi)
        psi = q.plane_wave(grid, 1)
        with pytest.raises(GaugeFormError):
            gauge_form_residual(grid, psi, q.MEParams(D1=0.1), q.PhysicalConstants(hbar=2.0))


def test_me_oscillator_eigenstates_unmodified():
    grid = q.make_grid(1, 128, 18.0)
    pot = q.harmonic_potential(grid, 1.0)
    me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
    for level in (0, 1):
        psi0 = q.harmonic_eigenstate(grid, level, omega=1.0)
        rho0 = np.abs(psi0) ** 2
        traj = evolve(grid, psi0, EvolutionConfig(dt=2e-3, t_end=1.0, coeffs=me,
                                                  stride=500, potential=pot, observables=False))
        assert np.abs(np.abs(traj.final) ** 2 - rho0).max() <= 1e-8
