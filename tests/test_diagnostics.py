"""Energies, Ehrenfest residuals, separability harness."""

import importlib

import numpy as np
import pytest

import nlse4 as q
from nlse4.diagnostics import (
    ehrenfest_consistency,
    ehrenfest_corrections,
    energy,
    observables_sample,
    separability_test,
)
from nlse4.evolution import EvolutionConfig, evolve, nonlinear_multiplier, stability_bound

from helpers import banded_localized_state, derived, extra_current, perturbed_gaussian, perturbed_plane_wave

CON = q.NATURAL_UNITS


class TestEnergy:
    def test_plane_wave_kinetic(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        k = q.wavenumber(grid, 3)
        psi = np.exp(1j * k * grid.axis_coords())  # unit density
        e_l, e_me = energy(derived(grid, psi, q.MEParams(D1=0.1)), None)
        assert e_l == pytest.approx(0.5 * k**2 * grid.length, rel=1e-10)
        assert e_me == e_l  # plane wave: LapLap S = 0

    def test_quadratic_phase_equality(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0, t=0.5)
        e_l, e_me = energy(derived(grid, psi, q.MEParams(D1=0.1, b1=0.3, b6=0.1)), None)
        assert e_me == e_l

    def test_b_equal_cancellation(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=2)
        e_l, e_me = energy(derived(grid, psi, q.MEParams(D1=0.1, b1=0.3, b6=0.3)), None)
        assert e_me == e_l

    def test_difference_linear_in_b1_minus_b6(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=4)
        gap = None
        for b1, b6 in ((0.05, 0.02), (0.13, 0.10), (0.23, 0.20)):
            e_l, e_me = energy(derived(grid, psi, q.MEParams(D1=0.1, b1=b1, b6=b6)), None)
            if gap is None:
                gap = e_me - e_l
            assert e_me - e_l == pytest.approx(gap, abs=1e-12)

    def test_oscillator_ground_energy(self):
        grid = q.make_grid(1, 128, 18.0)
        psi = q.harmonic_eigenstate(grid, 0, omega=1.0)
        pot = q.harmonic_potential(grid, 1.0)
        e_l, _ = energy(derived(grid, psi, None), pot)
        assert e_l == pytest.approx(0.5, abs=1e-9)


class TestEhrenfestCorrections:
    def test_gaussian_packet_zero(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0, t=0.3)
        i1, i2 = ehrenfest_corrections(derived(grid, psi, q.MEParams(D1=0.1, b1=0.05, b6=0.02)))
        assert abs(i1[0]) <= 1e-10 and abs(i2[0]) <= 1e-10

    def test_zero_couplings_exact_zero(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        i1, i2 = ehrenfest_corrections(derived(grid, psi, q.MEParams(D1=0.0)))
        assert i1[0] == 0.0 and i2[0] == 0.0

    def test_i1_against_independent_quadrature(self):
        """Windowed harmonic phase mode: I1 from the spectral machinery vs a
        brute-force quadrature of -m D1 x d/dx[rho S'''] built from a
        fourth-order finite-difference stack on a 16x refined grid."""
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.0)
        omega = q.mode_frequency(me, CON)
        k0 = np.sqrt(omega)
        length = 5 * 2 * np.pi / k0
        grid = q.make_grid(1, 128, length)
        sigma, A = 0.85, 0.5
        psi = banded_localized_state(grid, me, amplitude=A, sigma=sigma)
        i1, _ = ehrenfest_corrections(derived(grid, psi, me))

        fine = 16 * grid.n
        x = -0.5 * length + (length / fine) * np.arange(fine)
        h = length / fine
        rho = np.exp(-((x / sigma) ** 2))
        rho /= rho.sum() * h
        s_profile = (A / k0) * np.sin(k0 * x)

        def d_dx(f):  # 4th-order central difference, periodic
            return (8 * (np.roll(f, -1) - np.roll(f, 1))
                    - (np.roll(f, -2) - np.roll(f, 2))) / (12.0 * h)

        s3 = d_dx(d_dx(d_dx(s_profile)))
        integrand = x * d_dx(rho * s3)
        i1_oracle = -1.0 * me.D1 * integrand.sum() * h
        assert abs(i1[0]) > 1e-3  # the correction is genuinely nonzero here
        assert i1[0] == pytest.approx(i1_oracle, abs=1e-6)

    def test_translation_invariance(self):
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.0)
        omega = q.mode_frequency(me, CON)
        grid = q.make_grid(1, 128, 5 * 2 * np.pi / np.sqrt(omega))
        psi = banded_localized_state(grid, me, amplitude=0.5, sigma=0.85)
        shifted = np.roll(psi, 12)
        i1a, _ = ehrenfest_corrections(derived(grid, psi, me))
        i1b, _ = ehrenfest_corrections(derived(grid, shifted, me), enforce_tails=False)
        assert abs(i1a[0] - i1b[0]) <= 1e-8

    def test_fat_tails_rejected(self):
        grid = q.make_grid(1, 64, 8.0)
        x = grid.axis_coords()
        psi = np.exp(-(x**2) / 8.0).astype(complex)
        psi /= np.sqrt(grid.integrate(np.abs(psi) ** 2))
        with pytest.raises(q.StateError):
            ehrenfest_corrections(derived(grid, psi, q.MEParams(D1=0.1)))


class TestEhrenfestConsistency:
    def test_linear_free_gaussian(self):
        grid = q.make_grid(1, 128, 30.0)
        p0 = q.wavenumber(grid, 10)
        psi0 = q.gaussian_packet(grid, t0=1.2, p0=p0)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.5, coeffs=q.MEParams(D1=0.0), stride=25)
        traj = evolve(grid, psi0, cfg)
        report = ehrenfest_consistency(traj)
        assert report.max_r1 <= 1e-6
        assert report.max_r2 <= 1e-6


class TestSeparability:
    def test_linear_free_gaussians_factorize(self):
        grid = q.make_grid(1, 64, 20.0)
        psi1 = q.gaussian_packet(grid, t0=1.0, x0=1.0)
        psi2 = q.gaussian_packet(grid, t0=1.4, x0=-0.5)
        dev = separability_test(grid, psi1, psi2, None, None, None,
                                t_end=0.3, dt=2e-3, stride=50)
        assert dev <= 1e-8

    def test_grid_size_cap(self):
        grid = q.make_grid(1, 256, 20.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        with pytest.raises(ValueError):
            separability_test(grid, psi, psi, None, None, None, t_end=0.1, dt=1e-3)


def test_expectation_values_centered_coordinates():
    grid = q.make_grid(1, 128, 24.0)
    psi = q.gaussian_packet(grid, t0=1.0, x0=1.5, p0=q.wavenumber(grid, 8))
    sample = observables_sample(derived(grid, psi, None), 0.0, None)
    assert sample.x_mean[0] == pytest.approx(1.5, abs=1e-9)
    assert sample.p_mean[0] == pytest.approx(q.wavenumber(grid, 8), rel=1e-9)


class TestEngineParity:
    """MEParams and its ``ext`` expansion run through different engines
    (composites vs the generic functional pair) but describe one equation."""

    @pytest.mark.parametrize("b6", [0.0, 0.02])
    def test_me_and_expansion_agree(self, b6):
        me = q.MEParams(D1=0.1, b1=0.05, b6=b6)
        cs = me.expand()
        omega = q.mode_frequency(me, CON)
        grid = q.make_grid(1, 128, 5 * 2 * np.pi / np.sqrt(omega))
        psi = banded_localized_state(grid, me, amplitude=0.5, sigma=0.85)

        i1_me, i2_me = ehrenfest_corrections(derived(grid, psi, me))
        i1_cs, i2_cs = ehrenfest_corrections(derived(grid, psi, cs))
        assert abs(i1_me[0]) > 1e-2 and abs(i2_me[0]) > 1e-2
        assert i1_cs[0] == pytest.approx(i1_me[0], abs=1e-6)
        assert i2_cs[0] == pytest.approx(i2_me[0], abs=1e-6)

        assert energy(derived(grid, psi, cs), None) == energy(derived(grid, psi, me), None)
        hv = q.hydro_decompose(grid, psi)
        assert cs.d_currents() == me.d_currents()
        assert all(np.array_equal(x, y) for x, y in zip(q.currents(hv, me), q.currents(hv, cs)))
        for i, (di_me, di_cs) in enumerate(zip(me.d_currents(), cs.d_currents())):
            assert all(np.array_equal(x, y) for x, y in zip(extra_current(hv, i, di_me),
                                                            extra_current(hv, i, di_cs)))


class TestSharedDecomposition:
    """One observables sample reads the records of its snapshots: each
    snapshot is decomposed once, when its record is built, and energy,
    Ehrenfest corrections and continuity residual share that record."""

    COEFFS = [None, q.MEParams(D1=0.1, b1=0.05, b6=0.02),
              q.ext_coeffs(a=[0.1, 0.05, 0.02, 0.03, 0.01] * 2 + [0.0] * 3,
                           b=[0.05, 0.01, 0.02, 0.01, 0.01, 0.02, 0.01, 0.0, 0.01, 0.0, 0.01, 0.0, 0.0])]

    @staticmethod
    def state():
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=5, cutoff=5, amplitude=0.3)
        return grid, psi, q.hydro_decompose(grid, psi)

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["linear", "me", "ext"])
    def test_sample_decomposes_at_most_once_per_snapshot(self, coeffs, monkeypatch):
        grid, psi, _ = self.state()
        calls = []
        original = q.hydro_decompose
        # by full name: the package re-exports the function ``currents``;
        # the package itself binds the name ``derived`` builds records with
        for mod in [q] + [importlib.import_module(f"nlse4.{name}")
                          for name in ("diagnostics", "currents", "evolution")]:
            if hasattr(mod, "hydro_decompose"):
                monkeypatch.setattr(mod, "hydro_decompose",
                                    lambda *a, **k: calls.append(1) or original(*a, **k))
        observables_sample(derived(grid, psi, coeffs), 0.0, None)
        assert len(calls) == 1
        calls.clear()
        later = psi * np.exp(0.01j)
        sample = observables_sample(derived(grid, later, coeffs), 1e-3, None,
                                    prev=(0.0, derived(grid, psi, coeffs)))
        assert len(calls) <= 2
        assert np.isfinite(sample.cont_residual)

    @pytest.mark.parametrize("coeffs", COEFFS, ids=["linear", "me", "ext"])
    def test_sample_makes_no_complex_transform(self, coeffs, monkeypatch):
        grid, psi, _ = self.state()
        state = derived(grid, psi, coeffs)
        calls = []
        for name in ("fft", "fftn"):
            original = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _o=original, **k: calls.append(1) or _o(*a, **k))
        observables_sample(state, 0.0, None)
        assert calls == []


class TestSharedStateDerivation:
    """evolve derives each state once, into one record (view, multiplier,
    current divergence), and hands it, with the carried record of the
    previous sample, to the observables sample; sharing changes no bit of
    any sample."""

    EXT = TestSharedDecomposition.COEFFS[2]

    @classmethod
    def runs(cls):
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        grid1 = q.make_grid(1, 128, 2 * np.pi)
        grid2 = q.make_grid(2, 32, 2 * np.pi)
        return [
            (grid1, perturbed_plane_wave(grid1, seed=5, cutoff=5, amplitude=0.3), me, 5),
            (grid2, q.random_state(grid2, seed=3, cutoff=4, amplitude=0.3), cls.EXT, 4),
        ]

    @staticmethod
    def evolve_counted(grid, psi0, coeffs, steps, monkeypatch):
        counts = {"hydro_decompose": 0, "nonlinear_multiplier": 0}
        for fname, original in (("hydro_decompose", q.hydro_decompose),
                                ("nonlinear_multiplier", nonlinear_multiplier)):
            def counted(*a, _name=fname, _original=original, **k):
                counts[_name] += 1
                return _original(*a, **k)
            for name in ("diagnostics", "currents", "evolution"):
                mod = importlib.import_module(f"nlse4.{name}")
                if hasattr(mod, fname):
                    monkeypatch.setattr(mod, fname, counted)
        dt = 0.2 * stability_bound(grid, coeffs)
        cfg = EvolutionConfig(dt=dt, t_end=steps * dt, coeffs=coeffs, stride=1, norm_tol=1e-4)
        traj = evolve(grid, psi0, cfg)
        monkeypatch.undo()
        return traj, counts

    @pytest.mark.parametrize("case", [0, 1], ids=["1d_me", "2d_ext"])
    def test_each_state_derived_once(self, case, monkeypatch):
        grid, psi0, coeffs, steps = self.runs()[case]
        _, counts = self.evolve_counted(grid, psi0, coeffs, steps, monkeypatch)
        assert counts == {"hydro_decompose": 4 * steps + 1, "nonlinear_multiplier": 4 * steps + 1}

    @pytest.mark.parametrize("case", [0, 1], ids=["1d_me", "2d_ext"])
    def test_rows_equal_standalone_samples(self, case, monkeypatch):
        grid, psi0, coeffs, steps = self.runs()[case]
        traj, _ = self.evolve_counted(grid, psi0, coeffs, steps, monkeypatch)
        assert len(traj.observables) == steps + 1
        records = [derived(grid, psi, coeffs) for psi in traj.fields]
        for i, (t, state) in enumerate(zip(traj.ts, records)):
            prev = (traj.ts[i - 1], records[i - 1]) if i else None
            alone = observables_sample(state, t, None, prev=prev)
            assert repr(traj.observables[i]) == repr(alone)
        assert any(s.cont_residual != 0.0 for s in traj.observables[1:])

    @pytest.mark.parametrize("case", [0, 1], ids=["1d_me", "2d_ext"])
    def test_sampling_leaves_the_fields_unchanged(self, case):
        """The stored fields are bit-identical with observables on and off,
        at stride 1 and at stride n_steps: sampling never feeds back into
        the step."""
        grid, psi0, coeffs, steps = self.runs()[case]
        dt = 0.2 * stability_bound(grid, coeffs)
        fields = {(obs, stride): evolve(grid, psi0, EvolutionConfig(
                      dt=dt, t_end=steps * dt, coeffs=coeffs, stride=stride, norm_tol=1e-4,
                      observables=obs)).fields
                  for obs in (True, False) for stride in (1, steps)}
        full = fields[True, 1]
        assert len(full) == steps + 1
        for (_, stride), got in fields.items():
            want = full if stride == 1 else [full[0], full[-1]]
            assert len(got) == len(want) and all(map(np.array_equal, got, want))


class TestGateRouting:
    """The run's gates reach every sample through the record's view: the
    rows of a run at non-default gates equal standalone samples over records
    derived at those gates."""

    GATES = dict(gate_factor=4096.0, ratio_floor=1e-5)

    def test_rows_equal_samples_at_the_run_gates(self):
        grid = q.make_grid(1, 128, 24.0)
        psi0 = perturbed_gaussian(grid)
        me = q.MEParams(D1=0.1, b1=0.05, b6=0.02)
        dt = 0.1 * stability_bound(grid, me)
        cfg = EvolutionConfig(dt=dt, t_end=3 * dt, coeffs=me, stride=1, **self.GATES)
        traj = evolve(grid, psi0, cfg)
        at_run = [derived(grid, psi, me, **self.GATES) for psi in traj.fields]
        plain = [derived(grid, psi, me) for psi in traj.fields]
        at_default = []
        for i, t in enumerate(traj.ts):
            assert at_run[i].hv.masked_fraction > 0.0
            prev = (traj.ts[i - 1], at_run[i - 1]) if i else None
            alone = observables_sample(at_run[i], t, None, prev=prev)
            assert repr(traj.observables[i]) == repr(alone)
            prev = (traj.ts[i - 1], plain[i - 1]) if i else None
            at_default.append(observables_sample(plain[i], t, None, prev=prev).e_me)
            assert traj.observables[i].e_me != at_default[-1]
        assert len(at_default) == 4
        assert traj.observables[0].e_me == pytest.approx(0.24711854887774753, abs=1e-12)
        assert at_default[0] == pytest.approx(0.24711855053411316, abs=1e-12)


class _NotCoeffs:
    is_linear = True  # looks linear, but is no coefficient object


@pytest.mark.parametrize("call", [
    lambda grid, psi, c: energy(derived(grid, psi, c), None),
    lambda grid, psi, c: ehrenfest_corrections(derived(grid, psi, c)),
    lambda grid, psi, c: q.currents(q.hydro_decompose(grid, psi), c),
    lambda grid, psi, c: nonlinear_multiplier(q.hydro_decompose(grid, psi), c),
    lambda grid, psi, c: stability_bound(grid, c),
], ids=["energy", "ehrenfest_corrections", "currents", "nonlinear_multiplier", "stability_bound"])
@pytest.mark.parametrize("bogus", [object(), _NotCoeffs()], ids=["object", "duck"])
def test_unsupported_coefficient_object_rejected(call, bogus):
    grid = q.make_grid(1, 128, 24.0)
    psi = q.gaussian_packet(grid, t0=1.0)
    with pytest.raises(q.CoeffError, match=type(bogus).__name__):
        call(grid, psi, bogus)
