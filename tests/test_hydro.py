"""Hydrodynamic decomposition and the density-weighted composites."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import nlse4 as q
from nlse4 import hydro
from nlse4.checks import check_hydro_scaling_invariance
from nlse4.diagnostics import energy
from nlse4.evolution import nonlinear_multiplier
from nlse4.hydro import fourth_order_composites, hydro_decompose, noise_gate
from nlse4.spectral import _forward, _ik, _inverse, _laplacian_symbol, divergence, gradient, spectral_derivative

from helpers import derived, perturbed_gaussian, perturbed_plane_wave


class TestDecomposition:
    def test_plane_wave(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        k = q.wavenumber(grid, 3)
        hv = hydro_decompose(grid, q.plane_wave(grid, 3))
        assert np.abs(hv.rho - 1.0).max() <= 1e-12
        assert np.abs(hv.grad_s[0] - k).max() <= 1e-10
        assert np.abs(hv.grad_log_rho[0]).max() <= 1e-10
        assert np.abs(hv.lap_s).max() <= 1e-9

    def test_real_gaussian(self):
        grid = q.make_grid(1, 128, 18.0)
        x = grid.axis_coords()
        psi = np.exp(-(x**2) / 2.0).astype(complex)
        hv = hydro_decompose(grid, psi)
        center = np.abs(x) < 3.0
        assert np.abs(hv.grad_s[0][center]).max() <= 1e-10
        assert np.abs((hv.grad_log_rho[0] + 2.0 * x)[center]).max() <= 1e-8

    def test_gaussian_packet_phase_gradient(self):
        # grad S = m t x / (t^2 + t0^2) for the dispersing packet
        grid = q.make_grid(1, 128, 24.0)
        t, t0 = 0.5, 1.0
        psi = q.gaussian_packet(grid, t0=t0, t=t)
        hv = hydro_decompose(grid, psi)
        x = grid.axis_coords()
        expected = t * x / (t**2 + t0**2)
        dense = hv.rho > 1e-4 * hv.rho.max()
        assert np.abs((hv.grad_s[0] - expected)[dense]).max() <= 1e-7
        # Lap S is the spatially constant t/(t^2+t0^2)
        assert np.abs((hv.lap_s - t / (t**2 + t0**2))[dense]).max() <= 1e-7

    def test_scaling_invariance(self):
        grid = q.make_grid(1, 128, 7.0)
        psi = q.random_state(grid, seed=5)
        hv = hydro_decompose(grid, psi)
        for lam in (2.0, np.exp(1j * np.pi / 3), 0.3 - 1.1j):
            hv2 = hydro_decompose(grid, lam * psi)
            for a, b in [
                (hv.grad_s[0], hv2.grad_s[0]),
                (hv.grad_log_rho[0], hv2.grad_log_rho[0]),
                (hv.lap_s, hv2.lap_s),
                (hv.lap_rho_over_rho, hv2.lap_rho_over_rho),
            ]:
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())

    def test_scaling_invariance_check_passes_every_seed(self):
        """The registry check bounds the same deviation in the same relative
        form, so roundoff alone never fails it."""
        for seed in range(40):
            result = check_hydro_scaling_invariance(seed)
            assert result.passed, (seed, result.measured)

    def test_roundtrip_gradient(self):
        grid = q.make_grid(1, 128, 7.0)
        psi = q.random_state(grid, seed=6)
        hv = hydro_decompose(grid, psi)
        assert np.abs(hv.rho * hv.grad_log_rho[0] - spectral_derivative(grid, hv.rho)).max() <= 1e-10

    def test_rejects_nonfinite(self):
        grid = q.make_grid(1, 64, 5.0)
        psi = np.ones(grid.shape, dtype=complex)
        psi[3] = np.nan
        with pytest.raises(ValueError):
            hydro_decompose(grid, psi)

    def test_rejects_vanishing_spectrum(self):
        """A state with no density has no ratio fields; the spectrum-only path
        rejects it as the psi path does."""
        grid = q.make_grid(1, 64, 5.0)
        with pytest.raises(ValueError, match="vanishes"):
            hydro_decompose(grid, None, psi_hat=np.zeros(grid.shape, dtype=complex))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_from_spectrum_alone_equals_from_psi(self, dims):
        """A view decomposed from its spectrum alone (the stage inputs of a
        run) equals the view of the inverse-transformed psi with the same
        spectrum, field by field and bit for bit."""
        grid = q.make_grid(dims, 64, 24.0)
        psi_hat = np.fft.fftn(perturbed_gaussian(grid))
        hv = hydro_decompose(grid, None, psi_hat=psi_hat)
        ref = hydro_decompose(grid, np.fft.ifftn(psi_hat), psi_hat=psi_hat)
        assert hv.masked_fraction > 0.0  # the mask is exercised
        for name in ("psi", "rho", "mask", "lap_rho", "rho_lap_s", "safe_rho"):
            assert np.array_equal(getattr(hv, name), getattr(ref, name)), name
        for name in ("g", "grad_rho"):
            for a, b in zip(getattr(hv, name), getattr(ref, name), strict=True):
                assert np.array_equal(a, b), name
        for name in ("rho_max", "masked_fraction", "eps_rho", "gate_factor", "ratio_floor"):
            assert getattr(hv, name) == getattr(ref, name), name
        fo, fo_ref = hv.fourth_order(), ref.fourth_order()
        for name in ("div_q", "u", "t1", "t6"):
            assert np.array_equal(getattr(fo, name), getattr(fo_ref, name)), name

    def test_spectrum_alone_is_validated(self):
        grid = q.make_grid(1, 64, 5.0)
        psi_hat = np.fft.fft(np.ones(grid.shape, dtype=complex))
        with pytest.raises(q.GridError):
            hydro_decompose(grid, None, psi_hat=psi_hat[:-1])
        bad = psi_hat.copy()
        bad[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            hydro_decompose(grid, None, psi_hat=bad)
        with pytest.raises(ValueError):
            hydro_decompose(grid, None)

    @pytest.mark.parametrize("source", ["psi", "spectrum"])
    def test_standalone_decompositions_share_no_array(self, source):
        """Without a workspace every call allocates its own arrays: two
        views of one state, and their composites, share no memory (``psi``
        given is the caller's array and is left out)."""
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=2)
        given, psi_hat = (psi, None) if source == "psi" else (None, _forward(grid, psi, False))

        def arrays(hv):
            fields = [getattr(hv, f.name) for f in dataclasses.fields(hv) if f.name != "psi" or source != "psi"]
            fields += list(vars(hv.fourth_order()).values())
            flat = [a for x in fields for a in (x if isinstance(x, list) else [x])]
            return [a for a in flat if isinstance(a, np.ndarray)]

        first, second = (arrays(hydro_decompose(grid, given, psi_hat=psi_hat)) for _ in range(2))
        assert len(first) == len(second) >= 12
        assert not any(np.shares_memory(a, b) for a in first for b in second)


RATIO_FIELDS = ("grad_s", "grad_log_rho", "lap_s", "lap_rho_over_rho")


def _masked_and_nodeless_views():
    """A localized Gaussian with masked tails and a nodeless random state."""
    grid = q.make_grid(1, 128, 24.0)
    masked = hydro_decompose(grid, perturbed_gaussian(grid))
    assert masked.masked_fraction > 0.0
    nodeless = hydro_decompose(grid, perturbed_plane_wave(grid))
    assert nodeless.masked_fraction == 0.0
    return {"masked_gaussian": masked, "nodeless_random": nodeless}


class TestLazyRatioFields:
    """The ratio fields are derived on first read from the stored numerators."""

    @pytest.mark.parametrize("state", ["masked_gaussian", "nodeless_random"])
    def test_equal_eager_formulas_bit_for_bit(self, state):
        hv = _masked_and_nodeless_views()[state]
        mask, safe_rho = hv.mask, hv.safe_rho
        eager = {
            "grad_s": [np.where(mask, 0.0, ga / safe_rho) for ga in hv.g],
            "grad_log_rho": [np.where(mask, 0.0, dra / safe_rho) for dra in hv.grad_rho],
            "lap_s": np.where(mask, 0.0, hv.rho_lap_s / safe_rho),
            "lap_rho_over_rho": np.where(mask, 0.0, hv.lap_rho / safe_rho),
        }
        for name, expected in eager.items():
            assert np.array_equal(getattr(hv, name), expected), name
        assert hv.rho_max == hv.rho.max()
        assert hv.masked_fraction == float(hv.mask.mean())

    @pytest.mark.parametrize("state", ["masked_gaussian", "nodeless_random"])
    def test_me_multiplier_builds_none_of_them(self, state):
        hv = _masked_and_nodeless_views()[state]
        nonlinear_multiplier(hv, q.MEParams(0.1, 0.05, 0.02))
        assert not set(RATIO_FIELDS) & set(vars(hv))

    def test_energy_reuses_the_multiplier_composites(self, monkeypatch):
        """The ME energy of a state reads the composites its multiplier built."""
        grid = q.make_grid(1, 128, 24.0)
        psi = perturbed_gaussian(grid)
        me = q.MEParams(0.1, 0.05, 0.02)
        fresh = energy(derived(grid, psi, me), None)
        built = []
        original = hydro.fourth_order_composites
        monkeypatch.setattr(hydro, "fourth_order_composites",
                            lambda *args: built.append(args) or original(*args))
        state = derived(grid, psi, me)
        assert energy(state, None) == fresh
        assert len(built) == 1
        # composites the energy builds for itself (the generic engine's
        # multiplier reads none) are not kept on the view
        alone = derived(grid, psi, me.expand())
        energy(alone, None)
        energy(alone, None)
        assert len(built) == 3


class TestFourthOrderComposites:
    def test_quadratic_phase_annihilated_exactly(self):
        grid = q.make_grid(1, 128, 24.0)
        for psi in (
            q.plane_wave(grid, 3),
            q.gaussian_packet(grid, t0=1.0),
            q.gaussian_packet(grid, t0=1.0, t=0.7, p0=q.wavenumber(grid, 4)),
            q.coherent_state(grid, omega=1.0, x0=1.0, p0=q.wavenumber(grid, 4)),
        ):
            hv = hydro_decompose(grid, psi)
            fo = fourth_order_composites(hv)
            assert np.abs(fo.u).max() == 0.0
            assert np.abs(fo.t1).max() == 0.0
            assert np.abs(fo.t6).max() == 0.0

    def test_sine_phase_values(self):
        # psi = exp(i eps sin(kx)): rho = 1, S = eps sin(kx), all composites analytic
        grid = q.make_grid(1, 128, 2 * np.pi)
        x = grid.axis_coords()
        eps, mode = 0.2, 3
        k = q.wavenumber(grid, mode)
        psi = np.exp(1j * eps * np.sin(k * x))
        hv = hydro_decompose(grid, psi)
        fo = fourth_order_composites(hv)
        lap_lap_s = eps * k**4 * np.sin(k * x)
        assert np.abs(fo.t1 - lap_lap_s).max() <= 1e-8 * k**4
        # constant density: u = t1 + t6 with t6 = 0
        assert np.abs(fo.t6).max() <= 1e-8
        assert np.abs(fo.u - lap_lap_s).max() <= 1e-8 * k**4

    def test_u_consistent_with_t1_plus_t6(self):
        # two different discretization routes to rho grad(Lap S); they agree
        # to the spectral resolution of the ratio fields
        grid = q.make_grid(1, 256, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=9, cutoff=5, amplitude=0.25)
        hv = hydro_decompose(grid, psi, gate_factor=0.0)
        fo = fourth_order_composites(hv)
        assert np.abs(fo.u - (fo.t1 + fo.t6)).max() <= 1e-8 * max(1.0, np.abs(fo.u).max())

    def test_gate_zeroes_noise_but_keeps_signal(self):
        grid = q.make_grid(1, 128, 24.0)
        psi = q.gaussian_packet(grid, t0=1.0)
        hv = hydro_decompose(grid, psi)
        fo = fourth_order_composites(hv)
        assert np.abs(fo.div_q).max() < fo.gate  # roundoff only
        active = perturbed_plane_wave(grid, seed=2)
        hva = hydro_decompose(grid, active)
        foa = fourth_order_composites(hva)
        assert np.abs(foa.div_q).max() > 1e4 * foa.gate  # genuine signal clears the gate

    @pytest.mark.parametrize("state", ["masked_gaussian", "plane_wave", "masked_gaussian_2d", "random_2d"])
    def test_div_q_is_the_spectral_divergence_of_q(self, state):
        """div q from the stacked spectra of P and (P/rho) grad rho equals
        the per-field divergence of q = grad P - (P/rho) grad rho, Nyquist
        modes included, and integrates to zero like a total divergence."""
        if state.startswith("masked_gaussian"):
            grid = q.make_grid(1, 128, 24.0) if state == "masked_gaussian" else q.make_grid(2, 64, 24.0)
            hv = hydro_decompose(grid, perturbed_gaussian(grid))
            assert hv.masked_fraction > 0.0
        elif state == "plane_wave":
            grid = q.make_grid(1, 256, 2 * np.pi)
            hv = hydro_decompose(grid, perturbed_plane_wave(grid, seed=2))
        else:
            grid = q.make_grid(2, 64, 2 * np.pi)
            hv = hydro_decompose(grid, q.random_state(grid, seed=5, cutoff=8, amplitude=0.3))
            assert hv.masked_fraction == 0.0
        P = hv.rho_lap_s
        flux = [dP - hv.ratio(P) * dr for dP, dr in zip(gradient(grid, P), hv.grad_rho)]
        ref = divergence(grid, flux)
        fo = fourth_order_composites(hv)
        assert np.abs(fo.div_q - ref).max() <= 1e-13 * np.abs(ref).max()
        assert abs(grid.integrate(fo.div_q)) <= 1e-14 * np.abs(fo.div_q).max() * grid.length

    def test_public_composites_use_the_view_gates(self):
        """The composites and the noise gate of a view decomposed at other
        gates are the view's own: no default gate sneaks back in."""
        grid = q.make_grid(1, 128, 24.0)
        hv = hydro_decompose(grid, perturbed_gaussian(grid),
                             ratio_floor=1e-4, gate_factor=4096.0)
        fo = hv.fourth_order(keep=False)
        alone = fourth_order_composites(hv)
        for name in ("div_q", "u", "t1", "t6", "gate"):
            assert np.array_equal(getattr(alone, name), getattr(fo, name)), name
        assert noise_gate(hv) == fo.gate


def _identity_view(state, **gates):
    """The three states of the masking identities: a nodeless 1D state, a
    1D Gaussian with masked tails and a nodeless 2D state."""
    if state == "unmasked_1d":
        grid = q.make_grid(1, 256, 2 * np.pi)
        hv = hydro_decompose(grid, perturbed_plane_wave(grid, seed=2), **gates)
    elif state == "masked_1d":
        grid = q.make_grid(1, 128, 24.0)
        hv = hydro_decompose(grid, perturbed_gaussian(grid), **gates)
    else:
        grid = q.make_grid(2, 32, 2 * np.pi)
        hv = hydro_decompose(grid, q.random_state(grid, seed=1, cutoff=4, amplitude=0.3), **gates)
    if not gates:
        assert (hv.masked_fraction > 0.5) == (state == "masked_1d")
    return hv


def _where_ratio(hv, x):
    """x / rho with masked points zeroed, written with np.where."""
    return np.where(hv.mask, 0.0, x / np.where(hv.mask, 1.0, hv.rho))


def _reference_rho_lap_s(hv):
    """div g - grad_rho . g / rho with the masked ratio written with np.where;
    div g from the transforms the decomposition takes."""
    grid = hv.grid
    div_g = _ik(grid, 0, True) * _forward(grid, hv.g[0], True)
    for a in range(1, grid.dims):
        div_g += _ik(grid, a, True) * _forward(grid, hv.g[a], True)
    dot = hv.grad_rho[0] * hv.g[0]
    for a in range(1, grid.dims):
        dot += hv.grad_rho[a] * hv.g[a]
    return _inverse(grid, div_g, True) - _where_ratio(hv, dot)


def _reference_composites(hv):
    """(div_q, u, t1, t6, gate) with every mask written with np.where, the
    gate scale from per-field abs-max reductions and ``dense`` from two
    comparisons; the transforms are those the composites take, one field
    at a time."""
    grid, dims = hv.grid, hv.grid.dims
    P = hv.rho_lap_s
    ratio_P = _where_ratio(hv, P)
    P_hat = _forward(grid, P, True)
    lap_P = _inverse(grid, _laplacian_symbol(grid.n, grid.length, dims, True) * P_hat, True)
    F = [ratio_P * dra for dra in hv.grad_rho]
    ik = [_ik(grid, a, True) for a in range(dims)]
    F_hat = [_forward(grid, Fa, True) for Fa in F]
    div_q_hat = (ik[0] * P_hat - F_hat[0]) * ik[0]
    for a in range(1, dims):
        div_q_hat += ik[a] * (ik[a] * P_hat - F_hat[a])
    div_q = _inverse(grid, div_q_hat, True)
    dP = [_inverse(grid, ik[a] * P_hat, True) for a in range(dims)]
    dot = hv.grad_rho[0] * (dP[0] - F[0])
    for a in range(1, dims):
        dot += hv.grad_rho[a] * (dP[a] - F[a])
    r6 = _where_ratio(hv, dot)
    r1 = lap_P - 2.0 * r6 - ratio_P * hv.lap_rho
    scale = max(1.0, max(abs(ga).max() for ga in hv.g), max(abs(da).max() for da in hv.grad_rho),
                abs(P).max(), hv.rho_max)
    gate = hv.gate_factor * np.finfo(float).eps * (1.0 + grid.kmax) ** 3 * scale
    dense = ~hv.mask & (hv.rho >= hv.ratio_floor * hv.rho_max)
    safe_rho = np.where(hv.mask, 1.0, hv.rho)
    u, t1, t6 = (np.where(dense & (np.abs(num) > gate), num / safe_rho, 0.0) for num in (div_q, r1, r6))
    return div_q, u, t1, t6, gate


def _same_bits(a, b):
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


IDENTITY_STATES = ["unmasked_1d", "masked_1d", "unmasked_2d"]


class TestMaskingIdentities:
    """The masked ratios, rho*Lap S and the composites equal the np.where
    formulas bit for bit, on views with and without masked points: a view
    with no masked point skips the mask, one with masked points zeroes them
    by assignment, and the noise gate and ``dense`` take fewer passes."""

    @pytest.mark.parametrize("state", IDENTITY_STATES)
    def test_ratio_and_rho_lap_s(self, state):
        hv = _identity_view(state)
        for x in (*hv.g, *hv.grad_rho, hv.lap_rho, hv.rho_lap_s, -hv.rho_lap_s):
            assert _same_bits(hv.ratio(x), _where_ratio(hv, x))
        assert _same_bits(hv.rho_lap_s, _reference_rho_lap_s(hv))
        assert _same_bits(hv.zero_masked(hv.lap_rho.copy()), np.where(hv.mask, 0.0, hv.lap_rho))

    @pytest.mark.parametrize("state", IDENTITY_STATES)
    def test_composites(self, state):
        hv = _identity_view(state)
        fo = fourth_order_composites(hv)
        for name, ref in zip(("div_q", "u", "t1", "t6", "gate"), _reference_composites(hv)):
            assert _same_bits(getattr(fo, name), ref), name

    @pytest.mark.parametrize("eps_rho", [1e-6, 1e-8, 1e-12, 0.0], ids=["above", "equal", "below", "zero"])
    def test_dense_is_one_comparison(self, eps_rho):
        """``dense`` at the node floor above, equal to and below the ratio
        floor of 1e-8, and with no node floor."""
        hv = _identity_view("masked_1d", eps_rho=eps_rho)
        assert (hv.masked_fraction > 0.0) == (eps_rho > 0.0)
        dense = ~hv.mask & (hv.rho >= hv.ratio_floor * hv.rho_max)
        assert np.array_equal(hv.rho >= max(eps_rho, hv.ratio_floor) * hv.rho_max, dense)
        fo = fourth_order_composites(hv)
        for name, ref in zip(("div_q", "u", "t1", "t6", "gate"), _reference_composites(hv)):
            assert _same_bits(getattr(fo, name), ref), name


def _public_signatures():
    """(module, qualified name, parameters) of every public function, and of
    every public method of a class, that a module of the package defines."""
    for info in pkgutil.iter_modules(q.__path__):
        mod = importlib.import_module(f"nlse4.{info.name}")
        for name, obj in inspect.getmembers(mod):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, f"{mod.__name__}.{name}", inspect.signature(obj).parameters
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # unwrap class and static methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield mod, f"{mod.__name__}.{name}.{attr}", inspect.signature(fn).parameters


def test_gate_settings_are_named_only_by_hydro():
    """The node floor, the noise gate and the ratio floor are decided when a
    view is built: no public function or method but ``hydro_decompose``
    takes one as a keyword."""
    scanned = [name for _, name, _ in _public_signatures()]
    for method in ("nlse4.hydro.HydroView.fourth_order", "nlse4.coeffs.MEParams.expand",
                   "nlse4.coeffs.CoeffSet.is_divergence_family", "nlse4.bands.PhaseMode.from_params"):
        assert method in scanned
    naming = [f"{name}({key})" for _, name, params in _public_signatures()
              for key in ("eps_rho", "gate_factor", "ratio_floor") if key in params]
    assert naming == [f"nlse4.hydro.hydro_decompose({key})" for key in ("eps_rho", "gate_factor", "ratio_floor")]


def test_sample_side_keyword_budget():
    """What is derived from one state travels in its record: no public
    function takes an optional view ``hv``, and none takes a derived field
    (multiplier, current divergence, spectrum of a real field) as a
    keyword."""
    optional_hv = [name for _, name, params in _public_signatures()
                   if "hv" in params and params["hv"].default is not inspect.Parameter.empty]
    assert optional_hv == []
    derived_fields = ("mult", "div_j", "prev_div_j", "div_before", "div_after", "field_hat")
    naming = [f"{name}({key})" for _, name, params in _public_signatures()
              for key in derived_fields if key in params]
    assert naming == []


def test_mask_limit_is_a_run_setting():
    """Whether a state is too singular for the scheme is decided by the run:
    no public function or method takes a mask limit, and the one setting is
    ``EvolutionConfig.mask_limit``."""
    naming = [f"{name}({key})" for _, name, params in _public_signatures()
              for key in params if "mask" in key]
    assert naming == []
    assert [f.name for f in dataclasses.fields(q.EvolutionConfig) if "mask" in f.name] == ["mask_limit"]
