"""Coefficient containers and homogeneous-functional evaluation."""

import numpy as np
import pytest

import nlse4 as q
from nlse4.coeffs import CoeffError
import nlse4.functionals as functionals
from nlse4.functionals import _inner_scalars, eval_functional, forbidden_term, homogeneity_check
from nlse4.hydro import hydro_decompose
from nlse4.spectral import gradient, laplacian, spectral_derivative

from helpers import perturbed_plane_wave


class TestCoeffSet:
    def test_length_validation(self):
        with pytest.raises(CoeffError):
            q.CoeffSet(variant="dg", a=(1.0,) * 4, b=(0.0,) * 5)
        with pytest.raises(CoeffError):
            q.CoeffSet(variant="ext", a=(1.0,) * 13, b=(0.0,) * 5)
        with pytest.raises(CoeffError):
            q.CoeffSet(variant="weird", a=(), b=())

    def test_me_expansion(self):
        me = q.MEParams(D1=0.3, b1=0.1, b6=-0.2)
        cs = me.expand()
        assert cs.variant == "ext"
        assert cs.a[0] == cs.a[5] == 0.3
        assert cs.b[0] == 0.1 and cs.b[5] == -0.2
        assert sum(abs(v) for v in cs.a) == pytest.approx(0.6)
        assert sum(abs(v) for v in cs.b) == pytest.approx(0.3)
        assert cs.is_divergence_family()

    def test_linear_preset(self):
        assert q.linear_coeffs().is_linear
        assert not q.MEParams(D1=0.1).is_linear


class TestEvalFunctional:
    def test_plane_wave_dg_kinetic_term(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        k = q.wavenumber(grid, 3)
        psi = np.exp(1j * k * grid.axis_coords())
        hv = hydro_decompose(grid, psi)
        f = eval_functional((0, 0, 0, 0, 1), "dg", hv)
        assert np.abs(f - k**2).max() <= 1e-9

    def test_plane_wave_ext_all_zero(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = q.plane_wave(grid, 3)
        hv = hydro_decompose(grid, psi)
        rng = np.random.default_rng(0)
        f = eval_functional(rng.normal(size=13), "ext", hv)
        assert np.abs(f).max() <= 1e-7

    def test_gaussian_density_laplacian_term(self):
        # rho = e^{-x^2}: Lap rho / rho = 4x^2 - 2 near the center
        grid = q.make_grid(1, 256, 24.0)
        x = grid.axis_coords()
        psi = np.exp(-(x**2) / 2.0).astype(complex)
        hv = hydro_decompose(grid, psi)
        f = eval_functional((0, 0, 1, 0, 0), "dg", hv)
        center = np.abs(x) < 3.0
        assert np.abs((f - (4.0 * x**2 - 2.0))[center]).max() <= 1e-7

    def test_variant_mismatch(self):
        grid = q.make_grid(1, 64, 5.0)
        hv = hydro_decompose(grid, q.random_state(grid, seed=1, cutoff=6))
        with pytest.raises(CoeffError):
            eval_functional((1.0,) * 5, "ext", hv)


def per_term_ext(x, hv):
    """Reference ext evaluation: one derivative per nonzero term, each inner
    scalar differentiated on its own (no grouping by linearity)."""
    grid = hv.grid
    inner = _inner_scalars(hv)
    out = np.zeros(grid.shape)
    for j in range(5):  # terms 1..5: Lap I_j
        if x[j] != 0.0:
            out = out + x[j] * laplacian(grid, inner[j])
    for j in range(5):  # terms 6..10: (grad rho/rho) . grad I_j
        if x[5 + j] != 0.0:
            out = out + x[5 + j] * hv.dot_grad_log_rho(gradient(grid, inner[j]))
    for pos, j in ((10, 0), (11, 2), (12, 1)):  # terms 11..13: grad S . grad I_j
        if x[pos] != 0.0:
            out = out + x[pos] * hv.dot_grad_s(gradient(grid, inner[j]))
    return hv.zero_masked(out)


class TestGroupedExtEvaluation:
    GROUPS = (range(0, 5), range(5, 10), range(10, 13))

    @staticmethod
    def views():
        for dims, n in ((1, 128), (2, 32)):
            grid = q.make_grid(dims, n, 2 * np.pi)
            yield hydro_decompose(grid, perturbed_plane_wave(grid, seed=12, cutoff=4, amplitude=0.3))

    def coefficient_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            yield rng.normal(size=13)
        for dead in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            x = rng.normal(size=13) * (rng.random(13) < 0.6)
            for g in dead:
                x[list(self.GROUPS[g])] = 0.0
            yield x

    def test_matches_per_term_oracle(self):
        for hv in self.views():
            assert hv.masked_fraction == 0.0
            for x in self.coefficient_vectors():
                ref = per_term_ext(x, hv)
                got = eval_functional(x, "ext", hv)
                assert np.abs(got - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1e-300)

    def test_zero_group_costs_no_transform(self, monkeypatch):
        calls = []
        for name in ("gradient", "laplacian"):
            original = getattr(functionals, name)
            monkeypatch.setattr(
                functionals, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
            )
        hv = next(self.views())
        for live, expected in (((), []), ((0,), ["laplacian"]), ((1, 2), ["gradient"] * 2),
                               ((0, 1, 2), ["laplacian", "gradient", "gradient"])):
            x = np.zeros(13)
            for g in live:
                x[list(self.GROUPS[g])] = 0.1
            calls.clear()
            eval_functional(x, "ext", hv)
            assert calls == expected

    def test_pair_builds_inner_scalars_once(self, monkeypatch):
        """Both halves of functional_pair read one set of inner scalars and
        give what eval_functional gives for each half."""
        hv = next(self.views())
        cs = q.ext_coeffs(a=np.linspace(0.01, 0.13, 13), b=np.linspace(0.02, 0.0, 13))
        expected = (eval_functional(cs.a, cs.variant, hv), eval_functional(cs.b, cs.variant, hv))
        calls = []
        original = functionals._inner_scalars
        monkeypatch.setattr(functionals, "_inner_scalars", lambda v: calls.append(1) or original(v))
        for got, want in zip(functionals.functional_pair(cs, hv), expected, strict=True):
            assert np.array_equal(got, want)
        assert len(calls) == 1


class TestHomogeneity:
    def test_identity_lambda(self):
        grid = q.make_grid(1, 128, 7.0)
        psi = q.random_state(grid, seed=8)
        cs = q.MEParams(D1=0.2, b1=0.1, b6=0.05).expand()
        assert homogeneity_check(cs, hydro_decompose(grid, psi), hydro_decompose(grid, 1.0 * psi)) == 0.0

    @pytest.mark.parametrize("lam", [2.0, np.exp(1j * np.pi / 3), 0.25 - 0.7j])
    def test_scaling_and_phase(self, lam):
        """The deviation is relative to max |F[psi]| over both halves."""
        grid = q.make_grid(1, 128, 7.0)
        psi = q.random_state(grid, seed=9)
        hv, hv_l = hydro_decompose(grid, psi), hydro_decompose(grid, lam * psi)
        for cs in (q.dg_coeffs(a=(1, 1, 0.3, 0.2, -0.1), b=(0.1, 0.2, 0.3, 0.4, 0.5)),
                   q.MEParams(D1=0.2, b1=0.1, b6=0.05).expand()):
            assert homogeneity_check(cs, hv, hv_l) <= 1e-12

    def test_rejects_zero_lambda(self):
        grid = q.make_grid(1, 64, 5.0)
        psi = q.random_state(grid, seed=1, cutoff=6)
        with pytest.raises(ValueError, match="vanishes"):
            hydro_decompose(grid, 0.0 * psi)


class TestGaugeGeneratedCoefficients:
    def test_zero_potential_gives_linear(self):
        cs = q.dg_linearizable(0.0, 0.0)
        assert cs.is_linear

    def test_divergence_pairing(self):
        cs = q.dg_linearizable(1.0, 0.0)
        assert cs.a[0] == cs.a[1]
        assert cs.a[3] == cs.a[4] == 0.0

    @pytest.mark.parametrize("d1,d2", [(1.0, 0.0), (0.3, -0.7), (-0.4, 0.6)])
    def test_rhs_equality_oracle(self, d1, d2):
        """Assembled right-hand side equals the directly expanded
        covariant-derivative form on random band-limited states."""
        grid = q.make_grid(1, 256, 2 * np.pi)
        cs = q.dg_linearizable(d1, d2)
        rng = np.random.default_rng(42)
        for _ in range(4):
            psi = q.random_state(grid, seed=int(rng.integers(1 << 30)), cutoff=6, amplitude=0.3)
            hv = hydro_decompose(grid, psi)
            assembled = q.nonlinear_rhs(grid, psi, None, cs)
            A = [d1 * gs + d2 * gl for gs, gl in zip(hv.grad_s, hv.grad_log_rho)]
            dpsi = gradient(grid, psi)
            cov = (
                laplacian(grid, psi)
                - 1j * spectral_derivative(grid, A[0]) * psi
                - 2j * A[0] * dpsi[0]
                - A[0] ** 2 * psi
            )
            direct = 0.5j * cov
            assert np.abs(np.where(hv.mask, 0, assembled - direct)).max() <= 1e-10


class TestForbiddenTerm:
    def test_plane_wave_zero(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        hv = hydro_decompose(grid, q.plane_wave(grid, 3))
        assert np.abs(forbidden_term(hv, 1.3)).max() <= 1e-12

    def test_quadratic_phase_region(self):
        # S = x^2 under a wide envelope: (Lap S)^2 = 4, so the probe is 4*x14
        grid = q.make_grid(1, 256, 24.0)
        x = grid.axis_coords()
        psi = np.exp(-(x**2) / 8.0) * np.exp(1j * x**2)
        hv = hydro_decompose(grid, psi)
        center = np.abs(x) < 3.0
        f = forbidden_term(hv, 0.7)
        assert np.abs((f - 0.7 * 4.0)[center]).max() <= 1e-6

    def test_zero_coefficient(self):
        grid = q.make_grid(1, 64, 5.0)
        hv = hydro_decompose(grid, q.random_state(grid, seed=1, cutoff=6))
        assert np.abs(forbidden_term(hv, 0.0)).max() == 0.0


class TestStructuralAudits:
    def test_galilean_surviving_terms(self):
        """With all bare-grad-S terms off, F_b is invariant under the boost
        phase shift."""
        grid = q.make_grid(1, 128, 2 * np.pi)
        psi = perturbed_plane_wave(grid, seed=6, cutoff=6, amplitude=0.3)
        v = q.wavenumber(grid, 4)
        boosted = q.galilean_boost(grid, psi, v, t=0.0)
        x = np.zeros(13)
        for idx in (0, 1, 2, 5, 6, 7):
            x[idx] = 0.5 - 0.05 * idx
        f = eval_functional(x, "ext", hydro_decompose(grid, psi))
        fb = eval_functional(x, "ext", hydro_decompose(grid, boosted))
        assert np.abs(f - fb).max() <= 1e-10 * max(1.0, np.abs(f).max())
