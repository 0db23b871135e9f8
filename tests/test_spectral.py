"""Grid construction and Fourier-collocation calculus."""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nlse4 as q
from nlse4.spectral import (
    GridError,
    _forward,
    _gradient,
    _ik,
    _inverse,
    _inverse_and_gradient,
    _laplacian_symbol,
    _half_shape,
    divergence,
    gradient,
    laplacian,
    spectral_derivative,
)


class TestMakeGrid:
    def test_rejects_small_n(self):
        with pytest.raises(GridError):
            q.make_grid(1, 8, 1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            q.make_grid(1, 100, 1.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GridError):
            q.make_grid(1, 64, 0.0)
        with pytest.raises(GridError):
            q.make_grid(1, 64, -2.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(GridError):
            q.make_grid(3, 64, 1.0)

    def test_spacing_1d(self):
        grid = q.make_grid(1, 256, 2 * np.pi)
        assert grid.dx == pytest.approx(2 * np.pi / 256, rel=0, abs=0)
        assert grid.dx * grid.n == pytest.approx(grid.length, rel=1e-15)

    def test_spacing_2d(self):
        grid = q.make_grid(2, 64, 20.0)
        assert grid.npoints == 4096
        assert grid.dx == pytest.approx(0.3125)


class TestSpectralDerivative:
    def test_sin_first_derivative(self):
        grid = q.make_grid(1, 128, 2 * np.pi)
        x = grid.axis_coords()
        d = spectral_derivative(grid, np.sin(x), order=1)
        assert np.abs(d - np.cos(x)).max() <= 1e-12

    @pytest.mark.parametrize("mode", [1, 3, 5, 8])
    def test_plane_wave_fourth_derivative(self, mode):
        # modes up to n/4; the grid keeps the eps * k_max^4 roundoff floor
        # under the relative bound even for the slowest mode
        grid = q.make_grid(1, 32, 2 * np.pi)
        x = grid.axis_coords()
        k = 2 * np.pi * mode / grid.length
        f = np.exp(1j * k * x)
        d4 = spectral_derivative(grid, f, order=4)
        assert np.abs(d4 - k**4 * f).max() <= 1e-10 * k**4

    def test_constant_field_any_order(self):
        grid = q.make_grid(1, 64, 5.0)
        f = np.full(grid.shape, 2.7)
        for order in (1, 2, 3, 4):
            assert np.abs(spectral_derivative(grid, f, order=order)).max() <= 1e-12

    def test_rejects_bad_order(self):
        grid = q.make_grid(1, 64, 5.0)
        with pytest.raises(ValueError):
            spectral_derivative(grid, np.zeros(grid.shape), order=5)

    def test_linearity(self):
        grid = q.make_grid(1, 128, 7.0)
        f = q.random_state(grid, seed=1, cutoff=12)
        g = q.random_state(grid, seed=2, cutoff=12)
        lhs = spectral_derivative(grid, 0.3 * f - 1.7 * g)
        rhs = 0.3 * spectral_derivative(grid, f) - 1.7 * spectral_derivative(grid, g)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_composition(self):
        grid = q.make_grid(1, 128, 7.0)
        f = q.random_state(grid, seed=3, cutoff=12)
        twice = spectral_derivative(grid, spectral_derivative(grid, f))
        assert np.abs(twice - spectral_derivative(grid, f, order=2)).max() <= 1e-10

    def test_2d_gradient_and_laplacian(self):
        grid = q.make_grid(2, 64, 2 * np.pi)
        X, Y = grid.coords()
        f = np.sin(3 * X) * np.cos(2 * Y)
        gx, gy = gradient(grid, f)
        assert np.abs(gx - 3 * np.cos(3 * X) * np.cos(2 * Y)).max() <= 1e-11
        assert np.abs(gy + 2 * np.sin(3 * X) * np.sin(2 * Y)).max() <= 1e-11
        lap = laplacian(grid, f)
        assert np.abs(lap + 13 * f).max() <= 1e-10
        div = divergence(grid, [gx, gy])
        assert np.abs(div - lap).max() <= 1e-10


def test_integrate_periodic_exactness():
    grid = q.make_grid(1, 64, 2 * np.pi)
    x = grid.axis_coords()
    assert grid.integrate(np.cos(3 * x) ** 2) == pytest.approx(np.pi, abs=1e-12)


def test_1d_transforms_equal_nd_transforms_bit_for_bit():
    """On 1D fields the helpers call the one-axis transforms directly; the
    n-D transforms run the same kernel, so the results are identical."""
    grid = q.make_grid(1, 256, 5.0)
    rng = np.random.default_rng(4)
    real = rng.standard_normal(grid.n)
    cplx = real + 1j * rng.standard_normal(grid.n)
    real_hat, cplx_hat = np.fft.rfftn(real), np.fft.fftn(cplx)
    assert np.array_equal(_forward(grid, real, True), real_hat)
    assert np.array_equal(_forward(grid, cplx, False), cplx_hat)
    assert np.array_equal(_inverse(grid, real_hat, True), np.fft.irfftn(real_hat, s=grid.shape, axes=(0,)))
    assert np.array_equal(_inverse(grid, cplx_hat, False), np.fft.ifftn(cplx_hat))


def test_2d_first_derivative_equals_gradient_bit_for_bit():
    """spectral_derivative transforms through the helpers gradient() uses,
    so on a 2D grid their first derivatives are the same bits."""
    grid = q.make_grid(2, 64, 7.0)
    psi = q.random_state(grid, seed=7, cutoff=10)
    for f in (psi.real, psi):
        for a, d in enumerate(gradient(grid, f)):
            assert np.array_equal(spectral_derivative(grid, f, 1, a), d)


def test_only_spectral_calls_fft_transforms():
    """Every other module transforms through spectral's helpers.  A
    ``numpy.fft`` transform named anywhere else in the package fails here;
    the transform names are the benchmark tracer's, so ``fftfreq`` is not
    one."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracer)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = {}
    for path in sorted(Path(q.__file__).parent.glob("*.py")):
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if getattr(owner, "attr", getattr(owner, "id", None)) == "fft":
                    names.append(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.fft", "scipy.fft"):
                names += [alias.name for alias in node.names]
        transforms = sorted({n for n in names if tracing.TRANSFORM_RE.match(n)})
        if transforms:
            found[path.stem] = transforms
    assert list(found) == ["spectral"]


def test_real_input_gives_real_output():
    grid = q.make_grid(1, 64, 3.0)
    f = np.cos(2 * np.pi * grid.axis_coords() / grid.length)
    assert spectral_derivative(grid, f).dtype == np.float64


class TestRealFieldPath:
    """Real fields go through the half-spectrum transforms; the same data
    cast to complex takes the full complex path."""

    @staticmethod
    def field(grid, seed):
        return q.random_state(grid, seed=seed, cutoff=10, amplitude=0.5).real

    @staticmethod
    def assert_parity(real_out, complex_out):
        assert real_out.dtype == np.float64
        assert np.iscomplexobj(complex_out)
        scale = np.abs(complex_out).max()
        assert np.abs(real_out - complex_out).max() <= 1e-12 * scale

    @pytest.mark.parametrize("dims", [1, 2])
    def test_gradient_divergence_laplacian(self, dims):
        grid = q.make_grid(dims, 64, 7.0)
        f = self.field(grid, 1)
        for d_real, d_cplx in zip(gradient(grid, f), gradient(grid, f + 0j)):
            self.assert_parity(d_real, d_cplx)
        self.assert_parity(laplacian(grid, f), laplacian(grid, f + 0j))
        vec = [self.field(grid, 2 + a) for a in range(dims)]
        self.assert_parity(divergence(grid, vec), divergence(grid, [v + 0j for v in vec]))

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("order", [1, 3])
    def test_odd_order_spectral_derivative(self, dims, order):
        grid = q.make_grid(dims, 64, 7.0)
        f = self.field(grid, 5)
        for axis in range(dims):
            self.assert_parity(
                spectral_derivative(grid, f, order=order, axis=axis),
                spectral_derivative(grid, f + 0j, order=order, axis=axis),
            )

    @pytest.mark.parametrize("dims", [1, 2])
    def test_odd_orders_zero_nyquist_mode_on_both_paths(self, dims):
        grid = q.make_grid(dims, 32, 5.0)
        nyquist = (-1.0) ** np.arange(grid.n)  # cos(k_max x_j) up to sign
        f = nyquist if dims == 1 else np.outer(nyquist, nyquist)
        for field in (f, f + 0j):
            for order in (1, 3):
                for axis in range(dims):
                    assert np.abs(spectral_derivative(grid, field, order, axis)).max() <= 1e-12
            assert max(np.abs(d).max() for d in gradient(grid, field)) <= 1e-12
            assert np.abs(divergence(grid, [field] * dims)).max() <= 1e-12

    @pytest.mark.parametrize("dims", [1, 2])
    def test_stacked_transforms_match_per_field(self, dims):
        """A stack is one array on either grid, transformed in one call, and
        every row of a stacked transform equals the transform of that row
        alone bit for bit; so do psi and its gradient taken together from
        one spectrum.  The gradient and Laplacian of one field from one
        stacked inverse, the form the composites use, equal gradient() and
        laplacian()."""
        grid = q.make_grid(dims, 64, 7.0)
        fields = np.empty((3,) + grid.shape)
        for i, row in enumerate(fields):
            row[...] = self.field(grid, 6 + i)
        spec = _forward(grid, fields, True)
        for f, row in zip(fields, spec):
            assert np.array_equal(row, _forward(grid, f, True))
        for fhat, row in zip(spec, _inverse(grid, spec, True)):
            assert np.array_equal(row, _inverse(grid, fhat, True))

        psi_hat = _forward(grid, q.random_state(grid, seed=6, cutoff=10), False)
        psi, dpsi = _inverse_and_gradient(grid, psi_hat)
        assert np.array_equal(psi, _inverse(grid, psi_hat, False))
        for a, b in zip(dpsi, _gradient(grid, psi_hat, False)):
            assert np.array_equal(a, b)
        # the gradient alone, from one stack inverted in place
        stack = np.empty((dims,) + grid.shape, dtype=complex)
        none, grad = _inverse_and_gradient(grid, psi_hat, with_psi=False, stack=stack)
        assert none is None and grad.base is stack
        for a, b in zip(grad, _gradient(grid, psi_hat, False)):
            assert np.array_equal(a, b)
        # a transform written into ``out`` has the bits of the returned one
        for real, field in ((True, fields), (False, psi)):
            spectrum = _forward(grid, field, real)
            into = np.empty_like(spectrum)
            assert _forward(grid, field, real, out=into) is into and np.array_equal(into, spectrum)
            back = np.empty_like(field)
            assert np.array_equal(_inverse(grid, spectrum, real, out=back), _inverse(grid, spectrum, real))

        fhat = spec[0]
        stack = np.empty((dims + 1,) + _half_shape(grid), dtype=complex)
        for a in range(dims):
            stack[a][...] = _ik(grid, a, True) * fhat
        stack[dims][...] = _laplacian_symbol(grid.n, grid.length, dims, True) * fhat
        *grad, lap = _inverse(grid, stack, True)
        for a, b in zip(grad, gradient(grid, fields[0])):
            assert np.array_equal(a, b)
        assert np.array_equal(lap, laplacian(grid, fields[0]))
