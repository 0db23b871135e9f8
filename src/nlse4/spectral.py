"""Uniform periodic grids and Fourier-collocation calculus.

Fields are plain numpy arrays of shape ``grid.shape`` on a uniform periodic
box in one or two dimensions.  Differentiation is Fourier collocation, which
is exact for band-limited data; that accuracy is what keeps fourth-order
composite derivatives meaningful at double precision.

The input dtype selects the transform.  Real fields (density, currents,
phase composites) go through the half-spectrum transforms ``rfftn``/``irfftn``,
which cost about half a complex transform and return real arrays; complex
fields (the wavefunction) use the full complex transforms.  All derivative
symbols, and with them the odd-order Nyquist rule, come from one builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or field/grid mismatch."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant and particle mass; defaults are natural units."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and self.mass > 0.0):
            raise ValueError("hbar and mass must be positive")


NATURAL_UNITS = PhysicalConstants()


@lru_cache(maxsize=64)
def _wavenumbers_1d(n: int, length: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    k.flags.writeable = False
    return k


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid, same point count and box length per axis.

    Coordinates are centered: x_j = -L/2 + j*dx, so localized states sit in
    the middle of the box and position expectation values are well defined.
    """

    dims: int
    n: int
    length: float

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dims

    @property
    def npoints(self) -> int:
        return self.n**self.dims

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dims

    @property
    def kmax(self) -> float:
        return np.pi / self.dx

    def axis_coords(self) -> np.ndarray:
        return -0.5 * self.length + self.dx * np.arange(self.n)

    def coords(self) -> tuple:
        """Meshgrid coordinate arrays, one per axis ('ij' indexing)."""
        x = self.axis_coords()
        if self.dims == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def k_along(self, axis: int) -> np.ndarray:
        """Wavenumber array broadcastable along the given axis."""
        k = _wavenumbers_1d(self.n, self.length)
        if self.dims == 1:
            return k
        shape = [1] * self.dims
        shape[axis] = self.n
        return k.reshape(shape)

    def k_squared(self) -> np.ndarray:
        out = sum(self.k_along(a) ** 2 for a in range(self.dims))
        return np.asarray(out)

    def validate_field(self, field: np.ndarray) -> None:
        if field.shape != self.shape:
            raise GridError(f"field shape {field.shape} does not match grid {self.shape}")

    def integrate(self, field: np.ndarray):
        """Rectangle-rule volume integral (spectrally accurate on periodic boxes)."""
        return field.sum() * self.cell_volume


def make_grid(dims: int, n: int, length: float) -> Grid:
    if dims not in (1, 2):
        raise GridError(f"dims must be 1 or 2, got {dims}")
    if n < 16:
        raise GridError(f"need at least 16 points per axis, got {n}")
    if n & (n - 1) != 0:
        raise GridError(f"points per axis must be a power of two, got {n}")
    if not (length > 0.0 and np.isfinite(length)):
        raise GridError(f"box length must be positive and finite, got {length}")
    return Grid(dims=dims, n=n, length=float(length))


def spectral_derivative(grid: Grid, field: np.ndarray, order: int = 1, axis: int = 0) -> np.ndarray:
    """Fourier-collocation derivative of the given order along one axis.

    Orders 1..4 are supported.  For odd orders the Nyquist mode is zeroed,
    the standard convention that keeps derivatives of real fields real.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    if not 0 <= axis < grid.dims:
        raise ValueError(f"axis {axis} out of range for {grid.dims}D grid")
    grid.validate_field(field)
    real = np.isrealobj(field)
    fac = _symbol(grid.n, grid.length, grid.dims, axis, order, real)
    if real:
        return np.fft.irfft(fac * np.fft.rfft(field, axis=axis), n=grid.n, axis=axis)
    return np.fft.ifft(fac * np.fft.fft(field, axis=axis), axis=axis)


@lru_cache(maxsize=128)
def _symbol(n: int, length: float, dims: int, axis: int, order: int, half: bool) -> np.ndarray:
    """Broadcastable symbol (i k)^order of the derivative along ``axis``.

    Every derivative symbol is built here.  Odd orders zero the Nyquist mode
    (the convention that keeps derivatives of real fields real); even orders
    are real arrays.  ``half`` keeps only the n//2 + 1 non-negative modes, the
    layout of a real-to-complex transform along this axis.
    """
    k = _wavenumbers_1d(n, length)
    if half:
        k = k[: n // 2 + 1]
    fac = (1j * k) ** order
    if order % 2 == 1:
        fac[n // 2] = 0.0
    else:
        fac = fac.real.copy()
    if dims == 2:
        shape = [1, 1]
        shape[axis] = fac.size
        fac = fac.reshape(shape)
    fac.flags.writeable = False
    return fac


@lru_cache(maxsize=64)
def _laplacian_symbol(n: int, length: float, dims: int, real: bool) -> np.ndarray:
    """-|k|^2 on the spectrum of a full (complex) or real-to-complex transform."""
    fac = sum(_symbol(n, length, dims, a, 2, real and a == dims - 1) for a in range(dims))
    fac.flags.writeable = False
    return fac


def _ik(grid: Grid, axis: int, real: bool) -> np.ndarray:
    """First-derivative symbol matching the spectrum of :func:`_forward`."""
    return _symbol(grid.n, grid.length, grid.dims, axis, 1, real and axis == grid.dims - 1)


def _forward(field: np.ndarray, real: bool) -> np.ndarray:
    """Half-spectrum (last axis halved) of a real field, full spectrum otherwise."""
    return np.fft.rfftn(field) if real else np.fft.fftn(field)


def _inverse(grid: Grid, fhat: np.ndarray, real: bool) -> np.ndarray:
    if real:
        return np.fft.irfftn(fhat, s=grid.shape, axes=tuple(range(grid.dims)))
    return np.fft.ifftn(fhat)


def gradient(grid: Grid, field: np.ndarray) -> list:
    """First derivative along every axis."""
    grid.validate_field(field)
    real = np.isrealobj(field)
    fhat = _forward(field, real)
    return [_inverse(grid, _ik(grid, a, real) * fhat, real) for a in range(grid.dims)]


def gradient_and_laplacian(grid: Grid, field: np.ndarray) -> tuple:
    """(gradient, Laplacian) of one field from a single forward transform."""
    grid.validate_field(field)
    real = np.isrealobj(field)
    fhat = _forward(field, real)
    grad = [_inverse(grid, _ik(grid, a, real) * fhat, real) for a in range(grid.dims)]
    lap = _inverse(grid, _laplacian_symbol(grid.n, grid.length, grid.dims, real) * fhat, real)
    return grad, lap


def divergence(grid: Grid, fields: list) -> np.ndarray:
    """Divergence of a vector field given as one array per axis."""
    real = all(np.isrealobj(f) for f in fields)
    acc = 0.0
    for a, f in enumerate(fields):
        grid.validate_field(f)
        acc = acc + _ik(grid, a, real) * _forward(f, real)
    return _inverse(grid, acc, real)


def laplacian(grid: Grid, field: np.ndarray) -> np.ndarray:
    grid.validate_field(field)
    real = np.isrealobj(field)
    fhat = _forward(field, real)
    return _inverse(grid, _laplacian_symbol(grid.n, grid.length, grid.dims, real) * fhat, real)
