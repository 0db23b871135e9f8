"""Uniform periodic grids and Fourier-collocation calculus.

Fields are plain numpy arrays of shape ``grid.shape`` on a uniform periodic
box in one or two dimensions.  Differentiation is Fourier collocation, which
is exact for band-limited data; that accuracy is what keeps fourth-order
composite derivatives meaningful at double precision.

The input dtype selects the transform.  Real fields (density, currents,
phase composites) go through the half-spectrum transforms ``rfftn``/``irfftn``,
which cost about half a complex transform and return real arrays; complex
fields (the wavefunction) use the full complex transforms.

Two places hold the transform layout.  :func:`_forward` and :func:`_inverse`
make the package's only transform calls, and :func:`_symbol` builds every
derivative symbol for their spectra: halved on the last axis for a real
field, with the Nyquist mode zeroed for odd orders.  Every other module
transforms through them, and nothing here branches on 1D or 2D except the
1D fast path of the transforms.
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


def _along(dims: int, axis: int, size: int) -> tuple:
    """Shape of a length-``size`` array that broadcasts along ``axis``."""
    return tuple(size if a == axis else 1 for a in range(dims))


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
        return tuple(np.meshgrid(*[self.axis_coords()] * self.dims, indexing="ij"))

    def k_along(self, axis: int) -> np.ndarray:
        """Wavenumber array broadcastable along the given axis."""
        return _wavenumbers_1d(self.n, self.length).reshape(_along(self.dims, axis, self.n))

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
    return _inverse(grid, fac * _forward(grid, field, real), real)


@lru_cache(maxsize=128)
def _symbol(n: int, length: float, dims: int, axis: int, order: int, real: bool) -> np.ndarray:
    """Symbol (i k)^order of the derivative along ``axis``, broadcastable
    over the spectrum :func:`_forward` returns for a real or complex field.

    Every derivative symbol is built here.  Odd orders zero the Nyquist mode
    (the convention that keeps derivatives of real fields real); even orders
    are real arrays.  The spectrum of a real field is halved on the last
    axis, so along that axis the symbol keeps only the n//2 + 1 non-negative
    modes.
    """
    k = _wavenumbers_1d(n, length)
    if real and axis == dims - 1:
        k = k[: n // 2 + 1]
    fac = (1j * k) ** order
    if order % 2 == 1:
        fac[n // 2] = 0.0
    else:
        fac = fac.real.copy()
    fac = fac.reshape(_along(dims, axis, fac.size))
    fac.flags.writeable = False
    return fac


@lru_cache(maxsize=64)
def _laplacian_symbol(n: int, length: float, dims: int, real: bool) -> np.ndarray:
    """-|k|^2 on the spectrum of a full (complex) or real-to-complex transform."""
    fac = sum(_symbol(n, length, dims, a, 2, real) for a in range(dims))
    fac.flags.writeable = False
    return fac


@lru_cache(maxsize=64)
def _laplacian_and_ik(n: int, length: float, dims: int) -> np.ndarray:
    """The rows [-|k|^2, ik_1] over the half spectrum of a real field, so
    one multiply applies both symbols to two spectra, or to one."""
    half = (n,) * (dims - 1) + (n // 2 + 1,)
    rows = np.empty((2,) + half, dtype=complex)
    rows[0] = _laplacian_symbol(n, length, dims, True)
    rows[1] = _symbol(n, length, dims, 0, 1, True)
    rows.flags.writeable = False
    return rows


def _ik(grid: Grid, axis: int, real: bool) -> np.ndarray:
    """First-derivative symbol matching the spectrum of :func:`_forward`."""
    return _symbol(grid.n, grid.length, grid.dims, axis, 1, real)


def _forward(grid: Grid, field: np.ndarray, real: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum (last axis halved) of a real field, full spectrum
    otherwise, over the last ``grid.dims`` axes: ``field`` is one field or
    a stack of fields, one per leading row.  The spectrum is written into
    ``out`` when given, bit for bit as it would be returned.

    A 1D grid goes straight to the one-axis transform, which is the kernel
    the n-D transforms run per axis, without their shape handling.
    """
    if grid.dims == 1:
        return np.fft.rfft(field, out=out) if real else np.fft.fft(field, out=out)
    if real:
        return np.fft.rfftn(field, axes=(-2, -1), out=out)
    return np.fft.fftn(field, axes=(-2, -1), out=out)


def _inverse(grid: Grid, fhat: np.ndarray, real: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_forward` onto ``grid``, of one spectrum or a stack,
    written into ``out`` when given."""
    if grid.dims == 1:
        return np.fft.irfft(fhat, grid.n, out=out) if real else np.fft.ifft(fhat, out=out)
    if real:
        return np.fft.irfftn(fhat, s=grid.shape, axes=(-2, -1), out=out)
    return np.fft.ifftn(fhat, axes=(-2, -1), out=out)


def _gradient(grid: Grid, fhat: np.ndarray, real: bool) -> list:
    """First derivative along every axis from a spectrum in the layout of
    :func:`_forward` (``fftn`` of a complex field, ``rfftn`` of a real one)."""
    return [_inverse(grid, _ik(grid, a, real) * fhat, real) for a in range(grid.dims)]


# Stacked transforms.  A stack holds several fields, or their spectra, as
# the rows of one array, and :func:`_forward` and :func:`_inverse` transform
# it in one call over the last axes.  numpy runs the rows one by one with the
# same kernel, so every row matches the per-field transform bit for bit while
# the call overhead is paid once.


def _half_shape(grid: Grid) -> tuple:
    """Shape of the half spectrum of a real field on ``grid``."""
    return grid.shape[:-1] + (grid.n // 2 + 1,)


def _inverse_and_gradient(grid: Grid, fhat: np.ndarray, with_psi: bool = True,
                          stack: np.ndarray | None = None) -> tuple:
    """(psi, gradient of psi) from the full spectrum ``fhat`` of a complex
    field, equal to ``_inverse(grid, fhat, False)`` and
    ``_gradient(grid, fhat, False)``: one transform of the stack
    [fhat, ik_1 fhat, ...], whose rows after the first are the gradient.
    Without ``with_psi`` psi is None and the stack is [ik_1 fhat, ...].
    The stack is built in ``stack`` when given, and is transformed in place
    (bit for bit as into a new array), so both are rows of one array."""
    lead = 1 if with_psi else 0
    if stack is None:
        stack = np.empty((lead + grid.dims,) + grid.shape, dtype=complex)
    if with_psi:
        stack[0] = fhat
    for a in range(grid.dims):
        np.multiply(_ik(grid, a, False), fhat, out=stack[lead + a])
    rows = _inverse(grid, stack, False, out=stack)
    return (rows[0] if with_psi else None), rows[lead:]


def gradient(grid: Grid, field: np.ndarray) -> list:
    """First derivative along every axis."""
    grid.validate_field(field)
    real = np.isrealobj(field)
    return _gradient(grid, _forward(grid, field, real), real)


def divergence(grid: Grid, fields: list) -> np.ndarray:
    """Divergence of a vector field given as one array per axis."""
    for f in fields:
        grid.validate_field(f)
    real = all(np.isrealobj(f) for f in fields)
    spec = _forward(grid, np.stack(fields), real)
    return _inverse(grid, sum(_ik(grid, a, real) * s for a, s in enumerate(spec)), real)


def laplacian(grid: Grid, field: np.ndarray) -> np.ndarray:
    grid.validate_field(field)
    real = np.isrealobj(field)
    fhat = _forward(grid, field, real)
    return _inverse(grid, _laplacian_symbol(grid.n, grid.length, grid.dims, real) * fhat, real)
