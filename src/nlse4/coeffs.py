"""Coefficient containers for the homogeneous functional families.

Term index table (the single source of truth; arrays index these positions
starting from 1 in the names below, 0 in code).

Second-order family, variant ``"dg"`` (5 terms):

    1  Lap S
    2  grad S . (grad rho / rho)
    3  Lap rho / rho
    4  (grad rho / rho)^2
    5  (grad S)^2

Fourth-order family, variant ``"ext"`` (13 terms), with the five inner
scalars I1 = Lap S, I2 = Lap rho / rho, I3 = (grad rho/rho)^2,
I4 = (grad rho/rho).grad S, I5 = (grad S)^2:

    1  Lap I1        6  (grad rho/rho).grad I1      11  grad S . grad I1
    2  Lap I2        7  (grad rho/rho).grad I2      12  grad S . grad I3
    3  Lap I3        8  (grad rho/rho).grad I3      13  grad S . grad I2
    4  Lap I4        9  (grad rho/rho).grad I4
    5  Lap I5       10  (grad rho/rho).grad I5

Each functional F_{x} = sum_i x_i F_i is homogeneous of degree zero under
psi -> lambda psi.  A full equation carries two coefficient arrays: the
``a`` half multiplies the anti-Hermitian (continuity-modifying) part and the
``b`` half the Hermitian (phase-modifying) part, with one overall coupling D:

    i hbar dpsi/dt = (-hbar^2/2m Lap + V) psi
                     - (i hbar D / 2) F_{a} psi + hbar D F_{b} psi.

The divergence family pairs a1=a6, ..., a5=a10 (and a11=a12=a13=0) so that
rho F_{a} is a total divergence and the norm is conserved on a periodic box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import PhysicalConstants, NATURAL_UNITS

VARIANT_LENGTHS = {"dg": 5, "ext": 13}


class CoeffError(ValueError):
    """Coefficient arrays inconsistent with the requested variant."""


@dataclass(frozen=True)
class CoeffSet:
    """Coefficient arrays {a}, {b} plus coupling D for one variant.

    ``x14`` optionally switches on the separability-breaking probe term
    x14 * (Lap S)^2 in the Hermitian half.  It is never part of a shipped
    preset; it exists to demonstrate the violation.
    """

    variant: str
    a: tuple
    b: tuple
    D: float = 1.0
    x14: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANT_LENGTHS:
            raise CoeffError(f"variant must be one of {sorted(VARIANT_LENGTHS)}, got {self.variant!r}")
        want = VARIANT_LENGTHS[self.variant]
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        if len(a) != want or len(b) != want:
            raise CoeffError(f"variant {self.variant!r} needs {want} coefficients per half, got {len(a)}/{len(b)}")
        if not all(np.isfinite(a)) or not all(np.isfinite(b)) or not np.isfinite(self.D):
            raise CoeffError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_linear(self) -> bool:
        return (
            self.D == 0.0 or (all(v == 0.0 for v in self.a) and all(v == 0.0 for v in self.b))
        ) and self.x14 == 0.0

    def d_currents(self) -> tuple:
        """Couplings D_i = a_i * D of the five divergence-family currents."""
        if self.variant == "ext":
            return tuple(self.D * self.a[i] for i in range(5))
        # dg: positions 1 (rho grad S channel) and 3 (diffusion channel)
        return (self.D * self.a[0], self.D * self.a[2], 0.0, 0.0, 0.0)

    def explicit_rate(self, kmax: float) -> float:
        """Explicit-stage rate at ``kmax``: k^4 for ``ext``, k^2 for ``dg``."""
        c = abs(self.D) * (max(abs(v) for v in self.a) / 2.0 + max(abs(v) for v in self.b))
        rate = c * kmax**4 if self.variant == "ext" else c * kmax**2
        # the separability probe (Lap S)^2 is second order in derivatives
        return rate + 4.0 * abs(self.D) * abs(self.x14) * kmax**2

    def b1_b6(self) -> tuple:
        """Effective (b1, b6) entering E_ME; zero for the ``dg`` family."""
        if self.variant == "ext":
            return self.D * self.b[0], self.D * self.b[5]
        return 0.0, 0.0

    def is_divergence_family(self) -> bool:
        a = self.a
        if self.variant == "dg":
            return a[0] == a[1] and a[3] == 0.0 and a[4] == 0.0
        pairs = all(a[i] == a[i + 5] for i in range(5))
        return pairs and all(a[i] == 0.0 for i in (10, 11, 12))


@dataclass(frozen=True)
class MEParams:
    """Three-parameter fourth-order variant: Galilean covariant and
    preserving the densities of linear stationary states.

    Expands to the ``ext`` family with D = 1, a1 = a6 = D1, b1 and b6 as
    given, and every other coefficient zero.
    """

    D1: float
    b1: float = 0.0
    b6: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.D1, self.b1, self.b6)):
            raise CoeffError("parameters must be finite")

    def expand(self) -> CoeffSet:
        a = [0.0] * 13
        b = [0.0] * 13
        a[0] = a[5] = self.D1
        b[0] = self.b1
        b[5] = self.b6
        return CoeffSet(variant="ext", a=tuple(a), b=tuple(b))

    @property
    def is_linear(self) -> bool:
        return self.D1 == 0.0 and self.b1 == 0.0 and self.b6 == 0.0

    def d_currents(self) -> tuple:
        return (self.D1, 0.0, 0.0, 0.0, 0.0)

    def explicit_rate(self, kmax: float) -> float:
        return max(abs(self.D1) / 2.0, abs(self.b1), abs(self.b6)) * kmax**4

    def b1_b6(self) -> tuple:
        return self.b1, self.b6


def is_linear(coeffs) -> bool:
    """True when ``coeffs`` (a CoeffSet, MEParams, or None for the unmodified
    equation) adds no nonlinear term; any other object is a CoeffError."""
    if coeffs is None:
        return True
    if not isinstance(coeffs, (CoeffSet, MEParams)):
        raise CoeffError(f"unsupported coefficient object {type(coeffs).__name__}")
    return coeffs.is_linear


def linear_coeffs() -> CoeffSet:
    """The unmodified equation."""
    return CoeffSet(variant="dg", a=(0.0,) * 5, b=(0.0,) * 5, D=0.0)


def dg_coeffs(a=(1.0, 1.0, 0.0, 0.0, 0.0), b=(0.0,) * 5, D: float = 1.0) -> CoeffSet:
    """Second-order family; default a-half is the norm-conserving pairing."""
    return CoeffSet(variant="dg", a=tuple(a), b=tuple(b), D=D)


def ext_coeffs(a, b, D: float = 1.0, x14: float = 0.0) -> CoeffSet:
    return CoeffSet(variant="ext", a=tuple(a), b=tuple(b), D=D, x14=x14)


def dg_linearizable(d1: float, d2: float, constants: PhysicalConstants = NATURAL_UNITS) -> CoeffSet:
    """Second-order coefficients generated by the vector potential
    A = d1 grad S + d2 grad rho / rho in the covariant-derivative form

        i hbar dpsi/dt = -(hbar^2/2m) (grad - iA)^2 psi.

    Correctness is operational: the right-hand side assembled from the
    returned set equals the directly expanded covariant form pointwise
    (see tests).  With d1 = d2 = 0 every coefficient vanishes.
    """
    h_m = constants.hbar / constants.mass
    a = (-h_m * d1, -h_m * d1, -h_m * d2, 0.0, 0.0)
    b = (
        0.0,
        h_m * d2 * (d1 - 1.0),
        0.0,
        0.5 * h_m * d2**2,
        0.5 * h_m * (d1**2 - 2.0 * d1),
    )
    return CoeffSet(variant="dg", a=a, b=b, D=1.0)
