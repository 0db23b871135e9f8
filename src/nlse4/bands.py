"""Stationary phase modes, Hill reduction, and Floquet band structure.

For the three-parameter fourth-order variant, vanishing density flux at a
stationary point requires

    div[ rho (grad(Lap S) + omega grad S) ] = 0,   omega = hbar / (D1 m),

whose harmonic solution S'(x) = A cos(sqrt(omega) x + phi) kills the bracket
identically for any density profile.  Substituting that mode into the real
part of the stationary system (V = 0, hbar dS/dt = -E, b6 = 0) and rescaling
z = sqrt(omega) x turns the density equation into a Hill equation

    y'' + Q(z) y = 0,   y = sqrt(rho),

with a constant term from the energy and the mean of (S')^2, a cos(2z)
harmonic from (S')^2, and a sin(z) harmonic from the b1 Lap(Lap S) term
(absent for b1 = 0, where Q is a pure Mathieu potential).

Band edges come from two independent routes: a Fourier-basis eigenproblem
(robust where |tr M| - 2 has double roots, e.g. the unmodulated limit) and
an ITP root search on the monodromy discriminant.  Every eigensolve of the
Hill operator (the edges, the ground Bloch profile and the chart below)
sizes its Fourier basis by one rule, from the harmonics and the largest
|a| it must resolve (:func:`_discriminant_plan`).

A band chart takes the discriminant from Hill's determinant instead
(:func:`hill_discriminant`): tr M - 2 is a product over the periodic
eigenvalues of the same Fourier eigenproblem, with a closed-form tail, so
a 200-sample chart costs one eigensolve and no ODE.  The monodromy stays
the independent route: it shares no code with the Hill matrix, so the
edge search runs on it (its agreement with the Fourier edges would be
circular on the Hill matrix), and ``nlse4 bands`` recomputes 9 of a
chart's samples by it and reports the largest difference (check row
``chart_routes``).

The Hill system
Y' = A(z) Y is linear with a traceless A, so each fixed step is the
fourth-order Magnus propagator exp(Omega) with two Gauss points (Iserles &
Norsett, Phil. Trans. R. Soc. A 357, 983 (1999)), a 2x2 matrix
c I + sc Omega with det 1 in exact arithmetic, whose c = cosh s and
sc = sinh s / s are short power series in s^2 wherever |s^2| <= 1e-2
(for period pi at 1024 steps, wherever |Q| is below about 1000); the
monodromy matrix is their ordered product, reduced pairwise in blocks and
vectorized over the constant coefficient.  One block is evaluated at a
time as plain array expressions, its pairwise tree folded into the running
product in step order.  Step-halving acceptance from 1024 steps per period
picks the step count, and the fixed evaluation order keeps results
bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import MEParams
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, _forward, spectral_derivative

_TWO_PI = 2.0 * np.pi


class BandError(ValueError):
    """Invalid stationary-mode or Hill-equation parameters."""


class ODEToleranceError(RuntimeError):
    """Monodromy integration failed to meet the step-halving tolerance."""


def mode_frequency(me: MEParams, constants: PhysicalConstants = NATURAL_UNITS) -> float:
    """omega = hbar / (D1 m); requires D1 != 0."""
    if me.D1 == 0.0:
        raise BandError("omega undefined for D1 = 0 (linear stationary condition applies)")
    return constants.hbar / (me.D1 * constants.mass)


@dataclass(frozen=True)
class PhaseMode:
    """Harmonic phase-gradient mode S'(x) = A cos(sqrt(omega) x + phi), with
    no constant drift term."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0:
            raise BandError("omega must be positive for a harmonic mode")

    @classmethod
    def from_params(cls, me: MEParams, constants: PhysicalConstants = NATURAL_UNITS,
                    amplitude: float = 1.0, phase: float = 0.0) -> "PhaseMode":
        omega = mode_frequency(me, constants)
        if omega <= 0.0:
            raise BandError("harmonic mode requires D1 > 0")
        return cls(amplitude=amplitude, omega=omega, phase=phase)

    @property
    def period(self) -> float:
        return _TWO_PI / np.sqrt(self.omega)

    def grad_s(self, grid: Grid) -> np.ndarray:
        if grid.dims != 1:
            raise BandError("phase modes are one-dimensional")
        x = grid.axis_coords()
        return self.amplitude * np.cos(np.sqrt(self.omega) * x + self.phase)


def stationary_flux_residual(
    grid: Grid,
    rho: np.ndarray,
    grad_s,
    me: MEParams,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> float:
    """max | d/dx [ rho (S''' + omega S') ] | for a 1D profile pair.

    ``grad_s`` may be an array S'(x) or a :class:`PhaseMode`.  A phase mode
    (which carries no constant drift term) produces an identically vanishing
    bracket independent of rho.
    """
    if grid.dims != 1:
        raise BandError("stationary flux residual is one-dimensional")
    omega = mode_frequency(me, constants)
    gs = grad_s.grad_s(grid) if isinstance(grad_s, PhaseMode) else np.asarray(grad_s, dtype=float)
    grid.validate_field(gs)
    grid.validate_field(rho)
    bracket = spectral_derivative(grid, gs, order=2) + omega * gs
    flux_div = spectral_derivative(grid, rho * bracket, order=1)
    return float(np.abs(flux_div).max())


def measured_period(grid: Grid, values: np.ndarray) -> float:
    """Spatial period of an oscillatory 1D profile from its zero crossings,
    refined with Newton iteration on the band-limited interpolant."""
    if grid.dims != 1:
        raise BandError("period measurement is one-dimensional")
    coeffs = _forward(grid, values, False) / grid.n
    coeffs[grid.n // 2] = 0.0
    k = grid.k_along(0)

    def interp(x):
        ph = np.exp(1j * np.outer(np.atleast_1d(x) + 0.5 * grid.length, k))
        return (ph @ coeffs).real

    def dinterp(x):
        ph = np.exp(1j * np.outer(np.atleast_1d(x) + 0.5 * grid.length, k))
        return (ph @ (1j * k * coeffs)).real

    x = grid.axis_coords()
    sgn = np.sign(values)
    idx = np.where(sgn[:-1] * sgn[1:] < 0)[0]
    if len(idx) < 3:
        raise BandError("need at least 3 zero crossings to measure a period")
    roots = []
    for i in idx:
        r = x[i]
        for _ in range(60):
            f = interp(r)[0]
            df = dinterp(r)[0]
            step = f / df
            r = r - step
            if abs(step) < 1e-14 * max(1.0, abs(r)):
                break
        roots.append(r)
    gaps = np.diff(roots)
    return 2.0 * float(np.mean(gaps))


@dataclass(frozen=True)
class HillEquation:
    """y'' + Q(z) y = 0 with Q(z) = q0 + sum_k [c_k cos(kz) + s_k sin(kz)].

    ``harmonics`` is a tuple of (k, c_k, s_k); ``period`` is the fundamental
    period of Q in z.
    """

    period: float
    q0: float
    harmonics: tuple

    def __post_init__(self):
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise BandError(f"period must be positive and finite, got {self.period}")
        if not np.isfinite(self.q0):
            raise BandError(f"q0 must be finite, got {self.q0}")
        base = _TWO_PI / self.period
        for k, ck, sk in self.harmonics:
            if not (k > 0 and np.isfinite(k)):
                raise BandError(f"harmonic wavenumbers must be positive and finite, got {k}")
            ratio = k / base
            if abs(ratio - round(ratio)) > 1e-9:
                raise BandError(f"harmonic k={k} incompatible with period {self.period}")
            if not (np.isfinite(ck) and np.isfinite(sk)):
                raise BandError("harmonic coefficients must be finite")

    @property
    def pure_mathieu(self) -> bool:
        """True iff the modulation is a single cos(2z) harmonic."""
        active = [(k, ck, sk) for k, ck, sk in self.harmonics if ck != 0.0 or sk != 0.0]
        return len(active) == 1 and active[0][0] == 2 and active[0][2] == 0.0

    @property
    def mathieu_q(self) -> float:
        """q in the normal form y'' + (a - 2q cos 2z) y = 0 (pure case)."""
        if not self.pure_mathieu:
            raise BandError("not a pure Mathieu potential")
        for k, ck, _ in self.harmonics:
            if k == 2 and ck != 0.0:
                return -0.5 * ck
        return 0.0

    def modulation(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(z, dtype=float))
        for k, ck, sk in self.harmonics:
            if ck != 0.0:
                out = out + ck * np.cos(k * z)
            if sk != 0.0:
                out = out + sk * np.sin(k * z)
        return out

    def q_eval(self, z: np.ndarray) -> np.ndarray:
        return self.q0 + self.modulation(z)


def mathieu_hill(q: float) -> HillEquation:
    """Normal-form Mathieu potential Q = -2q cos(2z), period pi; the constant
    a of y'' + (a - 2q cos 2z) y = 0 is the swept spectral parameter."""
    return HillEquation(period=np.pi, q0=0.0, harmonics=((2, -2.0 * q, 0.0),))


def hill_from_stationary(
    me: MEParams,
    amplitude: float,
    energy: float,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> HillEquation:
    """Reduce the stationary density equation on a harmonic phase mode to a
    Hill equation in z = sqrt(omega) x.

    Writing psi = R exp(iS) with a stationary phase (hbar dS/dt = -E) and
    the harmonic mode S' = A cos(sqrt(omega) x), the real part of the
    evolution equation reduces to (V = 0, b6 = 0)

        R'' + [2mE/hbar^2 - (S')^2 - (2 m b1 / hbar) LapLap S] R = 0,

    and rescaling z = sqrt(omega) x yields the locked mapping

        q0 = (2 m E / hbar^2 - A^2/2) / omega
        cos(2z):  c2 = -A^2 / (2 omega)
        sin(z):   s1 = -2 m b1 A sqrt(omega) / hbar.

    The mapping is cross-checked two independent ways in the test suite:
    pointwise against the stationary expression above, and dynamically by
    evolving a Hill ground solution under the full equation (its density
    must not drift).  Requires D1 > 0 (so omega > 0) and b6 = 0.
    """
    if me.b6 != 0.0:
        raise BandError("Hill reduction requires b6 = 0 (density gradient decouples)")
    if me.D1 <= 0.0:
        raise BandError("Hill reduction requires D1 > 0")
    hbar, m = constants.hbar, constants.mass
    omega = mode_frequency(me, constants)
    A = float(amplitude)
    q0 = (2.0 * m * energy / hbar**2 - 0.5 * A**2) / omega
    c2 = -0.5 * A**2 / omega
    s1 = -2.0 * m * me.b1 * A * np.sqrt(omega) / hbar
    harmonics = []
    if s1 != 0.0:
        harmonics.append((1, 0.0, s1))
    if c2 != 0.0:
        harmonics.append((2, c2, 0.0))
    period = _TWO_PI if s1 != 0.0 else (np.pi if c2 != 0.0 else _TWO_PI)
    return HillEquation(period=period, q0=q0, harmonics=tuple(harmonics))


def stationary_energy_from_q0(hill_q0: float, amplitude: float, omega: float,
                              constants: PhysicalConstants = NATURAL_UNITS) -> float:
    """Invert the q0 mapping: E = (q0 omega + A^2/2) hbar^2 / (2m)."""
    hbar, m = constants.hbar, constants.mass
    return (hill_q0 * omega + 0.5 * amplitude**2) * hbar**2 / (2.0 * m)


@dataclass(frozen=True)
class FloquetResult:
    """Monodromy summary at one value of the constant coefficient.

    ``nu`` is the characteristic exponent on its principal branch: the real
    part lies in [0, pi/period] (exponents fold back into the first
    Brillouin zone), and an imaginary part marks instability.
    ``tol_achieved`` is the step-halving change this call's samples met and
    ``n_steps`` the accepted (finer) step count, both shared by every sample
    of one ``floquet_analyze`` call.  ``entry_scale`` is
    max(1, |m00 m11| + |m01 m10|) of this sample's M: det M cancels products
    of that size, so its rounding grows with it."""

    a: float
    tr_m: float
    det_m: float
    nu: complex
    stable: bool
    tol_achieved: float
    n_steps: int
    entry_scale: float


# Elements (steps x samples) per block of step propagators reduced by one
# pairwise tree; the partition fixes the order of the monodromy products
# and bounds the temporaries of _integrate_monodromy independently of n_steps.
_BLOCK_ELEMENTS = 2**12

# Step-halving acceptance of the monodromy: the largest change of any
# discriminant relative to max(1, |tr M|), and the most doublings tried.
_MONODROMY_RTOL = 1e-10
_MAX_DOUBLINGS = 6

# Gauss-Legendre points of the Magnus step as fractions of a step.
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])

# Terms k = 0..4 of c = cosh s and sc = sinh s / s as series in s^2, and
# the largest |s^2| evaluated by them (see _magnus_steps).
_COSH_SERIES = tuple(1.0 / math.factorial(2 * k) for k in range(5))
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(5))
_SERIES_BOUND = 1e-2

# Fewest and most eigenvalue pairs a Hill eigensolve resolves (the most
# keeps it near 1100 modes, about 20 MB and 0.3 s), and the Bernoulli
# numbers B_2..B_12 of hill_discriminant's Euler-Maclaurin tails.
_MIN_PAIRS = 8
_MAX_PAIRS = 512
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _matmul22(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b @ a for stacks of 2x2 matrices laid out as (2, 2, ...); each entry
    is b_i0 a_0j + b_i1 a_1j."""
    return b[:, 0, None] * a[None, 0] + b[:, 1, None] * a[None, 1]


def _magnus_steps(q1: np.ndarray, q2: np.ndarray, h: float) -> np.ndarray:
    """Magnus step propagators, a (2, 2, ...) stack, from q = a + modulation
    at the first (``q1``) and the second (``q2``) Gauss point of every step.
    The steps are independent, so every operation acts element by element.

    c = cosh s and sc = sinh s / s are entire functions of x = s^2,
    c = sum_k x^k / (2k)! and sc = sum_k x^k / (2k + 1)!, and are evaluated
    as these series by Horner, with the terms k <= 4 of _COSH_SERIES and
    _SINHC_SERIES, wherever |x| <= _SERIES_BOUND = tau.
    Past k = 4 the terms fall by a ratio below tau / 132, alternating in
    sign for x < 0, so the first omitted term bounds the truncation (up to
    a factor 1 + tau / 132): tau^5 / 10! = 2.8e-17 for c and
    tau^5 / 11! = 2.5e-18 for sc, both below eps / 4 of values
    >= 1 - tau / 2, where eps is the float spacing at 1.  Four terms would
    leave tau^4 / 8! = 2.5e-13.  Every Horner step adds a term
    far smaller than the leading 1, so the rounding stays near the final
    half ulp: against 40-digit values over |x| <= tau the series read
    <= 0.62 eps (c) and 0.51 eps (sc), the closed forms 0.75 eps and
    1.06 eps.  Steps with |x| > tau (coarse steps or very large |Q|) keep
    the closed forms, (cos |s|, sin |s| / |s|) for x < 0 and
    (cosh s, sinh s / s) for x > 0, in a masked pass that runs only when
    such a step exists."""
    hh = h * h
    qbar = (q1 + q2) * 0.5
    alpha = (q2 - q1) * (math.sqrt(3.0) / 12.0 * hh)
    s2 = alpha * alpha - qbar * hh
    # c and sc by Horner in s^2
    c, sc = s2 * _COSH_SERIES[-1], s2 * _SINHC_SERIES[-1]
    for out, coeffs in ((c, _COSH_SERIES), (sc, _SINHC_SERIES)):
        for coeff in coeffs[-2:0:-1]:
            out += coeff
            out *= s2
        out += coeffs[0]
    # the closed forms where |s^2| > tau
    if s2.min() < -_SERIES_BOUND or s2.max() > _SERIES_BOUND:
        s = np.sqrt(np.abs(s2))
        for mask, even, odd in ((s2 < -_SERIES_BOUND, np.cos, np.sin),
                                (s2 > _SERIES_BOUND, np.cosh, np.sinh)):
            even(s, out=c, where=mask)
            odd(s, out=sc, where=mask)
            np.divide(sc, s, out=sc, where=mask)
    # exp(Omega) = c I + sc Omega
    alpha_sc = alpha * sc
    return np.array([[c + alpha_sc, sc * h], [qbar * -h * sc, c - alpha_sc]])


def _integrate_monodromy(hill: HillEquation, a_values: np.ndarray, n_steps: int) -> tuple:
    """Fixed-step fourth-order Magnus monodromy of
    Y' = [[0, 1], [-(a + modulation), 0]] Y over one period, vectorized over
    ``a_values``; returns (tr, det, entry scale), the entry scale being
    max(1, |m00 m11| + |m01 m10|).

    Step j is exp(Omega_j) with Omega = [[alpha, h], [-h qbar, -alpha]],
    qbar = (q1 + q2)/2 and alpha = (sqrt(3) h^2/12)(q2 - q1), where q1, q2
    are a + modulation at the Gauss points (j + 1/2 -+ sqrt(3)/6) h.  Omega
    is traceless, so Omega^2 = s^2 I with s^2 = alpha^2 - h^2 qbar and
    exp(Omega) = c I + sc Omega, (c, sc) = (cosh s, sinh s / s) for s^2 > 0,
    (cos |s|, sin |s| / |s|) for s^2 < 0 and (1, 1) at s = 0, evaluated as
    series in s^2 where |s^2| <= _SERIES_BOUND (see _magnus_steps):
    every step has det 1 in exact arithmetic.  The monodromy is the ordered
    product P_{n-1} ... P_0.  Steps are partitioned into blocks of
    max(1, _BLOCK_ELEMENTS // size) steps; each block's propagators are
    reduced by pairwise products (later step on the left, an odd tail
    carried up a level) and the block products are folded into the running
    product in step order.

    One block is evaluated at a time, as plain array expressions, so the
    temporaries are bounded by the block independently of ``n_steps``.
    """
    h = hill.period / n_steps
    size = a_values.size
    block = max(1, _BLOCK_ELEMENTS // size)
    mono = np.zeros((2, 2, size))
    mono[0, 0] = mono[1, 1] = 1.0
    for start in range(0, n_steps, block):
        # modulation at the two Gauss points of each step, z = (j + c) h
        mod = hill.modulation((np.arange(start, min(start + block, n_steps))[:, None] + _GAUSS_NODES) * h)
        level = _magnus_steps(mod[:, :1] + a_values, mod[:, 1:] + a_values, h)
        # pairwise tree of the block
        while level.shape[2] > 1:
            pairs = _matmul22(level[:, :, 1::2], level[:, :, 0:-1:2])
            level = np.concatenate([pairs, level[:, :, -1:]], axis=2) if level.shape[2] % 2 else pairs
        mono = _matmul22(level[:, :, 0], mono)
    tr = mono[0, 0] + mono[1, 1]
    det = mono[0, 0] * mono[1, 1] - mono[0, 1] * mono[1, 0]
    scale = np.maximum(1.0, np.abs(mono[0, 0] * mono[1, 1]) + np.abs(mono[0, 1] * mono[1, 0]))
    return tr, det, scale


def _samples(a_values) -> np.ndarray:
    """Constant-coefficient samples as a 1D float array; at least one, all
    finite."""
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    if a_values.size < 1:
        raise BandError("need at least one sample")
    if not np.isfinite(a_values).all():
        raise BandError("constant-coefficient samples must be finite")
    return a_values


def floquet_analyze(hill: HillEquation, a_values, base_steps: int = 1024) -> list:
    """Monodromy discriminant, determinant, characteristic exponent and
    stability flag at each constant-coefficient sample.

    Integration uses the fixed-step fourth-order Magnus kernel, starting at
    ``base_steps`` steps per period whatever the size of Q: the error of a
    Magnus step does not grow with the oscillation frequency as RK4's does,
    so no a-priori rule raises the start.  The result is accepted once step
    halving changes no discriminant by more than ``_MONODROMY_RTOL``
    (relative to max(1, |tr M|)); otherwise the step count doubles, up to
    ``_MAX_DOUBLINGS`` times.  ``base_steps`` must be a positive integer.
    """
    a_values = _samples(a_values)
    if isinstance(base_steps, bool) or not isinstance(base_steps, (int, np.integer)) or base_steps < 1:
        raise BandError(f"base_steps must be a positive integer, got {base_steps!r}")
    n = base_steps
    prev = _integrate_monodromy(hill, a_values, n)
    achieved = np.inf
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        tr, det, scale = _integrate_monodromy(hill, a_values, n)
        achieved = float(np.max(np.abs(tr - prev[0]) / np.maximum(1.0, np.abs(tr))))
        prev = tr, det, scale
        if achieved <= _MONODROMY_RTOL:
            break
    else:
        raise ODEToleranceError(f"monodromy tolerance {_MONODROMY_RTOL} not met (reached {achieved:.2e})")

    results = []
    for a, trv, detv, scalev in zip(a_values, *prev):
        nu, stable = floquet_exponent(trv, hill.period)
        results.append(FloquetResult(a=float(a), tr_m=float(trv), det_m=float(detv),
                                     nu=nu, stable=stable, tol_achieved=achieved, n_steps=n,
                                     entry_scale=float(scalev)))
    return results


def floquet_exponent(tr: float, period: float) -> tuple:
    """(nu, stable) of a discriminant tr = tr M: the characteristic exponent
    on its principal branch (see :class:`FloquetResult`) and whether
    |tr| <= 2."""
    half = tr / 2.0
    if abs(half) <= 1.0:
        return complex(np.arccos(half) / period, 0.0), True
    alpha = np.arccosh(abs(half)) / period
    return (complex(0.0, alpha) if tr > 2.0 else complex(np.pi / period, alpha)), False


def _discriminant(hill: HillEquation, a: float) -> float:
    return floquet_analyze(hill, [a])[0].tr_m


def _itp_root(f, a_lo: float, a_hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """ITP root search (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on a
    bracket [a_lo, a_hi] whose end values f_lo, f_hi differ in sign.

    Each trial point is the regula falsi point, moved toward the midpoint
    by kappa1 w^kappa2 (w the current bracket width) and projected into the
    bisection-minmax interval around the midpoint, with
    kappa1 = 0.2 / (a_hi - a_lo), kappa2 = 2 and n0 = 1; it is then clamped
    at least tol/4 inside the bracket, which keeps regula falsi from
    settling on one end.  ``tol`` must be at least four float spacings of
    the ends.  Returns the midpoint of a final bracket no wider than ``tol``
    that holds the sign change, or a point where f is exactly 0, after at
    most ceil(log2((a_hi - a_lo) / tol)) + 1 evaluations of f.
    """
    kappa1 = 0.2 / (a_hi - a_lo)
    n_max = max(0, math.ceil(math.log2((a_hi - a_lo) / tol))) + 1
    # half the final width, less two float spacings that rounding of the
    # projected point may add
    eps = 0.5 * tol - 2.0 * math.ulp(max(abs(a_lo), abs(a_hi)))
    j = 0
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        radius = max(0.0, eps * 2.0 ** (n_max - j) - 0.5 * (a_hi - a_lo))
        delta = kappa1 * (a_hi - a_lo) ** 2
        falsi = (f_hi * a_lo - f_lo * a_hi) / (f_hi - f_lo)
        sigma = math.copysign(1.0, mid - falsi)
        trial = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        if abs(trial - mid) > radius:
            trial = mid - sigma * radius
        trial = min(max(trial, a_lo + 0.25 * tol), a_hi - 0.25 * tol)
        f_trial = f(trial)
        if f_trial == 0.0:
            return trial
        if (f_trial > 0.0) == (f_lo > 0.0):
            a_lo, f_lo = trial, f_trial
        else:
            a_hi, f_hi = trial, f_trial
        j += 1
    return 0.5 * (a_lo + a_hi)


def band_edge_bisection(hill: HillEquation, a_lo: float, a_hi: float, branch: float,
                        tol: float = 1e-8) -> float:
    """Locate a band edge as a root of tr M - branch (branch is +2 or -2).

    The name is kept for the API; the search is the ITP method
    (Interpolate, Truncate, Project; Oliveira & Takahashi, ACM Trans. Math.
    Softw. 47(1), 2020), which converges superlinearly on a smooth root and
    never takes more than ceil(log2((a_hi - a_lo) / tol)) + 1 discriminant
    evaluations after the two at the bracket ends, one more than bisection's
    worst case.  Returns the midpoint of a final bracket no wider than
    ``tol`` that holds the sign change, or a point where tr M - branch is
    exactly 0.

    Requires a sign change of tr M - branch over [a_lo, a_hi]; tangential
    touches (e.g. every edge of the unmodulated problem) have no sign change
    and must use the Fourier eigenvalue route instead.
    """
    if branch not in (2.0, -2.0):
        raise BandError("branch must be +2 or -2")
    if not a_lo < a_hi:
        raise BandError(f"bracket [{a_lo}, {a_hi}] is empty or reversed")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise BandError(f"tol must be positive and finite, got {tol}")
    f_lo = _discriminant(hill, a_lo) - branch
    f_hi = _discriminant(hill, a_hi) - branch
    if f_lo == 0.0:
        return a_lo
    if f_hi == 0.0:
        return a_hi
    if f_lo * f_hi > 0.0:
        raise BandError(f"tr M - ({branch:+g}) does not change sign over [{a_lo}, {a_hi}]")
    if tol < 4.0 * math.ulp(max(abs(a_lo), abs(a_hi))):
        raise BandError(f"tol {tol} is below four float spacings of the bracket [{a_lo}, {a_hi}]")
    return _itp_root(lambda a: _discriminant(hill, a) - branch, a_lo, a_hi, f_lo, f_hi, tol)


def _fourier_coefficients(hill: HillEquation) -> dict:
    """The modulation as sum over m of c_m exp(i m w0 z) + c.c.: m > 0 -> c_m,
    in units of w0 = 2 pi / period."""
    base = _TWO_PI / hill.period
    fourier = {}
    for k, ck, sk in hill.harmonics:
        m = round(k / base)
        fourier[m] = fourier.get(m, 0.0) + 0.5 * (ck - 1j * sk)
    return fourier


def _hill_matrix(hill: HillEquation, mu: float, modes: int) -> np.ndarray:
    """Hermitian matrix of -d^2/dz^2 - modulation(z) in the Fourier basis
    exp(i (mu + j w0) z), j = -modes..modes, w0 = 2 pi / period; ``modes``
    comes from :func:`_discriminant_plan`."""
    base = _TWO_PI / hill.period
    j = np.arange(-modes, modes + 1)
    H = np.diag(((mu + j * base) ** 2).astype(complex))
    for m, coeff in _fourier_coefficients(hill).items():
        idx = np.arange(len(j) - m)
        H[idx + m, idx] += -coeff          # e^{+imz} coupling
        H[idx, idx + m] += -np.conj(coeff)  # Hermitian partner
    return H


def _pair_shift_series(fourier: dict, base: float, degree: int) -> np.ndarray:
    """Coefficients e_0..e_degree, in t = 1/n, of the shift of the free
    periodic pair (n w0)^2 by the modulation, through fourth order of
    Rayleigh-Schrodinger perturbation theory in the harmonics.

    H = -d^2/dz^2 - modulation couples exp(i n w0 z) to exp(i (n + p) w0 z)
    by -c_p (c_-p = conj c_p), at an energy denominator
    (n w0)^2 - ((n + p) w0)^2 = -w0^2 p (2n + p).  A path of order r is
    r steps p_1..p_r that return to n without visiting it; it contributes
    prod(-c_p) / prod(denominators at its partial sums P_i), and
    1 / (-w0^2 P (2n + P)) = -t / (2 w0^2 P) * sum_k (-P t / 2)^k.  The
    fourth order subtracts E2 * sum_p |c_p|^2 / denominator(p)^2.  For
    n > 3 max(m) no path reaches the partner -n, so both members of the
    pair share the expansion; the odd powers of t cancel between a path
    and its mirror image."""
    steps = {}
    for m, coeff in fourier.items():
        if coeff != 0.0:
            steps[m], steps[-m] = coeff, np.conj(coeff)
    offsets = np.array(sorted(steps))

    def series(partial, weight):
        # weight * prod_i (-t / (2 w0^2 P_i)) / (1 + P_i t / 2) over paths
        h = np.zeros((len(partial), degree + 1), complex)
        h[:, 0] = weight * np.prod(-1.0 / (2.0 * base**2 * partial), axis=1)
        for z in (-0.5 * partial).T:
            for k in range(1, degree + 1):
                h[:, k] += z * h[:, k - 1]
        out = np.zeros(degree + 1, complex)
        out[partial.shape[1]:] = h[:, :degree + 1 - partial.shape[1]].sum(axis=0)
        return out

    if not steps:
        return np.zeros(degree + 1)
    total = np.zeros(degree + 1, complex)
    coeff = np.array([steps[p] for p in offsets])
    for order in (2, 3, 4):
        paths = np.array(list(itertools.product(offsets, repeat=order - 1)))
        partial = np.cumsum(paths, axis=1)
        keep = np.all(partial != 0, axis=1) & np.isin(-partial[:, -1], offsets)
        paths, partial = paths[keep], partial[keep]
        steps_taken = np.concatenate([paths, -partial[:, -1:]], axis=1)
        weight = np.prod(-coeff[np.searchsorted(offsets, steps_taken)], axis=1)
        term = series(partial, weight)
        if order == 2:
            second = term
        if order == 4:
            norm = series(np.stack([offsets, offsets], axis=1), np.abs(coeff) ** 2)
            term -= np.convolve(second, norm)[:degree + 1]
        total += term
    return total.real


def _hurwitz_tail(s: np.ndarray, start: float) -> np.ndarray:
    """sum_{n >= start} n^-s for each s > 1, by Euler-Maclaurin at ``start``
    with the Bernoulli terms B_2..B_12."""
    total = start ** (1.0 - s) / (s - 1.0) + 0.5 * start ** -s
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, bernoulli in enumerate(_BERNOULLI, start=1):
        total = total + bernoulli / math.factorial(2 * j) * rising * start ** (1.0 - s - 2 * j)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
    return total


def _discriminant_plan(fourier: dict, base: float, a_max: float) -> tuple:
    """(pairs, modes, terms) for harmonics ``fourier`` and spectral
    parameters up to |a| = ``a_max``: the eigenvalue pairs resolved, the
    half-width of the Fourier basis that yields them and the number of u
    terms of :func:`hill_discriminant`'s tail.  It plans every eigensolve of
    the Hill operator: the chart (:func:`hill_discriminant`), the edges
    (:func:`band_edges`) and the ground profile
    (:func:`bloch_density_profile`).

    The pairs N satisfy |a| / w_N^2 <= 1/16 and 3 max(m) / 2N <= 1/4,
    which keeps the ratio of successive u terms of x(u) below 1/16, and
    sum |c_m| / (w0^2 N) <= 1/8, which keeps the fifth perturbative order
    (the first omitted) below the eigenvalue rounding.  The basis runs
    8 max(m) modes past N, so its truncation moves no used eigenvalue by a
    rounding unit.  The tail keeps terms while N ratio^k, the size of its
    k-th term, is above the float spacing at 1.  A larger basis than this
    only adds rounding: eigvalsh errs by about eps (modes w0)^2 on every
    eigenvalue.  More than ``_MAX_PAIRS`` pairs raise BandError."""
    m_max = max(fourier, default=1)
    coupling = sum(abs(c) for c in fourier.values()) / base**2
    pairs = max(_MIN_PAIRS, 6 * m_max, math.ceil(4.0 * math.sqrt(a_max) / base), math.ceil(8.0 * coupling))
    if pairs > _MAX_PAIRS:
        raise BandError(f"samples up to |a| = {a_max:g} with these harmonics need {pairs} eigenvalue "
                        f"pairs, more than {_MAX_PAIRS}")
    ratio = max(a_max / (pairs * base) ** 2, (1.5 * m_max / pairs) ** 2)
    terms = max(1, math.ceil(math.log(np.finfo(float).eps / pairs) / math.log(ratio)))
    return pairs, pairs + 8 * m_max, terms


def _log_tail(fourier: dict, base: float, pairs: int, terms: int, a_values: np.ndarray) -> np.ndarray:
    """sum over n > pairs of ln of the free-pair factor
    (w_n^2 + delta(n) - a)^2 / w_n^4, with delta the shift of
    :func:`_pair_shift_series`, in closed form.

    With u = 1/n^2 the log is 2 ln(1 + x(u)), x(u) = u (delta(u) - a) / w0^2;
    its series y(u) follows from (1 + x) y' = x' coefficient by coefficient,
    and sum_{n > pairs} u^k is a Hurwitz zeta tail."""
    shift = _pair_shift_series(fourier, base, 2 * terms)[::2]
    x = np.zeros((terms + 1, a_values.size))
    x[1] = -a_values / base**2
    x[2:] = shift[1:terms, None] / base**2
    y = np.zeros_like(x)
    for k in range(1, terms + 1):
        y[k] = x[k] - sum(i * y[i] * x[k - i] for i in range(1, k)) / k
    return 2.0 * (_hurwitz_tail(2.0 * np.arange(1, terms + 1), pairs + 1.0) @ y[1:])


def hill_discriminant(hill: HillEquation, a_values) -> np.ndarray:
    """tr M at each constant-coefficient sample, from the periodic
    eigenvalues of the Hill operator instead of a monodromy integration.

    Q(z) is a finite trigonometric polynomial, so (Whittaker & Watson,
    Modern Analysis, sec. 19.4; Magnus & Winkler, Hill's Equation (1966),
    ch. 2), with T the period, w_n = n w0 = 2 pi n / T and
    lambda_0 < lambda_1 <= lambda_2 < ... the periodic eigenvalues of
    -d^2/dz^2 - modulation,

        tr M - 2 = T^2 (lambda_0 - a) prod_{n>=1} (lambda_{2n-1} - a)(lambda_{2n} - a) / w_n^4.

    The pairs n <= N come from one eigensolve of ``_hill_matrix(hill, 0)``
    and the pairs n > N from the closed-form :func:`_log_tail`; N, the basis
    and the tail's terms follow from the harmonics and max |a|
    (:func:`_discriminant_plan`).  Near an edge the factor lambda_j - a
    carries the small difference, so no large monodromy entries cancel.
    """
    a_values = _samples(a_values)
    base = _TWO_PI / hill.period
    fourier = _fourier_coefficients(hill)
    pairs, modes, terms = _discriminant_plan(fourier, base, float(np.abs(a_values).max()))
    lam = np.linalg.eigvalsh(_hill_matrix(hill, 0.0, modes))[:2 * pairs + 1]
    w2 = np.repeat((base * np.arange(1, pairs + 1)) ** 2, 2)
    head = (lam[0] - a_values) * np.prod((lam[1:, None] - a_values) / w2[:, None], axis=0)
    return 2.0 + hill.period**2 * head * np.exp(_log_tail(fourier, base, pairs, terms, a_values))


def band_edges(hill: HillEquation, a_min: float, a_max: float) -> dict:
    """Band edges (periodic and antiperiodic eigenvalues of the Hill
    operator) inside [a_min, a_max], via a truncated Fourier basis.

    The operator -d^2/dz^2 - modulation(z) is Hermitian in the bases
    exp(i (mu + j w0) z), w0 = 2 pi / period, with mu = 0 (periodic,
    tr M = +2) and mu = w0/2 (antiperiodic, tr M = -2).  Both bases have
    the half-width that :func:`_discriminant_plan` gives a chart over
    |a| <= max(|a_min|, |a_max|), so every eigenvalue in range lies far
    below the truncation however high the range.  The range must be finite
    with a_min < a_max; one that needs more than ``_MAX_PAIRS`` pairs
    raises BandError.
    """
    if not (math.isfinite(a_min) and math.isfinite(a_max) and a_min < a_max):
        raise BandError(f"band range [{a_min}, {a_max}] must be finite with a_min < a_max")
    base = _TWO_PI / hill.period
    _, modes, _ = _discriminant_plan(_fourier_coefficients(hill), base, max(abs(a_min), abs(a_max)))
    per = np.linalg.eigvalsh(_hill_matrix(hill, 0.0, modes))
    anti = np.linalg.eigvalsh(_hill_matrix(hill, 0.5 * base, modes))
    per = per[(per >= a_min) & (per <= a_max)]
    anti = anti[(anti >= a_min) & (anti <= a_max)]
    edges = np.sort(np.concatenate([per, anti]))
    return {"periodic": per, "antiperiodic": anti, "edges": edges}


def bloch_density_profile(hill: HillEquation) -> tuple:
    """(a0, fourier_coeffs) of the nodeless ground periodic solution.

    Returns the lowest periodic eigenvalue and the Fourier coefficients c_j
    of y(z) = sum_j c_j exp(i j w0 z), normalized so max y = 1 and y > 0.

    The basis is :func:`_discriminant_plan`'s for |a| = 0.  Its pairs
    satisfy N >= max(8, 8 sum |c_m| / w0^2), and |lambda_0| <= 2 sum |c_m|
    (lambda_0 lies between the minimum of -modulation, at least
    -2 sum |c_m|, and its mean, 0), so
    |lambda_0| / w_N^2 <= 2 sum |c_m| / (8 N sum |c_m|) <= 1/32: the
    ground state is planned for as if lambda_0 were a sample of a chart.
    """
    base = _TWO_PI / hill.period
    _, modes, _ = _discriminant_plan(_fourier_coefficients(hill), base, 0.0)
    j = np.arange(-modes, modes + 1)
    vals, vecs = np.linalg.eigh(_hill_matrix(hill, 0.0, modes))
    c = vecs[:, 0]
    z = np.linspace(0.0, hill.period, 256, endpoint=False)
    y = np.exp(1j * np.outer(z, j * base)) @ c
    # ground periodic solution is nodeless: rotate to the real axis, fix sign
    phase = y[np.argmax(np.abs(y))]
    c = c * np.conj(phase / abs(phase))
    y = (np.exp(1j * np.outer(z, j * base)) @ c).real
    if y.mean() < 0:
        y, c = -y, -c
    if y.min() <= 0:
        raise BandError("ground periodic solution is not nodeless; check parameters")
    return float(vals[0]), (j, c / y.max())
