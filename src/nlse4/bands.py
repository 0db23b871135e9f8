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
bisection on the monodromy discriminant.  The Hill system is linear, so
each fixed RK4 step is an exact 2x2 propagator in closed form; the
monodromy matrix is their ordered product, reduced pairwise in blocks and
vectorized over the constant coefficient.  Step-halving acceptance picks
the step count, and the fixed evaluation order keeps results
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import MEParams
from .spectral import Grid, PhysicalConstants, NATURAL_UNITS, spectral_derivative

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
    """Harmonic phase-gradient mode S'(x) = A cos(sqrt(omega) x + phi) + C."""

    amplitude: float
    omega: float
    phase: float = 0.0
    drift: float = 0.0

    def __post_init__(self):
        if self.omega <= 0.0:
            raise BandError("omega must be positive for a harmonic mode")

    @classmethod
    def from_params(cls, me: MEParams, constants: PhysicalConstants = NATURAL_UNITS,
                    amplitude: float = 1.0, phase: float = 0.0, drift: float = 0.0) -> "PhaseMode":
        omega = mode_frequency(me, constants)
        if omega <= 0.0:
            raise BandError("harmonic mode requires D1 > 0")
        return cls(amplitude=amplitude, omega=omega, phase=phase, drift=drift)

    @property
    def period(self) -> float:
        return _TWO_PI / np.sqrt(self.omega)

    def grad_s(self, grid: Grid) -> np.ndarray:
        if grid.dims != 1:
            raise BandError("phase modes are one-dimensional")
        x = grid.axis_coords()
        return self.amplitude * np.cos(np.sqrt(self.omega) * x + self.phase) + self.drift

    def phase_profile(self, grid: Grid) -> np.ndarray:
        """S(x) integrating the mode with zero mean slope addition."""
        if grid.dims != 1:
            raise BandError("phase modes are one-dimensional")
        x = grid.axis_coords()
        k = np.sqrt(self.omega)
        return (self.amplitude / k) * np.sin(k * x + self.phase) + self.drift * x


def stationary_flux_residual(
    grid: Grid,
    rho: np.ndarray,
    grad_s,
    me: MEParams,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> float:
    """max | d/dx [ rho (S''' + omega S') ] | for a 1D profile pair.

    ``grad_s`` may be an array S'(x) or a :class:`PhaseMode`.  Zero drift
    modes produce an identically vanishing bracket independent of rho.
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
    coeffs = np.fft.fft(values) / grid.n
    coeffs[grid.n // 2] = 0.0
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)

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
    period of Q in z.  ``provenance`` optionally records the stationary-mode
    parameters the equation was built from.
    """

    period: float
    q0: float
    harmonics: tuple
    provenance: tuple = ()

    def __post_init__(self):
        if self.period <= 0.0:
            raise BandError("period must be positive")
        base = _TWO_PI / self.period
        for k, ck, sk in self.harmonics:
            if k <= 0:
                raise BandError("harmonic wavenumbers must be positive")
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


def mathieu_hill(q: float, a: float = 0.0) -> HillEquation:
    """Normal-form Mathieu potential Q = a - 2q cos(2z), period pi."""
    return HillEquation(period=np.pi, q0=a, harmonics=((2, -2.0 * q, 0.0),))


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
    return HillEquation(
        period=period,
        q0=q0,
        harmonics=tuple(harmonics),
        provenance=(("A", A), ("E", float(energy)), ("D1", me.D1), ("b1", me.b1), ("omega", omega)),
    )


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
    Brillouin zone), and an imaginary part marks instability."""

    a: float
    tr_m: float
    det_m: float
    nu: complex
    stable: bool
    tol_achieved: float


# Elements (steps x samples) per block of step propagators built at once;
# bounds the temporaries of _integrate_monodromy independently of n_steps.
_BLOCK_ELEMENTS = 2**12


def _matmul22(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b @ a for stacks of 2x2 matrices laid out as (2, 2, ...)."""
    return np.array([
        [b[0, 0] * a[0, 0] + b[0, 1] * a[1, 0], b[0, 0] * a[0, 1] + b[0, 1] * a[1, 1]],
        [b[1, 0] * a[0, 0] + b[1, 1] * a[1, 0], b[1, 0] * a[0, 1] + b[1, 1] * a[1, 1]],
    ])


def _integrate_monodromy(hill: HillEquation, a_values: np.ndarray, n_steps: int) -> tuple:
    """Fixed-step RK4 monodromy of Y' = [[0, 1], [-(a + modulation), 0]] Y
    over one period, vectorized over ``a_values``; returns (tr, det).

    The system is linear, so one RK4 step from z_j is exactly the 2x2
    matrix P_j built below from q = a + modulation at z_j, z_j + h/2 and
    z_j + h, and the monodromy is the ordered product P_{n-1} ... P_0.
    Steps are processed in blocks: each block's propagators are reduced by
    pairwise products (later step on the left) and folded into the
    running product.
    """
    h = hill.period / n_steps
    hh = h * h
    a = a_values[None, :]
    block = max(1, _BLOCK_ELEMENTS // a_values.size)
    mono = np.zeros((2, 2, a_values.size))
    mono[0, 0] = mono[1, 1] = 1.0
    for start in range(0, n_steps, block):
        count = min(block, n_steps - start)
        # modulation at the step starts, midpoints and ends of this block
        z = (2 * start + np.arange(2 * count + 1)) * (0.5 * h)
        mod = hill.modulation(z)[:, None]
        q0 = a + mod[0:-1:2]
        q1 = a + mod[1::2]
        q2 = a + mod[2::2]
        u0 = 1.0 - 0.25 * hh * q0
        u1 = 1.0 - 0.25 * hh * q1
        p = np.empty((2, 2) + q0.shape)
        p[0, 0] = 1.0 - (hh / 6.0) * (q0 + q1 + q1 * u0)
        p[0, 1] = h * (1.0 - (hh / 6.0) * q1)
        p[1, 0] = -(h / 6.0) * (q0 + 2.0 * q1 + 2.0 * q1 * u0 + q2 * (1.0 - 0.5 * hh * q1))
        p[1, 1] = 1.0 - (hh / 6.0) * (2.0 * q1 + q2 * u1)
        while p.shape[2] > 1:
            odd = p[:, :, -1:] if p.shape[2] % 2 else None
            p = _matmul22(p[:, :, 1::2], p[:, :, 0:-1:2])
            if odd is not None:
                p = np.concatenate([p, odd], axis=2)
        mono = _matmul22(p[:, :, 0], mono)
    tr = mono[0, 0] + mono[1, 1]
    det = mono[0, 0] * mono[1, 1] - mono[0, 1] * mono[1, 0]
    return tr, det


def floquet_analyze(
    hill: HillEquation,
    a_values,
    rtol: float = 1e-10,
    base_steps: int = 1024,
    max_doublings: int = 6,
) -> list:
    """Monodromy discriminant, determinant, characteristic exponent and
    stability flag at each constant-coefficient sample.

    Integration uses fixed-step RK4, accepted once step halving changes no
    discriminant by more than ``rtol`` (relative to max(1, |tr M|));
    otherwise the step count doubles, up to ``max_doublings``.
    """
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    if a_values.size < 1:
        raise BandError("need at least one sample")
    scale = max(1.0, float(np.abs(hill.q_eval(np.linspace(0, hill.period, 64))).max()),
                float(np.abs(a_values).max()))
    n = max(base_steps, int(base_steps * np.sqrt(scale)))
    tr_prev, det_prev = _integrate_monodromy(hill, a_values, n)
    achieved = np.inf
    for _ in range(max_doublings):
        n *= 2
        tr, det = _integrate_monodromy(hill, a_values, n)
        achieved = float(np.max(np.abs(tr - tr_prev) / np.maximum(1.0, np.abs(tr))))
        tr_prev, det_prev = tr, det
        if achieved <= rtol:
            break
    else:
        raise ODEToleranceError(f"monodromy tolerance {rtol} not met (reached {achieved:.2e})")

    T = hill.period
    results = []
    for a, trv, detv in zip(a_values, tr_prev, det_prev):
        half = trv / 2.0
        if abs(half) <= 1.0:
            nu = complex(np.arccos(half) / T, 0.0)
            stable = True
        else:
            alpha = np.arccosh(abs(half)) / T
            nu = complex(0.0, alpha) if trv > 2.0 else complex(np.pi / T, alpha)
            stable = False
        results.append(FloquetResult(a=float(a), tr_m=float(trv), det_m=float(detv),
                                     nu=nu, stable=stable, tol_achieved=achieved))
    return results


def _discriminant(hill: HillEquation, a: float, rtol: float = 1e-10) -> float:
    return floquet_analyze(hill, [a], rtol=rtol)[0].tr_m


def band_edge_bisection(
    hill: HillEquation,
    a_lo: float,
    a_hi: float,
    branch: float,
    tol: float = 1e-8,
    rtol: float = 1e-10,
) -> float:
    """Locate a band edge by bisection on tr M - branch (branch is +2 or -2).

    Requires a sign change of tr M - branch over [a_lo, a_hi]; tangential
    touches (e.g. every edge of the unmodulated problem) have no sign change
    and must use the Fourier eigenvalue route instead.
    """
    if branch not in (2.0, -2.0):
        raise BandError("branch must be +2 or -2")
    if not a_lo < a_hi:
        raise BandError(f"bracket [{a_lo}, {a_hi}] is empty or reversed")
    if not tol > 0.0:
        raise BandError("tol must be positive")
    f_lo = _discriminant(hill, a_lo, rtol) - branch
    f_hi = _discriminant(hill, a_hi, rtol) - branch
    if f_lo == 0.0:
        return a_lo
    if f_hi == 0.0:
        return a_hi
    if f_lo * f_hi > 0.0:
        raise BandError(f"tr M - ({branch:+g}) does not change sign over [{a_lo}, {a_hi}]")
    while a_hi - a_lo > tol:
        mid = 0.5 * (a_lo + a_hi)
        f_mid = _discriminant(hill, mid, rtol) - branch
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            a_hi, f_hi = mid, f_mid
        else:
            a_lo, f_lo = mid, f_mid
    return 0.5 * (a_lo + a_hi)


def _hill_matrix(hill: HillEquation, mu: float, n_fourier: int) -> np.ndarray:
    """Hermitian matrix of -d^2/dz^2 - modulation(z) in the Fourier basis
    exp(i (mu + j w0) z), j = -n_fourier..n_fourier, w0 = 2 pi / period."""
    base = _TWO_PI / hill.period
    fourier = {}
    for k, ck, sk in hill.harmonics:
        m = round(k / base)
        fourier[m] = fourier.get(m, 0.0) + 0.5 * (ck - 1j * sk)
    j = np.arange(-n_fourier, n_fourier + 1)
    H = np.diag(((mu + j * base) ** 2).astype(complex))
    for m, coeff in fourier.items():
        idx = np.arange(len(j) - m)
        H[idx + m, idx] += -coeff          # e^{+imz} coupling
        H[idx, idx + m] += -np.conj(coeff)  # Hermitian partner
    return H


def band_edges(hill: HillEquation, a_min: float, a_max: float, n_fourier: int = 48) -> dict:
    """Band edges (periodic and antiperiodic eigenvalues of the Hill
    operator) inside [a_min, a_max], via a truncated Fourier basis.

    The operator -d^2/dz^2 - modulation(z) is Hermitian in the bases
    exp(i (mu + j w0) z), w0 = 2 pi / period, with mu = 0 (periodic,
    tr M = +2) and mu = w0/2 (antiperiodic, tr M = -2).
    """
    base = _TWO_PI / hill.period
    per = np.linalg.eigvalsh(_hill_matrix(hill, 0.0, n_fourier))
    anti = np.linalg.eigvalsh(_hill_matrix(hill, 0.5 * base, n_fourier))
    per = per[(per >= a_min) & (per <= a_max)]
    anti = anti[(anti >= a_min) & (anti <= a_max)]
    edges = np.sort(np.concatenate([per, anti]))
    return {"periodic": per, "antiperiodic": anti, "edges": edges}


def bloch_density_profile(hill: HillEquation, n_fourier: int = 48, n_z: int = 256) -> tuple:
    """(a0, fourier_coeffs) of the nodeless ground periodic solution.

    Returns the lowest periodic eigenvalue and the Fourier coefficients c_j
    of y(z) = sum_j c_j exp(i j w0 z), normalized so max y = 1 and y > 0.
    """
    base = _TWO_PI / hill.period
    j = np.arange(-n_fourier, n_fourier + 1)
    vals, vecs = np.linalg.eigh(_hill_matrix(hill, 0.0, n_fourier))
    c = vecs[:, 0]
    z = np.linspace(0.0, hill.period, n_z, endpoint=False)
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
