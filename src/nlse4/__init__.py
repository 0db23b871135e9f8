"""Spectral simulation bench for fourth-order homogeneous nonlinear
Schrodinger equations: functional evaluation, conservative time evolution,
stationary phase modes with emergent band structure, and the associated
conservation-law and separability diagnostics."""

from .spectral import (
    Grid,
    GridError,
    PhysicalConstants,
    NATURAL_UNITS,
    make_grid,
    spectral_derivative,
    gradient,
    divergence,
    laplacian,
)
from .hydro import HydroView, hydro_decompose, fourth_order_composites
from .states import (
    Potential,
    StateError,
    make_state,
    plane_wave,
    gaussian_packet,
    harmonic_eigenstate,
    harmonic_energy,
    coherent_state,
    random_state,
    harmonic_potential,
    wavenumber,
    BoostError,
    galilean_boost,
)
from .coeffs import (
    CoeffSet,
    CoeffError,
    MEParams,
    linear_coeffs,
    dg_coeffs,
    ext_coeffs,
    dg_linearizable,
)
from .functionals import eval_functional, functional_pair, forbidden_term, homogeneity_check
from .currents import currents, continuity_residual
from .evolution import (
    EvolutionAbort,
    EvolutionConfig,
    MaskOverflowError,
    StabilityError,
    State,
    Trajectory,
    derive,
    evolve,
    nonlinear_rhs,
    stability_bound,
)
from .bands import (
    BandError,
    FloquetResult,
    HillEquation,
    PhaseMode,
    band_edge_bisection,
    band_edges,
    bloch_density_profile,
    floquet_analyze,
    floquet_exponent,
    hill_discriminant,
    hill_from_stationary,
    mathieu_hill,
    measured_period,
    mode_frequency,
    stationary_flux_residual,
    stationary_energy_from_q0,
)
from .diagnostics import (
    EhrenfestReport,
    GaugeFormError,
    ObservablesSample,
    ehrenfest_consistency,
    ehrenfest_corrections,
    energy,
    gauge_form_residual,
    observables_sample,
    separability_test,
)

__version__ = "0.1.0"
