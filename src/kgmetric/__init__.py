"""kgmetric: invariant positive inner products for wave equations
psi'' + D psi = 0, built through the doubled (Schrodinger-form) system and
its metric operators.

The package constructs the positive metrics that make the doubled
Hamiltonian Hermitian, classifies the sign families on the full metric
space, turns them into inner products directly on (psi, psi_dot) data, and
verifies invariance along integrated trajectories on three worked models:
the harmonic oscillator, a periodic Klein-Gordon lattice, and an FRW
Wheeler-DeWitt minisuperspace.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidParameterError,
    KgMetricError,
    LambdaMismatchError,
    LengthMismatchError,
    MissingSignError,
    NoConvergenceError,
    NonFiniteStateError,
    NonPositiveAError,
    NonPositiveCoefficientError,
    NonPositiveSpectrumError,
    NotHermitianError,
    OutOfFamilyError,
    SingularGaugeError,
    SingularPropagatorError,
    UnpairedComplexEigenvalueError,
    ZeroLambdaError,
    ZeroStepsError,
)
from .spectral import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectralDecomposition,
    check_biorthonormal,
    hermitian_eigendecompose,
    operator_power,
)
from .two_component import (
    FieldState,
    TwoComponentState,
    build_hamiltonian,
    eigen_system,
    eta_plus,
    gauge_transform,
    kg_inner,
    pack,
    unpack,
)
from .inner_products import (
    InnerProductSpec,
    SignAssignment,
    build_L,
    check_pseudo_unitary,
    eta_general,
    eta_inv,
    eta_tilde_plus,
    solution_inner,
    two_component_inner,
)
from .evolution import (
    AffineSource,
    EvolutionResult,
    FieldTrajectory,
    MonitorSeries,
    drift_report,
    evolve_field,
    evolve_schrodinger,
    field_trajectory,
)
from . import models
from .models import (
    KleinGordonLattice,
    ShoModel,
    WdwFrwModel,
    kg_inner_ri,
    kg_mode_solution,
    kg_nonrel_limit_check,
    kg_relativistic_spec,
    kg_superposition,
    sho_basic_solution,
    sho_inner,
    wdw_invariant_inner,
    wdw_numeric_crosscheck,
    wdw_operator,
    wdw_positivity,
    woodard_inner,
)

__version__ = "0.1.0"
