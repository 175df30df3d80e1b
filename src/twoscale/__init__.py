"""Two-scale homogenization toolkit for quasilinear elliptic problems.

Periodic cell problems feed an effective tensor and corrector tables; a
Newton macro solve plus a resolved fine-scale Newton reference solve produce
remainders whose norms are fitted against eps to verify the expected decay
rates.
"""

from .analysis import (
    ErrorReport,
    LemmaResult,
    RateFit,
    antiderivative_lemma_1d,
    energy_difference,
    fit_rate,
    holder_seminorm,
    homogenized_energy,
    interior_gradient_sup,
    norm_h1,
    norm_l2,
    norm_linf,
    seminorm_h1,
)
from .cell_problems import (
    BuildDiagnostics,
    CellSample,
    CorrectorTable,
    EffectiveTensorTable,
    ParameterGrid,
    TranslationReport,
    build_corrector_tables,
    check_translation_invariance,
    default_parameter_grid,
    effective_tensor,
    solve_first_correctors,
)
from .coefficients import (
    CoefficientModel,
    ConstantCoefficient,
    LayeredCoefficient,
    RosselandCoefficient,
    SeparatedCoefficient,
    SmoothPeriodicCoefficient,
    SourceModel,
    coefficient_from_config,
    source_from_config,
)
from .config import DEFAULT_CONFIG, ExperimentConfig, load_config
from .errors import (
    AssemblyError,
    CompatibilityError,
    ConfigurationError,
    NonConvergenceError,
    OutOfDomainError,
    PropertyViolationError,
)
from .expansion import (
    ExpansionField,
    fast_coordinates,
    fine_grid_for,
    reconstruct,
    remainder,
    solve_fine,
)
from .fem import (
    QuadratureRule,
    SolverOptions,
    assemble_load,
    assemble_stiffness,
    gauss_rule,
    solve_dirichlet,
    solve_periodic_zero_mean,
)
from .grids import (
    CellGrid,
    MacroGrid,
    ScalarField,
    fd_gradient,
    fd_hessian,
    interpolate_values,
)
from .macro import PicardResult, solve_homogenized

__version__ = "0.1.0"
