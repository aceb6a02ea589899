"""Half-order time calculus and divergence-form space-time operators on the
torus: spectral and singular-integral fractional derivatives, a coercive
variational solver with a constant-coefficient oracle, cylinder oscillation
functionals with the local-estimate verifiers, and a reproducible experiment
harness."""

import os as _os
import sys as _sys

# After each threaded product OpenBLAS's idle worker busy-waits 2^timeout
# cycles (2^28 by default) before it sleeps; 4 is OpenBLAS's minimum.  The
# library reads the variable once, when numpy loads it, and a value the user
# has set wins.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .grid import (
    Field,
    Grid,
    VectorField,
    inner,
    lp_norm,
    make_grid,
    time_window_lp_norm,
    zeros,
)
from .expressions import ExpressionError, field_from_expression
from .htpf import read_coefficients, read_field, write_coefficients, write_field
from .timeops import (
    cutoff_commutator,
    cutoff_eta,
    half_derivative,
    half_derivative_quadrature,
    hilbert,
    time_derivative,
    time_symbol,
)
from .coefficients import (
    AssumptionReport,
    Coefficients,
    Ellipticity,
    check_assumption_time,
    check_assumption_x1,
    coefficients_from_matrix,
    generate_coefficients,
    identity_coefficients,
)
from .operators import (
    DataBundle,
    apply_operator,
    apply_rhs,
    divergence_minus,
    gradient_plus,
    manufacture_data,
    matrix_gradient,
    reduce_to_identity,
    residual,
)
from .solver import (
    SolveResult,
    SolverOptions,
    bundle_lp_norm,
    compute_bundles,
    duality_defect,
    multiplier_bound,
    solve,
    solve_oracle,
    twisted_pairing,
    weak_pairing,
)
from .oscillation import (
    Cylinder,
    LocalEstimateReport,
    OscillationReport,
    bundle_oscillation,
    bundle_rms,
    tail_sum,
    verify_local_estimate,
    verify_mean_oscillation,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    config_hash,
    run_assumption_report,
    run_identity_suite,
    run_l2_trials,
    run_lp_sweep,
    run_oscillation_experiments,
    run_tail_decay,
    write_outputs,
)

__version__ = "0.1.0"
