"""Bound states and information measures of a planar molecular potential.

A charged particle moves in a plane under a Kratzer-type radial well
plus an angular dipole term, threaded by a magnetic-flux line.  The
package provides the exact bound-state solutions (angular eigenvalue via
a Mathieu characteristic number, radial part via generalized Laguerre
polynomials), closed-form Fisher information, Shannon entropy
components, entropic moments with Tsallis and Renyi entropies, and an
independent numerical oracle for every closed form, plus a CLI for
single states, tables, sweeps, and the validation suite.
"""

from .measures import (
    EntropicMoment,
    FisherResult,
    ShannonResult,
    fisher_closed,
    renyi,
    shannon_closed,
    tsallis,
    wq_closed,
)
from .molecules import (
    MoleculePreset,
    get_preset,
    list_presets,
    raw_number_params,
    to_atomic_units,
)
from .oracle import (
    AccuracyError,
    angular_integrals_numeric,
    fisher_numeric,
    gauss_laguerre_rule,
    radial_fd_eigen,
    shannon_numeric,
    wq_numeric,
)
from .specfun import (
    CancellationWarning,
    SeriesSingularError,
    TruncationError,
    ValidityWarning,
    gamma0,
    laguerre,
    mathieu_char_matrix,
    mathieu_char_series,
    mathieu_even_solution,
)
from .system import (
    AngularMode,
    SolvedState,
    StateSpec,
    SystemParams,
    UnboundAngularError,
    angular_eigenvalue,
    angular_function,
    density,
    make_params,
    solve_state,
)
from .validation import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AngularMode",
    "CancellationWarning",
    "CheckResult",
    "EntropicMoment",
    "FisherResult",
    "MoleculePreset",
    "SeriesSingularError",
    "ShannonResult",
    "SolvedState",
    "StateSpec",
    "SystemParams",
    "TruncationError",
    "UnboundAngularError",
    "ValidityWarning",
    "angular_eigenvalue",
    "angular_function",
    "angular_integrals_numeric",
    "density",
    "fisher_closed",
    "fisher_numeric",
    "gamma0",
    "gauss_laguerre_rule",
    "get_preset",
    "laguerre",
    "list_presets",
    "make_params",
    "mathieu_char_matrix",
    "mathieu_char_series",
    "mathieu_even_solution",
    "radial_fd_eigen",
    "raw_number_params",
    "renyi",
    "run_checks",
    "shannon_closed",
    "shannon_numeric",
    "solve_state",
    "to_atomic_units",
    "tsallis",
    "wq_closed",
    "wq_numeric",
    "__version__",
]
