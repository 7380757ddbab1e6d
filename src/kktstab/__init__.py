"""Composite-optimization KKT machinery: proximal calculus with
generalized derivatives, a semismooth Newton solver, and a stability
analyzer with an empirical strong-regularity cross-check."""

from ._version import __version__
from .symmat import (
    EigenDecompositionError,
    conjugation_matrix,
    eig_split,
    smat,
    svec,
    svec_dim,
)
from .pieces import (
    BoxIndicator,
    ConvexPiece,
    EpiSum,
    GammaDomainBoundaryWarning,
    L1Norm,
    LinearOperatorElement,
    OrthantIndicator,
    PSDConeIndicator,
    SubgradientError,
    clarke_element,
    cone_descriptors,
    gamma,
    gamma_oracle,
    moreau_envelope,
    prox,
    prox_conjugate,
    prox_dirderiv,
    sample_clarke,
)
from .problem import (
    CompositeProblem,
    DimensionError,
    JacobianElementR,
    KKTPoint,
    KKTReport,
    SmoothMap,
    assemble_element,
    canonical_element,
    kkt_check,
    linearized_residual,
    residual,
    sample_elements_R,
    solve,
    solve_linearized_ge,
)
from .newton import (
    InsufficientTraceError,
    NewtonError,
    NewtonNonConvergence,
    NewtonOptions,
    NewtonStagnation,
    NewtonTrace,
    local_rate,
    semismooth_solve,
)
from .stability import (
    AnalyzerOptions,
    CriticalSubspace,
    CurvatureDomainError,
    ProbeStats,
    SsoscResult,
    StabilityReport,
    SweepStats,
    UnsupportedCaseError,
    Verdict,
    assumption_check,
    critical_subspace,
    critical_subspace_from_samples,
    equivalence_report,
    multiplier_uniqueness,
    nondegeneracy_check,
    nonsingularity_sweep,
    rcq_check,
    srcq_check,
    ssosc_check,
    strong_regularity_probe,
)
from .instances import (
    BATTERY_NAMES,
    InstanceFormatError,
    InstanceMeta,
    battery_path,
    instance_from_dict,
    load_battery,
    load_instance,
    parse_piece,
)
from .reports import dumps_report, emit_report, load_report
from .cli import run_command
