"""Span-avoidance certificates for operator orbits on finite truncations.

Given an operator T and a vector x whose projective orbit {c T^n x} comes
certifiably close to a finite target set, the extractor produces a
strictly increasing index sequence (n_k) together with numerical
certificates dist(x', span{T^(n_k) x' : k <= K}) > theta >= 1, and an
independent verifier recomputes every claim from scratch.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyTargets,
    HorizonExhausted,
    LinearDependence,
    OrbitgapError,
    SolverFailure,
    TruncationTooSmall,
    UsageError,
    ZeroOrbit,
)
from .space import (
    COMPLEX,
    L1,
    L2,
    LINF,
    REAL,
    NormSpec,
    basis_vector,
    norm,
    vector,
)
from .operators import (
    BackwardShift,
    DenseMatrix,
    Diagonal,
    ForwardShift,
    OperatorSpec,
    OrbitElement,
    RolewiczMultiple,
    ZeroOrbitMarker,
    apply,
    orbit_stream,
)
from .subspace import (
    SpanBasis,
    best_scalar,
    distance,
    distance_batch_oracle,
    distance_convex_descent,
    distance_if_extended,
    extend,
)
from .dynamics import (
    BuildPlanEntry,
    BuildResult,
    DensityRecord,
    DensityReport,
    TargetSet,
    build_supercyclic_vector,
    default_target_set,
    density_check,
)
from .extractor import (
    Certificate,
    ExtractionConfig,
    VerificationReport,
    extract_subsequence,
    rescale_for_extraction,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardShift",
    "BuildPlanEntry",
    "BuildResult",
    "COMPLEX",
    "Certificate",
    "ConfigError",
    "DenseMatrix",
    "DensityRecord",
    "DensityReport",
    "Diagonal",
    "DimensionMismatch",
    "EmptyTargets",
    "ExtractionConfig",
    "ForwardShift",
    "HorizonExhausted",
    "L1",
    "L2",
    "LINF",
    "LinearDependence",
    "NormSpec",
    "OperatorSpec",
    "OrbitElement",
    "OrbitgapError",
    "REAL",
    "RolewiczMultiple",
    "SolverFailure",
    "SpanBasis",
    "TargetSet",
    "TruncationTooSmall",
    "UsageError",
    "VerificationReport",
    "ZeroOrbit",
    "ZeroOrbitMarker",
    "apply",
    "basis_vector",
    "best_scalar",
    "build_supercyclic_vector",
    "default_target_set",
    "density_check",
    "distance",
    "distance_batch_oracle",
    "distance_convex_descent",
    "distance_if_extended",
    "extend",
    "extract_subsequence",
    "norm",
    "orbit_stream",
    "rescale_for_extraction",
    "vector",
    "verify_certificate",
    "__version__",
]
