"""Numerical laboratory for Lyapunov exponents of 2x2 quasiperiodic cocycles.

The package is organized by subject: frequency arithmetic (torus), cocycle
construction and evaluation (cocycle), finite-scale exponents (lyapunov),
avalanche-principle checks (avalanche), deviation statistics (deviation),
scale ladders (multiscale), and a deterministic experiment runner (cli).
"""

__version__ = "0.1.0"

from .errors import (
    AllSamplesSingular,
    ChainTooShort,
    CocycleLabError,
    GateFailed,
    IdenticallySingular,
    IdenticallyZero,
    InconsistentDelta,
    NotCoprime,
    NotDivisible,
    NotUnimodular,
    OutsideStrip,
    PreconditionFailed,
    ScanTooLarge,
    Singular,
)
from .torus import (
    Automorphism,
    DiophantineReport,
    Frequency,
    build_automorphism,
    freq_norm,
    frequency_multiple,
    min_dot_norm,
    rational_dependence,
    torus_distance,
)
from .cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    jacobi,
    jacobi_periodic,
    renormalize,
    schrodinger,
    strip_norm,
)
from .lyapunov import (
    DetLogIntegral,
    ExtrapolationResult,
    LEEstimate,
    ModulusTable,
    QuadratureSpec,
    L_N_renormalized,
    L_prime_N,
    default_quadrature,
    det_log_integral,
    finite_scale_modulus,
    le_extrapolate,
    le_table,
)
from .avalanche import (
    APReport,
    ConsequenceReport,
    EnsembleResult,
    ap_check,
    ap_consequence_check,
    ap_ensemble,
    ap_variant_check,
    random_hyperbolic_chain,
)
from .deviation import (
    FourierReport,
    L2Report,
    LojFit,
    MeasureEstimate,
    Profile,
    cdt_empirical,
    cdt_empirical_many,
    fourier_coeffs,
    l2_uniform_check,
    ldt_empirical,
    lojasiewicz_fit,
    profile,
    shift_drift_empirical,
)
from .multiscale import (
    GateReport,
    LadderVerification,
    ScaleLadder,
    ScalePair,
    cov_invariance_check,
    induction_schedule,
    ladder_verify,
    liouville_gate,
    liouville_ladder,
    mixed_gate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
