"""Stochastic order, exact Thompson-metric transport, and means for finitely
supported probability measures on the positive-definite cone."""

from .matfun import (
    DimensionMismatch,
    EigenConvergenceError,
    SpectralDomainError,
    SpectralDecomposition,
    SymMatrix,
    congruence,
    eigh,
    eye,
    frobenius,
    matrix_fn,
    sym,
)
from .cone import (
    NotPositiveDefinite,
    OrderRelation,
    OrderTolerance,
    PosDefMatrix,
    dominating_transport,
    gauge,
    loewner_leq,
    loewner_pairwise,
    order_compare,
    order_interval_contains,
    posdef,
    posdef_eye,
    thompson_distance,
    thompson_pairwise,
    translate,
)
from .measure import (
    ATOM_MERGE_TOL,
    FinMeasure,
    ProductCapExceeded,
    PushForwardError,
    dirac,
    from_atoms,
    invert,
    make_rng,
    measure_from_json,
    measure_to_json,
    measures_allclose,
    push_forward,
    sample,
)
from .order import (
    DEFAULT_MASS_TOL,
    DominanceVerdict,
    MAX_ENUM_POINTS,
    ProbeResult,
    SupportTooLarge,
    UpperSet,
    UpperSetCertificate,
    dominates_by_coupling,
    dominates_by_upper_sets,
    enumerate_upper_sets,
    probe_monotone_functionals,
    verdict_to_json_dict,
)
from .transport import (
    CostMatrix,
    Coupling,
    cost_matrix,
    product_metric_distance,
    wasserstein,
    wasserstein_inf,
)
from .means import (
    AghReport,
    MaxIterationsExceeded,
    MeanConfig,
    MeanIterationInfo,
    agh_check,
    arith_mean,
    geo_t,
    harm_mean,
    karcher_mean,
    karcher_mean_info,
    karcher_residual,
    measure_mean,
    power_mean,
    tuple_mean,
)

__version__ = "0.1.0"
