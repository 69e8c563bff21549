"""Skew-information families and numerical verification of their
uncertainty-relation trace inequalities."""

from .functions import (
    Assumption,
    Const,
    Exp,
    FunctionTriple,
    PairClass,
    Power,
    RatioBounds,
    ScaledSum,
    beta_coefficient,
    check_assumption,
    classify_pair,
    function_from_spec,
    l_scan_min,
    l_value,
    lemma41_check,
    lemma41_lhs,
    ratio_bounds,
    triple_from_spec,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    ConfigError,
    InequalityId,
    InequalitySetting,
    SampleRecord,
    config_from_dict,
    evaluate_inequality,
    run_campaign,
    sample_density,
    sample_observable,
    search_counterexample,
)
from .linalg import (
    DensityMatrix,
    DomainError,
    HermitianMatrix,
    MatrixElementTable,
    SpectralDecomposition,
    element_table,
    hermitian_eigen,
    matrix_to_json,
)
from .quantities import (
    QuantityBundle,
    fgh_eigensum,
    fgh_family,
    gwyd_family,
    gwyd_tilde_family,
    luo_u,
    variance,
    wy_skew,
    wyd_family,
)

__version__ = "0.1.0"
