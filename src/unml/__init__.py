"""Restricted-domain NML code lengths and cluster-count selection.

Gaussian code lengths are normalized over a restricted parameter domain so the
normalization constant stays finite; an n-free domain constant turns it into a
computable upper bound.  Mixture code lengths sum that bound over all label
assignments, and the number of clusters is chosen by minimizing the total.
Monte Carlo and quadrature oracles verify the bound numerically, and the same
machinery covers the one-parameter generalized logistic family.
"""

from .errors import (
    DegenerateEstimateError,
    DomainViolationError,
    InfeasibleKError,
    InsufficientDataError,
    InvalidAssignmentError,
    InvalidInputError,
    SingularCovarianceError,
    UnmlError,
)
from .gaussian import (
    GaussianCodeLength,
    exact_log_norm_1d,
    gaussian_codelength,
    gaussian_data_term,
    log_domain_constant,
    log_multivariate_gamma,
    log_norm_bound,
    log_suffstat_density,
)
from .genlogistic import (
    GenLogisticSpec,
    genlog_codelength,
    genlog_inverse_cdf,
    genlog_log_norm,
    genlog_log_pdf,
    genlog_mle,
    genlog_sample,
)
from .mixture import (
    Assignment,
    ClusterFit,
    KEntry,
    ModelSelectionReport,
    SkippedK,
    best_clustering,
    build_report,
    cluster,
    codelength_difference,
    complete_data_term,
    fit_k_range,
    log_mixture_norm,
    select,
)
from .stats import (
    Dataset,
    DomainCheck,
    DomainSpec,
    GaussianMle,
    check_domain,
    choose_scale,
    compute_mle,
    load_csv,
    save_csv,
    scale_dataset,
)
from .verify import (
    GammaKsReport,
    McEstimate,
    ks_gamma_check,
    mc_log_norm_dataspace,
    mixture_norm_bruteforce,
    quad_log_norm_1d,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ClusterFit",
    "Dataset",
    "DegenerateEstimateError",
    "DomainCheck",
    "DomainSpec",
    "DomainViolationError",
    "GammaKsReport",
    "GaussianCodeLength",
    "GaussianMle",
    "GenLogisticSpec",
    "InfeasibleKError",
    "InsufficientDataError",
    "InvalidAssignmentError",
    "InvalidInputError",
    "KEntry",
    "McEstimate",
    "ModelSelectionReport",
    "SingularCovarianceError",
    "SkippedK",
    "UnmlError",
    "best_clustering",
    "build_report",
    "check_domain",
    "choose_scale",
    "cluster",
    "codelength_difference",
    "complete_data_term",
    "compute_mle",
    "exact_log_norm_1d",
    "fit_k_range",
    "gaussian_codelength",
    "gaussian_data_term",
    "genlog_codelength",
    "genlog_inverse_cdf",
    "genlog_log_norm",
    "genlog_log_pdf",
    "genlog_mle",
    "genlog_sample",
    "ks_gamma_check",
    "load_csv",
    "log_domain_constant",
    "log_mixture_norm",
    "log_multivariate_gamma",
    "log_norm_bound",
    "log_suffstat_density",
    "mc_log_norm_dataspace",
    "mixture_norm_bruteforce",
    "quad_log_norm_1d",
    "save_csv",
    "scale_dataset",
    "select",
]
