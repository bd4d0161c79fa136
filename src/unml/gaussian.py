"""Closed-form code-length pieces for a single Gaussian on the restricted domain.

The code length splits into a data term, the negative log of the maximized
likelihood, and a normalization term.  The normalization integral of the
maximized likelihood over the restricted domain has no closed form for m >= 2,
but it admits the upper bound

    C_u(n) = B * (n / 2e)^(mn/2) / Gamma_m((n-1)/2),

where ``B`` collects the domain constants and does not depend on n.  For m = 1
the restricted integral is available in closed form as well, which gives an
exact reference value to verify the bound against.

All arithmetic is carried out in the log domain: the factor (n/2e)^(mn/2)
alone overflows double precision near n ~ 300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainViolationError,
    InsufficientDataError,
    InvalidInputError,
    SingularCovarianceError,
)
from .stats import (
    Dataset,
    DomainSpec,
    GaussianMle,
    check_domain,
    compute_mle,
    log_gamma,
    log_multivariate_gamma,
)

_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


@dataclass(frozen=True)
class GaussianCodeLength:
    """Code length of a dataset under a single Gaussian, in nats.

    ``total = data_term + log_norm`` by construction.
    """

    data_term: float
    log_norm: float
    total: float


def log_domain_constant(spec: DomainSpec) -> float:
    r"""log of the n-free domain constant

        B = 2^(m+1) R^(m/2) prod_j eps1[j]^(-m/2) / (m^(m+1) Gamma(m/2)).

    Only ``R`` and the eigenvalue lower bounds enter; the upper bounds are
    discarded by the final bounding step.
    """
    m = spec.m
    return (m + 1) * math.log(2.0) + m / 2.0 * math.log(spec.R) \
        - m / 2.0 * float(np.log(spec.eps1).sum()) \
        - (m + 1) * math.log(m) - log_gamma(m / 2.0)


def log_norm_bound(n, spec: DomainSpec):
    """log of the upper bound C_u on the restricted normalization constant.

    Defined for ``n >= m + 1``.  ``n`` may be a scalar or an integer array
    (evaluated elementwise), which keeps sweeps over n cheap.
    """
    m = spec.m
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < m + 1):
        raise InsufficientDataError(
            f"normalization bound needs n >= m + 1 = {m + 1}, got {n}")
    val = log_domain_constant(spec) + _log_size_factor(m, n_arr)
    return float(val) if np.isscalar(n) or n_arr.ndim == 0 else val


def _log_size_factor(m: int, n):
    """f(m, n) = (mn/2)(log n - log 2 - 1) - log Gamma_m((n-1)/2), for a scalar
    or an array ``n``: log C_u = log B + f(m, n)."""
    n = np.asarray(n, dtype=float)
    return m * n / 2.0 * (np.log(n) - math.log(2.0) - 1.0) \
        - log_multivariate_gamma(m, (n - 1) / 2.0)


def _neg_log_max_likelihood(h, eigenvalues):
    """(mh/2) log(2 pi e) + (h/2) sum_j log lam_j for h points whose MLE has
    ``eigenvalues`` (..., m); ``h`` broadcasts against the leading axes."""
    m = eigenvalues.shape[-1]
    return m * h / 2.0 * _LOG_2PI_E + h / 2.0 * np.log(eigenvalues).sum(axis=-1)


def gaussian_data_term(mle: GaussianMle, n: int) -> float:
    """Negative log of the maximized Gaussian likelihood, in nats.

    Equals (mn/2) log(2 pi e) + (n/2) sum_j log lam_j, which is the negative
    log density product evaluated at the MLE.
    """
    if np.any(mle.eigenvalues <= 0.0):
        raise SingularCovarianceError(
            "covariance is singular: a zero eigenvalue makes the data term diverge")
    return float(_neg_log_max_likelihood(n, mle.eigenvalues))


def gaussian_codelength(data: Dataset, spec: DomainSpec) -> GaussianCodeLength:
    """Upper-bound code length of a dataset under a single Gaussian.

    The data must already lie inside the restricted domain; callers are
    expected to rescale first (see :func:`unml.stats.choose_scale`).
    """
    mle = compute_mle(data)
    report = check_domain(mle, spec)
    if not report.ok:
        raise DomainViolationError("; ".join(report.violations))
    if data.n < spec.m + 1:
        raise InsufficientDataError(
            f"need n >= m + 1 = {spec.m + 1} observations, got {data.n}")
    data_term = gaussian_data_term(mle, data.n)
    log_norm = log_norm_bound(data.n, spec)
    return GaussianCodeLength(data_term=data_term, log_norm=log_norm,
                              total=data_term + log_norm)


def exact_log_norm_1d(n: int, spec: DomainSpec) -> float:
    """Exact log of the restricted normalization constant for m = 1.

    In one dimension the eigenvector integral is trivial and the restricted
    integral evaluates in closed form:

        C = 2 sqrt(R) * 2 (eps1^(-1/2) - eps2^(-1/2))
            * n^(n/2) / (2^(n/2) sqrt(pi) e^(n/2) Gamma((n-1)/2)).

    Always strictly below :func:`log_norm_bound`; returns ``-inf`` when the
    eigenvalue interval has zero width.
    """
    if spec.m != 1:
        raise InvalidInputError(f"closed form only exists for m = 1, got m = {spec.m}")
    if n < 2:
        raise InsufficientDataError(f"need n >= 2, got {n}")
    eps1 = float(spec.eps1[0])
    eps2 = float(spec.eps2[0])
    if eps1 == eps2:
        return -math.inf
    # eps1^(-1/2) - eps2^(-1/2) = eps1^(-1/2) * (1 - sqrt(eps1/eps2)), kept stable
    log_diff = -0.5 * math.log(eps1) + math.log1p(-math.sqrt(eps1 / eps2))
    return math.log(4.0) + 0.5 * math.log(spec.R) + log_diff \
        - 0.5 * math.log(math.pi) + float(_log_size_factor(1, n))


def log_suffstat_density(n: int, eigenvalues) -> float:
    r"""log of the sufficient-statistic density at its own fixed point.

    This is the reduced integrand whose integral over the restricted domain is
    the normalization constant:

        g(lam) = n^(mn/2) / (2^(mn/2) pi^(m/2) e^(mn/2) Gamma_m((n-1)/2))
                 * prod_j lam_j^(-m/2 - 1).

    The dimension is taken from ``len(eigenvalues)``.
    """
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    m = lam.shape[0]
    if np.any(lam <= 0):
        raise SingularCovarianceError("eigenvalues must be strictly positive")
    if n < m + 1:
        raise InsufficientDataError(f"need n >= m + 1 = {m + 1}, got {n}")
    return float(_log_size_factor(m, n)) - m / 2.0 * math.log(math.pi) \
        - (m / 2.0 + 1.0) * float(np.log(lam).sum())
