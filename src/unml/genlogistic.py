"""Code length for the generalized logistic family on a restricted domain.

The family has density  f(x; theta) = theta e^(-x) / (1 + e^(-x))^(theta + 1)
for theta > 0, a one-parameter exponential family whose MLE is available in
closed form.  Restricting the MLE to an interval [theta_min, theta_max] makes
the normalization integral finite:

    C = n^n / (e^n (n-1)!) * log(theta_max / theta_min).

Computations stay in the log domain (log Gamma(n) instead of (n-1)!, which
overflows past n = 170) and use a stable log(1 + e^(-x)) for large |x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError, InvalidInputError
from .stats import check_index, check_seed, log_gamma

_EXPM1_SWITCH = 30.0


@dataclass(frozen=True)
class GenLogisticSpec:
    """Restriction interval for the shape parameter: 0 < theta_min < theta_max."""

    theta_min: float
    theta_max: float

    def __post_init__(self):
        lo, hi = float(self.theta_min), float(self.theta_max)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
            raise InvalidInputError(
                f"need 0 < theta_min < theta_max finite, got ({lo}, {hi})")
        object.__setattr__(self, "theta_min", lo)
        object.__setattr__(self, "theta_max", hi)


def _log1p_exp_neg(x):
    # log(1 + e^(-x)), stable across the whole real line
    return np.logaddexp(0.0, -np.asarray(x, dtype=float))


def genlog_log_pdf(x, theta: float):
    """log density, elementwise over ``x``.

    Equals log(theta) - x - (theta + 1) log(1 + e^(-x)); finite even for
    x around -745 where e^(-x) overflows naive evaluation.
    """
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0):
        raise InvalidInputError(f"theta must be positive, got {theta}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("x contains non-finite entries")
    val = math.log(theta) - arr - (theta + 1.0) * _log1p_exp_neg(arr)
    return float(val) if np.isscalar(x) or arr.ndim == 0 else val


def genlog_mle(x) -> float:
    """Closed-form MLE:  theta_hat = n / sum_i log(1 + e^(-x_i))."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size == 0:
        raise InvalidInputError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("x contains non-finite entries")
    denom = float(_log1p_exp_neg(arr).sum())
    if denom <= 0.0:
        raise InvalidInputError(
            "sum of log(1 + e^(-x)) underflowed to zero; MLE is unbounded")
    return arr.size / denom


def genlog_log_norm(n: int, spec: GenLogisticSpec) -> float:
    """log of the restricted normalization constant:
    n log n - n - log Gamma(n) + log log(theta_max / theta_min)."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    log_ratio = math.log1p((spec.theta_max - spec.theta_min) / spec.theta_min)
    with np.errstate(divide="ignore"):
        log_log_ratio = float(np.log(log_ratio))
    return n * math.log(n) - n - log_gamma(n) + log_log_ratio


def genlog_codelength(x, spec: GenLogisticSpec) -> float:
    """Code length in nats: data term at the MLE plus the normalization term.

    The MLE must land inside [theta_min, theta_max]; otherwise the restricted
    code length is undefined and a DomainViolationError is raised.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    theta_hat = genlog_mle(arr)
    if not (spec.theta_min <= theta_hat <= spec.theta_max):
        raise DomainViolationError(
            f"theta_hat = {theta_hat:.6g} outside [{spec.theta_min:.6g}, "
            f"{spec.theta_max:.6g}]")
    data_term = -float(genlog_log_pdf(arr, theta_hat).sum())
    return data_term + genlog_log_norm(arr.size, spec)


def genlog_inverse_cdf(u, theta: float):
    """Quantile transform of the CDF  F(x) = (1 + e^(-x))^(-theta).

    Maps u in (0, 1) to  x = -log(u^(-1/theta) - 1), evaluated stably via
    expm1 with an asymptotic branch for extreme left-tail quantiles.
    """
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0):
        raise InvalidInputError(f"theta must be positive, got {theta}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise InvalidInputError("quantiles must lie strictly inside (0, 1)")
    t = -np.log(u_arr) / theta
    with np.errstate(over="ignore"):
        val = np.where(t > _EXPM1_SWITCH, -t, -np.log(np.expm1(np.minimum(t, _EXPM1_SWITCH))))
    return float(val) if np.isscalar(u) or u_arr.ndim == 0 else val


def genlog_sample(count: int, theta: float, seed: int) -> np.ndarray:
    """Inverse-CDF sampling, deterministic given the seed.

    Uniform draws are taken on a 2^53 lattice excluding both endpoints, so the
    transform never sees u = 0 or u = 1.
    """
    count = check_index(count, "count")
    if count < 0:
        raise InvalidInputError(f"count must be >= 0, got {count}")
    u = np.random.default_rng(check_seed(seed)).integers(1, 2 ** 53, size=count) / float(2 ** 53)
    return genlog_inverse_cdf(u, theta)
