"""Independent numerical checks of the normalization bound.

Three routes to the restricted normalization constant are provided so the
closed-form pieces can be validated against each other:

* a Monte Carlo estimate that samples raw datasets, keeps those whose MLEs
  fall inside the restricted domain, and averages the maximized likelihood
  (the definition of the constant, evaluated without any change of variables);
* adaptive quadrature of the reduced one-dimensional integrand for m = 1;
* the exact closed form for m = 1.

Estimates carry a delta-method standard error in the log domain.  The module
also hosts a brute-force enumeration of the mixture normalization sum and the
distributional check for the generalized logistic MLE statistic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr, xlogy

from .errors import DegenerateEstimateError, InvalidInputError
from .gaussian import _LOG_2PI_E
from .genlogistic import genlog_sample, _log1p_exp_neg
from .mixture import _child_seed, _log_cluster_terms
from .stats import DomainSpec

_CHUNK = 16384          # fixed chunk size; chunk index -> seed mapping is part
                        # of the algorithm, so results do not depend on how
                        # chunks might be distributed over workers
_DESK_SCALE_DIMS = 12   # cap on n * m for the data-space estimate
_MIN_SAMPLES = 10_000
_DEFENSIVE_WEIGHT = 0.5
_SCALE_GRID_SIZE = 12


@dataclass(frozen=True)
class McEstimate:
    """A log-domain Monte Carlo estimate with its standard error.

    ``std_error_log`` is the delta-method standard error of ``log_value``.
    Reproducible from ``(samples, seed)``.
    """

    log_value: float
    std_error_log: float
    samples: int
    accepted: int
    seed: int


def _sample_chunk(rng, cn, n, m, cube_half, mu_half, lam_grid, uniform_only):
    """Draw one chunk of datasets; the draw order is fixed so masks never
    change how much randomness is consumed."""
    if uniform_only:
        y = rng.uniform(-cube_half, cube_half, (cn, n, m))
        return y, None
    u_choice = rng.random(cn)
    comp = rng.integers(0, lam_grid.size, cn)
    y_unif = rng.uniform(-cube_half, cube_half, (cn, n, m))
    mu_star = rng.uniform(-mu_half, mu_half, (cn, m))
    z = rng.standard_normal((cn, n, m))
    y_mix = mu_star[:, None, :] + np.sqrt(lam_grid[comp])[:, None, None] * z
    use_mix = u_choice >= _DEFENSIVE_WEIGHT
    return np.where(use_mix[:, None, None], y_mix, y_unif), use_mix


def _log_proposal_mixture(mu_hat, tr_cov, n, m, mu_half, lam_grid):
    """log density of the hierarchical proposal at the sampled datasets.

    Each component draws a center uniformly from a box and the points i.i.d.
    isotropic Gaussian at one of the grid scales; integrating the center out
    leaves a closed form in the sufficient statistics (mean and total
    scatter), with normal-CDF factors for the box truncation.
    """
    s = np.sqrt(lam_grid / n)
    hi = (mu_half - mu_hat[:, :, None]) / s
    lo = (-mu_half - mu_hat[:, :, None]) / s
    with np.errstate(divide="ignore"):
        log_dphi = np.log(ndtr(hi) - ndtr(lo)).sum(axis=1)
    log_comp = (-(m * n / 2.0) * np.log(2.0 * math.pi * lam_grid)[None, :]
                - tr_cov[:, None] * (n / (2.0 * lam_grid))[None, :]
                + (m / 2.0) * np.log(2.0 * math.pi * lam_grid / n)[None, :]
                - m * math.log(2.0 * mu_half) + log_dphi)
    return logsumexp(log_comp, axis=1) - math.log(lam_grid.size)


def mc_log_norm_dataspace(n: int, spec: DomainSpec, samples: int, seed: int,
                          proposal: str = "mixture") -> McEstimate:
    """Monte Carlo estimate of the log restricted normalization constant.

    Samples whole datasets, evaluates the maximized likelihood on those whose
    MLEs land inside the domain, and importance-weights by the proposal
    density.  Membership implies every coordinate lies within
    sqrt(R) + sqrt(n m eps2_cap) of zero (the total scatter around the mean is
    n * trace of the covariance), which provides the enclosing cube.

    ``proposal`` is ``"mixture"`` (default) or ``"uniform"``.  The mixture is
    a defensive blend of the uniform cube with hierarchical components matched
    to the domain's eigenvalue range; plain uniform sampling is retained as a
    cross-check but its weights are so heavy-tailed for larger n that the
    estimate concentrates below the truth at any affordable sample count.

    Limited to n * m <= 12 and at least 10^4 samples.
    """
    m = spec.m
    if n < m + 1:
        raise InvalidInputError(f"need n >= m + 1 = {m + 1}, got {n}")
    if n * m > _DESK_SCALE_DIMS:
        raise InvalidInputError(
            f"data-space estimate is desk-scale only: need n*m <= {_DESK_SCALE_DIMS}")
    if samples < _MIN_SAMPLES:
        raise InvalidInputError(f"need at least {_MIN_SAMPLES} samples, got {samples}")
    if proposal not in ("mixture", "uniform"):
        raise InvalidInputError(f"unknown proposal {proposal!r}")

    uniform_only = proposal == "uniform"
    cube_half = math.sqrt(spec.R) + math.sqrt(n * m * spec.eps2_cap)
    log_vcube = m * n * math.log(2.0 * cube_half)
    mu_half = math.sqrt(spec.R)
    lam_grid = np.geomspace(0.8 * float(spec.eps1.min()),
                            1.25 * float(spec.eps2.max()), _SCALE_GRID_SIZE)
    eps1 = spec.eps1[None, :]
    eps2 = spec.eps2[None, :]

    sum_w = 0.0
    sum_w2 = 0.0
    accepted = 0
    done = 0
    chunk_index = 0
    while done < samples:
        cn = min(_CHUNK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), chunk_index]))
        y, _ = _sample_chunk(rng, cn, n, m, cube_half, mu_half, lam_grid, uniform_only)
        mu_hat = y.mean(axis=1)
        dev = y - mu_hat[:, None, :]
        cov = np.einsum("ijk,ijl->ikl", dev, dev) / n
        lam = cov[:, :, 0] if m == 1 else np.linalg.eigvalsh(cov)
        member = ((mu_hat ** 2).sum(axis=1) <= spec.R) \
            & (lam >= eps1).all(axis=1) & (lam <= eps2).all(axis=1)
        idx = np.nonzero(member)[0]
        if idx.size:
            log_f = -(m * n / 2.0) * _LOG_2PI_E - (n / 2.0) * np.log(lam[idx]).sum(axis=1)
            if uniform_only:
                log_q = -log_vcube
            else:
                # members lie inside the cube, so the uniform component is live
                log_q_mix = _log_proposal_mixture(
                    mu_hat[idx], lam[idx].sum(axis=1), n, m, mu_half, lam_grid)
                log_q = np.logaddexp(math.log(_DEFENSIVE_WEIGHT) - log_vcube,
                                     math.log(1.0 - _DEFENSIVE_WEIGHT) + log_q_mix)
            w = np.exp(log_f - log_q)
            sum_w += float(w.sum())
            sum_w2 += float((w * w).sum())
            accepted += int(idx.size)
        done += cn
        chunk_index += 1

    if accepted == 0:
        raise DegenerateEstimateError(
            "no sampled dataset satisfied the domain constraints; increase the "
            "sample count or widen the eigenvalue interval")
    mean = sum_w / samples
    var = max(sum_w2 - samples * mean * mean, 0.0) / (samples - 1)
    std_error = math.sqrt(var / samples)
    return McEstimate(log_value=math.log(mean), std_error_log=std_error / mean,
                      samples=int(samples), accepted=accepted, seed=int(seed))


def quad_log_norm_1d(n: int, spec: DomainSpec) -> float:
    """Adaptive quadrature of the reduced integrand for m = 1.

    Integrates the fixed-point sufficient-statistic density over the mean
    interval [-sqrt(R), sqrt(R)] and the eigenvalue interval [eps1, eps2];
    its n-dependent coefficient is attached in the log domain afterwards.
    An independent route to the same value as :func:`exact_log_norm_1d`.
    """
    if spec.m != 1:
        raise InvalidInputError(f"reduced quadrature only applies to m = 1, got {spec.m}")
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got {n}")
    from scipy import integrate  # slow to import; only this oracle needs it

    eps1, eps2 = float(spec.eps1[0]), float(spec.eps2[0])
    lam_integral, _ = integrate.quad(lambda t: t ** -1.5, eps1, eps2,
                                     epsabs=1e-13, epsrel=1e-13, limit=200)
    mu_integral, _ = integrate.quad(lambda t: 1.0, -math.sqrt(spec.R),
                                    math.sqrt(spec.R))
    log_coeff = n / 2.0 * (math.log(n) - math.log(2.0) - 1.0) \
        - 0.5 * math.log(math.pi) - float(gammaln((n - 1) / 2.0))
    with np.errstate(divide="ignore"):
        return float(np.log(lam_integral) + np.log(mu_integral) + log_coeff)


def _compositions(n: int, k: int):
    # stars and bars over k ordered non-negative parts summing to n
    for cuts in itertools.combinations(range(n + k - 1), k - 1):
        prev = -1
        parts = []
        for c in (*cuts, n + k - 1):
            parts.append(c - prev - 1)
            prev = c
        yield parts


def mixture_norm_bruteforce(k: int, n: int, spec: DomainSpec) -> float:
    """Exhaustive enumeration of the mixture normalization sum.

    Walks every composition of n into k ordered cluster sizes and log-sum-exps
    the multinomially weighted products of per-cluster bounds.  Exists purely
    to validate the recursion; refuses more than 10^6 compositions.
    """
    if k < 1 or n < 0:
        raise InvalidInputError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    n_comps = math.comb(n + k - 1, k - 1)
    if n_comps > 1_000_000:
        raise InvalidInputError(
            f"{n_comps} compositions exceed the enumeration budget of 10^6")
    log_t = _log_cluster_terms(n, spec)
    terms = np.empty(n_comps)
    for i, parts in enumerate(_compositions(n, k)):
        lw = float(gammaln(n + 1)) - sum(float(gammaln(h + 1)) for h in parts)
        if n > 0:
            lw += sum(float(xlogy(h, h / n)) for h in parts)
        lw += sum(float(log_t[h]) for h in parts)
        terms[i] = lw
    return float(logsumexp(terms))


@dataclass(frozen=True)
class GammaKsReport:
    """Kolmogorov-Smirnov test of the MLE statistic against a gamma law."""

    statistic: float
    pvalue: float
    passed: bool
    level: float
    replications: int
    n: int
    theta: float
    seed: int


def ks_gamma_check(n: int, theta: float, replications: int, seed: int,
                   null_scale: float | None = None,
                   level: float = 0.01) -> GammaKsReport:
    """Test that n / theta_hat over seeded replications follows
    Gamma(shape n, scale 1/theta).

    Each replication samples n generalized-logistic points and records
    sum_i log(1 + e^(-x_i)).  ``null_scale`` overrides the gamma scale of the
    null hypothesis, which lets callers demonstrate that a wrong null is
    rejected.  Passing means the p-value is at or above ``level``.
    """
    if replications < 100:
        raise InvalidInputError(f"need at least 100 replications, got {replications}")
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0):
        raise InvalidInputError(f"theta must be positive, got {theta}")
    scale = 1.0 / theta if null_scale is None else float(null_scale)
    stats_arr = np.empty(replications)
    for r in range(replications):
        x = genlog_sample(n, theta, _child_seed(seed, r))
        stats_arr[r] = float(_log1p_exp_neg(x).sum())
    from scipy import stats as spstats  # slow to import; only this check needs it

    res = spstats.kstest(stats_arr, "gamma", args=(n, 0.0, scale))
    return GammaKsReport(statistic=float(res.statistic), pvalue=float(res.pvalue),
                         passed=bool(res.pvalue >= level), level=level,
                         replications=int(replications), n=int(n), theta=theta,
                         seed=int(seed))
