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
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimateError, InvalidInputError
from .gaussian import _log_size_factor, _neg_log_max_likelihood
from .genlogistic import _log1p_exp_neg, genlog_sample
from .mixture import _log_cluster_terms
from .stats import DomainSpec, check_index, check_seed, log_gamma, xlogy

_CHUNK = 16384          # fixed chunk size; chunk index -> seed mapping is part
                        # of the algorithm, and the per-chunk sums are reduced in
                        # chunk order, so results do not depend on how many
                        # threads run the chunks or which thread runs which
_BLOCK = 2048           # samples per draw into a stripe's scratch, and members
                        # per proposal-density call
_DESK_SCALE_DIMS = 12   # cap on n * m for the data-space estimate
_MIN_SAMPLES = 10_000
_DEFENSIVE_WEIGHT = 0.5
_SCALE_GRID_SIZE = 12
_TRACE_SLACK = 1e-9     # relative widening of the trace prefilter (see _members)


@dataclass(frozen=True)
class McEstimate:
    """A log-domain Monte Carlo estimate with its standard error.

    ``std_error_log`` is the delta-method standard error of ``log_value``.
    ``effective_samples`` is Kish's effective sample size (sum w)^2 / sum w^2
    of the importance weights and ``max_weight_share`` the largest weight's
    share max w / sum w; a small effective sample size or a share near 1 means
    a few datasets carry the estimate and its standard error is unreliable.
    Reproducible from ``(samples, seed)``.
    """

    log_value: float
    std_error_log: float
    samples: int
    accepted: int
    seed: int
    effective_samples: float
    max_weight_share: float


def _log_proposal_mixture(mu_hat, tr_cov, n, m, mu_half, lam_grid):
    """log density of the hierarchical proposal at the sampled datasets.

    Each component draws a center uniformly from a box and the points i.i.d.
    isotropic Gaussian at one of the grid scales; integrating the center out
    leaves a closed form in the sufficient statistics (mean and total
    scatter), with normal-CDF factors for the box truncation.
    """
    from scipy.special import ndtr  # slow to import; only the oracles need it

    s = np.sqrt(lam_grid / n)
    hi = (mu_half - mu_hat[:, :, None]) / s
    lo = (-mu_half - mu_hat[:, :, None]) / s
    # (members, m, grid) and (members, grid) arrays are updated in place; each
    # step is the elementwise operation of the plain expression, in its order
    ndtr(hi, out=hi)
    hi -= ndtr(lo, out=lo)
    with np.errstate(divide="ignore"):
        log_dphi = np.log(hi, out=hi).sum(axis=1)
    log_comp = np.multiply(tr_cov[:, None], (n / (2.0 * lam_grid))[None, :])
    np.subtract((-(m * n / 2.0) * np.log(2.0 * math.pi * lam_grid))[None, :], log_comp,
                out=log_comp)
    log_comp += (m / 2.0) * np.log(2.0 * math.pi * lam_grid / n)[None, :]
    log_comp -= m * math.log(2.0 * mu_half)
    log_comp += log_dphi
    # log-sum-exp over the grid, shifted by each row's maximum; a member's
    # mean lies in the box, so every normal-CDF factor and row maximum is finite
    top = log_comp.max(axis=1)
    log_comp -= top[:, None]
    np.exp(log_comp, out=log_comp)
    return np.log(log_comp.sum(axis=1)) + top - math.log(lam_grid.size)


def _draw_chunk(rng, y, scratch, cube_half, mu_half, lam_grid):
    """Fill ``y`` (m, n, cn) with one chunk of proposal datasets.

    One binomial draw splits the chunk: each sample comes, independently,
    from a hierarchical component with probability 1 - ``_DEFENSIVE_WEIGHT``
    and from the uniform cube otherwise, so the count c of hierarchical
    samples is Binomial(cn, 1 - ``_DEFENSIVE_WEIGHT``).  The first cn - c
    samples are cube datasets and the last c are hierarchical ones: a center
    uniform in the mean box plus isotropic normals at a grid scale.  Only
    the variates a sample uses are drawn.  The estimator sums over the whole
    chunk, so the order of the samples within it does not change its law.
    The uniforms and normals pass through ``scratch`` (block, n, m)
    ``_BLOCK`` samples at a time; consecutive blocks consume the stream
    exactly as one (samples, n, m) draw would.
    """
    m, n, cn = y.shape
    split = cn - int(rng.binomial(cn, 1.0 - _DEFENSIVE_WEIGHT))
    for b in range(0, split, _BLOCK):
        # low + (high - low) * u, as rng.uniform(-cube_half, cube_half) forms it
        d = rng.random(out=scratch[:min(_BLOCK, split - b)])
        d *= 2.0 * cube_half
        d += -cube_half
        np.copyto(y[:, :, b:b + len(d)], d.T)
    scale = np.sqrt(lam_grid[rng.integers(0, lam_grid.size, cn - split)])
    mu_star = rng.uniform(-mu_half, mu_half, (m, 1, cn - split))
    for b in range(split, cn, _BLOCK):
        d = rng.standard_normal(out=scratch[:min(_BLOCK, cn - b)])
        np.copyto(y[:, :, b:b + len(d)], d.T)
    # mu_star + scale * z
    mix = y[:, :, split:]
    mix *= scale
    mix += mu_star


def _members(y: np.ndarray, spec: DomainSpec):
    """Means and ascending scatter eigenvalues of the in-domain datasets.

    ``y`` holds a chunk of datasets coordinate-major, shape (m, n, cn), so
    every reduction runs over contiguous rows of length cn; it is overwritten
    with each dataset's deviations from its mean.  Returns the members' means
    (members, m) and eigenvalues (members, m) in sample order.

    A dataset is a member when ||mean||^2 <= R and its sorted scatter
    eigenvalues satisfy eps1[j] <= lam[j] <= eps2[j].  Summing the eigenvalue
    bounds gives a necessary condition, sum eps1 <= trace <= sum eps2, and the
    trace costs one pass of squares over the buffer, so only the datasets that
    pass it and the mean test get their m x m scatter assembled and decomposed.
    The prefilter reads the trace summed from the squared deviations, while
    membership reads the eigenvalues LAPACK returns.  The two differ only by
    rounding: backward-stable eigenvalues are within O(m u) ||C|| of exact
    (u = 2^-53) and ||C|| <= trace, so their sum is within a small multiple of
    m^2 u of the trace, at most about 1e-14 relative for the m <= 3 that the
    desk-scale cap allows (1.1e-15 is the largest seen with eigenvalues placed
    on the bounds).  The trace interval is widened by ``_TRACE_SLACK`` = 1e-9
    relative, far beyond that, so the prefilter drops no member; ``eigvalsh``
    treats each matrix on its own, so the members and their eigenvalues are
    those of decomposing every dataset.
    """
    m, n = y.shape[:2]
    mu = y.mean(axis=1)
    y -= mu[:, None, :]
    scatter_trace = np.einsum("kji,kji->i", y, y)
    cand = ((mu ** 2).sum(axis=0) <= spec.R) \
        & (scatter_trace >= (1.0 - _TRACE_SLACK) * n * float(spec.eps1.sum())) \
        & (scatter_trace <= (1.0 + _TRACE_SLACK) * n * float(spec.eps2.sum()))
    d = y[:, :, cand]
    # entry (k, l) sums d[k, j] * d[l, j] over the points j in order, one
    # (m, m, candidates) product at a time
    cov = d[:, None, 0] * d[None, :, 0]
    prod = np.empty_like(cov)
    for j in range(1, n):
        cov += np.multiply(d[:, None, j], d[None, :, j], out=prod)
    cov = cov.transpose(2, 0, 1) / n
    lam = np.linalg.eigvalsh(cov)
    ok = np.ones(len(lam), dtype=bool)
    for j in range(m):
        ok &= lam[:, j] >= spec.eps1[j]
        ok &= lam[:, j] <= spec.eps2[j]
    return mu.T[cand][ok], lam[ok]


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mc_log_norm_dataspace(n: int, spec: DomainSpec, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the log restricted normalization constant.

    Samples whole datasets, evaluates the maximized likelihood on those whose
    MLEs land inside the domain, and importance-weights by the proposal
    density.  Membership implies every coordinate lies within
    sqrt(R) + sqrt(n m max(eps2)) of zero (the total scatter around the mean
    is n * trace of the covariance, at most n * sum(eps2)), which provides the
    enclosing cube.

    The one proposal is a defensive blend of the uniform cube with
    hierarchical components matched to the domain's eigenvalue range.  (Plain
    uniform sampling concentrates below the truth for larger n.)

    The datasets are drawn in chunks of ``_CHUNK`` from a stream seeded by
    (seed, chunk index).  One binomial draw splits a chunk into its cube
    datasets and its hierarchical ones, and each dataset is drawn from its
    own component only (:func:`_draw_chunk`).  The draws go through a
    (block, n, m) scratch, ``_BLOCK`` samples at a time, into a
    coordinate-major (m, n, chunk) buffer; consecutive blocks consume the
    stream as one draw would.  Membership is decided in the buffer by
    :func:`_members`: a mean and scatter-trace prefilter that is exact (it
    never rejects a member), then ``eigvalsh`` on the surviving datasets only.

    The chunks run on W = min(CPUs this process may use, chunk count)
    threads; most of a chunk's time is in numpy, scipy and LAPACK calls that
    release the interpreter lock.  Stripe w takes chunks w, w + W, ... with a
    buffer and scratch of its own; stripe 0 runs on the calling thread, so
    W = 1 starts no thread.  Each chunk returns its sum w, sum w^2, max w and
    member count, and these are reduced in chunk order, so the estimate is
    bit-identical for every W.

    Limited to n * m <= 12, at least 10^4 samples and 0 <= seed < 2^64.
    """
    seed = check_seed(seed)
    n, samples = check_index(n, "n"), check_index(samples, "samples")
    m = spec.m
    if n < m + 1:
        raise InvalidInputError(f"need n >= m + 1 = {m + 1}, got {n}")
    if n * m > _DESK_SCALE_DIMS:
        raise InvalidInputError(
            f"data-space estimate is desk-scale only: need n*m <= {_DESK_SCALE_DIMS}")
    if samples < _MIN_SAMPLES:
        raise InvalidInputError(f"need at least {_MIN_SAMPLES} samples, got {samples}")

    cube_half = math.sqrt(spec.R) + math.sqrt(n * m * float(spec.eps2.max()))
    log_vcube = m * n * math.log(2.0 * cube_half)
    mu_half = math.sqrt(spec.R)
    lam_grid = np.geomspace(0.8 * float(spec.eps1.min()),
                            1.25 * float(spec.eps2.max()), _SCALE_GRID_SIZE)
    starts = range(0, samples, _CHUNK)
    workers = min(_cpu_count(), len(starts))
    partials = [None] * len(starts)

    def stripe(first):
        buf = np.empty((m, n, min(_CHUNK, samples)))
        scratch = np.empty((min(_BLOCK, samples), n, m))
        for chunk_index in range(first, len(starts), workers):
            cn = min(_CHUNK, samples - starts[chunk_index])
            rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
            y = buf[:, :, :cn]
            _draw_chunk(rng, y, scratch, cube_half, mu_half, lam_grid)
            mu_hat, lam = _members(y, spec)
            log_f = -_neg_log_max_likelihood(n, lam)
            # a row's density depends on that row only, so blocks of members
            # bound the temporaries without changing a value
            tr_cov = lam.sum(axis=1)
            log_q_mix = np.empty(len(tr_cov))
            for b in range(0, len(tr_cov), _BLOCK):
                rows = slice(b, b + _BLOCK)
                log_q_mix[rows] = _log_proposal_mixture(mu_hat[rows], tr_cov[rows], n, m,
                                                        mu_half, lam_grid)
            # members lie inside the cube, so the uniform component is live
            log_q = np.logaddexp(math.log(_DEFENSIVE_WEIGHT) - log_vcube,
                                 math.log(1.0 - _DEFENSIVE_WEIGHT) + log_q_mix)
            w = np.exp(log_f - log_q)
            partials[chunk_index] = (float(w.sum()), float((w * w).sum()),
                                     float(w.max(initial=0.0)), w.size)

    if workers == 1:
        stripe(0)
    else:
        # imports logging, which costs CLI start-up; only this oracle needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            others = [pool.submit(stripe, first) for first in range(1, workers)]
            stripe(0)
            for future in others:
                future.result()

    sum_w = 0.0
    sum_w2 = 0.0
    max_w = 0.0
    accepted = 0
    for chunk_sum, chunk_sum2, chunk_max, chunk_accepted in partials:
        sum_w += chunk_sum
        sum_w2 += chunk_sum2
        max_w = max(max_w, chunk_max)
        accepted += chunk_accepted

    if accepted == 0:
        raise DegenerateEstimateError(
            "no sampled dataset satisfied the domain constraints; increase the "
            "sample count or widen the eigenvalue interval")
    mean = sum_w / samples
    var = max(sum_w2 - samples * mean * mean, 0.0) / (samples - 1)
    std_error = math.sqrt(var / samples)
    return McEstimate(log_value=math.log(mean), std_error_log=std_error / mean,
                      samples=int(samples), accepted=accepted, seed=seed,
                      effective_samples=sum_w * sum_w / sum_w2,
                      max_weight_share=max_w / sum_w)


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
    log_coeff = _log_size_factor(1, n) - 0.5 * math.log(math.pi)
    with np.errstate(divide="ignore"):
        return float(np.log(lam_integral) + np.log(mu_integral) + log_coeff)


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
    from scipy.special import logsumexp  # slow to import; only the oracles need it

    log_t = _log_cluster_terms(n, spec)
    terms = np.empty(n_comps)
    # stars and bars: k - 1 cuts among n + k - 1 slots give k ordered parts
    for i, cuts in enumerate(itertools.combinations(range(n + k - 1), k - 1)):
        parts = np.diff((-1, *cuts, n + k - 1)) - 1
        lw = log_gamma(n + 1) - sum(log_gamma(h + 1) for h in parts)
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

    Replication r takes the r-th run of n points from one ``genlog_sample``
    stream of ``seed`` and records sum_i log(1 + e^(-x_i)).  ``null_scale``
    overrides the gamma scale of the null hypothesis, which lets callers
    demonstrate that a wrong null is rejected.  Passing means the p-value is
    at or above ``level``.
    """
    n, replications = check_index(n, "n"), check_index(replications, "replications")
    if replications < 100:
        raise InvalidInputError(f"need at least 100 replications, got {replications}")
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0):
        raise InvalidInputError(f"theta must be positive, got {theta}")
    scale = 1.0 / theta if null_scale is None else float(null_scale)
    x = genlog_sample(replications * n, theta, seed).reshape(replications, n)
    stats_arr = _log1p_exp_neg(x).sum(axis=1)
    from scipy import stats as spstats  # slow to import; only this check needs it

    res = spstats.kstest(stats_arr, "gamma", args=(n, 0.0, scale))
    return GammaKsReport(statistic=float(res.statistic), pvalue=float(res.pvalue),
                         passed=bool(res.pvalue >= level), level=level,
                         replications=int(replications), n=int(n), theta=theta,
                         seed=int(seed))
