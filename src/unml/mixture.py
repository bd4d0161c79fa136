"""Complete-data mixture code lengths, hard-assignment clustering, K selection.

The selection criterion for K clusters is the complete-data code length: the
negative log of the maximized joint likelihood of data and labels, plus the
log of a normalization constant that sums the per-assignment normalization
bounds over every way of splitting n points into K clusters.  Because the
label sequence is explicit, clustering is hard-assignment (classification EM):
each point goes to the cluster that minimizes its contribution to the
complete-data term, and per-cluster MLEs are refit until the term stops
improving.

Scale conversion of the data shifts the complete-data term of every assignment
by the same amount, so differences between candidate models, and therefore the
selected K, do not depend on the scale at which the data is encoded.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleKError,
    InvalidAssignmentError,
    InvalidInputError,
    SingularCovarianceError,
)
from .gaussian import _neg_log_max_likelihood, log_norm_bound
from .stats import (
    Dataset,
    DomainSpec,
    check_index,
    check_seed,
    choose_scale,
    compute_mle,
    log_gamma,
    scale_dataset,
    segment_moments,
    xlogy,
)

_LOG_2PI = math.log(2.0 * math.pi)
_CONVERGENCE_TOL = 1e-9
_MAX_ROUNDS = 500
_MAX_REPAIRS = 10
_TABLE_BLOCK = 1 << 15
_RESTART_BLOCK = 1 << 17
# select's eigenvalue floor, fixed before any fit: choose_scale brings the pooled
# variance to at most eps2 = 0.25, so it admits cluster standard deviations
# down to 1/500 of the pooled scale
DEFAULT_EPS1 = 1e-6


@dataclass(frozen=True, eq=False)
class Assignment:
    """A hard assignment of n observations to k clusters.

    Labels take values in 1..k.  ``counts[i]``, derived from the labels, is the
    size of cluster i + 1.
    Serializes as a plain integer array.
    """

    labels: np.ndarray
    k: int
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.size < 1:
            raise InvalidAssignmentError("labels must be a non-empty 1-D integer sequence")
        k = int(self.k)
        if k < 1:
            raise InvalidAssignmentError(f"k must be >= 1, got {k}")
        if labels.min() < 1 or labels.max() > k:
            raise InvalidAssignmentError(f"labels must lie in 1..{k}")
        counts = np.bincount(labels - 1, minlength=k)
        labels = labels.copy()
        labels.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class KEntry:
    """Per-K evaluation: the two code-length terms and the assignment used."""

    k: int
    data_term: float
    log_norm: float
    total: float
    assignment: Assignment


@dataclass(frozen=True)
class SkippedK:
    k: int
    reason: str


@dataclass(frozen=True, eq=False)
class ModelSelectionReport:
    """Outcome of K selection: per-K entries, the argmin, and run parameters."""

    entries: tuple[KEntry, ...]
    skipped: tuple[SkippedK, ...]
    selected_k: int
    alpha: float
    seed: int
    restarts: int
    spec: DomainSpec


@dataclass(frozen=True, eq=False)
class ClusterFit:
    """A clustering and its complete-data term.

    ``rounds`` counts the descent's rounds (assignment + refit); a last round
    whose labels repeat the previous ones is counted without its refit, which
    would reproduce the same objective.  ``converged`` is False when the
    descent stopped at its round cap instead of at the convergence tolerance.
    """

    assignment: Assignment
    data_term: float
    rounds: int
    converged: bool


def _data_term(counts: np.ndarray, eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """The complete-data term from cluster sizes (..., k) and eigenvalues
    (..., k, m), summed over the clusters of each leading index."""
    h = counts.astype(float)
    terms = -xlogy(h, h / n) + _neg_log_max_likelihood(h, eigenvalues)
    return terms.sum(axis=-1)


def complete_data_term(data: Dataset, z: Assignment) -> float:
    """Negative log of the maximized complete-data likelihood, in nats.

    Expands to  sum_k [ -h_k log(h_k / n) + (m h_k / 2) log(2 pi e)
    + (h_k / 2) sum_j log lam_j^(k) ]  over the non-empty clusters.  Every
    non-empty cluster needs at least m + 1 points for its MLE to exist and a
    non-singular within-cluster covariance.
    """
    if z.n != data.n:
        raise InvalidAssignmentError(
            f"assignment covers {z.n} observations, dataset has {data.n}")
    m = data.m
    eigenvalues = np.ones((z.k, m))  # an empty cluster adds log 1 = 0
    for k in range(z.k):
        h = int(z.counts[k])
        if h == 0:
            continue
        if h < m + 1:
            raise InvalidAssignmentError(
                f"cluster {k + 1} has {h} points; non-empty clusters need >= {m + 1}")
        eigenvalues[k] = compute_mle(Dataset(data.rows[z.labels == k + 1])).eigenvalues
        if eigenvalues[k, 0] <= 0.0:
            raise SingularCovarianceError(f"cluster {k + 1} has singular covariance")
    return float(_data_term(z.counts, eigenvalues, data.n))


def codelength_difference(data: Dataset, z1: Assignment, z2: Assignment) -> float:
    """Difference of complete-data terms between two assignments.

    Invariant under scaling of the data: the scale contribution is
    n * m * log(alpha) for every assignment, so it cancels.
    """
    return complete_data_term(data, z1) - complete_data_term(data, z2)


def _log_cluster_terms(n: int, spec: DomainSpec) -> np.ndarray:
    """log of the per-cluster normalization factor for each cluster size 0..n.

    Size 0 contributes a factor 1.  Sizes 1..m are excluded (factor 0): the
    MLE does not exist there, so those assignments carry no normalization
    mass.  Sizes >= m + 1 contribute the single-Gaussian bound.
    """
    m = spec.m
    out = np.full(n + 1, -np.inf)
    out[0] = 0.0
    if n >= m + 1:
        sizes = np.arange(m + 1, n + 1)
        out[m + 1:] = log_norm_bound(sizes, spec)
    return out


def _mixture_norm_table(k_max: int, n: int, spec: DomainSpec) -> np.ndarray:
    """DP table of log normalization constants, rows k = 1..k_max, columns 0..n.

    Row k is the convolution of row k - 1 with the per-cluster terms under
    multinomial weights:

        C_k(n) = sum_{s=0}^{n} binom(n, s) (s/n)^s ((n-s)/n)^(n-s)
                 * C_{k-1}(s) * T(n - s),

    with the 0^0 = 1 convention, base case C_1 = T.  The log weight factors
    as G(n) + a(s) + a(n - s) with a(s) = s log s - log s! and
    G(n) = log n! - n log n = -a(n), so E_k = a + log C_k obeys the plain
    log-domain convolution

        E_k(n) = logsumexp_s [E_{k-1}(s) + E_1(n - s)],   log C_k = E_k - a.

    Each entry is one log-sum-exp shifted by its own maximum, as in the
    direct recurrence; the entries are evaluated a block of n values at a
    time (at most _TABLE_BLOCK elements, 256 KB, per block).  Each block is
    a contiguous prefix of one buffer allocated per call, so the blocks do
    not each map fresh pages.  A float64 convolution of the exponentiated
    rows would be faster but is not exact: one scale for a whole row cannot
    cover its dynamic range, which grows with m and k (C_8(300) is off by
    2e-4 relative at m = 22 and inner entries by far more).  Runs in
    O(k n^2).
    """
    if k_max < 1 or n < 0:
        raise InvalidInputError(f"need k >= 1 and n >= 0, got k={k_max}, n={n}")
    sizes = np.arange(n + 1)
    a = xlogy(sizes, sizes) - log_gamma(sizes + 1)
    log_t = _log_cluster_terms(n, spec)
    table = np.empty((k_max, n + 1))
    table[0] = a + log_t
    # toeplitz[j, s] = E_1(j - s), -inf for s > j.
    padded = np.concatenate([table[0, ::-1], np.full(n, -np.inf)])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1]
    rows = max(1, _TABLE_BLOCK // (n + 1))
    buf = np.empty(min(rows, n + 1) * (n + 1))
    for k in range(1, k_max):
        for lo in range(0, n + 1, rows):
            hi = min(lo + rows, n + 1)
            block = buf[:(hi - lo) * hi].reshape(hi - lo, hi)
            np.add(table[k - 1, :hi], toeplitz[lo:hi, :hi], out=block)
            shift = block.max(axis=1)
            shift[shift == -np.inf] = 0.0
            block -= shift[:, None]
            np.exp(block, out=block)
            with np.errstate(divide="ignore"):
                table[k, lo:hi] = shift + np.log(block.sum(axis=1))
    table -= a
    table[0] = log_t
    return table


def log_mixture_norm(k: int, n: int, spec: DomainSpec) -> float:
    """log of the mixture normalization constant for k clusters and n points.

    Monotone non-decreasing in k (an empty extra cluster reproduces every
    k - 1 term).  Equals the single-Gaussian bound exactly at k = 1.
    """
    return float(_mixture_norm_table(k, n, spec)[k - 1, n])


def _child_seed(seed: int, *key: int) -> int:
    """Deterministic derived seed for a sub-task."""
    ss = np.random.SeedSequence([check_seed(seed), *[int(x) for x in key]])
    return int(ss.generate_state(1, np.uint64)[0])


def _sq_dists(xt: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (..., n) from each center (..., m) to the points
    (m, n), added coordinate by coordinate as ``stats._sum_squares`` does."""
    out = xt[0] - centers[..., :1]
    np.square(out, out=out)
    for j in range(1, xt.shape[0]):
        out += np.square(xt[j] - centers[..., j:j + 1])
    return out


def _seeded_centers(xt: np.ndarray, k: int, seeds: list) -> np.ndarray:
    """k-means++ style initial centers (r, k, m) of the points (m, n), one row
    per seed.

    Each seed's generator draws a first point index uniformly, then each next
    one with probability proportional to the squared distance to the nearest
    chosen point, the draw ``rng.choice(n, p=d2 / d2.sum())`` makes; the
    distance ratios are unchanged when the data is rescaled.
    """
    n = xt.shape[1]
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    idx = np.empty((len(seeds), k), dtype=int)
    idx[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = _sq_dists(xt, xt[:, idx[:, 0]].T)
    for j in range(1, k):
        total = d2.sum(axis=1)
        pos = np.flatnonzero(total > 0)
        cdf = (d2[pos] / total[pos, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # a point index where all distances are 0, else a uniform u for the cdf
        draws = np.array([rng.random() if t > 0 else rng.integers(n)
                          for rng, t in zip(rngs, total)])
        idx[:, j] = draws
        # the number of cdf entries <= u is cdf.searchsorted(u, side="right")
        idx[pos, j] = (cdf <= draws[pos, None]).sum(axis=1)
        d2 = np.minimum(d2, _sq_dists(xt, xt[:, idx[:, j]].T))
    return xt.T[idx]


def _fit_clusters(x: np.ndarray, labels: np.ndarray, counts: np.ndarray
                  ) -> tuple[np.ndarray, ...]:
    """Means (r, k, m), eigenvalues (r, k, m) and eigenbases (r, k, m, m) of
    the 1/h scatter of every cluster of r label rows (r, n).

    ``counts`` (r, k) holds the cluster sizes; every cluster needs at least
    two points.  One stable sort makes each (label row, cluster) a contiguous
    segment of rows in data order for ``segment_moments``, so a cluster's
    statistics do not depend on the other label rows refitted with it.
    Eigenvalues at the rounding level are 0 and eigenvector signs are not
    fixed: the descent only uses squared projections.
    """
    r, n = labels.shape
    k, m = counts.shape[1], x.shape[1]
    key = (labels + k * np.arange(r)[:, None]).astype(np.min_scalar_type(r * k - 1))
    order = np.argsort(key.ravel(), kind="stable")  # a radix sort for small keys
    sizes = counts.ravel()
    means, _, vals, vecs = segment_moments(np.take(x, order % n, axis=0),
                                           np.cumsum(sizes) - sizes, sizes)
    return means.reshape(r, k, m), vals.reshape(r, k, m), vecs.reshape(r, k, m, m)


def _costs(xt: np.ndarray, counts: np.ndarray, means: np.ndarray, eigvals: np.ndarray,
           bases: np.ndarray) -> np.ndarray:
    """Per-cluster, per-point contribution to the complete-data term, (r, k, n),
    of the points (m, n).

    With the whitened bases W = bases / sqrt(lam), the Mahalanobis term of
    point x in a cluster is |W^T x - W^T mean|^2.
    """
    m, n = xt.shape
    whitened = bases / np.sqrt(eigvals)[..., None, :]
    y = whitened.swapaxes(-1, -2) @ xt
    y -= (means[..., None, :] @ whitened).swapaxes(-1, -2)
    np.square(y, out=y)
    out = y[..., 0, :]  # the Mahalanobis terms, added coordinate by coordinate
    for j in range(1, m):
        out += y[..., j, :]
    out *= 0.5
    out += (-np.log(counts / n) + 0.5 * np.log(eigvals).sum(axis=-1)
            + 0.5 * m * _LOG_2PI)[..., None]
    return out


def _donate(x: np.ndarray, labels: np.ndarray, target: int, center: np.ndarray,
            counts: np.ndarray, min_size: int) -> None:
    """Move the point nearest ``center`` from the largest other cluster into
    ``target``, updating ``labels`` and ``counts`` in place.

    The donor must keep at least ``min_size`` points; SingularCovarianceError
    is raised when no cluster can give one (always the case for k = 1).
    """
    others = np.where(np.arange(len(counts)) == target, -1, counts)
    donor = int(np.argmax(others))
    if others[donor] <= min_size:
        raise SingularCovarianceError(
            f"cluster {target + 1} has singular covariance and no donor points remain")
    cand = np.nonzero(labels == donor)[0]
    d2 = ((x[cand] - center) ** 2).sum(axis=1)
    labels[cand[int(np.argmin(d2))]] = target
    counts[donor] -= 1
    counts[target] += 1


def cluster(data: Dataset, k: int, seed: int) -> Assignment:
    """Hard-assignment clustering of the data into exactly k clusters.

    Deterministic given ``(data, k, seed)``.  Initial centers come from seeded
    index draws over the data rows, so rescaled data yields the same initial
    indices; the descent alternates assignment and per-cluster refits and
    stops when the complete-data term improves by less than 1e-9 nats or after
    500 rounds.  Every cluster in the result has at least m + 1 points and a
    non-singular covariance: before each refit an undersized cluster, and
    after it a singular one, takes the point nearest its mean from the largest
    other cluster.  A covariance eigenvalue at or below the cluster's
    float64 rounding bound counts as singular (see
    ``stats.segment_moments``).  SingularCovarianceError is raised when no
    other cluster can spare a point or after 10 singular repairs in one
    descent.  InvalidInputError is raised for k < 1 and InfeasibleKError
    when n < k (m + 1).

    This is the one-seed case of the descent that ``best_clustering`` runs
    for all its restarts at once; both give the same result for a seed.
    """
    fit, = _descend_restarts(data, k, [check_seed(seed)])
    if isinstance(fit, SingularCovarianceError):
        raise fit
    return fit.assignment


def _descend_restarts(data: Dataset, k: int, seeds: Iterable[int]) -> list:
    """One descent per seed, run together; a ClusterFit or the
    SingularCovarianceError that ended it, per seed in order.

    Only this function checks k >= 1 and n >= k (m + 1); ``seeds`` is read
    after those checks, so a caller may derive the seeds lazily.

    Restarts run in blocks of at most ``_RESTART_BLOCK`` // (n m (k + m))
    seeds, so the temporaries (O(k n m) for the costs and O(n m^2) for the
    moments, per restart) stay O(_RESTART_BLOCK) elements.  Every step of a
    restart is computed as it would be alone, so neither the block size nor
    the other seeds change its result.
    """
    n, m = data.n, data.m
    k = check_index(k, "k")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if n < k * (m + 1):
        raise InfeasibleKError(f"needs at least {k * (m + 1)} observations, have {n}")
    seeds = list(seeds)
    per_block = max(1, _RESTART_BLOCK // (n * m * (k + m)))
    results = []
    for lo in range(0, len(seeds), per_block):
        results += _descend_block(data.rows, k, seeds[lo:lo + per_block])
    return results


def _descend_block(x: np.ndarray, k: int, seeds: list) -> list:
    # the descents of _descend_restarts for one block of seeds; row i of the
    # working arrays is restart active[i], and a restart leaves them when it
    # converges or fails
    n, m = x.shape
    min_size = m + 1
    xt = np.ascontiguousarray(x.T)  # the per-point kernels run along n
    means = _seeded_centers(xt, k, seeds)
    labels = np.argmin(_sq_dists(xt, means), axis=1)
    results = [None] * len(seeds)
    best_obj = np.full(len(seeds), math.inf)
    best_labels = np.empty((len(seeds), n), dtype=int)
    prev_obj = np.full(len(seeds), math.inf)
    rounds = np.zeros(len(seeds), dtype=int)
    converged = np.zeros(len(seeds), dtype=bool)
    repairs = np.zeros(len(seeds), dtype=int)
    active = np.arange(len(seeds))
    for rnd in range(_MAX_ROUNDS):
        rounds[active] += 1
        counts = np.bincount((labels + k * np.arange(len(active))[:, None]).ravel(),
                             minlength=len(active) * k).reshape(-1, k)
        for i, j in zip(*np.nonzero(counts < min_size)):
            while counts[i, j] < min_size:  # a donor exists since n >= k * min_size
                _donate(x, labels[i], j, means[i, j], counts[i], min_size)
        means, lam, bases = _fit_clusters(x, labels, counts)
        ok = np.ones(len(active), dtype=bool)
        for i in np.flatnonzero((lam[:, :, 0] <= 0.0).any(axis=1)):
            try:
                while (singular := np.flatnonzero(lam[i, :, 0] <= 0.0)).size:
                    repairs[active[i]] += 1
                    if repairs[active[i]] > _MAX_REPAIRS:
                        raise SingularCovarianceError(
                            f"cluster {singular[0] + 1} stayed singular after "
                            f"{_MAX_REPAIRS} repair attempts")
                    _donate(x, labels[i], singular[0], means[i, singular[0]], counts[i],
                            min_size)
                    refit = _fit_clusters(x, labels[i:i + 1], counts[i:i + 1])
                    means[i], lam[i], bases[i] = (part[0] for part in refit)
            except SingularCovarianceError as exc:
                results[active[i]] = exc
                ok[i] = False
        if not ok.all():
            active, labels, counts, means, lam, bases = (
                part[ok] for part in (active, labels, counts, means, lam, bases))
        obj = _data_term(counts, lam, n)
        better = obj < best_obj[active]
        best_obj[active[better]] = obj[better]
        best_labels[active[better]] = labels[better]
        done = prev_obj[active] - obj < _CONVERGENCE_TOL
        converged[active[done]] = True
        prev_obj[active] = obj
        active, labels, counts, means, lam, bases = (
            part[~done] for part in (active, labels, counts, means, lam, bases))
        if not active.size or rnd + 1 == _MAX_ROUNDS:
            break
        new = np.argmin(_costs(xt, counts, means, lam, bases), axis=1)
        # labels that repeat would be refitted to the same clusters and the
        # same objective next round: that round is counted, not run
        same = (new == labels).all(axis=1)
        rounds[active[same]] += 1
        converged[active[same]] = True
        active, labels, means = active[~same], new[~same], means[~same]
        if not active.size:
            break
    for r, result in enumerate(results):
        if result is None:
            results[r] = ClusterFit(Assignment(labels=best_labels[r] + 1, k=k),
                                    float(best_obj[r]), int(rounds[r]), bool(converged[r]))
    return results


def best_clustering(data: Dataset, k: int, seed: int, restarts: int = 8) -> Assignment:
    """Best of ``restarts`` seeded clusterings, judged by the complete-data term.

    Restart seeds derive deterministically from the master seed.  All
    restarts run as one descent on a leading restart axis, and each restart's
    result equals that of ``cluster`` with its seed; the best is taken in
    restart order, so ties keep the earliest restart.  A restart whose
    descent raises SingularCovarianceError is skipped; the first restart's
    error is raised only when every restart fails.
    """
    return _best_fit(data, k, seed, restarts).assignment


def _best_fit(data: Dataset, k: int, seed: int, restarts: int) -> ClusterFit:
    restarts = check_index(restarts, "restarts")
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    # k = 1 has a single clustering; the seeds derive once k has been checked
    seeds = (_child_seed(seed, k, r) for r in range(restarts) if r == 0 or k > 1)
    results = _descend_restarts(data, k, seeds)
    fits = [fit for fit in results if isinstance(fit, ClusterFit)]
    if not fits:
        raise results[0]
    return min(fits, key=lambda fit: fit.data_term)  # ties keep the earliest restart


def fit_k_range(data: Dataset, k_range, seed: int, restarts: int = 8
                ) -> tuple[list[ClusterFit], list[SkippedK]]:
    """Best-of-restarts fit for each candidate K, in increasing K.

    A K the descent cannot fit is recorded as skipped with the descent's
    message: n < k (m + 1) (InfeasibleKError), or every restart ending in a
    singular covariance (SingularCovarianceError).  When no K fits, the
    smallest K's error is raised.
    """
    ks = sorted(set(check_index(k, "k") for k in k_range))
    if not ks:
        raise InvalidInputError("k_range is empty")
    fits, skipped, errors = [], [], []
    for k in ks:
        try:
            fits.append(_best_fit(data, k, seed, restarts))
        except (InfeasibleKError, SingularCovarianceError) as exc:
            skipped.append(SkippedK(k=k, reason=str(exc)))
            errors.append(exc)
    if not fits:
        raise errors[0]
    return fits, skipped


def build_report(fits: list[ClusterFit], skipped: list[SkippedK], spec: DomainSpec,
                 seed: int, restarts: int, alpha: float = 1.0) -> ModelSelectionReport:
    """Assemble per-K totals and the argmin from already-fitted clusterings.

    Ties in the total break toward smaller K.
    """
    if not fits:
        raise InfeasibleKError("no feasible cluster count was evaluated")
    n = fits[0].assignment.n
    table = _mixture_norm_table(max(fit.assignment.k for fit in fits), n, spec)
    entries = []
    for fit in sorted(fits, key=lambda fit: fit.assignment.k):
        z = fit.assignment
        log_norm = float(table[z.k - 1, n])
        entries.append(KEntry(k=z.k, data_term=fit.data_term, log_norm=log_norm,
                              total=fit.data_term + log_norm, assignment=z))
    totals = [e.total for e in entries]
    selected = entries[int(np.argmin(totals))].k
    return ModelSelectionReport(entries=tuple(entries), skipped=tuple(skipped),
                                selected_k=selected, alpha=float(alpha),
                                seed=int(seed), restarts=int(restarts), spec=spec)


def select(data: Dataset, k_range, seed: int, restarts: int = 8, *, R: float = 1.0,
           eps2: float = 0.25, eps1: float = DEFAULT_EPS1,
           margin: float = 1.05) -> ModelSelectionReport:
    """Select the number of clusters of raw data over candidate K values.

    The domain (``R``, ``eps1``, ``eps2``) is fixed before the data is read.
    The data is divided by ``choose_scale``'s alpha for its upper bounds,
    ``fit_k_range`` fits every K on the scaled data, and ``build_report``
    prices the fits on the domain.  A K that cannot be fitted is left out of
    the argmin and listed in the report's ``skipped`` with the reason; the
    call fails only when no K fits, with the smallest K's error.  The report
    records the alpha and the spec applied.  ``unml select`` is this function.
    """
    # the seed and the whole domain are checked before any fitting
    check_seed(seed)
    spec = DomainSpec.uniform(data.m, R=R, eps1=eps1, eps2=eps2)
    alpha = choose_scale(data, spec, margin)
    fits, skipped = fit_k_range(scale_dataset(data, alpha), k_range, seed, restarts)
    return build_report(fits, skipped, spec, seed, restarts, alpha)
