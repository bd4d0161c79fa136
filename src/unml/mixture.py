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
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import (
    InfeasibleKError,
    InvalidAssignmentError,
    InvalidInputError,
    SingularCovarianceError,
)
from .gaussian import _LOG_2PI_E, log_norm_bound
from .stats import Dataset, DomainSpec, compute_mle

_LOG_2PI = math.log(2.0 * math.pi)
_CONVERGENCE_TOL = 1e-9
_MAX_ROUNDS = 500
_MAX_REPAIRS = 10
_TABLE_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class Assignment:
    """A hard assignment of n observations to k clusters.

    Labels take values in 1..k.  ``counts[i]`` is the size of cluster i + 1.
    Serializes as a plain integer array.
    """

    labels: np.ndarray
    k: int
    counts: np.ndarray = None

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
        if self.counts is not None:
            given = np.asarray(self.counts, dtype=int)
            if given.shape != (k,) or np.any(given != counts):
                raise InvalidAssignmentError("counts inconsistent with labels")
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
    """A clustering, its complete-data term and its smallest cluster eigenvalue."""

    assignment: Assignment
    data_term: float
    min_eigenvalue: float


def _data_term(counts: np.ndarray, eigenvalues: np.ndarray, n: int) -> float:
    """The complete-data term from cluster sizes and eigenvalues (one row each)."""
    m = eigenvalues.shape[1]
    total = 0.0
    for h, lam in zip(counts.tolist(), eigenvalues):
        if h:
            total += -h * math.log(h / n) + (m * h / 2.0 * _LOG_2PI_E
                                             + h / 2.0 * float(np.log(lam).sum()))
    return total


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
    eigenvalues = np.ones((z.k, m))
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
    return _data_term(z.counts, eigenvalues, data.n)


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
    time (at most _TABLE_BLOCK elements, 256 KB, per block).  A float64 convolution of the
    exponentiated rows would be faster but is not exact: one scale for a whole
    row cannot cover its dynamic range, which grows with m and k (C_8(300) is
    off by 2e-4 relative at m = 22 and inner entries by far more).  Runs in
    O(k n^2).
    """
    if k_max < 1 or n < 0:
        raise InvalidInputError(f"need k >= 1 and n >= 0, got k={k_max}, n={n}")
    sizes = np.arange(n + 1)
    a = xlogy(sizes, sizes) - gammaln(sizes + 1)
    log_t = _log_cluster_terms(n, spec)
    table = np.empty((k_max, n + 1))
    table[0] = a + log_t
    # toeplitz[j, s] = E_1(j - s), -inf for s > j.
    padded = np.concatenate([table[0, ::-1], np.full(n, -np.inf)])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1]
    rows = max(1, _TABLE_BLOCK // (n + 1))
    for k in range(1, k_max):
        for lo in range(0, n + 1, rows):
            hi = min(lo + rows, n + 1)
            block = table[k - 1, :hi] + toeplitz[lo:hi, :hi]
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
    ss = np.random.SeedSequence([int(seed), *[int(x) for x in key]])
    return int(ss.generate_state(1, np.uint64)[0])


def _seeded_center_indices(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # k-means++ style: seeded index draws weighted by squared distance ratios,
    # which are unchanged when the data is rescaled
    n = x.shape[0]
    idx = [int(rng.integers(n))]
    d2 = ((x - x[idx[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            cand = int(rng.integers(n))
        else:
            cand = int(rng.choice(n, p=d2 / total))
        idx.append(cand)
        d2 = np.minimum(d2, ((x - x[cand]) ** 2).sum(axis=1))
    return np.asarray(idx)


def _fit_clusters(x: np.ndarray, labels: np.ndarray, counts: np.ndarray
                  ) -> tuple[np.ndarray, ...]:
    """Means and clipped eigensystems of the 1/h scatter of each cluster.

    ``counts`` holds the cluster sizes; every cluster needs at least two
    points.  The eigenvector signs are not fixed: the descent only uses
    squared projections.
    """
    k, m = len(counts), x.shape[1]
    means = np.empty((k, m))
    scatter = np.empty((k, m, m))
    for j in range(k):
        xj = x[labels == j]
        means[j] = xj.mean(axis=0)
        dev = xj - means[j]
        scatter[j] = dev.T @ dev / counts[j]
    vals, vecs = np.linalg.eigh((scatter + scatter.transpose(0, 2, 1)) / 2.0)
    return means, np.maximum(vals, 0.0), vecs  # a scatter matrix is PSD


def _costs(x: np.ndarray, counts: np.ndarray, means: np.ndarray, eigvals: np.ndarray,
           bases: np.ndarray) -> np.ndarray:
    """Per-point, per-cluster contribution to the complete-data term."""
    n, m = x.shape
    out = np.empty((n, len(counts)))
    for j in range(len(counts)):
        proj = (x - means[j]) @ bases[j]
        mahal = (proj ** 2 / eigvals[j]).sum(axis=1)
        out[:, j] = (-math.log(counts[j] / n)
                     + 0.5 * float(np.log(eigvals[j]).sum())
                     + 0.5 * m * _LOG_2PI + 0.5 * mahal)
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


def cluster(data: Dataset, k: int, spec: DomainSpec, seed: int) -> Assignment:
    """Hard-assignment clustering of the data into exactly k clusters.

    Deterministic given ``(data, k, seed)``.  Initial centers come from seeded
    index draws over the data rows, so rescaled data yields the same initial
    indices; the descent alternates assignment and per-cluster refits and
    stops when the complete-data term improves by less than 1e-9 nats or after
    500 rounds.  Every cluster in the result has at least m + 1 points and a
    non-singular covariance: before each refit an undersized cluster, and
    after it a singular one, takes the point nearest its mean from the largest
    other cluster.  SingularCovarianceError is raised when no other cluster can
    spare a point or after 10 singular repairs in one descent.

    The domain parameters do not steer the search; the argument is validated
    for dimension so one configuration can be threaded through a whole run.
    """
    return _descend(data, k, spec, seed).assignment


def _descend(data: Dataset, k: int, spec: DomainSpec, seed: int) -> ClusterFit:
    # the descent behind cluster(); returns its best round
    n, m = data.n, data.m
    if spec.m != m:
        raise InvalidInputError(f"dimension mismatch: data m={m}, spec m={spec.m}")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    min_size = m + 1
    if n < k * min_size:
        raise InfeasibleKError(
            f"k={k} needs at least k*(m+1) = {k * min_size} observations, got {n}")
    x = data.rows
    rng = np.random.default_rng(int(seed))
    means = x[_seeded_center_indices(x, k, rng)]
    labels = np.argmin(((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1)

    repairs = 0
    best = None
    prev_obj = math.inf
    for _ in range(_MAX_ROUNDS):
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            while counts[j] < min_size:  # a donor exists since n >= k * min_size
                _donate(x, labels, j, means[j], counts, min_size)
        means, lam, bases = _fit_clusters(x, labels, counts)
        while (singular := np.flatnonzero(lam[:, 0] <= 0.0)).size:
            repairs += 1
            if repairs > _MAX_REPAIRS:
                raise SingularCovarianceError(
                    f"cluster {singular[0] + 1} stayed singular after "
                    f"{_MAX_REPAIRS} repair attempts")
            _donate(x, labels, singular[0], means[singular[0]], counts, min_size)
            means, lam, bases = _fit_clusters(x, labels, counts)
        obj = _data_term(counts, lam, n)
        if best is None or obj < best[0]:
            best = obj, labels, lam  # no copy: labels is replaced before it next changes
        if prev_obj - obj < _CONVERGENCE_TOL:
            break
        prev_obj = obj
        labels = np.argmin(_costs(x, counts, means, lam, bases), axis=1)
    obj, labels, lam = best
    return ClusterFit(Assignment(labels=labels + 1, k=k), obj, float(lam[:, 0].min()))


def best_clustering(data: Dataset, k: int, spec: DomainSpec, seed: int,
                    restarts: int = 8) -> Assignment:
    """Best of ``restarts`` seeded clusterings, judged by the complete-data term.

    Restart seeds derive deterministically from the master seed and are
    reduced in fixed order, so the result does not depend on how restarts
    might be scheduled.  A restart whose descent raises
    SingularCovarianceError is skipped; the first restart's error is raised
    only when every restart fails.
    """
    return _best_fit(data, k, spec, seed, restarts).assignment


def _best_fit(data: Dataset, k: int, spec: DomainSpec, seed: int,
              restarts: int) -> ClusterFit:
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    fits, errors = [], []
    for r in range(restarts if k > 1 else 1):  # k = 1 has a single clustering
        try:
            fits.append(_descend(data, k, spec, _child_seed(seed, k, r)))
        except SingularCovarianceError as exc:
            errors.append(exc)
    if not fits:
        raise errors[0]
    return min(fits, key=lambda fit: fit.data_term)  # ties keep the earliest restart


def fit_k_range(data: Dataset, k_range, spec: DomainSpec, seed: int, restarts: int = 8
                ) -> tuple[list[ClusterFit], list[SkippedK]]:
    """Best-of-restarts fit for each candidate K, in increasing K.

    Infeasible K values (n < k (m + 1)) are recorded as skipped.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise InvalidInputError("k_range is empty")
    min_size = data.m + 1
    fits, skipped = [], []
    for k in ks:
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        if data.n < k * min_size:
            skipped.append(SkippedK(
                k=k, reason=f"needs at least {k * min_size} observations, have {data.n}"))
            continue
        fits.append(_best_fit(data, k, spec, seed, restarts))
    return fits, skipped


def derive_eps1(fits: list[ClusterFit], eps2: float) -> float:
    """Eigenvalue floor for a run: its smallest cluster eigenvalue / 10,
    floored at 1e-8 and capped at ``eps2``."""
    smallest = min((fit.min_eigenvalue for fit in fits), default=math.inf)
    return min(max(smallest / 10.0, 1e-8), eps2)


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


def select_k(data: Dataset, k_range, spec: DomainSpec, seed: int,
             restarts: int = 8, alpha: float = 1.0) -> ModelSelectionReport:
    """Select the number of clusters over an iterable of candidate K values.

    Each feasible K gets a best-of-restarts clustering; its total is the
    complete-data term plus the mixture normalization bound.  Infeasible K
    values (n < k (m + 1)) are recorded as skipped.  The data is assumed to
    be scaled into the domain already; ``alpha`` is carried into the report
    for provenance.
    """
    fits, skipped = fit_k_range(data, k_range, spec, seed, restarts)
    return build_report(fits, skipped, spec, seed, restarts, alpha)
