"""Sufficient statistics, eigendecomposition, restricted-domain membership, scaling.

The restricted domain constrains the maximum-likelihood estimates of a dataset:
the squared norm of the mean must not exceed ``R`` and every eigenvalue of the
covariance must lie inside a per-coordinate interval ``[eps1[j], eps2[j]]`` with
``eps2[j] < 1``.  Everything downstream (code lengths, bounds, model selection)
is phrased in terms of these statistics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError

_SYMMETRY_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable n x m matrix of observations, one row per observation.

    A 1-D input is treated as a column of scalar observations (m = 1).
    """

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise InvalidInputError(f"rows must be 1- or 2-dimensional, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError(f"dataset must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("dataset contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def m(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class GaussianMle:
    """Maximum-likelihood estimates of a Gaussian: mean, covariance, eigensystem.

    The covariance uses the 1/n normalization.  Eigenvalues are ascending and
    non-negative; the eigenbasis is orthonormal with a fixed sign convention
    (largest-magnitude entry of each eigenvector is non-negative) so results
    are deterministic.
    """

    mean: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenbasis, dtype=float)
        m = mean.shape[0]
        if cov.shape != (m, m) or vals.shape != (m,) or vecs.shape != (m, m):
            raise InvalidInputError("inconsistent shapes for Gaussian MLE fields")
        if np.any(np.diff(vals) < -1e-12):
            raise InvalidInputError("eigenvalues must be sorted ascending")
        for name, arr in (("mean", mean), ("covariance", cov),
                          ("eigenvalues", vals), ("eigenbasis", vecs)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.mean.shape[0]


def log_gamma(x):
    """log |Gamma(x)|, elementwise for an array ``x``, a float for a scalar.

    Each value is :func:`math.lgamma` (within 1e-14 relative of scipy's
    ``gammaln`` on the integers and half-integers up to 1e6), evaluated once
    per distinct argument: a sweep of :func:`log_multivariate_gamma` over
    sizes s asks for the half-integers (s - j)/2, j = 1..m, and its m
    shifted copies share most of their values.  Like ``math.lgamma``, raises
    ValueError at the poles 0, -1, -2, ...
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return math.lgamma(float(arr))
    distinct, inverse = np.unique(arr, return_inverse=True)
    values = np.fromiter(map(math.lgamma, distinct.tolist()), float, distinct.size)
    return values[inverse].reshape(arr.shape)


def xlogy(x, y):
    """x log y elementwise, with 0 wherever x == 0, as
    ``scipy.special.xlogy`` gives for every y but NaN."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x == 0, 1.0, y))


def log_multivariate_gamma(m: int, a):
    r"""log of the multivariate gamma function Gamma_m(a).

    Uses the product form

        log Gamma_m(a) = (m(m-1)/4) log pi + sum_{j=1}^{m} log Gamma(a + (1-j)/2),

    which reduces to the scalar log-gamma for m = 1.  Accepts a scalar or an
    array ``a`` (applied elementwise).  The log-gamma terms come from
    :func:`log_gamma`, once per distinct argument, so a sweep over
    consecutive sizes costs about one ``math.lgamma`` call per size.

    Raises
    ------
    InvalidInputError
        If any ``a <= (m - 1)/2``, where the function is undefined; for
        arguments of the form (n-1)/2 this signals n too small for m.
    """
    if m < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {m}")
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr <= (m - 1) / 2.0):
        raise InvalidInputError(
            f"multivariate gamma undefined: need a > (m-1)/2 = {(m - 1) / 2.0}, got {a}")
    js = np.arange(1, m + 1)
    res = m * (m - 1) / 4.0 * math.log(math.pi) \
        + log_gamma(a_arr[..., None] + (1.0 - js) / 2.0).sum(axis=-1)
    return float(res) if np.isscalar(a) or a_arr.ndim == 0 else res


def _log_orthogonal_volume(m: int, top: float) -> float:
    # log of pi^(m^2/2) / Gamma_m(m/2) * top^(m(m-1)/2); the domain needs <= 0
    return (m * m / 2.0) * math.log(math.pi) - log_multivariate_gamma(m, m / 2.0) \
        + m * (m - 1) / 2.0 * math.log(top)


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Parameters of the restricted domain.

    ``R`` bounds the squared norm of the mean estimate.  ``eps1`` and ``eps2``
    are per-coordinate lower and upper bounds on the ascending covariance
    eigenvalues, with ``0 < eps1[j] <= eps2[j] < 1``.  The largest upper bound
    must additionally satisfy the orthogonal-volume constraint
    ``pi^(m^2/2) / Gamma_m(m/2) * max(eps2)^(m(m-1)/2) <= 1``, which is what
    lets the eigenvector integral be bounded away; for m = 1 it is vacuous.
    """

    R: float
    eps1: np.ndarray
    eps2: np.ndarray

    def __post_init__(self):
        eps1 = np.atleast_1d(np.asarray(self.eps1, dtype=float))
        eps2 = np.atleast_1d(np.asarray(self.eps2, dtype=float))
        R = float(self.R)
        if eps1.ndim != 1 or eps1.shape != eps2.shape:
            raise InvalidInputError("eps1 and eps2 must be 1-D vectors of equal length")
        m = eps1.shape[0]
        if m < 1:
            raise InvalidInputError(f"dimension m must be >= 1, got {m}")
        if not (np.isfinite(R) and R > 0):
            raise InvalidInputError(f"R must be a positive real, got {R}")
        if not np.all(np.isfinite(eps1)) or not np.all(np.isfinite(eps2)):
            raise InvalidInputError("eigenvalue bounds must be finite")
        if np.any(eps1 <= 0) or np.any(eps1 > eps2) or np.any(eps2 >= 1):
            raise InvalidInputError(
                "bounds must satisfy 0 < eps1[j] <= eps2[j] < 1 for all j")
        top = float(eps2.max())
        if _log_orthogonal_volume(m, top) > 1e-9:
            raise InvalidInputError(
                f"orthogonal-volume constraint violated: max eps2 {top} too large for m={m}")
        for name, arr in (("eps1", eps1), ("eps2", eps2)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "R", R)

    @property
    def m(self) -> int:
        return self.eps1.shape[0]

    @classmethod
    def uniform(cls, m: int, R: float = 1.0, eps1: float = 0.01,
                eps2: float = 0.25) -> "DomainSpec":
        """Build a spec with identical per-coordinate bounds."""
        return cls(R=R, eps1=np.full(m, float(eps1)), eps2=np.full(m, float(eps2)))


@dataclass(frozen=True, eq=False)
class DomainCheck:
    """Outcome of a membership test, with per-constraint slack.

    Positive slack means the constraint holds with room to spare; a negative
    entry identifies the violated constraint.  ``violations`` lists a
    human-readable line per violated constraint.
    """

    ok: bool
    violations: tuple[str, ...]
    mean_slack: float
    lower_slack: np.ndarray
    upper_slack: np.ndarray


def eigen_sym(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix with deterministic conventions.

    Returns ``(eigenvalues, basis)`` with eigenvalues ascending and orthonormal
    eigenvectors in the columns of ``basis``; each column is flipped so its
    largest-magnitude entry is non-negative.

    Raises
    ------
    InvalidInputError
        If the matrix is not square or not symmetric within 1e-9.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if np.max(np.abs(a - a.T)) > _SYMMETRY_TOL * scale:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    return vals, _fix_signs(vecs)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # flip each eigenvector column so its largest-magnitude entry is >= 0
    top = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=0)[None, :], axis=0)
    return np.where(top < 0, -vecs, vecs)


def _rounding_floor(reach: np.ndarray, counts: np.ndarray, lam_max: np.ndarray
                    ) -> np.ndarray:
    """Per segment, the rounding error float64 allows in a scatter eigenvalue.

    With X the largest row norm of the segment, centring moves each deviation
    by about eps X, which moves the scatter by 2 eps X sqrt(lam_max) +
    (eps X)^2; summing h outer products and the eigensolver add about
    h eps lam_max.  The bound, 4 eps X sqrt(lam_max) + 4 (eps X)^2 +
    4 h eps lam_max, scales with the data like an eigenvalue does.
    """
    ex = _EPS * reach
    lam_max = np.maximum(lam_max, 0.0)
    return 4.0 * ex * np.sqrt(lam_max) + 4.0 * ex * ex + 4.0 * counts * _EPS * lam_max


def _sum_squares(a: np.ndarray) -> np.ndarray:
    # the sum of squares over the last axis of ``a``, a temporary that this
    # overwrites and returns a view of; it adds coordinate by coordinate,
    # which below 8 coordinates is the order of (a * a).sum(axis=-1), at a
    # fraction of its cost on a short axis and with no second array
    np.square(a, out=a)
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def segment_moments(rows: np.ndarray, starts: np.ndarray, counts: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
    """Mean, 1/h scatter and eigensystem of each contiguous segment of rows.

    Segment i is ``rows[starts[i]:starts[i] + counts[i]]``; segments cover
    ``rows`` in order and each holds at least one row.  Sums run over each
    segment alone, in row order (``np.add.reduceat``), and the eigensolver
    takes one matrix at a time, so a segment's results depend only on its own
    rows in their order, not on which other segments share the call.
    Eigenvalues are ascending; one at or below the segment's rounding bound
    (``_rounding_floor``) is set to 0, so a scatter singular up to rounding
    reads as singular.  Eigenvector signs are not fixed.
    """
    m = rows.shape[1]
    reach = np.sqrt(np.maximum.reduceat(_sum_squares(rows.copy()), starts))
    means = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
    dev = np.repeat(means, counts, axis=0)
    np.subtract(rows, dev, out=dev)
    # the upper triangle of the scatter, one entry (a, b) at a time
    upper = np.nonzero(np.arange(m)[:, None] <= np.arange(m))
    tri = np.empty((len(counts), len(upper[0])))
    for t, (a, b) in enumerate(zip(*upper)):
        tri[:, t] = np.add.reduceat(dev[:, a] * dev[:, b], starts)
    scatter = np.empty((len(counts), m, m))
    scatter[:, upper[0], upper[1]] = scatter[:, upper[1], upper[0]] = tri / counts[:, None]
    vals, vecs = np.linalg.eigh(scatter)
    vals[vals <= _rounding_floor(reach, counts, vals[:, -1])[:, None]] = 0.0
    return means, scatter, vals, vecs


def compute_mle(data: Dataset) -> GaussianMle:
    """Gaussian maximum-likelihood estimates of a dataset.

    Mean is the sample mean; covariance uses the 1/n normalization (never
    1/(n-1)).  Needs at least two observations.  The statistics come from
    :func:`segment_moments` with one segment, the kernel of the clustering
    descent, so an eigenvalue at the covariance's rounding level is 0.
    """
    if data.n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {data.n}")
    means, cov, vals, vecs = segment_moments(data.rows, np.zeros(1, dtype=int),
                                             np.array([data.n]))
    return GaussianMle(mean=means[0], covariance=cov[0], eigenvalues=vals[0],
                       eigenbasis=_fix_signs(vecs[0]))


def scale_dataset(data: Dataset, alpha: float) -> Dataset:
    """Divide every entry by ``alpha``.

    Under this conversion the MLEs transform as mean -> mean / alpha and
    eigenvalue -> eigenvalue / alpha^2.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidInputError(f"alpha must be a positive finite real, got {alpha}")
    return Dataset(data.rows / alpha)


def check_domain(mle: GaussianMle, spec: DomainSpec) -> DomainCheck:
    """Test whether an MLE lies in the restricted domain.

    Ascending eigenvalues are matched index-wise against the bound vectors.
    """
    if mle.m != spec.m:
        raise InvalidInputError(f"dimension mismatch: mle m={mle.m}, spec m={spec.m}")
    norm_sq = float(mle.mean @ mle.mean)
    mean_slack = spec.R - norm_sq
    lower_slack = mle.eigenvalues - spec.eps1
    upper_slack = spec.eps2 - mle.eigenvalues
    violations: list[str] = []
    if mean_slack < 0:
        violations.append(f"||mean||^2 = {norm_sq:.6g} exceeds R = {spec.R:.6g}")
    for j in range(spec.m):
        if lower_slack[j] < 0:
            violations.append(
                f"eigenvalue[{j}] = {mle.eigenvalues[j]:.6g} below eps1[{j}] = {spec.eps1[j]:.6g}")
        if upper_slack[j] < 0:
            violations.append(
                f"eigenvalue[{j}] = {mle.eigenvalues[j]:.6g} above eps2[{j}] = {spec.eps2[j]:.6g}")
    return DomainCheck(ok=not violations, violations=tuple(violations),
                       mean_slack=mean_slack, lower_slack=lower_slack,
                       upper_slack=upper_slack)


def choose_scale(data: Dataset, spec: DomainSpec, margin: float = 1.0) -> float:
    """Smallest scale factor (times ``margin``) that brings the data inside the
    upper-bound constraints of the domain.

    Returns ``alpha = margin * max(||mean|| / sqrt(R), max_j sqrt(lam_j / eps2[j]))``,
    so dividing the data by ``alpha`` satisfies the mean-norm and eigenvalue
    upper bounds.  Data already inside is scaled up to them, so
    ``choose_scale(c x) = c choose_scale(x)`` and the scaled data does not
    depend on the input's units.  The lower bounds ``eps1`` are not enforced
    here; they are configuration, typically derived from the scaled data
    afterwards.  Data whose covariance is identically zero has no scale: it is
    flagged with a warning and scaled from the mean constraint alone, at least 1.
    """
    margin = float(margin)
    if not (math.isfinite(margin) and margin >= 1.0):
        raise InvalidInputError(f"margin must be >= 1, got {margin}")
    mle = compute_mle(data)
    if mle.m != spec.m:
        raise InvalidInputError(f"dimension mismatch: data m={mle.m}, spec m={spec.m}")
    mean_ratio = math.sqrt(float(mle.mean @ mle.mean) / spec.R)
    if np.all(mle.eigenvalues == 0.0):
        warnings.warn("degenerate data: all covariance eigenvalues are zero; "
                      "scale chosen from the mean constraint only", stacklevel=2)
        return margin * max(mean_ratio, 1.0)
    eig_ratio = math.sqrt(float(np.max(mle.eigenvalues / spec.eps2)))
    return margin * max(mean_ratio, eig_ratio)


def load_csv(path, header: bool = False) -> Dataset:
    """Read a dataset from CSV, one observation per row, float columns.

    ``header=True`` skips the first line.  Parse failures raise
    InvalidInputError; missing files raise the usual OSError.
    """
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"could not parse CSV {path}: {exc}") from exc
    return Dataset(arr)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV with full float64 round-trip precision."""
    np.savetxt(path, data.rows, delimiter=",", fmt="%.17g")
