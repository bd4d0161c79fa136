"""Reference checks of one CLI report, written without calling into ``unml``.

Each check returns a list of failure messages; an empty list means the report
passed.  The references are independent re-derivations:

* the report validates against ``docs/report_schema.json``;
* ``total == data_term + log_norm`` and ``selected_k`` is the argmin of the
  totals, ties going to the smaller K;
* ``data_term`` is recomputed from the labels and ``data / alpha`` with plain
  numpy;
* ``log_norm`` at K = 1 is the closed-form bound C_u, and at K = 2 a direct
  O(n) logsumexp over the split sizes; ``log_norm`` never decreases in K;
* a verify report passes its bound check, accepted some samples, and carries
  the closed-form bound.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

REL_TOL = 1e-9
_EPS = np.finfo(float).eps
_COND_FACTOR = 4.0
_LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


def load_validator(repo_root: Path) -> jsonschema.protocols.Validator:
    schema = json.loads((repo_root / "docs" / "report_schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def log_cu(sizes, m: int, R: float, eps1) -> np.ndarray:
    """Closed-form log C_u(h) = log B + (m h/2) log(h/2e) - log Gamma_m((h-1)/2)."""
    h = np.asarray(sizes, dtype=float)
    log_b = ((m + 1) * math.log(2.0) + m / 2.0 * math.log(R)
             - m / 2.0 * float(np.log(eps1).sum())
             - (m + 1) * math.log(m) - float(gammaln(m / 2.0)))
    j = np.arange(1, m + 1)
    log_gamma_m = m * (m - 1) / 4.0 * math.log(math.pi) \
        + gammaln((h[..., None] - 1.0) / 2.0 + (1.0 - j) / 2.0).sum(axis=-1)
    return log_b + m * h / 2.0 * (np.log(h) - math.log(2.0) - 1.0) - log_gamma_m


def log_norm_k2(n: int, m: int, R: float, eps1) -> float:
    """Two-cluster normalization by a direct sum over the split sizes s.

    C_2(n) = sum_s binom(n, s) (s/n)^s ((n-s)/n)^(n-s) T(s) T(n-s), where
    T(0) = 1, T(1..m) = 0 and T(h) = C_u(h) otherwise.
    """
    log_t = np.full(n + 1, -np.inf)
    log_t[0] = 0.0
    log_t[m + 1:] = log_cu(np.arange(m + 1, n + 1), m, R, eps1)
    s = np.arange(n + 1)
    lw = (gammaln(n + 1) - gammaln(s + 1) - gammaln(n - s + 1)
          + xlogy(s, s / n) + xlogy(n - s, (n - s) / n))
    return float(logsumexp(lw + log_t + log_t[::-1]))


def data_term(scaled: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Complete-data term and the absolute error float64 allows in it.

    The term is the sum over clusters of
    -h log(h/n) + (m h/2) log(2 pi e) + (h/2) sum_j log lam_j.  Rounding in the
    h-point scatter and the eigensolver moves each lam_j by about
    h eps lam_max, so log lam_j is only known to h eps lam_max / lam_j: the
    descent favours near-singular clusters, where that is far above 1e-9.
    """
    n, m = scaled.shape
    total = 0.0
    slack = 0.0
    for c in np.unique(labels):
        x = scaled[labels == c]
        h = x.shape[0]
        dev = x - x.mean(axis=0)
        lam = np.linalg.eigvalsh(dev.T @ dev / h)
        if lam[0] <= 0:   # singular to working precision: no reference value
            return math.nan, math.inf
        total += -h * math.log(h / n) + m * h / 2.0 * _LOG_2PI_E \
            + h / 2.0 * float(np.log(lam).sum())
        slack += h / 2.0 * float((_COND_FACTOR * h * _EPS * lam[-1] / lam).sum())
    return total, slack


def check_select(report: dict, data: np.ndarray) -> list:
    fails = []
    entries = report["entries"]
    n, m = data.shape
    spec = report["spec"]
    R, eps1 = spec["R"], np.asarray(spec["eps1"])
    if report["unit"] != "nats" or report["n"] != n or report["m"] != m:
        fails.append("report unit or shape does not match the input")
        return fails
    for e in entries:
        if not _close(e["total"], e["data_term"] + e["log_norm"], 1e-12):
            fails.append(f"K={e['k']}: total != data_term + log_norm")
    best = min(entries, key=lambda e: (e["total"], e["k"]))
    if report["selected_k"] != best["k"]:
        fails.append(f"selected_k={report['selected_k']} is not the argmin K={best['k']}")
    scaled = data / report["alpha"]
    for e in entries:
        labels = np.asarray(e["labels"])
        if labels.shape != (n,) or labels.max() > e["k"]:
            fails.append(f"K={e['k']}: labels do not cover the data with 1..K")
            continue
        ref, slack = data_term(scaled, labels)
        if slack < math.inf and \
                not abs(e["data_term"] - ref) <= slack + REL_TOL * max(1.0, abs(ref)):
            fails.append(f"K={e['k']}: data_term {e['data_term']!r} != reference {ref!r}")
    by_k = {e["k"]: e["log_norm"] for e in entries}
    if 1 in by_k:
        ref = float(log_cu(n, m, R, eps1))
        if not _close(by_k[1], ref):
            fails.append(f"K=1: log_norm {by_k[1]!r} != closed form {ref!r}")
    if 2 in by_k:
        ref = log_norm_k2(n, m, R, eps1)
        if not _close(by_k[2], ref):
            fails.append(f"K=2: log_norm {by_k[2]!r} != direct sum {ref!r}")
    ks = sorted(by_k)
    for a, b in zip(ks, ks[1:]):
        if by_k[b] < by_k[a]:
            fails.append(f"log_norm decreases from K={a} to K={b}")
    return fails


def check_verify(report: dict) -> list:
    fails = []
    if report["pass"] is not True:
        fails.append("verify did not pass its bound check")
    if report["accepted"] <= 0:
        fails.append("verify accepted no samples")
    spec = report["spec"]
    ref = float(log_cu(report["n"], report["m"], spec["R"], np.asarray(spec["eps1"])))
    if not _close(report["bound"], ref):
        fails.append(f"bound {report['bound']!r} != closed form {ref!r}")
    return fails


def check_report(validator, report: dict, data: np.ndarray | None) -> list:
    """All checks for one report; ``data`` is the unscaled input of a select."""
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return [f"schema: {msg}" for msg in errors[:3]]
    if report["command"] == "select":
        return check_select(report, data)
    return check_verify(report)
