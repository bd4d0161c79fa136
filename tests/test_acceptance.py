"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln
from scipy.stats import multivariate_normal

from unml import (
    Assignment,
    Dataset,
    DomainSpec,
    GenLogisticSpec,
    codelength_difference,
    compute_mle,
    exact_log_norm_1d,
    gaussian_data_term,
    genlog_log_norm,
    genlog_log_pdf,
    genlog_mle,
    genlog_sample,
    ks_gamma_check,
    log_mixture_norm,
    log_multivariate_gamma,
    log_norm_bound,
    log_suffstat_density,
    mc_log_norm_dataspace,
    mixture_norm_bruteforce,
    quad_log_norm_1d,
    scale_dataset,
)
from unml.cli import main as cli_main


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures)


def _random_valid_assignment(rng, n, m, k):
    while True:
        labels = rng.integers(1, k + 1, n)
        if np.all(np.bincount(labels - 1, minlength=k) >= m + 1):
            return Assignment(labels=labels, k=k)


def _write_blobs(path, seed, n_per, gap, factor=1.0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(0.0, 1.0, n_per), rng.normal(gap, 1.0, n_per)])
    np.savetxt(path, x.reshape(-1, 1) * factor, delimiter=",", fmt="%.17g")


def test_criterion_1_upper_bound_verification():
    """Monte Carlo estimate of the normalization constant stays below the
    closed-form bound; for m = 1 it also matches the exact constant and the
    quadrature route."""
    failures = []
    cases = [
        (1, 2, 100_000),
        (1, 3, 100_000),
        (1, 5, 200_000),
        (1, 8, 200_000),
        (2, 4, 200_000),
        (2, 6, 500_000),
    ]
    start = time.time()
    for m, n, samples in cases:
        spec = DomainSpec.uniform(m, R=1.0, eps1=0.01, eps2=0.25)
        est = mc_log_norm_dataspace(n, spec, samples, seed=2026)
        bound = log_norm_bound(n, spec)
        if not est.log_value + 3.0 * est.std_error_log < bound:
            failures.append(
                f"(m={m}, n={n}): {est.log_value:.4f} + 3*{est.std_error_log:.4f} "
                f">= bound {bound:.4f}")
        if m == 1:
            exact = exact_log_norm_1d(n, spec)
            quad = quad_log_norm_1d(n, spec)
            if abs(est.log_value - exact) > 3.0 * est.std_error_log:
                failures.append(
                    f"(m=1, n={n}): |mc - exact| = {abs(est.log_value - exact):.4f} "
                    f"> 3 sigma = {3 * est.std_error_log:.4f}")
            if abs(quad - exact) > 1e-8 * max(1.0, abs(exact)):
                failures.append(f"(m=1, n={n}): quadrature off by {abs(quad - exact):.2e}")
    elapsed = time.time() - start
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _report("criterion 1 (upper-bound verification)", failures)


def test_criterion_2_scale_invariance():
    """Complete-data code-length differences are unchanged by rescaling, and
    the MLEs transform exactly as mean/alpha and eigenvalue/alpha^2."""
    failures = []
    rng = np.random.default_rng(20260808)
    alphas = (0.1, 7.0, 1000.0)
    for trial in range(50):
        m = (1, 2, 3)[trial % 3]
        n = int(rng.integers(20, 201))
        rows = rng.normal(size=(n, m)) * rng.uniform(0.3, 5.0, m) \
            + rng.uniform(-3.0, 3.0, m)
        data = Dataset(rows)
        base_mle = compute_mle(data)
        z1 = _random_valid_assignment(rng, n, m, 2)
        z2 = _random_valid_assignment(rng, n, m, 3)
        base = codelength_difference(data, z1, z2)
        for alpha in alphas:
            scaled = scale_dataset(data, alpha)
            diff = codelength_difference(scaled, z1, z2)
            if abs(diff - base) > 1e-8 * max(1.0, abs(base)):
                failures.append(
                    f"trial {trial} alpha={alpha}: diff drift {abs(diff - base):.2e}")
            s_mle = compute_mle(scaled)
            mean_err = np.linalg.norm(s_mle.mean - base_mle.mean / alpha)
            if mean_err > 1e-10 * max(np.linalg.norm(base_mle.mean), 1e-30):
                failures.append(f"trial {trial} alpha={alpha}: mean scaling law")
            lam_err = np.abs(s_mle.eigenvalues - base_mle.eigenvalues / alpha ** 2)
            if np.any(lam_err > 1e-10 * base_mle.eigenvalues):
                failures.append(f"trial {trial} alpha={alpha}: eigenvalue scaling law")
    _report("criterion 2 (scale invariance of code-length differences)", failures)


def test_criterion_3_argmin_invariance_end_to_end(tmp_path, capsys):
    """The CLI pipeline selects the same number of clusters, with identical
    per-K total differences, when the input is pre-multiplied by 1/1000."""
    failures = []
    for trial in range(20):
        a = tmp_path / f"a{trial}.csv"
        b = tmp_path / f"b{trial}.csv"
        _write_blobs(a, seed=1000 + trial, n_per=50, gap=8.0 + (trial % 5))
        _write_blobs(b, seed=1000 + trial, n_per=50, gap=8.0 + (trial % 5),
                     factor=1e-3)
        # the domain, eps1 included, is fixed before the fit, so both runs
        # price their fits with one normalization table
        common = ["--k-min", "1", "--k-max", "3", "--restarts", "3",
                  "--seed", str(500 + trial), "--eps1", "1e-4"]
        code1 = cli_main(["select", str(a), "--output", str(tmp_path / "r1.json"),
                          *common])
        code2 = cli_main(["select", str(b), "--output", str(tmp_path / "r2.json"),
                          *common])
        capsys.readouterr()
        if code1 != 0 or code2 != 0:
            failures.append(f"trial {trial}: exit codes {code1}, {code2}")
            continue
        r1 = json.loads((tmp_path / "r1.json").read_text())
        r2 = json.loads((tmp_path / "r2.json").read_text())
        if r1["selected_k"] != r2["selected_k"]:
            failures.append(
                f"trial {trial}: selected {r1['selected_k']} vs {r2['selected_k']}")
        t1 = {e["k"]: e["total"] for e in r1["entries"]}
        t2 = {e["k"]: e["total"] for e in r2["entries"]}
        for ka in t1:
            for kb in t1:
                d1, d2 = t1[ka] - t1[kb], t2[ka] - t2[kb]
                if abs(d1 - d2) > 1e-8 * max(1.0, abs(d1)):
                    failures.append(
                        f"trial {trial}: diff K{ka}-K{kb} drift {abs(d1 - d2):.2e}")
    _report("criterion 3 (argmin invariance end to end)", failures)


def test_criterion_4_mixture_normalization_recursion():
    """The O(K n^2) recursion reproduces brute-force enumeration, and K = 1
    reduces to the single-Gaussian bound."""
    failures = []
    spec = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)
    for k in (1, 2, 3):
        for n in range(0, 13):
            rec = log_mixture_norm(k, n, spec)
            brute = mixture_norm_bruteforce(k, n, spec)
            if rec == brute:
                continue
            if not math.isfinite(rec) or not math.isfinite(brute):
                failures.append(f"K={k} n={n}: {rec} vs {brute}")
            elif abs(rec - brute) > 1e-9:
                failures.append(f"K={k} n={n}: |rec - brute| = {abs(rec - brute):.2e}")
    for n in range(2, 13):
        if abs(log_mixture_norm(1, n, spec) - log_norm_bound(n, spec)) > 1e-12:
            failures.append(f"K=1 n={n}: differs from single-Gaussian bound")
    _report("criterion 4 (mixture normalization recursion)", failures)


def test_criterion_5_decomposition_identities():
    """The closed-form data term equals the direct density product, and the
    two conditional densities at their fixed point multiply to the reduced
    integrand."""
    failures = []
    rng = np.random.default_rng(55)
    for trial in range(1000):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 31))
        rows = rng.normal(size=(n, m)) * rng.uniform(0.2, 3.0, m) \
            + rng.uniform(-2.0, 2.0, m)
        data = Dataset(rows)
        mle = compute_mle(data)
        direct = -multivariate_normal(mean=mle.mean, cov=mle.covariance,
                                      allow_singular=False).logpdf(rows).sum()
        ours = gaussian_data_term(mle, n)
        if abs(ours - direct) > 1e-10 * max(1.0, abs(direct)):
            failures.append(f"trial {trial}: data term off by {abs(ours - direct):.2e}")

        sign, logdet = np.linalg.slogdet(mle.covariance)
        log_g1 = -m / 2.0 * math.log(2 * math.pi / n) - 0.5 * logdet
        log_g2 = (n - m - 2) / 2.0 * logdet - m * (n - 1) / 2.0 * math.log(2.0) \
            - (n - 1) / 2.0 * (logdet - m * math.log(n)) \
            - log_multivariate_gamma(m, (n - 1) / 2.0) - m * n / 2.0
        fixed_point = log_g1 + log_g2
        reduced = log_suffstat_density(n, mle.eigenvalues)
        if abs(fixed_point - reduced) > 1e-9 * max(1.0, abs(reduced)):
            failures.append(
                f"trial {trial}: fixed-point product off by "
                f"{abs(fixed_point - reduced):.2e}")
    _report("criterion 5 (decomposition identities)", failures)


def test_criterion_6_generalized_logistic():
    """Closed-form MLE optimality, normalization against quadrature, and the
    gamma law of the MLE statistic including a wrong-null power check."""
    failures = []
    rng = np.random.default_rng(66)

    for trial in range(1000):
        theta = float(rng.uniform(0.2, 5.0))
        n = int(rng.integers(2, 60))
        x = genlog_sample(n, theta, int(rng.integers(0, 2 ** 32)))
        theta_hat = genlog_mle(x)
        best = genlog_log_pdf(x, theta_hat).sum()
        for factor in (1.01, 0.99):
            if best < genlog_log_pdf(x, theta_hat * factor).sum():
                failures.append(f"trial {trial}: perturbed theta beat the MLE")

    spec = GenLogisticSpec(0.2, 50.0)
    for n in (1, 2, 5, 20, 100):
        integral, _ = integrate.quad(lambda t: 1.0 / t, spec.theta_min,
                                     spec.theta_max, epsabs=1e-13, epsrel=1e-13)
        expected = n * math.log(n) - n - float(gammaln(n)) + math.log(integral)
        got = genlog_log_norm(n, spec)
        if abs(got - expected) > 1e-8 * max(1.0, abs(expected)):
            failures.append(f"log_norm n={n}: off by {abs(got - expected):.2e}")

    for n, theta in ((1, 2.0), (5, 1.0), (20, 0.5)):
        report = ks_gamma_check(n, theta, 500, seed=100 + n)
        if not report.passed:
            failures.append(f"gamma KS failed for (n={n}, theta={theta}): "
                            f"p={report.pvalue:.4g}")
        rejections = 0
        runs = 100
        for r in range(runs):
            wrong = ks_gamma_check(n, theta, 500, seed=10_000 + 97 * r + n,
                                   null_scale=1.0 / (2.0 * theta))
            rejections += 0 if wrong.passed else 1
        if rejections / runs < 0.99:
            failures.append(
                f"wrong-null power {rejections}/{runs} below 99% for (n={n}, "
                f"theta={theta})")
    _report("criterion 6 (generalized logistic)", failures)


def test_criterion_7_numerical_robustness():
    """Log-domain arithmetic keeps every quantity finite and the bound
    monotone in n up to 10^6."""
    failures = []
    for m in (1, 2, 3):
        spec = DomainSpec.uniform(m, R=1.0, eps1=0.01, eps2=0.25)
        ns = np.arange(m + 1, 1_000_001)
        vals = log_norm_bound(ns, spec)
        if not np.all(np.isfinite(vals)):
            failures.append(f"m={m}: non-finite bound values")
        if not np.all(np.diff(vals) > 0):
            failures.append(f"m={m}: bound not strictly increasing in n")
    spec1 = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)
    big_checks = {
        "exact_log_norm_1d": exact_log_norm_1d(10 ** 6, spec1),
        "log_suffstat_density": log_suffstat_density(10 ** 6, [0.01]),
        "genlog_log_norm": genlog_log_norm(10 ** 6, GenLogisticSpec(0.5, 2.0)),
        "log_mixture_norm": log_mixture_norm(4, 500, spec1),
    }
    for name, val in big_checks.items():
        if not math.isfinite(val):
            failures.append(f"{name} overflowed: {val}")
    mle = compute_mle(Dataset(np.linspace(-0.5, 0.5, 64)))
    if not math.isfinite(gaussian_data_term(mle, 10 ** 6)):
        failures.append("gaussian_data_term overflowed at n = 10^6")
    _report("criterion 7 (numerical robustness)", failures)


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical seeds reproduce byte-identical CLI reports; Monte Carlo
    chunking is fixed, so scheduling cannot change results."""
    failures = []
    csv = tmp_path / "blobs.csv"
    _write_blobs(csv, seed=424242, n_per=50, gap=9.0)
    pairs = [
        ["select", str(csv), "--k-max", "3", "--restarts", "3", "--seed", "99"],
        ["verify", "--m", "1", "--n", "3", "--samples", "100000", "--seed", "99"],
        ["genlog_input"],
    ]
    gl = tmp_path / "gl.csv"
    np.savetxt(gl, genlog_sample(40, 1.5, seed=3).reshape(-1, 1), delimiter=",",
               fmt="%.17g")
    pairs[2] = ["genlog", str(gl)]
    for args in pairs:
        out1 = tmp_path / "d1.json"
        out2 = tmp_path / "d2.json"
        c1 = cli_main(args + ["--output", str(out1)])
        c2 = cli_main(args + ["--output", str(out2)])
        capsys.readouterr()
        if c1 != c2:
            failures.append(f"{args[0]}: exit codes differ")
        if out1.read_bytes() != out2.read_bytes():
            failures.append(f"{args[0]}: reports differ between runs")
    # the chunk-to-seed mapping is part of the estimator: prefixes of the
    # sample stream are shared, which a worker pool cannot reorder
    spec = DomainSpec.uniform(1)
    a = mc_log_norm_dataspace(3, spec, 100_000, seed=99)
    b = mc_log_norm_dataspace(3, spec, 100_000, seed=99)
    if not (a.log_value == b.log_value and a.std_error_log == b.std_error_log):
        failures.append("Monte Carlo estimates differ bit-for-bit")
    _report("criterion 8 (determinism)", failures)
