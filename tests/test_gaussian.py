import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from unml import (
    Dataset,
    DomainSpec,
    DomainViolationError,
    InsufficientDataError,
    InvalidInputError,
    SingularCovarianceError,
    compute_mle,
    exact_log_norm_1d,
    gaussian_codelength,
    gaussian_data_term,
    log_domain_constant,
    log_multivariate_gamma,
    log_norm_bound,
    log_suffstat_density,
    scale_dataset,
)

SPEC_1D = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)


class TestLogMultivariateGamma:
    def test_m1_reduces_to_log_gamma(self):
        assert log_multivariate_gamma(1, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_term_by_term_oracle(self):
        # independent route: math.lgamma term by term
        expected = 0.5 * math.log(math.pi) + math.lgamma(1.5) + math.lgamma(1.0)
        assert log_multivariate_gamma(2, 1.5) == pytest.approx(expected, rel=1e-14)

    def test_random_arguments_match_oracle(self):
        rng = np.random.default_rng(2)
        for m in (1, 2, 3, 4):
            for a in rng.uniform((m - 1) / 2 + 0.1, 50.0, 10):
                expected = m * (m - 1) / 4 * math.log(math.pi) \
                    + sum(math.lgamma(a + (1 - j) / 2) for j in range(1, m + 1))
                assert log_multivariate_gamma(m, a) == pytest.approx(expected, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(InvalidInputError):
            log_multivariate_gamma(3, 0.5)

    def test_array_argument(self):
        a = np.array([1.5, 2.0, 7.0])
        vals = log_multivariate_gamma(2, a)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(log_multivariate_gamma(2, 1.5))


class TestLogDomainConstant:
    def test_m1_hand_value(self):
        # B = 4 * 10 / Gamma(1/2) = 40 / sqrt(pi)
        spec = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)
        assert log_domain_constant(spec) == pytest.approx(
            math.log(40.0 / math.sqrt(math.pi)), rel=1e-14)

    def test_m2_hand_value(self):
        # B = 8 * 100 / (8 * Gamma(1)) = 100
        spec = DomainSpec.uniform(2, R=1.0, eps1=0.1, eps2=0.25)
        assert log_domain_constant(spec) == pytest.approx(math.log(100.0), rel=1e-14)

    def test_m1_r4_hand_value(self):
        # B = 4 * 2 * 1 / Gamma(1/2) = 8 / sqrt(pi)
        spec = DomainSpec.uniform(1, R=4.0, eps1=1.0 - 1e-12, eps2=1.0 - 1e-12,
                                  eps2_cap=1.0 - 1e-12)
        assert log_domain_constant(spec) == pytest.approx(
            math.log(8.0 / math.sqrt(math.pi)), rel=1e-10)


class TestLogNormBound:
    def test_n3_composition(self):
        expected = math.log(40.0 / math.sqrt(math.pi)) \
            + 1.5 * (math.log(3.0) - math.log(2.0) - 1.0)
        assert log_norm_bound(3, SPEC_1D) == pytest.approx(expected, rel=1e-14)

    def test_n2_boundary(self):
        expected = math.log(40.0 / math.sqrt(math.pi)) - 1.0 \
            - math.lgamma(0.5)
        assert log_norm_bound(2, SPEC_1D) == pytest.approx(expected, rel=1e-14)

    def test_small_sample_error(self):
        with pytest.raises(InsufficientDataError):
            log_norm_bound(2, DomainSpec.uniform(2))

    def test_monotone_in_n(self):
        for m in (1, 2, 3):
            spec = DomainSpec.uniform(m)
            ns = np.arange(m + 1, 201)
            vals = log_norm_bound(ns, spec)
            assert np.all(np.diff(vals) > 0)

    def test_finite_at_huge_n(self):
        for m in (1, 2, 3):
            spec = DomainSpec.uniform(m)
            assert math.isfinite(log_norm_bound(10 ** 6, spec))

    def test_spec_enters_only_through_domain_constant(self):
        # log C_u = log B(spec) + f(m, n): subtracting log B leaves the same
        # size factor for every R, eps1 and eps2, per-coordinate bounds included
        for m in (1, 2, 3, 4):
            ns = np.arange(m + 1, 10 ** 4 + 1)
            specs = [
                DomainSpec.uniform(m),
                DomainSpec.uniform(m, R=4.0, eps1=1e-6, eps2=0.05),
                DomainSpec.uniform(m, R=0.3, eps1=0.1, eps2=0.2),
                DomainSpec(R=2.0, eps1=np.geomspace(1e-4, 1e-2, m),
                           eps2=np.linspace(0.1, 0.2, m), eps2_cap=0.2),
            ]
            sizes = [log_norm_bound(ns, spec) - log_domain_constant(spec)
                     for spec in specs]
            for other in sizes[1:]:
                assert np.all(np.abs(other - sizes[0])
                              <= 1e-12 * np.maximum(1.0, np.abs(sizes[0])))


class TestGaussianDataTerm:
    def test_scalar_pair(self):
        mle = compute_mle(Dataset([0.0, 2.0]))
        assert gaussian_data_term(mle, 2) == pytest.approx(
            math.log(2 * math.pi * math.e), rel=1e-14)

    def test_unit_eigenvalues_exact(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        mle = compute_mle(Dataset(rows * math.sqrt(2.0)))
        assert np.allclose(mle.eigenvalues, [1.0, 1.0])
        assert gaussian_data_term(mle, 4) == pytest.approx(
            4 * math.log(2 * math.pi * math.e), rel=1e-12)

    def test_singular_error(self):
        mle = compute_mle(Dataset([1.0, 1.0]))
        with pytest.raises(SingularCovarianceError):
            gaussian_data_term(mle, 2)

    def test_matches_direct_density_product(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 31))
            rows = rng.normal(size=(n, m)) * rng.uniform(0.2, 3.0, m) \
                + rng.uniform(-2, 2, m)
            data = Dataset(rows)
            mle = compute_mle(data)
            direct = -multivariate_normal(mean=mle.mean, cov=mle.covariance,
                                          allow_singular=False).logpdf(rows).sum()
            ours = gaussian_data_term(mle, n)
            assert ours == pytest.approx(direct, rel=1e-10)


class TestGaussianCodelength:
    def test_composition(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(0.0, 0.3, size=40))
        cl = gaussian_codelength(data, SPEC_1D)
        assert cl.total == pytest.approx(cl.data_term + cl.log_norm, rel=1e-14)
        assert math.isfinite(cl.total)

    def test_domain_violation_names_constraint(self):
        data = Dataset([1.5, 2.5])  # mean 2
        with pytest.raises(DomainViolationError, match="R"):
            gaussian_codelength(data, SPEC_1D)

    def test_scaling_shifts_data_term_only(self):
        rng = np.random.default_rng(8)
        spec = DomainSpec.uniform(2, R=1.0, eps1=1e-10, eps2=0.25)
        data = Dataset(rng.normal(0.0, 0.2, size=(30, 2)))
        alpha = 2.0
        base = gaussian_codelength(data, spec)
        scaled = gaussian_codelength(scale_dataset(data, alpha), spec)
        shift = data.m * data.n * math.log(alpha)
        assert base.data_term - scaled.data_term == pytest.approx(shift, rel=1e-10)
        assert scaled.log_norm == base.log_norm


class TestExactLogNorm1d:
    def test_quadrature_oracle(self):
        # integrate the reduced integrand numerically, fully independently
        from scipy.integrate import quad

        n = 3
        coeff = n ** (n / 2) / (2 ** (n / 2) * math.sqrt(math.pi)
                                * math.e ** (n / 2) * math.gamma((n - 1) / 2))
        integral, _ = quad(lambda lam: coeff * lam ** -1.5, 0.01, 0.25)
        expected = math.log(2.0 * integral)  # mean interval has length 2 sqrt(R)
        got = exact_log_norm_1d(3, SPEC_1D)
        assert got == pytest.approx(expected, rel=1e-10)
        assert math.exp(got) == pytest.approx(7.4007, abs=5e-4)

    def test_zero_width_interval(self):
        spec = DomainSpec.uniform(1, eps1=0.25, eps2=0.25)
        assert exact_log_norm_1d(3, spec) == -math.inf

    def test_strictly_below_bound_with_known_gap(self):
        # the bound only drops the eps2 part of the eigenvalue integral, so
        # the gap is exactly -log(1 - sqrt(eps1/eps2)) at every n
        for n in (2, 3, 5, 8, 20, 100):
            for (e1, e2) in ((0.01, 0.25), (0.001, 0.1), (0.05, 0.3)):
                spec = DomainSpec.uniform(1, eps1=e1, eps2=e2)
                gap = log_norm_bound(n, spec) - exact_log_norm_1d(n, spec)
                assert gap > 0
                assert gap == pytest.approx(-math.log1p(-math.sqrt(e1 / e2)),
                                            rel=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            exact_log_norm_1d(1, SPEC_1D)


class TestLogSuffstatDensity:
    def test_hand_value_m1(self):
        # n = 2, lam = 1: log(2 / (2 sqrt(pi) e Gamma(1/2))) = -1 - log(pi)
        assert log_suffstat_density(2, [1.0]) == pytest.approx(
            -1.0 - math.log(math.pi), rel=1e-13)

    def test_power_law_shift(self):
        base = log_suffstat_density(5, [1.0, 1.0])
        shifted = log_suffstat_density(5, [3.0, 3.0])
        # each eigenvalue contributes -(m/2 + 1) log c
        assert shifted - base == pytest.approx(-2 * 2.0 * math.log(3.0), rel=1e-12)

    def test_m2_composition(self):
        from unml import log_multivariate_gamma as lmg

        expected = math.log(27.0 / (8.0 * math.pi * math.e ** 3)) - lmg(2, 1.0)
        assert log_suffstat_density(3, [1.0, 1.0]) == pytest.approx(expected, rel=1e-12)

    def test_fixed_point_identity_g1_g2(self):
        # direct evaluation of the two conditional densities at the fixed point
        rng = np.random.default_rng(44)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 25))
            rows = rng.normal(size=(n, m)) * rng.uniform(0.3, 2.0, m)
            mle = compute_mle(Dataset(rows))
            sign, logdet = np.linalg.slogdet(mle.covariance)
            assert sign > 0
            log_g1 = -m / 2.0 * math.log(2 * math.pi / n) - 0.5 * logdet
            log_g2 = (n - m - 2) / 2.0 * logdet \
                - m * (n - 1) / 2.0 * math.log(2.0) \
                - (n - 1) / 2.0 * (logdet - m * math.log(n)) \
                - log_multivariate_gamma(m, (n - 1) / 2.0) - m * n / 2.0
            combined = log_g1 + log_g2
            ours = log_suffstat_density(n, mle.eigenvalues)
            assert abs(combined - ours) <= 1e-9 * max(1.0, abs(ours))

    def test_rejects_singular(self):
        with pytest.raises(SingularCovarianceError):
            log_suffstat_density(3, [0.0])
