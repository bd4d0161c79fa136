import math

import numpy as np
import pytest

from unml import (
    DegenerateEstimateError,
    DomainSpec,
    InvalidInputError,
    exact_log_norm_1d,
    ks_gamma_check,
    log_mixture_norm,
    log_norm_bound,
    mc_log_norm_dataspace,
    mixture_norm_bruteforce,
    quad_log_norm_1d,
)

SPEC_1D = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)


class TestQuadrature:
    def test_matches_closed_form(self):
        for n in (2, 3, 7, 20):
            q = quad_log_norm_1d(n, SPEC_1D)
            e = exact_log_norm_1d(n, SPEC_1D)
            assert abs(q - e) <= 1e-8 * max(1.0, abs(e))

    def test_boundary_n2(self):
        assert quad_log_norm_1d(2, SPEC_1D) == pytest.approx(
            exact_log_norm_1d(2, SPEC_1D), rel=1e-10)

    def test_shrunk_interval_decreases(self):
        small = DomainSpec.uniform(1, eps1=0.01, eps2=0.025)
        a = quad_log_norm_1d(5, small)
        b = quad_log_norm_1d(5, SPEC_1D)
        assert a < b
        assert abs(a - exact_log_norm_1d(5, small)) <= 1e-8 * max(1.0, abs(a))

    def test_m1_only(self):
        with pytest.raises(InvalidInputError):
            quad_log_norm_1d(5, DomainSpec.uniform(2))


class TestMonteCarlo:
    def test_matches_closed_form_within_3_sigma(self):
        est = mc_log_norm_dataspace(3, SPEC_1D, 50_000, seed=101)
        exact = exact_log_norm_1d(3, SPEC_1D)
        assert abs(est.log_value - exact) <= 3.0 * est.std_error_log

    def test_uniform_proposal_cross_route(self):
        # two independent sampling schemes agree on an easy case
        a = mc_log_norm_dataspace(3, SPEC_1D, 50_000, seed=5, proposal="uniform")
        b = mc_log_norm_dataspace(3, SPEC_1D, 50_000, seed=6, proposal="mixture")
        sigma = math.hypot(a.std_error_log, b.std_error_log)
        assert abs(a.log_value - b.log_value) <= 3.5 * sigma

    def test_below_bound(self):
        for (m, n) in ((1, 3), (1, 5), (2, 4)):
            spec = DomainSpec.uniform(m)
            est = mc_log_norm_dataspace(n, spec, 50_000, seed=7)
            assert est.log_value + 3.0 * est.std_error_log < log_norm_bound(n, spec)

    def test_deterministic(self):
        a = mc_log_norm_dataspace(3, SPEC_1D, 20_000, seed=9)
        b = mc_log_norm_dataspace(3, SPEC_1D, 20_000, seed=9)
        assert a.log_value == b.log_value
        assert a.std_error_log == b.std_error_log
        assert a.accepted == b.accepted

    def test_doubling_samples_shrinks_stderr(self):
        a = mc_log_norm_dataspace(4, SPEC_1D, 100_000, seed=13)
        b = mc_log_norm_dataspace(4, SPEC_1D, 200_000, seed=13)
        ratio = b.std_error_log / a.std_error_log
        assert 0.55 <= ratio <= 0.9  # about 1/sqrt(2)

    def test_m2_eigenvalue_space_cross_route(self):
        # independent route for m = 2: mean-disc area times eigenvector-space
        # volume times the ordered eigenvalue integral of the reduced
        # integrand with its (l1 - l2) Jacobian
        from scipy import integrate
        from scipy.special import gammaln

        n = 4
        e1, e2 = 0.01, 0.25
        log_coeff = n * (math.log(n) - math.log(2.0) - 1.0) - math.log(math.pi) \
            - (0.5 * math.log(math.pi) + gammaln((n - 1) / 2) + gammaln((n - 2) / 2))
        tri, _ = integrate.dblquad(
            lambda l2, l1: (l1 * l2) ** -2.0 * (l1 - l2), e1, e2,
            lambda l1: e1, lambda l1: l1, epsabs=1e-12, epsrel=1e-12)
        log_vol_u = 2.0 * math.log(math.pi) \
            - (0.5 * math.log(math.pi) + gammaln(1.0) + gammaln(0.5))
        via_eig = math.log(math.pi) + log_vol_u + log_coeff + math.log(tri)
        spec = DomainSpec.uniform(2, R=1.0, eps1=e1, eps2=e2)
        est = mc_log_norm_dataspace(n, spec, 200_000, seed=314)
        assert abs(est.log_value - via_eig) <= 3.5 * est.std_error_log

    def test_m3_desk_scale_boundary(self):
        spec = DomainSpec.uniform(3, R=1.0, eps1=0.01, eps2=0.25)
        est = mc_log_norm_dataspace(4, spec, 50_000, seed=12)
        assert est.accepted > 0
        assert est.log_value + 3.0 * est.std_error_log < log_norm_bound(4, spec)

    def test_zero_acceptance_degenerate(self):
        narrow = DomainSpec.uniform(1, eps1=1e-7, eps2=1.0000001e-7)
        with pytest.raises(DegenerateEstimateError):
            mc_log_norm_dataspace(3, narrow, 10_000, seed=1)

    def test_desk_scale_cap(self):
        with pytest.raises(InvalidInputError):
            mc_log_norm_dataspace(13, SPEC_1D, 10_000, seed=0)

    def test_minimum_samples(self):
        with pytest.raises(InvalidInputError):
            mc_log_norm_dataspace(3, SPEC_1D, 100, seed=0)


SPEC_2D = DomainSpec.uniform(2, R=1, eps1=0.01, eps2=0.25)


class TestPinnedOracles:
    """Oracle outputs recorded from the reference implementation."""

    @pytest.mark.parametrize("n, spec, samples, seed, proposal, log_value, std_error, accepted", [
        # six chunks without a member and one with a single member
        (12, SPEC_1D, 100_000, 4, "uniform", 0.21388438704156898, 1.0, 1),
        (3, SPEC_1D, 50_000, 5, "uniform", 1.982115180712262, 0.02424164589622538, 7397),
        (3, SPEC_1D, 100_000, 99, "mixture", 2.0109946444410585, 0.004887992516680654,
         36089),
        (6, SPEC_2D, 100_000, 7, "mixture", 5.82990627213352, 0.013576851465110331, 17321),
    ])
    def test_monte_carlo(self, n, spec, samples, seed, proposal, log_value, std_error,
                         accepted):
        est = mc_log_norm_dataspace(n, spec, samples, seed, proposal)
        assert est.accepted == accepted
        assert est.log_value == pytest.approx(log_value, rel=1e-12)
        assert est.std_error_log == pytest.approx(std_error, rel=1e-12)

    @pytest.mark.parametrize("k, n, value", [
        (2, 9, 15.665574333547704),
        (3, 12, 21.73660119851547),
        (4, 10, 20.199754822436052),
    ])
    def test_bruteforce(self, k, n, value):
        assert mixture_norm_bruteforce(k, n, SPEC_2D) == pytest.approx(value, rel=1e-12)


class TestBruteForce:
    def test_k1_equals_bound(self):
        for n in (2, 6, 11):
            assert mixture_norm_bruteforce(1, n, SPEC_1D) == pytest.approx(
                log_norm_bound(n, SPEC_1D), abs=1e-12)

    def test_k2_n4_matches_recursion(self):
        assert mixture_norm_bruteforce(2, 4, SPEC_1D) == pytest.approx(
            log_mixture_norm(2, 4, SPEC_1D), abs=1e-12)

    def test_k3_n12_matches_recursion(self):
        assert mixture_norm_bruteforce(3, 12, SPEC_1D) == pytest.approx(
            log_mixture_norm(3, 12, SPEC_1D), abs=1e-9)

    def test_budget_guard(self):
        with pytest.raises(InvalidInputError):
            mixture_norm_bruteforce(30, 100, SPEC_1D)

    def test_n_zero(self):
        assert mixture_norm_bruteforce(2, 0, SPEC_1D) == 0.0


class TestGammaKs:
    def test_correct_null_passes(self):
        report = ks_gamma_check(5, 1.0, 500, seed=21)
        assert report.passed and report.pvalue >= 0.01

    def test_n1_exponential_special_case(self):
        report = ks_gamma_check(1, 2.0, 500, seed=22)
        assert report.passed

    def test_wrong_null_rejected(self):
        report = ks_gamma_check(5, 1.0, 500, seed=23, null_scale=1.0 / 2.0)
        assert not report.passed
        assert report.pvalue < 1e-6

    def test_minimum_replications(self):
        with pytest.raises(InvalidInputError):
            ks_gamma_check(5, 1.0, 50, seed=0)
