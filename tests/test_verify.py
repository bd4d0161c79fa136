import math
import sys
from concurrent.futures import ThreadPoolExecutor

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
from unml import verify
from unml.verify import _members

SPEC_1D = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)
# an eigenvalue interval so thin that 10^5 samples leave a single member
SPEC_1D_THIN = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.01 * (1 + 1e-4))


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

    def test_weight_diagnostics(self):
        est = mc_log_norm_dataspace(6, DomainSpec.uniform(2), 100_000, seed=7)
        # Kish's (sum w)^2 / sum w^2 fixes the delta-method standard error:
        # se_log^2 = (samples / ess - 1) / (samples - 1)
        assert est.std_error_log ** 2 == pytest.approx(
            (est.samples / est.effective_samples - 1.0) / (est.samples - 1), rel=1e-9)
        assert 1.0 <= est.effective_samples <= est.accepted
        # sum w^2 <= max w * sum w, so ess >= 1 / share
        assert 0.0 < est.max_weight_share <= 1.0
        assert est.effective_samples * est.max_weight_share >= 1.0 - 1e-12

    def test_single_member_diagnostics(self):
        est = mc_log_norm_dataspace(3, SPEC_1D_THIN, 100_000, 4)
        assert est.accepted == 1
        assert est.effective_samples == 1.0
        assert est.max_weight_share == 1.0

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
SPEC_3D = DomainSpec.uniform(3, R=1, eps1=0.01, eps2=0.25)
SPEC_2D_SKEW = DomainSpec(R=1.0, eps1=np.array([0.005, 0.02]), eps2=np.array([0.1, 0.25]))
SPEC_3D_SKEW = DomainSpec(R=1.0, eps1=np.array([0.005, 0.01, 0.02]),
                          eps2=np.array([0.1, 0.2, 0.25]))


# Monte Carlo pins: (n, spec, samples, seed, log_value, std_error, accepted).
# The ids are written out, so that removing a row renames no other row.
MC_PINS = [
    # six chunks without a member and one with a single member
    pytest.param(3, SPEC_1D_THIN, 100_000, 4, -8.2551941562476, 1.0, 1,
                 id="3-spec0-100000-4--8.2551941562476-1.0-1"),
    pytest.param(3, SPEC_1D, 100_000, 99, 2.0109946444410585, 0.004887992516680654, 36089,
                 id="3-spec1-100000-99-2.0109946444410585-0.004887992516680654-36089"),
    pytest.param(6, SPEC_2D, 100_000, 7, 5.82990627213352, 0.013576851465110331, 17321,
                 id="6-spec2-100000-7-5.82990627213352-0.013576851465110331-17321"),
    pytest.param(4, SPEC_3D, 100_000, 11, 5.49099721161351, 0.037590886780506094, 1691,
                 id="4-spec3-100000-11-5.49099721161351-0.037590886780506094-1691"),
    # per-coordinate bounds: a trace inside [sum eps1, sum eps2] is not
    # enough, the sorted eigenvalues are checked one by one
    pytest.param(5, SPEC_2D_SKEW, 100_000, 17, 6.136489302567973, 0.01606384524905298, 15289,
                 id="5-spec4-100000-17-6.136489302567973-0.01606384524905298-15289"),
]


class TestPinnedOracles:
    """Oracle outputs recorded from the reference implementation."""

    @pytest.mark.parametrize("n, spec, samples, seed, log_value, std_error, accepted", MC_PINS)
    def test_monte_carlo(self, n, spec, samples, seed, log_value, std_error, accepted):
        est = mc_log_norm_dataspace(n, spec, samples, seed)
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


class _PoolSpy(ThreadPoolExecutor):
    """A ThreadPoolExecutor that records each pool's size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


def _estimates_by_thread_count(monkeypatch, n, spec, samples, seed):
    """The oracle's estimate with its CPU count set to 1, 2 and 3, and the
    size of the thread pool each call started (0 for none)."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _PoolSpy)
    out = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, to expose a lost update
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
            _PoolSpy.sizes = []
            est = mc_log_norm_dataspace(n, spec, samples, seed)
            out[cpus] = (repr(est), sum(_PoolSpy.sizes))
    finally:
        sys.setswitchinterval(interval)
    return out


class TestThreadCount:
    """The chunks run on min(CPUs, chunks) threads, the calling thread one of
    them, and the estimate is repr-identical for every thread count."""

    @pytest.mark.parametrize("n, spec, samples, seed, pools", [
        (3, SPEC_1D, 10_000, 5, (0, 0, 0)),
        (6, SPEC_2D, 2 * 16_384, 21, (0, 1, 1)),
        (4, SPEC_3D, 3 * 16_384 + 5, 23, (0, 1, 2)),
    ], ids=["one-chunk", "two-full-chunks", "short-last-chunk"])
    def test_chunk_layouts(self, monkeypatch, n, spec, samples, seed, pools):
        out = _estimates_by_thread_count(monkeypatch, n, spec, samples, seed)
        assert tuple(size for _, size in out.values()) == pools
        assert out[1][0] == out[2][0] == out[3][0]

    @pytest.mark.parametrize("n, spec, samples, seed, log_value, std_error, accepted", MC_PINS)
    def test_pins(self, monkeypatch, n, spec, samples, seed, log_value, std_error, accepted):
        out = _estimates_by_thread_count(monkeypatch, n, spec, samples, seed)
        assert out[1][0] == out[2][0] == out[3][0]
        assert [size for _, size in out.values()] == [0, 1, 2]

    def test_degenerate_with_threads(self, monkeypatch):
        narrow = DomainSpec.uniform(1, eps1=1e-7, eps2=1.0000001e-7)
        for cpus in (2, 3):
            monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
            with pytest.raises(DegenerateEstimateError):
                mc_log_norm_dataspace(3, narrow, 3 * 16_384, seed=1)


def _boundary_datasets(spec, n, count, rng):
    """Datasets (count, n, m) whose scatter eigenvalues sit on eps1 or eps2.

    Each dataset puts all its eigenvalues on their lower bounds, all on their
    upper bounds, or each on a random one of the two, under a random rotation;
    its mean lies on the R sphere or inside it.  Rounding leaves the computed
    eigenvalues on either side of the bounds.
    """
    m = spec.m
    pick = rng.integers(0, 3, count)
    upper = np.where(pick[:, None] == 2, rng.random((count, m)) < 0.5, (pick == 1)[:, None])
    lam = np.where(upper, spec.eps2, spec.eps1)
    z = rng.standard_normal((count, n, m))
    z -= z.mean(axis=1, keepdims=True)
    basis, _ = np.linalg.qr(z)      # orthonormal columns with zero mean
    rot, _ = np.linalg.qr(rng.standard_normal((count, m, m)))
    mean = rng.standard_normal((count, 1, m))
    radius = np.where(rng.random(count) < 0.3, 1.0, rng.random(count)) * math.sqrt(spec.R)
    mean *= (radius / np.linalg.norm(mean, axis=2)[:, 0])[:, None, None]
    return math.sqrt(n) * (basis * np.sqrt(lam)[:, None, :]) @ rot.transpose(0, 2, 1) + mean


class TestMembershipPrefilter:
    """The oracle's trace prefilter never drops a dataset that decomposing
    every scatter would accept, also with eigenvalues exactly on the bounds."""

    @pytest.mark.parametrize("spec, n", [
        (SPEC_2D, 3), (SPEC_2D, 6), (SPEC_2D_SKEW, 3), (SPEC_2D_SKEW, 6),
        (SPEC_3D, 4), (SPEC_3D_SKEW, 4),
    ], ids=["2d-3", "2d-6", "2d-skew-3", "2d-skew-6", "3d-4", "3d-skew-4"])
    def test_boundary_eigenvalues(self, spec, n):
        y = _boundary_datasets(spec, n, 20_000, np.random.default_rng(17 + n))
        # reference membership: decompose every scatter
        mu = y.mean(axis=1)
        dev = y - mu[:, None, :]
        lam = np.linalg.eigvalsh(np.einsum("ijk,ijl->ikl", dev, dev) / n)
        member = ((mu ** 2).sum(axis=1) <= spec.R) \
            & (lam >= spec.eps1).all(axis=1) & (lam <= spec.eps2).all(axis=1)
        assert 0 < member.sum() < member.size
        got_mu, got_lam = _members(np.ascontiguousarray(y.T), spec)
        np.testing.assert_array_equal(got_lam, lam[member])
        np.testing.assert_array_equal(got_mu, mu[member])


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
