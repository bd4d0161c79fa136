import math

import numpy as np
import pytest
from scipy import special

from unml import (
    Dataset,
    DomainSpec,
    InsufficientDataError,
    InvalidInputError,
    check_domain,
    choose_scale,
    compute_mle,
    eigen_sym,
    load_csv,
    save_csv,
    scale_dataset,
)
from unml.stats import log_gamma, xlogy


def two_pass_mle(rows):
    """Independent two-pass mean/covariance, plain Python loops."""
    n = len(rows)
    m = len(rows[0])
    mean = [math.fsum(r[j] for r in rows) / n for j in range(m)]
    cov = [[math.fsum((r[i] - mean[i]) * (r[j] - mean[j]) for r in rows) / n
            for j in range(m)] for i in range(m)]
    return np.array(mean), np.array(cov)


class TestDataset:
    def test_1d_rows_become_column(self):
        d = Dataset([0.0, 2.0])
        assert d.n == 2 and d.m == 1

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0, float("nan")]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.empty((0, 2)))

    def test_rows_are_immutable(self):
        d = Dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            d.rows[0, 0] = 5.0


class TestComputeMle:
    def test_symmetric_two_point_case(self):
        mle = compute_mle(Dataset([[1.0, 1.0], [-1.0, -1.0]]))
        assert np.allclose(mle.mean, [0.0, 0.0])
        assert np.allclose(mle.covariance, [[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(mle.eigenvalues, [0.0, 2.0])

    def test_scalar_pair(self):
        mle = compute_mle(Dataset([0.0, 2.0]))
        assert mle.mean[0] == pytest.approx(1.0)
        assert mle.covariance[0, 0] == pytest.approx(1.0)  # ((-1)^2 + 1^2) / 2
        assert mle.eigenvalues[0] == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(123)
        rows = rng.normal(size=(100, 3)) @ np.diag([1.0, 0.5, 2.0]) + [1.0, -2.0, 0.3]
        mle = compute_mle(Dataset(rows))
        mean, cov = two_pass_mle(rows.tolist())
        assert np.allclose(mle.mean, mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(mle.covariance, cov, rtol=1e-12, atol=1e-12)

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientDataError):
            compute_mle(Dataset([[1.0, 2.0]]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(40, 2))
        perm = rng.permutation(40)
        a = compute_mle(Dataset(rows))
        b = compute_mle(Dataset(rows[perm]))
        assert np.allclose(a.mean, b.mean, rtol=1e-12)
        assert np.allclose(a.covariance, b.covariance, rtol=1e-12, atol=1e-15)
        assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-12, atol=1e-15)

    def test_eigen_fields_reconstruct(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            rows = rng.normal(size=(30, 3)) * rng.uniform(0.5, 2.0, 3)
            mle = compute_mle(Dataset(rows))
            rebuilt = mle.eigenbasis @ np.diag(mle.eigenvalues) @ mle.eigenbasis.T
            denom = max(np.linalg.norm(mle.covariance), 1e-30)
            assert np.linalg.norm(rebuilt - mle.covariance) / denom < 1e-9
            assert np.allclose(mle.eigenbasis.T @ mle.eigenbasis, np.eye(3), atol=1e-10)
            assert np.all(np.diff(mle.eigenvalues) >= -1e-15)
            assert np.all(mle.eigenvalues >= 0.0)


class TestEigenSym:
    def test_identity(self):
        vals, vecs = eigen_sym(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])

    def test_hand_characteristic_polynomial(self):
        # det([[2-l, 1], [1, 2-l]]) = l^2 - 4l + 3 -> roots 1 and 3
        vals, vecs = eigen_sym([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(vals, [1.0, 3.0])

    def test_zero_matrix(self):
        vals, _ = eigen_sym(np.zeros((2, 2)))
        assert np.allclose(vals, [0.0, 0.0])

    def test_sign_convention(self):
        vals, vecs = eigen_sym([[2.0, 1.0], [1.0, 2.0]])
        for j in range(2):
            i = np.argmax(np.abs(vecs[:, j]))
            assert vecs[i, j] >= 0

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            eigen_sym([[1.0, 2.0], [0.0, 1.0]])


class TestScaleDataset:
    def test_identity(self):
        d = Dataset([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(scale_dataset(d, 1.0).rows, d.rows)

    def test_hand_scaled_pair(self):
        scaled = scale_dataset(Dataset([0.0, 2.0]), 2.0)
        assert np.allclose(scaled.rows[:, 0], [0.0, 1.0])
        mle = compute_mle(scaled)
        assert mle.mean[0] == pytest.approx(0.5)
        assert mle.covariance[0, 0] == pytest.approx(0.25)

    def test_eigenvalues_scale_by_alpha_squared(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(60, 2)) * [3.0, 0.5])
        base = compute_mle(data)
        scaled = compute_mle(scale_dataset(data, 10.0))
        assert np.allclose(scaled.eigenvalues, base.eigenvalues / 100.0, rtol=1e-10)

    def test_scaling_laws_across_alphas(self):
        rng = np.random.default_rng(21)
        for m in (1, 2, 3):
            data = Dataset(rng.normal(size=(50, m)) + rng.uniform(-2, 2, m))
            base = compute_mle(data)
            for alpha in (0.1, 2.0, 10.0, 1000.0):
                s = compute_mle(scale_dataset(data, alpha))
                assert np.linalg.norm(s.mean - base.mean / alpha) \
                    <= 1e-10 * max(np.linalg.norm(base.mean), 1e-30)
                assert np.all(np.abs(s.eigenvalues - base.eigenvalues / alpha ** 2)
                              <= 1e-10 * base.eigenvalues)

    def test_rejects_bad_alpha(self):
        d = Dataset([0.0, 1.0])
        for alpha in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError):
                scale_dataset(d, alpha)


class TestDomainSpec:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidInputError):
            DomainSpec(R=1.0, eps1=[0.5], eps2=[0.1])

    def test_cap_below_one(self):
        for top in (1.0, 1.5):
            with pytest.raises(InvalidInputError):
                DomainSpec(R=1.0, eps1=[0.1], eps2=[top])

    def test_orthogonal_volume_constraint_m2(self):
        # for m = 2 the constraint reads pi * max(eps2) <= 1
        DomainSpec.uniform(2, eps2=1 / math.pi - 1e-9)
        with pytest.raises(InvalidInputError):
            DomainSpec.uniform(2, eps2=0.5)

    def test_m1_always_satisfied(self):
        DomainSpec.uniform(1, eps2=0.99)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_orthogonal_volume_limit_on_the_largest_eps2(self, m):
        # the largest eps2 with pi^(m^2/2) / Gamma_m(m/2) * eps2^(m(m-1)/2) <= 1;
        # the check allows 1e-9 in the log volume, which at m = 2 is
        # log(1 + 1e-9), so the probes sit 2e-9 either side of the limit
        log_volume = m * m / 2 * math.log(math.pi) - special.multigammaln(m / 2, m)
        limit = math.exp(-log_volume / (m * (m - 1) / 2))
        eps1 = np.full(m, 0.01)
        for j in range(m):
            eps2 = np.full(m, 0.1)
            eps2[j] = (1 - 2e-9) * limit
            DomainSpec(R=1.0, eps1=eps1, eps2=eps2)
            eps2[j] = (1 + 2e-9) * limit
            with pytest.raises(InvalidInputError, match="orthogonal-volume"):
                DomainSpec(R=1.0, eps1=eps1, eps2=eps2)

    def test_empty_dimension_rejected(self):
        with pytest.raises(InvalidInputError, match="dimension m"):
            DomainSpec.uniform(0)
        with pytest.raises(InvalidInputError, match="dimension m"):
            DomainSpec(R=1, eps1=[], eps2=[])


class TestCheckDomain:
    def test_inside(self):
        spec = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.5)
        mle = compute_mle(Dataset([-0.3162, 0.3162]))  # mean 0, var ~0.1
        report = check_domain(mle, spec)
        assert report.ok and report.violations == ()

    def test_mean_violation(self):
        spec = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.5)
        mle = compute_mle(Dataset([1.5, 2.5]))  # mean 2 -> ||mean||^2 = 4
        report = check_domain(mle, spec)
        assert not report.ok
        assert any("R" in v for v in report.violations)
        assert report.mean_slack == pytest.approx(1.0 - 4.0)

    def test_lower_bound_violation(self):
        spec = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.5)
        mle = compute_mle(Dataset([-0.0316, 0.0316]))  # var ~0.001
        report = check_domain(mle, spec)
        assert not report.ok
        assert any("eps1" in v for v in report.violations)

    def test_dimension_mismatch(self):
        spec = DomainSpec.uniform(2)
        mle = compute_mle(Dataset([0.0, 1.0]))
        with pytest.raises(InvalidInputError):
            check_domain(mle, spec)


class TestChooseScale:
    def test_hand_max_evaluation(self):
        # mean 10, variance 4: alpha = max(10 / 1, sqrt(4 / 0.5)) = 10
        data = Dataset([8.0, 12.0])
        spec = DomainSpec.uniform(1, R=1.0, eps1=1e-6, eps2=0.5)
        assert choose_scale(data, spec, 1.0) == pytest.approx(10.0)

    def test_follows_the_units(self):
        # data already inside is scaled up to the bounds: no floor at alpha = 1
        data = Dataset([-0.3, 0.3])
        spec = DomainSpec.uniform(1, R=1.0, eps1=1e-6, eps2=0.5)
        alpha = choose_scale(data, spec, 1.0)
        assert alpha == pytest.approx(math.sqrt(0.09 / 0.5), rel=1e-12)
        rng = np.random.default_rng(8)
        # the eigenvalue bound binds on the first two datasets, the mean bound on the last
        for rows in (data.rows, rng.normal(size=(30, 2)) + [0.3, -0.1],
                     np.array([[8.0], [12.0]])):
            spec = DomainSpec.uniform(rows.shape[1], R=1.0, eps1=1e-8, eps2=0.25)
            alpha = choose_scale(Dataset(rows), spec, 1.05)
            for c in 10.0 ** np.arange(-9, 10, 3):
                assert choose_scale(Dataset(c * rows), spec, 1.05) == pytest.approx(
                    c * alpha, rel=1e-12)

    def test_margin_only(self):
        data = Dataset([-0.70710678, 0.70710678])  # mean 0, var 0.5
        spec = DomainSpec.uniform(1, R=1.0, eps1=1e-6, eps2=0.5)
        assert choose_scale(data, spec, 1.1) == pytest.approx(1.1)

    def test_degenerate_data_flagged(self):
        data = Dataset([5.0, 5.0, 5.0])
        spec = DomainSpec.uniform(1, R=1.0, eps1=1e-6, eps2=0.5)
        with pytest.warns(UserWarning):
            alpha = choose_scale(data, spec, 1.0)
        assert alpha == pytest.approx(5.0)

    def test_scaled_data_passes_upper_bounds(self):
        rng = np.random.default_rng(3)
        spec = DomainSpec.uniform(2, R=1.0, eps1=1e-8, eps2=0.25)
        for _ in range(10):
            data = Dataset(rng.normal(size=(30, 2)) * rng.uniform(0.1, 50) +
                           rng.uniform(-20, 20, 2))
            alpha = choose_scale(data, spec, 1.0)
            report = check_domain(compute_mle(scale_dataset(data, alpha)), spec)
            assert report.mean_slack >= -1e-12
            assert np.all(report.upper_slack >= -1e-12)

    def test_rejects_margin_below_one(self):
        with pytest.raises(InvalidInputError):
            choose_scale(Dataset([0.0, 1.0]), DomainSpec.uniform(1), 0.9)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        data = Dataset(rng.normal(size=(20, 3)) * 1e-7)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.rows, data.rows)

    def test_header_skipping(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1.5,2.5\n3.5,4.5\n")
        d = load_csv(path, header=True)
        assert d.n == 2 and d.m == 2
        assert d.rows[0, 0] == 1.5

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops\n")
        with pytest.raises(InvalidInputError):
            load_csv(path)


class TestLogGamma:
    def test_matches_scipy_on_integers_and_half_integers(self):
        # every integer and half-integer in [0.5, 1e6], plus m/2 for m <= 12
        x = np.concatenate([np.arange(1, 2_000_001) / 2.0, np.arange(1, 13) / 2.0])
        got = log_gamma(x)
        want = special.gammaln(x)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_scalar_and_shape(self):
        assert isinstance(log_gamma(3), float)
        assert log_gamma(np.float64(5.0)) == math.lgamma(5.0)
        # repeated arguments (the shifted copies of a multigamma sweep) keep
        # their positions
        x = (np.arange(3, 9)[:, None] - np.arange(1, 3)) / 2.0
        got = log_gamma(x)
        assert got.shape == x.shape
        assert got.tolist() == [[math.lgamma(v) for v in row] for row in x.tolist()]
        assert log_gamma(np.empty((0, 2))).shape == (0, 2)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, 0.0]))


class TestXlogy:
    def test_zero_x_gives_zero(self):
        y = np.array([0.0, 0.5, 3.0])
        got = xlogy(np.zeros(3), y)
        assert np.array_equal(got, special.xlogy(np.zeros(3), y))
        assert np.array_equal(got, np.zeros(3))

    def test_matches_scipy_for_positive_x(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1e4, 1000)
        y = rng.uniform(1e-300, 1e4, 1000)
        got = xlogy(x, y)
        want = special.xlogy(x, y)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
