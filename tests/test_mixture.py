import math
import warnings
import zlib

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, xlogy

import unml.mixture as mixture
import unml.stats as stats
from unml import (
    Assignment,
    ClusterFit,
    Dataset,
    DomainSpec,
    InfeasibleKError,
    InvalidAssignmentError,
    SingularCovarianceError,
    best_clustering,
    choose_scale,
    cluster,
    codelength_difference,
    complete_data_term,
    compute_mle,
    derive_eps1,
    fit_k_range,
    gaussian_codelength,
    gaussian_data_term,
    log_mixture_norm,
    log_norm_bound,
    scale_dataset,
    select,
)

SPEC_1D = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)

LOG_2PI_E = math.log(2 * math.pi * math.e)


def two_blob_data(seed, n_per=60, gap=10.0, m=1, sigma=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sigma, size=(n_per, m))
    b = rng.normal(gap, sigma, size=(n_per, m))
    return Dataset(np.vstack([a, b]))


def random_valid_assignment(rng, n, m, k):
    """Random labels with every cluster size at least m + 1."""
    while True:
        labels = rng.integers(1, k + 1, n)
        counts = np.bincount(labels - 1, minlength=k)
        if np.all(counts >= m + 1):
            return Assignment(labels=labels, k=k)


class TestAssignment:
    def test_counts_derived(self):
        z = Assignment(labels=[1, 2, 2, 1, 1], k=2)
        assert z.counts.tolist() == [3, 2]
        assert z.n == 5

    def test_label_range_enforced(self):
        with pytest.raises(InvalidAssignmentError):
            Assignment(labels=[0, 1], k=2)
        with pytest.raises(InvalidAssignmentError):
            Assignment(labels=[1, 3], k=2)


class TestCompleteDataTerm:
    def test_single_cluster_equals_gaussian_term(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.normal(size=(25, 2)))
        z = Assignment(labels=np.ones(25, dtype=int), k=1)
        expected = gaussian_data_term(compute_mle(data), 25)
        assert complete_data_term(data, z) == expected  # exact, mixing term is zero

    def test_two_cluster_hand_value(self):
        # clusters {0, 2} and {10, 12}: each has variance 1, weights 1/2
        data = Dataset([0.0, 2.0, 10.0, 12.0])
        z = Assignment(labels=[1, 1, 2, 2], k=2)
        expected = 4 * math.log(2.0) + 2 * LOG_2PI_E
        assert complete_data_term(data, z) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(8.4484, abs=5e-4)

    def test_undersized_cluster_rejected(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        z = Assignment(labels=[1, 1, 1, 2], k=2)  # cluster 2 has 1 < m + 1 points
        with pytest.raises(InvalidAssignmentError):
            complete_data_term(data, z)

    def test_singular_cluster_rejected(self):
        data = Dataset([5.0, 5.0, 0.0, 1.0])
        z = Assignment(labels=[1, 1, 2, 2], k=2)
        with pytest.raises(SingularCovarianceError):
            complete_data_term(data, z)

    def test_empty_cluster_allowed(self):
        data = Dataset([0.0, 2.0, 4.0])
        z = Assignment(labels=[1, 1, 1], k=2)
        expected = -3 * math.log(3 / 3) + gaussian_data_term(compute_mle(data), 3)
        assert complete_data_term(data, z) == pytest.approx(expected, rel=1e-12)


class TestCodelengthDifference:
    def test_identical_assignments(self):
        data = two_blob_data(1)
        z = random_valid_assignment(np.random.default_rng(0), data.n, data.m, 2)
        assert codelength_difference(data, z, z) == 0.0

    def test_hand_expansion_oracle_m1(self):
        data = Dataset([0.0, 2.0, 10.0, 12.0])
        z1 = Assignment(labels=[1, 1, 2, 2], k=2)
        z2 = Assignment(labels=[1, 1, 1, 1], k=1)
        # expansion: -sum h log(h/n) + sum (h/2) log(2 pi e) + sum (h/2) log var
        var_full = np.var([0.0, 2.0, 10.0, 12.0])
        t1 = 4 * math.log(2.0) + 2 * LOG_2PI_E  # per-cluster vars are 1
        t2 = 2 * LOG_2PI_E + 2 * math.log(var_full)
        assert codelength_difference(data, z1, z2) == pytest.approx(t1 - t2, rel=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for m in (1, 2):
            data = Dataset(rng.normal(size=(40, m)) * rng.uniform(0.5, 4.0, m))
            z1 = random_valid_assignment(rng, 40, m, 2)
            z2 = random_valid_assignment(rng, 40, m, 3)
            base = codelength_difference(data, z1, z2)
            for alpha in (0.1, 7.0, 1000.0):
                scaled = scale_dataset(data, alpha)
                diff = codelength_difference(scaled, z1, z2)
                assert abs(diff - base) <= 1e-8 * max(1.0, abs(base))


class TestLogMixtureNorm:
    def test_k1_equals_single_gaussian_bound(self):
        for n in (2, 5, 12, 40):
            assert log_mixture_norm(1, n, SPEC_1D) == log_norm_bound(n, SPEC_1D)

    def test_k2_n4_three_valid_compositions(self):
        # sizes (0,4), (2,2), (4,0); parts of size 1 contribute nothing
        t4 = log_norm_bound(4, SPEC_1D)
        t2 = log_norm_bound(2, SPEC_1D)
        terms = [
            t4,                                                   # (0, 4)
            math.log(math.comb(4, 2)) + 4 * math.log(0.5) + 2 * t2,  # (2, 2)
            t4,                                                   # (4, 0)
        ]
        expected = np.logaddexp.reduce(terms)
        assert log_mixture_norm(2, 4, SPEC_1D) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_k(self):
        for n in (4, 9, 15, 3000):
            vals = [log_mixture_norm(k, n, SPEC_1D) for k in (1, 2, 3, 4)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_n_zero(self):
        assert log_mixture_norm(3, 0, SPEC_1D) == 0.0

    @staticmethod
    def recurrence_entry(prev, log_t, nn):
        """C_k(nn) from row k - 1 by the multinomial-weighted sum, term by term."""
        if nn == 0:
            return prev[0] + log_t[0]
        s = np.arange(nn + 1)
        lw = (gammaln(nn + 1) - gammaln(s + 1) - gammaln(nn - s + 1)
              + xlogy(s, s / nn) + xlogy(nn - s, (nn - s) / nn))
        return logsumexp(lw + prev[s] + log_t[nn - s])

    def recurrence_table(self, k_max, n, spec):
        log_t = mixture._log_cluster_terms(n, spec)
        rows = [log_t]
        for _ in range(k_max - 1):
            rows.append(np.array([self.recurrence_entry(rows[-1], log_t, nn)
                                  for nn in range(n + 1)]))
        return np.array(rows)

    @pytest.mark.parametrize("m", [1, 3, 22, 26])
    def test_every_entry_matches_recurrence(self, m):
        spec = DomainSpec.uniform(m, R=1.0, eps1=1e-8, eps2=0.25)
        table = mixture._mixture_norm_table(8, 300, spec)
        expected = self.recurrence_table(8, 300, spec)
        no_mass = np.isneginf(expected)
        assert np.array_equal(np.isneginf(table), no_mass)
        np.testing.assert_allclose(table[~no_mass], expected[~no_mass], rtol=1e-12, atol=0)

    def test_large_n_column_matches_recurrence(self):
        spec = DomainSpec.uniform(2, eps1=1e-4)
        n = 2000
        table = mixture._mixture_norm_table(4, n, spec)
        prev = self.recurrence_table(3, n, spec)[-1]
        expected = self.recurrence_entry(prev, mixture._log_cluster_terms(n, spec), n)
        assert table[3, n] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k, n, spec, expected", [
        (4, 500, SPEC_1D, 32.09727429995518),
        (8, 240, DomainSpec.uniform(3, eps1=1e-8), 716.8394611891401),
        (4, 3000, DomainSpec.uniform(2, eps1=1e-4), 131.67375648345745),
    ])
    def test_pinned_values(self, k, n, spec, expected):
        # Recorded from the term-by-term recurrence.
        assert log_mixture_norm(k, n, spec) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_at_most_m_has_no_mass(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = mixture._mixture_norm_table(3, n, DomainSpec.uniform(3))
        expected = np.full(n + 1, -np.inf)
        expected[0] = 0.0
        for row in table:
            np.testing.assert_array_equal(row, expected)


class TestCluster:
    def test_k1_all_ones(self):
        data = two_blob_data(2)
        z = cluster(data, 1, seed=0)
        assert np.all(z.labels == 1)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(5)
        n_per = 40
        raw = Dataset(np.concatenate([rng.normal(0, 1, n_per),
                                      rng.normal(100, 1, n_per)]))
        alpha = choose_scale(raw, SPEC_1D, 1.05)
        data = scale_dataset(raw, alpha)
        z = cluster(data, 2, seed=3)
        threshold = 50.0 / alpha
        reference = (data.rows[:, 0] > threshold).astype(int)
        got = z.labels - 1
        agree = np.mean(got == reference)
        assert agree in (0.0, 1.0)  # exact separation up to label swap

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleKError):
            cluster(Dataset([0.0, 1.0, 2.0]), 2, seed=0)

    def test_deterministic(self):
        data = two_blob_data(9, n_per=30)
        a = cluster(data, 2, seed=42)
        b = cluster(data, 2, seed=42)
        assert np.array_equal(a.labels, b.labels)

    def test_minimum_cluster_sizes(self):
        data = two_blob_data(11, n_per=20, m=1)
        for k in (2, 3, 4):
            z = cluster(data, k, seed=1)
            assert np.all(z.counts >= data.m + 1)


def tie_heavy(t):
    """Small integer grids with a few jittered rows: clusters of repeated points."""
    rng = np.random.default_rng(t)
    m = 1 + t % 2
    x = rng.integers(0, 4, (rng.integers(8, 30), m)).astype(float)
    x[:rng.integers(0, 6)] += 0.01 * rng.standard_normal((1, m))
    return Dataset(x)


class TestRepairs:
    """Descents that reach the size and singular-covariance repairs."""

    @pytest.mark.parametrize("t, k, labels, data_term", [
        (0, 3, [2, 3, 3, 1, 1, 1, 1, 1, 2, 3, 2, 3, 3, 2, 3, 3, 3, 3, 2, 1, 2, 3, 1, 1,
                2, 3], 38.1029860548384),
        (1, 3, [2, 3, 2, 3, 2, 1, 3, 3, 1, 2, 2, 2, 1, 3, 1, 2, 1, 2], -27.481393317265365),
        (2, 2, [1, 1, 1, 1, 2, 1, 1, 1, 2, 2, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                1, 1], 39.155425569105496),
    ])
    def test_repaired_descents_are_pinned(self, monkeypatch, t, k, labels, data_term):
        data = tie_heavy(t)
        z = cluster(data, k, t)
        assert z.labels.tolist() == labels
        assert complete_data_term(data, z) == pytest.approx(data_term, rel=1e-9)
        monkeypatch.setattr(mixture, "_MAX_REPAIRS", 0)  # the pinned result needs a repair
        with pytest.raises(SingularCovarianceError, match="after 0 repair attempts"):
            cluster(data, k, t)

    def test_repair_cap(self):
        data = tie_heavy(0)
        with pytest.raises(SingularCovarianceError,
                           match="cluster 3 stayed singular after 10 repair attempts"):
            cluster(data, 4, 0)

    def test_no_donor_left(self):
        data = tie_heavy(34)
        with pytest.raises(SingularCovarianceError, match="no donor points remain"):
            cluster(data, 3, 34)

    @pytest.mark.parametrize("t, failing, data_term", [
        (11, [0, 3, 5, 6, 7], 9.553541590127804),
        (16, [0, 1, 5, 6, 7], 34.56005067514629),
    ])
    def test_failed_restarts_are_skipped(self, t, failing, data_term):
        data = tie_heavy(t)
        for r in failing:
            with pytest.raises(SingularCovarianceError):
                mixture._descend(data, 3, mixture._child_seed(0, 3, r))
        fits, _ = fit_k_range(data, [3], 0, 8)
        best = mixture._descend(data, 3, mixture._child_seed(0, 3, 2))
        assert np.array_equal(fits[0].assignment.labels, best.assignment.labels)
        assert fits[0].data_term == best.data_term
        assert fits[0].data_term == pytest.approx(data_term, rel=1e-12)

    def test_all_restarts_failing_raise_the_first_error(self):
        data = tie_heavy(34)  # restart 0 fails on cluster 1, restart 1 on cluster 2
        with pytest.raises(SingularCovarianceError, match="cluster 1 has singular"):
            best_clustering(data, 3, 0, restarts=2)


class TestRoundingFloor:
    """Eigenvalues at the scatter's rounding level count as singular."""

    def test_rounding_noise_cluster_is_repaired(self, monkeypatch):
        data = tie_heavy(259)
        fit = mixture._descend(data, 3, 259)
        assert fit.assignment.labels.tolist() == [1, 3, 1, 3, 2, 3, 2, 1, 3, 2, 1, 1]
        assert fit.data_term == pytest.approx(-28.217354811341124, rel=1e-9)
        assert fit.min_eigenvalue == pytest.approx(1.536406071347763e-08, rel=1e-9)
        # without the floor the descent prices a cluster of repeated points
        monkeypatch.setattr(stats, "_rounding_floor", lambda reach, counts, lam: 0 * reach)
        assert mixture._descend(data, 3, 259).min_eigenvalue < 1e-20

    def test_far_off_tight_cluster_is_kept(self):
        rng = np.random.default_rng(7)
        tight = 1000.0 + 1e-6 * rng.standard_normal((40, 2))
        data = Dataset(np.vstack([rng.standard_normal((40, 2)), tight]))
        fits, _ = fit_k_range(data, [2], 0, 4)
        labels = fits[0].assignment.labels
        assert len(set(labels[:40])) == 1 and set(labels[40:]) == {3 - labels[0]}
        smallest = np.linalg.eigvalsh(np.cov(tight.T, bias=True))[0]
        assert fits[0].min_eigenvalue == pytest.approx(smallest, rel=1e-6)
        assert fits[0].min_eigenvalue < 1e-12

    def test_floor_scales_like_an_eigenvalue(self):
        reach, counts, lam = np.array([3.0, 0.5]), np.array([5, 40]), np.array([2.0, 1e-3])
        base = stats._rounding_floor(reach, counts, lam)
        for alpha in (1e-3, 7.0, 1e4):
            scaled = stats._rounding_floor(reach * alpha, counts, lam * alpha ** 2)
            np.testing.assert_allclose(scaled, base * alpha ** 2, rtol=1e-12)


def planted_blobs(seed, n=240, m=3, k=4):
    """Unit-variance blobs 10 apart on the first axis, balanced and shuffled."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    rng.shuffle(labels)
    centers = np.zeros((k, m))
    centers[:, 0] = 10.0 * np.arange(k)
    return Dataset(centers[labels] + rng.standard_normal((n, m)))


def partition_crc(labels):
    """crc32 of the labels renumbered in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.uint8)
    rank[np.argsort(first)] = np.arange(len(first))
    return zlib.crc32(rank[inverse].tobytes())


class TestStackedRestarts:
    """The restarts of one K run as one descent, each as it would run alone."""

    @pytest.fixture(params=["shipped", "one_restart_per_block"])
    def blocks(self, request, monkeypatch):
        if request.param == "one_restart_per_block":
            monkeypatch.setattr(mixture, "_RESTART_BLOCK", 1)

    @staticmethod
    def best_single(data, k, seed, restarts):
        """Best of single-seed descents, in restart order; or the first error."""
        fits, errors = [], []
        for r in range(restarts):
            try:
                fits.append(mixture._descend(data, k, mixture._child_seed(seed, k, r)))
            except SingularCovarianceError as exc:
                errors.append(exc)
        return min(fits, key=lambda fit: fit.data_term) if fits else errors[0]

    def assert_best_of_singles(self, data, k, seed, restarts):
        want = self.best_single(data, k, seed, restarts)
        if isinstance(want, SingularCovarianceError):
            with pytest.raises(SingularCovarianceError) as info:
                mixture._best_fit(data, k, seed, restarts)
            assert str(info.value) == str(want)
            return
        got = mixture._best_fit(data, k, seed, restarts)
        assert got.assignment.labels.tolist() == want.assignment.labels.tolist()
        assert repr(got.data_term) == repr(want.data_term)
        assert got.min_eigenvalue == want.min_eigenvalue
        assert (got.rounds, got.converged) == (want.rounds, want.converged)

    def test_tie_heavy(self, blocks):
        for t in range(50):
            data = tie_heavy(t)
            for k in (2, 3, 4):
                if data.n >= k * (data.m + 1):
                    self.assert_best_of_singles(data, k, t, 8)

    def test_planted_blobs(self, blocks):
        data = planted_blobs(5)
        for k in range(2, 9):
            self.assert_best_of_singles(data, k, 5, 16)

    def test_fit_k_range_is_pinned(self):
        # recorded before restarts were stacked; the partitions are unchanged
        # and data_term moved by at most 4e-15 relative
        data = planted_blobs(6)
        fits, _ = fit_k_range(data, range(1, 9), 6, 16)
        expected = [
            (1, 1597.798857242818, 3160482835), (2, 1517.608191075427, 3086725000),
            (3, 1438.572919683732, 8241286), (4, 1327.7592081200821, 824918795),
            (5, 1319.154078130952, 1164171394), (6, 1315.69951996068, 3303606850),
            (7, 1306.0936107752036, 1864449675), (8, 1299.1519864151448, 3524461297),
        ]
        assert [fit.assignment.k for fit in fits] == [k for k, _, _ in expected]
        for fit, (_, data_term, crc) in zip(fits, expected):
            assert fit.data_term == pytest.approx(data_term, rel=1e-12)
            assert partition_crc(fit.assignment.labels) == crc

    def test_round_cap_is_reported(self, monkeypatch):
        data = two_blob_data(9, n_per=30)
        fit = mixture._descend(data, 2, 42)
        assert fit.converged and 2 <= fit.rounds < mixture._MAX_ROUNDS
        fits, _ = fit_k_range(data, [1, 2], 0, 3)
        assert [(f.rounds, f.converged) for f in fits][0] == (2, True)
        monkeypatch.setattr(mixture, "_MAX_ROUNDS", 1)
        capped = mixture._descend(data, 2, 42)
        assert (capped.rounds, capped.converged) == (1, False)
        fits, _ = fit_k_range(data, [1, 2], 0, 3)
        assert all((f.rounds, f.converged) == (1, False) for f in fits)


class TestSelectK:
    def test_single_blob_selects_one(self):
        rng = np.random.default_rng(13)
        raw = Dataset(rng.normal(0.0, 1.0, size=80))
        report = select(raw, range(1, 4), seed=2, restarts=4, eps1=0.01)
        assert report.selected_k == 1

    def test_two_blobs_select_two(self):
        raw = two_blob_data(17, n_per=100, gap=12.0)
        report = select(raw, range(1, 5), seed=2, restarts=4, eps1=0.01)
        assert report.selected_k == 2
        totals = {e.k: e.total for e in report.entries}
        assert totals[2] < totals[1] and totals[2] < totals[3]

    def test_consistency_with_single_gaussian_path(self):
        rng = np.random.default_rng(19)
        raw = Dataset(rng.normal(0.0, 1.0, size=60))
        report = select(raw, [1], seed=0, restarts=1, eps1=0.01, margin=1.2)
        assert report.alpha == choose_scale(raw, SPEC_1D, 1.2)
        single = gaussian_codelength(scale_dataset(raw, report.alpha), SPEC_1D)
        entry = report.entries[0]
        assert entry.total == pytest.approx(single.total, rel=1e-12)

    def test_scaled_run_same_argmin_and_differences(self):
        raw = two_blob_data(29, n_per=60, gap=10.0)
        pre_scaled = Dataset(raw.rows / 1000.0)
        r1, r2 = (select(d, range(1, 4), seed=5, restarts=3, eps1=0.01)
                  for d in (raw, pre_scaled))
        assert r1.selected_k == r2.selected_k
        t1 = {e.k: e.total for e in r1.entries}
        t2 = {e.k: e.total for e in r2.entries}
        for ka in t1:
            for kb in t1:
                d1 = t1[ka] - t1[kb]
                d2 = t2[ka] - t2[kb]
                assert abs(d1 - d2) <= 1e-8 * max(1.0, abs(d1))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_selection_does_not_depend_on_the_units(self, seed):
        # at the default eps1, which is derived from the scaled data
        x = planted_blobs(seed).rows
        base = select(Dataset(x), range(1, 7), seed=3, restarts=8)
        assert base.selected_k == 4
        for c in (1e-6, 1e-3, 1e3):
            report = select(Dataset(c * x), range(1, 7), seed=3, restarts=8)
            assert report.selected_k == base.selected_k
            assert report.alpha == pytest.approx(c * base.alpha, rel=1e-12)
            for e, b in zip(report.entries, base.entries, strict=True):
                assert partition_crc(e.assignment.labels) == partition_crc(
                    b.assignment.labels)
                assert e.total == pytest.approx(b.total, rel=1e-9)

    def test_skipped_are_recorded(self):
        data = two_blob_data(3, n_per=4)  # n = 8, m = 1: k = 5 infeasible
        report = select(data, range(1, 6), seed=1, restarts=2, eps1=0.01)
        skipped = {s.k for s in report.skipped}
        assert 5 in skipped
        assert {e.k for e in report.entries} == {1, 2, 3, 4}

    def test_all_infeasible_raises(self):
        with pytest.raises(InfeasibleKError):
            select(Dataset([0.0, 1.0, 2.0]), [2, 3], seed=0, eps1=0.01)

    def test_more_restarts_never_worse(self):
        raw = two_blob_data(37, n_per=25, gap=6.0)
        alpha = choose_scale(raw, SPEC_1D, 1.05)
        data = scale_dataset(raw, alpha)
        for k in (2, 3):
            terms = []
            for restarts in (1, 2, 4, 8):
                z = best_clustering(data, k, seed=11, restarts=restarts)
                terms.append(complete_data_term(data, z))
            assert all(b <= a + 1e-12 for a, b in zip(terms, terms[1:]))


class TestFitRecords:
    def test_fits_carry_the_oracle_values(self):
        data = two_blob_data(41, n_per=25, m=2)
        fits, skipped = fit_k_range(data, range(1, 5), seed=3, restarts=3)
        assert [f.assignment.k for f in fits] == [1, 2, 3, 4] and skipped == []
        for fit in fits:
            z = fit.assignment
            assert fit.data_term == complete_data_term(data, z)
            smallest = min(compute_mle(Dataset(data.rows[z.labels == c + 1])).eigenvalues[0]
                           for c in range(z.k))
            assert fit.min_eigenvalue == smallest

    def test_best_fit_matches_best_clustering(self):
        data = two_blob_data(43, n_per=20, gap=4.0)
        fits, _ = fit_k_range(data, [3], seed=5, restarts=4)
        z = best_clustering(data, 3, seed=5, restarts=4)
        assert np.array_equal(fits[0].assignment.labels, z.labels)

    def test_derive_eps1_rule(self):
        def fit(lam):
            return ClusterFit(Assignment(labels=[1, 1, 1], k=1), 0.0, lam, 2, True)

        assert derive_eps1([fit(0.5), fit(0.02)], 0.25) == pytest.approx(0.002)
        assert derive_eps1([fit(1e-12)], 0.25) == 1e-8   # floor
        assert derive_eps1([fit(10.0)], 0.25) == 0.25    # cap
        assert derive_eps1([], 0.25) == 0.25             # no eigenvalue, only the cap
