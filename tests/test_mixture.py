import math

import numpy as np
import pytest

import unml.mixture as mixture
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
    select_k,
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

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            Assignment(labels=[1, 1, 2], k=2, counts=np.array([1, 2]))


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
        for n in (4, 9, 15):
            vals = [log_mixture_norm(k, n, SPEC_1D) for k in (1, 2, 3, 4)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_n_zero(self):
        assert log_mixture_norm(3, 0, SPEC_1D) == 0.0


class TestCluster:
    def test_k1_all_ones(self):
        data = two_blob_data(2)
        z = cluster(data, 1, SPEC_1D, seed=0)
        assert np.all(z.labels == 1)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(5)
        n_per = 40
        raw = Dataset(np.concatenate([rng.normal(0, 1, n_per),
                                      rng.normal(100, 1, n_per)]))
        alpha = choose_scale(raw, SPEC_1D, 1.05)
        data = scale_dataset(raw, alpha)
        z = cluster(data, 2, SPEC_1D, seed=3)
        threshold = 50.0 / alpha
        reference = (data.rows[:, 0] > threshold).astype(int)
        got = z.labels - 1
        agree = np.mean(got == reference)
        assert agree in (0.0, 1.0)  # exact separation up to label swap

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleKError):
            cluster(Dataset([0.0, 1.0, 2.0]), 2, SPEC_1D, seed=0)

    def test_deterministic(self):
        data = two_blob_data(9, n_per=30)
        a = cluster(data, 2, SPEC_1D, seed=42)
        b = cluster(data, 2, SPEC_1D, seed=42)
        assert np.array_equal(a.labels, b.labels)

    def test_minimum_cluster_sizes(self):
        data = two_blob_data(11, n_per=20, m=1)
        for k in (2, 3, 4):
            z = cluster(data, k, SPEC_1D, seed=1)
            assert np.all(z.counts >= data.m + 1)


def tie_heavy(t):
    """Small integer grids with a few jittered rows: clusters of repeated points."""
    rng = np.random.default_rng(t)
    m = 1 + t % 2
    x = rng.integers(0, 4, (rng.integers(8, 30), m)).astype(float)
    x[:rng.integers(0, 6)] += 0.01 * rng.standard_normal((1, m))
    spec = (DomainSpec.uniform(1, R=1, eps1=0.01, eps2=0.25) if m == 1 else
            DomainSpec.uniform(2, R=1, eps1=0.01, eps2=0.2, eps2_cap=0.2))
    return Dataset(x), spec


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
        data, spec = tie_heavy(t)
        z = cluster(data, k, spec, t)
        assert z.labels.tolist() == labels
        assert complete_data_term(data, z) == pytest.approx(data_term, rel=1e-9)
        monkeypatch.setattr(mixture, "_MAX_REPAIRS", 0)  # the pinned result needs a repair
        with pytest.raises(SingularCovarianceError, match="after 0 repair attempts"):
            cluster(data, k, spec, t)

    def test_repair_cap(self):
        data, spec = tie_heavy(0)
        with pytest.raises(SingularCovarianceError,
                           match="cluster 3 stayed singular after 10 repair attempts"):
            cluster(data, 4, spec, 0)

    def test_no_donor_left(self):
        data, spec = tie_heavy(34)
        with pytest.raises(SingularCovarianceError, match="no donor points remain"):
            cluster(data, 3, spec, 34)

    @pytest.mark.parametrize("t, failing, data_term", [
        (11, [0, 3, 5, 6, 7], 9.553541590127804),
        (16, [0, 1, 5, 6, 7], 34.56005067514629),
    ])
    def test_failed_restarts_are_skipped(self, t, failing, data_term):
        data, spec = tie_heavy(t)
        for r in failing:
            with pytest.raises(SingularCovarianceError):
                mixture._descend(data, 3, spec, mixture._child_seed(0, 3, r))
        fits, _ = fit_k_range(data, [3], spec, 0, 8)
        best = mixture._descend(data, 3, spec, mixture._child_seed(0, 3, 2))
        assert np.array_equal(fits[0].assignment.labels, best.assignment.labels)
        assert fits[0].data_term == best.data_term
        assert fits[0].data_term == pytest.approx(data_term, rel=1e-12)

    def test_all_restarts_failing_raise_the_first_error(self):
        data, spec = tie_heavy(34)  # restart 0 fails on cluster 1, restart 1 on cluster 2
        with pytest.raises(SingularCovarianceError, match="cluster 1 has singular"):
            best_clustering(data, 3, spec, 0, restarts=2)


class TestSelectK:
    def test_single_blob_selects_one(self):
        rng = np.random.default_rng(13)
        raw = Dataset(rng.normal(0.0, 1.0, size=80))
        alpha = choose_scale(raw, SPEC_1D, 1.05)
        data = scale_dataset(raw, alpha)
        report = select_k(data, range(1, 4), SPEC_1D, seed=2, restarts=4)
        assert report.selected_k == 1

    def test_two_blobs_select_two(self):
        raw = two_blob_data(17, n_per=100, gap=12.0)
        alpha = choose_scale(raw, SPEC_1D, 1.05)
        data = scale_dataset(raw, alpha)
        report = select_k(data, range(1, 5), SPEC_1D, seed=2, restarts=4)
        assert report.selected_k == 2
        totals = {e.k: e.total for e in report.entries}
        assert totals[2] < totals[1] and totals[2] < totals[3]

    def test_consistency_with_single_gaussian_path(self):
        rng = np.random.default_rng(19)
        raw = Dataset(rng.normal(0.0, 1.0, size=60))
        alpha = choose_scale(raw, SPEC_1D, 1.2)
        data = scale_dataset(raw, alpha)
        report = select_k(data, [1], SPEC_1D, seed=0, restarts=1)
        single = gaussian_codelength(data, SPEC_1D)
        entry = report.entries[0]
        assert entry.total == pytest.approx(single.total, rel=1e-12)

    def test_scaled_run_same_argmin_and_differences(self):
        raw = two_blob_data(29, n_per=60, gap=10.0)
        pre_scaled = Dataset(raw.rows / 1000.0)
        reports = []
        for d in (raw, pre_scaled):
            alpha = choose_scale(d, SPEC_1D, 1.05)
            scaled = scale_dataset(d, alpha)
            reports.append(select_k(scaled, range(1, 4), SPEC_1D, seed=5, restarts=3))
        r1, r2 = reports
        assert r1.selected_k == r2.selected_k
        t1 = {e.k: e.total for e in r1.entries}
        t2 = {e.k: e.total for e in r2.entries}
        for ka in t1:
            for kb in t1:
                d1 = t1[ka] - t1[kb]
                d2 = t2[ka] - t2[kb]
                assert abs(d1 - d2) <= 1e-8 * max(1.0, abs(d1))

    def test_skipped_are_recorded(self):
        data = two_blob_data(3, n_per=4)  # n = 8, m = 1: k = 5 infeasible
        report = select_k(data, range(1, 6), SPEC_1D, seed=1, restarts=2)
        skipped = {s.k for s in report.skipped}
        assert 5 in skipped
        assert {e.k for e in report.entries} == {1, 2, 3, 4}

    def test_all_infeasible_raises(self):
        with pytest.raises(InfeasibleKError):
            select_k(Dataset([0.0, 1.0, 2.0]), [2, 3], SPEC_1D, seed=0)

    def test_more_restarts_never_worse(self):
        raw = two_blob_data(37, n_per=25, gap=6.0)
        alpha = choose_scale(raw, SPEC_1D, 1.05)
        data = scale_dataset(raw, alpha)
        for k in (2, 3):
            terms = []
            for restarts in (1, 2, 4, 8):
                z = best_clustering(data, k, SPEC_1D, seed=11, restarts=restarts)
                terms.append(complete_data_term(data, z))
            assert all(b <= a + 1e-12 for a, b in zip(terms, terms[1:]))


class TestFitRecords:
    def test_fits_carry_the_oracle_values(self):
        data = two_blob_data(41, n_per=25, m=2)
        spec = DomainSpec.uniform(2, R=1.0, eps1=0.01, eps2=0.25)
        fits, skipped = fit_k_range(data, range(1, 5), spec, seed=3, restarts=3)
        assert [f.assignment.k for f in fits] == [1, 2, 3, 4] and skipped == []
        for fit in fits:
            z = fit.assignment
            assert fit.data_term == complete_data_term(data, z)
            smallest = min(compute_mle(Dataset(data.rows[z.labels == c + 1])).eigenvalues[0]
                           for c in range(z.k))
            assert fit.min_eigenvalue == smallest

    def test_best_fit_matches_best_clustering(self):
        data = two_blob_data(43, n_per=20, gap=4.0)
        fits, _ = fit_k_range(data, [3], SPEC_1D, seed=5, restarts=4)
        z = best_clustering(data, 3, SPEC_1D, seed=5, restarts=4)
        assert np.array_equal(fits[0].assignment.labels, z.labels)

    def test_derive_eps1_rule(self):
        def fit(lam):
            return ClusterFit(Assignment(labels=[1, 1, 1], k=1), 0.0, lam)

        assert derive_eps1([fit(0.5), fit(0.02)], 0.25) == pytest.approx(0.002)
        assert derive_eps1([fit(1e-12)], 0.25) == 1e-8   # floor
        assert derive_eps1([fit(10.0)], 0.25) == 0.25    # cap
        assert derive_eps1([], 0.25) == 0.25             # no eigenvalue, only the cap
