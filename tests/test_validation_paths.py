"""Error-path coverage for argument validation across the package."""

import json

import numpy as np
import pytest

from unml import (
    Assignment,
    Dataset,
    DomainSpec,
    InfeasibleKError,
    InvalidAssignmentError,
    InvalidInputError,
    SingularCovarianceError,
    best_clustering,
    check_domain,
    choose_scale,
    cluster,
    complete_data_term,
    compute_mle,
    eigen_sym,
    exact_log_norm_1d,
    genlog_inverse_cdf,
    genlog_sample,
    ks_gamma_check,
    log_mixture_norm,
    log_multivariate_gamma,
    mc_log_norm_dataspace,
    mixture_norm_bruteforce,
    quad_log_norm_1d,
    select,
)
from unml.cli import main

SPEC_1D = DomainSpec.uniform(1, R=1.0, eps1=0.01, eps2=0.25)
SPEC_2D = DomainSpec.uniform(2, R=1.0, eps1=0.01, eps2=0.25)


@pytest.mark.parametrize("call, exc", [
    # the ids are written out, so that removing a row renames no other row
    pytest.param(lambda: Dataset(np.zeros((2, 2, 2))), InvalidInputError,
                 id="<lambda>-InvalidInputError0"),
    pytest.param(lambda: eigen_sym(np.zeros((2, 3))), InvalidInputError,
                 id="<lambda>-InvalidInputError1"),
    pytest.param(lambda: choose_scale(Dataset([0.0, 1.0]), SPEC_2D), InvalidInputError,
                 id="<lambda>-InvalidInputError2"),
    pytest.param(lambda: log_multivariate_gamma(0, 1.0), InvalidInputError,
                 id="<lambda>-InvalidInputError3"),
    pytest.param(lambda: exact_log_norm_1d(5, SPEC_2D), InvalidInputError,
                 id="<lambda>-InvalidInputError4"),
    pytest.param(lambda: complete_data_term(Dataset([0.0, 1.0]),
                                            Assignment(labels=[1, 1, 1], k=1)),
                 InvalidAssignmentError,
                 id="<lambda>-InvalidAssignmentError"),
    pytest.param(lambda: log_mixture_norm(0, 5, SPEC_1D), InvalidInputError,
                 id="<lambda>-InvalidInputError5"),
    pytest.param(lambda: cluster(Dataset([0.0, 1.0, 2.0, 3.0]), 0, 0),
                 InvalidInputError,
                 id="<lambda>-InvalidInputError6"),
    pytest.param(lambda: cluster(Dataset(np.full((10, 1), 3.0)), 1, 0),
                 SingularCovarianceError,
                 id="<lambda>-SingularCovarianceError"),
    pytest.param(lambda: best_clustering(Dataset([0.0, 1.0, 2.0, 3.0]), 2, 0, restarts=0),
                 InvalidInputError,
                 id="<lambda>-InvalidInputError8"),
    pytest.param(lambda: select(Dataset([0.0, 1.0, 2.0, 3.0]), [], 0, eps1=0.01),
                 InvalidInputError,
                 id="<lambda>-InvalidInputError9"),
    pytest.param(lambda: select(Dataset([0.0, 1.0, 2.0, 3.0]), [0, 1], 0, eps1=0.01),
                 InvalidInputError,
                 id="<lambda>-InvalidInputError10"),
    pytest.param(lambda: mc_log_norm_dataspace(2, SPEC_2D, 10_000, 0), InvalidInputError,
                 id="<lambda>-InvalidInputError11"),
    pytest.param(lambda: quad_log_norm_1d(1, SPEC_1D), InvalidInputError,
                 id="<lambda>-InvalidInputError12"),
    pytest.param(lambda: mixture_norm_bruteforce(0, 4, SPEC_1D), InvalidInputError,
                 id="<lambda>-InvalidInputError13"),
    pytest.param(lambda: ks_gamma_check(0, 1.0, 200, 0), InvalidInputError,
                 id="<lambda>-InvalidInputError14"),
    pytest.param(lambda: ks_gamma_check(5, -1.0, 200, 0), InvalidInputError,
                 id="<lambda>-InvalidInputError15"),
    pytest.param(lambda: genlog_inverse_cdf(1.0, 1.0), InvalidInputError,
                 id="<lambda>-InvalidInputError16"),
    pytest.param(lambda: genlog_sample(-1, 1.0, 0), InvalidInputError,
                 id="<lambda>-InvalidInputError17"),
])
def test_rejects_invalid_arguments(call, exc):
    with pytest.raises(exc):
        call()


def test_all_k_infeasible_is_an_error():
    with pytest.raises(InfeasibleKError):
        select(Dataset([0.0, 1.0, 2.0]), [4, 5], 0, eps1=0.01)


def test_mixture_norm_needs_feasible_k_for_data():
    # a report is still produced when at least one candidate is feasible
    report = select(Dataset([0.0, 1.0, 2.0, 3.5]), [1, 9], 0, restarts=1, eps1=0.01)
    assert report.selected_k == 1
    assert report.skipped[0].k == 9


def test_select_report_is_internally_consistent(tmp_path, capsys):
    """Totals decompose, and the published labels reproduce the data term."""
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0, 1, 50), rng.normal(9, 1, 50)])
    csv = tmp_path / "b.csv"
    np.savetxt(csv, x.reshape(-1, 1), delimiter=",", fmt="%.17g")
    out = tmp_path / "r.json"
    assert main(["select", str(csv), "--k-max", "3", "--restarts", "2",
                 "--seed", "4", "--output", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    spec = DomainSpec.uniform(1, R=report["spec"]["R"],
                              eps1=report["spec"]["eps1"][0],
                              eps2=report["spec"]["eps2"][0])
    scaled = Dataset(x.reshape(-1, 1) / report["alpha"])
    assert check_domain(compute_mle(scaled), spec).ok
    for entry in report["entries"]:
        assert entry["total"] == pytest.approx(
            entry["data_term"] + entry["log_norm"], abs=1e-12)
        z = Assignment(labels=entry["labels"], k=entry["k"])
        assert complete_data_term(scaled, z) == pytest.approx(
            entry["data_term"], rel=1e-12)
        assert log_mixture_norm(entry["k"], scaled.n, spec) == pytest.approx(
            entry["log_norm"], rel=1e-12)
