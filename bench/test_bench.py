"""Tests of the benchmark's own parts: generator, reference checks, spans,
calibration.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calib  # noqa: E402
import gen  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    wl = gen.WORKLOADS["select-restarts"]
    paths = (str(tmp_path / "in.csv"), str(tmp_path / "out.json"))
    a = gen.prepare(wl, 7, 3, *paths)
    b = gen.prepare(wl, 7, 3, *paths)
    assert a.argv == b.argv
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(np.loadtxt(paths[0], delimiter=",", ndmin=2), a.data)
    other_seed = gen.prepare(wl, 8, 3, *paths)
    other_op = gen.prepare(wl, 7, 4, *paths)
    assert not np.array_equal(a.data, other_seed.data)
    assert not np.array_equal(a.data, other_op.data)
    assert a.argv != other_seed.argv


def test_planted_blobs_are_balanced_and_spaced():
    x = gen.planted_blobs(243, 3, 4, np.random.default_rng(0))
    assert x.shape == (243, 3)
    blob = np.rint(x[:, 0] / gen.BLOB_SPACING).astype(int)
    assert np.bincount(blob).tolist() == [61, 61, 61, 60]


@pytest.fixture(scope="module")
def select_case(tmp_path_factory):
    from unml.cli import main

    tmp = tmp_path_factory.mktemp("select")
    data = gen.planted_blobs(90, 2, 3, np.random.default_rng(5))
    csv_path, out = tmp / "in.csv", tmp / "out.json"
    np.savetxt(csv_path, data, delimiter=",", fmt="%.17g")
    assert main(["select", str(csv_path), "--k-max", "4", "--restarts", "2",
                 "--output", str(out)]) == 0
    return json.loads(out.read_text()), data


@pytest.fixture(scope="module")
def validator():
    return refcheck.load_validator(ROOT)


def test_genuine_select_report_passes(select_case, validator):
    report, data = select_case
    assert refcheck.check_report(validator, report, data) == []


# log_norm alone breaks the total identity at every K; moved together with the
# total, it is caught by the closed form (K=1) and the direct split sum (K=2)
@pytest.mark.parametrize("k, with_total", [(1, False), (2, False), (3, False),
                                           (4, False), (1, True), (2, True)])
def test_log_norm_perturbed_by_1e_6_is_rejected(select_case, validator, k, with_total):
    report, data = select_case
    bad = copy.deepcopy(report)
    entry = next(e for e in bad["entries"] if e["k"] == k)
    delta = 1e-6 * abs(entry["log_norm"])
    entry["log_norm"] += delta
    if with_total:
        entry["total"] += delta
    assert refcheck.check_report(validator, bad, data)


def test_data_term_perturbed_by_1e_6_is_rejected(select_case, validator):
    report, data = select_case
    bad = copy.deepcopy(report)
    entry = bad["entries"][0]
    delta = 1e-6 * abs(entry["data_term"])
    entry["data_term"] += delta
    entry["total"] += delta
    assert any("data_term" in f for f in refcheck.check_report(validator, bad, data))


def test_selected_k_not_argmin_is_rejected(select_case, validator):
    report, data = select_case
    bad = copy.deepcopy(report)
    bad["selected_k"] = next(e["k"] for e in bad["entries"] if e["k"] != report["selected_k"])
    fails = refcheck.check_report(validator, bad, data)
    assert any("argmin" in f for f in fails)


def test_tie_goes_to_smaller_k(select_case, validator):
    report, data = select_case
    tied = copy.deepcopy(report)
    low = min(e["total"] for e in tied["entries"]) - 1.0
    for e in tied["entries"][1:3]:
        e["total"] = low
    tied["selected_k"] = tied["entries"][2]["k"]
    assert any("argmin" in f for f in refcheck.check_report(validator, tied, data))
    tied["selected_k"] = tied["entries"][1]["k"]
    assert not any("argmin" in f for f in refcheck.check_report(validator, tied, data))


def test_schema_violation_is_rejected(select_case, validator):
    report, data = select_case
    bad = copy.deepcopy(report)
    bad["unexpected"] = 1
    assert refcheck.check_report(validator, bad, data)[0].startswith("schema:")


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                    ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    calls, total, self_s = tracer.layer_totals()
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert total["b"] == pytest.approx(4.0)
    assert self_s["a"] == pytest.approx(6.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert self_s["c"] == pytest.approx(1.0)


def test_tracer_restores_patched_names():
    import unml.cli
    import unml.mixture

    before = unml.cli.best_clustering, unml.mixture.cluster
    tracer = spans.Tracer()
    tracer.install()
    assert unml.mixture.cluster is not before[1]
    tracer.uninstall()
    assert (unml.cli.best_clustering, unml.mixture.cluster) == before


def test_nominal_speed_scales_by_the_bracketing_kernels():
    nominal = calib.NOMINAL_S
    ref = calib.at_nominal_speed([1.0, 1.0, 3.0], [nominal, nominal, 2 * nominal, 2 * nominal])
    assert ref == pytest.approx([1.0, 1.0 / 1.5, 1.5])
