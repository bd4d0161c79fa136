"""Every CLI report validates against the schema shipped in docs/."""

import json
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from unml import genlog_sample
from unml.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json")
    .read_text())


@pytest.fixture(scope="module")
def validator():
    return jsonschema.Draft7Validator(SCHEMA)


def _blobs_csv(path):
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.normal(0, 1, 40), rng.normal(9, 1, 40)])
    np.savetxt(path, x.reshape(-1, 1), delimiter=",", fmt="%.17g")


def test_select_report(tmp_path, capsys, validator):
    csv = tmp_path / "b.csv"
    _blobs_csv(csv)
    out = tmp_path / "r.json"
    assert main(["select", str(csv), "--k-max", "3", "--restarts", "2",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    validator.validate(json.loads(out.read_text()))


def test_genlog_report(tmp_path, capsys, validator):
    csv = tmp_path / "g.csv"
    np.savetxt(csv, genlog_sample(30, 1.0, seed=2).reshape(-1, 1), delimiter=",")
    out = tmp_path / "r.json"
    assert main(["genlog", str(csv), "--output", str(out)]) == 0
    capsys.readouterr()
    validator.validate(json.loads(out.read_text()))


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "r.json"
    assert main(["verify", "--m", "1", "--n", "3", "--samples", "20000",
                 "--output", str(out)]) == 0
    return json.loads(out.read_text())


def test_verify_report(verify_report, validator):
    validator.validate(verify_report)
    assert 1.0 <= verify_report["effective_samples"] <= verify_report["accepted"]
    assert 0.0 < verify_report["max_weight_share"] <= 1.0


@pytest.mark.parametrize("key", ["effective_samples", "max_weight_share"])
def test_verify_diagnostics_required(verify_report, validator, key):
    report = {k: v for k, v in verify_report.items() if k != key}
    assert not validator.is_valid(report)


@pytest.mark.parametrize("key, value", [("effective_samples", 0.0),
                                        ("max_weight_share", 0.0),
                                        ("max_weight_share", 1.5)])
def test_verify_diagnostics_range(verify_report, validator, key, value):
    assert not validator.is_valid({**verify_report, key: value})


def test_scale_report(tmp_path, capsys, validator):
    csv = tmp_path / "b.csv"
    _blobs_csv(csv)
    out = tmp_path / "r.json"
    assert main(["scale", str(csv), "--scaled-output", str(tmp_path / "s.csv"),
                 "--output", str(out)]) == 0
    capsys.readouterr()
    validator.validate(json.loads(out.read_text()))
