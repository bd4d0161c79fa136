import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unml
from unml import load_csv, select
from unml.cli import main


def write_blobs(path, seed=42, n_per=60, gap=10.0, factor=1.0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(0.0, 1.0, n_per), rng.normal(gap, 1.0, n_per)])
    np.savetxt(path, x.reshape(-1, 1) * factor, delimiter=",", fmt="%.17g")


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSelect:
    def test_two_blob_selection(self, tmp_path, capsys):
        csv = tmp_path / "blobs.csv"
        write_blobs(csv)
        code, out = run(["select", str(csv), "--k-min", "1", "--k-max", "3",
                         "--restarts", "3", "--seed", "7"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["selected_k"] == 2
        assert report["unit"] == "nats"
        assert report["alpha"] > 1.0
        ks = [e["k"] for e in report["entries"]]
        assert ks == [1, 2, 3]
        labels = report["entries"][1]["labels"]
        assert len(labels) == 120 and set(labels) == {1, 2}

    def test_bits_unit(self, tmp_path, capsys):
        csv = tmp_path / "blobs.csv"
        write_blobs(csv)
        args = ["select", str(csv), "--k-max", "2", "--restarts", "2", "--seed", "3"]
        code_n, out_n = run(args, capsys)
        code_b, out_b = run(args + ["--unit", "bits"], capsys)
        assert code_n == 0 and code_b == 0
        nats = json.loads(out_n)["entries"][0]["total"]
        bits = json.loads(out_b)["entries"][0]["total"]
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)

    def test_scaled_input_same_selection_and_differences(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_blobs(a, seed=11)
        write_blobs(b, seed=11, factor=1e-3)
        # a fixed eigenvalue floor keeps the normalization table common to both
        common = ["--k-min", "1", "--k-max", "3", "--restarts", "3",
                  "--seed", "5", "--eps1", "1e-4"]
        code1, out1 = run(["select", str(a), *common], capsys)
        code2, out2 = run(["select", str(b), *common], capsys)
        assert code1 == 0 and code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["selected_k"] == r2["selected_k"]
        t1 = {e["k"]: e["total"] for e in r1["entries"]}
        t2 = {e["k"]: e["total"] for e in r2["entries"]}
        for ka in t1:
            for kb in t1:
                d1, d2 = t1[ka] - t1[kb], t2[ka] - t2[kb]
                assert abs(d1 - d2) <= 1e-8 * max(1.0, abs(d1))

    def test_missing_file_exit_2_no_output(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["select", str(tmp_path / "nope.csv"),
                     "--output", str(out_path)])
        capsys.readouterr()
        assert code == 2
        assert not out_path.exists()

    def test_infeasible_exit_3(self, tmp_path, capsys):
        csv = tmp_path / "tiny.csv"
        np.savetxt(csv, np.array([[0.0], [1.0], [2.0]]), delimiter=",")
        code = main(["select", str(csv), "--k-min", "2", "--k-max", "3"])
        capsys.readouterr()
        assert code == 3

    def test_constant_column_singular_exit_4_no_report(self, tmp_path, capsys):
        csv = tmp_path / "const.csv"
        np.savetxt(csv, np.full((10, 1), 3.0), delimiter=",")
        out_path = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="degenerate data"):
            code = main(["select", str(csv), "--k-max", "1", "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "singular covariance" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("eps1", [1e-4, None])
    def test_cli_is_library_select(self, tmp_path, capsys, eps1):
        rng = np.random.default_rng(21)
        rows = np.concatenate([rng.normal(c, 1.0, (30, 2)) for c in (0.0, 8.0, 16.0)])
        csv = tmp_path / "blobs.csv"
        np.savetxt(csv, rows, delimiter=",", fmt="%.17g")
        eps1_flags = [] if eps1 is None else ["--eps1", repr(eps1)]
        code, out = run(["select", str(csv), "--k-max", "4", "--restarts", "3",
                         "--seed", "9", *eps1_flags], capsys)
        assert code == 0
        report = json.loads(out)
        lib = select(load_csv(csv), range(1, 5), seed=9, restarts=3, eps1=eps1)
        assert (lib.selected_k, lib.alpha, lib.seed, lib.restarts) == (
            report["selected_k"], report["alpha"], report["seed"], report["restarts"])
        assert report["spec"] == {"R": lib.spec.R, "eps1": lib.spec.eps1.tolist(),
                                  "eps2": lib.spec.eps2.tolist()}
        assert [e.k for e in lib.entries] == [e["k"] for e in report["entries"]]
        for e, r in zip(lib.entries, report["entries"]):
            assert e.assignment.labels.tolist() == r["labels"]
            assert (e.data_term, e.log_norm, e.total) == (
                r["data_term"], r["log_norm"], r["total"])
        assert [(s.k, s.reason) for s in lib.skipped] == [
            (s["k"], s["reason"]) for s in report["skipped"]]

    def test_eps2_is_priced_as_given(self, tmp_path, capsys):
        csv = tmp_path / "blobs.csv"
        write_blobs(csv)
        code, out = run(["select", str(csv), "--k-max", "2", "--restarts", "2",
                         "--eps2", "0.3"], capsys)
        assert code == 0
        assert json.loads(out)["spec"]["eps2"] == [0.3]

    def test_header_flag(self, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{v}" for v in rng.normal(0, 1, 40))
        csv.write_text("value\n" + rows + "\n")
        code, out = run(["select", str(csv), "--k-max", "2", "--restarts", "2",
                         "--header"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 40


class TestGenlog:
    def test_zero_column(self, tmp_path, capsys):
        csv = tmp_path / "zeros.csv"
        np.savetxt(csv, np.zeros((6, 1)), delimiter=",")
        code, out = run(["genlog", str(csv), "--theta-min", "1",
                         "--theta-max", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["theta_hat"] == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
        assert math.isfinite(report["codelength"])

    def test_out_of_range_exit_3(self, tmp_path, capsys):
        csv = tmp_path / "zeros.csv"
        np.savetxt(csv, np.zeros((6, 1)), delimiter=",")
        code = main(["genlog", str(csv), "--theta-min", "2", "--theta-max", "3"])
        capsys.readouterr()
        assert code == 3

    def test_fifty_rows(self, tmp_path, capsys):
        from unml import genlog_sample

        csv = tmp_path / "g.csv"
        np.savetxt(csv, genlog_sample(50, 2.0, seed=1).reshape(-1, 1), delimiter=",")
        code, out = run(["genlog", str(csv)], capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["codelength"])

    def test_multicolumn_rejected(self, tmp_path, capsys):
        csv = tmp_path / "two.csv"
        np.savetxt(csv, np.zeros((6, 2)), delimiter=",")
        code = main(["genlog", str(csv)])
        capsys.readouterr()
        assert code == 3


class TestVerify:
    def test_default_case_passes(self, capsys):
        code, out = run(["verify", "--m", "1", "--n", "3", "--samples", "20000",
                         "--seed", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["estimate"] + 3 * report["stderr"] < report["bound"]
        assert abs(report["quadrature"] - report["exact"]) <= 1e-8

    def test_m2_case(self, capsys):
        code, out = run(["verify", "--m", "2", "--n", "4", "--samples", "20000",
                         "--seed", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert "exact" not in report

    def test_zero_samples_exit_3(self, capsys):
        code = main(["verify", "--samples", "0"])
        capsys.readouterr()
        assert code == 3

    def test_negative_seed_exit_3(self, capsys):
        code = main(["verify", "--seed", "-5"])
        capsys.readouterr()
        assert code == 3

    def test_m1_accepts_eps2_above_a_quarter(self, capsys):
        code, out = run(["verify", "--m", "1", "--n", "3", "--samples", "20000",
                         "--eps2", "0.5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["spec"]["eps2"] == [0.5]
        assert abs(report["estimate"] - report["exact"]) <= 3 * report["stderr"]

    def test_m0_exit_3(self, capsys):
        assert main(["verify", "--m", "0"]) == 3
        assert "dimension m must be >= 1, got 0" in capsys.readouterr().err

    def test_no_accepted_sample_exit_4(self, capsys):
        code = main(["verify", "--m", "1", "--n", "3", "--samples", "10000",
                     "--eps1", "1e-7", "--eps2", "1.0000001e-7"])
        assert code == 4
        assert "no sampled dataset" in capsys.readouterr().err


class TestScale:
    def test_scales_into_domain(self, tmp_path, capsys):
        csv = tmp_path / "wide.csv"
        write_blobs(csv, seed=9)
        scaled_path = tmp_path / "scaled.csv"
        code, out = run(["scale", str(csv), "--scaled-output", str(scaled_path)],
                        capsys)
        assert code == 0
        report = json.loads(out)
        alpha = report["alpha"]
        original = np.loadtxt(csv, delimiter=",").reshape(-1, 1)
        scaled = np.loadtxt(scaled_path, delimiter=",").reshape(-1, 1)
        assert np.array_equal(scaled, original / alpha)
        var = scaled.var()
        assert var <= 0.25 and math.isfinite(alpha)

    def test_eps1_is_not_a_scale_flag(self, tmp_path, capsys):
        csv = tmp_path / "wide.csv"
        write_blobs(csv, seed=9)
        with pytest.raises(SystemExit) as info:
            main(["scale", str(csv), "--scaled-output", str(tmp_path / "s.csv"),
                  "--eps1", "1e-3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --eps1" in capsys.readouterr().err


INVALID_DOMAIN_FLAGS = [
    ["--r", "0"], ["--r", "-1"], ["--eps2", "0"], ["--eps2", "-0.1"],
    ["--eps2", "1"], ["--eps2", "1.5"],
    ["--eps2", "0.5"],   # above 0.37 at m = 3: orthogonal volume > 1
]


@pytest.mark.parametrize("command, flags", [
    *[("select", flags) for flags in INVALID_DOMAIN_FLAGS],
    ("select", ["--eps1", "0.3"]),   # above eps2 = 0.25
    *[("scale", flags) for flags in INVALID_DOMAIN_FLAGS],
], ids=lambda v: "=".join(v).lstrip("-") if isinstance(v, list) else v)
def test_invalid_domain_flags_exit_3_no_report(tmp_path, capsys, command, flags):
    csv = tmp_path / "m3.csv"
    np.savetxt(csv, np.random.default_rng(4).normal(size=(40, 3)), delimiter=",")
    report, scaled = tmp_path / "report.json", tmp_path / "scaled.csv"
    argv = [command, str(csv), *flags, "--output", str(report)]
    if command == "scale":
        argv += ["--scaled-output", str(scaled)]
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err
    assert not report.exists() and not scaled.exists()


@pytest.mark.parametrize("argv", [
    ["select", "in.csv"], ["scale", "in.csv", "--scaled-output", "s.csv"], ["verify"],
], ids=lambda argv: argv[0])
def test_eps2_cap_is_not_a_flag(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--eps2-cap", "0.3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --eps2-cap" in capsys.readouterr().err


class TestDeterminism:
    def test_select_byte_identical(self, tmp_path, capsys):
        csv = tmp_path / "blobs.csv"
        write_blobs(csv, seed=77)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["select", str(csv), "--k-max", "3", "--restarts", "3",
                "--seed", "123"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        args = ["verify", "--m", "1", "--n", "3", "--samples", "20000",
                "--seed", "31"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


def _run_python(code):
    src = str(Path(unml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.strip()


def test_cli_import_skips_slow_scipy_modules():
    # concurrent.futures pulls in logging; only the Monte Carlo oracle's
    # thread pool needs it
    code = ("import sys, unml.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent')))")
    assert _run_python(code) == "[]"


def test_select_scale_genlog_runs_load_no_scipy(tmp_path):
    """The whole of a select, scale and genlog run stays on numpy: scipy
    is only for verify and the oracles, not hidden inside an operation."""
    csv = tmp_path / "blobs.csv"
    write_blobs(csv)
    runs = [["select", str(csv), "--k-max", "3", "--restarts", "2",
             "--output", str(tmp_path / "select.json")],
            ["scale", str(csv), "--scaled-output", str(tmp_path / "scaled.csv"),
             "--output", str(tmp_path / "scale.json")],
            ["genlog", str(csv), "--output", str(tmp_path / "genlog.json")]]
    code = ("import sys; from unml.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[0, 0, 0] []"
    assert json.loads((tmp_path / "select.json").read_text())["selected_k"] == 2
