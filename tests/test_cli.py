"""Command-line behavior: exit codes, determinism, report contents."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from subspace_lrr import cli
from subspace_lrr.cli import main


def run(argv):
    return main([str(a) for a in argv])


def fail_lanczos(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("did not converge", np.empty(0),
                                                  np.empty((0, 0)))


class TestGenerate:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "moons.csv"
        code = run(["generate", "two-moons", "--n", 100, "--noise", 0.06,
                    "--seed", 7, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 200

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["generate", "three-circles", "--n", 30, "--seed", 3,
                        "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_dataset_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "squares", "--out", tmp_path / "x.csv"])
        assert err.value.code == 2

    def test_unwritable_path_exits_2(self, tmp_path):
        code = run(["generate", "two-moons", "--out", tmp_path / "no" / "x.csv"])
        assert code == 2

    def test_nan_noise_exits_2(self, tmp_path):
        out = tmp_path / "nan.csv"
        code = run(["generate", "two-moons", "--n", 5, "--noise", "nan", "--out", out])
        assert code == 2
        assert not out.exists()

    def test_radii_on_two_moons_exits_2(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["generate", "two-moons", "--n", 5, "--radii", 1, 2, 3, "--out", out])
        assert code == 2
        assert not out.exists()


class TestCluster:
    @pytest.fixture()
    def moons_file(self, tmp_path):
        out = tmp_path / "moons.csv"
        run(["generate", "two-moons", "--n", 15, "--noise", 0.04,
             "--seed", 1, "--out", out])
        return out

    def test_kmeans_writes_report(self, tmp_path, moons_file):
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "kmeans",
                    "--k", 2, "--seed", 4, "--report", report_path])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["method"] == "kmeans"
        assert report["k"] == 2
        assert len(report["labels"]) == 30
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["solver_config"]["lam"] == 0.01

    def test_missing_input_exits_2(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", tmp_path / "absent.csv",
                    "--method", "kmeans", "--k", 2, "--report", report_path])
        assert code == 2
        assert not report_path.exists()

    def test_all_zero_data_exits_2(self, tmp_path):
        data = tmp_path / "zeros.csv"
        data.write_text("dim_0,dim_1\n" + "0.0,0.0\n" * 4)
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", data, "--method", "lrr", "--k", 2,
                    "--report", report_path])
        assert code == 2
        assert not report_path.exists()

    def test_nonconvergence_exits_3_with_report(self, tmp_path, moons_file):
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "tlr-lrr",
                    "--k", 2, "--max-iter", 5, "--eps", 0.2,
                    "--eps-mode", "quantile", "--report", report_path])
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["converged"] is False
        assert report["iterations"] == 5

    def test_all_zero_coefficients_exit_2_without_report(self, tmp_path, moons_file,
                                                          monkeypatch):
        # a solve that returns Z = 0 leaves NCut nothing to cut
        real_solve = cli.solve

        def zero_solve(*args):
            report = real_solve(*args)
            return replace(report, Z=np.zeros_like(report.Z))

        monkeypatch.setattr(cli, "solve", zero_solve)
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "lrr", "--k", 2,
                    "--max-iter", 1, "--report", report_path])
        assert code == 2
        assert not report_path.exists()

    @pytest.mark.parametrize("method, module, kernel", [
        ("ncut", scipy.linalg, "eigh"),      # NCut's dense fallback eigensolve
        ("graph-lrr", np.linalg, "eigh"),    # the solve's eigendecomposition of L
        ("lrr", np.linalg, "svd"),           # the solve's thin SVD of Y
        # the first W-step tries the low-rank SVT, so the first eigh is the
        # range finder's SVT_WIDTH x SVT_WIDTH one
        ("lrr", np.linalg, "eigh"),
    ])
    def test_failed_linear_algebra_exits_2_without_report(self, tmp_path, moons_file,
                                                          monkeypatch, capsys,
                                                          method, module, kernel):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        # NCut's Lanczos eigensolve fails first, so its dense fallback runs
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail_lanczos)
        monkeypatch.setattr(module, kernel, fail)
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", method, "--k", 2,
                    "--max-iter", 1, "--report", report_path])
        assert code == 2
        assert not report_path.exists()
        assert capsys.readouterr().err.startswith("error (cluster): ")

    def test_failed_lanczos_still_gives_labels(self, tmp_path, moons_file, monkeypatch):
        # NCut falls back to its dense eigensolve, which finds the same labels
        reports = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail_lanczos)
            report_path = tmp_path / f"report-{patched}.json"
            code = run(["cluster", "--input", moons_file, "--method", "ncut", "--k", 2,
                        "--report", report_path])
            assert code == 0
            reports.append(json.loads(report_path.read_text()))
        assert reports[1]["labels"] == reports[0]["labels"]

    def test_config_file_overridden_by_flags(self, tmp_path, moons_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lam": 0.5, "max_iter": 2, "eps": 0.3,
                                        "eps_mode": "quantile"}))
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "lrr",
                    "--k", 2, "--config", cfg_path, "--max-iter", 5,
                    "--report", report_path])
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["solver_config"]["lam"] == 0.5   # from the config file
        assert report["iterations"] == 5               # flag beats the file

    def test_lrr_report_records_the_given_beta(self, tmp_path, moons_file):
        # plain lrr has no locality term, so beta has no effect, but the
        # report still records the config exactly as given
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 5.0, "max_iter": 5}))
        report_path = tmp_path / "report.json"
        run(["cluster", "--input", moons_file, "--method", "lrr", "--k", 2,
             "--config", cfg_path, "--report", report_path])
        assert json.loads(report_path.read_text())["solver_config"]["beta"] == 5.0

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"dim_0,dim_1\n0.5,\xff\n1.0,2.0\n")
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", data, "--method", "kmeans", "--k", 2,
                    "--report", report_path])
        assert code == 2
        assert not report_path.exists()
        assert str(data) in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, moons_file, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"lam": 0.5\xff}')
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "lrr", "--k", 2,
                    "--config", cfg_path, "--report", report_path])
        assert code == 2
        assert not report_path.exists()
        assert str(cfg_path) in capsys.readouterr().err

    def test_bad_config_file_exits_2(self, tmp_path, moons_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code = run(["cluster", "--input", moons_file, "--method", "lrr",
                    "--k", 2, "--config", cfg_path])
        assert code == 2

    @pytest.mark.parametrize("content", [
        {"betta": 1},
        {"eta_margin": 1.05},
        {"rho0": 1.1},
        [1, 2],
        {"beta": "x"},
        {"knn_k": "5"},
        {"eps": "x"},
        {"max_iter": 2.5},
        {"gamma": True},
        {"gamma": float("nan")},
        {"lam": 10**400},
        {"mu0": 1e11},
        {"eps": 10**400},
    ], ids=["unknown-key", "removed-key", "removed-key-rho0", "list", "beta-str", "knn_k-str",
            "eps-str", "max_iter-float", "gamma-bool", "gamma-nan", "lam-too-large",
            "mu0-above-cap", "eps-too-large"])
    def test_ill_formed_config_exits_2(self, tmp_path, moons_file, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(content))
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "tlr-lrr", "--k", 2,
                    "--config", cfg_path, "--report", report_path])
        assert code == 2
        assert not report_path.exists()

    def test_unknown_method_exits_2(self, moons_file):
        with pytest.raises(SystemExit) as err:
            run(["cluster", "--input", moons_file, "--method", "dbscan", "--k", 2])
        assert err.value.code == 2

