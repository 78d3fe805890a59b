"""Command-line behavior: exit codes, determinism, report contents."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_lrr import ObservationMatrix, cli
from subspace_lrr.cli import main
from subspace_lrr.datasets import save_dataset, two_moons


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
        assert report["svt_fallbacks"] == 0

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
        assert 0 <= report["svt_fallbacks"] <= 5

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

    def test_more_components_than_k_exits_2_without_report(self, tmp_path, moons_file,
                                                           monkeypatch, capsys):
        # three exactly disconnected blocks tie at the cut for k = 2
        w = np.kron(np.eye(3), np.ones((10, 10)))
        np.fill_diagonal(w, 0.0)
        monkeypatch.setattr(cli, "_gaussian_affinity", lambda obs: w)
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", moons_file, "--method", "ncut", "--k", 2,
                    "--report", report_path])
        assert code == 2
        assert not report_path.exists()
        assert "3 connected components, more than k = 2" in capsys.readouterr().err

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

    def test_label_outside_int64_exits_2_without_report(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("dim_0,dim_1,label\n0.0,0.0,0\n1.0,1.0,100000000000000000000000000000\n")
        report_path = tmp_path / "report.json"
        code = run(["cluster", "--input", data, "--method", "kmeans", "--k", 2,
                    "--report", report_path])
        assert code == 2
        assert not report_path.exists()
        assert "line 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_ncut_baseline_labels_data_at_extreme_scales(self, tmp_path, scale):
        # the squared distances and bandwidth of these data overflow or underflow
        moons = two_moons(n_per_moon=20, seed=1)
        labels = []
        for factor in (1.0, scale):
            data = tmp_path / f"moons-{factor}.csv"
            save_dataset(replace(moons, observations=ObservationMatrix(
                moons.observations.data * factor)), data)
            report_path = tmp_path / f"report-{factor}.json"
            code = run(["cluster", "--input", data, "--method", "ncut", "--k", 2,
                        "--report", report_path])
            assert code == 0
            labels.append(json.loads(report_path.read_text())["labels"])
        assert labels[1] == labels[0]


class TestGaussianAffinity:
    def test_equals_the_kernel_formula(self):
        obs = two_moons(n_per_moon=30, seed=2).observations
        dist = obs.pairwise_distances()
        sigma = np.median(dist[np.triu_indices(obs.n, k=1)])
        expected = np.exp(-(dist**2) / (2.0 * sigma**2))
        np.fill_diagonal(expected, 0.0)
        assert cli._gaussian_affinity(obs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_power_of_two_scale_leaves_the_affinity_unchanged(self, exponent):
        # at 2^600 the squares overflow, at 2^-600 they underflow to zero
        obs = two_moons(n_per_moon=30, seed=2).observations
        scaled = ObservationMatrix(np.ldexp(obs.data, exponent))
        w = cli._gaussian_affinity(obs)
        assert cli._gaussian_affinity(scaled).tobytes() == w.tobytes()



# Cells a hand-written or damaged CSV file may hold.
ODD_CELLS = ["", " ", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1e308", "-1e308",
             "5e-324", "abc", "0x10", "1_0", " 2.5 ", "1.0.0", "+3", "\x00"]
LABELS = ["100000000000000000000000000000", str(2**63), str(-(2**63) - 1), str(2**63 - 1),
          "1.0", "", "x", " 1 ", "-7", "1000000"]


@st.composite
def csv_bytes(draw):
    """A dataset file. Any file may have blank lines, CRLF or CR line ends,
    sparse labels and coordinates from subnormal to near overflow; a damaged
    one may also have a BOM, a bad header, ragged rows, non-numeric,
    non-finite or out-of-range cells, or a byte that is not UTF-8."""
    damaged = draw(st.booleans())
    m = draw(st.integers(1, 3))
    labelled = draw(st.booleans())
    header = [f"dim_{i}" for i in range(m)] + (["label"] if labelled else [])
    coord = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-3, 3).map(str)
    label = (st.integers(0, 3) | st.integers(-(2**63), 2**63 - 1)).map(str)
    if damaged:
        coord = coord | st.floats().map(repr) | st.sampled_from(ODD_CELLS)
        label = label | st.integers(-(2**70), 2**70).map(str) | st.sampled_from(LABELS)
        if draw(st.integers(0, 4)) == 0:
            header[draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(["x", "", "lbl"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        row = [draw(coord) for _ in range(m)] + ([draw(label)] if labelled else [])
        if damaged and draw(st.integers(0, 4)) == 0:
            row = row[:draw(st.integers(0, len(row)))] + draw(st.lists(coord, max_size=2))
        lines.append(",".join(row))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    text += draw(st.sampled_from(["", "\n", "\r\n"]))
    if damaged:
        text = draw(st.sampled_from(["", "\ufeff"])) + text
    raw = text.encode("utf-8")
    if damaged and draw(st.integers(0, 9)) == 0:
        raw += b"\xff"
    return raw


class TestClusterFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=csv_bytes(), k=st.integers(1, 4))
    # a label past int64 once escaped load_dataset as an OverflowError
    @example(raw=b"dim_0,label\n1.0,0\n2.0,100000000000000000000000000000\n", k=2)
    # coordinates whose squared distances overflow once escaped k-means
    @example(raw=b"dim_0,label\n1e200,0\n-1e200,1\n0.0,0\n", k=2)
    def test_any_input_file_exits_0_2_or_3(self, raw, k):
        with tempfile.TemporaryDirectory() as tmp:
            data, report_path = Path(tmp) / "data.csv", Path(tmp) / "report.json"
            data.write_bytes(raw)
            code = run(["cluster", "--input", data, "--method", "kmeans", "--k", k,
                        "--report", report_path])
            assert code in (0, 2, 3)
            assert report_path.exists() == (code != 2)
