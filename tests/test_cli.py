import csv
import json
import warnings

import numpy as np
import pytest

from dl2u.cli import EXIT_DOMAIN, EXIT_OK, EXIT_OVERFLOW, EXIT_USAGE, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_roundtrip_with_sidecar(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code, _, _ = run(capsys, "simulate", "--n", "50", "--alpha", "0.5",
                         "--seed", "7", "--rep", "2", "--out", str(out))
        assert code == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        assert rows[0]["u"] == ""  # no innovation at t = 0
        meta = json.loads((tmp_path / "path.csv.meta.json").read_text())
        assert meta["seed"] == {"base": 7, "stream": 2}
        assert meta["params"]["n"] == 50

    def test_csv_keeps_full_precision(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "50", "--alpha", "0.5", "--seed", "7",
            "--out", str(out))
        from dl2u.dgp import RngSeed, simulate_path
        from dl2u.sequences import ModelParams, Regime, SequenceSpec

        p = ModelParams(c=1.0, d=1.0, alpha=0.5, n=50,
                        kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY)
        path = simulate_path(p, RngSeed(7, 0))
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.array_equal(data["y"], path.y)  # 17 significant digits

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "5")
        assert code == EXIT_DOMAIN
        assert "minimum admissible n" in err

    def test_overflow_exit(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "300", "--c", "100",
                           "--kn", "const:1", "--regime", "expl")
        assert code == EXIT_OVERFLOW
        assert "overflow" in err


class TestEstimate:
    def test_pivot_matches_library(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "100", "--alpha", "0.5", "--seed", "3",
            "--out", str(out))
        code, stdout, _ = run(capsys, "estimate", str(out), "--n", "100", "--alpha", "0.5")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["pivot"]["kind"] == "T"
        assert report["target"] == "N(0,2)"

        from dl2u.dgp import RngSeed, simulate_path
        from dl2u.estimator import ols_rho, pivot_T, score_rho_error
        from dl2u.sequences import ModelParams, Regime, SequenceSpec

        p = ModelParams(c=1.0, d=1.0, alpha=0.5, n=100,
                        kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY)
        path = simulate_path(p, RngSeed(3, 0))
        expected = pivot_T(ols_rho(path.y), p, rho_error=score_rho_error(path))
        assert report["pivot"]["value"] == pytest.approx(expected.value, rel=1e-12)
        assert report["rho_hat"] == pytest.approx(ols_rho(path.y).rho_hat, rel=1e-12)

    def test_explosive_regime(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "100", "--c", "0.5", "--alpha", "0.5",
            "--kn", "pow:0.5", "--regime", "expl", "--seed", "3", "--out", str(out))
        code, stdout, _ = run(capsys, "estimate", str(out), "--n", "100", "--c", "0.5",
                              "--alpha", "0.5", "--kn", "pow:0.5", "--regime", "expl")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["pivot"]["kind"] == "S"
        assert report["target"] == "Cauchy(0,1)"


class TestTable:
    def test_csv_rows(self, capsys):
        code, stdout, _ = run(capsys, "table", "--id", "2a", "--reps", "1",
                              "--paths", "20", "--n-explosive", "100", "--seed", "2")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == "kn,mean_ks,acceptance"
        assert len(lines) == 7
        assert lines[1].startswith("n^0.1,")


class TestHist:
    def test_left_panel_defaults(self, capsys):
        code, stdout, _ = run(capsys, "hist", "--panel", "left", "--n", "100",
                              "--paths", "50", "--bins", "20", "--seed", "1")
        assert code == EXIT_OK
        record = json.loads(stdout)
        assert record["target"] == "N(0,2)"
        assert record["params"]["c"] == 1.0
        assert len(record["counts"]) == 20

    def test_right_panel_defaults(self, capsys):
        code, stdout, _ = run(capsys, "hist", "--panel", "right", "--n", "100",
                              "--paths", "50", "--bins", "20", "--seed", "1")
        record = json.loads(stdout)
        assert code == EXIT_OK
        assert record["target"] == "Cauchy(0,1)"
        assert record["params"]["c"] == 0.5

    def test_out_file_is_complete_and_closed(self, tmp_path, capsys):
        out = tmp_path / "hist.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, _ = run(capsys, "hist", "--n", "100", "--paths", "50",
                                  "--bins", "20", "--seed", "1", "--out", str(out))
        assert code == EXIT_OK
        assert stdout == ""
        assert len(json.loads(out.read_text())["counts"]) == 20
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestVerify:
    def test_draw_floor_is_domain_error(self, capsys):
        code, _, err = run(capsys, "verify", "--draws", "10")
        assert code == EXIT_DOMAIN
        assert "at least 100000" in err


# estimate inputs that break its contract; short.csv is a path of n = 3
BAD_CSVS = {
    "ab.csv": "a,b\n1,2\n3,4\n",
    "empty.csv": "",
    "short.csv": "t,y,sigma2,u\n0,0,1,\n1,0.5,1,0.5\n2,1,1,0.75\n3,1,1,0.25\n",
}


class TestParser:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, env_seed, code, message", [
        (["simulate", "--n", "50", "--seed", "-1"], None, EXIT_DOMAIN, "64-bit"),
        (["estimate", "missing.csv"], None, EXIT_DOMAIN, "missing.csv"),
        (["simulate", "--n", "50"], "seven", EXIT_USAGE, "'seven'"),
        (["verify", "--draws", "10"], "seven", EXIT_DOMAIN, "at least 100000"),
        (["estimate", "ab.csv"], None, EXIT_DOMAIN, "ab.csv has no y and u columns"),
        (["estimate", "empty.csv"], None, EXIT_DOMAIN, "empty.csv: the file is empty"),
        (["estimate", "short.csv"], None, EXIT_DOMAIN, "4 rows; --n 1000 needs 1001"),
        (["simulate", "--n", "50", "--kn", "const:"], None, EXIT_DOMAIN, "'const:'"),
        (["simulate", "--n", "50", "--kn", "pow:abc"], None, EXIT_DOMAIN, "'pow:abc'"),
        (["simulate", "--n", "50", "--kn", "log:5"], None, EXIT_DOMAIN, "takes no parameter"),
    ], ids=["negative-seed", "missing-csv", "bad-env-seed", "verify-ignores-env-seed",
            "csv-without-y-u", "empty-csv", "csv-length-not-n", "kn-const-no-value",
            "kn-pow-not-a-number", "kn-log-with-value"])
    def test_invalid_input_exit_codes(self, argv, env_seed, code, message,
                                      tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_CSVS.items():
            (tmp_path / name).write_text(text)
        if env_seed is not None:
            monkeypatch.setenv("DL2U_SEED", env_seed)
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse usage errors
            got = exc.code
        assert got == code
        assert message in capsys.readouterr().err

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("DL2U_SEED", "424242")
        args = build_parser().parse_args(["table", "--id", "1a"])
        assert args.seed == 424242
