import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl2u import cli, oracles
from dl2u.cli import (
    EXIT_DOMAIN, EXIT_OK, EXIT_OVERFLOW, EXIT_USAGE, EXIT_VERIFY, _csv_text, _read_path_csv,
    build_parser, main,
)
from dl2u.dgp import RngSeed, SimulatedPath, simulate_path
from dl2u.estimator import ols_rho, pivot_T, score_rho_error
from dl2u.montecarlo import table_params
from dl2u.sequences import ModelParams, SequenceSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# any float64: NaN, +-inf, +-0.0, subnormals and +-1e308 each get a share of the draws
ANY_FLOAT = st.floats(width=64) | st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308])
STAT_1000 = ["--n", "1000", "--c", "1", "--alpha", "0.5", "--kn", "pow:0.25", "--regime", "stat"]
EXPL_300 = ["--n", "300", "--c", "0.5", "--alpha", "0.5", "--kn", "pow:0.5", "--regime", "expl"]


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
        p = table_params("2b", SequenceSpec.parse("pow:0.25"), 50)
        path = simulate_path(p, RngSeed(7, 0))
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.array_equal(data["y"], path.y)  # 17 significant digits

    @settings(max_examples=200, deadline=None)
    @given(columns=st.integers(1, 64).flatmap(lambda n: st.tuples(*(
        st.lists(ANY_FLOAT, min_size=size, max_size=size) for size in (n + 1, n + 1, n)))),
           chunk_rows=st.sampled_from([1, 3, 64]))
    def test_csv_bytes_match_the_row_loop(self, columns, chunk_rows):
        # the per-row writer that the chunked `%` writer replaced, as the reference;
        # smaller chunks give paths of many chunks and a partial last one
        def row_loop(path, out):
            out.write("t,y,sigma2,u\n")
            for t in range(len(path.y)):
                u = "%.17g" % path.u[t - 1] if t >= 1 else ""
                out.write(f"{t},{'%.17g' % path.y[t]},{'%.17g' % path.sigma2[t]},{u}\n")

        path = SimulatedPath(*map(np.array, columns))
        want = io.StringIO()
        row_loop(path, want)
        with mock.patch.object(cli, "_CSV_ROWS", chunk_rows):
            assert _csv_text(path) == want.getvalue()

    # SHA-256 of the CSV and the sidecar that `simulate --out` wrote with the
    # per-row writer, for both regimes of the benchmark's inspect workload
    @pytest.mark.parametrize("model, seed, csv_sha, meta_sha", [
        (STAT_1000, 11, "fc7bf268442d2e262efc8d559ba109c4ac9d6800de61374fe15f6402e038ecee",
         "9aee3797ec26db38fde24b38ccd01a2a04edaec3a85d7e50f071765232da8609"),
        (STAT_1000, 12, "223de1eecd1ed8c4a7a74e72ce8f0f3b8e3579f5ee6e4be8b48f0909dd59bea1",
         "1db22e5dbd6ece0026389e970c3451c09a8f50295b45803e70624c189ceed6c1"),
        (EXPL_300, 11, "1cb4624b4921016d7a6d03db0ea111747fc2865a2491b32517e7b10c0b84c217",
         "c9d038619b1c6fa81132328915728a4159830abb977e25e2b6adf28334334c14"),
        (EXPL_300, 12, "1bbc24ef9681fd18e040819bf61d2a804fe3f7ef9f9a5151b3390c44cb23ab81",
         "2cd6b197d7a9dcf2610d046bb14ac49df6ad7ad691dd97612f838f86318a0db4"),
    ])
    def test_out_bytes_are_pinned(self, tmp_path, capsys, model, seed, csv_sha, meta_sha):
        out = tmp_path / "path.csv"
        code, _, _ = run(capsys, "simulate", *model, "--seed", str(seed), "--out", str(out))
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        meta = tmp_path / "path.csv.meta.json"
        assert hashlib.sha256(meta.read_bytes()).hexdigest() == meta_sha

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

        p = table_params("2b", SequenceSpec.parse("pow:0.25"), 100)
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


RECORD_KEYS = ["c", "d", "alpha", "n", "kn", "rn", "regime", "y0", "z0"]


class TestModelFields:
    """`ModelParams`' fields are the one list of the model: records and flags follow it."""

    def test_params_records_list_the_fields_in_order(self, tmp_path, capsys):
        assert [f.name for f in dataclasses.fields(ModelParams)] == RECORD_KEYS
        out = tmp_path / "path.csv"
        run(capsys, "simulate", "--n", "50", "--rn", "pow:0.5", "--out", str(out))
        meta = json.loads((tmp_path / "path.csv.meta.json").read_text())
        code, stdout, _ = run(capsys, "estimate", str(out), "--n", "50", "--rn", "pow:0.5")
        assert code == EXIT_OK
        assert list(meta["params"]) == list(json.loads(stdout)["params"]) == RECORD_KEYS

    @pytest.mark.parametrize("argv", [["simulate"], ["estimate", "path.csv"]])
    def test_every_field_has_a_flag(self, argv):
        defaults = vars(build_parser().parse_args(argv))
        for f in dataclasses.fields(ModelParams):
            # an undefined flag would exit 2 here, and a missing dest raise KeyError
            args = build_parser().parse_args([*argv, f"--{f.name}={defaults[f.name]}"])
            assert getattr(args, f.name) == defaults[f.name]


class TestTable:
    def test_csv_rows(self, capsys):
        code, stdout, _ = run(capsys, "table", "--id", "2a", "--reps", "1",
                              "--paths", "20", "--n", "100", "--seed", "2")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == "kn,mean_ks,acceptance"
        assert len(lines) == 7
        assert lines[1].startswith("n^0.1,")

    def test_explosive_sum_of_squares_overflow_exits_4(self):
        # y stays finite at n log rho_n above 354, but sum y_{t-1}^2 does not
        code, err = main_keeping_contract(["table", "--id", "1b", "--n", "3000",
                                           "--reps", "1", "--paths", "50"])
        assert code == EXIT_OVERFLOW
        assert "sum of squared lags" in err


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

    def test_explosive_sum_of_squares_overflow_exits_4(self):
        code, err = main_keeping_contract(["hist", "--panel", "right", "--kn", "const:0.06",
                                           "--n", "300"])
        assert code == EXIT_OVERFLOW
        assert "sum of squared lags" in err


# SHA-256 of stdout: the table and hist outputs that perfbench does not run keep every bit
@pytest.mark.parametrize("argv, digest", [
    ("table --id 1b --reps 2 --paths 20 --n 50 --seed 3",
     "3d0e5e181a50d06e2b3ccb38f686538ed1a7beab40fbad0604d20e85ac663a2d"),
    ("table --id 2b --reps 2 --paths 20 --n 50 --seed 3",
     "2b314a194357d4b55bbad00af286c7693269b66bae54765d9e6a274606a9e3d3"),
    ("hist --panel left --n 100 --paths 50 --bins 20 --seed 1",
     "3515f34f3b23e8b6ac3db3aeedb1190abc6fbdd9a5621b6ed4dba32c22ada5d5"),
    ("hist --panel right --n 100 --paths 50 --bins 20 --seed 1",
     "a47f51df65ae42b3dbca9fa087a098f3d84e908a8ea83ca045203724af856e1d"),
], ids=["table-1b", "table-2b", "hist-left", "hist-right"])
def test_output_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_failed_check_exits_5_after_its_report(self, capsys, monkeypatch):
        monkeypatch.setattr(oracles, "Z_THRESHOLD", 0.0)  # only the exact alpha = 0 checks pass
        code, out, err = run(capsys, "verify", "--seed", "1")
        assert code == EXIT_VERIFY
        assert err == "verification failure: one or more oracle checks failed\n"
        assert json.loads(out)["passed"] is False

    # SHA-256 of the report: every oracle simulation keeps every bit of every seed
    @pytest.mark.parametrize("seed, digest", [
        ("0", "a072457cb8d5dc808750697a26ff56c4ea7d7111d94758771f413e0993d76feb"),
        ("12345", "6e0a791a8f0f60ac0ffb240e59b231cc43fedf96b329f681c28b27a99a0ea03f"),
        ("707", "ea27f661e9de0527c55594551b3a0c015031afede309e29ab28793ef9efc8fc8"),
        ("1", "05658385f5b831c10cf7f7dcce4b94db017e6abec15347a3a718c50e9efd61b2"),
    ])
    def test_report_digest(self, capsys, seed, digest):
        code, out, _ = run(capsys, "verify", "--seed", seed)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux fault counters")
    def test_steady_state_takes_no_page_faults(self, capsys):
        resource = pytest.importorskip("resource")
        run(capsys, "verify", "--seed", "1")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(capsys, "verify", "--seed", "1")
        # Fresh oracle arrays took about 3,000 faults per call.
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class FullStream(io.StringIO):
    """A stdout or stderr on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def main_keeping_contract(argv, stdout_fails=False, stderr_fails=False):
    """(exit code, stderr) of `main(argv)`, asserting the CLI's output contract.

    No Python warning may be printed, an escaping exception would be a
    traceback, and a domain error is exactly one `domain error:` line.
    With `stdout_fails` or `stderr_fails`, every write to that stream raises
    OSError; a failing stderr reads as empty, since `main` may close it.
    """
    out = FullStream() if stdout_fails else io.StringIO()
    err = FullStream() if stderr_fails else io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert [str(w.message) for w in caught] == []
    if stderr_fails:
        return code, ""
    if code == EXIT_DOMAIN:
        assert err.getvalue().startswith("domain error: ") and err.getvalue().count("\n") == 1
    return code, err.getvalue()


# estimate inputs that break its contract; short.csv is a path of n = 3
BAD_CSVS = {
    "ab.csv": "a,b\n1,2\n3,4\n",
    "empty.csv": "",
    "blank.csv": "\n\n",
    "short.csv": "t,y,sigma2,u\n0,0,1,\n1,0.5,1,0.5\n2,1,1,0.75\n3,1,1,0.25\n",
    "abc.csv": "t,y,sigma2,u\n0,0,1,\n1,abc,1,0.5\n2,1,1,0.75\n3,1,1,0.25\n",
    "inf.csv": "t,y,sigma2,u\n0,0,1,\n1,0.5,1,0.5\n2,1,1,inf\n3,1,1,0.25\n",
    "huge.csv": "t,y,sigma2,u\n0,1e200,1,\n1,1e200,1,0.5\n2,1e200,1,0.75\n3,1e200,1,0.25\n",
}


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestParser:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["no-such-command"])
        assert exc.value.code == 2

    def test_readme_commands_parse(self):
        # parsed only, not run: the docs name no flag the parser lacks
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("dl2u ")]
        assert len(commands) >= 5
        for argv in commands:
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, code, message", [
        (["simulate", "--n", "50", "--seed", "-1"], EXIT_DOMAIN, "64-bit"),
        (["estimate", "missing.csv"], EXIT_DOMAIN, "missing.csv"),
        (["estimate", "ab.csv"], EXIT_DOMAIN, "ab.csv has no y and u columns"),
        (["estimate", "empty.csv"], EXIT_DOMAIN, "empty.csv: the file is empty"),
        (["estimate", "blank.csv"], EXIT_DOMAIN, "blank.csv: the file is empty"),
        (["estimate", "short.csv"], EXIT_DOMAIN, "4 rows; --n 1000 needs 1001"),
        (["simulate", "--n", "50", "--kn", "const:"], EXIT_DOMAIN, "'const:'"),
        (["simulate", "--n", "50", "--kn", "pow:abc"], EXIT_DOMAIN, "'pow:abc'"),
        (["simulate", "--n", "50", "--kn", "log:5"], EXIT_DOMAIN, "takes no parameter"),
        (["simulate", "--n", "50", "--alpha", "nan"], EXIT_DOMAIN, "alpha must be finite"),
        (["simulate", "--n", "50", "--c", "nan"], EXIT_DOMAIN, "c must be finite"),
        (["simulate", "--n", "50", "--d", "nan"], EXIT_DOMAIN, "d must be finite"),
        (["simulate", "--n", "50", "--y0", "nan"], EXIT_DOMAIN, "y0 must be finite"),
        (["simulate", "--n", "50", "--z0=-inf"], EXIT_DOMAIN, "z0 must be finite"),
        (["estimate", "abc.csv", "--n", "3"], EXIT_DOMAIN, "abc.csv has a y or u value"),
        (["estimate", "inf.csv", "--n", "3"], EXIT_DOMAIN, "inf.csv has a y or u value"),
        (["simulate", "--n", "50", "--out", "/nonexistent/dir/x"], EXIT_DOMAIN,
         "cannot write /nonexistent/dir/x"),
        (["table", "--id", "2a", "--reps", "1", "--paths", "5", "--n", "50",
          "--out", "/nonexistent/dir/x"], EXIT_DOMAIN, "cannot write /nonexistent/dir/x"),
        (["hist", "--n", "50", "--paths", "20", "--out", "/nonexistent/dir/x"], EXIT_DOMAIN,
         "cannot write /nonexistent/dir/x"),
        # a full disk fails at write or close, after the open succeeded
        pytest.param(["simulate", "--n", "50", "--out", "/dev/full"], EXIT_DOMAIN,
                     "cannot write /dev/full", marks=NEEDS_DEV_FULL),
        pytest.param(["table", "--id", "2a", "--reps", "1", "--paths", "5", "--n", "50",
                      "--out", "/dev/full"], EXIT_DOMAIN, "cannot write /dev/full",
                     marks=NEEDS_DEV_FULL),
        pytest.param(["hist", "--n", "50", "--paths", "20", "--out", "/dev/full"], EXIT_DOMAIN,
                     "cannot write /dev/full", marks=NEEDS_DEV_FULL),
        (["verify", "--seed", "-1"], EXIT_DOMAIN, "verify needs --seed"),
        (["verify", "--seed", str(2**64 - 2)], EXIT_DOMAIN, "verify needs --seed"),
        (["hist", "--n", "16", "--kn", "const:1e300", "--paths", "1"], EXIT_DOMAIN,
         "cannot bin the pivots"),
        (["simulate", "--n", "50", "--alpha", "1e300"], EXIT_OVERFLOW, "y overflowed"),
        # sigma2_0 = exp(z0) reaches no u, so y stays finite
        (["simulate", "--n", "5", "--z0", "1000", "--alpha", "0.5", "--rn", "lin"], EXIT_OVERFLOW,
         "sigma2"),
        (["estimate", "huge.csv", "--n", "3"], EXIT_OVERFLOW, "huge.csv overflow"),
        # the target law is checked before the pivot's finiteness
        (["estimate", "huge.csv", "--n", "3", "--c", "0"], EXIT_DOMAIN,
         "normal target needs a positive variance"),
        (["hist", "--n", "50", "--kn", "const:1e308"], EXIT_OVERFLOW, "n k_n"),
        # pivots near 1e155, whose squares in the Cauchy density overflow
        (["hist", "--panel", "right", "--n", "16", "--kn", "const:1.8845425674463404e+155",
          "--paths", "4"], EXIT_OK, ""),
        # a table seed is checked, not spread modulo 2^64
        (["table", "--id", "2a", "--reps", "1", "--paths", "20", "--n", "50",
          "--seed", "-1"], EXIT_DOMAIN, "64-bit"),
        (["table", "--id", "2a", "--reps", "1", "--paths", "20", "--n", "50",
          "--seed", str(2**64)], EXIT_DOMAIN, "64-bit"),
        # 0 and "" are values that get validated, not "not given"
        (["hist", "--panel", "right", "--n", "0"], EXIT_DOMAIN,
         "n must be an integer in [3, 2^53], got 0"),
        (["hist", "--kn=", "--paths", "5"], EXIT_DOMAIN, "malformed sequence spec ''"),
        (["simulate", "--n", "20", "--out="], EXIT_DOMAIN, "cannot write"),
        # sizes the host cannot hold; each asks for petabytes, so it fails at once
        (["simulate", "--n", str(10**15)], EXIT_DOMAIN, "Unable to allocate"),
        (["simulate", "--n", str(10**20)], EXIT_DOMAIN,
         f"n must be an integer in [3, 2^53], got {10**20}"),
        (["table", "--id", "1a", "--reps", "1", "--paths", "5", "--n", str(10**15)], EXIT_DOMAIN,
         "Unable to allocate"),
        (["hist", "--n", "50", "--paths", "20", "--bins", str(10**15)], EXIT_DOMAIN,
         "Unable to allocate"),
        (["hist", "--n", "50", "--paths", str(10**15)], EXIT_DOMAIN, "Unable to allocate"),
        # sizes past numpy's index range: B (n + 1) float64 values need B (n + 1) < 2^60
        (["table", "--id", "2a", "--reps", "1", "--paths", str(10**19), "--n", "50"], EXIT_DOMAIN,
         "below 2^60"),
        (["hist", "--n", "50", "--paths", str(2 * 10**19)], EXIT_DOMAIN, "below 2^60"),
        (["table", "--id", "1a", "--reps", "1", "--paths", "4096", "--n", str(2**50)],
         EXIT_DOMAIN, "below 2^60"),
        # 2c overflows, so log(2c) would be inf and the pivot a silent 0.0
        (["estimate", "short.csv", "--n", "3", "--c", "1e308", "--regime", "expl", "--kn", "lin"],
         EXIT_OVERFLOW, "2c"),
        # the near-stationary root 1 - c/k_n needs k_n > c, as simulate and hist check
        (["estimate", "short.csv", "--n", "3", "--kn", "const:1"], EXIT_DOMAIN, "k_n > c"),
    ], ids=["negative-seed", "missing-csv", "csv-without-y-u", "empty-csv", "blank-csv",
            "csv-length-not-n", "kn-const-no-value", "kn-pow-not-a-number", "kn-log-with-value",
            "alpha-nan", "c-nan", "d-nan", "y0-nan", "z0-minus-inf", "csv-y-not-a-number",
            "csv-u-infinite", "simulate-out-missing-dir", "table-out-missing-dir",
            "hist-out-missing-dir", "simulate-out-full-disk", "table-out-full-disk",
            "hist-out-full-disk", "verify-negative-seed", "verify-wnvn-base-too-large",
            "hist-one-huge-pivot", "simulate-huge-alpha", "simulate-z0-sigma2-overflow",
            "csv-squares-overflow",
            "csv-overflow-with-c-zero", "near-stationary-scale-overflow",
            "hist-huge-pivots-no-warning", "table-negative-seed", "table-seed-2-to-the-64",
            "hist-n-zero", "hist-kn-empty", "simulate-out-empty", "simulate-n-1e15",
            "simulate-n-1e20", "table-n-1e15", "hist-bins-1e15", "hist-paths-1e15",
            "table-paths-1e19", "hist-paths-2e19", "table-n-2-to-the-50",
            "explosive-scale-2c-overflow", "estimate-kn-not-above-c"])
    def test_invalid_input_exit_codes(self, argv, code, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_CSVS.items():
            (tmp_path / name).write_text(text)
        got, err = main_keeping_contract(argv)
        assert got == code
        assert message in err

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        # the benchmark wraps cli.cmd_* after the parser may have been built
        assert main(["simulate", "--n", "20"]) == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args.n) or EXIT_OK)
        assert main(["simulate", "--n", "21"]) == EXIT_OK
        assert calls == [21]


# each command once with its output on stdout; estimate reads the path simulate writes
STDOUT_CALLS = {
    "simulate": ["simulate", "--n", "50"],
    "estimate": ["estimate", "path.csv", "--n", "50"],
    "table": ["table", "--id", "2a", "--reps", "1", "--paths", "5", "--n", "50"],
    "hist": ["hist", "--n", "50", "--paths", "20"],
    "verify": ["verify"],
}


def run_cli_process(argv, cwd, stdout, stderr=subprocess.PIPE, **options):
    """(exit code, stderr) of `dl2u argv` as a fresh process writing to the descriptor `stdout`.

    stdout is block-buffered, as by default, so a small report reaches the
    descriptor only when it is flushed.  stderr is None unless it is piped.
    `options` go to `subprocess.run`.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-m", "dl2u.cli", *argv], cwd=cwd, env=env,
                            stdout=stdout, stderr=stderr, text=True, **options)
    return result.returncode, result.stderr


class TestStdoutFailures:
    """A stdout that cannot be written exits 3 with one line, as `--out` does."""

    @NEEDS_DEV_FULL
    @pytest.mark.parametrize("command", list(STDOUT_CALLS))
    def test_full_stdout_exits_3(self, command, tmp_path):
        # estimate's report is small enough to fail only when stdout is flushed
        assert main(["simulate", "--n", "50", "--out", str(tmp_path / "path.csv")]) == EXIT_OK
        with open("/dev/full", "w") as full:
            code, err = run_cli_process(STDOUT_CALLS[command], tmp_path, full)
        assert code == EXIT_DOMAIN
        assert err.startswith("domain error: cannot write stdout: [Errno 28]")
        assert err.count("\n") == 1

    def test_closed_pipe_exits_3(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = run_cli_process(STDOUT_CALLS["table"], tmp_path, write_end)
        finally:
            os.close(write_end)
        assert code == EXIT_DOMAIN
        assert err.startswith("domain error: cannot write stdout: [Errno 32]")
        assert err.count("\n") == 1


class TestStderrFailures:
    """A stderr that cannot be written loses the error line, not the exit code."""

    @NEEDS_DEV_FULL
    @pytest.mark.parametrize("argv, stdout_full, code", [
        (["simulate", "--n", "5"], False, EXIT_DOMAIN),
        (["simulate", "--n", "50"], True, EXIT_DOMAIN),  # stdout fails first, then stderr
        (["table", "--id", "1b", "--reps", "1", "--paths", "5", "--n", "2000", "--seed", "1"],
         False, EXIT_OVERFLOW),
    ], ids=["domain", "domain-after-full-stdout", "overflow"])
    def test_full_stderr_keeps_the_code(self, argv, stdout_full, code, tmp_path):
        with open("/dev/full", "w") as full:
            stdout = full if stdout_full else subprocess.DEVNULL
            assert run_cli_process(argv, tmp_path, stdout, stderr=full) == (code, None)

    def test_failed_check_with_full_stderr_exits_5(self, monkeypatch):
        monkeypatch.setattr(oracles, "Z_THRESHOLD", 0.0)  # only the exact alpha = 0 checks pass
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(FullStream()):
            assert main(["verify", "--seed", "1"]) == EXIT_VERIFY
        assert json.loads(out.getvalue())["passed"] is False


# each command that writes `--out`, at sizes that run in milliseconds
OUT_CALLS = {
    "simulate": ["simulate", "--n", "50", "--alpha", "0.5", "--seed", "3"],
    "table": ["table", "--id", "2a", "--reps", "1", "--paths", "5", "--n", "50"],
    "hist": ["hist", "--n", "50", "--paths", "20", "--bins", "10"],
}


def out_files(command, out):
    """The files that `command --out out` writes: simulate adds its sidecar."""
    return [out, Path(f"{out}.meta.json")] if command == "simulate" else [out]


def write_out(command, out):
    """The bytes of each file that `command --out out` writes."""
    assert main([*OUT_CALLS[command], "--out", str(out)]) == EXIT_OK
    return [f.read_bytes() for f in out_files(command, out)]


class TestOutOverwrite:
    """`--out` writes over an existing file in place and cuts it where the new text ends."""

    @pytest.mark.parametrize("command", list(OUT_CALLS))
    def test_old_bytes_leave_no_trace(self, tmp_path, command):
        want = write_out(command, tmp_path / "fresh")
        files = out_files(command, tmp_path / "out")
        for old_size in [len(want[0]) + 5000, 3, len(want[0])]:  # longer, shorter, as long
            for f in files:
                f.write_bytes(b"x" * old_size)
            assert write_out(command, tmp_path / "out") == want

    @pytest.mark.parametrize("command", list(OUT_CALLS))
    def test_existing_file_keeps_its_inode_and_mode(self, tmp_path, command):
        files = out_files(command, tmp_path / "out")
        for f in files:
            f.write_bytes(b"x" * 100_000)
            f.chmod(0o640)
        inodes = [f.stat().st_ino for f in files]
        write_out(command, tmp_path / "out")
        assert [f.stat().st_ino for f in files] == inodes
        assert [stat.S_IMODE(f.stat().st_mode) for f in files] == [0o640] * len(files)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_out("simulate", tmp_path / "out")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(f.stat().st_mode) for f in out_files("simulate", tmp_path / "out")]
        assert modes == [0o666 & ~umask] * 2

    @pytest.mark.parametrize("command", list(OUT_CALLS))
    def test_links_see_the_new_text(self, tmp_path, command):
        want = write_out(command, tmp_path / "fresh")[0]
        target, link, second = tmp_path / "target", tmp_path / "link", tmp_path / "second"
        target.write_bytes(b"x" * 100_000)
        link.symlink_to(target)
        os.link(target, second)
        write_out(command, link)
        assert link.is_symlink()
        assert target.read_bytes() == second.read_bytes() == want

    # simulate is run through a link below, so a sidecar written by mistake lands in tmp_path
    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    @pytest.mark.parametrize("command", ["table", "hist"])
    def test_dev_null_is_written_uncut(self, command):
        assert main([*OUT_CALLS[command], "--out", "/dev/null"]) == EXIT_OK

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_simulate_to_a_device_writes_no_sidecar(self, tmp_path):
        link = tmp_path / "null"
        link.symlink_to("/dev/null")
        assert main([*OUT_CALLS["simulate"], "--out", str(link)]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["null"]

    # a link under tmp_path, not /dev/stdout itself: a sidecar written by mistake lands there
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
    def test_simulate_to_a_std_stream_file_writes_no_sidecar(self, tmp_path, fd):
        want = write_out("simulate", tmp_path / "fresh")[0]
        link, captured = tmp_path / "link", tmp_path / "captured"
        link.symlink_to(f"/proc/self/fd/{fd}")
        with captured.open("w") as fh:
            stdout, stderr = (fh, subprocess.PIPE) if fd == 1 else (subprocess.DEVNULL, fh)
            code, _ = run_cli_process([*OUT_CALLS["simulate"], "--out", str(link)], tmp_path,
                                      stdout, stderr)
        assert code == EXIT_OK
        assert captured.read_bytes() == want
        assert not Path(f"{link}.meta.json").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_stdout_pipe_is_written_uncut(self, tmp_path):
        read_end, write_end = os.pipe()
        try:
            code, err = run_cli_process([*OUT_CALLS["table"], "--out", "/dev/stdout"], tmp_path,
                                        write_end)
        finally:
            os.close(write_end)
        with open(read_end, "rb") as pipe:  # the table is far below a pipe's buffer
            got = pipe.read()
        assert (code, err) == (EXIT_OK, "")
        assert got == write_out("table", tmp_path / "table.csv")[0]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit")
    def test_failed_write_leaves_only_the_written_prefix(self, tmp_path):
        resource = pytest.importorskip("resource")
        argv = ["simulate", *STAT_1000, "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path / "fresh")]) == EXIT_OK
        want = (tmp_path / "fresh").read_bytes()
        assert len(want) > 20000
        out = tmp_path / "out"
        out.write_bytes(b"x" * 100_000)

        def limit_file_size():  # writes past 20,000 bytes fail with EFBIG
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (20000, 20000))

        code, err = run_cli_process([*argv, "--out", str(out)], tmp_path, subprocess.DEVNULL,
                                    preexec_fn=limit_file_size)
        assert code == EXIT_DOMAIN
        assert err.startswith(f"domain error: cannot write {out}: [Errno 27]")
        assert out.read_bytes() == want[:20000]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("error", [errno.EINVAL, errno.ESPIPE, errno.EIO],
                             ids=["EINVAL", "ESPIPE", "EIO"])
    def test_a_regular_file_that_cannot_be_cut_exits_3(self, tmp_path, monkeypatch, error):
        def cut(fd, length):
            raise OSError(error, os.strerror(error))

        monkeypatch.setattr(os, "ftruncate", cut)
        out = tmp_path / "out"
        fds = sorted(os.listdir("/proc/self/fd"))
        code, err = main_keeping_contract([*OUT_CALLS["table"], "--out", str(out)])
        assert code == EXIT_DOMAIN
        assert err.startswith(f"domain error: cannot write {out}: [Errno {error}]")
        assert sorted(os.listdir("/proc/self/fd")) == fds  # closed though not cut

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    @pytest.mark.parametrize("command", ["simulate", "table"])
    def test_fifo_is_written_uncut_and_gets_no_sidecar(self, tmp_path, command):
        want = write_out(command, tmp_path / "fresh")[0]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()  # the CLI's open of the FIFO blocks until a reader opens it
        try:
            code, err = run_cli_process([*OUT_CALLS[command], "--out", str(fifo)], tmp_path,
                                        subprocess.DEVNULL, timeout=60)
        finally:
            with contextlib.suppress(OSError):  # ends a read that no writer ever opened for
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
        assert (code, err) == (EXIT_OK, "")
        assert got == [want]
        assert not Path(f"{fifo}.meta.json").exists()

    @pytest.mark.parametrize("command", list(OUT_CALLS))
    def test_existing_file_is_never_truncated_to_zero(self, tmp_path, command, monkeypatch):
        # opened without O_TRUNC and cut once, at the new text's length: a truncation to
        # zero makes ext4 flush the file when it is closed
        want = write_out(command, tmp_path / "fresh")
        files = out_files(command, tmp_path / "out")
        for f in files:
            f.write_bytes(b"x" * 100_000)
        opened, cuts = [], []
        real_open, real_ftruncate = os.open, os.ftruncate
        monkeypatch.setattr(os, "open", lambda path, flags, *a, **kw: opened.append(
            (str(path), flags)) or real_open(path, flags, *a, **kw))
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length)
                            or real_ftruncate(fd, length))
        got = write_out(command, tmp_path / "out")
        monkeypatch.undo()
        assert got == want
        assert [path for path, _ in opened] == [str(f) for f in files]
        assert not any(flags & os.O_TRUNC for _, flags in opened)
        assert cuts == [len(b) for b in want]


# --- the exit-code contract over generated argument vectors -------------------

def _either(good, wild):
    """Half the draws from each: a union would give every branch of `wild` a good one's share."""
    return st.booleans().flatmap(lambda bad: wild if bad else good)


WILD = st.floats(allow_nan=True, allow_infinity=True)
VALUES = _either(st.sampled_from([0.0, 0.5, 1.0, 1e-300, 1e300]), WILD).map(repr)
SEEDS = _either(st.integers(0, 2**64 - 1), st.integers(max_value=-1)
                | st.integers(min_value=2**64, max_value=2**70))
SPECS = _either(st.sampled_from(["log", "lin", "pow:0.25", "pow:0.5", "const:3"]), st.one_of(
    st.sampled_from(["const:", "log:5", "pow:abc", "bogus"]),
    VALUES.map(lambda v: f"const:{v}"), VALUES.map(lambda v: f"pow:{v}")))
# sizes of 10^15 and up fail at once, as a MemoryError or past numpy's index range
PATHS = _either(st.integers(1, 20), st.integers(-1, 0) | st.integers(10**15, 2**70))
SIZES = _either(st.integers(16, 60), st.integers(-3, 15))  # 16 is the least admissible n
# n is always given, to keep paths short; any other flag may keep its default (None)
MODEL = dict(n=SIZES, **{name: st.none() | s for name, s in dict(
    c=VALUES, d=VALUES, alpha=VALUES, kn=SPECS, rn=SPECS,
    regime=st.sampled_from(["stat", "expl"]), y0=VALUES, z0=VALUES).items()})


def _flags(draw, **strategies):
    """--name=value flags; the = form keeps values such as -inf from reading as options."""
    values = {name: draw(s) for name, s in strategies.items()}
    return [f"--{name.replace('_', '-')}={v}" for name, v in values.items() if v is not None]


def _path_csv(draw, n):
    """A path CSV of n + 1 rows with at most one cell replaced by a wild token."""
    cells = draw(st.lists(st.floats(-1e3, 1e3).map(repr), min_size=2 * n + 1,
                          max_size=2 * n + 1))
    wild = draw(st.none() | st.tuples(st.integers(0, 2 * n), st.one_of(WILD.map(repr),
                                                                      st.just("abc"))))
    if wild is not None:
        cells[wild[0]] = wild[1]
    rows = [f"0,{cells[0]},1,"] + [f"{t},{cells[t]},1,{cells[n + t]}" for t in range(1, n + 1)]
    return "t,y,sigma2,u\n" + "\n".join(rows) + "\n"


@st.composite
def cli_calls(draw, workdir):
    """(argv, CSV text or None) for one generated call of a subcommand."""
    out = draw(st.sampled_from([[], ["--out", f"{workdir}/out.txt"],
                                ["--out", "/nonexistent/dir/x"], ["--out", str(workdir)],
                                ["--out", "/dev/full"]]))
    command = draw(st.sampled_from(["simulate", "estimate", "table", "hist", "verify"]))
    if command == "simulate":
        return ["simulate", *_flags(draw, **MODEL, seed=SEEDS, rep=SEEDS), *out], None
    if command == "estimate":
        n = draw(st.integers(16, 60))
        model = dict(MODEL, n=_either(st.just(n), SIZES))
        return ["estimate", f"{workdir}/path.csv", *_flags(draw, **model)], _path_csv(draw, n)
    if command == "table":
        sizes = dict(id=st.sampled_from(["1a", "1b", "2a", "2b", "3c"]), reps=st.integers(-1, 1),
                     paths=PATHS, n=SIZES, seed=SEEDS)
        return ["table", *_flags(draw, **sizes), *out], None
    if command == "hist":
        sizes = dict(panel=st.sampled_from(["left", "right"]), n=SIZES, kn=SPECS,
                     paths=PATHS, bins=_either(st.integers(10, 60), st.integers(0, 9)), seed=SEEDS)
        return ["hist", *_flags(draw, **sizes), *out], None
    # verify only with inputs it rejects up front: a full run takes seconds
    bad_seed = st.one_of(st.integers(max_value=-1), st.integers(2**64 - 2, 2**70))
    return ["verify", f"--seed={draw(bad_seed)}"], None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_call_keeps_the_exit_code_contract(workdir, data):
    argv, csv_text = data.draw(cli_calls(workdir))
    stdout_fails = data.draw(st.booleans(), label="stdout_fails")  # for every command
    stderr_fails = data.draw(st.booleans(), label="stderr_fails")
    if csv_text is not None:
        (workdir / "path.csv").write_text(csv_text)
    code, _ = main_keeping_contract(argv, stdout_fails, stderr_fails)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_OVERFLOW, EXIT_VERIFY)
    if stdout_fails and code == EXIT_OK:
        assert "--out" in argv  # a success with a failing stdout wrote to a file


# --- the path CSV reader against np.genfromtxt --------------------------------

def _genfromtxt_y_u(path, n):
    """(y, u) as np.genfromtxt reads them, or None where they are not n + 1 finite values."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file
            data = np.genfromtxt(path, delimiter=",", names=True)
    except (ValueError, IndexError):  # rows of other lengths; an empty file
        return None
    if not {"y", "u"} <= set(data.dtype.names or ()) or data.size != n + 1:
        return None
    y, u = data["y"], data["u"][1:]
    return (y, u) if np.all(np.isfinite(y)) and np.all(np.isfinite(u)) else None


CELLS = _either(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                WILD.map(repr) | st.sampled_from(["abc", "", "1_000"]))


@st.composite
def path_csv_texts(draw):
    """(text, n) of a path CSV as other tools may write it: the columns in any
    order and with extras, CRLF endings, spaces around cells, blank and `#`
    comment lines, cells of any kind outside y and u, at most one y or u cell
    that is not a finite number and at most one row of another length.
    Comments come after the header: genfromtxt reads one before it as the header."""
    n = draw(st.integers(16, 30))
    names = draw(st.permutations(["t", "y", "sigma2", "u", *draw(st.lists(
        st.sampled_from(["w", "note", "v_2"]), max_size=2, unique=True))]))
    fmt = draw(st.sampled_from([repr, "%.17g".__mod__]))
    rows = [{"t": str(t), "u": "" if t == 0 else fmt(draw(st.floats(-1e3, 1e3))),
             "y": fmt(draw(st.floats(-1e3, 1e3)))} for t in range(n + 1)]
    for row in rows:
        row.update({name: draw(CELLS) for name in names if name not in row})
    wild = draw(st.none() | st.tuples(st.integers(0, n), st.sampled_from(["y", "u"]),
                                      WILD.map(repr) | st.just("abc")))
    if wild is not None:
        t, name, token = wild
        rows[t][name] = token
    ragged = draw(st.none() | st.tuples(st.integers(0, n), st.sampled_from([",", ",9"])))
    if ragged is not None:
        t, cells = ragged
        rows[t][names[-1]] += cells
    pad = st.sampled_from(["", " ", "  "])
    lines = [",".join(draw(pad) + name + draw(pad) for name in names)]
    lines += [",".join(draw(pad) + row[name] + draw(pad) for name in names) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(st.sampled_from(["# note", "#", "#,,,", " # spaced", ""])))
    lines = [""] * draw(st.integers(0, 2)) + lines + draw(st.lists(pad, max_size=3))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n", n


def _estimate_sums(y, u):
    """The bytes of the dot products that `estimate` forms over a path's y and u.

    A generated cell near 1e154 squares past the float range; the inf (or
    NaN) it makes is compared as bytes like any other sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([y[:-1] @ y[:-1], y[:-1] @ y[1:], y[:-1] @ u]).tobytes()


@settings(max_examples=200, deadline=None)
@given(case=path_csv_texts(), n_offset=_either(st.just(0), st.integers(-1, 1)))
def test_reader_matches_genfromtxt(workdir, case, n_offset):
    text, n = case
    path = workdir / "reader.csv"
    path.write_bytes(text.encode())
    n += n_offset
    expected = _genfromtxt_y_u(path, n)
    if expected is None:
        code, _ = main_keeping_contract(["estimate", str(path), "--n", str(n)])
        assert code == EXIT_DOMAIN
        return
    got = _read_path_csv(str(path), n)
    for got_column, want_column in zip(got, expected):
        assert got_column.tobytes() == want_column.tobytes()
        assert got_column.strides != (8,)  # a contiguous vector takes BLAS's unit-stride kernel
    assert _estimate_sums(*got) == _estimate_sums(*expected)


# --- the reader's edge cases that path_csv_texts does not generate ------------
# Each text is a path of n = 3; the expected (y, u) or exit code is what the
# line-by-line reader gave before the one-pass reader.

EDGE_Y, EDGE_U = [1.5, 2.5, -3.0, 0.125], [0.25, 0.5, -1.0]
EDGE_ROWS = ["t,y,sigma2,u", "0,1.5,1,", "1,2.5,1,0.25", "2,-3,1,0.5", "3,0.125,1,-1"]
EDGE_CASES = {
    "lone-cr": ("\r".join(EDGE_ROWS) + "\r", True),
    "no-final-newline": ("\n".join(EDGE_ROWS), True),
    "crlf-no-final-newline": ("\r\n".join(EDGE_ROWS), True),
    "hash-glued-to-last-cell": ("\n".join(EDGE_ROWS).replace("0.25", "0.25#n") + "#\n", True),
    "hash-after-header": ("\n".join(EDGE_ROWS).replace("u\n", "u# t, y, sigma2, u\n", 1), True),
    "hash-inside-header": ("\n".join(EDGE_ROWS).replace("y", "y#", 1) + "\n", False),
    "comment-only": ("# a\n#,,,\n \n", False),
    "header-only": ("t,y,sigma2,u\n", False),
}
# A str.splitlines separator, but not a line end, in one of four places: after
# y at t = 0, after an unread sigma2 cell, after a u cell and inside a u cell;
# False where estimate exits 3.  np.loadtxt reads every y and u cell, so
# "\x1c" after y at t = 0 reads as it does after u.
EDGE_SEPARATED = "t,y,sigma2,u\n0,1.5{0},1{1},\n1,2.5,1,0.25{2}\n2,-3,1,0.{3}5\n3,0.125,1,-1\n"
EDGE_SEPARATORS = {"\x0b": (True, True, True, False), "\x0c": (True, True, True, False),
                   "\x1c": (True, True, True, False), "\u2028": (True, True, True, False)}
for sep, reads in EDGE_SEPARATORS.items():
    for at, place in enumerate(["after-y0", "after-sigma2", "after-u", "inside-u"]):
        text = EDGE_SEPARATED.format(*[sep if i == at else "" for i in range(4)])
        EDGE_CASES[f"{ord(sep):#06x}-{place}"] = text, reads[at]


@pytest.mark.parametrize("text, reads", EDGE_CASES.values(), ids=EDGE_CASES)
def test_reader_edge_cases(tmp_path, text, reads):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    code, _ = main_keeping_contract(["estimate", str(path), "--n", "3"])
    assert code == (EXIT_OK if reads else EXIT_DOMAIN)
    if reads:
        y, u = _read_path_csv(str(path), 3)
        assert y.tobytes() == np.array(EDGE_Y).tobytes()
        assert u.tobytes() == np.array(EDGE_U).tobytes()
        assert y.strides == u.strides == (16,)
