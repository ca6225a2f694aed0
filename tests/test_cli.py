import contextlib
import csv
import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl2u import cli, oracles
from dl2u.cli import (
    EXIT_DOMAIN, EXIT_OK, EXIT_OVERFLOW, EXIT_USAGE, EXIT_VERIFY, _read_path_csv,
    _write_path_csv, build_parser, main,
)
from dl2u.dgp import SimulatedPath


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

    def test_csv_bytes_match_the_row_loop(self):
        # the per-row writer that the one-write writer replaced, as the reference
        def row_loop(path, out):
            out.write("t,y,sigma2,u\n")
            for t in range(len(path.y)):
                u = "%.17g" % path.u[t - 1] if t >= 1 else ""
                out.write(f"{t},{'%.17g' % path.y[t]},{'%.17g' % path.sigma2[t]},{u}\n")

        cells = np.array([0.0, -0.0, 5e-324, -1e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3])
        path = SimulatedPath(y=cells, sigma2=cells[::-1].copy(), u=-cells[1:])
        got, want = io.StringIO(), io.StringIO()
        _write_path_csv(path, got)
        row_loop(path, want)
        assert got.getvalue() == want.getvalue()

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

    def test_explosive_sum_of_squares_overflow_exits_4(self):
        # y stays finite at n log rho_n above 354, but sum y_{t-1}^2 does not
        code, err = main_keeping_contract(["table", "--id", "1b", "--n-explosive", "3000",
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


class TestVerify:
    def test_draw_floor_is_domain_error(self, capsys):
        code, _, err = run(capsys, "verify", "--draws", "10")
        assert code == EXIT_DOMAIN
        assert "at least 100000" in err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux fault counters")
    def test_steady_state_takes_no_page_faults(self, capsys):
        resource = pytest.importorskip("resource")
        run(capsys, "verify", "--seed", "1")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(capsys, "verify", "--seed", "1")
        # Fresh oracle arrays took about 3,000 faults per call.
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def main_keeping_contract(argv):
    """(exit code, stderr) of `main(argv)`, asserting the CLI's output contract.

    No Python warning may be printed, an escaping exception would be a
    traceback, and a domain error is exactly one `domain error:` line.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert [str(w.message) for w in caught] == []
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
        (["estimate", "blank.csv"], None, EXIT_DOMAIN, "blank.csv: the file is empty"),
        (["estimate", "short.csv"], None, EXIT_DOMAIN, "4 rows; --n 1000 needs 1001"),
        (["simulate", "--n", "50", "--kn", "const:"], None, EXIT_DOMAIN, "'const:'"),
        (["simulate", "--n", "50", "--kn", "pow:abc"], None, EXIT_DOMAIN, "'pow:abc'"),
        (["simulate", "--n", "50", "--kn", "log:5"], None, EXIT_DOMAIN, "takes no parameter"),
        (["simulate", "--n", "50", "--alpha", "nan"], None, EXIT_DOMAIN, "alpha must be finite"),
        (["simulate", "--n", "50", "--c", "nan"], None, EXIT_DOMAIN, "c must be finite"),
        (["simulate", "--n", "50", "--d", "nan"], None, EXIT_DOMAIN, "d must be finite"),
        (["simulate", "--n", "50", "--y0", "nan"], None, EXIT_DOMAIN, "y0 must be finite"),
        (["simulate", "--n", "50", "--z0=-inf"], None, EXIT_DOMAIN, "z0 must be finite"),
        (["estimate", "abc.csv", "--n", "3"], None, EXIT_DOMAIN, "abc.csv has a y or u value"),
        (["estimate", "inf.csv", "--n", "3"], None, EXIT_DOMAIN, "inf.csv has a y or u value"),
        (["simulate", "--n", "50", "--out", "/nonexistent/dir/x"], None, EXIT_DOMAIN,
         "cannot write /nonexistent/dir/x"),
        (["table", "--id", "2a", "--reps", "1", "--paths", "5", "--n-explosive", "50",
          "--out", "/nonexistent/dir/x"], None, EXIT_DOMAIN, "cannot write /nonexistent/dir/x"),
        (["hist", "--n", "50", "--paths", "20", "--out", "/nonexistent/dir/x"], None,
         EXIT_DOMAIN, "cannot write /nonexistent/dir/x"),
        (["verify", "--seed", "-1"], None, EXIT_DOMAIN, "verify needs --seed"),
        (["verify", "--seed", str(2**64 - 2)], None, EXIT_DOMAIN, "verify needs --seed"),
        (["hist", "--n", "16", "--kn", "const:1e300", "--paths", "1"], None, EXIT_DOMAIN,
         "cannot bin the pivots"),
        (["simulate", "--n", "50", "--alpha", "1e300"], None, EXIT_OVERFLOW, "y overflowed"),
        (["estimate", "huge.csv", "--n", "3"], None, EXIT_OVERFLOW, "huge.csv overflow"),
        (["hist", "--n", "50", "--kn", "const:1e308"], None, EXIT_OVERFLOW, "n k_n"),
        # pivots near 1e155, whose squares in the Cauchy density overflow
        (["hist", "--panel", "right", "--n", "16", "--kn", "const:1.8845425674463404e+155",
          "--paths", "4"], None, EXIT_OK, ""),
        # a table seed is checked, not spread modulo 2^64
        (["table", "--id", "2a", "--reps", "1", "--paths", "20", "--n-explosive", "50",
          "--seed", "-1"], None, EXIT_DOMAIN, "64-bit"),
        (["table", "--id", "2a", "--reps", "1", "--paths", "20", "--n-explosive", "50",
          "--seed", str(2**64)], None, EXIT_DOMAIN, "64-bit"),
        # 0 and "" are values that get validated, not "not given"
        (["hist", "--panel", "right", "--n", "0"], None, EXIT_DOMAIN, "n must be at least 3"),
        (["hist", "--kn=", "--paths", "5"], None, EXIT_DOMAIN, "malformed sequence spec ''"),
        (["simulate", "--n", "20", "--out="], None, EXIT_DOMAIN, "cannot write"),
    ], ids=["negative-seed", "missing-csv", "bad-env-seed", "verify-ignores-env-seed",
            "csv-without-y-u", "empty-csv", "blank-csv", "csv-length-not-n", "kn-const-no-value",
            "kn-pow-not-a-number", "kn-log-with-value", "alpha-nan", "c-nan", "d-nan", "y0-nan",
            "z0-minus-inf", "csv-y-not-a-number", "csv-u-infinite", "simulate-out-missing-dir",
            "table-out-missing-dir", "hist-out-missing-dir", "verify-negative-seed",
            "verify-wnvn-base-too-large", "hist-one-huge-pivot", "simulate-huge-alpha",
            "csv-squares-overflow", "near-stationary-scale-overflow",
            "hist-huge-pivots-no-warning", "table-negative-seed", "table-seed-2-to-the-64",
            "hist-n-zero", "hist-kn-empty", "simulate-out-empty"])
    def test_invalid_input_exit_codes(self, argv, env_seed, code, message,
                                      tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_CSVS.items():
            (tmp_path / name).write_text(text)
        if env_seed is not None:
            monkeypatch.setenv("DL2U_SEED", env_seed)
        got, err = main_keeping_contract(argv)
        assert got == code
        assert message in err

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("DL2U_SEED", "424242")
        args = build_parser().parse_args(["table", "--id", "1a"])
        assert args.seed == 424242

    def test_cached_parser_follows_the_seed_env(self, tmp_path, monkeypatch):
        out = tmp_path / "path.csv"
        for env_seed in ("5", "6"):
            monkeypatch.setenv("DL2U_SEED", env_seed)
            assert main(["simulate", "--n", "20", "--out", str(out)]) == EXIT_OK
            meta = json.loads((tmp_path / "path.csv.meta.json").read_text())
            assert meta["seed"]["base"] == int(env_seed)

    def test_malformed_seed_env_after_a_cached_parser(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main_keeping_contract(["simulate", "--n", "20"])[0] == EXIT_OK
        monkeypatch.setenv("DL2U_SEED", "seven")
        for argv, code in [
            (["simulate", "--n", "20"], EXIT_USAGE),
            (["table", "--id", "2a"], EXIT_USAGE),
            (["hist"], EXIT_USAGE),
            (["estimate", "missing.csv"], EXIT_DOMAIN),  # no seed to default
            (["verify", "--draws", "10"], EXIT_DOMAIN),  # its own default seed
        ]:
            assert main_keeping_contract(argv)[0] == code

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        # the benchmark wraps cli.cmd_* after the parser may have been built
        assert main(["simulate", "--n", "20"]) == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args.n) or EXIT_OK)
        assert main(["simulate", "--n", "21"]) == EXIT_OK
        assert calls == [21]


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
PATHS = _either(st.integers(1, 20), st.integers(-1, 0))
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
                                ["--out", "/nonexistent/dir/x"], ["--out", str(workdir)]]))
    command = draw(st.sampled_from(["simulate", "estimate", "table", "hist", "verify"]))
    if command == "simulate":
        return ["simulate", *_flags(draw, **MODEL, seed=SEEDS, rep=SEEDS), *out], None
    if command == "estimate":
        n = draw(st.integers(16, 60))
        model = dict(MODEL, n=_either(st.just(n), SIZES))
        return ["estimate", f"{workdir}/path.csv", *_flags(draw, **model)], _path_csv(draw, n)
    if command == "table":
        sizes = dict(id=st.sampled_from(["1a", "1b", "2a", "2b", "3c"]), reps=st.integers(-1, 1),
                     paths=PATHS, n_nearstat=SIZES, n_explosive=SIZES, seed=SEEDS)
        return ["table", *_flags(draw, **sizes), *out], None
    if command == "hist":
        sizes = dict(panel=st.sampled_from(["left", "right"]), n=SIZES, kn=SPECS,
                     paths=PATHS, bins=_either(st.integers(10, 60), st.integers(0, 9)), seed=SEEDS)
        return ["hist", *_flags(draw, **sizes), *out], None
    # verify only with inputs it rejects up front: a full run takes seconds
    bad_seed = st.one_of(st.integers(max_value=-1), st.integers(2**64 - 2, 2**70))
    bad = draw(bad_seed.map(lambda s: [f"--seed={s}"]) | st.integers(
        max_value=oracles.MIN_DRAWS - 1).map(lambda d: [f"--draws={d}"]))
    return ["verify", *bad], None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_call_keeps_the_exit_code_contract(workdir, data):
    argv, csv_text = data.draw(cli_calls(workdir))
    if csv_text is not None:
        (workdir / "path.csv").write_text(csv_text)
    code, _ = main_keeping_contract(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_OVERFLOW, EXIT_VERIFY)


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
    for got, want in zip(_read_path_csv(str(path), n), expected):
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides  # so dot products sum in the same order
