import json
import math
from pathlib import Path

import pytest
from mpmath import mp, mpf

from zetastokes import cli, stokes
from zetastokes.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                            main)
from zetastokes.hp import PRINT_MARGIN, PrecisionContext, RayComplex
from zetastokes.stokes import sweep, sweep_point
from zetastokes.terminant import terminant

DATA = Path(__file__).resolve().parent / "data"
# the entries of `zeta validate`, in report order
VALIDATE_NAMES = [
    "improved-expansion exactness",
    "periodic-zeta reflection",
    "subtracted reflection",
    "terminant connection formula",
    "terminant smoothing midpoint",
    "terminant smoothing agreement",
    "combined remainder, corrected four-term form",
    "combined remainder, corrected reduced form",
    "combined remainder, printed four-term form",
    "combined remainder, printed reduced form",
    "prefactor normalization (2 pi)^s",
    "prefactor normalization (2 pi)^(2s)",
    "hidden-exponential extraction",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable1:
    def test_check_passes(self, capsys):
        code, out, err = run(capsys, "table1", "--check")
        assert code == EXIT_OK
        assert "all 8 rows match" in err
        lines = out.strip().splitlines()
        assert lines[0] == "absA,theta0_over_pi,S1_min"
        assert len(lines) == 9
        assert lines[4].startswith("6,0.473089,0.608463")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "table1", "--out", str(path))
        assert code == EXIT_OK and out == ""
        assert path.read_text().startswith("absA,")


class TestSweep:
    def test_requires_flags_or_reproduce(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "1")
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_reproduce_rejects_explicit_flags(self, capsys):
        code, _, err = run(capsys, "sweep", "--reproduce", "fig1a",
                           "--n", "2", "--abs-a", "9")
        assert code == EXIT_CONFIG
        assert "--n, --abs-a" in err

    def test_bad_theta_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--n", "1", "--abs-a", "6",
                         "--s", "3", "--theta", "0.7:0.3:5")
        assert code == EXIT_CONFIG

    def test_small_sweep_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--n", "1", "--abs-a", "6",
                         "--s", "3", "--theta", "0.45:0.55:3",
                         "--out", str(path))
        assert code == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == [
            "theta_over_pi", "re_S_exact", "im_S_exact", "S_approx"]
        assert len(lines) == 4
        resid = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(resid) <= 0.05

    def test_deterministic_csv(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            code, _, _ = run(capsys, "sweep", "--n", "1", "--abs-a", "6",
                             "--s", "3", "--theta", "0.48:0.52:3",
                             "--out", str(p))
            assert code == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(capsys, "sweep", "--reproduce", "fig1a",
                         "--format", "json", "--out", str(path),
                         "--digits", "60")
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["meta"]["plan_source"] == "pinned:fig1a"
        assert len(doc["rows"]) == 41
        assert doc["rows"][0]["N_list"] == "17|17"
        assert all(isinstance(row["resolved_digits"], float)
                   for row in doc["rows"])

    def test_failed_points_recorded(self, capsys, tmp_path):
        path = tmp_path / "fail.csv"
        code, _, err = run(capsys, "sweep", "--reproduce", "fig1c",
                           "--digits", "30", "--out", str(path))
        assert code == EXIT_OK  # file produced; failures in the column
        assert "points failed" in err
        lines = path.read_text().strip().splitlines()
        assert all("InsufficientPrecisionError" in line
                   for line in lines[1:])

    def test_s_is_parsed_at_working_precision(self, capsys):
        # every printed digit belongs to s = 2.1, not to the double nearest
        # it: the 15-digit parse used to leave 18 of the 60 right
        code, out, _ = run(capsys, "sweep", "--n", "1", "--abs-a", "6",
                           "--s", "2.1", "--theta", "0.45:0.46:2")
        assert code == EXIT_OK
        ctx = PrecisionContext(digits=60)
        samples = sweep(1, 6.0, ctx.read("2.1"),
                        (0.45 * math.pi, 0.46 * math.pi, 2), ctx)
        printed = [line.split(",")[1:3]
                   for line in out.strip().splitlines()[1:]]
        assert printed == [[cli._nstr(smp.exact.real, 60),
                            cli._nstr(smp.exact.imag, 60)]
                           for smp in samples]

    def test_abs_a_is_parsed_at_working_precision(self, capsys):
        # --abs-a 6.1 sweeps the ray |a| = 6.1: the double nearest it,
        # 6.0999999999999996447..., moves S_1 by about 6e-17
        code, out, _ = run(capsys, "sweep", "--n", "1", "--abs-a", "6.1",
                           "--s", "3", "--theta", "0.45:0.55:3")
        assert code == EXIT_OK
        printed = [line.split(",")[1:3]
                   for line in out.strip().splitlines()[1:]]
        ctx = PrecisionContext(digits=80)
        theta = (0.45 * math.pi, 0.55 * math.pi, 3)

        def digits(abs_a):
            return [[cli._nstr(smp.exact.real, 60),
                     cli._nstr(smp.exact.imag, 60)]
                    for smp in sweep(1, abs_a, 3, theta, ctx)]

        with ctx.working():
            exact = mpf("6.1")
        assert printed == digits(exact)
        assert printed != digits(6.1)

    def test_printed_digits_are_resolved(self, capsys):
        # S_2 at |a| = 6 resolves about 52 digits at 60, so a short point
        # raises the context by its shortfall and runs again; the JSON
        # reports the digits of the value printed: the 60 printed, the
        # smallest part's leading zeros and the margin
        code, out, _ = run(capsys, "sweep", "--n", "2", "--abs-a", "6",
                           "--s", "2", "--theta", "0.45:0.55:3",
                           "--format", "json")
        assert code == EXIT_OK
        for row in json.loads(out)["rows"]:
            smallest = min(abs(float(row["re_S_exact"])),
                           abs(float(row["im_S_exact"])))
            assert row["resolved_digits"] >= \
                60 + PRINT_MARGIN - math.log10(smallest)

    def test_each_point_computed_once_plus_reruns(self, capsys,
                                                  monkeypatch):
        # a short point raises the context for itself and every later
        # point, so only short points at the current context run twice
        digits = []

        def counted(*args):
            digits.append(args[5].digits)
            return sweep_point(*args)
        monkeypatch.setattr(stokes, "sweep_point", counted)
        code, out, _ = run(capsys, "sweep", "--n", "2", "--abs-a", "6",
                           "--s", "2", "--theta", "0.45:0.55:3",
                           "--format", "json")
        assert code == EXIT_OK
        reruns = json.loads(out)["meta"]["reruns"]
        assert reruns >= 1
        assert len(digits) == 3 + reruns
        assert digits == sorted(digits) and digits[0] == 60

    def test_abs_a_beyond_double_squares_fails_per_point(self, capsys):
        # used to end in an OverflowError traceback, exit 1
        code, out, err = run(capsys, "sweep", "--n", "1", "--abs-a", "1e300",
                             "--s", "3", "--theta", "0.4:0.6:2")
        assert code == EXIT_OK
        assert "2/2 points failed" in err
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all("DomainError" in row and "double range" in row
                   for row in rows)

    def test_abs_a_beyond_double_is_numeric_error(self, capsys):
        # |a| = 1e400 is finite as read but infinite as the double of the
        # erf approximation, which printed nan in every row and exited 0
        code, out, err = run(capsys, "sweep", "--n", "1", "--abs-a", "1e400",
                             "--s", "3", "--theta", "0.4:0.6:2",
                             "--digits", "30")
        assert code == EXIT_NUMERIC
        assert out == "" and "nan" not in err
        assert "erf_approx needs a finite |a|" in err

    @pytest.mark.parametrize("fig", ["fig1a", "fig1b", "fig1c"])
    def test_reproduction_matches_committed_csv(self, capsys, tmp_path, fig):
        # every printed digit of the pinned sweeps is fixed by the CSVs in
        # tests/data, so a change to any number fails here
        path = tmp_path / f"{fig}.csv"
        code, _, _ = run(capsys, "sweep", "--reproduce", fig,
                         "--out", str(path))
        assert code == EXIT_OK
        assert path.read_bytes() == (DATA / f"{fig}.csv").read_bytes()


class TestValidate:
    def test_passes_at_default_digits(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate", "--json", str(path))
        assert code == EXIT_OK
        assert "overall: PASS" in out
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert [e["name"] for e in doc["entries"]] == VALIDATE_NAMES

    def test_fails_at_30_digits(self, capsys):
        code, out, _ = run(capsys, "validate", "--digits", "30")
        assert code == EXIT_CHECK
        assert "insufficient precision" in out


class TestTerminant:
    def test_evaluates(self, capsys):
        code, out, _ = run(capsys, "terminant", "--nu", "30",
                           "--z", "30:3.14159265358979", "--digits", "30")
        assert code == EXIT_OK
        assert out.strip().startswith("(0.4")

    def test_gate_output_is_pinned(self, capsys):
        # every printed digit of the 60-digit value at nu = 30,
        # z = 30 e^(i pi), the ray where the series inflation is smallest
        code, out, _ = run(capsys, "terminant", "--nu", "30",
                           "--z", "30:3.141592653589793")
        assert code == EXIT_OK
        assert out == (
            "(0.499999999999999477486668106074820804118219688187797209981267"
            " - 0.0487651343492038462228210313701028280737788499905761729238674"
            "j)\n")

    def test_z_is_read_at_working_precision(self, capsys):
        # 0.1 is the decimal typed, not the double nearest it
        code, out, _ = run(capsys, "terminant", "--nu", "30",
                           "--z", "30:0.1")
        assert code == EXIT_OK
        ctx = PrecisionContext(60)
        z = RayComplex(ctx.read("30").real, ctx.read("0.1").real)
        assert out == mp.nstr(terminant(30, z, ctx), 60,
                              strip_zeros=False) + "\n"

    def test_bad_polar(self, capsys):
        code, _, err = run(capsys, "terminant", "--nu", "3", "--z", "5")
        assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ("terminant", "--nu", "3", "--z", "nan:0"),
    ("terminant", "--nu", "3", "--z", "inf:0"),
    ("terminant", "--nu", "3", "--z", "5:nan"),
    ("terminant", "--nu", "nan", "--z", "5:0"),
    ("terminant", "--nu", "3,inf", "--z", "5:0"),
    ("sweep", "--n", "1", "--abs-a", "nan", "--s", "3",
     "--theta", "0.49:0.51:2"),
    ("sweep", "--n", "1", "--abs-a", "6", "--s", "inf",
     "--theta", "0.49:0.51:2"),
])
def test_non_finite_input_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert "non-finite" in err and out == ""


@pytest.mark.parametrize("argv, flag", [
    (("--n", "0", "--abs-a", "6"), "--n"),
    (("--n", "-2", "--abs-a", "6"), "--n"),
    (("--n", "1", "--abs-a", "0.5"), "--abs-a"),
    (("--n", "1", "--abs-a", "-3"), "--abs-a"),
])
def test_out_of_range_sweep_input_is_config_error(capsys, argv, flag):
    code, out, err = run(capsys, "sweep", *argv, "--s", "3",
                         "--theta", "0.49:0.51:2")
    assert code == EXIT_CONFIG
    assert f"config error: {flag} must be >= 1" in err and out == ""



SWEEP_ARGS = {"--n": "1", "--abs-a": "6", "--s": "3",
              "--theta": "0.49:0.51:2"}


def _sweep_with(flag, value):
    args = dict(SWEEP_ARGS, **{flag: value})
    return ("sweep",) + tuple(x for item in args.items() for x in item)


@pytest.mark.parametrize("argv, message", [
    (_sweep_with("--s", "1,2,3"), "expected RE or RE,IM"),
    (_sweep_with("--s", "x"), "unparseable complex number"),
    (_sweep_with("--abs-a", "x"), "unparseable --abs-a"),
    (_sweep_with("--theta", "0.3:0.7"), "expected LO:HI:COUNT"),
    (_sweep_with("--theta", "a:b:c"), "unparseable theta range"),
    (_sweep_with("--theta", "0.3:0.7:1"), "at least 2 points"),
    (("terminant", "--nu", "3", "--z", "x:1"), "unparseable polar value"),
    (("terminant", "--nu", "3", "--z=-1:0"), "modulus must be positive"),
    (_sweep_with("--digits", "20"), "digits must be >= 30"),
    (_sweep_with("--s", "1/0"), "unparseable complex number"),
])
def test_bad_input_is_config_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("table1", "--out"),
    _sweep_with("--digits", "30") + ("--out",),
    ("validate", "--json"),
], ids=["table1", "sweep", "validate"])
def test_unwritable_output_is_config_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, str(path))
    assert code == EXIT_CONFIG
    assert err.startswith("config error: cannot write ")
    assert not path.exists()


@pytest.mark.parametrize("argv, work", [
    (("table1", "--out"), "find_minimum"),
    (("sweep", "--reproduce", "fig1c", "--out"), "sweep"),
    (("validate", "--json"), "run_validation"),
], ids=["table1", "sweep", "validate"])
def test_unwritable_output_rejected_before_computing(capsys, tmp_path,
                                                     monkeypatch, argv, work):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking the output path")
    monkeypatch.setattr(cli, work, no_work)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_CONFIG
    assert err.startswith("config error: cannot write ") and out == ""
    assert not path.parent.exists()
