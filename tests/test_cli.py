import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest

from sexticlab.cli import (
    EXIT_BUDGET,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    build_parser,
    main,
)
from sexticlab import eclab
from sexticlab.classify import classify
from sexticlab.parser import parse

from corpus import CORPUS, ENGINELESS

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "corpus_cli.json").read_text()
)
QUADRATIC_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "quadratic_case_cli.json").read_text()
)
NORMAL_FORM_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "normal_form_cli.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- analyze ------------------------------------------------------------------


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--poly", "x^6 + y^6")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["route"] == "MP0"
    assert obj["schema"] == "1"


@pytest.mark.parametrize("row", QUADRATIC_GOLDEN, ids=[row["poly"] for row in QUADRATIC_GOLDEN])
def test_analyze_quadratic_case_matches_golden(capsys, row):
    """The Q(sqrt k) arithmetic of the MP1-quadratic analysis, byte for byte:
    v_k a square, v_k not a square, and a doubled factor that needs the
    shift x + (-1)*y."""
    assert run(capsys, "analyze", "--poly", row["poly"])[:2] == (row["exit"], row["stdout"])


@pytest.mark.parametrize("row", NORMAL_FORM_GOLDEN, ids=[row["poly"] for row in NORMAL_FORM_GOLDEN])
def test_analyze_normal_forms_match_golden(capsys, row):
    """The square completions and the MP3 record, byte for byte: an MP1-cubic
    completion, two MP2 completions, an MP3 G with the heavy monomial
    x^3, and an MP3 input that needs the x -> -x flip."""
    assert run(capsys, "analyze", "--poly", row["poly"])[:2] == (row["exit"], row["stdout"])


@pytest.mark.parametrize("poly, k", [
    # k = 10000000019 is prime: resolved once, and every Q(sqrt k) element
    # built after that reuses the answer
    ("(x^2 - 10000000019*y^2)^2*(x^2 + y^2) + (x^2 - 10000000019*y^2)*x^3", 10000000019),
    # two primes above 10^6 whose product exceeds 10^18: left open
    ("(x^2 - 1000000007*1000000009*y^2)^2*(x^2 + y^2)", None),
])
def test_analyze_large_k_finishes(poly, k):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "sexticlab.cli", "analyze", "--poly", poly],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    obj = json.loads(proc.stdout)
    assert obj["route"] == "MP1-quadratic"
    assert obj["shape"].get("k") == k
    unresolved = [n for n in obj["notes"] if "not resolved" in n]
    assert unresolved == ([] if k else [
        "square-free kernel k of 1000000016000000063 not resolved by trial division up to 1000000"
    ])


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", "--poly", "x^6 - y^6", "--format", "text")
    assert code == EXIT_OK
    assert "route: not-positive-leading" in out


def test_analyze_poly_file(tmp_path, capsys):
    obj = parse("x^6 + x^2*y^3").to_json_obj()
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "analyze", "--poly-file", str(pf))
    assert code == EXIT_OK
    assert json.loads(out)["route"] == "MP3"


def test_analyze_out_file(tmp_path, capsys):
    dest = tmp_path / "rep.json"
    code, out, _ = run(capsys, "analyze", "--poly", "x^6 + y^6", "--out", str(dest))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(dest.read_text())["route"] == "MP0"


def test_unwritable_out_path_exit_2(tmp_path, capsys):
    dest = tmp_path / "missing-dir" / "rep.json"
    code, out, err = run(capsys, "analyze", "--poly", "x^6 + y^6", "--out", str(dest))
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: cannot write --out") and "Traceback" not in err
    assert not dest.parent.exists()


def test_analyze_requires_one_source(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == EXIT_INPUT
    assert "exactly one" in err
    code, _, _ = run(capsys, "analyze", "--poly", "x", "--poly-file", "x.json")
    assert code == EXIT_INPUT


def test_analyze_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "--poly", "x +")
    assert code == EXIT_INPUT
    assert "parse error" in err


@pytest.mark.parametrize("poly", ["x^²", "x^٣"])
def test_analyze_non_ascii_digit_exit_2(capsys, poly):
    code, out, err = run(capsys, "analyze", "--poly", poly)
    assert code == EXIT_INPUT
    assert out == "" and "parse error" in err and "Traceback" not in err


def test_bad_poly_file(tmp_path, capsys):
    pf = tmp_path / "bad.json"
    pf.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--poly-file", str(pf))
    assert code == EXIT_INPUT


@pytest.mark.parametrize("argv", [["analyze"], ["density", "--bound", "10"]])
def test_poly_file_zero_denominator(tmp_path, capsys, argv):
    pf = tmp_path / "zero.json"
    pf.write_text(json.dumps({"terms": [[1, 0, "1/0"]]}))
    code, _, err = run(capsys, *argv, "--poly-file", str(pf))
    assert code == EXIT_INPUT
    assert err.startswith("error: cannot read polynomial file")
    assert "Traceback" not in err


# a float coefficient is not rounded to its binary expansion, a float
# exponent is not truncated, and a bool is not read as 1
@pytest.mark.parametrize("terms", [
    [[6, 0, "1"], [0, 6, "1"], [0, 0, 0.1]],
    [[6, 0, "1"], [2.5, 0, "1"]],
    [[6, 0, "1"], [0, 6, True]],
], ids=["float-coeff", "float-exponent", "bool-coeff"])
@pytest.mark.parametrize("argv", [["analyze"], ["density", "--bound", "10"]])
def test_poly_file_rejects_inexact_json(tmp_path, capsys, argv, terms):
    pf = tmp_path / "inexact.json"
    pf.write_text(json.dumps({"terms": terms}))
    code, out, err = run(capsys, *argv, "--poly-file", str(pf))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: cannot read polynomial file")


def test_poly_file_accepts_integer_coefficients(tmp_path, capsys):
    pf = tmp_path / "ints.json"
    pf.write_text(json.dumps({"terms": [[6, 0, 1], [0, 6, "1"], [0, 0, "1/10"]]}))
    code, out, _ = run(capsys, "analyze", "--poly-file", str(pf))
    assert code == EXIT_OK
    assert json.loads(out)["route"] == "MP0"


@pytest.mark.parametrize("argv", [
    ["analyze", "--poly", "x^6 + y^6", "--format", "csv"],
    ["witness", "--poly", "x^6 - y^6", "--format", "csv"],
    ["density", "--poly", "x^2 + y^2", "--bound", "100", "--format", "text"],
])
def test_format_a_subcommand_does_not_implement_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert "argument --format: invalid choice" in err


@pytest.mark.parametrize("argv", [
    ["density", "--poly", "x^2 + y^2", "--bound", "100"],
    ["density", "--poly", "x^6 + y^6", "--ladder", "100,200,400"],
    ["density", "--baseline", "--bound", "1000"],
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_rejected(capsys, argv, workers):
    code, out, err = run(capsys, *argv, "--workers", workers)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --workers must be positive\n"


def test_witness_has_no_workers_option(capsys):
    code, out, err = run(capsys, "witness", "--poly", "x^6 - y^6", "--workers", "2")
    assert (code, out) == (EXIT_INPUT, "")
    assert "unrecognized arguments: --workers 2" in err


# -- witness ------------------------------------------------------------------


def test_witness_negative_value(capsys):
    code, out, _ = run(capsys, "witness", "--poly", "(y^2 - x^3 - x)^2 - y + 100")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["kind"] == "negative-value"
    assert obj["route"] == "MP3"
    x, y, v = obj["points"][0]
    assert parse("(y^2 - x^3 - x)^2 - y + 100").eval(x, y) == int(v)


def test_witness_inconclusive_exit(capsys):
    code, out, _ = run(capsys, "witness", "--poly", "x^6 + y^6")
    assert code == EXIT_INCONCLUSIVE
    assert json.loads(out)["kind"] == "inconclusive"


def test_witness_budget_exit(capsys):
    # a tiny anisotropic budget exhausts and reports exit code 4
    code, out, _ = run(
        capsys, "witness", "--poly", "x^6 + x^2*y^3 + 1", "--budget-tmax", "4"
    )
    obj = json.loads(out)
    if obj["kind"] == "inconclusive":
        assert code == EXIT_BUDGET
    else:
        assert code == EXIT_OK


def test_witness_exhausted_budget_exit(capsys):
    # Tmax = 1 ends the anisotropic schedule before its first step
    code, out, _ = run(
        capsys, "witness", "--budget-tmax", "1", "--poly", "x^6 + x^2*y^3"
    )
    assert json.loads(out)["kind"] == "inconclusive"
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("poly,lemma,note", [
    # 10^100 x^4 outweighs -x^6 until |x| passes 10^50, far beyond the
    # scales up to 10^12 that the ray search takes
    ("-x^6 + 10^100*x^4", "indefinite-leading", "scaling budget exhausted"),
    # 10^100 x^4 outweighs x^5 until x passes 10^100, which 64 convergents
    # of +-sqrt 2 do not reach
    ("(x^2 - 2*y^2)^2*(x^2 + y^2) + 10^100*x^4 + x^5", "dirichlet-approximation",
     "no negative value within 64 convergents over 2 directions"),
])
def test_witness_engine_budget_exit(capsys, poly, lemma, note):
    code, out, _ = run(capsys, "witness", f"--poly={poly}")
    obj = json.loads(out)
    assert (obj["kind"], obj["lemma"], obj["note"]) == ("inconclusive", lemma, note)
    assert code == EXIT_BUDGET


def test_witness_large_convergent_budget(capsys):
    # 200 convergents give values past the float range; the reported growth
    # ratio is taken from logs, so the run ends with its witness, not an
    # OverflowError
    code, out, _ = run(
        capsys, "witness", "--budget-convergents", "200",
        "--poly", "(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5",
    )
    obj = json.loads(out)
    assert code == EXIT_OK
    assert obj["kind"] == "negative-value"
    assert float(obj["extra"]["growth_ratio_min"]) > 0


def test_witness_growth_ratio_past_float_range(capsys):
    # 10^400 x^5 puts the growth ratio of every convergent beyond a float:
    # it reads inf, and the negative values still make the witness
    expr = "(x^2 - 2*y^2)^2*(x^2 + y^2) + 10^400*x^5"
    code, out, err = run(capsys, "witness", "--poly", expr)
    obj = json.loads(out)
    assert code == EXIT_OK and err == ""
    assert obj["kind"] == "negative-value"
    assert obj["extra"]["growth_ratio_min"] == "inf"
    F = parse(expr)
    assert all(F.eval(x, y) == int(v) < 0 for x, y, v in obj["points"])


@pytest.mark.parametrize("expr", ["x^174 + y^2", "10^310*x^2 + y^2"])
def test_witness_growth_diagnostic_past_float_range(capsys, expr):
    # F(x, y) is beyond a float on part of the box; its ratio reads inf
    code, out, err = run(capsys, "witness", "--poly", expr)
    obj = json.loads(out)
    assert code == EXIT_OK and err == ""
    assert obj["kind"] == "dearth-diagnostic"
    assert obj["extra"]["min_ratio"] == "1"


@pytest.mark.parametrize("engine,expr,matrix", [
    ("ray_witness", "x^6 - y^6", [[1, 0], [0, 1]]),
    ("anisotropic_witness", "(x+y)^6 + (x+y)^2*y^3", [[0, -1], [1, 1]]),
])
def test_witness_rejects_corrupted_engine_point(monkeypatch, tmp_path, capsys, engine, expr, matrix):
    # engines do not check their points; the check against the input in
    # witness_for is what stands between the bad point and the output
    import sexticlab.witness as witness_mod

    real = getattr(witness_mod, engine)

    def corrupted(*args, **kwargs):
        w = real(*args, **kwargs)
        (x, y, v), *rest = w.points
        return witness_mod.Witness(w.kind, w.lemma, [(x + 1, y, v), *rest], w.note, w.extra)

    monkeypatch.setattr(witness_mod, engine, corrupted)
    assert (classify(parse(expr)).shape or {}).get("matrix", [[1, 0], [0, 1]]) == matrix
    out_file = tmp_path / "w.json"
    for extra in ([], ["--out", str(out_file)]):
        with pytest.raises(witness_mod.CertificateError):
            main(["witness", "--poly", expr, *extra])
        assert capsys.readouterr().out == ""
        assert not out_file.exists()


def test_witness_rejects_bad_budget(capsys):
    code, _, err = run(
        capsys, "witness", "--poly", "x^6 + y^6", "--budget-tmax", "-1"
    )
    assert code == EXIT_INPUT
    assert "positive" in err


def test_witness_text_format(capsys):
    code, out, _ = run(
        capsys, "witness", "--poly", "x^6 - y^6 + x*y", "--format", "text"
    )
    assert code == EXIT_OK
    assert "kind: negative-value" in out


# -- density ------------------------------------------------------------------


def test_density_bound_json(capsys):
    code, out, _ = run(capsys, "density", "--poly", "x^2 + y^2", "--bound", "100")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["schema"] == "1" and obj["range"] == [100, 200]


def test_density_csv(capsys):
    code, out, _ = run(
        capsys, "density", "--poly", "x^2 + y^2", "--bound", "100", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "N,count,normalized"


def test_density_ladder(capsys):
    code, out, _ = run(
        capsys, "density", "--poly", "x^2 + y^2", "--ladder", "100,200,400"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["rows"]) == 3


def test_density_baseline(capsys):
    code, out, _ = run(capsys, "density", "--baseline", "--bound", "10000",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "Nmax,count,ratio"
    assert lines[1].startswith("10000,")


def test_density_form_vanishing_at_small_slopes(capsys):
    # the degree-14 leading form vanishes at (1, 0), (0, 1), (1, +-1), (1, +-2), (2, 1)
    poly = "(x*y*(x-y)*(x+y)*(x-2*y)*(2*x-y)*(2*x+y))^2"
    code, out, _ = run(capsys, "density", "--poly", poly, "--bound", "100")
    assert code == EXIT_OK
    assert json.loads(out)["notes"] == ["box not certified: form is not positive definite"]


def test_density_requires_bound(capsys):
    code, _, err = run(capsys, "density", "--poly", "x^2 + y^2")
    assert code == EXIT_INPUT
    assert "--bound" in err


@pytest.mark.parametrize("argv,message", [
    (["--baseline", "--bound", "0"], "Nmax must be >= 100"),
    (["--baseline", "--bound", "-3"], "Nmax must be >= 100"),
    (["--poly", "x^2 + y^2", "--bound", "0"], "N must be >= 2"),
    (["--baseline", "--ladder", "100", "--poly", "x^2 + y^2"], "not allowed with"),
    (["--poly", "x^2 + y^2", "--ladder", "100", "--bound", "5"], "--ladder and --bound"),
    (["--baseline", "--bound", "100", "--poly", "x^2 +"], "not with --poly or --poly-file"),
    (["--baseline", "--bound", "100", "--poly", "x^2 + y^2"], "not with --poly or --poly-file"),
    (["--baseline", "--bound", "100", "--poly-file", "missing.json"],
     "not with --poly or --poly-file"),
    (["--poly", "x^2 + y^2", "--ladder", "100,200,100"], "repeated N in the ladder"),
    # rejected before the baseline allocates anything
    (["--baseline", "--bound", "10000000000000000000"], "Nmax must be <= 268435456"),
    (["--baseline", "--bound", str(2**28 + 1)], "Nmax must be <= 268435456"),
    # rejected before the box's columns are built, in one window or a ladder
    (["--poly", "x^2 + y^2", "--bound", str(10**30)], "radius M = 1414213562373096"),
    (["--poly", "x^2 + y^2", "--ladder", f"100,{10**30}"], "radius M = 1414213562373096"),
])
def test_density_bad_bound_or_mode_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "density", *argv)
    assert code == EXIT_INPUT
    assert out == "" and message in err and "Traceback" not in err


def test_density_bad_ladder(capsys):
    code, _, _ = run(
        capsys, "density", "--poly", "x^2 + y^2", "--ladder", "10,zz"
    )
    assert code == EXIT_INPUT


# -- curve --------------------------------------------------------------------


def test_curve_rouse_csv(capsys):
    code, out, _ = run(
        capsys, "curve", "rouse", "--b1", "1", "--b0", "0", "--r", "1..3"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "r,x,y,gap,ratio"
    assert lines[1].startswith("1,72,611,1,")


def test_curve_rouse_comma_range(capsys):
    code, out, _ = run(
        capsys, "curve", "rouse", "--b1", "1", "--b0", "0", "--r", "2,4",
        "--format", "json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row[0] for row in rows] == [2, 4]


def test_curve_danilov(capsys):
    code, out, _ = run(capsys, "curve", "danilov", "--count", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,gap,ratio"
    assert len(lines) == 4


def test_curve_danilov_past_float_range(capsys):
    # from count 26 on, the gap is beyond a float; the ratio still tends to
    # 54 * 5^(-5/2)
    code, out, err = run(capsys, "curve", "danilov", "--count", "40")
    assert code == EXIT_OK and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 41
    assert abs(float(lines[-1].split(",")[3]) / (54 * 5**-2.5) - 1) < 0.01


def test_curve_rouse_past_float_range(capsys):
    # x is beyond the range of a float square root; ratio = r^2 / sqrt(x_r)
    # and x_r = 64 r^6 + 8 r^2 for b1 = 1
    r = 10**160
    code, out, _ = run(capsys, "curve", "rouse", "--b1", "1", "--b0", "0", "--r", str(r))
    assert code == EXIT_OK
    ratio = float(out.splitlines()[1].split(",")[4])
    assert abs(ratio * 8 * r - 1) < 1e-9


def test_curve_rouse_ratio_past_float_range(capsys):
    # gap = 1 - b0 = 10^400 + 1 at x = 72: the ratio itself is beyond a float,
    # so its column reads inf, while x, y and gap stay exact
    code, out, err = run(capsys, "curve", "rouse", "--b1", "1", "--b0", str(-10**400), "--r", "1")
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[1] == f"1,72,611,{10**400 + 1},inf"


def test_curve_hall(capsys):
    code, out, _ = run(capsys, "curve", "hall", "--xmax", "100", "--threshold", "2")
    assert code == EXIT_OK
    assert "2,3" in out  # gap 1 at (2, 3)


@pytest.mark.parametrize("threshold", ["5/2", "2.5", "10/4"])
def test_curve_hall_rational_threshold(capsys, threshold):
    code, out, err = run(capsys, "curve", "hall", "--xmax", "100", "--threshold", threshold,
                         "--format", "json")
    assert code == EXIT_OK and err == ""
    rows = eclab.hall_scan(100, Fraction(5, 2))
    assert json.loads(out) == [list(row) for row in rows]
    # 5/2 keeps fewer rows than 3 and more than 2 on this range
    assert len(eclab.hall_scan(100, 2)) < len(rows) < len(eclab.hall_scan(100, 3))


@pytest.mark.parametrize("threshold", ["abc", "2,5", "nan", "1e"])
def test_curve_hall_threshold_not_a_rational_exits_2(capsys, threshold):
    code, out, err = run(capsys, "curve", "hall", "--xmax", "100", "--threshold", threshold)
    assert code == EXIT_INPUT and out == ""
    assert "invalid Fraction value" in err


def test_curve_hall_huge_threshold(capsys):
    # a 400-digit threshold admits every x whose cube is not a square, and
    # leaves the float prefilter off in every block
    code, out, _ = run(capsys, "curve", "hall", "--xmax", "20000", "--threshold", "9" * 400)
    assert code == EXIT_OK
    xs = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert xs == [x for x in range(2, 20001) if isqrt(x) ** 2 != x]


def test_curve_pell(capsys):
    code, out, _ = run(capsys, "curve", "pell", "--d", "2", "--c", "1", "--count", "3")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["3,2", "17,12", "99,70"]


def test_curve_pell_four_past_norm_minus_one_unit(capsys):
    code, out, _ = run(capsys, "curve", "pell", "--d", "10", "--c", "4", "--count", "2")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["38,12", "1442,456"]


def test_curve_pell_exits_4_past_the_step_cap(capsys, monkeypatch):
    # sqrt(94) has period 16, so its unit needs 16 continued-fraction steps
    from sexticlab import eclab

    argv = ("curve", "pell", "--d", "94", "--c", "1", "--count", "1")
    monkeypatch.setattr(eclab, "PELL_CF_STEPS", 16)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out.splitlines()[1:] == ["2143295,221064"]
    monkeypatch.setattr(eclab, "PELL_CF_STEPS", 15)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("error: ") and "15 continued-fraction steps" in err


def test_curve_pell_long_period_exits_4(capsys):
    # a period longer than the cap used to hang the walk
    code, out, err = run(capsys, "curve", "pell", "--d", "1000000000007", "--c", "1")
    assert code == EXIT_BUDGET and out == "" and err.startswith("error: ")


def test_curve_pell_unsolvable(capsys):
    code, _, err = run(capsys, "curve", "pell", "--d", "3", "--c", "-1")
    assert code == EXIT_INPUT
    assert "no integer solutions" in err


@pytest.mark.parametrize("argv", [
    ["rouse", "--b1", "1", "--b0", "0", "--r", "1..x"],
    ["rouse", "--b1", "1", "--b0", "0", "--r", "3..1"],
    ["danilov", "--count", "-3"],
    ["hall", "--xmax", "-5"],
    ["hall", "--threshold", "-1"],
])
def test_curve_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, "curve", *argv)
    assert code == EXIT_INPUT
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_subcommand_exit(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT


# -- determinism across workers ----------------------------------------------


@pytest.mark.parametrize("workers", ["1", "4"])
def test_density_workers_identical(capsys, workers):
    code, out, _ = run(
        capsys, "density", "--poly", "x^6 + y^6", "--bound", "2000",
        "--workers", workers,
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["count"] == json.loads(
        run(capsys, "density", "--poly", "x^6 + y^6", "--bound", "2000")[1]
    )["count"]


def test_parser_prog_name():
    assert build_parser().prog == "sextic-sieve"


# every subcommand, input errors found by the handlers and by argparse, help
REUSE_JOBS = [
    ["analyze", "--poly", "x^6 + y^6"],
    ["analyze", "--poly", "x^6 - y^6", "--format", "text"],
    ["witness", "--poly", "x^6 - y^6"],
    ["witness", "--poly", "x^6 + x^2*y^3", "--budget-tmax", "1"],
    ["density", "--poly", "x^6 + y^6", "--bound", "300"],
    ["density", "--poly", "x^2 + y^2", "--ladder", "100,200", "--format", "csv"],
    ["density", "--baseline", "--bound", "1000"],
    ["curve", "rouse", "--b1", "1", "--b0", "0", "--r", "1..2"],
    ["curve", "danilov", "--count", "3", "--format", "json"],
    ["curve", "hall", "--xmax", "200"],
    ["curve", "pell", "--d", "2", "--c", "-1"],
    ["analyze"],
    ["witness", "--poly", "x^6", "--budget-box", "0"],
    ["witness", "--poly", "x^6", "--budget-tmax", "many"],
    ["curve", "pell", "--d", "2", "--c", "3"],
    ["frobnicate"],
    [],
    ["--help"],
    ["density", "--help"],
    ["curve", "hall", "--help"],
]


def test_parser_reuse_matches_fresh_parsers(monkeypatch, capsys):
    import sexticlab.cli as cli_mod

    def run_all():
        return [run(capsys, *argv) for argv in REUSE_JOBS]

    cli_mod._parser.cache_clear()
    reused = run_all() + run_all()  # the first job builds the parser
    assert cli_mod._parser() is cli_mod._parser()
    # the same jobs with a newly built parser for every call
    monkeypatch.setattr(cli_mod, "_parser", build_parser)
    fresh = run_all()
    assert reused == fresh + fresh
    codes = [code for code, _, _ in fresh]
    assert codes[:11] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_BUDGET] + [EXIT_OK] * 7
    assert codes[11:17] == [EXIT_INPUT] * 6 and codes[17:] == [EXIT_OK] * 3
    assert "usage: sextic-sieve" in fresh[17][1]


def test_cli_runs_cold_in_a_fresh_interpreter():
    # a one-shot process: import, build the parser once, run one job
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "sexticlab.cli", "analyze", "--poly", "x^6 + x^2*y^3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert json.loads(proc.stdout) == classify(parse("x^6 + x^2*y^3")).to_json_obj()


# -- corpus contracts ---------------------------------------------------------


# the lemmas a witness of each engine can carry: an engine that finds
# nothing may hand over to the curve families or report its route's result
ENGINE_LEMMAS = {
    "ray": {"indefinite-leading"},
    "growth": {"growth-bound"},
    "dirichlet": {"dirichlet-approximation"},
    "anisotropic": {"anisotropic-schedule"},
    "mp2-fallback": {"anisotropic-schedule", "mp2"},
    "weighted-cubic": {"weighted-cubic", "rouse-3p", "danilov-gap", "mp3"},
    "family": {"rouse-3p", "danilov-gap"},
}


def _no_engine_result(rep):
    """(lemma, note) of the inconclusive witness of a route with no engine."""
    if rep.route == "MP3":
        return "mp3", rep.ecform_error
    if rep.route == "MP2":
        return "mp2", ("completed-square shape; representable values are sparse "
                       "(density probe recommended)")
    return rep.route.lower(), "no negativity engine applies; density probe recommended"


@pytest.mark.parametrize("expr,route", CORPUS + ENGINELESS)
def test_recommended_steps_run(capsys, expr, route):
    """A sextic's `recommended` is ["witness"] exactly when classify chose an
    engine, and `witness` then runs that engine; with no engine, `witness`
    gives the route's inconclusive result (exit 3) and `recommended` says
    density."""
    rep = classify(parse(expr))
    assert rep.route == route
    code, out, _ = run(capsys, "witness", "--poly", expr)
    w = json.loads(out)
    if (w["kind"], w["lemma"], w["note"]) == ("inconclusive", *_no_engine_result(rep)):
        assert rep.recommended == ["density"]
    if rep.engine is None:
        assert route != "not-a-sextic" and rep.recommended == ["density"]
        assert (code, w["kind"], w["lemma"], w["note"]) == (
            EXIT_INCONCLUSIVE, "inconclusive", *_no_engine_result(rep))
    else:
        name, theta = rep.engine
        # the growth diagnostic of a non-sextic certifies no negativity
        assert rep.recommended == (["density"] if name == "growth" else ["witness"])
        assert code != EXIT_INPUT and w["lemma"] in ENGINE_LEMMAS[name]
        if theta is not None:
            assert any(n.endswith(f"anisotropic witness, theta = {theta}") for n in rep.notes)
    for step in rep.recommended:
        # a bare subcommand name that the parser accepts
        build_parser().parse_args([step, "--poly", expr])


@pytest.mark.parametrize("row", GOLDEN, ids=[row["poly"] for row in GOLDEN])
def test_corpus_outputs_match_golden(capsys, row):
    """analyze, witness and density output byte-identical to the recorded
    goldens."""
    expr = row["poly"]
    for name, argv in (
        ("analyze", ["analyze", "--poly", expr]),
        ("witness", ["witness", "--poly", expr]),
        ("density", ["density", "--poly", expr, "--bound", "1000"]),
    ):
        assert run(capsys, *argv)[:2] == (row[name]["exit"], row[name]["stdout"]), name
