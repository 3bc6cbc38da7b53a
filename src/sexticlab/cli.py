"""Command-line front end: parse -> classify -> witness/density/curve.

Exit codes are a stable contract: 0 success or certificate, 2 input error,
3 inconclusive, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .poly import BivarPoly
from .parser import ParseError, parse
from .classify import ClassifyError, classify
from .witness import SearchBudgets, witness_for
from . import density as density_mod
from . import eclab

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_BUDGET = 4


class InputError(ValueError):
    pass


def _load_poly(args) -> BivarPoly:
    """Exactly one polynomial source: inline expression or JSON term file."""
    if bool(args.poly) == bool(args.poly_file):
        raise InputError("provide exactly one of --poly / --poly-file")
    if args.poly:
        try:
            return parse(args.poly)
        except ParseError as exc:
            raise InputError(f"parse error: {exc}") from exc
    try:
        with open(args.poly_file) as fh:
            return BivarPoly.from_json_obj(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read polynomial file: {exc}") from exc


def _workers(args) -> int:
    if args.workers <= 0:
        raise InputError("--workers must be positive")
    return args.workers


def _budgets(args) -> SearchBudgets:
    b = SearchBudgets()
    for name, attr in (
        ("budget_convergents", "convergents"),
        ("budget_tmax", "Tmax"),
        ("budget_box", "box"),
        ("budget_rmax", "rmax"),
        ("budget_nmax", "Nmax"),
    ):
        v = getattr(args, name, None)
        if v is not None:
            if v <= 0:
                raise InputError(f"--{name.replace('_', '-')} must be positive")
            setattr(b, attr, v)
    return b


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write --out: {exc}") from exc
    else:
        print(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def cmd_analyze(args) -> int:
    F = _load_poly(args)
    rep = classify(F)
    obj = rep.to_json_obj()
    if args.format == "text":
        lines = [
            f"degree: {rep.degree}",
            f"route: {rep.route}",
            f"leading form: {rep.definiteness}",
            f"squarefree profile: {rep.profile}",
        ]
        for n in rep.notes:
            lines.append(f"note: {n}")
        for r in rep.recommended:
            lines.append(f"next: {r}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _json_dump(obj))
    return EXIT_OK


def cmd_witness(args) -> int:
    F = _load_poly(args)
    budgets = _budgets(args)
    rep = classify(F)
    w = witness_for(F, rep, budgets)
    obj = w.to_json_obj()
    obj["route"] = rep.route
    if args.format == "text":
        lines = [f"kind: {w.kind}", f"engine: {w.lemma}", f"route: {rep.route}"]
        for x, y, v in w.points[:20]:
            lines.append(f"F({x},{y}) = {v}")
        if len(w.points) > 20:
            lines.append(f"... {len(w.points) - 20} more points")
        if w.note:
            lines.append(f"note: {w.note}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _json_dump(obj))
    if w.kind == "inconclusive":
        return EXIT_BUDGET if w.exhausted else EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_density(args) -> int:
    workers = _workers(args)
    if args.baseline:
        if args.poly or args.poly_file:
            raise InputError("--baseline reads no polynomial: not with --poly or --poly-file")
        nmax = 10**6 if args.bound is None else args.bound
        count, ratio = density_mod.landau_baseline(nmax)
        if args.format == "csv":
            _emit(args, f"Nmax,count,ratio\n{nmax},{count},{ratio:.12g}")
        else:
            _emit(args, _json_dump({"Nmax": nmax, "count": count, "ratio": ratio}))
        return EXIT_OK
    if args.ladder is not None and args.bound is not None:
        raise InputError("--ladder and --bound are exclusive: give one")
    F = _load_poly(args)
    if args.ladder is not None:
        try:
            Ns = [int(s) for s in args.ladder.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --ladder list: {exc}") from exc
        probe = density_mod.stanley_probe(F, Ns, workers=workers)
        if args.format == "csv":
            lines = ["N,count,normalized"]
            for N, cnt, norm in probe["rows"]:
                lines.append(f"{N},{cnt},{norm:.12g}")
            _emit(args, "\n".join(lines))
        else:
            _emit(args, _json_dump(probe))
        return EXIT_OK
    if args.bound is None:
        raise InputError("density needs --bound N (or --baseline / --ladder)")
    rep = density_mod.count_range(F, args.bound, workers=workers)
    if args.format == "csv":
        _emit(args, "N,count,normalized\n" + rep.csv_row())
    else:
        _emit(args, _json_dump(rep.to_json_obj()))
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..", 1)
        rs = list(range(int(a), int(b) + 1))
        if not rs:
            raise InputError(f"empty range {text!r}: need a <= b in a..b")
        return rs
    return [int(s) for s in text.split(",")]


def cmd_curve(args) -> int:
    try:  # CurveError is a ValueError
        if args.family == "rouse":
            rows = eclab.rouse_family(args.b1, args.b0, _parse_range(args.r))
        elif args.family == "danilov":
            rows = eclab.danilov_family(args.count)
        elif args.family == "hall":
            rows = eclab.hall_scan(args.xmax, args.threshold)
        else:  # pell; argparse admits no other family
            sol = eclab.pell_solve(args.d, args.c, args.count)
    except eclab.PellBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.family == "pell":
        if args.format == "json":
            _emit(args, _json_dump({
                "d": args.d, "c": args.c,
                "solutions": [[x, y] for x, y in sol.solutions],
            }))
        else:
            _emit(args, "x,y\n" + "\n".join(f"{x},{y}" for x, y in sol.solutions))
    elif args.format == "json":
        _emit(args, _json_dump([list(row) for row in rows]))
    else:
        _emit(args, eclab.format_family_csv(rows, with_r=args.family == "rouse"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sextic-sieve",
        description="Exact analysis of bivariate sextics: route classification, "
        "negative-value witnesses, curve families, and value-set density.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_opts(p, formats):
        p.add_argument("--poly", help="polynomial expression in x, y (quoted)")
        p.add_argument("--poly-file", help="JSON term-list file")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    pa = sub.add_parser("analyze", help="classify a polynomial by its leading form")
    add_poly_opts(pa, ("json", "text"))
    pa.set_defaults(func=cmd_analyze)

    pw = sub.add_parser("witness", help="search for a negative-value or small-core witness")
    add_poly_opts(pw, ("json", "text"))
    pw.add_argument("--budget-convergents", type=int, default=None,
                    help="convergents walked per root direction by the Dirichlet search "
                         "(default 64)")
    pw.add_argument("--budget-tmax", type=int, default=None,
                    help="largest T of the anisotropic scan schedule (default 10^12)")
    pw.add_argument("--budget-box", type=int, default=None,
                    help="box half-width of the ray search and the growth scan (default 200; "
                         "they use min(4*degree, box) and min(box, 60))")
    pw.add_argument("--budget-rmax", type=int, default=None,
                    help="largest r of the 3P family walk (default 25)")
    pw.add_argument("--budget-nmax", type=int, default=None,
                    help="largest scale N of the weighted sign search (default 10^9)")
    pw.set_defaults(func=cmd_witness)

    pd = sub.add_parser("density", help="count distinct values in [N, 2N)")
    add_poly_opts(pd, ("json", "csv"))
    pd.add_argument("--bound", type=int, help="N for the [N, 2N) window")
    mode = pd.add_mutually_exclusive_group()
    mode.add_argument("--ladder", help="comma-separated N values for a normalized table")
    mode.add_argument("--baseline", action="store_true",
                      help="sums-of-two-squares table instead of enumeration")
    pd.add_argument("--workers", type=int, default=1)
    pd.set_defaults(func=cmd_density)

    pc = sub.add_parser("curve", help="integer point families on elliptic curves")
    csub = pc.add_subparsers(dest="family", required=True)
    cr = csub.add_parser("rouse", help="three-torsion multiple family on y^2 = x^3 + b1^4 x")
    cr.add_argument("--b1", type=int, required=True)
    cr.add_argument("--b0", type=int, required=True)
    cr.add_argument("--r", default="1..5", help="range a..b or comma list")
    cd = csub.add_parser("danilov", help="Lucas/Fibonacci small-gap family on y^2 = x^3")
    cd.add_argument("--count", type=int, default=8)
    ch = csub.add_parser("hall", help="exhaustive scan of x <= xmax for small |y^2 - x^3|")
    ch.add_argument("--xmax", type=int, default=10**5)
    ch.add_argument("--threshold", type=Fraction, default=Fraction(5),
                    help="keep x with 0 < |y^2 - x^3| <= threshold * sqrt(x); an exact "
                         "rational such as 5, 5/2 or 2.5 (default 5)")
    cp = csub.add_parser("pell", help="solutions of x^2 - d y^2 = c")
    cp.add_argument("--d", type=int, required=True)
    cp.add_argument("--c", type=int, required=True, choices=(1, -1, 4, -4))
    cp.add_argument("--count", type=int, default=3)
    for p in (cr, cd, ch, cp):
        p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.add_argument("--out", help="write output to this path instead of stdout")
    pc.set_defaults(func=cmd_curve)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main() call and reused:
    parse_args does not change it, and it depends on no input."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize anything else
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InputError, ClassifyError, density_mod.DensityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
