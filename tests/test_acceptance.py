"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Every numeric pin is either exact (integer equality) or carries the tolerance
stated next to it.  Runtime limits are asserted with wall-clock bounds.
"""

import json
import time
from fractions import Fraction

from sexticlab.classify import classify, cubic_square_completion
from sexticlab.cli import main as cli_main
from sexticlab.density import count_range, growth_exponent, landau_baseline
from sexticlab.eclab import (
    CurvePoint,
    EllipticCurve,
    danilov_family,
    ec_mul,
    hall_scan,
    rouse_point,
)
from sexticlab.parser import parse
from sexticlab.poly import BivarPoly
from sexticlab.witness import SearchBudgets, dirichlet_witness, witness_for
from sexticlab import _seeds

from corpus import CORPUS
from test_density import two_squares_direct
from test_eclab import rouse_gap_identity


def _report(num, name, body):
    from conftest import acceptance_lines

    try:
        body()
    except BaseException:
        line = f"ACCEPTANCE {num} {name}: FAIL"
        print(line)
        acceptance_lines.append(line)
        raise
    line = f"ACCEPTANCE {num} {name}: PASS"
    print(line)
    acceptance_lines.append(line)


def test_acceptance_1_rouse_family_exactness():
    def body():
        t0 = time.monotonic()
        for b1 in range(-10, 11):
            if not b1:
                continue
            for r in range(-10, 11):
                if not r:
                    continue
                x, y = rouse_point(b1, r)
                # exact on-curve gap identity, zero tolerance
                assert y * y - x**3 - b1 * x - r * r * b1 * b1 == 0
                # closed form equals generic group-law triplication
                E = EllipticCurve(Fraction(b1), Fraction(r * r * b1 * b1))
                P = CurvePoint(Fraction(0), Fraction(r * b1))
                Q = ec_mul(E, P, 3)
                assert (Q.x, Q.y) == (x, y)
        assert rouse_gap_identity()  # symbolic polynomial identity
        assert time.monotonic() - t0 < 5.0

    _report(1, "rouse-family-exactness", body)


def test_acceptance_2_taoshape_negativity():
    def body():
        t0 = time.monotonic()
        for b1 in (1, -1, 2, -2, 3):
            for b0 in (0, 1, -1):
                for c in (10, 100):
                    F = parse(f"(y^2 - x^3 - ({b1})*x - ({b0}))^2 - y + {c}")
                    w = witness_for(F, budgets=SearchBudgets(rmax=25))
                    assert w.kind == "negative-value"
                    assert w.verify(F)
                    assert min(v for _, _, v in w.points) < -(10**6)
        assert time.monotonic() - t0 < 5.0

    _report(2, "taoshape-negativity", body)


def test_acceptance_3_danilov_contract():
    def body():
        fam = danilov_family(10)
        assert len(fam) == 10
        for i, (x, y, gap, ratio) in enumerate(fam):
            assert gap != 0
            assert gap * gap < x  # exact integer comparison
            if i >= 4:
                # 54 * 5^(-5/2) = 0.9659822...; 1% relative tolerance
                assert abs(ratio - 0.965982) / 0.965982 < 0.01
        scan = {(x, y) for x, y, _g, _r in hall_scan(10**6, 1)}
        for x, y, gap, _ratio in fam:
            if x <= 10**6:
                assert (x, abs(y)) in scan

    _report(3, "danilov-contract", body)


def test_acceptance_4_dirichlet_witness():
    def body():
        t0 = time.monotonic()
        for k in (2, 3, 5):
            F = parse(f"(x^2 - {k}*y^2)^2*(x^2 + y^2) + x^5")
            w = dirichlet_witness(F, 20)
            assert w.kind == "negative-value"
            assert min(v for _, _, v in w.points) < -(10**6)
        F2 = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5")
        assert F2.eval(-7, -5) == -16733  # exact fixture point
        assert time.monotonic() - t0 < 1.0

    _report(4, "dirichlet-witness", body)


def test_acceptance_5_classifier_fixtures():
    def body():
        assert len(CORPUS) >= 12
        routes = {route for _e, route in CORPUS}
        assert {"MP0", "MP1-linear", "MP1-quadratic", "MP1-cubic", "MP2",
                "MP3", "paper-gap", "not-positive-leading",
                "not-a-sextic"} <= routes
        for expr, route in CORPUS:
            assert classify(parse(expr)).route == route, expr
        # square completion on a cubic repeated factor: F5 and F4 go into
        # the core, so the remainder has degree <= 4
        f = parse("x^3 + x*y^2 + y^3")
        F = f * f + parse("x^2") * f + parse("y") * f + parse("x*y + 7")
        comp = cubic_square_completion(F)
        assert comp.scale == 1 and comp.remainder.degree() <= 4

    _report(5, "classifier-fixtures", body)


def test_acceptance_6_density_oracles():
    def body():
        t0 = time.monotonic()
        F = parse("x^6 + y^6")
        rep = count_range(F, 10**6)
        brute = set()
        M = rep.box
        for x in range(-M, M + 1):
            for y in range(-M, M + 1):
                v = F.eval(x, y)
                if 10**6 <= v < 2 * 10**6:
                    brute.add(int(v))
        assert rep.count == len(brute)  # exact
        out = growth_exponent(F, [10**6, 10**8, 10**10, 10**12])
        assert abs(out["slope"] - 1 / 3) < 0.05  # pinned tolerance
        count, ratio = landau_baseline(10**6)
        assert abs(ratio - 0.76422) / 0.76422 < 0.15  # 15% tolerance
        small, _r = landau_baseline(10**4)
        assert small == two_squares_direct(10**4)  # exact agreement
        assert time.monotonic() - t0 < 60.0

    _report(6, "density-oracles", body)


def test_acceptance_7_worker_determinism(tmp_path):
    def body():
        outs = []
        for w in (1, 4, 16):
            p = tmp_path / f"d{w}.json"
            code = cli_main([
                "density", "--poly", "x^6 + y^6 + x*y", "--bound", "2000",
                "--workers", str(w), "--out", str(p),
            ])
            assert code == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]  # bit-identical
        # witness takes no worker count; its schedule is the same every run
        outs = []
        for k in range(3):
            p = tmp_path / f"w{k}.json"
            code = cli_main([
                "witness", "--poly", "(y^2 - x^3 - x)^2 - y + 100",
                "--out", str(p),
            ])
            assert code == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    _report(7, "worker-determinism", body)


def test_acceptance_8_exactness_audit():
    def body():
        F_cls = parse("(y^2 - x^3 - x)^2 - y + 100")
        F_dir = parse("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5")
        F_den = parse("x^6 + y^6")

        def certified_state():
            cls = classify(F_cls).to_json_obj()
            w1 = witness_for(F_cls)
            w2 = dirichlet_witness(F_dir, 16)
            den = count_range(F_den, 10**4)
            return {
                "classification": cls,
                "witness_kind": w1.kind,
                "witness_points": [(x, y, str(v)) for x, y, v in w1.points],
                "dirichlet_kind": w2.kind,
                "dirichlet_points": [(x, y, str(v)) for x, y, v in w2.points],
                "density_count": den.count,
                "density_box": den.box,
                "density_bound": str(den.lower_bound),
            }

        base = certified_state()
        with _seeds.perturbed():
            shaken = certified_state()
        assert shaken == base  # float seeds must not touch any certificate

    _report(8, "exactness-audit", body)
