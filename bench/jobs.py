"""Seeded job lists for the four benchmark workloads.

A job is one `sextic-sieve` command line plus what the independent checks in
`oracles.py` need to judge its output.  Nothing here imports `sexticlab`: the
inputs are generated as expression strings, so the program receives only the
generated inputs.  Every workload has the same number of jobs for every seed;
the seed picks SL2(Z) images, rescalings, small offsets of N and the order of
the jobs within a pass.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("certify", "enumerate", "large-window", "int-scan")

# Hand labels copied from the classifier corpus of the test suite (the 13
# sextic entries), with the expected witness outcome: "negative" where a
# negativity engine applies (a negative-value witness, exit 0) and "none"
# where no engine applies (inconclusive, exit 3).
CORPUS = [
    ("x^6 + y^6", "MP0", "none"),
    ("x^6 + x^4*y^2 + y^6", "MP0", "none"),
    ("x^2*y^4 + x^6 + 1", "MP1-linear", "none"),
    ("(x^2 - 2*y^2)^2*(x^2 + y^2) + x^5", "MP1-quadratic", "negative"),
    ("(x^2 - 3*y^2)^2*(x^2 + y^2) + x^5 + y^3", "MP1-quadratic", "negative"),
    ("(x^3 + x*y^2 + y^3)^2 + x^5", "MP1-cubic", "negative"),
    ("x^4*(x^2 + y^2) + x^3*y^2", "MP2", "none"),
    ("(y^2 - x^3 - x)^2 - y + 10", "MP3", "negative"),
    ("x^6 + x^2*y^3", "MP3", "negative"),
    ("x^5*y + x^3*y^3", "paper-gap", "none"),
    ("x^5*y + x*y + 1", "paper-gap", "none"),
    ("x^6 - y^6", "not-positive-leading", "negative"),
    ("-x^6 - y^6 + x*y", "not-positive-leading", "negative"),
]

# Unimodular changes of variable with entries in [-2, 2].  SL2(Z) preserves
# the factorization profile of the leading form, so an image keeps the label
# of its source.
SL2 = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
    if a * d - b * c == 1
]

# Budget-exhausting witness search: with Tmax = 1 the anisotropic schedule
# never starts, so the documented exit code is 4.  The program exits 3 (it
# looks for "budget" in the note text), so this job fails on every pass.
BUDGET_JOB = ["witness", "--budget-tmax", "1", "--poly", "x^6 + x^2*y^3"]
BUDGET_FAULT = "budget exhausted but exit code is 3, not the documented 4"


@dataclass
class Job:
    argv: list
    check: str  # which oracle judges the output (see oracles.CHECKS)
    expect: dict = field(default_factory=dict)
    exit_code: int = 0
    known_fault: str | None = None

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def _subst(expr: str, m) -> str:
    (a, b), (c, d) = m
    rx, ry = f"({a}*x + {b}*y)", f"({c}*x + {d}*y)"
    return re.sub(r"[xy]", lambda t: rx if t.group(0) == "x" else ry, expr)


def _certify_polys(rng: random.Random) -> list:
    polys = list(CORPUS)
    for expr, route, outcome in CORPUS:
        for m in rng.sample(SL2, 2):
            polys.append((_subst(expr, m), route, outcome))
    for expr, route, outcome in CORPUS:
        p, q = rng.randint(1, 5), rng.randint(2, 5)
        polys.append((f"{p}/{q}*({expr})", route, outcome))
    # Tao-shape family of acceptance test 2, extended to b1 = 0 so that the
    # Danilov engine runs as well as the Rouse engine
    for b1, b0, c in itertools.product((0, 1, -1, 2, -2, 3), (0, 1, -1), (10, 100)):
        polys.append((f"(y^2 - x^3 - ({b1})*x - ({b0}))^2 - y + {c}", "MP3", "negative"))
    # Dirichlet family of acceptance test 4
    for k in (2, 3, 5):
        polys.append((f"(x^2 - {k}*y^2)^2*(x^2 + y^2) + x^5", "MP1-quadratic", "negative"))
    # the weighted-cubic sign search is reached by no corpus entry
    polys.append(("x^6 - x^2*y^2", "MP3", "negative"))
    return polys


def _certify(rng: random.Random) -> list:
    jobs = []
    for expr, route, outcome in _certify_polys(rng):
        jobs.append(Job(["analyze", "--poly", expr], "analyze", {"poly": expr, "route": route}))
        jobs.append(Job(
            ["witness", "--poly", expr], "witness",
            {"poly": expr, "route": route, "outcome": outcome},
            exit_code=0 if outcome == "negative" else 3,
        ))
    jobs.append(Job(
        BUDGET_JOB, "witness",
        {"poly": BUDGET_JOB[-1], "route": "MP3", "outcome": "budget"},
        exit_code=4, known_fault=BUDGET_FAULT,
    ))
    return jobs


def _density(poly: str, N: int, floor: str, certified=True, mode="bitmap", workers=1,
             radius=None) -> Job:
    """`floor` is a hand-derived c with F_top(x, y) >= c * max(|x|, |y|)^d;
    `radius` replaces the derived radius for a best-effort (uncertified) box."""
    argv = ["density", "--poly", poly, "--bound", str(N)]
    if workers != 1:
        argv += ["--workers", str(workers)]
    expect = {"poly": poly, "N": N, "floor": floor, "certified": certified,
              "mode": mode, "radius": radius}
    return Job(argv, "density", expect)


def _enumerate(rng: random.Random) -> list:
    n_sq = 3000 + rng.randrange(60)
    return [
        # the integer-kernel target: a wide certified box over a small window
        _density("x^2 + y^2", n_sq, "1"),
        _density("x^2 + y^2", n_sq, "1", workers=2),
        # min of x^2 + x*y + 2*y^2 on the unit-square boundary is 7/8, at (1, -1/4)
        _density("x^2 + x*y + 2*y^2", 1000 + rng.randrange(20), "7/8"),
        _density("x^4 + y^4", 10**6 + rng.randrange(10**4), "1"),
        # rational coefficients, the paper's case: x^6/2 + y^6/3 >= m^6/3
        _density("1/2*x^6 + 1/3*y^6 + x*y", 10**7 + rng.randrange(10**5), "1/3"),
        # semi-definite MP3 leading form: best-effort box, never certified;
        # the benchmark's own enumeration covers |x|, |y| <= 48
        _density("x^6 + x^2*y^3", 10**6 + rng.randrange(10**4), "0", certified=False,
                 radius=48),
        # above the 2^31-bit cap, so the counter runs in dedup mode
        _density("x^6 + y^6", 10**12 + rng.randrange(10**10), "1", mode="dedup"),
        _density("x^6 + y^6 + x*y", 2000 + rng.randrange(40), "1"),
        Job(["witness", "--poly", "x^4 + y^4"], "witness",
            {"poly": "x^4 + y^4", "route": "not-a-sextic", "outcome": "diagnostic"}),
    ]


def _large_window(rng: random.Random) -> list:
    ladder = [10**6 + rng.randrange(10**4), 10**7 + rng.randrange(10**5),
              2 * 10**7 + rng.randrange(10**5)]
    return [
        _density("x^6 + y^6", 10**8 + rng.randrange(10**6), "1"),
        _density("x^6 + 2*y^6 + x*y", 10**7 + rng.randrange(10**5), "1"),
        Job(["density", "--poly", "x^6 + x^4*y^2 + y^6", "--ladder",
             ",".join(map(str, ladder))], "ladder",
            {"poly": "x^6 + x^4*y^2 + y^6", "ladder": ladder, "floor": "1"}),
    ]


# (d, c) pairs for which x^2 - d*y^2 = c is solvable
PELL = [(5, -4), (13, -4), (29, -4), (2, -1), (10, -1), (3, 1), (7, 1), (6, 4)]


def _int_scan(rng: random.Random) -> list:
    xmax = 10**6 - rng.randrange(10**4)
    nmax = 10**6 - rng.randrange(10**4)
    jobs = [
        Job(["curve", "hall", "--xmax", str(xmax)], "hall", {"xmax": xmax, "threshold": 5}),
        Job(["density", "--baseline", "--bound", str(nmax)], "baseline", {"Nmax": nmax}),
        Job(["curve", "danilov", "--count", "10"], "danilov", {"count": 10}),
    ]
    for d, c in rng.sample(PELL, 2):
        jobs.append(Job(["curve", "pell", "--d", str(d), "--c", str(c), "--count", "6"],
                        "pell", {"d": d, "c": c, "count": 6}))
    for b1 in rng.sample((1, -1, 2, -2, 3), 2):
        b0 = rng.randrange(-3, 4)
        jobs.append(Job(["curve", "rouse", "--b1", str(b1), "--b0", str(b0), "--r", "1..8"],
                        "rouse", {"b1": b1, "b0": b0, "r": list(range(1, 9))}))
    return jobs


_BUILDERS = {
    "certify": _certify,
    "enumerate": _enumerate,
    "large-window": _large_window,
    "int-scan": _int_scan,
}

# One small job per workload for the smoke mode.
_SMOKE = {
    "certify": lambda: [Job(["witness", "--poly", "x^6 + x^2*y^3"], "witness",
                            {"poly": "x^6 + x^2*y^3", "route": "MP3", "outcome": "negative"})],
    "enumerate": lambda: [_density("x^2 + y^2", 200, "1")],
    "large-window": lambda: [Job(["density", "--poly", "x^6 + y^6", "--ladder", "1000,20000"],
                                 "ladder", {"poly": "x^6 + y^6", "ladder": [1000, 20000],
                                            "floor": "1"})],
    "int-scan": lambda: [Job(["curve", "hall", "--xmax", "20000"], "hall",
                             {"xmax": 20000, "threshold": 5})],
}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list:
    """The job list of one pass; the same seed gives the same list."""
    if smoke:
        return _SMOKE[workload]()
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs
