"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function with a wrapper at every name
its callers look it up by: a function bound into several `sexticlab` modules
(`from .classify import classify`, `from .eclab import danilov_family`, ...)
is replaced in each of them, and methods are replaced on their class.  A
"span" target records one span per call (name, start, end, parent, pass);
a "count" target is too hot for spans and only adds its call count and time
to the pass totals, and to its parent's child time so that self times stay
right.  Spans are kept in memory and written out once, at the end.

Calls made in `--workers` child processes are not seen: the trace of a
multi-worker job covers the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

# (layer name, module, attribute, kind).  The layer name is the module name
# without the package prefix, then the function's qualified name.
TARGETS = [
    ("cli.main", "sexticlab.cli", "main", "span"),
    ("parser.parse", "sexticlab.parser", "parse", "span"),
    ("classify.classify", "sexticlab.classify", "classify", "span"),
    ("forms.definiteness", "sexticlab.forms", "definiteness", "span"),
    ("forms.squarefree_profile", "sexticlab.forms", "squarefree_profile", "span"),
    ("unipoly.isolate_real_roots", "sexticlab.unipoly", "isolate_real_roots", "span"),
    ("unipoly.convergents_of_root", "sexticlab.unipoly", "convergents_of_root", "span"),
    ("witness.witness_for", "sexticlab.witness", "witness_for", "span"),
    ("witness.dirichlet_witness", "sexticlab.witness", "dirichlet_witness", "span"),
    ("witness.anisotropic_witness", "sexticlab.witness", "anisotropic_witness", "span"),
    ("witness.weighted_cubic_sign_search", "sexticlab.witness", "weighted_cubic_sign_search", "span"),
    ("witness.rouse_witness", "sexticlab.witness", "rouse_witness", "span"),
    ("witness.danilov_witness", "sexticlab.witness", "danilov_witness", "span"),
    ("witness.ray_witness", "sexticlab.witness", "ray_witness", "span"),
    ("witness.growth_diagnostic", "sexticlab.witness", "growth_diagnostic", "span"),
    ("witness.Witness.verify", "sexticlab.witness", "Witness.verify", "span"),
    ("poly.BivarPoly.eval", "sexticlab.poly", "BivarPoly.eval", "count"),
    ("density.certified_box", "sexticlab.density", "certified_box", "span"),
    ("density.count_range", "sexticlab.density", "count_range", "span"),
    ("density._chunk_values", "sexticlab.density", "_chunk_values", "span"),
    ("density.stanley_probe", "sexticlab.density", "stanley_probe", "span"),
    ("density.landau_baseline", "sexticlab.density", "landau_baseline", "span"),
    ("eclab.hall_scan", "sexticlab.eclab", "hall_scan", "span"),
    ("eclab.pell_solve", "sexticlab.eclab", "pell_solve", "span"),
    ("eclab.rouse_point", "sexticlab.eclab", "rouse_point", "count"),
    ("eclab.danilov_family", "sexticlab.eclab", "danilov_family", "span"),
]

# Wrappers that must report at least one call on each workload; a wrapper
# that never fires there was installed at the wrong name.
EXPECTED = {
    "certify": [
        "cli.main", "parser.parse", "classify.classify", "forms.definiteness",
        "forms.squarefree_profile", "unipoly.isolate_real_roots",
        "unipoly.convergents_of_root", "witness.witness_for",
        "witness.dirichlet_witness", "witness.anisotropic_witness",
        "witness.weighted_cubic_sign_search", "witness.rouse_witness",
        "witness.danilov_witness", "witness.ray_witness", "witness.Witness.verify",
        "poly.BivarPoly.eval", "eclab.rouse_point", "eclab.danilov_family",
    ],
    "enumerate": [
        "cli.main", "parser.parse", "witness.growth_diagnostic", "poly.BivarPoly.eval",
        "density.certified_box", "density.count_range", "density._chunk_values",
        "classify.classify",
    ],
    "large-window": [
        "cli.main", "density.certified_box", "density.count_range",
        "density._chunk_values", "density.stanley_probe", "poly.BivarPoly.eval",
    ],
    "int-scan": [
        "cli.main", "density.landau_baseline", "eclab.hall_scan", "eclab.pell_solve",
        "eclab.danilov_family",
    ],
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


# Quantities read off a traced call's arguments and result:
# layer -> [(metric, function(args, result), "sum" or "max")]
OBSERVE = {
    "witness.witness_for": [("witness.points", lambda a, out: len(out.points), "sum")],
    "density.certified_box": [("density.certified_box.radius_max", lambda a, out: out[0], "max")],
    # bitmap size from N under the default 2^31-bit cap (SEXTIC_SIEVE_MEM unset)
    "density.count_range": [("density.count_range.bitmap_mb",
                             lambda a, out: (a[1] + 7) // 8 / 1e6 if a[1] <= 2**31 else 0.0,
                             "max")],
    "density._chunk_values": [("density.count_range.values", lambda a, out: len(out), "sum")],
    "eclab.hall_scan": [("eclab.hall_scan.rows", lambda a, out: len(out), "sum"),
                        ("eclab.hall_scan.x", lambda a, out: a[0] - 1, "sum")],
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, self seconds, parent index, pass]
        self.stack = [None]  # open span indices; None is the root
        self.child = [0.0]  # time spent in callees of each open span
        self.counts = {}  # (name, pass) -> [calls, seconds] of "count" targets
        self.observed = {}  # (metric, pass) -> value
        self.pass_no = 0

    def _span_wrapper(self, name, fn):
        spans, stack, child = self.spans, self.stack, self.child
        observe = OBSERVE.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            start = perf_counter()
            spans.append([name, start, None, None, stack[-1], self.pass_no])
            stack.append(idx)
            child.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][2:4] = [end, end - start - child.pop()]
                child[-1] += end - start
            for metric, read, how in observe:
                key = (metric, self.pass_no)
                v = read(args, out)
                self.observed[key] = max(self.observed.get(key, 0), v) if how == "max" \
                    else self.observed.get(key, 0) + v
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, child = self.counts, self.child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            c = counts.get((name, self.pass_no))
            if c is None:
                c = counts[(name, self.pass_no)] = [0, 0.0]
            c[0] += 1
            c[1] += dt
            child[-1] += dt
            return out

        return wrapper

    def install(self):
        """Wrap every target at each `sexticlab` name bound to it."""
        for name, module, attr, kind in TARGETS:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrap = self._count_wrapper if kind == "count" else self._span_wrapper
            wrapper = wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                continue
            sites = 0
            for modname, mod in list(sys.modules.items()):
                if modname == "sexticlab" or modname.startswith("sexticlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            sites += 1
            if not sites:
                raise RuntimeError(f"no call site found for {name}")

    def calls(self, name: str) -> int:
        n = sum(c[0] for (nm, _p), c in self.counts.items() if nm == name)
        return n + sum(1 for s in self.spans if s[0] == name)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "self_s", "parent", "pass"],
                "spans": self.spans,
                "counts": [[nm, p, n, s] for (nm, p), (n, s) in self.counts.items()],
            }, fh)

    def per_pass(self, passes: list) -> dict:
        """{(name, stat): [value per pass]} with stats calls, s and self_s."""
        table = {}

        def add(name, stat, p, value):
            row = table.setdefault((name, stat), dict.fromkeys(passes, 0.0))
            row[p] += value

        for name, start, end, self_s, parent, p in self.spans:
            if p not in passes:
                continue
            add(name, "calls", p, 1)
            add(name, "self_s", p, self_s)
            # inclusive time counts outermost calls only, so a layer that
            # recurses into itself is not counted twice
            anc = parent
            while anc is not None and self.spans[anc][0] != name:
                anc = self.spans[anc][4]
            if anc is None:
                add(name, "s", p, end - start)
        for (name, p), (n, secs) in self.counts.items():
            if p in passes:
                add(name, "calls", p, n)
                add(name, "s", p, secs)
        for (metric, p), v in self.observed.items():
            if p in passes:
                add(metric, "value", p, v)
        return {key: [row[p] for p in passes] for key, row in table.items()}


# (metric, layer, stat, unit); each value is the median over the traced
# passes of the per-pass total
LAYER_METRICS = [
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("parser.parse.calls", "parser.parse", "calls", "count"),
    ("parser.parse.s", "parser.parse", "s", "s"),
    ("classify.classify.calls", "classify.classify", "calls", "count"),
    ("classify.classify.s", "classify.classify", "s", "s"),
    ("forms.definiteness.s", "forms.definiteness", "s", "s"),
    ("forms.squarefree_profile.s", "forms.squarefree_profile", "s", "s"),
    ("unipoly.isolate_real_roots.calls", "unipoly.isolate_real_roots", "calls", "count"),
    ("unipoly.isolate_real_roots.s", "unipoly.isolate_real_roots", "s", "s"),
    ("unipoly.convergents_of_root.s", "unipoly.convergents_of_root", "s", "s"),
    ("witness.witness_for.s", "witness.witness_for", "s", "s"),
    ("witness.dirichlet_witness.s", "witness.dirichlet_witness", "s", "s"),
    ("witness.anisotropic_witness.s", "witness.anisotropic_witness", "s", "s"),
    ("witness.weighted_cubic_sign_search.s", "witness.weighted_cubic_sign_search", "s", "s"),
    ("witness.rouse_witness.s", "witness.rouse_witness", "s", "s"),
    ("witness.danilov_witness.s", "witness.danilov_witness", "s", "s"),
    ("witness.ray_witness.s", "witness.ray_witness", "s", "s"),
    ("witness.growth_diagnostic.s", "witness.growth_diagnostic", "s", "s"),
    ("witness.Witness.verify.calls", "witness.Witness.verify", "calls", "count"),
    ("witness.Witness.verify.s", "witness.Witness.verify", "s", "s"),
    ("witness.points", "witness.points", "value", "count"),
    ("poly.BivarPoly.eval.calls", "poly.BivarPoly.eval", "calls", "count"),
    ("poly.BivarPoly.eval.s", "poly.BivarPoly.eval", "s", "s"),
    ("density.certified_box.calls", "density.certified_box", "calls", "count"),
    ("density.certified_box.s", "density.certified_box", "s", "s"),
    ("density.certified_box.radius_max", "density.certified_box.radius_max", "value", "count"),
    ("density.count_range.calls", "density.count_range", "calls", "count"),
    ("density.count_range.s", "density.count_range", "s", "s"),
    ("density.count_range.self_s", "density.count_range", "self_s", "s"),
    ("density.count_range.bitmap_mb", "density.count_range.bitmap_mb", "value", "MB"),
    ("density.count_range.values", "density.count_range.values", "value", "count"),
    ("density.stanley_probe.s", "density.stanley_probe", "s", "s"),
    ("density.landau_baseline.s", "density.landau_baseline", "s", "s"),
    ("eclab.hall_scan.s", "eclab.hall_scan", "s", "s"),
    ("eclab.hall_scan.rows", "eclab.hall_scan.rows", "value", "count"),
    ("eclab.pell_solve.s", "eclab.pell_solve", "s", "s"),
    ("eclab.rouse_point.calls", "eclab.rouse_point", "calls", "count"),
    ("eclab.danilov_family.calls", "eclab.danilov_family", "calls", "count"),
]


def layer_metrics(tracer: Tracer, passes: list) -> dict:
    table = tracer.per_pass(passes)

    def med(layer, stat):
        vals = table.get((layer, stat))
        return statistics.median(vals) if vals else 0.0

    out = {metric: {"value": med(layer, stat), "unit": unit}
           for metric, layer, stat, unit in LAYER_METRICS}
    calls, secs = med("poly.BivarPoly.eval", "calls"), med("poly.BivarPoly.eval", "s")
    out["poly.BivarPoly.eval.us_per_call"] = {
        "value": 1e6 * secs / calls if calls else 0.0, "unit": "us"}
    xs, secs = med("eclab.hall_scan.x", "value"), med("eclab.hall_scan", "s")
    out["eclab.hall_scan.x_per_s"] = {"value": xs / secs if secs else 0.0, "unit": "1/s"}
    return out
