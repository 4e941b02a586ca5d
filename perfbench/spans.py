"""In-memory spans around the calls one logres module makes into another.

The library is traced from outside: ``install`` rebinds the chosen names in
every ``logres`` module namespace that holds them, so calls made through
``from .linear import rref`` are seen too.  Nothing is installed unless a
traced run asks for it, and ``uninstall`` restores the original objects.

A span is ``[name, parent, start_ns, end_ns, raised, attrs]``; ``parent`` is
the index of the enclosing span or -1.  Constructions and multiplications of
``WeightedPoly`` are only counted, because a span per call would cost more
than the call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

NAME, PARENT, START, END, RAISED, ATTRS = range(6)

MODULES = ("polynomials", "linear", "liealg", "divisor", "catalog",
           "connections", "moduli", "serialize", "cli")


def _rref_attrs(args, result):
    return {"cells": args[0].rows * args[0].cols, "cols": args[0].cols, "kernel": len(result.kernel)}


def _moduli_attrs(args, result):
    equations = result.system.equations
    return {"equations": len(equations), "terms": sum(len(eq.poly.terms) for eq in equations)}


# (defining module, attribute, span name, attribute recorder); a dotted
# attribute is a method on a class of that module
SPANS = (
    ("polynomials", "exact_divide", "polynomials.exact_divide", None),
    ("linear", "rref", "linear.rref", _rref_attrs),
    ("linear", "charpoly", "linear.charpoly", lambda args, result: {"dim": args[0].rows}),
    ("linear", "integer_eigenvalues", "linear.integer_eigenvalues", lambda args, result: {"roots": len(result)}),
    ("liealg", "validate_residue", "liealg.validate_residue", None),
    ("liealg", "ad_operator", "liealg.ad_operator", None),
    ("divisor", "structure_functions", "divisor.structure_functions", lambda args, result: {"divisor": args[0].name}),
    ("divisor", "poly_determinant", "divisor.poly_determinant", None),
    ("divisor", "frame_constants", "divisor.frame_constants", None),
    ("catalog", "catalog", "catalog.build", None),
    ("connections", "curvature", "connections.curvature", None),
    ("connections", "is_flat", "connections.is_flat", None),
    ("connections", "MatrixPolyMap.matmul", "connections.matmul", None),
    ("moduli", "moduli_system", "moduli.moduli_system", _moduli_attrs),
    ("moduli", "check_point", "moduli.check_point", None),
    ("moduli", "coordinates_of", "moduli.coordinates_of", None),
    ("moduli", "assemble_connection", "moduli.assemble_connection", None),
    ("moduli", "PolySystem.evaluate", "moduli.evaluate", None),
    ("serialize", "system_to_json", "serialize.system_to_json", None),
    ("serialize", "canonical_dumps", "serialize.canonical_dumps", lambda args, result: {"bytes": len(result)}),
)

# (defining module, attribute, counter name, namespaces to rebind in or None for all)
COUNTS = (
    ("polynomials", "WeightedPoly.__init__", "polynomials.poly_init.count", None),
    ("polynomials", "WeightedPoly.__mul__", "polynomials.poly_mul.count", None),
    ("connections", "MatrixPolyMap.apply_field", "connections.apply_field.calls", None),
    # only integer_eigenvalues evaluates through this binding: its trial roots
    ("univariate", "uni_evaluate", "linear.integer_eigenvalues.trials", ("linear",)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------- recording

    def open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec, raised=False, attrs=None):
        rec[END] = time.perf_counter_ns()
        rec[RAISED] = raised
        rec[ATTRS] = attrs
        self._stack.pop()

    def spanned(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(rec, raised=True)
                raise
            self.close(rec, attrs=None if attrs is None else attrs(args, result))
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --------------------------------------------------------------- binding

    def install(self):
        for module, attr, name, attrs in SPANS:
            self._rebind(module, attr, lambda fn, n=name, a=attrs: self.spanned(n, fn, a), None)
        for module, attr, name, where in COUNTS:
            self._rebind(module, attr, lambda fn, n=name: self.counted(n, fn), where)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _rebind(self, module, attr, make, where):
        home = sys.modules[f"logres.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(home, cls_name)
            self._patches.append((owner, method, owner.__dict__[method]))
            setattr(owner, method, make(owner.__dict__[method]))
            return
        original = getattr(home, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "logres" or mod_name.startswith("logres.")):
                continue
            if where is not None and mod_name.split(".")[-1] not in where:
                continue
            if vars(mod).get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    # ------------------------------------------------------------- exchange

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "extra": extra}, handle)

    def merge(self, path):
        """Append the spans and counts a child process dumped, under the open
        span; returns the child's extra values."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        base = len(self.spans)
        here = self._stack[-1] if self._stack else -1
        for rec in data["spans"]:
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else here
            self.spans.append(rec)
        self.counts.update(data["counts"])
        return data["extra"]


# ------------------------------------------------------------------ analysis

def durations(spans):
    """Inclusive and self seconds per span index."""
    incl = [(s[END] - s[START]) / 1e9 for s in spans]
    own = list(incl)
    for idx, s in enumerate(spans):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= incl[idx]
    return incl, own


def under(spans, is_root):
    """Indices of spans lying, at any depth, under a span for which
    ``is_root(index)`` holds."""
    inside = [False] * len(spans)
    for idx, s in enumerate(spans):
        p = s[PARENT]
        inside[idx] = p >= 0 and (inside[p] or is_root(p))
    return [idx for idx, flag in enumerate(inside) if flag]


def layer_metrics(tracer):
    spans = tracer.spans
    incl, own = durations(spans)
    calls = Counter()
    total = defaultdict(float)
    self_total = defaultdict(float)
    errors = Counter()
    for idx, s in enumerate(spans):
        calls[s[NAME]] += 1
        total[s[NAME]] += incl[idx]
        self_total[s[NAME]] += own[idx]
        if s[RAISED]:
            errors[s[NAME].split(".")[0]] += 1

    def attr_values(name, key, among=None):
        pool = range(len(spans)) if among is None else among
        return [spans[i][ATTRS][key] for i in pool if spans[i][NAME] == name and spans[i][ATTRS]]

    under_moduli = under(spans, lambda i: spans[i][NAME] == "moduli.moduli_system")
    solve_cols = sum(attr_values("linear.rref", "cols", under_moduli))
    solve_kept = sum(attr_values("linear.rref", "kernel", under_moduli))
    trials = tracer.counts["linear.integer_eigenvalues.trials"]
    sf_divisors = set(attr_values("divisor.structure_functions", "divisor"))
    rref_cells = attr_values("linear.rref", "cells")

    m = {
        "polynomials.poly_init.count": tracer.counts["polynomials.poly_init.count"],
        "polynomials.poly_mul.count": tracer.counts["polynomials.poly_mul.count"],
        "polynomials.exact_divide.calls": calls["polynomials.exact_divide"],
        "polynomials.exact_divide.s": total["polynomials.exact_divide"],
        "linear.rref.calls": calls["linear.rref"],
        "linear.rref.s": total["linear.rref"],
        "linear.rref.cells": sum(rref_cells),
        "linear.rref.max_cells": max(rref_cells, default=0),
        "linear.charpoly.calls": calls["linear.charpoly"],
        "linear.charpoly.s": total["linear.charpoly"],
        "linear.charpoly.max_dim": max(attr_values("linear.charpoly", "dim"), default=0),
        "linear.integer_eigenvalues.s": total["linear.integer_eigenvalues"],
        "linear.integer_eigenvalues.trials": trials,
        "linear.integer_eigenvalues.roots_per_trial":
            sum(attr_values("linear.integer_eigenvalues", "roots")) / trials if trials else 0.0,
        "liealg.validate_residue.s": total["liealg.validate_residue"],
        "liealg.ad_operator.calls": calls["liealg.ad_operator"],
        "divisor.structure_functions.calls": calls["divisor.structure_functions"],
        "divisor.structure_functions.s": total["divisor.structure_functions"],
        "divisor.structure_functions.calls_per_divisor":
            calls["divisor.structure_functions"] / len(sf_divisors) if sf_divisors else 0.0,
        "divisor.poly_determinant.calls": calls["divisor.poly_determinant"],
        "divisor.poly_determinant.s": total["divisor.poly_determinant"],
        "divisor.frame_constants.calls": calls["divisor.frame_constants"],
        "catalog.build.s": total["catalog.build"],
        "connections.curvature.calls": calls["connections.curvature"],
        "connections.curvature.s": total["connections.curvature"],
        "connections.matmul.calls": calls["connections.matmul"],
        "connections.matmul.s": total["connections.matmul"],
        "connections.apply_field.calls": tracer.counts["connections.apply_field.calls"],
        "moduli.moduli_system.s": total["moduli.moduli_system"],
        "moduli.moduli_system.self_s": self_total["moduli.moduli_system"],
        "moduli.solve.candidates": solve_cols,
        "moduli.solve.kept_per_candidate": solve_kept / solve_cols if solve_cols else 0.0,
        "moduli.equations": sum(attr_values("moduli.moduli_system", "equations")),
        "moduli.equation_terms": sum(attr_values("moduli.moduli_system", "terms")),
        "moduli.check_point.s": total["moduli.check_point"],
        "moduli.coordinates_of.s": total["moduli.coordinates_of"],
        "moduli.assemble_connection.s": total["moduli.assemble_connection"],
        "moduli.evaluate.s": total["moduli.evaluate"],
        "serialize.system_to_json.s": total["serialize.system_to_json"],
        "serialize.canonical_dumps.s": total["serialize.canonical_dumps"],
        "serialize.output_bytes": sum(attr_values("serialize.canonical_dumps", "bytes")),
        "cli.import_s": total["cli.import"],
        "cli.main.s": total["cli.main"],
        "cli.main.self_s": self_total["cli.main"],
        "cli.interpreter_s": tracer.counts["cli.interpreter_s"],
    }
    for module in MODULES:
        m[f"{module}.errors"] = errors[module]
    return m


def largest_children(spans, roots):
    """(name, inclusive seconds) of the direct children of the given root
    span indices, summed per name, largest first."""
    incl, _ = durations(spans)
    roots = set(roots)
    out = defaultdict(float)
    for idx, s in enumerate(spans):
        if s[PARENT] in roots:
            out[s[NAME]] += incl[idx]
    return sorted(out.items(), key=lambda kv: -kv[1])


def write_jsonl(spans, path):
    with open(path, "w", encoding="utf-8") as handle:
        for idx, s in enumerate(spans):
            handle.write(json.dumps({"id": idx, "name": s[NAME], "parent": s[PARENT], "start_ns": s[START],
                                     "end_ns": s[END], "raised": s[RAISED], "attrs": s[ATTRS]}) + "\n")
