"""Seeded inputs, jobs and output checks for the four benchmark workloads.

Every workload is a closed loop with one client: the benchmark runs one job at a
time.  Inputs come only from the workload seed; the library sees nothing but
the generated divisors, residues and points.  Jobs call the library through
the ``logres`` package attributes, so that a traced run's wrappers see them.
See README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import logres
from logres import MatrixPolyMap, ModuliPoint, RationalMatrix, ResidueData, catalog, moduli_system, serialize
from logres.liealg import ad_operator
from logres.linear import integer_eigenvalues

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_golden() -> dict:
    """Expected outputs frozen by freeze_golden.py."""
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


ZERO2 = ((0, 0), (0, 0))
S01 = ((0, 0), (0, 1))
SL2 = (((-1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)))  # chi for g2's h, f, e slots


def diag(*values):
    return tuple(tuple(v if i == j else 0 for j in range(len(values))) for i, v in enumerate(values))


# the criterion-3 cases of the acceptance suite: label -> (divisor, S, chi)
CRITERION3 = {f"{name}/{tag}": (name, s, None)
              for name in ("cusp", "normal_crossing_2", "borel2", "g2", "d4", "sekiguchi_b5")
              for tag, s in (("0", ZERO2), ("S01", S01))}
CRITERION3["g2/0+sl2"] = ("g2", ZERO2, SL2)

TORUS = {
    "normal_crossing_3/S01": ("normal_crossing_3", S01, None),
    "normal_crossing_4/S01": ("normal_crossing_4", S01, None),
    "normal_crossing_5/S01": ("normal_crossing_5", S01, None),
    "normal_crossing_4/diag(0,2)": ("normal_crossing_4", diag(0, 2), None),
    "normal_crossing_4/diag(0,1,2)": ("normal_crossing_4", diag(0, 1, 2), None),
}

RANK = {
    "cusp/diag(0,1,2,3)": ("cusp", diag(0, 1, 2, 3), None),
    "sekiguchi_b5/diag(0,1,2)": ("sekiguchi_b5", diag(0, 1, 2), None),
    "borel2/diag(0,1,2)": ("borel2", diag(0, 1, 2), None),
}


def matrix(rows) -> RationalMatrix:
    return RationalMatrix([[Fraction(v) for v in row] for row in rows])


def residue_for(divisor, s: RationalMatrix, chi=None) -> ResidueData:
    """The same S on every toral slot; zero chi on semisimple slots unless given."""
    m = s.rows
    if chi is not None:
        chi = tuple(matrix(c) for c in chi)
    elif divisor.semisimple_indices:
        chi = tuple(RationalMatrix.zeros(m, m) for _ in divisor.semisimple_indices)
    return ResidueData(s_list=(s,) * divisor.toral_count,
                       positive_combination=tuple(divisor.positive_combination), chi=chi)


def conjugator(m: int, rng) -> RationalMatrix:
    """Unit upper bidiagonal matrix with seeded +-1 superdiagonal.

    Every member conjugates a diagonal S to a sign flip of the same matrix
    (diag(signs) P diag(signs)^-1 moves between members), so the conjugated
    residues differ between seeds only in signs, and their cost little.
    """
    return RationalMatrix([[1 if i == j else (rng.choice((1, -1)) if j == i + 1 else 0)
                            for j in range(m)] for i in range(m)])


def problem_summary(problem) -> dict:
    """What the golden file freezes per case: graded dimensions and sizes."""
    def dims(by_degree):
        return {str(k): v for k, v in sorted(by_degree.items())}
    return {
        "components": [dims(space.dims_by_degree) for space in problem.component_spaces],
        "correction": dims(problem.symmetry.dims_by_degree),
        "coordinates": len(problem.system.coordinates),
        "equations": len(problem.system.equations),
    }


def system_bytes(problem) -> bytes:
    return serialize.canonical_dumps(
        serialize.system_to_json(problem.system, problem.divisor.variables)).encode()


# --------------------------------------------------------------- oracles

def brute_force_corrections(divisor, residue, bound: int) -> dict:
    """Dimension by degree of the unit-times-monomial corrections z^a E_rc
    solving E_i(N) = [S_i, N]_c, found by enumeration.

    Reads the toral fields' coefficient dictionaries directly, so none of
    the library's polynomial or linear algebra is involved.  Equal to the
    correction space when the toral fields and residues are diagonal.
    """
    n = len(divisor.weights)
    m = residue.matrix_size
    fields = [divisor.frame[i].field.coefficients for i in divisor.toral_indices]

    def exponents(total, k=0):
        if k == n - 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in exponents(total - e, k + 1):
                yield (e,) + rest

    def field_on_monomial(coeffs, a):
        out = {}
        for j, poly in enumerate(coeffs):
            if not a[j]:
                continue
            for mono, c in poly.terms.items():
                key = tuple(x + y - (1 if k == j else 0) for k, (x, y) in enumerate(zip(a, mono)))
                out[key] = out.get(key, 0) + c * a[j]
        return {k: v for k, v in out.items() if v}

    found = {}
    for total in range(bound + 1):
        for a in exponents(total):
            degree = sum(w * e for w, e in zip(divisor.weights, a))
            for r in range(m):
                for c in range(m):
                    ok = True
                    for coeffs, s in zip(fields, residue.s_list):
                        if any(s[i, j] for i in range(m) for j in range(m) if i != j):
                            raise ValueError("the brute force covers diagonal residues only")
                        expected = s[r, r] - s[c, c]
                        lhs = field_on_monomial(coeffs, a)
                        if lhs != ({a: expected} if expected else {}):
                            ok = False
                            break
                    if ok:
                        found[str(degree)] = found.get(str(degree), 0) + 1
    return dict(sorted(found.items(), key=lambda kv: int(kv[0])))


def ad_eigenvalues_by_construction(eigenvalues) -> list:
    return sorted({a - b for a in eigenvalues for b in eigenvalues})


def own_evaluate(system, values):
    """Evaluate every emitted equation with plain Fraction arithmetic."""
    out = []
    for eq in system.equations:
        total = Fraction(0)
        for mono, coeff in eq.poly.terms.items():
            term = coeff
            for v, e in zip(values, mono):
                if e:
                    term *= v ** e
            total += term
        out.append(total)
    return out


# ------------------------------------------------------------- workloads

class Workload:
    """Inputs built in __init__; ``prepare`` returns one job as a callable,
    ``check`` judges its result."""

    def peak_rss_kb(self):
        """Peak RSS of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def finish(self):
        """Checks run once per input after the loop; returns failing labels."""
        return set()


class TorusSolve(Workload):
    name = "torus_solve"

    def __init__(self, workdir, rng):
        self.golden = load_golden()
        self.inputs = {}
        for label, (name, s, chi) in TORUS.items():
            d = catalog(name)
            self.inputs[label] = (d, residue_for(d, matrix(s), chi))
        self.labels = list(TORUS)
        self._brute = {}

    def prepare(self, label, rng):
        d, residue = self.inputs[label]
        return lambda: logres.moduli_system(d, residue)

    def check(self, label, result):
        d, residue = self.inputs[label]
        summary = problem_summary(result)
        if summary != self.golden["solve"][label]:
            return False
        if label not in self._brute:
            # a solution z^a E_rc has a_i = s_r - s_c in every variable
            eigenvalues = [row[i] for i, row in enumerate(TORUS[label][1])]
            bound = (max(eigenvalues) - min(eigenvalues)) * len(d.weights)
            self._brute[label] = brute_force_corrections(d, residue, bound)
        return summary["components"] == [] and summary["correction"] == self._brute[label]

    def output_bytes(self, label, result):
        return system_bytes(result)


class ResidueRank(Workload):
    name = "residue_rank"

    def __init__(self, workdir, rng):
        self.golden = load_golden()
        self.inputs = {}
        self.eigenvalues = {}
        for label, (name, s, chi) in RANK.items():
            d = catalog(name)
            diagonal = matrix(s)
            p = conjugator(diagonal.rows, rng)
            p_inv = matrix(_unit_upper_inverse(p))
            for form, value in (("", diagonal), ("~conj", p * diagonal * p_inv)):
                self.inputs[label + form] = (d, residue_for(d, value, chi), label)
                self.eigenvalues[label + form] = [s[i][i] for i in range(len(s))]
        self.labels = list(self.inputs)

    def prepare(self, label, rng):
        d, residue, _ = self.inputs[label]
        return lambda: logres.moduli_system(d, residue)

    def check(self, label, result):
        golden = dict(self.golden["solve"][self.inputs[label][2]])
        summary = problem_summary(result)
        if label.endswith("~conj"):
            # equations are split per matrix entry, so only the diagonal form
            # has a basis-independent count
            golden.pop("equations")
            summary.pop("equations")
        return summary == golden

    def finish(self):
        bad = set()
        for label, (d, residue, _) in self.inputs.items():
            computed = integer_eigenvalues(ad_operator(residue.grading_element()))
            # every toral slot carries the same S, so the grading value is c * S
            scale = sum(residue.positive_combination)
            expected = ad_eigenvalues_by_construction([scale * v for v in self.eigenvalues[label]])
            if computed != expected:
                bad.add(label)
        return bad

    def output_bytes(self, label, result):
        return system_bytes(result)


def _unit_upper_inverse(p: RationalMatrix):
    """Exact inverse of a unit upper triangular integer matrix by back substitution."""
    m = p.rows
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for col in range(m):
        for row in range(m - 1, -1, -1):
            inv[row][col] -= sum(p[row, k] * inv[k][col] for k in range(row + 1, m))
    return inv


class PointCheck(Workload):
    name = "point_check"

    def __init__(self, workdir, rng):
        self.golden = load_golden()
        self.problems = {}
        for label, (name, s, chi) in CRITERION3.items():
            d = catalog(name)
            residue = residue_for(d, matrix(s), chi)
            self.problems[label] = (d, residue, moduli_system(d, residue))
        self.labels = list(CRITERION3)
        self._expected = {}

    def prepare(self, label, rng):
        d, residue, problem = self.problems[label]
        values = []
        parts = []
        for space in problem.component_spaces + problem.correction_spaces:
            total = MatrixPolyMap.zeros(space.matrix_size, d.weights)
            for element in space.basis:
                value = Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)
                values.append(value)
                if value:
                    total = total + element.scale(value)
            parts.append(total)
        k = len(problem.component_spaces)
        point = ModuliPoint(components=tuple(parts[:k]), corrections=tuple(parts[k:]))
        self._expected[label] = values
        return lambda: logres.check_point(d, residue, point, problem)

    def check(self, label, result):
        problem = self.problems[label][2]
        if problem_summary(problem) != self.golden["solve"][label]:
            return False
        residuals = own_evaluate(problem.system, self._expected[label])
        violated = tuple(i for i, v in enumerate(residuals) if v != 0)
        return result.violations == violated and result.in_variety == (not violated)

    def output_bytes(self, label, result):
        return json.dumps([result.flat, list(result.violations)]).encode()


class CatalogEmit(Workload):
    """Each job is one ``logres emit-moduli`` run in a fresh interpreter."""

    name = "catalog_emit"

    def __init__(self, workdir, rng):
        self.golden = load_golden()
        self.workdir = Path(workdir)
        self.labels = list(CRITERION3)
        self.files = {}
        for index, (label, (name, s, chi)) in enumerate(CRITERION3.items()):
            d = catalog(name)
            path = self.workdir / f"residue{index}.json"
            path.write_text(serialize.canonical_dumps(serialize.residue_to_json(residue_for(d, matrix(s), chi))),
                            encoding="utf-8")
            self.files[label] = (name, str(path))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.traced = None  # set to a Tracer to run jobs through cli_entry.py

    def argv(self, label):
        name, path = self.files[label]
        return ["emit-moduli", "--format", "json", "--catalog", name, "--residue", path]

    def prepare(self, label, rng):
        if self.traced is None:
            cmd = [sys.executable, "-m", "logres.cli"] + self.argv(label)
            return lambda: subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=120)
        dump = self.workdir / "spans.json"
        cmd = [sys.executable, str(HERE / "cli_entry.py"), str(dump)] + self.argv(label)

        def run():
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=120)
            wall = time.perf_counter() - start
            # interpreter start and exit: the part of the job outside the script
            self.traced.counts["cli.interpreter_s"] += wall - self.traced.merge(dump)["script_s"]
            return done
        return run

    def check(self, label, result):
        return result.returncode == 0 and hashlib.sha256(result.stdout).hexdigest() == self.golden["emit"][label]

    def output_bytes(self, label, result):
        return result.stdout

    def peak_rss_kb(self):
        """The largest CLI child's peak RSS: no other children run before it is read."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {w.name: w for w in (CatalogEmit, TorusSolve, ResidueRank, PointCheck)}
