"""``logres.record.Record`` against the frozen dataclasses it replaced.

Each of the 22 value types has a test-local ``@dataclass(frozen=True)`` twin
here, with the same fields, defaults and hash exclusion, and the same name, so
that the twin's repr reads as the record's.  On sample instances from real
computations, each record must agree with its twin on ``repr``, ``==``, ``!=``
and ``hash`` (or on raising ``TypeError`` for a field holding a dict), refuse
assignment and deletion, and reject bad arguments; ``replace`` validates
again.  The last test guards what the records buy: importing the CLI loads
neither ``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
from dataclasses import MISSING, dataclass, field, fields
from dataclasses import replace as dataclass_replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

import logres.connections as connections
import logres.divisor as divisor
import logres.liealg as liealg
import logres.linear as linear
import logres.moduli as moduli
from logres import MatrixPolyMap, RationalMatrix, catalog
from logres.record import Record, replace

from conftest import S01, diag, residue_for

MODULES = (connections, divisor, liealg, linear, moduli)


# --------------------------------------------------------------- the twins

@dataclass(frozen=True)
class LogConnection:
    divisor: object
    components: object


@dataclass(frozen=True)
class FlatnessReport:
    flat: object
    witness: object
    residual: object


@dataclass(frozen=True)
class VectorFieldPoly:
    coefficients: object


@dataclass(frozen=True)
class FrameElement:
    kind: object
    field: object
    grade: object = None
    distinguished: object = False


@dataclass(frozen=True)
class FreeDivisor:
    name: object
    variables: object
    weights: object
    f: object
    degree: object
    frame: object
    positive_combination: object
    factors: object = None


@dataclass(frozen=True)
class SaitoResult:
    ok: object
    constant: object
    squarefree: object
    message: object = ""


@dataclass(frozen=True)
class StructureFunctions:
    table: object
    size: object
    weights: object


@dataclass(frozen=True)
class FrameConstants:
    toral_w: object
    semisimple: object
    semisimple_action: object


@dataclass(frozen=True)
class LogFormFrame:
    numerators: object
    constant: object
    f: object


@dataclass(frozen=True)
class JCDecomposition:
    semisimple: object
    other: object
    mode: object


@dataclass(frozen=True)
class ResidueData:
    s_list: object
    positive_combination: object
    chi: object = None


@dataclass(frozen=True)
class ResidueReport:
    ok: object
    message: object = ""


@dataclass(frozen=True)
class RrefResult:
    rank: object
    pivots: object
    kernel: object


@dataclass(frozen=True)
class IntegerRows:
    entries: object
    cols: object


@dataclass(frozen=True)
class SolutionSpace:
    slot: object
    matrix_size: object
    weights: object
    elements: object
    gauge: object = None


@dataclass(frozen=True)
class Coordinate:
    name: object
    slot: object
    basis_index: object
    degree: object


@dataclass(frozen=True)
class Equation:
    tag: object
    frame_slots: object
    entry: object
    base_monomial: object
    terms: object = field(hash=False)
    ncoords: object


@dataclass(frozen=True)
class PolySystem:
    divisor_name: object
    matrix_size: object
    coordinates: object
    equations: object
    summary: object
    gauge: object = None


@dataclass(frozen=True)
class ModuliProblem:
    divisor: object
    residue: object
    component_spaces: object
    correction_spaces: object
    system: object


@dataclass(frozen=True)
class ModuliPoint:
    components: object
    corrections: object


@dataclass(frozen=True)
class PointReport:
    flat: object
    violations: object
    flatness: object


@dataclass(frozen=True)
class LinearCertificate:
    status: object
    solution: object
    witness: object


TWINS = {cls.__name__: cls for cls in (
    LogConnection, FlatnessReport, VectorFieldPoly, FrameElement, FreeDivisor, SaitoResult, StructureFunctions,
    FrameConstants, LogFormFrame, JCDecomposition, ResidueData, ResidueReport, RrefResult, IntegerRows,
    SolutionSpace, Coordinate, Equation, PolySystem, ModuliProblem, ModuliPoint, PointReport, LinearCertificate)}

RECORDS = {name: cls for module in MODULES for name, cls in vars(module).items()
           if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == module.__name__}


# ------------------------------------------------------------- the samples

def point(problem, scale):
    """The sum of every basis element of each space times ``scale``."""
    def total(space):
        out = MatrixPolyMap.zeros(space.matrix_size, problem.divisor.weights)
        for element in space.basis:
            out = out + element.scale(Fraction(scale))
        return out

    return moduli.ModuliPoint(tuple(map(total, problem.component_spaces)),
                              tuple(map(total, problem.correction_spaces)))


@lru_cache(maxsize=None)
def samples():
    """At least two distinct instances of every record type, from real computations."""
    cusp, g2, borel2 = catalog("cusp"), catalog("g2"), catalog("borel2")
    conjugate = RationalMatrix([[0, 1], [0, 1]])  # S01 conjugated: a residue solved in its weight basis
    problems = [moduli.moduli_system(borel2, residue_for(borel2, S01)), moduli.moduli_system(g2, residue_for(g2, S01)),
                moduli.moduli_system(cusp, residue_for(cusp, conjugate))]
    points = [point(problems[0], 0), point(problems[0], 1)]  # a flat point and one that is not
    reports = [moduli.check_point(borel2, problems[0].residue, x, problems[0]) for x in points]
    spaces = [space for problem in problems for space in problem.component_spaces + problem.correction_spaces]
    systems = [problem.system for problem in problems]
    pinned = moduli.restrict_system(systems[1], {name: 0 for name in systems[1].coordinate_names})
    return {
        "LogConnection": [moduli.assemble_connection(borel2, problems[0].residue, x, problems[0]) for x in points],
        "FlatnessReport": [report.flatness for report in reports],
        "VectorFieldPoly": [element.field for element in cusp.frame],
        "FrameElement": list(cusp.frame) + list(g2.frame),
        "FreeDivisor": [cusp, g2, replace(cusp, factors=(cusp.f * 3,))],
        "SaitoResult": [divisor.verify_saito(cusp), divisor.verify_saito(g2)],
        "StructureFunctions": [cusp.structure, g2.structure],
        "FrameConstants": [cusp.constants, g2.constants],
        "LogFormFrame": [divisor.dual_log_forms(cusp), divisor.dual_log_forms(g2)],
        "JCDecomposition": [liealg.jordan_chevalley(RationalMatrix([[1, 1], [0, 1]])),
                            liealg.jordan_chevalley(RationalMatrix([[1, 1], [0, 1]]), "multiplicative")],
        "ResidueData": [problem.residue for problem in problems],
        "ResidueReport": [liealg.validate_residue(problems[0].residue), liealg.ResidueReport(False, "not commuting")],
        "RrefResult": [linear.rref(diag(0, 1)), linear.rref(RationalMatrix([[1, 2], [2, 4]]))],
        "IntegerRows": [linear.IntegerRows.cleared([[1, Fraction(1, 2)]], 2), linear.IntegerRows([{0: 1}], 3)],
        "SolutionSpace": spaces,
        "Coordinate": list(systems[0].coordinates),
        "Equation": list(systems[0].equations[:4]) + list(systems[1].equations[:4]),
        "PolySystem": systems + [pinned],
        "ModuliProblem": problems,
        "ModuliPoint": points,
        "PointReport": reports,
        "LinearCertificate": [moduli.linear_certificate(system) for system in (systems[0], pinned)],
    }


def values_of(twin, x):
    return {f.name: getattr(x, f.name) for f in fields(twin)}


def hashed(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


# --------------------------------------------------------------- the tests

def test_every_record_type_has_a_twin_and_samples():
    assert sorted(RECORDS) == sorted(TWINS) == sorted(samples())
    assert len(RECORDS) == 22
    for name, values in samples().items():
        assert len(values) >= 2 and all(type(x) is RECORDS[name] for x in values)
        assert len({repr(x) for x in values}) >= 2, name


@pytest.mark.parametrize("name", sorted(TWINS))
def test_each_record_agrees_with_its_dataclass_twin(name):
    record, twin = RECORDS[name], TWINS[name]
    given = samples()[name]
    ours = given + [record(**values_of(twin, given[0]))]
    theirs = [twin(**values_of(twin, x)) for x in ours]
    for x, tx in zip(ours, theirs):
        assert repr(x) == repr(tx)
        assert hashed(x) == hashed(tx)
        assert x != tx and not x == tx  # a record never equals a value of another class
    for (x, tx), (y, ty) in product(zip(ours, theirs), repeat=2):
        assert (x == y, x != y) == (tx == ty, tx != ty)
    assert ours[-1] == ours[0] and ours[-1] is not ours[0]
    # the defaults: the record built from its required fields alone reads as the twin's
    required = {f.name: getattr(given[0], f.name) for f in fields(twin) if f.default is MISSING}
    assert repr(record(**required)) == repr(twin(**required))


def test_records_of_two_classes_with_equal_fields_differ():
    ours, theirs = (linear.IntegerRows((), ()), moduli.ModuliPoint((), ())), (IntegerRows((), ()), ModuliPoint((), ()))
    assert ours[0] != ours[1] and not ours[0] == ours[1] and theirs[0] != theirs[1]
    assert hash(ours[0]) == hash(ours[1]) == hash(theirs[0])


@pytest.mark.parametrize("name", ["StructureFunctions", "FrameConstants", "PolySystem", "IntegerRows", "RrefResult"])
def test_a_record_holding_a_dict_is_unhashable(name):
    for x in samples()[name]:
        with pytest.raises(TypeError):
            hash(x)


def test_an_equation_hashes_without_its_terms():
    eq = samples()["Equation"][0]
    other = replace(eq, terms={(): 7})
    assert other != eq and hash(other) == hash(eq)
    assert hash(other) == hash(Equation(**values_of(Equation, other)))


@pytest.mark.parametrize("name", sorted(TWINS))
def test_fields_refuse_assignment_and_deletion(name):
    x = samples()[name][0]
    first = fields(TWINS[name])[0].name
    before = getattr(x, first)
    for target in (x, TWINS[name](**values_of(TWINS[name], x))):
        for attr in (first, "unknown"):
            with pytest.raises(AttributeError):
                setattr(target, attr, None)
            with pytest.raises(AttributeError):
                delattr(target, attr)
    assert getattr(x, first) is before and "unknown" not in vars(x)


SLOT = ("component", 0)


@pytest.mark.parametrize("args, kwargs", [
    (("x", SLOT, 0), {}),  # missing
    ((), {"name": "x", "slot": SLOT, "basis_index": 0}),  # missing, by keyword
    (("x", SLOT, 0, 1), {"colour": 1}),  # unknown
    (("x", SLOT, 0, 1), {"name": "y"}),  # repeated
    (("x", SLOT, 0), {"basis_index": 0, "degree": 1}),  # repeated, with one missing value given
    (("x", SLOT, 0, 1, 2), {}),  # surplus
], ids=["missing", "missing-keyword", "unknown", "repeated", "repeated-partial", "surplus"])
def test_bad_arguments_raise_type_error(args, kwargs):
    for cls in (moduli.Coordinate, Coordinate):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_arguments_bind_by_position_keyword_and_default():
    built = [moduli.Coordinate("x", SLOT, 0, 1), moduli.Coordinate("x", SLOT, degree=1, basis_index=0),
             moduli.Coordinate(degree=1, basis_index=0, slot=SLOT, name="x")]
    assert len(set(built)) == 1 and repr(built[0]) == repr(Coordinate("x", SLOT, 0, 1))
    assert repr(liealg.ResidueReport(True)) == repr(ResidueReport(True)) == "ResidueReport(ok=True, message='')"
    field_ = samples()["VectorFieldPoly"][0]
    assert divisor.FrameElement("toral", field_, distinguished=True).grade is None


def test_replace_runs_the_validation_again():
    cusp = catalog("cusp")
    assert replace(cusp, factors=(cusp.f * 3,)).factors == (cusp.f * 3,)
    with pytest.raises(divisor.DivisorError, match="product of the factors"):
        replace(cusp, factors=(cusp.f * cusp.f,))
    with pytest.raises(TypeError):
        replace(cusp, colour=1)
    copy = replace(cusp)
    assert copy == cusp and copy is not cusp


@pytest.mark.parametrize("name", sorted(TWINS))
def test_replace_agrees_with_the_dataclass_replace(name):
    x, y = samples()[name][:2]
    twin = TWINS[name]
    last = fields(twin)[-1].name
    ours = replace(x, **{last: getattr(y, last)})
    theirs = dataclass_replace(twin(**values_of(twin, x)), **{last: getattr(y, last)})
    assert repr(ours) == repr(theirs) and hashed(ours) == hashed(theirs)


def test_cached_values_stay_outside_equality_and_hashing():
    fresh, used = catalog("cusp"), catalog("cusp")
    assert used.structure is used.structure and "structure" in vars(used) and "structure" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    vars(fresh)["structure"] = used.structure  # a cache may be written in by hand
    assert fresh.structure is used.structure and fresh == catalog("cusp")
    eq = samples()["Equation"][1]
    copy = replace(eq)
    assert eq.poly is not None and "poly" in vars(eq) and "poly" not in vars(copy)
    assert eq == copy and hash(eq) == hash(copy) and repr(eq) == repr(copy)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the value types are records, so that no process pays for importing
    # ``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``) and
    # for the code each decorator compiles; -S keeps a site hook from loading them first
    code = ("import sys; before = set(sys.modules); import logres.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
                          cwd=Path(__file__).resolve().parents[1], env={**os.environ, "PYTHONPATH": "src"})
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stderr
