"""``check_point`` reads a point once, on integers, against its ``Fraction`` oracle.

``tests/conftest.py::oracle_check_point`` is the read path composed from
``Fraction`` maps: a pivot reading per space, ``PolySystem.evaluate``, the
connection from ``MatrixPolyMap`` ``+`` and ``scale``, ``is_flat`` and each
correction's ``MatrixPolyMap.power``.  The library's one integer reading must
give the same coordinates and the same ``PointReport``, witness and residual
included, and refuse the same points with the same message.
"""

import random
from fractions import Fraction

import pytest

from logres import MatrixPolyMap, ModuliPoint, WeightedPoly, assemble_connection, check_point, coordinates_of
from logres import moduli_system
from logres.moduli import MembershipError
from logres.polynomials import WeightMismatchError

from conftest import (CHI_E, CHI_F, CHI_H, S01, ZERO2, conjugated, diag, divisor_named, fraction_conjugated,
                      oracle_assemble, oracle_check_point, oracle_coordinates_of, residue_for)

# label -> (divisor, S, chi): the 13 criterion-3 problems and one product divisor
PROBLEMS = {f"{name}/{tag}": (name, s, "auto") for name in ("cusp", "normal_crossing_2", "borel2", "g2", "d4",
                                                            "sekiguchi_b5")
            for tag, s in (("0", ZERO2), ("S01", S01))}
PROBLEMS["g2/0+sl2"] = ("g2", ZERO2, (CHI_H, CHI_E, CHI_F))
PROBLEMS["cusp*normal_crossing_2/S01"] = ("cusp*normal_crossing_2", S01, "auto")
CRITERION_3 = [label for label in PROBLEMS if "*" not in label]

GAUGED = {f"{name}~{form}": (name, s, form) for name, s in (("cusp", diag(0, 1, 2, 3)), ("borel2", diag(0, 1, 2)))
          for form in ("conjugated", "fraction_conjugated")}


def problem_of(label):
    if label in GAUGED:
        name, s, form = GAUGED[label]
        value = conjugated(s, random.Random(f"gauged:{name}")) if form == "conjugated" else fraction_conjugated(s)
        d = divisor_named(name)
        problem = moduli_system(d, residue_for(d, value))
        assert problem.system.gauge is not None
        return d, problem
    name, s, chi = PROBLEMS[label]
    d = divisor_named(name)
    return d, moduli_system(d, residue_for(d, s, chi_value=chi))


def seeded_points(problem, rng, den):
    """Three points weighting about two thirds of each basis by rationals of
    denominator ``den`` (integers among them), then one whose corrections sum
    only strictly triangular elements, so that each is nilpotent."""
    weights = problem.divisor.weights

    def sample(space, keep=lambda element: True):
        total = MatrixPolyMap.zeros(space.matrix_size, weights)
        for element in space.basis:
            if keep(element) and rng.random() < 2 / 3:
                total = total + element.scale(Fraction(rng.randint(-6, 6), rng.choice((1, den))))
        return total

    def support(element):
        return {(r, c) for r, row in enumerate(element.entries) for c, entry in enumerate(row) if entry}

    def strictly_triangular(space):
        upper = [e for e in space.basis if support(e) and all(r < c for r, c in support(e))]
        lower = [e for e in space.basis if support(e) and all(r > c for r, c in support(e))]
        chosen = upper if len(upper) >= len(lower) else lower
        return sample(space, lambda element: any(element is e for e in chosen))

    points = [ModuliPoint(tuple(map(sample, problem.component_spaces)), tuple(map(sample, problem.correction_spaces)))
              for _ in range(3)]
    points.append(ModuliPoint(tuple(map(sample, problem.component_spaces)),
                              tuple(map(strictly_triangular, problem.correction_spaces))))
    return points


def moved_off(problem, point, slot):
    """The point with one map moved by a term at a monomial that no basis element has."""
    d = problem.divisor
    m = problem.system.matrix_size
    outside = MatrixPolyMap([[WeightedPoly(d.weights, {(100,) + (0,) * (d.n - 1): int(i == j == 0)})
                              for j in range(m)] for i in range(m)])
    maps = list(point.components + point.corrections)
    maps[slot] = maps[slot] + outside
    k = len(point.components)
    return ModuliPoint(tuple(maps[:k]), tuple(maps[k:]))


def assert_agrees_with_the_oracle(d, problem, point):
    """Equal coordinates, report and connection; returns the verdict (flat, in variety)."""
    residue = problem.residue
    assert coordinates_of(point, problem) == oracle_coordinates_of(point, problem)
    report, expected = check_point(d, residue, point, problem), oracle_check_point(d, residue, point, problem)
    assert (report.flat, report.violations) == (expected.flat, expected.violations)
    assert (report.flatness.witness, report.flatness.residual) == (expected.flatness.witness,
                                                                  expected.flatness.residual)
    assert report == expected
    assert assemble_connection(d, residue, point, problem) == oracle_assemble(d, residue, point)
    return report.flat, report.in_variety


def assert_refused_alike(d, problem, point):
    for slot in {0, len(point.components) + len(point.corrections) - 1}:
        moved = moved_off(problem, point, slot)
        messages = []
        for call in (lambda: check_point(d, problem.residue, moved, problem),
                     lambda: oracle_check_point(d, problem.residue, moved, problem),
                     lambda: coordinates_of(moved, problem), lambda: oracle_coordinates_of(moved, problem)):
            with pytest.raises(MembershipError) as caught:
                call()
            messages.append(str(caught.value))
        assert len(set(messages)) == 1 and "solution space" in messages[0]


@pytest.mark.parametrize("label", CRITERION_3)
@pytest.mark.parametrize("den", (1, 2, 3, 5, 7))
def test_the_integer_reading_agrees_with_the_fraction_oracle(label, den):
    d, problem = problem_of(label)
    for point in seeded_points(problem, random.Random(f"oracle:{label}:{den}"), den):
        assert_agrees_with_the_oracle(d, problem, point)
    assert_refused_alike(d, problem, point)


@pytest.mark.parametrize("label", ["cusp*normal_crossing_2/S01", *GAUGED])
def test_the_integer_reading_agrees_on_a_product_and_in_a_weight_basis(label):
    # a gauged residue's point is read through P, cleared after the conjugation;
    # the cross-checks take it as given
    d, problem = problem_of(label)
    rng = random.Random(f"oracle:{label}")
    points = [point for den in (1, 2, 3, 5, 7) for point in seeded_points(problem, rng, den)]
    verdicts = {assert_agrees_with_the_oracle(d, problem, point) for point in points}
    assert {(True, True), (False, False)} <= verdicts
    assert_refused_alike(d, problem, points[-1])


def test_the_oracle_cases_reach_every_verdict_and_a_nilpotent_correction():
    verdicts, nilpotent = set(), 0
    for label in CRITERION_3:
        d, problem = problem_of(label)
        for point in seeded_points(problem, random.Random(f"oracle:{label}:3"), 3):
            report = check_point(d, problem.residue, point, problem)
            verdicts.add((report.flat, report.in_variety))
            m = problem.system.matrix_size
            nilpotent += sum(not n.is_zero() and n.power(m).is_zero() and not n.power(m - 1).is_zero()
                             for n in point.corrections)
    assert {(True, True), (False, False)} <= verdicts
    assert nilpotent > 0  # an m-th power taken one step short would see these


def test_the_pairing_enters_with_its_denominator_and_sign():
    # sekiguchi_b5 pairs its first grading character with the first graded field by -32/3 x
    d, problem = problem_of("sekiguchi_b5/0")
    assert d.pairings[0][0].terms == {(1, 0, 0): Fraction(-32, 3)}
    e12 = MatrixPolyMap([[WeightedPoly(d.weights, {(0, 0, 0): int(c > r)}) for c in range(2)] for r in range(2)])
    zero = MatrixPolyMap.zeros(2, d.weights)
    point = ModuliPoint((zero, zero), (e12.scale(Fraction(3, 7)),))
    conn = assemble_connection(d, problem.residue, point, problem)
    assert conn.components[1][0, 1].terms == {(1, 0, 0): Fraction(-32, 7)}
    assert_agrees_with_the_oracle(d, problem, point)


def counting(monkeypatch):
    """Record each construction of a ``MatrixPolyMap`` or ``WeightedPoly``, by constructor."""
    made = []
    for cls in (MatrixPolyMap, WeightedPoly):
        init, of = cls.__init__, cls.__dict__["_of"].__func__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init, _name=f"{cls.__name__}.__init__":
                            made.append(_name) or _init(self, *args))
        monkeypatch.setattr(cls, "_of", classmethod(lambda c, *args, _of=of, _name=f"{cls.__name__}._of":
                                                    made.append(_name) or _of(c, *args)))
    return made


@pytest.mark.parametrize("label", CRITERION_3)
def test_a_warm_check_point_builds_only_the_witness_residual(monkeypatch, label):
    # a flat point builds no polynomial map at all; a curved one builds its
    # witness residual, m * m entries and one map, and nothing else
    d, problem = problem_of(label)
    points = seeded_points(problem, random.Random(f"warm:{label}"), 3)
    expected = [check_point(d, problem.residue, point, problem) for point in points]
    made = counting(monkeypatch)
    m = problem.system.matrix_size
    for point, report in zip(points, expected):
        made.clear()
        assert check_point(d, problem.residue, point, problem) == report
        assert sorted(made) == ([] if report.flat else ["MatrixPolyMap._of"] + ["WeightedPoly._of"] * (m * m))


def test_a_map_in_another_ring_is_refused():
    # read on integers, a zero map in another ring would pass for the zero map;
    # it is refused as the Fraction assembly refused it
    d, problem = problem_of("sekiguchi_b5/S01")
    zero, other = MatrixPolyMap.zeros(2, d.weights), MatrixPolyMap.zeros(2, (1, 1))
    for point in (ModuliPoint((other, zero), (zero,)), ModuliPoint((zero, zero), (other,))):
        for call in (lambda: coordinates_of(point, problem), lambda: check_point(d, problem.residue, point, problem),
                     lambda: assemble_connection(d, problem.residue, point, problem)):
            with pytest.raises(WeightMismatchError, match=r"weight vectors differ: \(1, 1\) vs \(1, 2, 3\)"):
                call()
