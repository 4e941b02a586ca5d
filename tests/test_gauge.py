"""Gauge covariance of the graded solve.

Conjugating every residue value by a constant P in GL_m(Q) is an isomorphism
of problems: B solves the equations for S exactly when P B P^-1 solves them
for P S P^-1.  So the conjugated problem must have the same dimensions in
every degree, and conjugating its basis back must land in the original span.
The same isomorphism carries a point x to P x P^-1 with the same verdicts, and
each group of emitted equations to one of the same rank.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logres import MatrixPolyMap, ModuliPoint, RationalMatrix, WeightedPoly, catalog, check_point, moduli_system
from logres.linear import IntegerRows, inverse, rref
from logres.moduli import MembershipError

from conftest import (S01, as_written, assert_readings_agree, conjugated, diag, fraction_conjugated, pulled_back,
                      residue_for, span_coordinates)

CASES = (("cusp", diag(0, 1, 2)), ("sekiguchi_b5", diag(0, 1, 2)), ("borel2", diag(0, 1, 2)),
         ("normal_crossing_3", diag(0, 1, 2)), ("g2", S01), ("d4", S01))


def spaces(d, s):
    problem = moduli_system(d, residue_for(d, s))
    return problem.component_spaces + problem.correction_spaces


@lru_cache(maxsize=None)
def original(case):
    name, s = CASES[case]
    d = catalog(name)
    return d, spaces(d, s)


@st.composite
def unimodular(draw, m):
    """A product of elementary integer matrices I + k e_ij (i != j), so det P = 1."""
    p = RationalMatrix.identity(m)
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(m)))[:2]
        rows = RationalMatrix.identity(m).row_list()
        rows[i][j] = draw(st.sampled_from((-2, -1, 1, 2)))
        p = RationalMatrix(rows) * p
    return p


@st.composite
def conjugations(draw):
    case = draw(st.integers(0, len(CASES) - 1))
    return case, draw(unimodular(CASES[case][1].rows))


@settings(max_examples=30, deadline=None)
@given(conjugations())
def test_solution_spaces_are_gauge_covariant(drawn):
    case, p = drawn
    d, before = original(case)
    p_inv = inverse(p)
    after = spaces(d, p * CASES[case][1] * p_inv)
    left, right = MatrixPolyMap.from_constant(p_inv, d.weights), MatrixPolyMap.from_constant(p, d.weights)
    for space, conjugate in zip(before, after, strict=True):
        assert conjugate.dims_by_degree == space.dims_by_degree
        for element in conjugate.basis:
            span_coordinates(space, left.matmul(element).matmul(right))  # raises outside the span


@settings(max_examples=15, deadline=None)
@given(conjugations(), st.integers(0, 2**16))
def test_pivot_coordinates_match_the_dense_reduction_under_conjugation(drawn, seed):
    case, p = drawn
    d = catalog(CASES[case][0])
    assert_readings_agree(moduli_system(d, residue_for(d, p * CASES[case][1] * inverse(p))), random.Random(seed))


# ------------------------------------------------------------ point verdicts

@lru_cache(maxsize=None)
def original_problem(case):
    name, s = CASES[case]
    d = catalog(name)
    return d, moduli_system(d, residue_for(d, s))


def seeded_points(problem, seed):
    """The zero point, then three points that weight about a third of the
    basis elements of each space by small rationals."""
    rng = random.Random(seed)
    weights = problem.divisor.weights

    def sample(space, sparse):
        total = MatrixPolyMap.zeros(space.matrix_size, weights)
        for element in space.basis:
            if sparse and rng.random() < 0.3:
                total = total + element.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return total

    return [ModuliPoint(tuple(sample(space, k) for space in problem.component_spaces),
                        tuple(sample(space, k) for space in problem.correction_spaces)) for k in range(4)]


def verdict(d, residue, point, problem):
    report = check_point(d, residue, point, problem)
    return report.flat, report.in_variety


def test_seeded_points_reach_every_verdict():
    verdicts = set()
    for case in range(len(CASES)):
        d, problem = original_problem(case)
        verdicts.update(verdict(d, problem.residue, x, problem) for x in seeded_points(problem, case))
    assert {flat for flat, _ in verdicts} == {True, False}
    assert {member for _, member in verdicts} == {True, False}


@settings(max_examples=20, deadline=None)
@given(conjugations(), st.integers(0, 2**16))
def test_point_verdicts_are_gauge_invariant(drawn, seed):
    case, p = drawn
    d, problem = original_problem(case)
    p_inv = inverse(p)
    residue = residue_for(d, p * CASES[case][1] * p_inv)
    conjugate = moduli_system(d, residue)
    left, right = MatrixPolyMap.from_constant(p, d.weights), MatrixPolyMap.from_constant(p_inv, d.weights)
    for x in seeded_points(problem, seed):
        y = ModuliPoint(tuple(left.matmul(b).matmul(right) for b in x.components),
                        tuple(left.matmul(n).matmul(right) for n in x.corrections))
        assert verdict(d, residue, y, conjugate) == verdict(d, problem.residue, x, problem)


# --------------------------------------------------------- equation groups

def rank_of(term_maps):
    """Rank of the coefficient vectors of equations' terms, read on the transpose:
    one sparse row per coordinate monomial, one column per equation."""
    rows = {}
    for column, terms in enumerate(term_maps):
        for monomial, coeff in terms.items():
            rows.setdefault(monomial, {})[column] = coeff
    return rref(IntegerRows.cleared(list(rows.values()), len(term_maps))).rank


def group_ranks(system):
    """Rank of the coefficient vectors of each (tag, frame slots, base monomial) group."""
    groups = {}
    for eq in system.equations:
        groups.setdefault((eq.tag, eq.frame_slots, eq.base_monomial), []).append(eq.terms)
    return {key: rank_of(group) for key, group in groups.items()}


def fingerprint(system):
    """The dimension of the span of all equations, and the rank of their linear
    parts: the codimension of X's tangent space at the origin."""
    terms = [eq.terms for eq in system.equations]
    linear = [{monomial: coeff for monomial, coeff in t.items() if len(monomial) == 1} for t in terms]
    return rank_of(terms), rank_of(linear)


@settings(max_examples=20, deadline=None)
@given(conjugations())
def test_equation_group_ranks_are_gauge_invariant(drawn):
    case, p = drawn
    d, problem = original_problem(case)
    conjugate = moduli_system(d, residue_for(d, p * CASES[case][1] * inverse(p)))
    assert group_ranks(conjugate.system) == group_ranks(problem.system)


@pytest.mark.parametrize("name, s, emitted, written_conjugate_emitted, rank, span, linear_rank", [
    ("sekiguchi_b5", diag(0, 1, 2, 3), 122, 537, 118, 118, 59),
    ("borel2", diag(0, 1, 2, 3), 49, 253, 49, 49, 14),
    ("cusp", diag(0, 1, 2, 3), 16, 67, 16, 16, 3),
    ("d4", diag(0, 1, 2), 45, 234, 45, 15, 0),
    ("g2", S01, 2, 3, 2, 2, 0),
])
def test_rank_sums_of_the_conjugated_residues(name, s, emitted, written_conjugate_emitted, rank, span, linear_rank):
    # the ROADMAP table: conjugation written out multiplies the equations, not
    # the rank, nor the span of all equations or the rank of their linear
    # parts; the gauged conjugate emits the diagonal residue's equations
    d = catalog(name)
    diagonal = moduli_system(d, residue_for(d, s)).system
    residue = residue_for(d, conjugated(s, random.Random(name)))
    conjugate, written = moduli_system(d, residue).system, as_written(d, residue).system
    assert conjugate.gauge is not None and written.gauge is None
    assert [len(system.equations) for system in (diagonal, conjugate, written)] == [
        emitted, emitted, written_conjugate_emitted]
    ranks = group_ranks(diagonal)
    assert group_ranks(conjugate) == group_ranks(written) == ranks
    assert sum(ranks.values()) == rank
    assert fingerprint(diagonal) == fingerprint(conjugate) == fingerprint(written) == (span, linear_rank)


# ------------------------------------------- the gauged solve and the written one

GAUGED = [(name, s, form) for name, s in (("cusp", diag(0, 1, 2, 3)), ("borel2", diag(0, 1, 2)),
                                          ("sekiguchi_b5", diag(0, 1, 2)), ("normal_crossing_3", S01))
          for form in ("conjugated", "fraction_conjugated")]


@pytest.mark.parametrize("name, s, form", GAUGED, ids=[f"{name}~{form}" for name, _, form in GAUGED])
def test_the_gauged_solve_agrees_with_the_written_one(name, s, form):
    # the residue solved as written is the slow-path oracle: the two problems
    # must have the same fingerprint, dimensions and spans in the residue's own
    # basis, and give every seeded point in that basis the same verdict
    d = catalog(name)
    value = conjugated(s, random.Random(f"gauged:{name}")) if form == "conjugated" else fraction_conjugated(s)
    residue = residue_for(d, value)
    gauged, written = moduli_system(d, residue), as_written(d, residue)
    p = gauged.system.gauge
    assert inverse(p) * value * p == s and gauged.residue is residue
    assert fingerprint(gauged.system) == fingerprint(written.system)
    pairs = list(zip(gauged.component_spaces + gauged.correction_spaces,
                     written.component_spaces + written.correction_spaces, strict=True))
    for ours, theirs in pairs:
        assert ours.gauge is p and ours.dims_by_degree == theirs.dims_by_degree
        for element in ours.basis:
            span_coordinates(theirs, element)  # raises outside the span
    outside = MatrixPolyMap([[WeightedPoly(d.weights, {(100,) + (0,) * (d.n - 1): int(i == j == 0)})
                              for j in range(value.rows)] for i in range(value.rows)])
    for problem in (written, gauged):
        for x in seeded_points(problem, name):
            assert verdict(d, residue, x, gauged) == verdict(d, residue, x, written)
        # moved off the correction span by a term no element has, the last point is refused by both
        moved = ModuliPoint(x.components, (x.corrections[0] + outside,) + x.corrections[1:])
        for solved in (gauged, written):
            with pytest.raises(MembershipError):
                check_point(d, residue, moved, solved)

# ------------------------------------------------- changes of coordinates

@pytest.mark.parametrize("name, s, couples", [
    ("normal_crossing_3", S01, True), ("normal_crossing_3", diag(0, 1, 2), True), ("normal_crossing_4", S01, True),
    ("borel2", diag(0, 1, 2), True), ("g2", diag(0, 1), False), ("d4", diag(0, 1), True),
])
def test_solution_dimensions_survive_a_unimodular_change_of_coordinates(monkeypatch, name, s, couples):
    # the character sieve leaves every block of a catalog solve trivial; in
    # mixed coordinates the frame fields are no longer diagonal, so the solve
    # hands block_kernel columns that share rows, and the dimensions per
    # degree must come out as in the catalog's own coordinates.  The weights
    # 3 of g2 leave it no monomial of degree 1, so its one solve, of degree
    # 0, has no rows to share
    import logres.moduli

    d = catalog(name)
    pulled = pulled_back(d, random.Random(name))
    pulled.constants  # the frame analysis reduces through block_kernel too, so it runs first
    coupled = []
    block_kernel_at_import = logres.moduli.block_kernel

    def recording_block_kernel(columns):
        holders = Counter(key for column in columns for key in column)
        coupled.append(any(count > 1 for count in holders.values()))
        return block_kernel_at_import(columns)

    monkeypatch.setattr(logres.moduli, "block_kernel", recording_block_kernel)
    original, changed = moduli_system(d, residue_for(d, s)), moduli_system(pulled, residue_for(pulled, s))

    def dimensions(problem):
        return [space.dims_by_degree for space in problem.component_spaces + problem.correction_spaces]

    assert dimensions(changed) == dimensions(original)
    assert any(coupled) == couples
