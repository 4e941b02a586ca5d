"""Gauge covariance of the graded solve.

Conjugating every residue value by a constant P in GL_m(Q) is an isomorphism
of problems: B solves the equations for S exactly when P B P^-1 solves them
for P S P^-1.  So the conjugated problem must have the same dimensions in
every degree, and conjugating its basis back must land in the original span.
The same isomorphism carries a point x to P x P^-1 with the same verdicts, and
each group of emitted equations to one of the same rank.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logres import (MatrixPolyMap, ModuliPoint, RationalMatrix, catalog, check_point, moduli_system,
                    solve_component_spaces, solve_correction_spaces)
from logres.linear import IntegerRows, inverse, rref
from logres.moduli import _span_coordinates

from conftest import S01, conjugated, diag, residue_for

CASES = (("cusp", diag(0, 1, 2)), ("sekiguchi_b5", diag(0, 1, 2)), ("borel2", diag(0, 1, 2)),
         ("normal_crossing_3", diag(0, 1, 2)), ("g2", S01), ("d4", S01))


def spaces(d, s):
    residue = residue_for(d, s)
    return solve_component_spaces(d, residue) + solve_correction_spaces(d, residue)


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
            _span_coordinates(space, left.matmul(element).matmul(right))  # raises outside the span


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

def group_ranks(system):
    """Rank of the coefficient vectors of each (tag, frame slots, base monomial) group."""
    groups = {}
    for eq in system.equations:
        groups.setdefault((eq.tag, eq.frame_slots, eq.base_monomial), []).append(eq.terms)
    ranks = {}
    for key, group in groups.items():
        column = {}
        for terms in group:
            for monomial in terms:
                column.setdefault(monomial, len(column))
        rows = [[0] * len(column) for _ in group]
        for row, terms in zip(rows, group):
            for monomial, coeff in terms.items():
                row[column[monomial]] = coeff
        ranks[key] = rref(IntegerRows.cleared(rows, len(column))).rank
    return ranks


@settings(max_examples=20, deadline=None)
@given(conjugations())
def test_equation_group_ranks_are_gauge_invariant(drawn):
    case, p = drawn
    d, problem = original_problem(case)
    conjugate = moduli_system(d, residue_for(d, p * CASES[case][1] * inverse(p)))
    assert group_ranks(conjugate.system) == group_ranks(problem.system)


@pytest.mark.parametrize("name, s, emitted, conjugate_emitted, rank", [
    ("sekiguchi_b5", diag(0, 1, 2, 3), 122, 537, 118),
    ("borel2", diag(0, 1, 2, 3), 49, 253, 49),
    ("cusp", diag(0, 1, 2, 3), 16, 67, 16),
    ("d4", diag(0, 1, 2), 45, 234, 45),
    ("g2", S01, 2, 3, 2),
])
def test_rank_sums_of_the_conjugated_residues(name, s, emitted, conjugate_emitted, rank):
    # the ROADMAP table: conjugation multiplies the equations, not the rank
    d = catalog(name)
    written = moduli_system(d, residue_for(d, s)).system
    conjugate = moduli_system(d, residue_for(d, conjugated(s, random.Random(name)))).system
    assert (len(written.equations), len(conjugate.equations)) == (emitted, conjugate_emitted)
    ranks = group_ranks(written)
    assert group_ranks(conjugate) == ranks
    assert sum(ranks.values()) == rank
