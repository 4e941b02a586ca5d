"""Gauge covariance of the graded solve.

Conjugating every residue value by a constant P in GL_m(Q) is an isomorphism
of problems: B solves the equations for S exactly when P B P^-1 solves them
for P S P^-1.  So the conjugated problem must have the same dimensions in
every degree, and conjugating its basis back must land in the original span.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from logres import MatrixPolyMap, RationalMatrix, catalog, solve_component_spaces, solve_correction_spaces
from logres.linear import inverse
from logres.moduli import _span_coordinates

from conftest import S01, diag, residue_for

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
