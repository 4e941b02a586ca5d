from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logres import RationalMatrix, charpoly, integer_eigenvalues, rref
from logres.liealg import ad_operator
from logres.linear import MAX_CHARPOLY_DIM, block_kernel, determinant, inverse, solve_linear

from conftest import diag


def test_rref_identity_solves_unit_vector():
    result = rref(RationalMatrix.identity(3), [1, 0, 0])
    assert result.solution == (Fraction(1), Fraction(0), Fraction(0))
    assert result.rank == 3
    assert not result.kernel


def test_rref_reports_inconsistency():
    result = rref(RationalMatrix([[1, 1], [2, 2]]), [1, 3])
    assert result.inconsistent
    assert result.rank == 1


def test_rref_kernel_spans_nullspace():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    result = rref(m)
    assert result.rank == 1
    assert len(result.kernel) == 2
    for vec in result.kernel:
        product = [sum(m[i, j] * vec[j] for j in range(3)) for i in range(2)]
        assert all(v == 0 for v in product)


def test_determinant_and_inverse():
    m = RationalMatrix([[2, 1], [1, 1]])
    assert determinant(m) == 1
    assert inverse(m) * m == RationalMatrix.identity(2)


def test_charpoly_companion():
    # t^2 - t - 1 for [[0,1],[1,1]]
    m = RationalMatrix([[0, 1], [1, 1]])
    assert charpoly(m) == [Fraction(-1), Fraction(-1), Fraction(1)]


def test_charpoly_rejects_oversized():
    with pytest.raises(ValueError):
        charpoly(RationalMatrix.identity(MAX_CHARPOLY_DIM + 1))


def test_integer_eigenvalues_ad_of_diagonal():
    assert integer_eigenvalues(ad_operator(diag(0, 1))) == [-1, 0, 1]


def test_integer_eigenvalues_zero_matrix():
    assert integer_eigenvalues(RationalMatrix.zeros(3, 3)) == [0]


def test_integer_eigenvalues_skips_non_integers():
    assert integer_eigenvalues(diag(Fraction(1, 2), Fraction(1, 2))) == []


def test_solve_linear():
    m = RationalMatrix([[1, 2], [3, 4]])
    sol = solve_linear(m, [5, 6])
    assert sol is not None
    assert [sum(m[i, j] * sol[j] for j in range(2)) for i in range(2)] == [5, 6]


entries = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def matrices(draw, rows=(1, 4), cols=(1, 4)):
    r = draw(st.integers(*rows))
    c = draw(st.integers(*cols))
    return RationalMatrix([[draw(entries) for _ in range(c)] for _ in range(r)])


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_rref_invariants(m, data):
    rhs = [data.draw(entries) for _ in range(m.rows)]
    result = rref(m, rhs)
    assert result.rank + len(result.kernel) == m.cols
    if not result.inconsistent:
        assert result.solution is not None
        residual = [
            sum(m[i, j] * result.solution[j] for j in range(m.cols)) - rhs[i] for i in range(m.rows)
        ]
        assert all(v == 0 for v in residual)
    for vec in result.kernel:
        image = [sum(m[i, j] * vec[j] for j in range(m.cols)) for i in range(m.rows)]
        assert all(v == 0 for v in image)


@settings(max_examples=40, deadline=None)
@given(matrices(rows=(2, 3), cols=(2, 3)))
def test_integer_eigenvalues_against_kernels(m):
    if m.rows != m.cols:
        return
    reported = set(integer_eigenvalues(m))
    for candidate in range(-6, 7):
        shifted = m - candidate * RationalMatrix.identity(m.rows)
        kernel_dim = len(rref(shifted).kernel)
        if candidate in reported:
            assert kernel_dim > 0
        else:
            assert kernel_dim == 0


# ------------------------------------------------------- block-wise kernel


def dense_kernel(columns, ncols):
    """The reference: rref of the dense matrix with one row per row key."""
    keys = sorted({key for column in columns for key in column})
    rows = [[column.get(key, Fraction(0)) for column in columns] for key in keys]
    return list(rref(RationalMatrix(rows or [[Fraction(0)] * ncols])).kernel)


def assert_block_kernel_matches(columns):
    ncols = len(columns)
    vectors = block_kernel(columns)
    for vec in vectors:
        assert list(vec) == sorted(vec)
        assert all(v != 0 for v in vec.values())
    densified = [tuple(vec.get(j, Fraction(0)) for j in range(ncols)) for vec in vectors]
    assert densified == dense_kernel(columns, ncols)


def col(**entries):
    return {key: Fraction(v) for key, v in entries.items()}


def test_block_kernel_zero_columns():
    columns = [col(), col(a=1), col(), col(a=2), col()]
    assert_block_kernel_matches(columns)
    assert block_kernel(columns)[0] == {0: 1}


def test_block_kernel_interleaved_blocks():
    # block {a, b} owns columns 0, 3, 5 and block {c} columns 1, 2, 4; the
    # second block's first free column comes before the first block's
    columns = [col(a=1, b=1), col(c=2), col(c=-1), col(a=2, b=2), col(c=4), col(a=1)]
    assert_block_kernel_matches(columns)
    assert [sorted(vec) for vec in block_kernel(columns)] == [[1, 2], [0, 3], [1, 4]]


def test_block_kernel_fully_coupled_block():
    # a chain of shared rows couples every column into one block
    columns = [col(a=1, b=1), col(b=1, c=1), col(c=1, d=1), col(a=1, d=-1), col(a=3)]
    assert_block_kernel_matches(columns)


def test_block_kernel_empty_row_set():
    assert block_kernel([]) == []
    columns = [col(), col(), col()]
    assert block_kernel(columns) == [{0: 1}, {1: 1}, {2: 1}]
    assert_block_kernel_matches(columns)


@st.composite
def sparse_columns(draw):
    """Columns whose row keys are (block, row); the blocks interleave freely."""
    ncols = draw(st.integers(1, 10))
    nblocks = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 3))
    values = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    columns = []
    for _ in range(ncols):
        block = draw(st.integers(0, nblocks - 1))
        entries = {(block, r): Fraction(draw(values)) for r in range(nrows)}
        if draw(st.booleans()):
            # a cross-block entry couples two blocks
            entries[(draw(st.integers(0, nblocks - 1)), 0)] = Fraction(draw(values))
        columns.append({key: v for key, v in entries.items() if v})
    return columns


@settings(max_examples=150, deadline=None)
@given(sparse_columns())
def test_block_kernel_equals_dense_rref_kernel(columns):
    assert_block_kernel_matches(columns)
