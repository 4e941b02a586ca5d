import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logres import RationalMatrix, charpoly, integer_eigenvalues, rref
from logres.liealg import ad_operator, is_semisimple
from logres.linear import (
    MAX_CHARPOLY_DIM,
    IntegerRows,
    RrefResult,
    block_kernel,
    determinant,
    inverse,
)
from logres.univariate import uni_squarefree_part

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
    result = rref(m, [5, 6])
    assert not result.inconsistent
    sol = result.solution
    assert [sum(m[i, j] * sol[j] for j in range(2)) for i in range(2)] == [5, 6]
    assert rref(RationalMatrix([[1, 2], [2, 4]]), [1, 3]).inconsistent


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


# ------------------------------------------- the Fraction oracle of the kernel


def oracle_rref(matrix, rhs=None):
    """Gauss-Jordan over Fractions, dividing each pivot row by its pivot: the
    elimination that the fraction-free ``rref`` replaced, kept as its oracle."""
    rows, cols = matrix.rows, matrix.cols
    work = matrix.row_list()
    vec = [Fraction(v) for v in rhs] if rhs is not None else None
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        if vec is not None:
            vec[r], vec[pivot_row] = vec[pivot_row], vec[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        if vec is not None:
            vec[r] *= inv
        for i in range(rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
                if vec is not None:
                    vec[i] -= factor * vec[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    rank = len(pivots)
    inconsistent = False
    solution = None
    if vec is not None:
        inconsistent = any(vec[i] != 0 for i in range(rank, rows))
        if not inconsistent:
            sol = [Fraction(0)] * cols
            for i, c in enumerate(pivots):
                sol[c] = vec[i]
            solution = tuple(sol)
    kernel = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -work[i][free]
        kernel.append(tuple(v))
    return RrefResult(rank=rank, pivots=tuple(pivots), solution=solution, inconsistent=inconsistent,
                      kernel=tuple(kernel))


def oracle_charpoly(matrix):
    """Faddeev-LeVerrier over Fractions on the matrix itself."""
    n = matrix.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = RationalMatrix.zeros(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = matrix * (m + c * RationalMatrix.identity(n))
        c = -m.trace() / k
        coeffs[n - k] = c
    return coeffs


def oracle_is_semisimple(a):
    """The squarefree part of the charpoly, evaluated at a by Horner over Fractions, is zero."""
    n = a.rows
    value = RationalMatrix.zeros(n, n)
    for coeff in reversed(uni_squarefree_part(oracle_charpoly(a))):
        value = value * a + coeff * RationalMatrix.identity(n)
    return value.is_zero()


def assert_same_result(result, expected):
    assert result == expected  # every RrefResult field
    scalars = [v for vec in result.kernel for v in vec] + list(result.solution or ())
    assert all(type(v) is Fraction for v in scalars)


def random_entry(rng):
    roll = rng.random()
    if roll < 0.35:
        return Fraction(0)
    if roll < 0.45:
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 7))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def random_rref_case(rng):
    """A matrix of shape up to 7 x 9, sometimes with duplicated or zero rows,
    and no rhs, a consistent rhs (the image of a point) or a random one."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 9)
    data = [[random_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, rows - 1)):
        data[rng.randrange(rows)] = list(data[rng.randrange(rows)])
    if rng.random() < 0.2:
        data[rng.randrange(rows)] = [Fraction(0)] * cols
    matrix = RationalMatrix(data)
    kind = rng.choice(("none", "consistent", "random"))
    if kind == "none":
        return matrix, None
    if kind == "consistent":
        point = [random_entry(rng) for _ in range(cols)]
        return matrix, [sum((a * x for a, x in zip(row, point)), Fraction(0)) for row in data]
    return matrix, [rng.choice((rng.randint(-5, 5), random_entry(rng))) for _ in range(rows)]


def test_rref_matches_the_fraction_oracle_on_seeded_matrices():
    rng = random.Random(12)
    seen = {"consistent": 0, "inconsistent": 0, "kernel": 0, "large": 0}
    for _ in range(300):
        matrix, rhs = random_rref_case(rng)
        result = rref(matrix, rhs)
        assert_same_result(result, oracle_rref(matrix, rhs))
        rows = matrix.row_list() if rhs is None else [row + [v] for row, v in zip(matrix.row_list(), rhs)]
        assert_same_result(rref(IntegerRows.cleared(rows, matrix.cols, rhs is not None)), result)
        if rhs is not None:
            seen["inconsistent" if result.inconsistent else "consistent"] += 1
        seen["kernel"] += bool(result.kernel)
        seen["large"] += any(abs(v) > 10**20 for v in matrix.flatten())
    assert all(seen.values()), seen


def test_rref_matches_the_fraction_oracle_on_the_hilbert_matrix():
    hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    ones = [1] * 8
    result = rref(RationalMatrix(hilbert), ones)
    assert result.rank == 8 and result.solution is not None
    assert_same_result(result, oracle_rref(RationalMatrix(hilbert), ones))
    # one more column makes a kernel; a repeated row makes a rhs inconsistent
    wide = RationalMatrix([row + [Fraction(1, i + 9)] for i, row in enumerate(hilbert)])
    assert_same_result(rref(wide), oracle_rref(wide))
    tall = RationalMatrix(hilbert + [hilbert[3]])
    rhs = list(range(9))
    assert rref(tall, rhs).inconsistent
    assert_same_result(rref(tall, rhs), oracle_rref(tall, rhs))


def test_rref_on_integer_rows_of_degenerate_shapes():
    # no rows: every column is free, and an augmented system is solved by zero
    assert rref(IntegerRows([], 2)).kernel == ((1, 0), (0, 1))
    assert rref(IntegerRows([], 0, augmented=True)).solution == ()
    assert rref(IntegerRows([[3]], 0, augmented=True)).inconsistent
    with pytest.raises(ValueError, match="augmented"):
        rref(IntegerRows([[1]], 1), [1])


def test_block_kernel_matches_the_oracle_on_mixed_int_and_fraction_columns():
    rng = random.Random(5)
    values = (1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 7), 10**30, Fraction(10**30 + 1, 6))
    for _ in range(150):
        ncols, nkeys = rng.randint(1, 12), rng.randint(1, 8)
        columns = [{key: rng.choice(values) for key in rng.sample(range(nkeys), rng.randint(0, min(3, nkeys)))}
                   for _ in range(ncols)]
        vectors = block_kernel(columns)
        assert all(type(v) is Fraction for vec in vectors for v in vec.values())
        keys = sorted({key for column in columns for key in column})
        dense = RationalMatrix([[column.get(key, 0) for column in columns] for key in keys] or [[0] * ncols])
        densified = [tuple(vec.get(j, Fraction(0)) for j in range(ncols)) for vec in vectors]
        assert densified == list(oracle_rref(dense).kernel) == list(rref(dense).kernel)


def random_square(rng):
    """A matrix up to 6 x 6: plain random, a conjugated diagonal with repeated
    eigenvalues (semisimple), or the same with a nilpotent part added inside
    a repeated eigenvalue (not semisimple)."""
    n = rng.randint(1, 6)
    kind = rng.choice(("random", "diagonal", "jordan"))
    if kind == "random":
        return RationalMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)])
    eigenvalues = sorted(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    core = [[eigenvalues[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    if kind == "jordan":
        repeats = [i for i in range(n - 1) if eigenvalues[i] == eigenvalues[i + 1]]
        if repeats:
            i = rng.choice(repeats)
            core[i][i + 1] = Fraction(rng.choice((1, -2, 5)), rng.randint(1, 4))
    p = RationalMatrix([[Fraction(1) if i == j else Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if j > i
                         else Fraction(0) for j in range(n)] for i in range(n)])
    return p * RationalMatrix(core) * inverse(p)


def test_integer_charpoly_and_semisimplicity_match_the_fraction_oracle():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(200):
        a = random_square(rng)
        coeffs = charpoly(a)
        assert coeffs == oracle_charpoly(a)
        assert all(type(c) is Fraction for c in coeffs)
        verdict = is_semisimple(a)
        assert verdict == oracle_is_semisimple(a)
        verdicts.add(verdict)
    assert verdicts == {True, False}
