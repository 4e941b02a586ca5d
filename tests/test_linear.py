import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    clear_denominators,
    determinant,
    inverse,
)
from logres.record import replace
from logres.univariate import uni_evaluate, uni_squarefree_part

from conftest import SystemResult, conjugated, densify, diag, fraction_conjugated, solve_system, trace


def test_rref_identity_solves_unit_vector():
    result = solve_system(RationalMatrix.identity(3), [1, 0, 0])
    assert result.solution == (Fraction(1), Fraction(0), Fraction(0))
    assert result.rank == 3
    assert not result.kernel


def test_rref_reports_inconsistency():
    result = solve_system(RationalMatrix([[1, 1], [2, 2]]), [1, 3])
    assert result.inconsistent
    assert result.rank == 1


def test_rref_kernel_spans_nullspace():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    result = rref(m)
    assert result.rank == 1
    assert len(result.kernel) == 2
    for vec in result.kernel:
        product = [sum(m[i, j] * v for j, v in vec.items()) for i in range(2)]
        assert all(v == 0 for v in product)


def test_determinant_and_inverse():
    m = RationalMatrix([[2, 1], [1, 1]])
    assert determinant(m) == 1
    assert inverse(m) * m == RationalMatrix.identity(2)


def test_inverse_of_seeded_matrices_and_rejection_of_singular_ones():
    # sparse entries make a good share of the matrices singular
    rng = random.Random(18)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = RationalMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else 0
                             for _ in range(n)] for _ in range(n)])
        if determinant(a) == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                inverse(a)
        else:
            assert a * inverse(a) == RationalMatrix.identity(n) == inverse(a) * a
    assert 0 < singular < 300


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
    result = solve_system(m, [5, 6])
    assert not result.inconsistent
    sol = result.solution
    assert [sum(m[i, j] * sol[j] for j in range(2)) for i in range(2)] == [5, 6]
    assert solve_system(RationalMatrix([[1, 2], [2, 4]]), [1, 3]).inconsistent


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
    result = solve_system(m, rhs)
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
    """The reference: the Fraction oracle on the dense matrix with one row per row key."""
    keys = sorted({key for column in columns for key in column})
    rows = [[column.get(key, Fraction(0)) for column in columns] for key in keys]
    return list(oracle_rref(RationalMatrix(rows or [[Fraction(0)] * ncols])).kernel)


def assert_block_kernel_matches(columns):
    ncols = len(columns)
    vectors = block_kernel(columns)
    for vec in vectors:
        assert list(vec) == sorted(vec)
        assert all(v != 0 for v in vec.values())
    assert list(densify(vectors, ncols)) == dense_kernel(columns, ncols)


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


@pytest.fixture
def rref_calls(monkeypatch):
    """The (rows, columns) of each reduction made through the ``logres.linear.rref`` name."""
    import logres.linear

    calls = []
    rref_at_import = logres.linear.rref

    def counting_rref(*args):
        calls.append((args[0].rows, args[0].cols))
        return rref_at_import(*args)

    monkeypatch.setattr(logres.linear, "rref", counting_rref)
    return calls


def test_block_kernel_chain_of_single_row_holders_has_no_kernel():
    # a is held by column 0 alone, so x_0 = 0; then b is held by column 1
    # alone, then c by column 2: every unknown is forced to zero
    columns = [col(a=1, b=1), col(b=1, c=1), col(c=1)]
    assert block_kernel(columns) == []
    assert_block_kernel_matches(columns)


def test_block_kernel_coupled_block_beside_columns_forced_to_zero():
    # columns 1 and 3 each alone hold a row (d, then c once 1 is zero); the
    # columns 0 and 2 on row a have the kernel vector (1, 1), and column 4 is
    # a zero column and free
    columns = [col(a=1), col(a=2, c=1, d=3), col(a=-1), col(c=5, e=1), col()]
    assert block_kernel(columns) == [{0: 1, 2: 1}, {4: 1}]
    assert_block_kernel_matches(columns)


def test_block_kernel_counts_only_nonzero_entries():
    # row a holds an explicit zero in column 0 and nothing else: that forces
    # nothing, and the kernel is (-1, 1)
    columns = [{"a": 0, "b": Fraction(1)}, {"b": Fraction(1)}]
    assert block_kernel(columns) == [{0: -1, 1: 1}]
    assert_block_kernel_matches(columns)


def test_block_kernel_reduces_no_lone_column(rref_calls):
    # columns 0, 1, 2 and 4 are blocks of one column each: 0 and 4 hold a
    # nonzero value and are pivots, 1 and 2 hold only zeros and are free, like
    # the empty column 5; the block of columns 3 and 6 has a kernel vector.
    # All seven columns go to rref in one call, which needs no rule for a
    # lone column: its rows meet no other column's
    columns = [col(a=1), {"b": 0}, {"c": 0, "d": Fraction(0)}, col(e=1, f=2), col(g=-3, h=1), col(), col(e=2, f=4)]
    assert block_kernel(columns) == [{1: 1}, {2: 1}, {5: 1}, {3: -2, 6: 1}]
    assert [cols for _, cols in rref_calls] == [7]
    assert_block_kernel_matches(columns)


def test_block_kernel_makes_no_reduction_on_the_torus_inputs(monkeypatch):
    # a structural count: on the normal crossings, and on the diagonal and
    # conjugated rank 3 and 4 residues (the conjugates are solved gauged,
    # so diagonal too), every frame direction the slot solve tests is
    # diagonal and each ad C_k is diagonal on the eigenmatrices, so each
    # kept candidate is a basis element by itself and no block_kernel call
    # is made
    import logres.moduli
    from logres import catalog, moduli_system

    from conftest import S01, residue_for

    def forbidden(columns):
        raise AssertionError("the solve called block_kernel")

    monkeypatch.setattr(logres.moduli, "block_kernel", forbidden)
    cases = [("normal_crossing_3", S01), ("normal_crossing_4", S01), ("normal_crossing_5", S01),
             ("normal_crossing_4", diag(0, 2)), ("normal_crossing_4", diag(0, 1, 2))]
    for name, s in [("cusp", diag(0, 1, 2, 3)), ("sekiguchi_b5", diag(0, 1, 2)), ("borel2", diag(0, 1, 2))]:
        cases += [(name, s), (name, conjugated(s, random.Random(name)))]
    for name, s in cases:
        d = catalog(name)
        problem = moduli_system(d, residue_for(d, s))
        assert problem.system.coordinates  # the solves did keep vectors


@st.composite
def sparse_columns(draw):
    """Columns whose row keys are (block, row); the blocks interleave freely.
    Link rows (-1, i) each go to few columns, so rows held by one column,
    and cascades of them, are common.  Lone columns are put in among them."""
    ncols = draw(st.integers(1, 10))
    nblocks = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 3))
    nlinks = draw(st.integers(0, 2 * ncols))
    values = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    nonzero = st.sampled_from([1, -1, 2, Fraction(1, 2)])
    columns = []
    for _ in range(ncols):
        block = draw(st.integers(0, nblocks - 1))
        entries = {(block, r): Fraction(draw(values)) for r in range(nrows)}
        if draw(st.booleans()):
            # a cross-block entry couples two blocks
            entries[(draw(st.integers(0, nblocks - 1)), 0)] = Fraction(draw(values))
        if nlinks:
            for link in draw(st.lists(st.integers(0, nlinks - 1), max_size=2)):
                entries[(-1, link)] = Fraction(draw(nonzero))
        columns.append({key: v for key, v in entries.items() if v})
    # lone columns, each a one-column block on row keys (-2 - lone, r) of its
    # own; their explicit zeros are kept, so some hold no nonzero value at all
    for lone in range(draw(st.integers(0, 3))):
        entries = {(-2 - lone, r): Fraction(draw(values)) for r in range(draw(st.integers(1, 2)))}
        columns.insert(draw(st.integers(0, len(columns))), entries)
    return columns


@settings(max_examples=150, deadline=None)
@given(sparse_columns())
def test_block_kernel_equals_dense_rref_kernel(columns):
    assert_block_kernel_matches(columns)


# ------------------------------------------- the Fraction oracle of the kernel


def oracle_rref(matrix, rhs=None):
    """Gauss-Jordan over Fractions, dividing each pivot row by its pivot: the
    elimination that the fraction-free ``rref`` replaced, kept as its oracle.
    With ``rhs`` it carries the right-hand side along and solves the system
    directly, the reference for ``solve_system``'s reading of a kernel."""
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
    if vec is None:
        return RrefResult(rank=rank, pivots=tuple(pivots), kernel=tuple(kernel))
    return SystemResult(rank=rank, pivots=tuple(pivots), solution=solution, inconsistent=inconsistent,
                        kernel=tuple(kernel))


def oracle_charpoly(matrix):
    """Faddeev-LeVerrier over Fractions on the matrix itself."""
    n = matrix.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = RationalMatrix.zeros(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = matrix * (m + c * RationalMatrix.identity(n))
        c = -trace(m) / k
        coeffs[n - k] = c
    return coeffs


def oracle_is_semisimple(a):
    """The squarefree part of the charpoly, cleared to ints, evaluated at a by
    Horner over Fractions, is zero."""
    n = a.rows
    value = RationalMatrix.zeros(n, n)
    for coeff in reversed(uni_squarefree_part(clear_denominators(oracle_charpoly(a))[1])):
        value = value * a + coeff * RationalMatrix.identity(n)
    return value.is_zero()


def assert_same_result(result, expected):
    """``result`` equals the oracle's ``expected``, an ``RrefResult``'s sparse kernel read densely."""
    if isinstance(result, RrefResult):
        result = replace(result, kernel=densify(result.kernel, result.rank + len(result.kernel)))
    assert result == expected  # every field
    scalars = [v for vec in result.kernel for v in vec] + list(getattr(result, "solution", None) or ())
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
        result = rref(matrix) if rhs is None else solve_system(matrix, rhs)
        assert_same_result(result, oracle_rref(matrix, rhs))
        # the matrix itself, or the [matrix | -rhs] that solve_system reduces, from cleared rows
        rows = matrix.row_list() if rhs is None else [row + [-v] for row, v in zip(matrix.row_list(), rhs)]
        direct = rref(IntegerRows.cleared(rows, len(rows[0])))
        assert direct == rref(RationalMatrix(rows))
        assert_same_result(direct, oracle_rref(RationalMatrix(rows)))
        if rhs is not None:
            seen["inconsistent" if result.inconsistent else "consistent"] += 1
        seen["kernel"] += bool(result.kernel)
        seen["large"] += any(abs(v) > 10**20 for v in matrix.flatten())
    assert all(seen.values()), seen


def test_rref_is_unchanged_by_a_seeded_row_shuffle():
    # the pivot of a column is the shortest row that holds it, the lowest
    # index first; the reduced form is unique, so neither choice may show
    rng = random.Random(31)
    for _ in range(300):
        matrix, _ = random_rref_case(rng)
        rows = IntegerRows.cleared(matrix.entries, matrix.cols).entries
        assert rref(IntegerRows(rng.sample(rows, len(rows)), matrix.cols)) == rref(matrix)


def test_rref_leaves_the_callers_rows_unchanged():
    rng = random.Random(32)
    for _ in range(300):
        matrix, _ = random_rref_case(rng)
        rows = IntegerRows.cleared(matrix.entries, matrix.cols).entries
        before = [list(row.items()) for row in rows]
        rref(IntegerRows(rows, matrix.cols))
        assert [list(row.items()) for row in rows] == before


def test_rref_matches_the_fraction_oracle_on_the_hilbert_matrix():
    hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    ones = [1] * 8
    result = solve_system(RationalMatrix(hilbert), ones)
    assert result.rank == 8 and result.solution is not None
    assert_same_result(result, oracle_rref(RationalMatrix(hilbert), ones))
    # one more column makes a kernel; a repeated row makes a rhs inconsistent
    wide = RationalMatrix([row + [Fraction(1, i + 9)] for i, row in enumerate(hilbert)])
    assert_same_result(rref(wide), oracle_rref(wide))
    tall = RationalMatrix(hilbert + [hilbert[3]])
    rhs = list(range(9))
    assert solve_system(tall, rhs).inconsistent
    assert_same_result(solve_system(tall, rhs), oracle_rref(tall, rhs))


def test_rref_on_integer_rows_of_degenerate_shapes():
    # no rows: every column is free; with no coefficient column, the system of no
    # equations is solved by zero, and 0 = 3 is inconsistent
    assert rref(IntegerRows([], 2)).kernel == ({0: 1}, {1: 1})
    assert rref(IntegerRows([], 1)).kernel == ({0: 1},)
    assert rref(IntegerRows([{0: 3}], 1)).kernel == ()
    # an empty row is a zero row, and a column past every row's entries is free
    assert rref(IntegerRows([{}, {1: 2}], 3)) == RrefResult(rank=1, pivots=(1,), kernel=({0: 1}, {2: 1}))


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
        assert list(densify(vectors, ncols)) == list(oracle_rref(dense).kernel)
        assert vectors == list(rref(dense).kernel)


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


# ----------------------------------- the trial-division oracle of the eigenvalues


def oracle_integer_eigenvalues(matrix):
    """Try +-d for every divisor d of the lowest nonzero coefficient of the
    characteristic polynomial, cleared to ints, with 0 a root when a lower one
    vanishes: the trial division that the Sturm bisection replaced, kept as
    its oracle.  Its work grows with the square root of that coefficient."""
    coeffs = charpoly(matrix)
    valuation = next(k for k, c in enumerate(coeffs) if c)
    _, ints = clear_denominators(coeffs[valuation:])
    roots = {0} if valuation else set()
    constant = abs(ints[0])
    for d in range(1, math.isqrt(constant) + 1):
        if constant % d == 0:
            roots.update(c for c in (d, -d, constant // d, -constant // d) if uni_evaluate(ints, c) == 0)
    return sorted(roots)


NON_INTEGER_BLOCKS = (
    RationalMatrix([[0, 2], [1, 0]]),  # +-sqrt(2)
    RationalMatrix([[0, -1], [1, 0]]),  # +-i
    RationalMatrix([[1, 1], [1, 0]]),  # (1 +- sqrt(5)) / 2
    RationalMatrix([[Fraction(1, 2), 0], [1, Fraction(-3, 2)]]),  # 1/2 and -3/2
)


def block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(row) + [0] * (n - at - b.rows) for row in b.entries]
        at += b.rows
    return RationalMatrix(rows)


def seeded_eigenvalue_case(rng, kind):
    if kind == "int":
        # sparse entries make a good share of these singular
        n = rng.randint(1, 6)
        return RationalMatrix([[rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)])
    if kind == "fraction":
        n = rng.randint(1, 6)
        return RationalMatrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
    if kind == "spectrum":
        # a shifted block without integer eigenvalues beside integer ones,
        # zero and repeated among them, in 1 x 1 and Jordan blocks
        blocks = [rng.choice(NON_INTEGER_BLOCKS) + rng.randint(-3, 3) * RationalMatrix.identity(2)]
        size = rng.randint(2, 6)
        while sum(b.rows for b in blocks) < size:
            a = rng.randint(-2, 2)
            room = size - sum(b.rows for b in blocks)
            blocks.append(RationalMatrix([[a, 1], [0, a]]) if room > 1 and rng.random() < 0.4 else diag(a))
        rng.shuffle(blocks)
        g = block_diagonal(blocks)
        return conjugated(g, rng) if rng.random() < 0.5 else fraction_conjugated(g)
    # ad of a conjugated diagonal: spreads up to 10^4 at m = 2, small ones at m = 3
    d = diag(0, rng.randint(-10**4, 10**4)) if rng.random() < 0.5 else diag(*(rng.randint(-3, 3) for _ in range(3)))
    return ad_operator(conjugated(d, rng))


def test_integer_eigenvalues_match_the_trial_division_oracle_on_seeded_matrices():
    rng = random.Random(19)
    kinds = ("int", "fraction", "spectrum", "ad")
    seen = Counter()
    for index in range(320):
        kind = kinds[index % len(kinds)]
        matrix = seeded_eigenvalue_case(rng, kind)
        roots = integer_eigenvalues(matrix)
        assert roots == oracle_integer_eigenvalues(matrix), (kind, matrix)
        seen["none"] += not roots
        seen["zero"] += 0 in roots
        seen["nonzero"] += any(roots)
        seen["large"] += max(map(abs, roots), default=0) > 1000
    assert all(seen[key] for key in ("none", "zero", "nonzero", "large")), seen


def test_integer_eigenvalues_work_is_bounded_by_the_size_of_the_input():
    # trial division would run up to the square root of 10^24
    code = ("from logres import RationalMatrix, integer_eigenvalues; from logres.liealg import ad_operator; "
            "print(integer_eigenvalues(ad_operator(RationalMatrix([[0, 0], [0, 10**12]]))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                          cwd=Path(__file__).resolve().parents[1], env={**os.environ, "PYTHONPATH": "src"})
    assert done.stdout.strip() == "[-1000000000000, 0, 1000000000000]", done.stderr
