"""Exact linear algebra over the rationals.

RationalMatrix is a small immutable dense matrix of Fractions.  The row
reduction here, ``rref``, is the single exact solver behind every eigenspace,
kernel and linear-system computation in the package; ``block_kernel``
applies it to each connected block of a sparse matrix given by columns,
after dropping the columns that a row with one nonzero entry forces to zero, and
the structure functions of a divisor are solved with it one bracket at a
time.  It is fraction-free: each row is cleared of denominators once into
``IntegerRows`` and eliminated over Python ints, and ``Fraction``s are built
only at the end, as quotients by the pivot entries.  Callers that assemble
their own rows of ints hand ``IntegerRows`` to ``rref`` and never build a
``RationalMatrix``.  The characteristic polynomial is likewise computed
over ints, on the matrix scaled by the lcm of its denominators
(``scaled_charpoly``); ``determinant`` is read off its constant coefficient,
and ``poly_at`` is the one Horner evaluation of a polynomial at a matrix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .univariate import UniPoly, as_fraction, power, uni_evaluate

MAX_CHARPOLY_DIM = 400


class RationalMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        data = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrices must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self.entries = data

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: Tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_shape(other)
        return RationalMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_shape(other)
        return RationalMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError("inner dimensions do not match")
            return RationalMatrix(_matmul(self.entries, other.entries))
        scalar = as_fraction(other)
        return RationalMatrix([[a * scalar for a in row] for row in self.entries])

    def __rmul__(self, other) -> "RationalMatrix":
        scalar = as_fraction(other)
        return RationalMatrix([[a * scalar for a in row] for row in self.entries])

    def _check_shape(self, other: "RationalMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes do not match")

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.entries)))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def power(self, k: int) -> "RationalMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        return RationalMatrix.identity(self.rows) if k == 0 else power(self, k, operator.mul)

    def row_list(self) -> List[List[Fraction]]:
        return [list(row) for row in self.entries]

    def flatten(self) -> List[Fraction]:
        return [v for row in self.entries for v in row]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RationalMatrix([{body}])"


@dataclass(frozen=True)
class RrefResult:
    rank: int
    pivots: Tuple[int, ...]
    solution: Optional[Tuple[Fraction, ...]]
    inconsistent: bool
    kernel: Tuple[Tuple[Fraction, ...], ...]


def clear_denominators(values: Sequence[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """The lcm D of the values' denominators, and the integers D * v in order."""
    scale = math.lcm(*(v.denominator for v in values))
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class IntegerRows:
    """Dense rows of Python ints, the form that ``rref`` eliminates on.

    ``cols`` counts the coefficient columns; when ``augmented`` is set, each
    row has one more entry, its right-hand side.  ``rows`` and ``cols`` read
    as on a ``RationalMatrix``.  The rows are shared, not copied: ``rref``
    replaces rows of its own list and never writes into one.
    """

    __slots__ = ("entries", "cols", "augmented")

    def __init__(self, entries: List[List[int]], cols: int, augmented: bool = False):
        self.entries = entries
        self.cols = cols
        self.augmented = augmented

    @classmethod
    def cleared(cls, rows: Sequence[Sequence[Union[int, Fraction]]], cols: int,
                augmented: bool = False) -> "IntegerRows":
        """Rows of ints and ``Fraction``s, each scaled by the lcm of its
        denominators; that leaves the reduced row echelon form unchanged."""
        return cls([clear_denominators(row)[1] for row in rows], cols, augmented)

    @property
    def rows(self) -> int:
        return len(self.entries)


def rref(matrix: Union[RationalMatrix, IntegerRows], rhs: Optional[Sequence[Fraction]] = None) -> RrefResult:
    """Reduced row echelon form with optional right-hand side.

    When ``rhs`` is given, or ``matrix`` is augmented ``IntegerRows``, reports
    a particular solution or flags the system as inconsistent (a zero row
    equated to a nonzero value).  The kernel basis always spans the nullspace
    of the coefficient columns; free columns are parameterized in increasing
    column order.

    The elimination is fraction-free Gauss-Jordan over Python ints.  A
    ``RationalMatrix`` (with its ``rhs`` entry as a last column) is first
    cleared row by row to ``IntegerRows``; callers whose rows are integral
    pass ``IntegerRows`` directly.  A pivot p in row r clears column c of row
    i by row_i <- p * row_i - f * row_r, and the new row is divided by the gcd
    of its entries, so that entries stay small.  Row i ends as a multiple of
    reduced row i, and the ``Fraction``s of the result are the quotients by
    its pivot entry.
    """
    if isinstance(matrix, RationalMatrix):
        if rhs is None:
            matrix = IntegerRows.cleared(matrix.entries, matrix.cols)
        else:
            if len(rhs) != matrix.rows:
                raise ValueError("right-hand side length does not match row count")
            matrix = IntegerRows.cleared([row + (as_fraction(v),) for row, v in zip(matrix.entries, rhs)],
                                         matrix.cols, augmented=True)
    elif rhs is not None:
        raise ValueError("integer rows carry their right-hand side as an augmented column")
    work, rows, cols = list(matrix.entries), matrix.rows, matrix.cols

    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        p = row_r[c]
        for i in range(rows):
            f = work[i][c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(work[i], row_r)]
                content = math.gcd(*row)
                work[i] = [a // content for a in row] if content > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break

    rank = len(pivots)
    zero, one = Fraction(0), Fraction(1)
    inconsistent = False
    solution: Optional[Tuple[Fraction, ...]] = None
    if matrix.augmented:
        inconsistent = any(work[i][cols] for i in range(rank, rows))
        if not inconsistent:
            sol = [zero] * cols
            for i, c in enumerate(pivots):
                if work[i][cols]:
                    sol[c] = Fraction(work[i][cols], work[i][c])
            solution = tuple(sol)

    pivot_set = set(pivots)
    kernel: List[Tuple[Fraction, ...]] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [zero] * cols
        v[free] = one
        for i, c in enumerate(pivots):
            if work[i][free]:
                v[c] = Fraction(-work[i][free], work[i][c])
        kernel.append(tuple(v))

    return RrefResult(
        rank=rank,
        pivots=tuple(pivots),
        solution=solution,
        inconsistent=inconsistent,
        kernel=tuple(kernel),
    )


def block_kernel(columns: Sequence[Mapping[Hashable, Union[int, Fraction]]]) -> List[Dict[int, Fraction]]:
    """Kernel basis of the matrix whose column j has the entries ``columns[j]``.

    Each column maps row keys to int or Fraction values.  A presolve first
    drops forced-zero columns: while some row key has a nonzero entry in
    exactly one live column, that column is dropped, and its other keys lose a
    holder.  Two live columns are connected when they share a row key, and
    every connected block is row-reduced on its own by ``rref``.  The result
    is ``rref(dense).kernel`` exactly: the same vectors, in increasing order
    of their free column.  Each vector is returned as its nonzero entries, in
    increasing column order.

    Why the presolve changes nothing: if a key is held by no live column but
    j, then x_j = 0 in every kernel vector, and column j is in the span of no
    set of other live columns, so j is a pivot of every reduction that holds
    it.  No other column's span test can use column j either, so dropping j
    keeps every other column pivot or free as it was, and each free column's
    kernel vector (1 at itself, 0 at the other free columns) keeps its
    entries; by induction this holds for the whole cascade.  The reduced form
    of a block-diagonal matrix is made of the reduced forms of its blocks.
    """
    # per row key, how many live columns hold a nonzero entry there and the
    # sum of their indices, which is the index of the holder once the count is 1
    count: Dict[Hashable, int] = {}
    total: Dict[Hashable, int] = {}
    for j, column in enumerate(columns):
        for key, value in column.items():
            if value:
                count[key] = count.get(key, 0) + 1
                total[key] = total.get(key, 0) + j
    live = [True] * len(columns)
    singles = [key for key, n in count.items() if n == 1]
    while singles:
        key = singles.pop()
        if count[key] != 1:
            continue  # its holder was dropped through another key
        j = total[key]
        live[j] = False
        for other, value in columns[j].items():
            if value:
                count[other] -= 1
                total[other] -= j
                if count[other] == 1:
                    singles.append(other)

    parent = list(range(len(columns)))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    owner: Dict[Hashable, int] = {}
    for j, column in enumerate(columns):
        if not live[j]:
            continue
        for key in column:
            first = owner.setdefault(key, j)
            a, b = root(first), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: Dict[int, List[int]] = {}
    for j in range(len(columns)):
        if live[j]:
            blocks.setdefault(root(j), []).append(j)

    kernel: List[Tuple[int, Dict[int, Fraction]]] = []
    for block in blocks.values():
        row_of: Dict[Hashable, int] = {}
        for j in block:
            for key in columns[j]:
                row_of.setdefault(key, len(row_of))
        if not row_of:
            # a column without entries is a zero column: its own block and free
            kernel.append((block[0], {block[0]: Fraction(1)}))
            continue
        rows = [[0] * len(block) for _ in row_of]
        for pos, j in enumerate(block):
            for key, value in columns[j].items():
                rows[row_of[key]][pos] = value
        result = rref(IntegerRows.cleared(rows, len(block)))
        pivots = set(result.pivots)
        free = [pos for pos in range(len(block)) if pos not in pivots]
        for pos, vec in zip(free, result.kernel):
            kernel.append((block[pos], {block[q]: v for q, v in enumerate(vec) if v}))
    kernel.sort(key=lambda item: item[0])
    return [vec for _, vec in kernel]


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    if not matrix.is_square():
        raise ValueError("only square matrices can be inverted")
    n = matrix.rows
    cols: List[List[Fraction]] = []
    for j in range(n):
        rhs = [Fraction(int(i == j)) for i in range(n)]
        result = rref(matrix, rhs)
        if result.rank < n or result.solution is None:
            raise ValueError("matrix is singular")
        cols.append(list(result.solution))
    return RationalMatrix(list(zip(*cols)))


def _matmul(a: List[List], b: List[List]) -> List[List]:
    """The product of two matrices given by rows, of ints or ``Fraction``s."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def scaled_charpoly(matrix: RationalMatrix) -> Tuple[int, List[List[int]], List[int]]:
    """D, the integer matrix B = D * A, and the coefficients of det(t*I - B).

    D is the lcm of the denominators of A's entries.  The coefficients are
    integers, low degree first, monic of degree n, computed by the
    Faddeev-LeVerrier recursion over ints: every trace it divides by k is a
    multiple of k, and a remainder is a broken invariant.  Matrices larger
    than MAX_CHARPOLY_DIM are rejected; this library targets desk-scale exact
    computation, not bulk numerics.
    """
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.rows
    if n > MAX_CHARPOLY_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported bound {MAX_CHARPOLY_DIM}")
    scale, flat = clear_denominators(matrix.flatten())
    b = [flat[i * n:(i + 1) * n] for i in range(n)]
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = _matmul(b, m)
        c, remainder = divmod(-sum(m[i][i] for i in range(n)), k)
        if remainder:
            raise ArithmeticError("Faddeev-LeVerrier trace is not a multiple of k; broken invariant")
        coeffs[n - k] = c
    return scale, b, coeffs


def charpoly(matrix: RationalMatrix) -> UniPoly:
    """Coefficients of det(t*I - A), low degree first, monic of degree n.

    With D and B = D * A from ``scaled_charpoly``, the coefficient of t^k is
    that of B divided by D^(n-k).
    """
    scale, _, coeffs = scaled_charpoly(matrix)
    n = len(coeffs) - 1
    return [Fraction(c, scale ** (n - k)) for k, c in enumerate(coeffs)]


def determinant(matrix: RationalMatrix) -> Fraction:
    """det(A) = (-1)^n times the constant coefficient of det(t*I - A)."""
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    constant = charpoly(matrix)[0]
    return -constant if matrix.rows % 2 else constant


def poly_at(rows: List[List[Union[int, Fraction]]], poly: Sequence[Union[int, Fraction]]) -> List[List]:
    """Evaluate a polynomial, low degree first, at a square matrix given by
    rows of ints or ``Fraction``s (Horner)."""
    n = len(rows)
    acc = [[0] * n for _ in range(n)]
    for coeff in reversed(poly):
        acc = _matmul(acc, rows)
        for i in range(n):
            acc[i][i] += coeff
    return acc


def _integer_divisors(value: int) -> List[int]:
    value = abs(value)
    small, large = [], []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return small + large[::-1]


def integer_eigenvalues(matrix: RationalMatrix) -> List[int]:
    """All distinct integer roots of the characteristic polynomial, sorted."""
    coeffs = charpoly(matrix)
    valuation = 0
    while valuation < len(coeffs) and coeffs[valuation] == 0:
        valuation += 1
    if valuation >= len(coeffs):
        raise ArithmeticError("characteristic polynomial vanished identically")
    _, ints = clear_denominators(coeffs[valuation:])
    roots = set()
    if valuation > 0:
        roots.add(0)
    constant = ints[0]
    for d in _integer_divisors(constant):
        for candidate in (d, -d):
            if uni_evaluate([Fraction(v) for v in ints], Fraction(candidate)) == 0:
                roots.add(candidate)
    return sorted(roots)
