"""Exact linear algebra over the rationals.

RationalMatrix is a small immutable dense matrix of Fractions.  The row
reduction here is the single exact solver behind every eigenspace, kernel and
linear-system computation in the package; ``block_kernel`` applies it to each
connected block of a sparse matrix given by columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .univariate import UniPoly, as_fraction, power, uni_evaluate, uni_trim

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

    @classmethod
    def diagonal(cls, values: Sequence[Fraction]) -> "RationalMatrix":
        n = len(values)
        return cls([[as_fraction(values[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)])

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
            cols = list(zip(*other.entries))
            return RationalMatrix(
                [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in self.entries]
            )
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


def rref(matrix: RationalMatrix, rhs: Optional[Sequence[Fraction]] = None) -> RrefResult:
    """Reduced row echelon form with optional right-hand side.

    When ``rhs`` is given, reports a particular solution or flags the system
    as inconsistent (a zero row equated to a nonzero value).  The kernel basis
    always spans the nullspace of ``matrix``; free columns are parameterized
    in increasing column order.
    """
    rows, cols = matrix.rows, matrix.cols
    work = matrix.row_list()
    vec = [as_fraction(v) for v in rhs] if rhs is not None else None
    if vec is not None and len(vec) != rows:
        raise ValueError("right-hand side length does not match row count")

    pivots: List[int] = []
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
    solution: Optional[Tuple[Fraction, ...]] = None
    if vec is not None:
        inconsistent = any(vec[i] != 0 for i in range(rank, rows))
        if not inconsistent:
            sol = [Fraction(0)] * cols
            for i, c in enumerate(pivots):
                sol[c] = vec[i]
            solution = tuple(sol)

    free_cols = [c for c in range(cols) if c not in pivots]
    kernel: List[Tuple[Fraction, ...]] = []
    for free in free_cols:
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -work[i][free]
        kernel.append(tuple(v))

    return RrefResult(
        rank=rank,
        pivots=tuple(pivots),
        solution=solution,
        inconsistent=inconsistent,
        kernel=tuple(kernel),
    )


def block_kernel(columns: Sequence[Mapping[Hashable, Fraction]]) -> List[Dict[int, Fraction]]:
    """Kernel basis of the matrix whose column j has the entries ``columns[j]``.

    Each column maps row keys to values.  Two columns are connected when they
    share a row key, and every connected block is row-reduced on its own by
    ``rref``.  The reduced form of a block-diagonal matrix is made of the
    reduced forms of its blocks, so the result is ``rref(dense).kernel``
    exactly: the same vectors, in increasing order of their free column.  Each
    vector is returned as its nonzero entries, in increasing column order.
    """
    parent = list(range(len(columns)))

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    owner: Dict[Hashable, int] = {}
    for j, column in enumerate(columns):
        for key in column:
            first = owner.setdefault(key, j)
            a, b = root(first), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: Dict[int, List[int]] = {}
    for j in range(len(columns)):
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
        rows = [[Fraction(0)] * len(block) for _ in row_of]
        for pos, j in enumerate(block):
            for key, value in columns[j].items():
                rows[row_of[key]][pos] = value
        result = rref(RationalMatrix(rows))
        pivots = set(result.pivots)
        free = [pos for pos in range(len(block)) if pos not in pivots]
        for pos, vec in zip(free, result.kernel):
            kernel.append((block[pos], {block[q]: v for q, v in enumerate(vec) if v}))
    kernel.sort(key=lambda item: item[0])
    return [vec for _, vec in kernel]


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
    """A particular solution of matrix * x = rhs, or None if inconsistent."""
    result = rref(matrix, rhs)
    return None if result.inconsistent else result.solution


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


def determinant(matrix: RationalMatrix) -> Fraction:
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    work = matrix.row_list()
    n = matrix.rows
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            det = -det
        det *= work[c][c]
        inv = 1 / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                factor = work[i][c] * inv
                work[i] = [a - factor * b for a, b in zip(work[i], work[c])]
    return det


def charpoly(matrix: RationalMatrix) -> UniPoly:
    """Coefficients of det(t*I - A), low degree first, monic of degree n.

    Computed by the Faddeev-LeVerrier recursion, entirely over Q.  Matrices
    larger than MAX_CHARPOLY_DIM are rejected; this library targets desk-scale
    exact computation, not bulk numerics.
    """
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.rows
    if n > MAX_CHARPOLY_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported bound {MAX_CHARPOLY_DIM}")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = RationalMatrix.zeros(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = matrix * (m + c * RationalMatrix.identity(n))
        c = -m.trace() / k
        coeffs[n - k] = c
    return coeffs


def charpoly_at(matrix: RationalMatrix, poly: Sequence[Fraction]) -> RationalMatrix:
    """Evaluate a univariate polynomial at a square matrix (Horner)."""
    n = matrix.rows
    acc = RationalMatrix.zeros(n, n)
    for coeff in reversed(uni_trim(poly)):
        acc = acc * matrix + coeff * RationalMatrix.identity(n)
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
    shifted = coeffs[valuation:]
    denominator_lcm = math.lcm(*(c.denominator for c in shifted))
    ints = [int(c * denominator_lcm) for c in shifted]
    roots = set()
    if valuation > 0:
        roots.add(0)
    constant = ints[0]
    for d in _integer_divisors(constant):
        for candidate in (d, -d):
            if uni_evaluate([Fraction(v) for v in ints], Fraction(candidate)) == 0:
                roots.add(candidate)
    return sorted(roots)
