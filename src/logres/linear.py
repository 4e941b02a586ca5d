"""Exact linear algebra over the rationals.

RationalMatrix is a small immutable dense matrix of Fractions.  The row
reduction here, ``rref``, is the single exact solver behind every eigenspace,
kernel and linear-system computation in the package, and it returns a kernel:
a system A x = b is the kernel of [A | -b], read at its last column.  It is
sparse and fraction-free: each row is cleared of denominators once into a
dict of ints (``IntegerRows``), only the rows that hold a column meet its
pivot, and ``Fraction``s are built only at the end, as quotients by the pivot
entries.  ``block_kernel`` hands it a matrix given by sparse columns (the
moduli solve and the structure functions of a divisor, one bracket at a time),
and ``inverse`` hands it [A | I].  The characteristic
polynomial is likewise computed over ints, on B = D * A with D the lcm of A's
denominators (``scaled_charpoly``); ``integer_eigenvalues``, ``is_semisimple``
and the Jordan-Chevalley decomposition read it there, ``determinant`` reads
its constant coefficient, and ``poly_at`` is the one Horner evaluation at a matrix.
``integer_eigenvalues`` halves (-b, b], b = floor(largest absolute row sum) + 1
(Gershgorin), down to the unit intervals that hold a root by Sturm's theorem.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Sequence, Set, Tuple, Union

from .univariate import (as_fraction, clear_denominators, power, uni_derivative, uni_evaluate, uni_primitive,
                         uni_pseudo_divmod, uni_squarefree_part)

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
    """The rank, the increasing pivot columns, and a kernel basis in increasing
    free-column order.  Each kernel vector is a dict of its nonzero entries in
    increasing column order, ending at its free column, where it is 1."""

    rank: int
    pivots: Tuple[int, ...]
    kernel: Tuple[Dict[int, Fraction], ...]


@dataclass
class IntegerRows:
    """Sparse rows of Python ints, the form that ``rref`` eliminates on.

    Each row maps a column to its nonzero int.  ``rows`` and ``cols`` read as
    on a ``RationalMatrix``.  The rows are shared, not copied: ``rref``
    replaces rows of its own list and never writes into one.
    """

    entries: List[Dict[int, int]]
    cols: int

    @classmethod
    def cleared(cls, rows: Sequence[Union[Sequence, Dict]], cols: int) -> "IntegerRows":
        """Dense rows, or rows mapping columns to values, of ints and
        ``Fraction``s, each scaled by the lcm of its denominators and with its
        zeros dropped; that leaves the reduced row echelon form unchanged."""
        out = []
        for row in rows:
            items = list(row.items() if isinstance(row, dict) else enumerate(row))
            ints = clear_denominators([v for _, v in items])[1]
            out.append({j: n for (j, _), n in zip(items, ints) if n})
        return cls(out, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)


def rref(matrix: Union[RationalMatrix, IntegerRows]) -> RrefResult:
    """Reduced row echelon form: the rank, the pivot columns and a kernel basis.

    A system A x = b is read as the kernel of [A | -b]: it is consistent
    exactly when that last column is free, and then the last kernel vector is
    (x, 1) for a solution x.

    The elimination is fraction-free Gauss-Jordan over Python ints on sparse
    rows.  A ``RationalMatrix`` is first cleared row by row to
    ``IntegerRows``; callers whose rows are integral pass ``IntegerRows``
    directly.  The columns are taken in increasing order, and an index from
    each column to the rows that hold it, kept up to date, finds the rows to
    eliminate, so rows that share no column never meet.  The pivot of column
    c is the shortest row that holds c and is no pivot yet, the lowest index
    first (Markowitz 1957).  Its entry p in row r clears column c of row i by
    row_i <- p * row_i - f * row_r, and the new row is divided by the gcd of
    its entries, so that entries stay small.  The reduced row echelon form is
    unique, so the pivot choice changes no result.  Each pivot row ends as a
    multiple of its reduced row, and the ``Fraction``s of the result are the
    quotients by its pivot entry.
    """
    if isinstance(matrix, RationalMatrix):
        matrix = IntegerRows.cleared(matrix.entries, matrix.cols)
    work = list(matrix.entries)
    holders: Dict[int, Set[int]] = {}  # column -> the rows that hold it
    for i, row in enumerate(work):
        for c in row:
            holders.setdefault(c, set()).add(i)

    lead: Dict[int, int] = {}  # pivot row -> its column
    for c in sorted(holders):
        r = min((i for i in holders[c] if i not in lead), key=lambda i: (len(work[i]), i), default=None)
        if r is None:
            continue
        row_r, p = work[r], work[r][c]
        for i in holders[c] - {r}:
            row_i, f = work[i], work[i][c]
            row = {j: p * a for j, a in row_i.items()}
            for j, b in row_r.items():
                v = row.get(j, 0) - f * b
                if v:
                    row[j] = v
                    if j not in row_i:
                        holders[j].add(i)
                else:
                    del row[j]
                    holders[j].discard(i)
            content = math.gcd(*row.values())
            work[i] = {j: a // content for j, a in row.items()} if content > 1 else row
        lead[r] = c

    # a row that is no pivot ends as zero, and one that is holds no other pivot
    # column: in increasing pivot order, each adds its entries to the free columns' vectors
    one, pivots = Fraction(1), tuple(lead.values())
    pivot_set = set(pivots)
    kernel: Dict[int, Dict[int, Fraction]] = {free: {} for free in range(matrix.cols) if free not in pivot_set}
    for r, c in lead.items():
        p = work[r][c]
        for free, a in work[r].items():
            if free != c:
                kernel[free][c] = Fraction(-a, p)
    for free, vec in kernel.items():
        vec[free] = one
    return RrefResult(rank=len(pivots), pivots=pivots, kernel=tuple(kernel.values()))


def block_kernel(columns: Sequence[Mapping[Hashable, Union[int, Fraction]]]) -> List[Dict[int, Fraction]]:
    """Kernel basis of the matrix whose column j has the entries ``columns[j]``.

    Each column maps row keys to int or Fraction values.  The columns are
    transposed into one sparse row per row key for one ``rref`` call, which
    meets only rows that share a column, so the connected blocks are reduced
    apart without a pass to find them; the vectors are its kernel.
    """
    rows: Dict[Hashable, Dict[int, Union[int, Fraction]]] = {}
    for j, column in enumerate(columns):
        for key, value in column.items():
            rows.setdefault(key, {})[j] = value
    return list(rref(IntegerRows.cleared(list(rows.values()), len(columns))).kernel)


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    """A^-1 by one reduction of [A | I]: its pivots are 0..n-1 exactly when A
    is invertible, and column j of A^-1 is minus the first n entries of the
    kernel vector of free column n + j."""
    if not matrix.is_square():
        raise ValueError("only square matrices can be inverted")
    n = matrix.rows
    result = rref(IntegerRows.cleared([row + tuple(int(i == j) for j in range(n))
                                       for i, row in enumerate(matrix.entries)], 2 * n))
    if result.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix([[-vec.get(i, 0) for vec in result.kernel] for i in range(n)])


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


def charpoly(matrix: RationalMatrix) -> List[Fraction]:
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


def integer_eigenvalues(matrix: RationalMatrix) -> List[int]:
    """All distinct integer roots of the characteristic polynomial, sorted.

    With c_k and D from ``scaled_charpoly``, sum c_k D^k t^k has A's roots.
    The Sturm chain of its primitive squarefree part p is p, p' and the
    negated pseudo-remainders of the primitive remainder sequence.  With zeros
    dropped, the sign changes V along the chain count the roots of p in
    (a, b] as V(a) - V(b), so a unit interval (lo, hi] that holds a root
    holds the integer hi exactly when p(hi) = 0.
    """
    scale, _, coeffs = scaled_charpoly(matrix)
    chain = [uni_squarefree_part([c * scale ** k for k, c in enumerate(coeffs)])]
    remainder = uni_derivative(chain[0])
    while remainder:
        chain.append(uni_primitive(remainder))
        remainder = [-c for c in uni_pseudo_divmod(chain[-2], chain[-1])[1]]

    def variations(x: int) -> int:
        signs = [value > 0 for value in (uni_evaluate(poly, x) for poly in chain) if value]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def roots_in(lo: int, v_lo: int, hi: int, v_hi: int) -> List[int]:
        if v_lo == v_hi:
            return []
        if hi - lo == 1:
            return [hi] if uni_evaluate(chain[0], hi) == 0 else []
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        return roots_in(lo, v_lo, mid, v_mid) + roots_in(mid, v_mid, hi, v_hi)

    bound = math.floor(max(sum(map(abs, row)) for row in matrix.entries)) + 1
    return roots_in(-bound, variations(-bound), bound, variations(bound))
