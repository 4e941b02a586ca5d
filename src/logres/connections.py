"""Logarithmic connections in a frame, and their exact curvature.

A connection is stored by its component maps in the dual frame: one
polynomial matrix per frame element.  The curvature of the pair (i, j) is

    R_ij = V_i(w_j) - V_j(w_i) - sum_k c_ij^k w_k - [w_i, w_j]_c

with c_ij^k the frame structure functions and [,]_c the plain commutator.
The sign of the last term carries the right-invariant convention for frame
fields and is pinned by the normal-form fixtures in the test suite; flipping
it breaks the flatness of every assembled normal-form connection.

``curvature`` and ``is_flat`` share one kernel, which reads integer rows:
with D the lcm of every coefficient's denominator, W_k = D * w_k holds
integers, and each pair sums
D^2 * R_ij = D * (V_i(W_j) - V_j(W_i) - sum_k c_ij^k W_k) - [W_i, W_j] into
one dict per matrix entry, the field images read from ``on_monomial`` and
the commutator a row-by-row sparse product.  The zero test reads those
sums; a residual ``MatrixPolyMap`` (the sums over D^2) is built only for a
pair that is returned.  ``is_flat`` clears a connection's components into
such rows (``_cleared``); ``moduli.check_point`` assembles its point's rows
on integers itself and calls the rows-level entry ``_flatness``, and tests
each correction's nilpotency by ``_nilpotent``, an integer row-sparse m-th
power.  This module does not import ``moduli``, whose emission kernel
``_products`` these cross-checks test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .divisor import FreeDivisor, VectorFieldPoly
from .linear import RationalMatrix
from .polynomials import Monomial, WeightedPoly
from .univariate import as_scalar, power

_Scalar = Union[int, Fraction]
_Term = Tuple[int, Monomial, int]  # (column, monomial, integer coefficient) of one row of a cleared map
_Rows = Sequence[Sequence[_Term]]  # the rows of one cleared map


class MatrixPolyMap:
    """A square matrix of weighted polynomials: a polynomial map into gl_m.

    The public constructors (``MatrixPolyMap(...)``, ``zeros`` and
    ``from_constant``) check that the entries are square and in one ring.  The
    arithmetic below builds its results through ``_of``, which trusts them.
    """

    __slots__ = ("entries", "weights")

    def __init__(self, entries: Sequence[Sequence[WeightedPoly]]):
        data = tuple(tuple(row) for row in entries)
        if not data or any(len(row) != len(data) for row in data):
            raise ValueError("matrix polynomial maps must be square")
        weights = data[0][0].weights
        if any(p.weights != weights for row in data for p in row):
            raise ValueError("entries live in different polynomial rings")
        self.entries = data
        self.weights = weights

    @classmethod
    def _of(cls, entries: Sequence[Sequence[WeightedPoly]]) -> "MatrixPolyMap":
        """A map of square rows already in one ring, as the arithmetic here and
        ``SolutionSpace.basis`` build them: no checks."""
        out = object.__new__(cls)
        out.entries = tuple(map(tuple, entries))
        out.weights = out.entries[0][0].weights
        return out

    @classmethod
    def zeros(cls, m: int, weights: Sequence[int]) -> "MatrixPolyMap":
        zero = WeightedPoly.zero(weights)
        return cls([[zero] * m for _ in range(m)])

    @classmethod
    def from_constant(cls, matrix: RationalMatrix, weights: Sequence[int]) -> "MatrixPolyMap":
        return cls(
            [[WeightedPoly.constant(matrix[i, j], weights) for j in range(matrix.cols)] for i in range(matrix.rows)]
        )

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, key: Tuple[int, int]) -> WeightedPoly:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPolyMap):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _check_size(self, other: "MatrixPolyMap") -> None:
        if self.size != other.size:
            raise ValueError("matrix polynomial map sizes do not match")

    def __add__(self, other: "MatrixPolyMap") -> "MatrixPolyMap":
        self._check_size(other)
        return MatrixPolyMap._of(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "MatrixPolyMap") -> "MatrixPolyMap":
        self._check_size(other)
        return MatrixPolyMap._of(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "MatrixPolyMap":
        return MatrixPolyMap._of([[-a for a in row] for row in self.entries])

    def scale(self, factor) -> "MatrixPolyMap":
        """Multiply every entry by a polynomial or rational factor."""
        return MatrixPolyMap._of([[a * factor for a in row] for row in self.entries])

    def matmul(self, other: "MatrixPolyMap") -> "MatrixPolyMap":
        """The product, row by row: each output entry's terms are summed in one dict."""
        self._check_size(other)
        out = []
        for row in self.entries:
            sums: List[Dict[Monomial, Fraction]] = [{} for _ in row]
            for a, right in zip(row, other.entries):
                for m1, c1 in a.terms.items():
                    for entry, b in zip(sums, right):
                        for m2, c2 in b.terms.items():
                            key = tuple(map(add, m1, m2))
                            entry[key] = entry[key] + c1 * c2 if key in entry else c1 * c2
            out.append([WeightedPoly._of(self.weights, entry) for entry in sums])
        return MatrixPolyMap._of(out)

    def commutator(self, other: "MatrixPolyMap") -> "MatrixPolyMap":
        return self.matmul(other) - other.matmul(self)

    def power(self, k: int) -> "MatrixPolyMap":
        if k == 0:
            return MatrixPolyMap.from_constant(RationalMatrix.identity(self.size), self.weights)
        return power(self, k, MatrixPolyMap.matmul)

    def apply_field(self, field: VectorFieldPoly) -> "MatrixPolyMap":
        """Apply a vector field entrywise."""
        return MatrixPolyMap._of([[field.apply(p) for p in row] for row in self.entries])

    def evaluate(self, point: Sequence[Fraction]) -> RationalMatrix:
        return RationalMatrix([[p.evaluate(point) for p in row] for row in self.entries])

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(p.format() for p in row) for row in self.entries)
        return f"MatrixPolyMap([{body}])"


@dataclass(frozen=True)
class LogConnection:
    """Connection components in the dual frame, one matrix map per frame slot."""

    divisor: FreeDivisor
    components: Tuple[MatrixPolyMap, ...]

    def __post_init__(self):
        if len(self.components) != self.divisor.n:
            raise ValueError("need one component per frame element")
        m = self.components[0].size
        if any(c.size != m for c in self.components):
            raise ValueError("components have mixed matrix sizes")
        if any(c.weights != self.divisor.weights for c in self.components):
            raise ValueError("components live in the wrong polynomial ring")


def _cleared(conn: LogConnection) -> Tuple[int, Tuple[_Rows, ...]]:
    """D, the lcm of the denominators of every component coefficient, and the
    integer map W_k = D * w_k of each component, as the (column, monomial,
    coefficient) terms of each of its rows."""
    scale = lcm(*(coeff.denominator for comp in conn.components for row in comp.entries
                  for entry in row for coeff in entry.terms.values()))
    return scale, tuple(tuple(tuple((c, mono, coeff.numerator * (scale // coeff.denominator))
                                    for c, entry in enumerate(row) for mono, coeff in entry.terms.items())
                              for row in comp.entries)
                        for comp in conn.components)


def _add_product(sums: List[Dict[Monomial, _Scalar]], left: _Rows, right: _Rows, sign: int) -> None:
    """Add sign * left * right into the entry dicts sums[r * m + c], row by row:
    each row of the left factor scales the rows of the right one that its
    columns name (Gustavson, ACM TOMS 4, 1978)."""
    m = len(left)
    for r, row in enumerate(left):
        for s, mono_a, a in row:
            for c, mono_b, b in right[s]:
                entry = sums[r * m + c]
                key = tuple(map(add, mono_a, mono_b))
                entry[key] = entry.get(key, 0) + sign * a * b


def _pair_sums(d: FreeDivisor, scale: int, rows: Sequence[_Rows], i: int, j: int) -> List[Dict[Monomial, _Scalar]]:
    """D^2 * R_ij, one dict of monomial -> coefficient per entry r * m + c (zero sums kept).

    With W = D * w this is D * (V_i(W_j) - V_j(W_i) - sum_k c_ij^k W_k) - [W_i, W_j],
    summed in one pass: the field images come from ``on_monomial`` and the
    commutator is two ``_add_product`` calls.  A row may name one (column,
    monomial) more than once: every term is added in on its own.
    """
    m = len(rows[0])
    sums: List[Dict[Monomial, _Scalar]] = [{} for _ in range(m * m)]
    for field, k, sign in ((d.frame[i].field, j, scale), (d.frame[j].field, i, -scale)):
        for r, row in enumerate(rows[k]):
            for c, mono, a in row:
                entry = sums[r * m + c]
                for key, e in field.on_monomial(mono).items():
                    entry[key] = entry.get(key, 0) + sign * a * e
    for k, poly in enumerate(d.structure.coefficients(i, j)):
        if not poly:
            continue
        factors = [(shift, -scale * as_scalar(coeff)) for shift, coeff in poly.terms.items()]
        for r, row in enumerate(rows[k]):
            for c, mono, a in row:
                entry = sums[r * m + c]
                for shift, f in factors:
                    key = tuple(map(add, mono, shift))
                    entry[key] = entry.get(key, 0) + f * a
    _add_product(sums, rows[i], rows[j], -1)
    _add_product(sums, rows[j], rows[i], 1)
    return sums


def _divided(d: FreeDivisor, m: int, denominator: int, sums: List[Dict[Monomial, _Scalar]]) -> MatrixPolyMap:
    """The map whose entry r * m + c is that sum of integer terms over the denominator, zeros dropped:
    R_ij from its sums over D^2, or a connection component from its rows' sums over D."""
    entries = [WeightedPoly._of(d.weights, {mono: Fraction(v, denominator) for mono, v in entry.items()})
               for entry in sums]
    return MatrixPolyMap._of([entries[r * m:(r + 1) * m] for r in range(m)])


def curvature(conn: LogConnection) -> Dict[Tuple[int, int], MatrixPolyMap]:
    """Curvature components R(V_i, V_j) for every frame pair i < j."""
    d, m = conn.divisor, conn.components[0].size
    scale, rows = _cleared(conn)
    return {(i, j): _divided(d, m, scale * scale, _pair_sums(d, scale, rows, i, j))
            for i in range(d.n) for j in range(i + 1, d.n)}


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    witness: Optional[Tuple[int, int]]
    residual: Optional[MatrixPolyMap]


def is_flat(conn: LogConnection) -> FlatnessReport:
    """Exact flatness test; reports the first nonvanishing curvature pair."""
    return _flatness(conn.divisor, *_cleared(conn))


def _flatness(d: FreeDivisor, scale: int, rows: Sequence[_Rows]) -> FlatnessReport:
    """The flatness test of the connection whose components, times D, have these integer rows.

    Pairs are taken in (i, j) order and the test stops at the first curved
    one, so a non-flat connection does not pay for the rest; only that pair's
    residual is built.
    """
    for i in range(d.n):
        for j in range(i + 1, d.n):
            sums = _pair_sums(d, scale, rows, i, j)
            if any(v for entry in sums for v in entry.values()):
                return FlatnessReport(flat=False, witness=(i, j),
                                      residual=_divided(d, len(rows[0]), scale * scale, sums))
    return FlatnessReport(flat=True, witness=None, residual=None)


def _nilpotent(rows: _Rows) -> bool:
    """Whether the m x m map with these integer rows has a zero m-th power.

    The powers are row-sparse products (``_add_product``) taken by
    ``univariate.power``; a nonzero multiple of the map has the same verdict.
    """
    m = len(rows)

    def multiply(a: _Rows, b: _Rows) -> _Rows:
        sums: List[Dict[Monomial, _Scalar]] = [{} for _ in range(m * m)]
        _add_product(sums, a, b, 1)
        return tuple(tuple((c, mono, v) for c in range(m) for mono, v in sums[r * m + c].items() if v)
                     for r in range(m))

    return not any(power(rows, m, multiply))
