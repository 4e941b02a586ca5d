"""Logarithmic connections in a frame, and their exact curvature.

A connection is stored by its component maps in the dual frame: one
polynomial matrix per frame element.  The curvature of the pair (i, j) is

    R_ij = V_i(w_j) - V_j(w_i) - sum_k c_ij^k w_k - [w_i, w_j]_c

with c_ij^k the frame structure functions and [,]_c the plain commutator.
The sign of the last term carries the right-invariant convention for frame
fields and is pinned by the normal-form fixtures in the test suite; flipping
it breaks the flatness of every assembled normal-form connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .divisor import FreeDivisor, VectorFieldPoly
from .linear import RationalMatrix
from .polynomials import WeightedPoly
from .univariate import power


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
        self._check_size(other)
        zero = WeightedPoly._of(self.weights, {})
        out = [[zero] * self.size for _ in self.entries]
        for i, row in enumerate(self.entries):
            for s, a in enumerate(row):
                if a:
                    for j, b in enumerate(other.entries[s]):
                        if b:
                            out[i][j] = out[i][j] + a * b
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


def _pair_curvature(conn: LogConnection, i: int, j: int) -> MatrixPolyMap:
    d = conn.divisor
    comp = conn.components
    term = comp[j].apply_field(d.frame[i].field) - comp[i].apply_field(d.frame[j].field)
    for k, c in enumerate(d.structure.coefficients(i, j)):
        if not c.is_zero():
            term = term - comp[k].scale(c)
    return term - comp[i].commutator(comp[j])


def curvature(conn: LogConnection) -> Dict[Tuple[int, int], MatrixPolyMap]:
    """Curvature components R(V_i, V_j) for every frame pair i < j."""
    n = conn.divisor.n
    return {(i, j): _pair_curvature(conn, i, j) for i in range(n) for j in range(i + 1, n)}


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    witness: Optional[Tuple[int, int]]
    residual: Optional[MatrixPolyMap]


def is_flat(conn: LogConnection) -> FlatnessReport:
    """Exact flatness test; reports the first nonvanishing curvature pair.

    Pairs are taken in (i, j) order and the test stops at the first curved
    one, so a non-flat connection does not pay for the rest.
    """
    n = conn.divisor.n
    for i in range(n):
        for j in range(i + 1, n):
            component = _pair_curvature(conn, i, j)
            if not component.is_zero():
                return FlatnessReport(flat=False, witness=(i, j), residual=component)
    return FlatnessReport(flat=True, witness=None, residual=None)
