"""Matrix Lie algebra tools over exact rationals: gl_m with the commutator.

Bracket convention.  The primitive operation everywhere in this package is
the plain commutator [X, Y]_c = XY - YX.  The right-invariant convention used
for frame fields makes constant connection values bracket with the opposite
sign; formulas at that interface are written out explicitly in
:mod:`logres.connections` rather than hidden behind a flag, and the
normal-form sign fixtures in the test suite pin the choice.

Jordan-Chevalley decomposition is computed by the Newton iteration on the
squarefree part of the characteristic polynomial, which stays inside Q[A] and
never needs eigenvalues; like ``is_semisimple``, it reads the integer one of
B = D * A from ``scaled_charpoly``, D the lcm of A's denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .linear import RationalMatrix, determinant, integer_eigenvalues, inverse, poly_at, rref, scaled_charpoly
from .univariate import uni_derivative, uni_squarefree_part


def commutator(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a * b - b * a


def ad_operator(a: RationalMatrix) -> RationalMatrix:
    """Matrix of X -> [a, X]_c on matrix units, ordered row-major.

    Unit E_{rc} corresponds to flat index r * m + c, so column j of the
    result is the flattened commutator [a, E_j]_c.
    """
    if not a.is_square():
        raise ValueError("ad of a non-square matrix")
    m = a.rows
    size = m * m
    cols: List[List[Fraction]] = []
    for s in range(m):
        for c in range(m):
            col = [Fraction(0)] * size
            for r in range(m):
                col[r * m + c] += a[r, s]
            for c2 in range(m):
                col[s * m + c2] -= a[c, c2]
            cols.append(col)
    return RationalMatrix(list(zip(*cols)))


def _kernel_matrices(operator: RationalMatrix, m: int) -> List[RationalMatrix]:
    """Kernel basis of an operator on row-major flattened m x m matrices, as matrices."""
    return [RationalMatrix([vec[i * m:(i + 1) * m] for i in range(m)]) for vec in rref(operator).kernel]


def centralizer_algebra(mats: Sequence[RationalMatrix], size: Optional[int] = None) -> Tuple[int, List[RationalMatrix]]:
    """Dimension and basis of {X : [X, M]_c = 0 for every M in mats}."""
    if mats:
        m = mats[0].rows
        if any(not mat.is_square() or mat.rows != m for mat in mats):
            raise ValueError("all matrices must be square and of equal size")
    elif size is None:
        raise ValueError("an empty family needs an explicit matrix size")
    else:
        m = size
    # the empty family constrains nothing: one zero row has all of gl_m as kernel
    stacked = [row for mat in mats for row in ad_operator(mat).entries] or [[0] * (m * m)]
    basis = _kernel_matrices(RationalMatrix(stacked), m)
    return len(basis), basis


def is_semisimple(a: RationalMatrix) -> bool:
    """True iff the minimal polynomial is squarefree, i.e. a is diagonalizable.

    Decided over ints on B = D * a, with D the lcm of a's denominators, which
    is semisimple exactly when a is: the primitive squarefree part of B's
    characteristic polynomial must vanish at B.
    """
    _, b, coeffs = scaled_charpoly(a)
    return not any(map(any, poly_at(b, uni_squarefree_part(coeffs))))


def is_nilpotent(a: RationalMatrix) -> bool:
    if not a.is_square():
        raise ValueError("nilpotency of a non-square matrix")
    return a.power(a.rows).is_zero()


def is_unipotent(a: RationalMatrix) -> bool:
    if not a.is_square():
        raise ValueError("unipotency of a non-square matrix")
    return (a - RationalMatrix.identity(a.rows)).power(a.rows).is_zero()


@dataclass(frozen=True)
class JCDecomposition:
    """Commuting semisimple plus nilpotent (or times unipotent) split."""

    semisimple: RationalMatrix
    other: RationalMatrix
    mode: str  # "additive" or "multiplicative"

    @property
    def nilpotent(self) -> RationalMatrix:
        if self.mode != "additive":
            raise AttributeError("nilpotent part only exists in additive mode")
        return self.other

    @property
    def unipotent(self) -> RationalMatrix:
        if self.mode != "multiplicative":
            raise AttributeError("unipotent part only exists in multiplicative mode")
        return self.other


def _additive_semisimple(a: RationalMatrix) -> RationalMatrix:
    # the decomposition is unique, so that of B = D * a is D times that of a
    scale, b, coeffs = scaled_charpoly(a)
    g = uni_squarefree_part(coeffs)
    g_prime = uni_derivative(g)
    x = b  # rows of ints until a Newton step is needed
    for _ in range(a.rows + 1):
        gx = poly_at(x, g)
        if not any(map(any, gx)):
            return Fraction(1, scale) * RationalMatrix(x)
        x = (RationalMatrix(x) - RationalMatrix(gx) * inverse(RationalMatrix(poly_at(x, g_prime)))).row_list()
    raise ArithmeticError("Newton iteration failed to converge; broken invariant")


def jordan_chevalley(a: RationalMatrix, mode: str = "additive") -> JCDecomposition:
    """Unique Jordan-Chevalley decomposition of a square rational matrix.

    Additive mode returns (S, N) with a = S + N; multiplicative mode needs an
    invertible input and returns (S, U) with a = S * U.  All defining
    invariants are verified before returning.
    """
    if mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown mode {mode!r}")
    if not a.is_square():
        raise ValueError("decomposition of a non-square matrix")
    s = _additive_semisimple(a)
    if mode == "additive":
        n = a - s
        decomposition = JCDecomposition(semisimple=s, other=n, mode=mode)
        _verify_additive(a, s, n)
        return decomposition
    if determinant(a) == 0:
        raise ValueError("multiplicative decomposition needs an invertible matrix")
    u = inverse(s) * a
    decomposition = JCDecomposition(semisimple=s, other=u, mode=mode)
    _verify_multiplicative(a, s, u)
    return decomposition


def _verify_additive(a: RationalMatrix, s: RationalMatrix, n: RationalMatrix) -> None:
    if not (s + n == a and commutator(s, n).is_zero() and is_nilpotent(n) and is_semisimple(s)):
        raise ArithmeticError("additive decomposition invariants failed; broken invariant")


def _verify_multiplicative(a: RationalMatrix, s: RationalMatrix, u: RationalMatrix) -> None:
    if not (s * u == a and commutator(s, u).is_zero() and is_unipotent(u) and is_semisimple(s)):
        raise ArithmeticError("multiplicative decomposition invariants failed; broken invariant")


def _nilpotent_series(x: RationalMatrix, coefficient) -> RationalMatrix:
    """Sum of coefficient(i) * x^i over i >= 1, up to the first zero power of the nilpotent x."""
    total, power = RationalMatrix.zeros(x.rows, x.rows), x
    for i in range(1, x.rows + 1):
        if power.is_zero():
            break
        total, power = total + coefficient(i) * power, power * x
    return total


def log_unipotent(u: RationalMatrix) -> RationalMatrix:
    """Logarithm of a unipotent matrix via the terminating nilpotent series."""
    if not is_unipotent(u):
        raise ValueError("logarithm is only defined here for unipotent matrices")
    return _nilpotent_series(u - RationalMatrix.identity(u.rows), lambda i: Fraction((-1) ** (i + 1), i))


def exp_nilpotent(n: RationalMatrix) -> RationalMatrix:
    """Exponential of a nilpotent matrix via the terminating series."""
    if not is_nilpotent(n):
        raise ValueError("exponential is only exact here for nilpotent matrices")
    return RationalMatrix.identity(n.rows) + _nilpotent_series(n, lambda i: Fraction(1, math.factorial(i)))


@dataclass(frozen=True)
class MonodromySplit:
    semisimple: RationalMatrix
    unipotent: RationalMatrix
    log_unipotent: RationalMatrix


def monodromy_split(m: RationalMatrix) -> MonodromySplit:
    """Multiplicative decomposition of an invertible matrix plus log of U."""
    decomposition = jordan_chevalley(m, mode="multiplicative")
    u = decomposition.unipotent
    return MonodromySplit(semisimple=decomposition.semisimple, unipotent=u, log_unipotent=log_unipotent(u))


@dataclass(frozen=True)
class ResidueData:
    """Commuting semisimple residue values for the toral frame directions.

    ``s_list`` holds one matrix per toral slot, ``positive_combination`` the
    integer combination of toral slots whose frame field is the grading Euler
    field, and ``chi`` (optional) one matrix per semisimple frame slot.
    """

    s_list: Tuple[RationalMatrix, ...]
    positive_combination: Tuple[int, ...]
    chi: Optional[Tuple[RationalMatrix, ...]] = None

    def __post_init__(self):
        if not self.s_list:
            raise ValueError("at least one toral residue matrix is required")
        if len(self.positive_combination) != len(self.s_list):
            raise ValueError("combination length must match the toral slot count")

    @property
    def k(self) -> int:
        return len(self.s_list)

    @property
    def matrix_size(self) -> int:
        return self.s_list[0].rows

    def grading_element(self) -> RationalMatrix:
        """The residue value on the distinguished positive generator."""
        m = self.matrix_size
        total = RationalMatrix.zeros(m, m)
        for coeff, s in zip(self.positive_combination, self.s_list):
            total = total + coeff * s
        return total

    @cached_property
    def grading_eigenspaces(self) -> Dict[int, Tuple[RationalMatrix, ...]]:
        """Each integer eigenvalue of ad of the grading element, in increasing
        order, mapped to an eigenmatrix basis; computed once and shared, so
        read-only, and like a divisor's cache no part of equality or hashing."""
        ad = ad_operator(self.grading_element())
        identity = RationalMatrix.identity(ad.rows)
        return {
            lam: tuple(_kernel_matrices(ad - lam * identity, self.matrix_size))
            for lam in integer_eigenvalues(ad)
        }


@dataclass(frozen=True)
class ResidueReport:
    ok: bool
    message: str = ""


def validate_residue(residue: ResidueData, s_constants: Optional[dict] = None) -> ResidueReport:
    """Check every structural invariant of a residue, reporting the first failure.

    ``s_constants`` maps a semisimple slot pair (i, j), i < j, to the constant
    coefficient vector of the frame fields' bracket over the semisimple slots.
    The chi values must realize the same constants under the bracket with the
    sign opposite to the plain commutator; this is the compatibility that
    makes the constant connection with those values flat.
    """
    m = residue.matrix_size
    # equal values pass or fail alike, so each distinct S is checked once,
    # under the first slot that carries it
    first = {}
    for idx, s in enumerate(residue.s_list):
        if s in first:
            continue
        if not s.is_square() or s.rows != m:
            return ResidueReport(False, f"S_{idx + 1} is not square of size {m}")
        if not is_semisimple(s):
            return ResidueReport(False, f"S_{idx + 1} is not semisimple")
        first[s] = idx
    distinct = list(first.items())
    for pos, (s, i) in enumerate(distinct):
        for t, j in distinct[pos + 1:]:
            if not commutator(s, t).is_zero():
                return ResidueReport(False, f"S_{i + 1} and S_{j + 1} do not commute")
    if residue.chi is not None:
        for idx, y in enumerate(residue.chi):
            if not y.is_square() or y.rows != m:
                return ResidueReport(False, f"chi_{idx + 1} is not square of size {m}")
        for s, i in distinct:
            for j, y in enumerate(residue.chi):
                if not commutator(s, y).is_zero():
                    return ResidueReport(False, f"S_{i + 1} does not centralize chi_{j + 1}")
        if s_constants is not None:
            count = len(residue.chi)
            for i in range(count):
                for j in range(i + 1, count):
                    expected = RationalMatrix.zeros(m, m)
                    for k, coeff in enumerate(s_constants.get((i, j), [0] * count)):
                        expected = expected + coeff * residue.chi[k]
                    # right-invariant fields bracket with the opposite sign, so the
                    # constant values chi realize c_ij^k through [chi_j, chi_i]_c
                    actual = commutator(residue.chi[j], residue.chi[i])
                    if not (actual - expected).is_zero():
                        return ResidueReport(False, f"chi does not respect the bracket of slots ({i + 1}, {j + 1})")
    return ResidueReport(True)
