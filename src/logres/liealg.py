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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .linear import (IntegerRows, RationalMatrix, determinant, integer_eigenvalues, inverse, poly_at, rref,
                     scaled_charpoly)
from .univariate import as_scalar, clear_denominators, uni_derivative, uni_squarefree_part


def commutator(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a * b - b * a


def ad_operator(a: RationalMatrix) -> RationalMatrix:
    """Matrix of X -> [a, X]_c on matrix units, ordered row-major.

    Unit E_{rc} corresponds to flat index r * m + c, so column j of the
    result is the flattened commutator [a, E_j]_c: entry (r*m + c, s*m + t)
    is a[r, s] * [c = t] - [r = s] * a[t, c], the Kronecker form
    a (x) I - I (x) a^T.
    """
    if not a.is_square():
        raise ValueError("ad of a non-square matrix")
    m = a.rows
    return RationalMatrix([[a[r, s] * (c == t) - (r == s) * a[t, c] for s in range(m) for t in range(m)]
                           for r in range(m) for c in range(m)])


def _kernel_matrices(rows: Sequence[Sequence[Fraction]], m: int) -> List[RationalMatrix]:
    """Kernel basis of the rows of an operator on row-major flattened m x m matrices, as matrices."""
    kernel = rref(IntegerRows.cleared(rows, m * m)).kernel
    return [RationalMatrix([[vec.get(i * m + j, 0) for j in range(m)] for i in range(m)]) for vec in kernel]


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


def log_unipotent(u: RationalMatrix) -> RationalMatrix:
    """Logarithm of a unipotent matrix: the sum of (-1)^(i+1) x^i / i over
    i >= 1, x = u - 1, which stops at the first zero power of x."""
    if not is_unipotent(u):
        raise ValueError("logarithm is only defined here for unipotent matrices")
    x = u - RationalMatrix.identity(u.rows)
    total, power = RationalMatrix.zeros(u.rows, u.rows), x
    for i in range(1, u.rows + 1):
        if power.is_zero():
            break
        total, power = total + Fraction((-1) ** (i + 1), i) * power, power * x
    return total


@dataclass(frozen=True)
class ResidueData:
    """Commuting semisimple residue values for the toral frame directions.

    ``s_list`` holds one matrix per toral slot, ``positive_combination`` the
    integer combination of toral slots whose frame field is the grading Euler
    field, and ``chi`` (optional) one matrix per semisimple frame slot.
    Its cached facts are shared, read-only, and outside equality and hashing.
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

    @property
    def values(self) -> Tuple[RationalMatrix, ...]:
        return tuple(self.s_list) + tuple(self.chi or ())

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
        order, mapped to an eigenmatrix basis."""
        ad = ad_operator(self.grading_element())
        return {
            lam: tuple(_kernel_matrices([row[:i] + (row[i] - lam,) + row[i + 1:] for i, row in enumerate(ad.entries)],
                                        self.matrix_size))
            for lam in integer_eigenvalues(ad)
        }

    @cached_property
    def value_classes(self) -> Tuple[int, ...]:
        """For each residue value, S first, then chi, the position of the first value equal to it."""
        first: Dict[RationalMatrix, int] = {}
        return tuple(first.setdefault(value, k) for k, value in enumerate(self.values))

    @cached_property
    def grading_brackets(self) -> Dict[int, Tuple[Tuple[tuple, Tuple[tuple, ...]], ...]]:
        """Per eigenvalue of ``grading_eigenspaces``, per eigenmatrix M: the row-major entries of M
        and, for each of ``values`` C_k, of [C_k, M]_c, integral ones as ints; each bracket is
        computed once per distinct value and shared by the equal ones."""
        values, classes = self.values, self.value_classes
        out: Dict[int, tuple] = {}
        for lam, basis in self.grading_eigenspaces.items():
            out[lam] = ()
            for mat in basis:
                brackets = {k: tuple(map(as_scalar, commutator(values[k], mat).flatten())) for k in set(classes)}
                out[lam] += ((tuple(map(as_scalar, mat.flatten())), tuple(brackets[k] for k in classes)),)
        return out

    @cached_property
    def bracket_spectra(self) -> Dict[int, Dict[int, FrozenSet[Fraction]]]:
        """Per eigenvalue of ``grading_eigenspaces``, per value class (a position ``value_classes``
        names), the rational eigenvalues of ad C_k on that eigenspace.  Each eigenmatrix is an ``rref``
        kernel vector: 1 at its last nonzero entry, where every other one is 0, so row i of the
        restriction R of ad C_k holds the brackets' entries at that entry of eigenmatrix i.  With D the
        lcm of R's denominators, D * R has a monic integer characteristic polynomial, whose rational
        roots are integers."""
        out: Dict[int, Dict[int, FrozenSet[Fraction]]] = {}
        for lam, pairs in self.grading_brackets.items():
            ends = [max(i for i, v in enumerate(eig) if v) for eig, _ in pairs]
            out[lam] = {}
            for k in set(self.value_classes):
                restriction = RationalMatrix([[brackets[k][end] for _, brackets in pairs] for end in ends])
                scale = clear_denominators(restriction.flatten())[0]
                out[lam][k] = frozenset(Fraction(e, scale) for e in integer_eigenvalues(scale * restriction))
        return out

    @cached_property
    def weight_form(self) -> Optional[Tuple[RationalMatrix, ResidueData]]:
        """P and the gauged residue P^-1 (S, chi) P when some S_i is not diagonal and every S_i is
        diagonalizable over Q, else None.

        Each rational eigenvalue of S_i is ``integer_eigenvalues(D * S_i) / D``, D the lcm of its
        denominators.  The joint eigenspaces are refined one distinct S_i at a time, each the ``rref``
        kernel of the stacked rows of S_j - lambda_j, and they fill Q^m exactly when the S_i are
        simultaneously diagonalizable over Q.  Their kernel vectors are the columns of P, ordered by the
        grading element's eigenvalue sum_i c_i lambda_i, then by (lambda_1, ..., lambda_k), then in
        kernel order; so P^-1 S_i P is diagonal, and a conjugate of a diagonal residue whose grading
        element has increasing entries is gauged back to that residue.
        """
        m, classes = self.matrix_size, self.value_classes[:self.k]
        if all(not v for s in self.s_list for i, row in enumerate(s.entries) for j, v in enumerate(row) if i != j):
            return None
        distinct = sorted(set(classes))
        blocks = [((), [], ())]  # per joint eigenspace: the distinct S's eigenvalues, the stacked rows, the kernel
        for k in distinct:
            s = self.s_list[k]
            scale = clear_denominators(s.flatten())[0]
            eigenvalues = [Fraction(e, scale) for e in integer_eigenvalues(scale * s)]
            refined = []
            for lams, rows, _ in blocks:
                for lam in eigenvalues:
                    more = rows + [row[:i] + (row[i] - lam,) + row[i + 1:] for i, row in enumerate(s.entries)]
                    kernel = rref(IntegerRows.cleared(more, m)).kernel
                    if kernel:
                        refined.append((lams + (lam,), more, kernel))
            blocks = refined
        if sum(len(kernel) for _, _, kernel in blocks) != m:
            return None
        columns = []  # ((grading eigenvalue, eigenvalue of each S_i), kernel vector)
        for lams, _, kernel in blocks:
            eigenvalues = tuple(lams[distinct.index(c)] for c in classes)
            grading = sum(c * e for c, e in zip(self.positive_combination, eigenvalues))
            columns += [((grading, eigenvalues), vec) for vec in kernel]
        columns.sort(key=lambda column: column[0])  # stable, so each block keeps its kernel order
        p = RationalMatrix([[vec.get(r, 0) for _, vec in columns] for r in range(m)])
        p_inv = inverse(p)
        s_list = tuple(RationalMatrix([[key[1][i] if r == c else 0 for c in range(m)]
                                       for r, (key, _) in enumerate(columns)]) for i in range(self.k))
        chi = tuple(p_inv * y * p for y in self.chi) if self.chi is not None else None
        return p, ResidueData(s_list=s_list, positive_combination=self.positive_combination, chi=chi)

    @cached_property
    def validity(self) -> ResidueReport:
        """The verdict of ``validate_residue`` short of the chi constants."""
        m = self.matrix_size
        distinct = [(s, i) for i, s in enumerate(self.s_list) if self.value_classes[i] == i]
        for s, i in distinct:
            if not s.is_square() or s.rows != m:
                return ResidueReport(False, f"S_{i + 1} is not square of size {m}")
            if not is_semisimple(s):
                return ResidueReport(False, f"S_{i + 1} is not semisimple")
        for pos, (s, i) in enumerate(distinct):
            for t, j in distinct[pos + 1:]:
                if not commutator(s, t).is_zero():
                    return ResidueReport(False, f"S_{i + 1} and S_{j + 1} do not commute")
        for idx, y in enumerate(self.chi or ()):
            if not y.is_square() or y.rows != m:
                return ResidueReport(False, f"chi_{idx + 1} is not square of size {m}")
        for s, i in distinct:
            for j, y in enumerate(self.chi or ()):
                if not commutator(s, y).is_zero():
                    return ResidueReport(False, f"S_{i + 1} does not centralize chi_{j + 1}")
        return ResidueReport(True)


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
    report = residue.validity
    if not report.ok or residue.chi is None or s_constants is None:
        return report
    m, count = residue.matrix_size, len(residue.chi)
    for i in range(count):
        for j in range(i + 1, count):
            coefficients = s_constants.get((i, j), [0] * count)
            expected = sum((coeff * y for coeff, y in zip(coefficients, residue.chi)), RationalMatrix.zeros(m, m))
            # right-invariant fields bracket with the opposite sign, so the
            # constant values chi realize c_ij^k through [chi_j, chi_i]_c
            if not (commutator(residue.chi[j], residue.chi[i]) - expected).is_zero():
                return ResidueReport(False, f"chi does not respect the bracket of slots ({i + 1}, {j + 1})")
    return report
