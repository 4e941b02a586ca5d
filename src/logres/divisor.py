"""Weighted-homogeneous free divisors with a chosen logarithmic frame.

A divisor is the data of a reduced defining polynomial f, positive variable
weights (fixing the Euler field E), and a frame of n polynomial vector fields
tangent to the hypersurface, annotated as toral, semisimple, or graded
("w" kind, the non-constant directions).  Construction checks every grading:
each frame field is E-homogeneous of its grade, 0 for toral and semisimple
fields.  The structure functions c_ij^k with [V_i, V_j] = sum_k c_ij^k V_k
are then homogeneous of known degrees and are found by one exact linear solve
per bracket, so the moduli path computes no determinant or adjugate.  The
determinant test of the frame coefficient matrix (``verify_saito``)
certifies that the frame is a basis of the logarithmic tangent sheaf, and
the adjugate gives the dual forms; both read one table of polynomial minors.
A ``FreeDivisor`` runs each analysis once, on first use, and keeps the result
in a cached property (``determinant``, ``adjugate``, ``structure``,
``constants``, ``dual_forms``, ``pairings``); the module-level functions do
the computing.

``VectorFieldPoly.on_monomial`` is the one field-application kernel: it
returns the terms of a field applied to a single monomial, read from the
coefficients' terms, which each field converts once to hold integral
coefficients as ints.  ``VectorFieldPoly.apply`` sums it over a
polynomial's terms, ``bracket`` over the terms of both fields' coefficients,
and the solve and emission in ``moduli`` call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .linear import IntegerRows, RationalMatrix, inverse, rref
from .polynomials import (
    InexactDivisionError,
    Monomial,
    WeightedPoly,
    WeightMismatchError,
    exact_divide,
    monomials_of_degree,
    squarefree_probable,
)

TORAL = "toral"
SEMISIMPLE = "semisimple"
WTYPE = "w"


class DivisorError(ValueError):
    """Raised for structurally invalid divisor data."""


@dataclass(frozen=True)
class VectorFieldPoly:
    """A polynomial vector field sum_i coefficients[i] * d/dz_i."""

    coefficients: Tuple[WeightedPoly, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise DivisorError("a vector field needs at least one coefficient")
        weights = self.coefficients[0].weights
        if any(c.weights != weights for c in self.coefficients):
            raise DivisorError("vector field coefficients live in different rings")
        if len(self.coefficients) != len(weights):
            raise DivisorError("coefficient count must equal the variable count")

    @property
    def weights(self) -> Tuple[int, ...]:
        return self.coefficients[0].weights

    @cached_property
    def _integer_terms(self) -> Tuple[Tuple[Tuple[Monomial, Union[int, Fraction]], ...], ...]:
        """Each coefficient's (monomial, coefficient) terms, an integral
        coefficient as an int; derived once and, like a divisor's caches, no
        part of equality or hashing."""
        return tuple(tuple((mono, c.numerator if c.denominator == 1 else c) for mono, c in coeff.terms.items())
                     for coeff in self.coefficients)

    def on_monomial(self, mono: Monomial) -> Dict[Monomial, Union[int, Fraction]]:
        """The terms of this field applied to z^mono, sum_j mono_j * c_j * z^(mono - e_j).

        A coefficient is an int when it is integral, so products with other
        ints skip ``Fraction``'s gcd work.
        """
        out: Dict[Monomial, Union[int, Fraction]] = {}
        for j, terms in enumerate(self._integer_terms):
            e = mono[j]
            if not e:
                continue
            lowered = mono[:j] + (e - 1,) + mono[j + 1:]
            for term, c in terms:
                image = tuple(map(add, term, lowered))
                out[image] = out[image] + e * c if image in out else e * c
        return {image: c for image, c in out.items() if c}

    def apply(self, p: WeightedPoly) -> WeightedPoly:
        if p.weights != self.weights:
            raise WeightMismatchError(f"weight vectors differ: {self.weights} vs {p.weights}")
        total: Dict[Monomial, Fraction] = {}
        for mono, coeff in p.terms.items():
            for image, c in self.on_monomial(mono).items():
                total[image] = total[image] + coeff * c if image in total else coeff * c
        return WeightedPoly(self.weights, total)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    def __add__(self, other: "VectorFieldPoly") -> "VectorFieldPoly":
        return VectorFieldPoly(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "VectorFieldPoly") -> "VectorFieldPoly":
        return VectorFieldPoly(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def scale(self, factor) -> "VectorFieldPoly":
        return VectorFieldPoly(tuple(c * factor for c in self.coefficients))


def bracket(v: VectorFieldPoly, w: VectorFieldPoly) -> VectorFieldPoly:
    """Lie bracket of vector fields, [v, w]_j = v(w_j) - w(v_j), summed term by term."""
    if v.weights != w.weights:
        raise DivisorError("vector fields live in different rings")
    out = []
    for vc, wc in zip(v._integer_terms, w._integer_terms):
        total: Dict[Monomial, Union[int, Fraction]] = {}
        for field, terms, sign in ((v, wc, 1), (w, vc, -1)):
            for mono, c in terms:
                for image, e in field.on_monomial(mono).items():
                    total[image] = total.get(image, 0) + sign * c * e
        out.append(WeightedPoly(v.weights, total))
    return VectorFieldPoly(tuple(out))


@dataclass(frozen=True)
class FrameElement:
    """One logarithmic frame field with its kind annotation.

    ``grade`` is required for w-kind elements and is the eigenvalue of the
    bracket with the Euler field.  ``distinguished`` marks a toral element
    whose field alone is the Euler field (only possible when it is).
    """

    kind: str
    field: VectorFieldPoly
    grade: Optional[int] = None
    distinguished: bool = False

    def __post_init__(self):
        if self.kind not in (TORAL, SEMISIMPLE, WTYPE):
            raise DivisorError(f"unknown frame element kind {self.kind!r}")
        if self.kind == WTYPE and self.grade is None:
            raise DivisorError("w-kind frame elements need a grade")
        if self.kind != WTYPE and self.grade is not None:
            raise DivisorError("only w-kind frame elements carry a grade")
        if self.distinguished and self.kind != TORAL:
            raise DivisorError("only toral elements can be distinguished")


@dataclass(frozen=True)
class FreeDivisor:
    """A weighted-homogeneous free divisor with frame and grading data.

    ``factors`` lists one defining polynomial per toral direction (the
    irreducible components matched to the torus factors); their product must
    equal f up to a nonzero rational.  ``positive_combination`` expresses the
    Euler field as an integer combination of the toral frame fields.
    """

    name: str
    variables: Tuple[str, ...]
    weights: Tuple[int, ...]
    f: WeightedPoly
    degree: int
    frame: Tuple[FrameElement, ...]
    positive_combination: Tuple[int, ...]
    factors: Optional[Tuple[WeightedPoly, ...]] = None

    def __post_init__(self):
        if len(self.variables) != len(self.weights):
            raise DivisorError("variable and weight counts differ")
        if self.f.weights != self.weights:
            raise DivisorError("defining polynomial lives in a different ring")
        if self.f.is_zero():
            raise DivisorError("the defining polynomial must be nonzero")
        if len(self.frame) != self.n:
            raise DivisorError(f"expected {self.n} frame elements, got {len(self.frame)}")
        for element in self.frame:
            if element.field.weights != self.weights:
                raise DivisorError("frame field lives in a different ring")
        if len(self.positive_combination) != len(self.toral_indices):
            raise DivisorError("positive combination length must match the toral count")
        if self.factors is not None and len(self.factors) != len(self.toral_indices):
            raise DivisorError("need one defining factor per toral direction")
        self._check_grading()
        self._check_factors()

    # ------------------------------------------------------------------ basics

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def toral_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.frame) if e.kind == TORAL)

    @property
    def semisimple_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.frame) if e.kind == SEMISIMPLE)

    @property
    def w_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.frame) if e.kind == WTYPE)

    @property
    def toral_count(self) -> int:
        return len(self.toral_indices)

    def euler_field(self) -> VectorFieldPoly:
        coeffs = tuple(
            WeightedPoly.variable(i, self.weights) * w for i, w in enumerate(self.weights)
        )
        return VectorFieldPoly(coeffs)

    def coefficient_matrix(self) -> List[List[WeightedPoly]]:
        """Row i holds the coefficients of frame element i."""
        return [list(e.field.coefficients) for e in self.frame]

    def effective_factors(self) -> Tuple[WeightedPoly, ...]:
        if self.factors is not None:
            return self.factors
        if self.toral_count == 1:
            return (self.f,)
        raise DivisorError("per-toral-direction factors are required when the toral rank exceeds one")

    def _check_grading(self) -> None:
        """Check every Euler grading with one scan of terms each.

        f must be E-homogeneous of the declared degree, which is E(f) =
        degree * f.  Coefficient l of a frame field of grade g (0 for toral
        and semisimple fields) must be E-homogeneous of degree g + w_l, which
        is [E, V] = g * V; ``structure_functions`` solves in these degrees.
        """
        degree_of = self.f.monomial_degree
        if any(degree_of(mono) != self.degree for mono in self.f.terms):
            raise DivisorError("f is not weighted homogeneous of the declared degree")
        euler = self.euler_field()
        combo = None
        for coeff, idx in zip(self.positive_combination, self.toral_indices):
            scaled = self.frame[idx].field.scale(coeff)
            combo = scaled if combo is None else combo + scaled
        if combo is None or not (combo - euler).is_zero():
            raise DivisorError("positive combination of toral fields is not the Euler field")
        for i, element in enumerate(self.frame):
            grade = element.grade or 0
            if any(degree_of(mono) != grade + w
                   for coeff, w in zip(element.field.coefficients, self.weights) for mono in coeff.terms):
                raise DivisorError(f"frame element {i} does not have Euler grade {grade}")
        for i in self.toral_indices:
            if self.frame[i].distinguished and not (self.frame[i].field - euler).is_zero():
                raise DivisorError("the distinguished toral field must equal the Euler field")

    def _check_factors(self) -> None:
        if self.factors is None:
            return
        product = WeightedPoly.constant(1, self.weights)
        for fac in self.factors:
            product = product * fac
        # if product = c * f, then c is the ratio at any monomial of f
        mono, coeff = next(iter(self.f.terms.items()))
        ratio = product.terms.get(mono, 0) / coeff
        if ratio == 0 or product != self.f * ratio:
            raise DivisorError("the product of the factors is not a nonzero rational multiple of f")

    # -------------------------------------------------------- derived structure

    @cached_property
    def factor_degree_matrix(self) -> List[List[Fraction]]:
        """Entry (l, j) is the constant E_l(f_j) / f_j for toral field E_l."""
        factors = self.effective_factors()
        matrix: List[List[Fraction]] = []
        for idx in self.toral_indices:
            fld = self.frame[idx].field
            row = []
            for fac in factors:
                try:
                    quotient = exact_divide(fld.apply(fac), fac)
                except InexactDivisionError as exc:
                    raise DivisorError("a toral field does not preserve a declared factor") from exc
                row.append(quotient.as_constant())
            matrix.append(row)
        return matrix

    @cached_property
    def _minors(self):
        """The minor table of the frame coefficient matrix, shared by the determinant and adjugate."""
        return _minor_table(self.coefficient_matrix())

    @cached_property
    def determinant(self) -> WeightedPoly:
        """Determinant of the frame coefficient matrix."""
        return _determinant(self._minors, self.n)

    @cached_property
    def adjugate(self) -> Tuple[Tuple[WeightedPoly, ...], ...]:
        """Adjugate of the frame coefficient matrix, shared and so read-only."""
        return tuple(map(tuple, _adjugate(self._minors, self.n)))

    @cached_property
    def structure(self) -> StructureFunctions:
        return structure_functions(self)

    @cached_property
    def constants(self) -> FrameConstants:
        return frame_constants(self)

    @cached_property
    def dual_forms(self) -> LogFormFrame:
        return dual_log_forms(self)

    @cached_property
    def pairings(self) -> Tuple[Tuple[WeightedPoly, ...], ...]:
        """``correction_pairings`` of this divisor, shared and so read-only."""
        return tuple(map(tuple, correction_pairings(self)))


@dataclass(frozen=True)
class SaitoResult:
    ok: bool
    constant: Optional[Fraction]
    squarefree: str
    message: str = ""


def _minor_table(rows: Sequence[Sequence[WeightedPoly]]):
    """Memoized Laplace expansion of the minors of a square polynomial matrix.

    The returned ``minor(row_ids, mask)`` is the determinant of the submatrix
    on the rows ``row_ids`` (increasing) and the columns set in ``mask``,
    expanded along its first row.  Every minor reached is kept under
    (rows, columns), so the minors omitting row j share every sub-minor on the
    rows after j with each other and with the determinant.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    weights = rows[0][0].weights
    memo: Dict[Tuple[Tuple[int, ...], int], WeightedPoly] = {((), 0): WeightedPoly.constant(1, weights)}

    def minor(row_ids: Tuple[int, ...], mask: int) -> WeightedPoly:
        key = (row_ids, mask)
        if key in memo:
            return memo[key]
        first, rest = row_ids[0], row_ids[1:]
        total = WeightedPoly.zero(weights)
        sign = 1
        remaining = mask
        while remaining:
            col = (remaining & -remaining).bit_length() - 1
            entry = rows[first][col]
            if entry:
                total = total + entry * minor(rest, mask & ~(1 << col)) * sign
            sign = -sign
            remaining &= remaining - 1
        memo[key] = total
        return total

    return minor


def _determinant(minor, n: int) -> WeightedPoly:
    return minor(tuple(range(n)), (1 << n) - 1)


def _adjugate(minor, n: int) -> List[List[WeightedPoly]]:
    """adj[i][j] = (-1)^(i+j) * minor(j, i)."""
    full = (1 << n) - 1
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            value = minor(tuple(r for r in range(n) if r != j), full & ~(1 << i))
            row.append(value if (i + j) % 2 == 0 else -value)
        adj.append(row)
    return adj


def poly_determinant(rows: Sequence[Sequence[WeightedPoly]]) -> WeightedPoly:
    """Determinant of a square polynomial matrix, by memoized Laplace expansion."""
    return _determinant(_minor_table(rows), len(rows))


def verify_saito(d: FreeDivisor, trials: int = 8, seed: int = 0) -> SaitoResult:
    """Check that det(frame matrix) is a nonzero rational multiple of f.

    Also runs the Monte Carlo reducedness check on f; the returned constant c
    satisfies det = c * f exactly.
    """
    det = d.determinant
    if det.is_zero():
        return SaitoResult(False, None, "skipped", "frame determinant vanishes identically")
    try:
        quotient = exact_divide(det, d.f)
        constant = quotient.as_constant()
    except (InexactDivisionError, ValueError):
        return SaitoResult(False, None, "skipped", "frame determinant is not a constant multiple of f")
    if constant == 0:
        return SaitoResult(False, None, "skipped", "frame determinant vanishes identically")
    verdict = squarefree_probable(d.f, trials=trials, seed=seed)
    ok = verdict != "not-squarefree"
    message = "" if ok else "defining polynomial shows a repeated factor on every sampled line"
    return SaitoResult(ok, constant, verdict, message)


@dataclass(frozen=True)
class StructureFunctions:
    """Coefficients c_ij^k with [V_i, V_j] = sum_k c_ij^k V_k, for i < j."""

    table: Dict[Tuple[int, int], Tuple[WeightedPoly, ...]]
    size: int
    weights: Tuple[int, ...]

    def coefficients(self, i: int, j: int) -> Tuple[WeightedPoly, ...]:
        """Coefficient vector for any ordered pair, antisymmetric in (i, j)."""
        if i == j:
            return (WeightedPoly.zero(self.weights),) * self.size
        if i < j:
            return self.table[(i, j)]
        return tuple(-c for c in self.table[(j, i)])


def structure_functions(d: FreeDivisor) -> StructureFunctions:
    """Expand every frame bracket back in the frame, one graded linear solve per pair.

    With m_k the Euler grade of frame field V_k (its ``grade``, 0 for toral
    and semisimple fields), c_ij^k is E-homogeneous of degree m_i + m_j - m_k.
    The unknowns of pair (i, j) are its coefficients on the monomials of that
    degree, the column of z^a * V_k has one row per (coordinate, monomial),
    and the right-hand side is [V_i, V_j].  The columns depend only on the
    bracket degree m_i + m_j and are built once per degree.  An inconsistent
    system means the frame is not closed under bracket; a rank below the
    column count is a polynomial relation among the frame fields.
    """
    grades = [e.grade or 0 for e in d.frame]
    fields = [e.field for e in d.frame]
    systems: Dict[int, tuple] = {}  # bracket degree -> _bracket_columns
    table: Dict[Tuple[int, int], Tuple[WeightedPoly, ...]] = {}
    for i in range(d.n):
        for j in range(i + 1, d.n):
            degree = grades[i] + grades[j]
            if degree not in systems:
                systems[degree] = _bracket_columns(fields, grades, degree)
            unknowns, row_of, base = systems[degree]
            width = len(unknowns)
            rows = [row + [0] for row in base]
            for l, coeff in enumerate(bracket(fields[i], fields[j]).coefficients):
                for mono, c in coeff.terms.items():
                    index = row_of.get((l, mono))
                    if index is None:
                        rows.append([0] * width + [c])
                    else:
                        rows[index][width] = c
            result = rref(IntegerRows.cleared(rows, width, augmented=True))
            if result.rank < width:
                raise DivisorError(f"frame fields are linearly dependent (found solving pair ({i}, {j}))")
            if result.inconsistent:
                raise DivisorError(f"frame is not closed under bracket at pair ({i}, {j})")
            coeffs: List[Dict[Monomial, Fraction]] = [{} for _ in range(d.n)]
            for (k, mono), value in zip(unknowns, result.solution):
                coeffs[k][mono] = value
            table[(i, j)] = tuple(WeightedPoly(d.weights, c) for c in coeffs)
    return StructureFunctions(table=table, size=d.n, weights=d.weights)


def _bracket_columns(fields: Sequence[VectorFieldPoly], grades: Sequence[int], degree: int):
    """The unknowns (k, a) of a bracket of Euler degree ``degree``, the row
    index of each (coordinate, monomial) key, and the dense rows whose column
    for (k, a) holds the terms of z^a * V_k."""
    unknowns: List[Tuple[int, Monomial]] = []
    row_of: Dict[Tuple[int, Monomial], int] = {}
    entries: List[Tuple[int, int, Union[int, Fraction]]] = []
    for k, field in enumerate(fields):
        for a in monomials_of_degree(field.weights, degree - grades[k]):
            for l, terms in enumerate(field._integer_terms):
                for mono, c in terms:
                    key = (l, tuple(map(add, a, mono)))
                    entries.append((row_of.setdefault(key, len(row_of)), len(unknowns), c))
            unknowns.append((k, a))
    rows: List[List[Union[int, Fraction]]] = [[0] * len(unknowns) for _ in row_of]
    for r, col, c in entries:
        rows[r][col] = c
    return unknowns, row_of, rows


@dataclass(frozen=True)
class FrameConstants:
    """Constant blocks of the structure functions, validated against kinds.

    ``toral_w`` maps (toral position, w position) to the integer n with
    [E_i, Z_j] = n * Z_j.  ``semisimple_action`` maps (semisimple position,
    w position) to the coefficient vector over w slots.  ``semisimple`` maps
    semisimple slot pairs to constant coefficient vectors over semisimple
    slots.  Positions index into the toral/semisimple/w slot orderings.
    """

    toral_w: Dict[Tuple[int, int], Fraction]
    semisimple: Dict[Tuple[int, int], Tuple[Fraction, ...]]
    semisimple_action: Dict[Tuple[int, int], Tuple[Fraction, ...]]


def _constant_of(poly: WeightedPoly, context: str) -> Fraction:
    try:
        return poly.as_constant()
    except ValueError as exc:
        raise DivisorError(f"{context}: expected a constant structure function") from exc


def frame_constants(d: FreeDivisor) -> FrameConstants:
    """Extract and validate the constant structure blocks of the frame."""
    sf = d.structure
    toral = d.toral_indices
    semis = d.semisimple_indices
    wpos = d.w_indices

    def expect_zero_outside(i: int, j: int, allowed: Sequence[int], context: str):
        for k, c in enumerate(sf.coefficients(i, j)):
            if k not in allowed and not c.is_zero():
                raise DivisorError(f"{context}: unexpected component on frame slot {k}")

    toral_w: Dict[Tuple[int, int], Fraction] = {}
    for a, i in enumerate(toral):
        for b, j in enumerate(toral):
            if i < j:
                expect_zero_outside(i, j, (), "toral pair must commute")
        for b, j in enumerate(semis):
            lo, hi = min(i, j), max(i, j)
            expect_zero_outside(lo, hi, (), "toral and semisimple fields must commute")
        for b, j in enumerate(wpos):
            lo, hi = min(i, j), max(i, j)
            coeffs = sf.coefficients(i, j)
            expect_zero_outside(lo, hi, (j,), "toral bracket with a graded slot")
            toral_w[(a, b)] = _constant_of(coeffs[j], "toral grading constant")
    semisimple: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
    for a, i in enumerate(semis):
        for b, j in enumerate(semis):
            if i >= j:
                continue
            coeffs = sf.coefficients(i, j)
            expect_zero_outside(i, j, semis, "semisimple pair bracket")
            semisimple[(a, b)] = tuple(
                _constant_of(coeffs[k], "semisimple structure constant") for k in semis
            )
    action: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}
    for a, i in enumerate(semis):
        for b, j in enumerate(wpos):
            # coefficients() is antisymmetry-aware, so the (i, j) orientation
            # is already the bracket of the semisimple field with the graded one
            coeffs = sf.coefficients(i, j)
            lo, hi = min(i, j), max(i, j)
            expect_zero_outside(lo, hi, wpos, "semisimple action on graded slots")
            action[(a, b)] = tuple(
                _constant_of(coeffs[k], "semisimple action constant") for k in wpos
            )
    for b, j in enumerate(wpos):
        expected = sum(
            Fraction(c) * toral_w[(idx, b)] for idx, c in enumerate(d.positive_combination)
        )
        if expected != d.frame[j].grade:
            raise DivisorError(
                f"graded slot {b} has Euler grade {expected}, annotation says {d.frame[j].grade}"
            )
    return FrameConstants(toral_w=toral_w, semisimple=semisimple, semisimple_action=action)


@dataclass(frozen=True)
class LogFormFrame:
    """Dual logarithmic 1-forms, stored as numerators over c * f.

    Row i of ``numerators`` holds the dz_j coefficients of the form dual to
    frame element i; dividing by constant * f gives the actual form.
    """

    numerators: Tuple[Tuple[WeightedPoly, ...], ...]
    constant: Fraction
    f: WeightedPoly


def dual_log_forms(d: FreeDivisor) -> LogFormFrame:
    """Adjugate-based dual frame with the exact pairing identity enforced."""
    matrix = d.coefficient_matrix()
    det = d.determinant
    constant = exact_divide(det, d.f).as_constant()
    adj = d.adjugate
    numerators = tuple(tuple(adj[j][i] for j in range(d.n)) for i in range(d.n))
    for i in range(d.n):
        for l in range(d.n):
            pairing = WeightedPoly.zero(d.weights)
            for j in range(d.n):
                pairing = pairing + numerators[i][j] * matrix[l][j]
            expected = det if i == l else WeightedPoly.zero(d.weights)
            if pairing != expected:
                raise DivisorError("dual form pairing identity failed; broken invariant")
    return LogFormFrame(numerators=numerators, constant=constant, f=d.f)


def correction_pairings(d: FreeDivisor) -> List[List[WeightedPoly]]:
    """The polynomials pairing each grading character with each graded field.

    Entry [i][j] is the value on graded slot j of the closed 1-form dual to
    toral direction i, computed from the per-factor logarithmic derivatives:
    row i of inverse(C^T) against the exact quotients Z_j(f_a) / f_a, where
    C is the factor degree matrix.
    """
    factors = d.effective_factors()
    c_matrix = RationalMatrix(d.factor_degree_matrix)
    t_matrix = inverse(c_matrix.transpose())
    out: List[List[WeightedPoly]] = []
    quotients: List[List[WeightedPoly]] = []
    for j in d.w_indices:
        row = []
        for fac in factors:
            row.append(exact_divide(d.frame[j].field.apply(fac), fac))
        quotients.append(row)
    for i in range(d.toral_count):
        row = []
        for j_pos in range(len(d.w_indices)):
            total = WeightedPoly.zero(d.weights)
            for a in range(len(factors)):
                total = total + quotients[j_pos][a] * t_matrix[i, a]
            row.append(total)
        out.append(row)
    return out


def dlog_f_expansion(d: FreeDivisor) -> Tuple[WeightedPoly, ...]:
    """Coefficients V_i(f) / f of d log f in the dual frame, exact quotients."""
    out = []
    for element in d.frame:
        try:
            out.append(exact_divide(element.field.apply(d.f), d.f))
        except InexactDivisionError as exc:
            raise DivisorError("a frame field does not preserve the divisor ideal") from exc
    return tuple(out)


def form_structure_equations(d: FreeDivisor) -> Dict[int, Dict[Tuple[int, int], WeightedPoly]]:
    """Exterior derivatives of the dual frame: d xi^k = -sum c_ij^k xi^i ^ xi^j.

    Returns, for each form index k, the nonzero coefficients on the wedge
    basis xi^i ^ xi^j with i < j.
    """
    out: Dict[int, Dict[Tuple[int, int], WeightedPoly]] = {k: {} for k in range(d.n)}
    for (i, j), coeffs in sorted(d.structure.table.items()):
        for k, c in enumerate(coeffs):
            if not c.is_zero():
                out[k][(i, j)] = -c
    return out
