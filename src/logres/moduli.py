"""Finite-dimensional normal-form data for flat logarithmic connections.

Given a divisor and a semisimple residue, the linear compatibility equations
for the connection components have graded polynomial solutions whose degrees
are pinned by the integer eigenvalues of ad of the grading residue value.
This module computes exact bases of those solution spaces, one graded slot
and one degree at a time (a frame whose semisimple fields move one graded
slot into another is rejected before any solve).  The characters of the
diagonal toral and semisimple fields first sieve out the monomials z^a
whose candidates are forced to zero, by looking each character value up in
the residue's ``bracket_spectra`` while the monomials are enumerated, so
that a rejected prefix is never extended;
every remaining candidate z^a * M gets its residual as a sparse column,
and the columns are row-reduced block by block, where a block is a
connected set of columns sharing equation rows.  Frame fields act on
monomials through ``VectorFieldPoly.on_monomial`` alone, and the solve reads
the eigenmatrices and their brackets with the residue values from
``ResidueData.grading_brackets``.  It then emits the polynomial system
cutting out the flat locus inside them (each value on the corrections once,
on the first of them, shifted to every toral slot, by the one sparse matrix
product kernel ``_products``), assembles the connection attached to a point,
and cross-checks the emitted system against a direct curvature computation.

Sparse matrix values are flat dicts from (coordinate monomial, row, column,
base monomial) to a rational coefficient; a coordinate monomial is the
sorted tuple of the coordinate indices a term multiplies, empty for a
constant matrix.  A coefficient is held as an ``int`` when it is integral
(``as_scalar`` where values enter: ``_constant``, ``_terms``, the solve and
the structure-function scalars; ``on_monomial`` and ``grading_brackets``
already give them that way), so products of integers skip ``Fraction``'s gcd
work, and Python's int/Fraction promotion keeps every other value exact on
one code path.  ``_products`` sums signed products of such values, a plain
row-wise sparse product: it indexes each right operand once by the inner
matrix index and adds each matching pair of terms into one dict keyed like
the values, so a commutator is one pass with no subtraction.  Each emitted
(row, column, base monomial) group becomes one ``Equation``, which keeps the
coordinate monomials as its keys and its coefficients ``as_scalar`` (a product of
``Fraction``s stays one when integral): nothing in emission, evaluation,
restriction or the JSON output builds a polynomial over all the coordinates.
Evaluation (``_values``) sums each equation on integers, given a point's
coordinates as one D and their numerators; ``PolySystem.evaluate``,
``Equation.evaluate`` and ``linear_certificate`` clear their rational values
first and build one ``Fraction`` per equation.
A ``SolutionSpace`` keeps its basis as the solve's sparse terms and builds
``MatrixPolyMap``s only on request.  A point is read once (``_reading``):
each map enters through ``_terms``, is cleared to integers once, and its
coordinates are its entries at the basis pivots (see ``SolutionSpace``),
checked by one integer sum with no row reduction.  ``coordinates_of``,
``assemble_connection`` and ``check_point`` all start from that reading, and
the connection is assembled as integer rows (``_connection_rows``).
The curvature formula is written out here rather than taken from
``connections``, so that ``check_point``'s flatness cross-check stays an
independent computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import groupby
from math import lcm, prod
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .connections import FlatnessReport, LogConnection, MatrixPolyMap, _divided, _flatness, _nilpotent
from .divisor import DivisorError, FreeDivisor
from .liealg import ResidueData, validate_residue
from .linear import IntegerRows, RationalMatrix, block_kernel, inverse, rref
from .polynomials import (Monomial, WeightedPoly, WeightMismatchError, monomial_text, monomials_of_degree,
                          terms_text)
from .univariate import as_fraction, as_scalar, clear_denominators, power


class MembershipError(ValueError):
    """Raised when a value does not lie in the advertised solution space."""


class ResidueError(ValueError):
    """Raised when residue data is rejected by validation."""


@dataclass(frozen=True)
class SolutionSpace:
    """Exact graded basis of one linear solution space.

    ``slot`` is ("component", w-position) or ("correction", toral-position).
    ``elements`` holds one (E-degree, terms) pair per basis element, in
    increasing degree, with the row-major terms ``_solve_slot`` gives;
    ``basis`` is their ``MatrixPolyMap``s over ``weights``, built on first access.
    Each element is 1 at its pivot, its largest (monomial, row, column), where every other
    element is 0: it is an ``rref`` kernel vector over the candidates z^a * M, ordered by
    monomial, then eigenmatrix, and each M is one too, 1 at its last nonzero entry.
    ``gauge`` is the P of ``ResidueData.weight_form`` when the space was solved for the
    gauged residue, and None otherwise: ``elements`` and ``pivots`` are then in the gauged
    basis, while ``basis`` holds P * E * P^-1 for each element E, in the residue's own basis.
    """

    slot: Tuple[str, int]
    matrix_size: int
    weights: Tuple[int, ...]
    elements: Tuple[Tuple[int, Tuple[_Term, ...]], ...]
    gauge: Optional[RationalMatrix] = None

    @property
    def dimension(self) -> int:
        return len(self.elements)

    @cached_property
    def dims_by_degree(self) -> Dict[int, int]:
        return dict(Counter(degree for degree, _ in self.elements))

    @property
    def constant_dimension(self) -> int:
        return self.dims_by_degree.get(0, 0)

    @property
    def positive_dimension(self) -> int:
        return sum(count for degree, count in self.dims_by_degree.items() if degree > 0)

    @cached_property
    def pivots(self) -> Tuple[Tuple[int, int, Monomial], ...]:
        """Each element's pivot as its (row, column, monomial) key, found once."""
        return tuple(max(terms, key=lambda term: (term[2], term[0], term[1]))[:3] for _, terms in self.elements)

    @cached_property
    def cleared(self) -> Tuple[int, Tuple[Tuple[Tuple[Tuple[int, int, Monomial], int], ...], ...]]:
        """L, the lcm of the denominators of every element's coefficients, and each element
        times L as ((row, column, monomial), integer) pairs: the form ``_span_coordinates`` sums."""
        scale = lcm(*(coeff.denominator for _, terms in self.elements for *_, coeff in terms))
        return scale, tuple(tuple(((r, c, mono), coeff.numerator * (scale // coeff.denominator))
                                  for r, c, mono, coeff in terms) for _, terms in self.elements)

    @cached_property
    def gauge_inverse(self) -> RationalMatrix:
        """P^-1, read only when ``gauge`` is set."""
        return inverse(self.gauge)

    @cached_property
    def basis(self) -> Tuple[MatrixPolyMap, ...]:
        maps = []
        for _, terms in self.elements:
            if self.gauge is not None:
                terms = _conjugate(terms, self.gauge, self.gauge_inverse, len(self.weights))
            entries: List[List[dict]] = [[{} for _ in range(self.matrix_size)] for _ in range(self.matrix_size)]
            for r, c, mono, coeff in terms:
                entries[r][c][mono] = coeff
            maps.append(MatrixPolyMap._of([[WeightedPoly(self.weights, entry) for entry in row] for row in entries]))
        return tuple(maps)


def _check_pair(d: FreeDivisor, residue: ResidueData) -> None:
    """Raise ResidueError unless the residue fits the divisor and is valid."""
    if len(residue.s_list) != d.toral_count:
        raise ResidueError(f"residue carries {len(residue.s_list)} toral values, divisor has {d.toral_count}")
    if tuple(residue.positive_combination) != tuple(d.positive_combination):
        raise ResidueError("residue and divisor disagree on the positive combination")
    if residue.chi is not None and len(residue.chi) != len(d.semisimple_indices):
        raise ResidueError("chi must carry one value per semisimple frame slot")
    if residue.chi is None and d.semisimple_indices:
        raise ResidueError("this divisor has semisimple frame directions; chi is required")
    report = validate_residue(residue, s_constants=d.constants.semisimple if residue.chi is not None else None)
    if not report.ok:
        raise ResidueError(report.message)


_Scalar = Union[int, Fraction]
# a sparse matrix value: (coordinate monomial, row, column, base monomial) -> coefficient
_Value = Dict[Tuple[Tuple[int, ...], int, int, Monomial], _Scalar]
_Term = Tuple[int, int, Monomial, _Scalar]


def _constant(mat: RationalMatrix, n: int) -> _Value:
    """A constant matrix: its nonzero entries at the zero monomial of n variables."""
    zero = (0,) * n
    return {((), r, c, zero): as_scalar(v) for r, row in enumerate(mat.entries) for c, v in enumerate(row) if v}


def _terms(mp: MatrixPolyMap) -> List[_Term]:
    """The (row, column, monomial, coefficient) terms of a map, row-major."""
    return [(r, c, mono, as_scalar(coeff)) for r, row in enumerate(mp.entries)
            for c, entry in enumerate(row) for mono, coeff in entry.terms.items()]


def _conjugate(terms: Iterable[_Term], left: RationalMatrix, right: RationalMatrix, n: int) -> List[_Term]:
    """The terms of left * X * right, for X given by its terms over n variables."""
    value = {((), r, c, mono): coeff for r, c, mono, coeff in terms}
    product = _matmul(_matmul(_constant(left, n), value), _constant(right, n))
    return [(r, c, mono, coeff) for (_, r, c, mono), coeff in product.items()]


def _collect(terms: Iterable[Tuple[tuple, _Scalar]]) -> _Value:
    """Sum the coefficients of equal keys and drop the zero ones."""
    out: _Value = {}
    for key, coeff in terms:
        out[key] = out[key] + coeff if key in out else coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _sub(a: _Value, b: _Value) -> _Value:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out[key] - coeff if key in out else -coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _products(*factors: Tuple[_Value, _Value, int]) -> _Value:
    """The sum of sign * a * b over the (a, b, sign) factors, sign 1 or -1.

    A row-wise sparse product (Gustavson, ACM TOMS 4, 1978): b is indexed once
    by its inner index s, and each term of a adds its products with the terms
    of b in row s into one dict keyed by (coordinate monomial, row, column,
    base monomial), which all factors share, so a commutator is one call.
    """
    out: _Value = {}
    for a, b, sign in factors:
        by_inner: Dict[int, list] = {}
        for (key, s, c, mono), coeff in b.items():
            by_inner.setdefault(s, []).append((key, c, mono, coeff))
        for (key_a, r, s, mono_a), coeff_a in a.items():
            if sign < 0:
                coeff_a = -coeff_a
            for key_b, c, mono_b, coeff_b in by_inner.get(s, ()):
                term = (tuple(sorted(key_a + key_b)), r, c, tuple(map(add, mono_a, mono_b)))
                out[term] = out.get(term, 0) + coeff_a * coeff_b
    return {term: coeff for term, coeff in out.items() if coeff}


def _matmul(a: _Value, b: _Value) -> _Value:
    return _products((a, b, 1))


def _commutator(a: _Value, b: _Value) -> _Value:
    return _products((a, b, 1), (b, a, -1))


def _solve_slot(d: FreeDivisor, residue: ResidueData, shift: int,
                offsets: Sequence[_Scalar]) -> List[Tuple[int, Tuple[_Term, ...]]]:
    """The (degree, terms) basis of one slot's solution space, in increasing degree.

    Equation k is frame direction k (toral ones first, then semisimple ones),
    with C_k its residue value.  The candidates of degree lam + shift are z^a * M
    for each monomial z^a of that degree and M in the lam-eigenspace of
    ``residue.grading_eigenspaces``.  A candidate's residual
    V_k(z^a) * M - z^a * (offsets[k] * M + [C_k, M]) is written straight into a
    sparse column keyed by (k, row, column, monomial), and ``block_kernel``
    reduces the columns in one sparse ``rref``.  M and the commutators
    [C_k, M] depend on the residue alone: their entries are read from
    ``residue.grading_brackets``, computed once per residue and distinct value.

    The characters of the diagonal frame fields sieve the monomials while
    ``monomials_of_degree`` enumerates them.  A diagonal toral or semisimple
    field V_k (``FreeDivisor.diagonal_characters``) has
    V_k(z^a) = <chi_k, a> * z^a, so only the candidates z^a * M_i reach the
    rows (k, ., ., a), and there they read z^a * (q * M_i - [C_k, M_i]) with
    q = <chi_k, a> - offsets[k].  A kernel vector with coefficients x_i on
    them thus has sum_i x_i * (q * M_i - [C_k, M_i]) = 0, so unless q is an
    eigenvalue of ad C_k on the lam-eigenspace (``residue.bracket_spectra``),
    every candidate of monomial a is zero in every kernel vector, and none of
    them is built.  This is the one place where forced-zero candidates are
    dropped, and dropping them leaves the kernel as it is: a column that is
    zero in every kernel vector is in the span of no set of other columns, so
    it is a pivot of every reduction, and each other column stays as it was.
    The value <chi_k, a> is final once the exponents up to chi_k's last
    nonzero entry are chosen, so the lookup runs there, and a prefix that
    fails it is not extended.
    """
    fields = [d.frame[i].field for i in d.toral_indices + d.semisimple_indices]
    m, same, offsets = residue.matrix_size, residue.value_classes, [as_scalar(offset) for offset in offsets]
    # each character with the prefix length that reaches its last nonzero entry
    characters = [(k, chi, offsets[k], max(i for i, c in enumerate(chi) if c) + 1)
                  for k, chi in d.diagonal_characters]
    spectra = residue.bracket_spectra if characters else {}

    def triples(entries: Iterable[_Scalar]) -> List[Tuple[int, int, _Scalar]]:
        return [(i // m, i % m, v) for i, v in enumerate(entries) if v]

    def admissible(lam: int, prefix: Monomial) -> bool:
        """Whether every character final at this prefix takes an eigenvalue of its ad C_k there."""
        return all(sum(map(mul, chi, prefix)) - offset in spectra[lam][same[k]]
                   for k, chi, offset, end in characters if end == len(prefix))

    out: List[Tuple[int, Tuple[_Term, ...]]] = []
    for lam, pairs in residue.grading_brackets.items():
        degree = lam + shift
        monos = monomials_of_degree(d.weights, degree, partial(admissible, lam))
        if not monos:
            continue
        # per eigenmatrix M: the (row, column, value) of M, and of offsets[k] * M + [C_k, M] per k
        eigendata = [(triples(eig), [triples([offset * v + b for v, b in zip(eig, bracket)])
                                     for bracket, offset in zip(brackets, offsets)])
                     for eig, brackets in pairs]
        candidates: List[Tuple[Monomial, list]] = []
        columns: List[Dict[tuple, Fraction]] = []
        for mono in monos:
            images = [field.on_monomial(mono) for field in fields]
            for entries, rhs in eigendata:
                column: Dict[tuple, Fraction] = {}
                for k, image in enumerate(images):
                    for image_mono, coeff in image.items():
                        for r, c, v in entries:
                            key = (k, r, c, image_mono)
                            column[key] = column.get(key, 0) + coeff * v
                    for r, c, v in rhs[k]:
                        key = (k, r, c, mono)
                        column[key] = column.get(key, 0) - v
                candidates.append((mono, entries))
                columns.append({key: v for key, v in column.items() if v})
        for vec in block_kernel(columns):
            sums: Dict[Tuple[int, int, Monomial], _Scalar] = {}
            for pos, coeff in vec.items():
                mono, entries = candidates[pos]
                for r, c, v in entries:
                    sums[r, c, mono] = sums.get((r, c, mono), 0) + coeff * v
            # row-major; a stable sort keeps each entry's monomials in insertion order
            out.append((degree, tuple((r, c, mono, as_scalar(v)) for (r, c, mono), v
                                      in sorted(sums.items(), key=lambda item: item[0][:2]) if v)))
    return out


def _component_spaces(d: FreeDivisor, residue: ResidueData, gauge: Optional[RationalMatrix]) -> List[SolutionSpace]:
    """One solution space per graded (w-kind) frame slot, each slot solved alone.

    Its basis elements solve every toral direction equation
    E_i(B) = n_i B + [S_i, B]_c and, when chi is present, every semisimple
    direction equation V_a(B) = c_a B + [chi_a, B]_c, with n_i the slot's
    toral grading constants and c_a the constant of [V_a, Z] on the slot's
    own field Z; the slot's grade shifts the degrees.  A frame whose
    semisimple fields move one graded slot into another has no per-slot
    basis and raises DivisorError.
    """
    if not d.w_indices:
        return []
    toral_w, action = d.constants.toral_w, d.constants.semisimple_action
    if any(v for (_, b), row in action.items() for other, v in enumerate(row) if other != b):
        raise DivisorError("semisimple coupling mixes graded slots; per-slot bases are not defined for this divisor")
    semis = range(len(d.semisimple_indices))
    return [
        SolutionSpace(("component", b), residue.matrix_size, d.weights, tuple(_solve_slot(
            d, residue, d.frame[j].grade,
            [toral_w[(t, b)] for t in range(d.toral_count)] + [action[(a, b)][b] for a in semis])), gauge)
        for b, j in enumerate(d.w_indices)
    ]


def _correction_spaces(d: FreeDivisor, residue: ResidueData, gauge: Optional[RationalMatrix]) -> List[SolutionSpace]:
    """One space per toral slot (a divisor has at least one) solving E_i(N) = [S_i, N]_c.

    The corrections of every toral slot satisfy the same linear equations, so
    the spaces share one basis of one solve; ``moduli_system`` computes each
    value on the first of them and shifts it to the others.
    """
    elements = tuple(_solve_slot(d, residue, 0, [0] * (d.toral_count + len(d.semisimple_indices))))
    return [SolutionSpace(("correction", i), residue.matrix_size, d.weights, elements, gauge)
            for i in range(d.toral_count)]


# ----------------------------------------------------------------- the system


@dataclass(frozen=True)
class Coordinate:
    name: str
    slot: Tuple[str, int]
    basis_index: int
    degree: int


@dataclass(frozen=True)
class Equation:
    """One emitted equation, sparse in the coordinates.

    ``terms`` maps a coordinate monomial, the sorted tuple of the coordinate
    indices it multiplies (empty for the constant term), to its nonzero
    coefficient, an ``int`` when it is integral and a ``Fraction`` otherwise;
    ``ncoords`` is the number of coordinates of the system.
    """

    tag: str  # "curvature" | "ZN" | "NN-commute" | "nilpotency"
    frame_slots: Tuple[int, ...]
    entry: Tuple[int, int]
    base_monomial: Monomial
    terms: Dict[Tuple[int, ...], _Scalar] = field(hash=False)  # equations stay hashable
    ncoords: int

    @cached_property
    def poly(self) -> WeightedPoly:
        """The equation as a dense polynomial over max(ncoords, 1) unit-weight
        variables, built on first access."""
        width = max(self.ncoords, 1)
        return WeightedPoly((1,) * width,
                            {tuple(exponent_vector(key, width)): coeff for key, coeff in self.terms.items()})

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], _Scalar]]:
        """Terms in the graded-lexicographic order of their exponent vectors.

        Of two sorted index tuples of one length, the smaller one has the
        larger exponent vector: at the first place they differ it carries an
        index the other lacks.  So the order is increasing length, then
        decreasing tuple.
        """
        return sorted(sorted(self.terms.items(), reverse=True), key=lambda term: len(term[0]))

    def format(self, names: Sequence[str]) -> str:
        """The text of ``poly.format(names)``, read from the sparse terms."""
        def text(key: Tuple[int, ...]) -> str:
            runs = [(index, len(list(repeats))) for index, repeats in groupby(key)]
            return monomial_text(tuple(e for _, e in runs), [names[index] for index, _ in runs])

        return terms_text((text(key), coeff) for key, coeff in self.sorted_terms())

    def evaluate(self, values: Sequence[_Scalar]) -> Fraction:
        """The value at a point given by one rational per coordinate."""
        if len(values) != self.ncoords:
            raise ValueError("coordinate value count mismatch")
        return Fraction(*next(_values((self,), *_cleared_values(values))))

    @cached_property
    def top(self) -> int:
        """The length of the longest key, 0 for an equation with no terms."""
        return max(map(len, self.terms), default=0)


def _cleared_values(values: Sequence[_Scalar]) -> Tuple[int, List[int]]:
    """D, the lcm of the coordinate values' denominators, and D times each value."""
    return clear_denominators([as_fraction(v) for v in values])


def _values(equations: Iterable[Equation], scale: int, numerators: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Each equation's value at the point x = a / D, given as D and the integers a,
    as an integer numerator and denominator.

    An equation whose longest key has length top is
    sum c * prod(a_i) * D^(top - len(key)) over D^top.  Each equation's top is
    found once, and each power of D once per point.  ``check_point`` passes
    its one integer reading of the point and tests the numerators; the public
    evaluators clear the denominators of their rational values first and
    build one ``Fraction`` per equation.
    """
    get, powers = numerators.__getitem__, [1]
    for eq in equations:
        top = eq.top
        while len(powers) <= top:
            powers.append(powers[-1] * scale)
        total = 0
        for key, coeff in eq.terms.items():
            total += coeff * prod(map(get, key)) * powers[top - len(key)]
        yield total, powers[top]


def exponent_vector(key: Tuple[int, ...], width: int) -> List[int]:
    """The exponent vector, over ``width`` variables, of a coordinate monomial."""
    out = [0] * width
    for index in key:
        out[index] += 1
    return out


def coordinate_monomial(exponents: Sequence[int]) -> Tuple[int, ...]:
    """The coordinate monomial of an exponent vector: the inverse of ``exponent_vector``."""
    return tuple(index for index, e in enumerate(exponents) for _ in range(e))


@dataclass(frozen=True)
class PolySystem:
    """Equations in affine coordinates on the solution spaces.

    The coordinate ring has one variable per basis element of every
    component and correction space; equations are tagged by origin and by
    the (matrix entry, base monomial) pair they came from.  ``gauge`` is the
    P of ``ResidueData.weight_form``, in whose basis the entries then are, or None.
    """

    divisor_name: str
    matrix_size: int
    coordinates: Tuple[Coordinate, ...]
    equations: Tuple[Equation, ...]
    summary: Dict[str, object]
    gauge: Optional[RationalMatrix] = None

    @property
    def coordinate_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.coordinates)

    def evaluate(self, values: Sequence[_Scalar]) -> List[Fraction]:
        if len(values) != len(self.coordinates):
            raise ValueError("coordinate value count mismatch")
        return [Fraction(*value) for value in _values(self.equations, *_cleared_values(values))]


def _coordinate_name(prefix: str, slot_number: int, terms: Sequence[tuple], variables: Sequence[str], index: int) -> str:
    if len(terms) == 1 and terms[0][3] == 1:
        r, c, mono, _ = terms[0]
        body = f"{prefix}{slot_number}[{r + 1},{c + 1}]"
        if any(mono):
            body += "*" + monomial_text(mono, variables)
        return body
    return f"{prefix}{slot_number}#{index + 1}"


@dataclass(frozen=True)
class ModuliProblem:
    """Solution spaces plus the emitted polynomial system, bundled."""

    divisor: FreeDivisor
    residue: ResidueData
    component_spaces: Tuple[SolutionSpace, ...]
    correction_spaces: Tuple[SolutionSpace, ...]
    system: PolySystem

    @property
    def symmetry(self) -> SolutionSpace:
        """Graded Lie algebra of infinitesimal symmetries fixing the residue: the
        first correction space, whose basis elements are the symmetries.

        The degree-zero part is the centralizer of the residue values inside
        gl_m; the strictly positive part exponentiates to polynomial gauge
        transformations equal to the identity at the origin.
        """
        return self.correction_spaces[0]


def moduli_system(d: FreeDivisor, residue: ResidueData) -> ModuliProblem:
    """Emit the defining equations of the flat locus in normal-form coordinates.

    One affine coordinate is introduced per basis vector of the component and
    correction spaces.  The equations are grouped and tagged: quadratic
    curvature matching on pairs of graded slots, compatibility of corrections
    with components (ZN), pairwise commutation of corrections (NN-commute),
    and entrywise nilpotency.  Ordering is deterministic for byte-stable
    output.  Coefficients are ints while they are integral, and every matrix
    product goes through the sparse product kernel ``_products``; each equation
    keeps its coordinate monomials as sparse keys.

    The correction spaces share one basis, so toral slot l's correction is
    the first one with its coordinates moved up by l * dim.  ZN (per graded
    slot) and nilpotency are computed on the first correction, NN-commute on
    the first two, and each value is split into its sorted groups once and
    renumbered for every slot or pair of slots.  The renumbering is
    increasing, so the equations, their order and their terms are those of a
    computation on each slot's own correction.

    A residue with a ``weight_form`` is solved and emitted for P^-1 (S, chi) P:
    B solves that problem exactly when P B P^-1 solves the given one, so the
    equations cut out the same locus in the same coordinates.  The problem
    keeps the given residue, and its spaces and system record P as ``gauge``.
    """
    _check_pair(d, residue)
    if residue.weight_form is None:
        return _build(d, residue)
    gauge, gauged = residue.weight_form
    return replace(_build(d, gauged, gauge), residue=residue)


def _build(d: FreeDivisor, residue: ResidueData, gauge: Optional[RationalMatrix] = None) -> ModuliProblem:
    """The solve and the emission of ``moduli_system`` for a validated residue, as written,
    with ``gauge`` recorded on the spaces and the system."""
    m = residue.matrix_size
    comp_spaces = _component_spaces(d, residue, gauge)
    corr_spaces = _correction_spaces(d, residue, gauge)

    def degree(mono: Monomial) -> int:
        return sum(w * e for w, e in zip(d.weights, mono))

    # each space's general element, sum over its coordinates t of t * basis element
    coordinates: List[Coordinate] = []
    general: List[_Value] = []
    for space in comp_spaces + corr_spaces:
        prefix = "B" if space.slot[0] == "component" else "N"
        value: _Value = {}
        for b_idx, (e_degree, terms) in enumerate(space.elements):
            value.update((((len(coordinates),), r, c, mono), coeff) for r, c, mono, coeff in terms)
            name = _coordinate_name(prefix, space.slot[1] + 1, terms, d.variables, b_idx)
            coordinates.append(Coordinate(name=name, slot=space.slot, basis_index=b_idx, degree=e_degree))
        general.append(value)
    ncoords = len(coordinates)
    comps, corrs = general[:len(comp_spaces)], general[len(comp_spaces):]
    # what each frame slot k contributes through c_ij^k: S on toral, chi on semisimple, B on graded slots
    frame_value = {k: _constant(v, d.n) for k, v in zip(d.toral_indices + d.semisimple_indices, residue.values)}
    frame_value.update(zip(d.w_indices, comps))

    def apply(i: int, value: _Value) -> _Value:
        """Frame field i applied to each base monomial of a value."""
        return _collect(
            ((key, r, c, image), coeff * image_coeff)
            for (key, r, c, mono), coeff in value.items()
            for image, image_coeff in d.frame[i].field.on_monomial(mono).items()
        )

    equations: List[Equation] = []
    dim = corr_spaces[0].dimension
    first = ncoords - d.toral_count * dim

    def emit(tag: str, value: _Value, slots: Iterable[Tuple[Tuple[int, ...], int, int]]):
        """Split the value into its sorted (row, column, base monomial) groups once, and for each
        (frame slots, l1, l2) emit one equation per group, with the coordinates of corrs[0] moved
        to corrs[l1] and those of corrs[1] to corrs[l2]; the move is increasing, so keys stay sorted."""
        groups: Dict[Tuple[int, int, Monomial], Dict[Tuple[int, ...], _Scalar]] = {}
        for (key, r, c, base), coeff in value.items():
            groups.setdefault((r, c, base), {})[key] = as_scalar(coeff)
        order = sorted(groups, key=lambda g: (g[0], g[1], degree(g[2]), g[2]))
        for frame_slots, l1, l2 in slots:
            moved = [*range(first), *range(first + l1 * dim, first + (l1 + 1) * dim),
                     *range(first + l2 * dim, first + (l2 + 1) * dim)]
            for r, c, base in order:
                terms = groups[r, c, base]
                if (l1, l2) != (0, 1):
                    terms = {tuple([moved[i] for i in key]): coeff for key, coeff in terms.items()}
                equations.append(Equation(tag=tag, frame_slots=frame_slots, entry=(r, c), base_monomial=base,
                                          terms=terms, ncoords=ncoords))

    def curvature(a: int, i: int, b: int, j: int) -> _Value:
        """The curvature value on the graded slots a < b, of frame slots i and j."""
        # sum over k of c_ij^k times frame slot k's value
        structure = _collect(((key, r, c, tuple(map(add, mono, base))), coeff * as_scalar(scalar))
                             for k, poly in enumerate(d.structure.coefficients(i, j))
                             for base, scalar in poly.terms.items()
                             for (key, r, c, mono), coeff in frame_value[k].items())
        value = _sub(_sub(apply(i, comps[b]), apply(j, comps[a])), structure)
        return _sub(value, _commutator(comps[a], comps[b]))

    # curvature equations on pairs of graded slots
    graded = list(enumerate(d.w_indices))
    for a, i in graded:
        for b, j in graded[a + 1:]:
            emit("curvature", curvature(a, i, b, j), [((i, j), 0, 1)])

    toral = list(enumerate(d.toral_indices))
    # graded fields applied to corrections
    for a, i in graded:
        emit("ZN", _sub(apply(i, corrs[0]), _commutator(comps[a], corrs[0])), [((i, t), l, 1) for l, t in toral])

    # corrections commute pairwise
    if len(toral) > 1:
        emit("NN-commute", _commutator(corrs[0], corrs[1]),
             [((t1, t2), l1, l2) for l1, t1 in toral for l2, t2 in toral if l1 < l2])

    # corrections are nilpotent, encoded entrywise
    emit("nilpotency", power(corrs[0], m, _matmul), [((t,), l, 1) for l, t in toral])

    summary = {
        "divisor": d.name,
        "matrix_size": m,
        "dim_components_per_slot": [space.dimension for space in comp_spaces],
        "dim_components": sum(space.dimension for space in comp_spaces),
        "dim_corrections_per_slot": corr_spaces[0].dimension,
        "dim_symmetry_constant": corr_spaces[0].constant_dimension,
        "dim_symmetry_positive": corr_spaces[0].positive_dimension,
        "coordinates": ncoords,
        "equations": len(equations),
    }
    system = PolySystem(
        divisor_name=d.name,
        matrix_size=m,
        coordinates=tuple(coordinates),
        equations=tuple(equations),
        summary=summary,
        gauge=gauge,
    )
    return ModuliProblem(
        divisor=d,
        residue=residue,
        component_spaces=tuple(comp_spaces),
        correction_spaces=tuple(corr_spaces),
        system=system,
    )


# ------------------------------------------------------------------- points


@dataclass(frozen=True)
class ModuliPoint:
    """Candidate normal-form data: one component map per graded slot and one
    correction map per toral slot."""

    components: Tuple[MatrixPolyMap, ...]
    corrections: Tuple[MatrixPolyMap, ...]


_Entries = Dict[Tuple[int, int, Monomial], int]  # D times a map: (row, column, monomial) -> nonzero int
_Rows = List[List[Tuple[int, Monomial, int]]]  # the integer rows of one map that ``connections`` reads


def _cleared(terms: Iterable[_Term]) -> Tuple[int, _Entries]:
    """D, the lcm of the terms' denominators, and the terms times D, keyed (row, column, monomial)."""
    terms = list(terms)
    scale = lcm(*(coeff.denominator for *_, coeff in terms))
    return scale, {(r, c, mono): coeff.numerator * (scale // coeff.denominator) for r, c, mono, coeff in terms}


def _reading(point: ModuliPoint, problem: ModuliProblem) -> Tuple[List[Tuple[int, _Entries]], int, List[int]]:
    """The one integer reading of a point: each map X flattened and cleared once, as
    (D_X, D_X * X), and the coordinates x as one D and the integers D * x;
    MembershipError unless the point lies in the spaces."""
    if len(point.components) != len(problem.component_spaces):
        raise MembershipError("wrong number of component maps")
    if len(point.corrections) != len(problem.correction_spaces):
        raise MembershipError("wrong number of correction maps")
    maps = point.components + point.corrections
    cleared = [_cleared(_terms(target)) for target in maps]
    readings = [_span_coordinates(space, target, *reading) for space, target, reading
                in zip(problem.component_spaces + problem.correction_spaces, maps, cleared)]
    common = lcm(*(scale for scale, _ in readings))
    return cleared, common, [v * (common // scale) for scale, values in readings for v in values]


def _span_coordinates(space: SolutionSpace, target: MatrixPolyMap, scale: int,
                      given: _Entries) -> Tuple[int, List[int]]:
    """D' and D' * x, x the target's coefficients on the basis, from its reading (D, D * target).

    Each coefficient is the entry at its element's pivot, and the target lies
    in the span (else MembershipError) exactly when one integer sum gives it
    back: sum_j (D' * x_j) * (L * e_j) = L * (D' * target), with
    ``SolutionSpace.cleared``.  With a ``gauge`` P the target is read as
    P^-1 * target * P, cleared again after the conjugation.
    """
    if target.size != space.matrix_size:
        raise MembershipError("matrix size mismatch")
    if target.weights != space.weights:
        raise WeightMismatchError(f"weight vectors differ: {target.weights} vs {space.weights}")
    if space.gauge is not None:
        conjugate = _conjugate([(*key, v) for key, v in given.items()], space.gauge_inverse, space.gauge,
                               len(space.weights))
        factor, given = _cleared(conjugate)
        scale *= factor
    values = [given.get(pivot, 0) for pivot in space.pivots]
    common, elements = space.cleared
    rebuilt: Dict[Tuple[int, int, Monomial], int] = {}
    for value, terms in zip(values, elements):
        if value:
            for key, coeff in terms:
                rebuilt[key] = rebuilt.get(key, 0) + value * coeff
    if {key: v for key, v in rebuilt.items() if v} != (given if common == 1 else
                                                        {key: common * v for key, v in given.items()}):
        raise MembershipError(f"value does not lie in the span of solution space {space.slot}")
    return scale, values


def coordinates_of(point: ModuliPoint, problem: ModuliProblem) -> Tuple[Fraction, ...]:
    """Express a point in the emitted coordinates, its integer reading divided by
    its D; MembershipError if outside."""
    _, scale, numerators = _reading(point, problem)
    return tuple(Fraction(v, scale) for v in numerators)


def _problem_for(d: FreeDivisor, residue: ResidueData, problem: Optional[ModuliProblem]) -> ModuliProblem:
    """The given problem, ValueError unless it was built for this divisor and residue; else a new one."""
    if problem is None:
        return moduli_system(d, residue)
    same_divisor = problem.divisor is d or problem.divisor == d
    if not same_divisor or not (problem.residue is residue or problem.residue == residue):
        raise ValueError("the problem was built for another divisor or residue")
    return problem


def _put(rows: _Rows, entries: _Entries, factor: int = 1, shift: Optional[Monomial] = None) -> _Rows:
    """Append factor * z^shift times a cleared map to its rows' (column, monomial, integer) terms."""
    for (r, c, mono), v in entries.items():
        rows[r].append((c, mono if shift is None else tuple(map(add, mono, shift)), factor * v))
    return rows


def _connection_rows(d: FreeDivisor, residue: ResidueData,
                     maps: Sequence[Tuple[int, _Entries]]) -> Tuple[int, List[_Rows]]:
    """D and the integer rows W_k = D * w_k of the connection of a point, from its cleared maps.

    w_k is S_i + N_i on toral, chi on semisimple and B_j + sum_i p_ij * N_i on
    graded slots, p_ij the pairings ``d.pairings``.  D is the lcm of the point's
    and the residue's denominators times the lcm L of the pairings', so a
    coefficient p of p_ij scales D_i * N_i by the integer (p * L) * (D / L / D_i).
    A row may repeat a (column, monomial); ``connections`` sums as it reads.
    """
    m, zero, graded = residue.matrix_size, (0,) * d.n, len(d.w_indices)
    corrections = maps[graded:]
    pairings = [[list(d.pairings[i][pos].terms.items()) for pos in range(graded)]
                for i in range(d.toral_count)] if graded else ()
    common = lcm(*(p.denominator for row in pairings for terms in row for _, p in terms))
    base = lcm(*(scale for scale, _ in maps),
               *(v.denominator for value in residue.values for row in value.entries for v in row))
    scale = base * common
    rows = {idx: [[(c, zero, v.numerator * (scale // v.denominator)) for c, v in enumerate(row) if v]
                  for row in value.entries]
            for idx, value in zip(d.toral_indices + d.semisimple_indices, residue.values)}
    for idx, (own, entries) in zip(d.toral_indices, corrections):
        _put(rows[idx], entries, scale // own)
    for pos, idx in enumerate(d.w_indices):
        own, entries = maps[pos]
        rows[idx] = _put([[] for _ in range(m)], entries, scale // own)
        for i, (own, entries) in enumerate(corrections):
            for shift, p in pairings[i][pos]:
                _put(rows[idx], entries, p.numerator * (common // p.denominator) * (base // own), shift)
    return scale, [rows[idx] for idx in range(d.n)]


def assemble_connection(d: FreeDivisor, residue: ResidueData, point: ModuliPoint,
                        problem: Optional[ModuliProblem] = None) -> LogConnection:
    """Build the connection attached to a normal-form point.

    Toral components are S_i + N_i, semisimple components are the constant
    chi values, and each graded component is B_j corrected by the pairing of
    the grading characters with the graded field times the corrections.
    Membership of the point in the solution spaces is enforced.  The
    components are ``check_point``'s integer rows, each divided by its D.
    """
    maps, _, _ = _reading(point, _problem_for(d, residue, problem))
    scale, rows = _connection_rows(d, residue, maps)
    m = residue.matrix_size
    components = []
    for component in rows:
        sums: List[Dict[Monomial, int]] = [{} for _ in range(m * m)]
        for r, row in enumerate(component):
            for c, mono, v in row:
                sums[r * m + c][mono] = sums[r * m + c].get(mono, 0) + v
        components.append(_divided(d, m, scale, sums))
    return LogConnection(divisor=d, components=tuple(components))


@dataclass(frozen=True)
class PointReport:
    flat: bool
    violations: Tuple[int, ...]  # indices into system.equations
    flatness: FlatnessReport

    @property
    def in_variety(self) -> bool:
        return not self.violations


def check_point(d: FreeDivisor, residue: ResidueData, point: ModuliPoint,
                problem: Optional[ModuliProblem] = None) -> PointReport:
    """Evaluate the emitted system at a point and cross-check against curvature.

    The point is read once, on integers (``_reading``), and the equations are
    summed on that reading (``_values``); the violated (tag, frame slots) pairs
    are collected once.  Both cross-checks run in ``connections``, apart from
    the emission kernel ``_products``: the flatness of the connection's integer
    rows (``_connection_rows``) must agree with the curvature, ZN and
    NN-commute equations, and each correction's integer m-th power with its
    nilpotency equations; disagreement raises.  With a ``gauge``, only the
    coordinates are read through P, so the cross-checks check the gauge too.
    """
    problem = _problem_for(d, residue, problem)
    maps, scale, numerators = _reading(point, problem)
    equations = problem.system.equations
    violations = tuple(i for i, (total, _) in enumerate(_values(equations, scale, numerators)) if total)
    violated = {(equations[i].tag, equations[i].frame_slots) for i in violations}
    report = _flatness(d, *_connection_rows(d, residue, maps))
    # each direct verdict must be the negation of "an equation of its tags is violated"
    if report.flat == any(tag in ("curvature", "ZN", "NN-commute") for tag, _ in violated):
        raise ArithmeticError("emitted system and direct curvature disagree on flatness; broken invariant")
    for t, (_, entries) in zip(d.toral_indices, maps[len(d.w_indices):]):
        if _nilpotent(_put([[] for _ in range(residue.matrix_size)], entries)) == (("nilpotency", (t,)) in violated):
            raise ArithmeticError("nilpotency equations disagree with the direct power; broken invariant")
    return PointReport(flat=report.flat, violations=violations, flatness=report)


# --------------------------------------------------- restriction and certificates


def restrict_system(system: PolySystem, assignments: Dict[str, Fraction]) -> PolySystem:
    """Pin some coordinates to rational values and drop trivial equations."""
    names = list(system.coordinate_names)
    for name in assignments:
        if name not in names:
            raise KeyError(f"unknown coordinate {name!r}")
    keep = [i for i, name in enumerate(names) if name not in assignments]
    keep_pos = {old: new for new, old in enumerate(keep)}
    new_coords = tuple(system.coordinates[i] for i in keep)
    nkeep = len(keep)
    pinned = {i: as_fraction(assignments[name]) for i, name in enumerate(names) if name in assignments}
    new_equations: List[Equation] = []
    for eq in system.equations:
        # renumbering keeps each key sorted, since keep_pos is increasing
        terms: Dict[Tuple[int, ...], _Scalar] = {}
        for key, coeff in eq.terms.items():
            for index in key:
                if index in pinned:
                    coeff *= pinned[index]
            new_key = tuple(keep_pos[index] for index in key if index in keep_pos)
            terms[new_key] = terms.get(new_key, 0) + coeff
        terms = {key: as_scalar(coeff) for key, coeff in terms.items() if coeff}
        if terms:
            new_equations.append(Equation(eq.tag, eq.frame_slots, eq.entry, eq.base_monomial, terms, nkeep))
    summary = dict(system.summary)
    summary["coordinates"] = nkeep
    summary["equations"] = len(new_equations)
    summary["restricted"] = sorted(assignments)
    return PolySystem(
        divisor_name=system.divisor_name,
        matrix_size=system.matrix_size,
        coordinates=new_coords,
        equations=tuple(new_equations),
        summary=summary,
        gauge=system.gauge,
    )


@dataclass(frozen=True)
class LinearCertificate:
    status: str  # "consistent" | "inconsistent" | "undetermined"
    solution: Optional[Tuple[Fraction, ...]]
    witness: Optional[str]


def linear_certificate(system: PolySystem) -> LinearCertificate:
    """Decide solvability when the linear part of the system is determined.

    Solves the degree <= 1 equations exactly by row reduction; with a unique
    solution in hand, the remaining equations are evaluated there.  A nonzero
    value is an exact inconsistency certificate (a 0 = nonzero row after
    substitution).  Underdetermined linear parts are reported as such rather
    than guessed at.
    """
    ncoords = len(system.coordinates)
    linear_rows: List[Dict[int, _Scalar]] = []
    higher: List[Equation] = []
    for eq in system.equations:
        if not eq.terms:
            continue
        if max(map(len, eq.terms)) <= 1:
            # coefficients of the coordinates, then the constant: a solution x makes (x, 1) the kernel vector
            linear_rows.append({key[0] if key else ncoords: coeff for key, coeff in eq.terms.items()})
        else:
            higher.append(eq)
    kernel = rref(IntegerRows.cleared(linear_rows, ncoords + 1)).kernel
    if not kernel or ncoords not in kernel[-1]:
        return LinearCertificate("inconsistent", None, "linear subsystem is already inconsistent")
    if len(kernel) > 1:
        return LinearCertificate("undetermined", None, None)
    solution = tuple(kernel[-1].get(i, Fraction(0)) for i in range(ncoords))
    for eq, (total, denominator) in zip(higher, _values(higher, *_cleared_values(solution))):
        if total:
            witness = (
                f"equation tagged {eq.tag} at entry {eq.entry} evaluates to {Fraction(total, denominator)} "
                "at the unique solution of the linear part"
            )
            return LinearCertificate("inconsistent", solution, witness)
    return LinearCertificate("consistent", solution, None)
