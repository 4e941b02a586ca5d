"""Finite-dimensional normal-form data for flat logarithmic connections.

Given a divisor and a semisimple residue, the linear compatibility equations
for the connection components have graded polynomial solutions whose degrees
are pinned by the integer eigenvalues of ad of the grading residue value.
This module computes exact bases of those solution spaces, one graded slot
and one degree at a time (a frame whose semisimple fields move one graded
slot into another is rejected before any solve).  The characters of the
diagonal toral and semisimple fields first sieve out the monomials z^a
whose candidates are forced to zero, by one small rank test per
eigenspace, distinct residue value and character value; every remaining
candidate z^a * M gets its residual as a sparse column, and the columns
are row-reduced block by block, where a block is a connected set of
columns sharing equation rows.  Frame fields act on monomials through
``VectorFieldPoly.on_monomial`` alone, and matrices are multiplied by one
sparse product, ``_matmul``, in the solve (the brackets of residue values
with eigenmatrices) and in emission alike.  It then emits the polynomial
system cutting out the flat locus inside them, assembles the connection
attached to a point, and cross-checks the emitted system against a direct
curvature computation.

Sparse matrix values are flat dicts from (coordinate monomial, row, column,
base monomial) to a rational coefficient; a coordinate monomial is the
sorted tuple of the coordinate indices a term multiplies, empty for a
constant matrix.  A coefficient is held as an ``int`` when it is integral
(``_scalar`` where values enter: ``_constant``, ``_terms``, the solve and
the structure-function scalars; ``on_monomial`` already gives field images
that way), so products of integers skip ``Fraction``'s gcd work, and Python's
int/Fraction promotion keeps every other value exact on one code path.  ``_matmul`` joins
the terms of both sides on the inner matrix index, in blocks of equal
(coordinate monomial, base monomial), and merges the keys of two blocks
once per pair that meets.  Each emitted (row, column, base monomial) group
becomes one ``Equation``, which keeps the coordinate monomials as its keys:
nothing in emission, evaluation, restriction or the JSON output builds a
polynomial over all the coordinates.  A ``SolutionSpace`` keeps its basis
as the solve's sparse terms and builds ``MatrixPolyMap``s only on request;
a point's maps enter the sparse form through ``_terms`` alone.  The
curvature formula is written out here rather than taken from
``connections``, so that ``check_point``'s flatness cross-check stays
an independent computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .connections import FlatnessReport, LogConnection, MatrixPolyMap, is_flat
from .divisor import DivisorError, FreeDivisor
from .liealg import ResidueData, validate_residue
from .linear import IntegerRows, RationalMatrix, block_kernel, rref
from .polynomials import Monomial, WeightedPoly, monomial_text, monomials_of_degree, terms_text
from .univariate import as_fraction, power


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
    """

    slot: Tuple[str, int]
    matrix_size: int
    weights: Tuple[int, ...]
    elements: Tuple[Tuple[int, Tuple[_Term, ...]], ...]

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
    def basis(self) -> Tuple[MatrixPolyMap, ...]:
        maps = []
        for _, terms in self.elements:
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


def _scalar(value: Fraction) -> _Scalar:
    """An integral rational as an int; any other rational unchanged."""
    return value.numerator if value.denominator == 1 else value


def _constant(mat: RationalMatrix, n: int) -> _Value:
    """A constant matrix: its nonzero entries at the zero monomial of n variables."""
    zero = (0,) * n
    return {((), r, c, zero): _scalar(v) for r, row in enumerate(mat.entries) for c, v in enumerate(row) if v}


def _terms(mp: MatrixPolyMap) -> List[_Term]:
    """The (row, column, monomial, coefficient) terms of a map, row-major."""
    return [(r, c, mono, _scalar(coeff)) for r, row in enumerate(mp.entries)
            for c, entry in enumerate(row) for mono, coeff in entry.terms.items()]


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


def _matmul(a: _Value, b: _Value) -> _Value:
    """Multiply only the term pairs whose inner matrix index matches.

    A block is the terms of one side with one (coordinate monomial, base
    monomial).  Both sides are joined on the inner index s, block by block;
    each pair of blocks that meets on some s gets its product's coordinate
    monomial and base monomial once, and then only scalar products remain.
    """
    def blocks(value: _Value, inner: int, outer: int):
        """The value's (coordinate monomial, base monomial) blocks, numbered,
        and per inner index, per block number, the (outer index, coefficient) terms."""
        numbers: Dict[tuple, int] = {}
        by_inner: Dict[int, Dict[int, list]] = {}
        for term, coeff in value.items():
            number = numbers.setdefault((term[0], term[3]), len(numbers))
            by_inner.setdefault(term[inner], {}).setdefault(number, []).append((term[outer], coeff))
        return list(numbers), by_inner

    names_a, left = blocks(a, 2, 1)
    names_b, right = blocks(b, 1, 2)
    # (block of a, block of b) -> their (row terms, column terms) on each shared s
    pairs: Dict[Tuple[int, int], list] = {}
    for s, blocks_a in left.items():
        blocks_b = right.get(s)
        if blocks_b:
            for block_a, rows in blocks_a.items():
                for block_b, cols in blocks_b.items():
                    pairs.setdefault((block_a, block_b), []).append((rows, cols))
    products: Dict[tuple, Dict[Tuple[int, int], _Scalar]] = {}
    for (block_a, block_b), parts in pairs.items():
        (key_a, mono_a), (key_b, mono_b) = names_a[block_a], names_b[block_b]
        entries = products.setdefault((tuple(sorted(key_a + key_b)), tuple(map(add, mono_a, mono_b))), {})
        for rows, cols in parts:
            for r, coeff_a in rows:
                for c, coeff_b in cols:
                    entries[r, c] = entries.get((r, c), 0) + coeff_a * coeff_b
    return {(key, r, c, mono): coeff for (key, mono), entries in products.items()
            for (r, c), coeff in entries.items() if coeff}


def _commutator(a: _Value, b: _Value) -> _Value:
    return _sub(_matmul(a, b), _matmul(b, a))


# per eigenvalue lam of the grading, per matrix M of its eigenspace: M, and
# [C_k, M] for each frame direction k; filled as the slot solves reach lam
_Brackets = Dict[int, List[Tuple[_Value, List[_Value]]]]


def _solve_slot(d: FreeDivisor, residue: ResidueData, brackets: _Brackets, shift: int,
                offsets: Sequence[_Scalar]) -> List[Tuple[int, Tuple[_Term, ...]]]:
    """The (degree, terms) basis of one slot's solution space, in increasing degree.

    Equation k is frame direction k (toral ones first, then semisimple ones),
    with C_k its residue value.  The candidates of degree lam + shift are z^a * M
    for each monomial z^a of that degree and M in the lam-eigenspace of
    ``residue.grading_eigenspaces``.  A candidate's residual
    V_k(z^a) * M - z^a * (offsets[k] * M + [C_k, M]) is written straight into a
    sparse column keyed by (k, row, column, monomial), and ``block_kernel``
    row-reduces each connected block of the columns.  The commutators [C_k, M]
    depend on the residue alone: they are read from ``brackets``, which the
    slots of one call share, and computed there on first use, once per
    distinct residue value.

    Before any column is built, the characters of the diagonal frame fields
    sieve the monomials.  A diagonal toral or semisimple field V_k
    (``FreeDivisor.diagonal_characters``) has V_k(z^a) = <chi_k, a> * z^a, so
    only the candidates z^a * M_i reach the rows (k, ., ., a), and there they
    read z^a * (q * M_i - [C_k, M_i]) with q = <chi_k, a> - offsets[k].  A
    kernel vector with coefficients x_i on them thus has
    sum_i x_i * (q * M_i - [C_k, M_i]) = 0.  When a rank test finds these
    columns independent, every candidate of monomial a is zero in every
    kernel vector, and none of them is built.  This is the one place where
    forced-zero candidates are dropped, and dropping them leaves
    ``rref(dense).kernel`` as it is: a column that is zero in every kernel
    vector is in the span of no set of other columns, so it is a pivot of
    every reduction, and each other column stays pivot or free as it was.
    The test is cached per (lam, first slot with an equal C_k, q).
    """
    fields = [d.frame[i].field for i in d.toral_indices + d.semisimple_indices]
    # each direction's residue value, and the first direction with an equal value
    matrices = tuple(residue.s_list) + tuple(residue.chi or ())
    first: Dict[RationalMatrix, int] = {}
    same = [first.setdefault(value, k) for k, value in enumerate(matrices)]
    characters = [(k, chi, _scalar(offsets[k])) for k, chi in d.diagonal_characters]
    admits: Dict[Tuple[int, int, _Scalar], bool] = {}

    def triples(value: _Value) -> List[Tuple[int, int, Fraction]]:
        return [(r, c, v) for (_, r, c, _), v in value.items()]

    def admitted(lam: int, k: int, q: _Scalar) -> bool:
        """Whether some nonzero M of the lam-eigenspace has [C_k, M] = q * M."""
        key = (lam, same[k], q)
        if key not in admits:
            pairs = brackets[lam]
            rows: Dict[Tuple[int, int], List[_Scalar]] = {}
            for i, (eig, commutators) in enumerate(pairs):
                for r, c, v in triples(_sub({term: q * v for term, v in eig.items()}, commutators[k])):
                    rows.setdefault((r, c), [0] * len(pairs))[i] = v
            admits[key] = not rows or rref(IntegerRows.cleared(list(rows.values()), len(pairs))).rank < len(pairs)
        return admits[key]

    out: List[Tuple[int, Tuple[_Term, ...]]] = []
    for lam, basis in sorted(residue.grading_eigenspaces.items()):
        degree = lam + shift
        monos = monomials_of_degree(d.weights, degree)
        if monos and lam not in brackets:
            values = {k: _constant(matrices[k], d.n) for k in first.values()}
            brackets[lam] = []
            for eig in (_constant(mat, d.n) for mat in basis):
                distinct = {k: _commutator(value, eig) for k, value in values.items()}
                brackets[lam].append((eig, [distinct[k] for k in same]))
        if characters:
            monos = [mono for mono in monos
                     if all(admitted(lam, k, sum(map(mul, chi, mono)) - offset) for k, chi, offset in characters)]
        if not monos:
            continue
        # per eigenmatrix M: the (row, column, value) of M, and of offsets[k] * M + [C_k, M] per k
        eigendata = [
            (triples(eig), [triples(_collect([*bracket.items(), *((key, offset * v) for key, v in eig.items())]))
                            for bracket, offset in zip(commutators, offsets)])
            for eig, commutators in brackets[lam]
        ]
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
            out.append((degree, tuple((r, c, mono, _scalar(v)) for (r, c, mono), v
                                      in sorted(sums.items(), key=lambda item: item[0][:2]) if v)))
    return out


def solve_component_spaces(d: FreeDivisor, residue: ResidueData) -> List[SolutionSpace]:
    """One solution space per graded (w-kind) frame slot.

    Each slot is solved alone.  Its basis elements solve every toral
    direction equation E_i(B) = n_i B + [S_i, B]_c and, when chi is present,
    every semisimple direction equation V_a(B) = c_a B + [chi_a, B]_c, with
    c_a the constant of [V_a, Z] on the slot's own field Z.  A frame whose
    semisimple fields move one graded slot into another has no per-slot
    basis and raises DivisorError.
    """
    _check_pair(d, residue)
    return _component_spaces(d, residue, {})


def _component_spaces(d: FreeDivisor, residue: ResidueData, brackets: _Brackets) -> List[SolutionSpace]:
    """Each graded slot solved alone: its grade shifts the degrees, and its
    offsets are its toral grading constants, then its semisimple action on itself."""
    if not d.w_indices:
        return []
    toral_w, action = d.constants.toral_w, d.constants.semisimple_action
    if any(v for (_, b), row in action.items() for other, v in enumerate(row) if other != b):
        raise DivisorError("semisimple coupling mixes graded slots; per-slot bases are not defined for this divisor")
    semis = range(len(d.semisimple_indices))
    return [
        SolutionSpace(("component", b), residue.matrix_size, d.weights, tuple(_solve_slot(
            d, residue, brackets, d.frame[j].grade,
            [toral_w[(t, b)] for t in range(d.toral_count)] + [action[(a, b)][b] for a in semis])))
        for b, j in enumerate(d.w_indices)
    ]


def _correction_spaces(d: FreeDivisor, residue: ResidueData, brackets: _Brackets) -> List[SolutionSpace]:
    """One space per toral slot (a divisor has at least one), all with the basis of one solve."""
    elements = tuple(_solve_slot(d, residue, brackets, 0, [0] * (d.toral_count + len(d.semisimple_indices))))
    return [SolutionSpace(("correction", i), residue.matrix_size, d.weights, elements) for i in range(d.toral_count)]


def solve_correction_spaces(d: FreeDivisor, residue: ResidueData) -> List[SolutionSpace]:
    """One copy per toral slot of the space solving E_i(N) = [S_i, N]_c.

    The corrections for every toral slot satisfy the same linear equations,
    so the returned spaces share one ``elements`` tuple computed once.
    """
    _check_pair(d, residue)
    return _correction_spaces(d, residue, {})


def symmetry_algebra(d: FreeDivisor, residue: ResidueData) -> SolutionSpace:
    """Graded Lie algebra of infinitesimal symmetries fixing the residue: the
    first correction space, whose basis elements are the symmetries.

    The degree-zero part is the centralizer of the residue values inside
    gl_m; the strictly positive part exponentiates to polynomial gauge
    transformations equal to the identity at the origin.
    """
    _check_pair(d, residue)
    return _correction_spaces(d, residue, {})[0]


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
    coefficient; ``ncoords`` is the number of coordinates of the system.
    """

    tag: str  # "curvature" | "ZN" | "NN-commute" | "nilpotency"
    frame_slots: Tuple[int, ...]
    entry: Tuple[int, int]
    base_monomial: Monomial
    terms: Dict[Tuple[int, ...], Fraction] = field(hash=False)  # equations stay hashable
    ncoords: int

    @cached_property
    def poly(self) -> WeightedPoly:
        """The equation as a dense polynomial over max(ncoords, 1) unit-weight
        variables, built on first access."""
        width = max(self.ncoords, 1)
        return WeightedPoly((1,) * width,
                            {tuple(exponent_vector(key, width)): coeff for key, coeff in self.terms.items()})

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
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

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """The value at a point given by one Fraction per coordinate."""
        total = Fraction(0)
        for key, coeff in self.terms.items():
            for index in key:
                coeff *= values[index]
            total += coeff
        return total


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
    the (matrix entry, base monomial) pair they came from.
    """

    divisor_name: str
    matrix_size: int
    coordinates: Tuple[Coordinate, ...]
    equations: Tuple[Equation, ...]
    summary: Dict[str, object]

    @property
    def coordinate_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.coordinates)

    def evaluate(self, values: Sequence[Fraction]) -> List[Fraction]:
        if len(values) != len(self.coordinates):
            raise ValueError("coordinate value count mismatch")
        values = [as_fraction(v) for v in values]
        return [eq.evaluate(values) for eq in self.equations]


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
    symmetry: SolutionSpace  # the first correction space
    system: PolySystem


def moduli_system(d: FreeDivisor, residue: ResidueData) -> ModuliProblem:
    """Emit the defining equations of the flat locus in normal-form coordinates.

    One affine coordinate is introduced per basis vector of the component and
    correction spaces.  The equations are grouped and tagged: quadratic
    curvature matching on pairs of graded slots, compatibility of corrections
    with components (ZN), pairwise commutation of corrections (NN-commute),
    and entrywise nilpotency.  Ordering is deterministic for byte-stable
    output.  Coefficients are ints while they are integral, and every matrix
    product is the block product ``_matmul``; each equation keeps its
    coordinate monomials as sparse keys.
    """
    _check_pair(d, residue)
    m = residue.matrix_size
    brackets: _Brackets = {}
    comp_spaces = _component_spaces(d, residue, brackets)
    corr_spaces = _correction_spaces(d, residue, brackets)

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
    frame_value: Dict[int, _Value] = {
        k: _constant(value, d.n)
        for k, value in zip(d.toral_indices + d.semisimple_indices, tuple(residue.s_list) + tuple(residue.chi or ()))
    }
    frame_value.update(zip(d.w_indices, comps))

    def apply(i: int, value: _Value) -> _Value:
        """Frame field i applied to each base monomial of a value."""
        return _collect(
            ((key, r, c, image), coeff * image_coeff)
            for (key, r, c, mono), coeff in value.items()
            for image, image_coeff in d.frame[i].field.on_monomial(mono).items()
        )

    equations: List[Equation] = []

    def split_into_equations(tag: str, frame_slots: Tuple[int, ...], value: _Value):
        groups: Dict[Tuple[int, int, Monomial], Dict[Tuple[int, ...], Fraction]] = {}
        for (key, r, c, base), coeff in value.items():
            groups.setdefault((r, c, base), {})[key] = Fraction(coeff)
        for r, c, base in sorted(groups, key=lambda g: (g[0], g[1], degree(g[2]), g[2])):
            equations.append(Equation(tag=tag, frame_slots=frame_slots, entry=(r, c), base_monomial=base,
                                      terms=groups[(r, c, base)], ncoords=ncoords))

    # curvature equations on pairs of graded slots
    for a, i in enumerate(d.w_indices):
        for b in range(a + 1, len(d.w_indices)):
            j = d.w_indices[b]
            value = _sub(apply(i, comps[b]), apply(j, comps[a]))
            for k, coeff in enumerate(d.structure.coefficients(i, j)):
                # c_ij^k times the identity matrix
                scalar = {((), r, r, mono): _scalar(c) for mono, c in coeff.terms.items() for r in range(m)}
                value = _sub(value, _matmul(frame_value[k], scalar))
            value = _sub(value, _commutator(comps[a], comps[b]))
            split_into_equations("curvature", (i, j), value)

    # graded fields applied to corrections
    for a, i in enumerate(d.w_indices):
        for l, correction in enumerate(corrs):
            value = _sub(apply(i, correction), _commutator(comps[a], correction))
            split_into_equations("ZN", (i, d.toral_indices[l]), value)

    # corrections commute pairwise
    for l1 in range(d.toral_count):
        for l2 in range(l1 + 1, d.toral_count):
            value = _commutator(corrs[l1], corrs[l2])
            split_into_equations("NN-commute", (d.toral_indices[l1], d.toral_indices[l2]), value)

    # corrections are nilpotent, encoded entrywise
    for l, correction in enumerate(corrs):
        split_into_equations("nilpotency", (d.toral_indices[l],), power(correction, m, _matmul))

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
    )
    return ModuliProblem(
        divisor=d,
        residue=residue,
        component_spaces=tuple(comp_spaces),
        correction_spaces=tuple(corr_spaces),
        symmetry=corr_spaces[0],
        system=system,
    )


# ------------------------------------------------------------------- points


@dataclass(frozen=True)
class ModuliPoint:
    """Candidate normal-form data: one component map per graded slot and one
    correction map per toral slot."""

    components: Tuple[MatrixPolyMap, ...]
    corrections: Tuple[MatrixPolyMap, ...]


def coordinates_of(point: ModuliPoint, problem: ModuliProblem) -> Tuple[Fraction, ...]:
    """Express a point in the emitted coordinates; MembershipError if outside."""
    values: List[Fraction] = []
    slots = list(problem.component_spaces) + list(problem.correction_spaces)
    given = list(point.components) + list(point.corrections)
    if len(point.components) != len(problem.component_spaces):
        raise MembershipError("wrong number of component maps")
    if len(point.corrections) != len(problem.correction_spaces):
        raise MembershipError("wrong number of correction maps")
    for space, target in zip(slots, given):
        values.extend(_span_coordinates(space, target))
    return tuple(values)


def _span_coordinates(space: SolutionSpace, target: MatrixPolyMap) -> List[Fraction]:
    if target.size != space.matrix_size:
        raise MembershipError("matrix size mismatch")
    if not space.elements:
        if target.is_zero():
            return []
        raise MembershipError(f"nonzero value in an empty solution space {space.slot}")
    # one row per (row, column, monomial) of any element; the target is the last column
    width = space.dimension
    rows: Dict[Tuple[int, int, Monomial], List[_Scalar]] = {}
    for col, terms in enumerate([terms for _, terms in space.elements] + [_terms(target)]):
        for r, c, mono, coeff in terms:
            row = rows.get((r, c, mono))
            if row is None:
                row = rows[(r, c, mono)] = [0] * (width + 1)
            row[col] = coeff
    result = rref(IntegerRows.cleared(list(rows.values()), width, augmented=True))
    if result.inconsistent or result.solution is None:
        raise MembershipError(f"value does not lie in the span of solution space {space.slot}")
    if result.rank < width:
        # basis elements are independent by construction; a rank drop here is a bug
        raise ArithmeticError("solution space basis is not independent; broken invariant")
    return list(result.solution)


def assemble_connection(d: FreeDivisor, residue: ResidueData, point: ModuliPoint,
                        problem: Optional[ModuliProblem] = None) -> LogConnection:
    """Build the connection attached to a normal-form point.

    Toral components are S_i + N_i, semisimple components are the constant
    chi values, and each graded component is B_j corrected by the pairing of
    the grading characters with the graded field times the corrections.
    Membership of the point in the solution spaces is enforced.
    """
    problem = problem or moduli_system(d, residue)
    coordinates_of(point, problem)  # membership check
    return _assemble(d, residue, point)


def _assemble(d: FreeDivisor, residue: ResidueData, point: ModuliPoint) -> LogConnection:
    """The connection of a point already known to lie in the solution spaces."""
    pairings = d.pairings if d.w_indices else ()
    components: List[MatrixPolyMap] = []
    toral_pos = {idx: pos for pos, idx in enumerate(d.toral_indices)}
    semis_pos = {idx: pos for pos, idx in enumerate(d.semisimple_indices)}
    w_pos = {idx: pos for pos, idx in enumerate(d.w_indices)}
    for idx in range(d.n):
        if idx in toral_pos:
            pos = toral_pos[idx]
            base = MatrixPolyMap.from_constant(residue.s_list[pos], d.weights)
            components.append(base + point.corrections[pos])
        elif idx in semis_pos:
            components.append(MatrixPolyMap.from_constant(residue.chi[semis_pos[idx]], d.weights))
        else:
            pos = w_pos[idx]
            total = point.components[pos]
            for i in range(d.toral_count):
                factor = pairings[i][pos]
                if not factor.is_zero():
                    total = total + point.corrections[i].scale(factor)
            components.append(total)
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

    The flatness verdict from the direct curvature of the assembled
    connection must agree with the vanishing of all curvature, ZN, and
    NN-commute equations; disagreement means one of the two independent
    implementations is wrong, so it raises instead of returning.
    """
    problem = problem or moduli_system(d, residue)
    values = coordinates_of(point, problem)
    results = problem.system.evaluate(values)
    violations = tuple(i for i, v in enumerate(results) if v != 0)
    flat_tags = ("curvature", "ZN", "NN-commute")
    system_flat = all(
        results[i] == 0 for i, eq in enumerate(problem.system.equations) if eq.tag in flat_tags
    )
    report = is_flat(_assemble(d, residue, point))
    if report.flat != system_flat:
        raise ArithmeticError(
            "emitted system and direct curvature disagree on flatness; broken invariant"
        )
    # nilpotency tags are cross-checked against a direct matrix power
    for l, correction in enumerate(point.corrections):
        direct = correction.power(residue.matrix_size).is_zero()
        tagged = all(
            results[i] == 0
            for i, eq in enumerate(problem.system.equations)
            if eq.tag == "nilpotency" and eq.frame_slots == (d.toral_indices[l],)
        )
        if direct != tagged:
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
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for key, coeff in eq.terms.items():
            for index in key:
                if index in pinned:
                    coeff *= pinned[index]
            new_key = tuple(keep_pos[index] for index in key if index in keep_pos)
            terms[new_key] = terms.get(new_key, 0) + coeff
        terms = {key: coeff for key, coeff in terms.items() if coeff}
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
    linear_rows: List[List[Union[int, Fraction]]] = []
    higher: List[Equation] = []
    for eq in system.equations:
        if not eq.terms:
            continue
        if max(map(len, eq.terms)) <= 1:
            # coefficients of the coordinates, then the right-hand side
            row = [0] * (ncoords + 1)
            for key, coeff in eq.terms.items():
                if key:
                    row[key[0]] = coeff
                else:
                    row[ncoords] = -coeff
            linear_rows.append(row)
        else:
            higher.append(eq)
    result = rref(IntegerRows.cleared(linear_rows, ncoords, augmented=True))
    if result.inconsistent:
        return LinearCertificate("inconsistent", None, "linear subsystem is already inconsistent")
    if result.kernel:
        return LinearCertificate("undetermined", None, None)
    solution = result.solution
    for eq in higher:
        value = eq.evaluate(solution)
        if value != 0:
            witness = (
                f"equation tagged {eq.tag} at entry {eq.entry} evaluates to {value} "
                "at the unique solution of the linear part"
            )
            return LinearCertificate("inconsistent", tuple(solution), witness)
    return LinearCertificate("consistent", tuple(solution), None)
