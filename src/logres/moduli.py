"""Finite-dimensional normal-form data for flat logarithmic connections.

Given a divisor and a semisimple residue, the linear compatibility equations
for the connection components have graded polynomial solutions whose degrees
are pinned by the integer eigenvalues of ad of the grading residue value.
This module computes exact bases of those solution spaces, one degree at a
time: every candidate z^a * M gets its residual as a sparse column, and the
columns are row-reduced block by block, where a block is a connected set of
columns sharing equation rows.  The toral directions act on monomials with
integer weights, so the blocks are small.  Frame fields act on monomials
through ``VectorFieldPoly.on_monomial`` alone, in the solve and in emission,
and the brackets of residue values with eigenmatrices multiply only nonzero
entries.  It then emits the polynomial system cutting out the flat locus
inside them, assembles the connection attached to a point, and cross-checks
the emitted system against a direct curvature computation.

Emitted values are flat dicts from (coordinate monomial, row, column, base
monomial) to a rational coefficient; a coordinate monomial is the sorted
tuple of the coordinate indices a term multiplies, and each (row, column,
base monomial) group becomes one equation.  The curvature formula is written
out here rather than taken from ``connections``, so that ``check_point``'s
flatness cross-check stays an independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .connections import FlatnessReport, LogConnection, MatrixPolyMap, is_flat
from .divisor import DivisorError, FreeDivisor
from .liealg import ResidueData, validate_residue
from .linear import RationalMatrix, block_kernel, rref
from .polynomials import Monomial, WeightedPoly, monomial_text, monomials_of_degree
from .univariate import power


class MembershipError(ValueError):
    """Raised when a value does not lie in the advertised solution space."""


class ResidueError(ValueError):
    """Raised when residue data is rejected by validation."""


@dataclass(frozen=True)
class SolutionSpace:
    """Exact graded basis of one linear solution space.

    ``slot`` is ("component", w-position) or ("correction", toral-position);
    basis elements are E-homogeneous matrix polynomial maps and
    ``dims_by_degree`` counts them per E-degree.
    """

    slot: Tuple[str, int]
    matrix_size: int
    basis: Tuple[MatrixPolyMap, ...]
    dims_by_degree: Dict[int, int]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class SymmetryAlgebra:
    """Infinitesimal gauge symmetries of the trivial residue connection."""

    dimension: int
    constant_dimension: int
    positive_dimension: int
    basis: Tuple[MatrixPolyMap, ...]
    dims_by_degree: Dict[int, int]


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


# the nonzero entries (row, column, value) of an m x m matrix, row-major
_Entries = List[Tuple[int, int, Fraction]]


def _entries(mat: RationalMatrix) -> _Entries:
    return [(r, c, v) for r, row in enumerate(mat.entries) for c, v in enumerate(row) if v]


def _bracket(a: _Entries, b: _Entries) -> _Entries:
    """[A, B] = AB - BA, multiplying only the entry pairs whose inner index matches."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for left, right, sign in ((a, b, 1), (b, a, -1)):
        rows: Dict[int, list] = {}
        for s, c, y in right:
            rows.setdefault(s, []).append((c, y))
        for r, s, x in left:
            for c, y in rows.get(s, ()):
                out[r, c] = out.get((r, c), 0) + sign * x * y
    return sorted((r, c, v) for (r, c), v in out.items() if v)


@dataclass(frozen=True)
class _Channel:
    shift: int
    toral_offsets: Tuple[Fraction, ...]
    # coupling[a][other_channel] = constant coefficient of the other channel
    # in the semisimple direction a equation
    coupling: Tuple[Tuple[Fraction, ...], ...]


def _solve_channels(d: FreeDivisor, residue: ResidueData,
                    channels: Sequence[_Channel]) -> List[Tuple[int, Tuple[MatrixPolyMap, ...]]]:
    """Joint graded solve over all channels; returns (degree, tuple) basis vectors.

    The candidates of a degree are z^a * M for each channel, monomial z^a and
    M in ``residue.grading_eigenspaces``.  Equation k * len(channels) + e
    is frame direction k (toral ones first, then semisimple ones) applied to
    channel e.  A candidate's residual is written straight into a sparse column
    keyed by (equation, row, column, monomial), from V_k(z^a) * M minus
    z^a * (shift * M + [C_k, M]), with C_k the residue value of direction k;
    ``block_kernel`` then row-reduces each connected block of columns.
    """
    m = residue.matrix_size
    weights = d.weights
    fields = [d.frame[i].field for i in d.toral_indices + d.semisimple_indices]
    toral_count = d.toral_count
    width = len(channels)

    value_entries = [_entries(value) for value in tuple(residue.s_list) + tuple(residue.chi or ())]
    # per eigenvalue: (entries of M, entries of [C_k, M] per k) for each eigenmatrix M
    eigendata = {
        lam: [(entries, [_bracket(value, entries) for value in value_entries])
              for entries in map(_entries, basis)]
        for lam, basis in residue.grading_eigenspaces.items()
    }
    # per (direction, monomial): the terms of V_k(z^a)
    images: Dict[Tuple[int, Monomial], Dict[Monomial, Fraction]] = {}

    def residual(c_idx: int, mono: Monomial, entries, brackets) -> Dict[tuple, Fraction]:
        column: Dict[tuple, Fraction] = {}
        for k, field in enumerate(fields):
            image = images.get((k, mono))
            if image is None:
                image = images[(k, mono)] = field.on_monomial(mono)
            own = k * width + c_idx
            for image_mono, coeff in image.items():
                for r, c, v in entries:
                    key = (own, r, c, image_mono)
                    column[key] = column.get(key, 0) + coeff * v
            for r, c, v in brackets[k]:
                key = (own, r, c, mono)
                column[key] = column.get(key, 0) - v
            # equation (k, e) also subtracts a constant multiple of the candidate
            for e, ch in enumerate(channels):
                if k < toral_count:
                    shift = ch.toral_offsets[k] if e == c_idx else 0
                else:
                    shift = ch.coupling[k - toral_count][c_idx]
                if shift:
                    for r, c, v in entries:
                        key = (k * width + e, r, c, mono)
                        column[key] = column.get(key, 0) - shift * v
        return {key: v for key, v in column.items() if v}

    monomials = {degree: monomials_of_degree(weights, degree)
                 for degree in {lam + ch.shift for ch in channels for lam in eigendata}}
    out: List[Tuple[int, Tuple[MatrixPolyMap, ...]]] = []
    for degree, monos in sorted(monomials.items()):
        candidates: List[Tuple[int, Monomial, list]] = []
        columns: List[Dict[tuple, Fraction]] = []
        for c_idx, ch in enumerate(channels):
            lam = degree - ch.shift
            if lam not in eigendata:
                continue
            for mono in monos:
                for entries, brackets in eigendata[lam]:
                    candidates.append((c_idx, mono, entries))
                    columns.append(residual(c_idx, mono, entries, brackets))
        for vec in block_kernel(columns):
            parts: List[Dict[Tuple[int, int], Dict[Monomial, Fraction]]] = [{} for _ in channels]
            for cand_pos, coeff in vec.items():
                c_idx, mono, entries = candidates[cand_pos]
                for r, c, v in entries:
                    terms = parts[c_idx].setdefault((r, c), {})
                    terms[mono] = terms.get(mono, 0) + coeff * v
            out.append((degree, tuple(
                MatrixPolyMap([[WeightedPoly(weights, part.get((r, c))) for c in range(m)] for r in range(m)])
                for part in parts
            )))
    return out


def _component_channels(d: FreeDivisor) -> List[_Channel]:
    w_count = len(d.w_indices)
    toral_count = d.toral_count
    semis_count = len(d.semisimple_indices)
    channels = []
    for b in range(w_count):
        offsets = tuple(d.constants.toral_w[(i, b)] for i in range(toral_count))
        # coupling[a][other] multiplies the other channel in the equation of
        # semisimple direction a for this channel
        coupling = tuple(
            tuple(d.constants.semisimple_action[(a, b)][other] for other in range(w_count))
            for a in range(semis_count)
        )
        channels.append(_Channel(shift=d.frame[d.w_indices[b]].grade, toral_offsets=offsets, coupling=coupling))
    return channels


def solve_component_spaces(d: FreeDivisor, residue: ResidueData) -> List[SolutionSpace]:
    """One solution space per graded (w-kind) frame slot.

    Each basis element solves every toral direction equation
    E_i(B) = n_i B + [S_i, B]_c and, when chi is present, the coupled
    semisimple direction equations.
    """
    _check_pair(d, residue)
    return _component_spaces(d, residue)


def _component_spaces(d: FreeDivisor, residue: ResidueData) -> List[SolutionSpace]:
    channels = _component_channels(d)
    if not channels:
        return []
    solutions = _solve_channels(d, residue, channels)
    per_slot: List[List[Tuple[int, MatrixPolyMap]]] = [[] for _ in channels]
    for degree, parts in solutions:
        support = [c_idx for c_idx, part in enumerate(parts) if not part.is_zero()]
        if len(support) > 1:
            raise DivisorError(
                "semisimple coupling mixes graded slots; per-slot bases are not defined for this divisor"
            )
        if support:
            per_slot[support[0]].append((degree, parts[support[0]]))
    spaces = []
    for b, items in enumerate(per_slot):
        dims: Dict[int, int] = {}
        for degree, _ in items:
            dims[degree] = dims.get(degree, 0) + 1
        spaces.append(
            SolutionSpace(
                slot=("component", b),
                matrix_size=residue.matrix_size,
                basis=tuple(mp for _, mp in items),
                dims_by_degree=dims,
            )
        )
    return spaces


def _correction_space(d: FreeDivisor, residue: ResidueData) -> Tuple[Tuple[MatrixPolyMap, ...], Dict[int, int]]:
    toral_count = d.toral_count
    semis_count = len(d.semisimple_indices)
    channel = _Channel(
        shift=0,
        toral_offsets=tuple(Fraction(0) for _ in range(toral_count)),
        coupling=tuple((Fraction(0),) for _ in range(semis_count)),
    )
    solutions = _solve_channels(d, residue, [channel])
    dims: Dict[int, int] = {}
    basis = []
    for degree, parts in solutions:
        dims[degree] = dims.get(degree, 0) + 1
        basis.append(parts[0])
    return tuple(basis), dims


def solve_correction_spaces(d: FreeDivisor, residue: ResidueData) -> List[SolutionSpace]:
    """One copy per toral slot of the space solving E_i(N) = [S_i, N]_c.

    The corrections for every toral slot satisfy the same linear equations,
    so the returned spaces share one basis computed once.
    """
    _check_pair(d, residue)
    basis, dims = _correction_space(d, residue)
    return [
        SolutionSpace(slot=("correction", i), matrix_size=residue.matrix_size, basis=basis, dims_by_degree=dict(dims))
        for i in range(d.toral_count)
    ]


def symmetry_algebra(d: FreeDivisor, residue: ResidueData) -> SymmetryAlgebra:
    """Graded Lie algebra of infinitesimal symmetries fixing the residue.

    The degree-zero part is the centralizer of the residue values inside
    gl_m; the strictly positive part exponentiates to polynomial gauge
    transformations equal to the identity at the origin.
    """
    _check_pair(d, residue)
    return _symmetry_algebra(d, residue)


def _symmetry_algebra(d: FreeDivisor, residue: ResidueData) -> SymmetryAlgebra:
    basis, dims = _correction_space(d, residue)
    return SymmetryAlgebra(
        dimension=len(basis),
        constant_dimension=dims.get(0, 0),
        positive_dimension=sum(count for degree, count in dims.items() if degree > 0),
        basis=basis,
        dims_by_degree=dims,
    )


# ----------------------------------------------------------------- the system


@dataclass(frozen=True)
class Coordinate:
    name: str
    slot: Tuple[str, int]
    basis_index: int
    degree: int


@dataclass(frozen=True)
class Equation:
    tag: str  # "curvature" | "ZN" | "NN-commute" | "nilpotency"
    frame_slots: Tuple[int, ...]
    entry: Tuple[int, int]
    base_monomial: Monomial
    poly: WeightedPoly  # in the coordinate ring


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
        return [eq.poly.evaluate(values) for eq in self.equations]


def _coordinate_name(prefix: str, slot_number: int, terms: Sequence[tuple], variables: Sequence[str], index: int) -> str:
    if len(terms) == 1 and terms[0][3] == 1:
        r, c, mono, _ = terms[0]
        body = f"{prefix}{slot_number}[{r + 1},{c + 1}]"
        if any(mono):
            body += "*" + monomial_text(mono, variables)
        return body
    return f"{prefix}{slot_number}#{index + 1}"


# an emitted value: (coordinate monomial, row, column, base monomial) -> coefficient
_Value = Dict[Tuple[Tuple[int, ...], int, int, Monomial], Fraction]


def _collect(terms: Iterable[Tuple[tuple, Fraction]]) -> _Value:
    """Sum the coefficients of equal keys and drop the zero ones."""
    out: _Value = {}
    for key, coeff in terms:
        out[key] = out[key] + coeff if key in out else coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _sub(a: _Value, b: _Value) -> _Value:
    return _collect([*a.items(), *((key, -coeff) for key, coeff in b.items())])


def _matmul(a: _Value, b: _Value) -> _Value:
    """Multiply only the term pairs whose inner matrix index matches."""
    rows: Dict[int, list] = {}
    for (key, s, c, mono), coeff in b.items():
        rows.setdefault(s, []).append((key, c, mono, coeff))
    return _collect(
        ((tuple(sorted(key_a + key_b)), r, c, tuple(x + y for x, y in zip(mono_a, mono_b))), coeff_a * coeff_b)
        for (key_a, r, s, mono_a), coeff_a in a.items()
        for key_b, c, mono_b, coeff_b in rows.get(s, ())
    )


def _commutator(a: _Value, b: _Value) -> _Value:
    return _sub(_matmul(a, b), _matmul(b, a))


@dataclass(frozen=True)
class ModuliProblem:
    """Solution spaces plus the emitted polynomial system, bundled."""

    divisor: FreeDivisor
    residue: ResidueData
    component_spaces: Tuple[SolutionSpace, ...]
    correction_spaces: Tuple[SolutionSpace, ...]
    symmetry: SymmetryAlgebra
    system: PolySystem


def moduli_system(d: FreeDivisor, residue: ResidueData) -> ModuliProblem:
    """Emit the defining equations of the flat locus in normal-form coordinates.

    One affine coordinate is introduced per basis vector of the component and
    correction spaces.  The equations are grouped and tagged: quadratic
    curvature matching on pairs of graded slots, compatibility of corrections
    with components (ZN), pairwise commutation of corrections (NN-commute),
    and entrywise nilpotency.  Ordering is deterministic for byte-stable
    output.
    """
    _check_pair(d, residue)
    m = residue.matrix_size
    comp_spaces = _component_spaces(d, residue)
    symmetry = _symmetry_algebra(d, residue)
    corr_spaces = [
        SolutionSpace(slot=("correction", i), matrix_size=m, basis=symmetry.basis,
                      dims_by_degree=dict(symmetry.dims_by_degree))
        for i in range(d.toral_count)
    ]

    def degree(mono: Monomial) -> int:
        return sum(w * e for w, e in zip(d.weights, mono))

    # each space's general element, sum over its coordinates t of t * basis element
    coordinates: List[Coordinate] = []
    general: List[_Value] = []
    for space in comp_spaces + corr_spaces:
        prefix = "B" if space.slot[0] == "component" else "N"
        value: _Value = {}
        for b_idx, element in enumerate(space.basis):
            terms = [(r, c, mono, coeff) for r, row in enumerate(element.entries)
                     for c, entry in enumerate(row) for mono, coeff in entry.terms.items()]
            value.update((((len(coordinates),), r, c, mono), coeff) for r, c, mono, coeff in terms)
            name = _coordinate_name(prefix, space.slot[1] + 1, terms, d.variables, b_idx)
            low = min((degree(mono) for _, _, mono, _ in terms), default=0)
            coordinates.append(Coordinate(name=name, slot=space.slot, basis_index=b_idx, degree=low))
        general.append(value)
    ncoords = len(coordinates)
    comps, corrs = general[:len(comp_spaces)], general[len(comp_spaces):]
    # what each frame slot k contributes through c_ij^k: S on toral, chi on semisimple, B on graded slots
    frame_value: Dict[int, _Value] = {
        k: {((), r, c, (0,) * d.n): v for r, c, v in _entries(value)}
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
    width = ncoords or 1  # a system without coordinates keeps one unused variable

    def split_into_equations(tag: str, frame_slots: Tuple[int, ...], value: _Value):
        groups: Dict[Tuple[int, int, Monomial], Dict[Monomial, Fraction]] = {}
        for (key, r, c, base), coeff in value.items():
            exponents = [0] * width
            for index in key:
                exponents[index] += 1
            groups.setdefault((r, c, base), {})[tuple(exponents)] = coeff
        for r, c, base in sorted(groups, key=lambda g: (g[0], g[1], degree(g[2]), g[2])):
            equations.append(Equation(tag=tag, frame_slots=frame_slots, entry=(r, c), base_monomial=base,
                                      poly=WeightedPoly((1,) * width, groups[(r, c, base)])))

    # curvature equations on pairs of graded slots
    for a, i in enumerate(d.w_indices):
        for b in range(a + 1, len(d.w_indices)):
            j = d.w_indices[b]
            value = _sub(apply(i, comps[b]), apply(j, comps[a]))
            for k, coeff in enumerate(d.structure.coefficients(i, j)):
                # c_ij^k times the identity matrix
                scalar = {((), r, r, mono): c for mono, c in coeff.terms.items() for r in range(m)}
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
        "dim_corrections_per_slot": symmetry.dimension,
        "dim_symmetry_constant": symmetry.constant_dimension,
        "dim_symmetry_positive": symmetry.positive_dimension,
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
        symmetry=symmetry,
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
    if not space.basis:
        if target.is_zero():
            return []
        raise MembershipError(f"nonzero value in an empty solution space {space.slot}")
    keys: Dict[Tuple[int, int, Monomial], int] = {}
    maps = list(space.basis) + [target]
    for mp in maps:
        for r in range(mp.size):
            for c in range(mp.size):
                for mono in mp[r, c].terms:
                    keys.setdefault((r, c, mono), len(keys))
    rows = [[Fraction(0)] * len(space.basis) for _ in range(len(keys))]
    rhs = [Fraction(0)] * len(keys)
    for b_idx, mp in enumerate(space.basis):
        for r in range(mp.size):
            for c in range(mp.size):
                for mono, coeff in mp[r, c].terms.items():
                    rows[keys[(r, c, mono)]][b_idx] = coeff
    for r in range(target.size):
        for c in range(target.size):
            for mono, coeff in target[r, c].terms.items():
                rhs[keys[(r, c, mono)]] = coeff
    result = rref(RationalMatrix(rows), rhs)
    if result.inconsistent or result.solution is None:
        raise MembershipError(f"value does not lie in the span of solution space {space.slot}")
    if result.rank < len(space.basis):
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
    new_equations: List[Equation] = []
    for eq in system.equations:
        substituted = eq.poly.substitute(
            {i: assignments[names[i]] for i in range(len(names)) if names[i] in assignments}
        )
        terms = {}
        for mono, coeff in substituted.terms.items():
            new_mono = [0] * (nkeep if nkeep else 1)
            for old, e in enumerate(mono):
                if e:
                    new_mono[keep_pos[old]] = e
            terms[tuple(new_mono)] = coeff
        poly = WeightedPoly((1,) * (nkeep if nkeep else 1), terms)
        if not poly.is_zero():
            new_equations.append(
                Equation(eq.tag, eq.frame_slots, eq.entry, eq.base_monomial, poly)
            )
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
    linear_rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    higher: List[Equation] = []
    for eq in system.equations:
        degree = eq.poly.total_degree()
        if degree is None:
            continue
        if degree <= 1:
            row = [Fraction(0)] * ncoords
            constant = Fraction(0)
            for mono, coeff in eq.poly.terms.items():
                if not any(mono):
                    constant = coeff
                else:
                    row[mono.index(1)] = coeff
            linear_rows.append(row)
            rhs.append(-constant)
        else:
            higher.append(eq)
    if not linear_rows:
        return LinearCertificate("undetermined", None, None)
    result = rref(RationalMatrix(linear_rows), rhs)
    if result.inconsistent:
        return LinearCertificate("inconsistent", None, "linear subsystem is already inconsistent")
    if result.kernel:
        return LinearCertificate("undetermined", None, None)
    solution = result.solution
    for eq in higher:
        value = eq.poly.evaluate(solution)
        if value != 0:
            witness = (
                f"equation tagged {eq.tag} at entry {eq.entry} evaluates to {value} "
                "at the unique solution of the linear part"
            )
            return LinearCertificate("inconsistent", tuple(solution), witness)
    return LinearCertificate("consistent", tuple(solution), None)
