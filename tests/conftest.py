import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import pytest

from logres import (
    FrameElement,
    FreeDivisor,
    MatrixPolyMap,
    RationalMatrix,
    ResidueData,
    VectorFieldPoly,
    WeightedPoly,
    ad_operator,
    catalog,
)
from logres.linear import IntegerRows, inverse, rref
from logres import LogConnection, is_flat
from logres.moduli import (MembershipError, PointReport, _build, _check_pair, _cleared, _conjugate, _span_coordinates,
                           _terms)
from logres.record import replace


@dataclass(frozen=True)
class SystemResult:
    """A x = b solved: the rank, pivots and kernel basis of A, and a solution unless b is out of A's image."""

    rank: int
    pivots: Tuple[int, ...]
    solution: Optional[Tuple[Fraction, ...]]
    inconsistent: bool
    kernel: Tuple[Tuple[Fraction, ...], ...]


def densify(vectors, cols: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Sparse kernel vectors, as ``rref`` returns them, as dense tuples of ``cols`` Fractions."""
    return tuple(tuple(vec.get(j, Fraction(0)) for j in range(cols)) for vec in vectors)


def solve_system(matrix: RationalMatrix, rhs) -> SystemResult:
    """matrix * x = rhs read from the kernel of [matrix | -rhs].

    The system is consistent exactly when the last column is free, and then
    the last kernel vector is (x, 1).  Every other kernel vector is 0 at the
    last column (its pivot row, if any, starts there), and cut to the first
    ``cols`` entries they are the kernel of ``matrix``.
    """
    cols = matrix.cols
    result = rref(IntegerRows.cleared([row + (-Fraction(v),) for row, v in zip(matrix.entries, rhs)], cols + 1))
    dense = densify(result.kernel, cols + 1)
    kernel = tuple(vec[:cols] for vec in dense if not vec[cols])
    solution = dense[-1][:cols] if dense and dense[-1][cols] else None
    return SystemResult(rank=cols - len(kernel), pivots=tuple(c for c in result.pivots if c < cols),
                        solution=solution, inconsistent=solution is None, kernel=kernel)


def oracle_span_coordinates(space, target: MatrixPolyMap) -> List[Fraction]:
    """A target's coefficients on a solution space's basis by one dense reduction.

    One row per (row, column, monomial) of any element of ``basis``, in the
    residue's own basis whatever the space's gauge, with the negated elements
    as columns and the target as the last one: target = sum x_j e_j makes
    (x, 1) the last kernel vector.  MembershipError outside the span,
    ArithmeticError when the basis is dependent.
    """
    if target.size != space.matrix_size:
        raise MembershipError("matrix size mismatch")
    width = space.dimension
    rows = {}
    for col, terms in enumerate([_terms(element) for element in space.basis] + [_terms(target)]):
        for r, c, mono, coeff in terms:
            row = rows.setdefault((r, c, mono), [0] * (width + 1))
            row[col] = coeff if col == width else -coeff
    kernel = densify(rref(IntegerRows.cleared(list(rows.values()), width + 1)).kernel, width + 1)
    if not kernel or not kernel[-1][width]:
        raise MembershipError(f"value does not lie in the span of solution space {space.slot}")
    if len(kernel) > 1:
        raise ArithmeticError("solution space basis is not independent")
    return list(kernel[-1][:width])


def span_coordinates(space, target: MatrixPolyMap) -> List[Fraction]:
    """The library's integer reading of one map on one space, as ``Fraction``s."""
    scale, values = _span_coordinates(space, target, *_cleared(_terms(target)))
    return [Fraction(value, scale) for value in values]


def fraction_span_coordinates(space, target: MatrixPolyMap) -> List[Fraction]:
    """The target's coefficients read at the pivots on ``Fraction`` terms, with one
    ``Counter`` sum as the membership check: the reading ``coordinates_of`` made
    before it read a point once on integers."""
    if target.size != space.matrix_size:
        raise MembershipError("matrix size mismatch")
    terms = _terms(target)
    if space.gauge is not None:
        terms = _conjugate(terms, space.gauge_inverse, space.gauge, len(target.weights))
    given = {(r, c, mono): coeff for r, c, mono, coeff in terms}
    values = [given.get(pivot, 0) for pivot in space.pivots]
    rebuilt = Counter()
    for value, (_, terms) in zip(values, space.elements):
        for r, c, mono, coeff in terms:
            rebuilt[r, c, mono] += value * coeff
    if {key: v for key, v in rebuilt.items() if v} != given:
        raise MembershipError(f"value does not lie in the span of solution space {space.slot}")
    return [Fraction(value) for value in values]


def oracle_coordinates_of(point, problem) -> Tuple[Fraction, ...]:
    """``coordinates_of`` composed from ``fraction_span_coordinates``, one space at a time."""
    if len(point.components) != len(problem.component_spaces):
        raise MembershipError("wrong number of component maps")
    if len(point.corrections) != len(problem.correction_spaces):
        raise MembershipError("wrong number of correction maps")
    values = []
    for space, target in zip(problem.component_spaces + problem.correction_spaces,
                             point.components + point.corrections):
        values.extend(fraction_span_coordinates(space, target))
    return tuple(values)


def oracle_assemble(d, residue, point) -> LogConnection:
    """The connection of a point from ``MatrixPolyMap`` arithmetic: S_i + N_i on
    toral, chi on semisimple and B_j + sum_i pairing * N_i on graded slots."""
    components = {idx: MatrixPolyMap.from_constant(value, d.weights)
                  for idx, value in zip(d.toral_indices + d.semisimple_indices, residue.values)}
    for pos, idx in enumerate(d.toral_indices):
        components[idx] = components[idx] + point.corrections[pos]
    for pos, idx in enumerate(d.w_indices):
        total = point.components[pos]
        for i in range(d.toral_count):
            factor = d.pairings[i][pos]
            if not factor.is_zero():
                total = total + point.corrections[i].scale(factor)
        components[idx] = total
    return LogConnection(divisor=d, components=tuple(components[idx] for idx in range(d.n)))


def oracle_check_point(d, residue, point, problem) -> PointReport:
    """``check_point`` on ``Fraction`` maps: ``oracle_coordinates_of``, then
    ``PolySystem.evaluate``, ``oracle_assemble``, ``is_flat`` and each
    correction's ``MatrixPolyMap.power``, with the same consistency checks."""
    equations = problem.system.equations
    results = problem.system.evaluate(oracle_coordinates_of(point, problem))
    violations = tuple(i for i, v in enumerate(results) if v != 0)
    violated = {(equations[i].tag, equations[i].frame_slots) for i in violations}
    report = is_flat(oracle_assemble(d, residue, point))
    if report.flat == any(tag in ("curvature", "ZN", "NN-commute") for tag, _ in violated):
        raise ArithmeticError("emitted system and direct curvature disagree on flatness; broken invariant")
    for t, correction in zip(d.toral_indices, point.corrections):
        if correction.power(residue.matrix_size).is_zero() == (("nilpotency", (t,)) in violated):
            raise ArithmeticError("nilpotency equations disagree with the direct power; broken invariant")
    return PointReport(flat=report.flat, violations=violations, flatness=report)


def oracle_pair_curvature(conn, i: int, j: int) -> MatrixPolyMap:
    """R_ij = V_i(w_j) - V_j(w_i) - sum_k c_ij^k w_k - [w_i, w_j], composed from
    whole ``MatrixPolyMap``s: the reference for ``connections``' one-pass kernel."""
    d, comp = conn.divisor, conn.components
    term = comp[j].apply_field(d.frame[i].field) - comp[i].apply_field(d.frame[j].field)
    for k, c in enumerate(d.structure.coefficients(i, j)):
        if not c.is_zero():
            term = term - comp[k].scale(c)
    return term - comp[i].commutator(comp[j])


def assert_readings_agree(problem, rng: random.Random, moves: int = 6) -> None:
    """``span_coordinates`` and ``oracle_span_coordinates`` agree on every space of a problem.

    Each space gets a seeded element (about a third of its basis weighted by
    zero), whose coordinates must be the same ``Fraction``s by both readings.
    Then one entry is moved by 1, at a few seeded positions of the basis
    support and at one monomial no element has; both readings must return the
    same coordinates or both raise MembershipError, and the last position is
    off every span.
    """
    weights = problem.divisor.weights
    for space in problem.component_spaces + problem.correction_spaces:
        target = MatrixPolyMap.zeros(space.matrix_size, weights)
        for element in space.basis:
            if rng.random() < 2 / 3:
                target = target + element.scale(rand_fraction(rng))
        reading = span_coordinates(space, target)
        assert reading == oracle_span_coordinates(space, target)
        assert all(type(value) is Fraction for value in reading)
        support = sorted({(r, c, mono) for element in space.basis for r, c, mono, _ in _terms(element)})
        outside = (0, 0, (100,) + (0,) * (len(weights) - 1))
        for r, c, mono in rng.sample(support, min(moves, len(support))) + [outside]:
            entries = [[WeightedPoly.zero(weights)] * space.matrix_size for _ in range(space.matrix_size)]
            entries[r][c] = WeightedPoly(weights, {mono: 1})
            moved = target + MatrixPolyMap(entries)
            outcomes = []
            for read in (span_coordinates, oracle_span_coordinates):
                try:
                    outcomes.append(read(space, moved))
                except MembershipError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
        assert outcomes == [None, None]


def frac(num, den=1):
    return Fraction(num, den)


def rand_fraction(rng: random.Random, span: int = 6, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def diag(*values) -> RationalMatrix:
    return RationalMatrix([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])


def degree(poly: WeightedPoly):
    """The largest E-degree of a term, or None for the zero polynomial."""
    return max((poly.monomial_degree(mono) for mono in poly.terms), default=None)


def trace(matrix: RationalMatrix) -> Fraction:
    return sum((matrix[i, i] for i in range(matrix.rows)), Fraction(0))


def e_degrees(value) -> set:
    """The E-degrees of the terms of a WeightedPoly, or of every entry of a MatrixPolyMap."""
    polys = [p for row in value.entries for p in row] if isinstance(value, MatrixPolyMap) else [value]
    return {p.monomial_degree(mono) for p in polys for mono in p.terms}


S01 = RationalMatrix([[0, 0], [0, 1]])
E12 = RationalMatrix([[0, 1], [0, 0]])
E21 = RationalMatrix([[0, 0], [1, 0]])
ZERO2 = RationalMatrix.zeros(2, 2)
IDENT2 = RationalMatrix.identity(2)

# the commutator-convention sl2 triple matching the catalog's semisimple frames
CHI_H = RationalMatrix([[-1, 0], [0, 1]])
CHI_E = RationalMatrix([[0, 1], [0, 0]])
CHI_F = RationalMatrix([[0, 0], [1, 0]])


def centralizer_algebra(mats, size: Optional[int] = None) -> Tuple[int, List[RationalMatrix]]:
    """Dimension and basis of {X : [X, M]_c = 0 for every M in mats}, the kernel of
    the stacked ad operators: an oracle for the symmetry algebra's degree-zero part."""
    m = mats[0].rows if size is None else size
    # the empty family constrains nothing: one zero row has all of gl_m as kernel
    stacked = [row for mat in mats for row in ad_operator(mat).entries] or [[0] * (m * m)]
    kernel = densify(rref(IntegerRows.cleared(stacked, m * m)).kernel, m * m)
    return len(kernel), [RationalMatrix([vec[i * m:(i + 1) * m] for i in range(m)]) for vec in kernel]


def exp_nilpotent(n: RationalMatrix) -> RationalMatrix:
    """exp(n) of a nilpotent n: the sum of n^i / i! over i >= 0, up to the first zero power."""
    assert n.power(n.rows).is_zero(), "the series is exact only on a nilpotent matrix"
    total = power = RationalMatrix.identity(n.rows)
    for i in range(1, n.rows + 1):
        power = power * n
        if power.is_zero():
            break
        total = total + Fraction(1, math.factorial(i)) * power
    return total


def conjugated(s: RationalMatrix, rng: random.Random) -> RationalMatrix:
    """P s P^-1 with P unit upper bidiagonal and a seeded +-1 superdiagonal."""
    m = s.rows
    p = RationalMatrix([[1 if i == j else (rng.choice((1, -1)) if j == i + 1 else 0)
                         for j in range(m)] for i in range(m)])
    return p * s * inverse(p)


def fraction_conjugated(s: RationalMatrix) -> RationalMatrix:
    """P s P^-1 with P unit upper triangular: 1/2 on the superdiagonal, -2/3 above it."""
    m = s.rows
    p = RationalMatrix([[1 if i == j else (frac(1, 2) if j == i + 1 else (frac(-2, 3) if j > i + 1 else 0))
                         for j in range(m)] for i in range(m)])
    return p * s * inverse(p)


def residue_for(divisor, s_matrix, chi_value="auto") -> ResidueData:
    """Residue with the same matrix on every toral slot, or with one matrix
    per toral slot when ``s_matrix`` is a tuple.

    ``chi_value``: "auto" fills zero matrices for each semisimple slot, None
    passes no chi, a tuple is used as given.
    """
    s_list = s_matrix if isinstance(s_matrix, tuple) else (s_matrix,) * divisor.toral_count
    semis = len(divisor.semisimple_indices)
    m = s_list[0].rows
    if chi_value == "auto":
        chi = tuple(RationalMatrix.zeros(m, m) for _ in range(semis)) if semis else None
    else:
        chi = chi_value
    return ResidueData(
        s_list=s_list,
        positive_combination=tuple(divisor.positive_combination),
        chi=chi,
    )


def as_written(divisor, residue):
    """The problem solved and emitted for the residue as written, with no gauge fix:
    ``moduli_system``'s validation, then its builder on the given residue.  The
    slow-path oracle for the gauged solve of a non-diagonal residue, and the way
    to reach coupled solve blocks and dense products through a conjugated one."""
    _check_pair(divisor, residue)
    return _build(divisor, residue)


def product_divisor(first, second) -> FreeDivisor:
    """f1 * f2 in the disjoint union of the two variable sets.

    Each frame is embedded block-wise and keeps its kinds and grades; both
    sets of toral slots stay toral, so the positive combinations and the
    toral factors are concatenated.  Variables get a suffix 1 or 2.
    """
    weights = first.weights + second.weights
    pads = ((0, second.n), (first.n, 0))

    def embed(poly, pad):
        before, after = pad
        return WeightedPoly(weights, {(0,) * before + mono + (0,) * after: c for mono, c in poly.terms.items()})

    def frame(d, pad):
        zero = (WeightedPoly.zero(weights),)
        return tuple(
            FrameElement(e.kind, VectorFieldPoly(zero * pad[0] + tuple(embed(c, pad) for c in e.field.coefficients)
                                                 + zero * pad[1]), grade=e.grade)
            for e in d.frame
        )

    factors = tuple(embed(f, pad) for d, pad in zip((first, second), pads) for f in d.effective_factors())
    return FreeDivisor(
        name=f"{first.name}*{second.name}",
        variables=tuple(v + "1" for v in first.variables) + tuple(v + "2" for v in second.variables),
        weights=weights,
        f=embed(first.f, pads[0]) * embed(second.f, pads[1]),
        degree=first.degree + second.degree,
        frame=frame(first, pads[0]) + frame(second, pads[1]),
        positive_combination=tuple(first.positive_combination) + tuple(second.positive_combination),
        factors=factors,
    )


def pulled_back(d: FreeDivisor, rng: random.Random, moves: int = 4) -> FreeDivisor:
    """d in the coordinates y with z = A y, for a seeded unimodular integer A
    that mixes only variables of equal weight.

    A is a product of elementary matrices I + k e_ij with w_i = w_j, so
    det A = 1 and each (A y)_i is homogeneous of weight w_i.  f, the factors
    and every frame field's coefficients are substituted, and each field is
    mapped through A^-1: V'(y) = A^-1 V(A y).  The Euler field, the kinds,
    the grades and the structure functions stay as they were, so the moduli
    problem is the same one, written in other coordinates.
    """
    n, weights = d.n, d.weights
    a = RationalMatrix.identity(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and weights[i] == weights[j]]
    for _ in range(moves if pairs else 0):
        i, j = rng.choice(pairs)
        rows = RationalMatrix.identity(n).row_list()
        rows[i][j] = rng.choice((-2, -1, 1, 2))
        a = RationalMatrix(rows) * a
    a_inv = inverse(a)
    zero = WeightedPoly.zero(weights)
    images = [sum((a[i, k] * WeightedPoly.variable(k, weights) for k in range(n) if a[i, k]), zero) for i in range(n)]

    def substituted(poly):
        total = zero
        for mono, c in poly.terms.items():
            term = WeightedPoly.constant(c, weights)
            for image, e in zip(images, mono):
                if e:
                    term = term * image ** e
            total = total + term
        return total

    def field(v):
        coeffs = [substituted(c) for c in v.coefficients]
        return VectorFieldPoly(tuple(sum((a_inv[j, i] * coeffs[i] for i in range(n) if a_inv[j, i]), zero)
                                     for j in range(n)))

    return replace(d, name=f"{d.name}~pulled", f=substituted(d.f),
                   frame=tuple(replace(e, field=field(e.field)) for e in d.frame),
                   factors=None if d.factors is None else tuple(map(substituted, d.factors)))


def divisor_named(name: str) -> FreeDivisor:
    """A catalog divisor, or the product of two of them written "first*second"."""
    if "*" in name:
        return product_divisor(*map(catalog, name.split("*")))
    return catalog(name)


@pytest.fixture(scope="session")
def cusp():
    return catalog("cusp")


@pytest.fixture(scope="session")
def seki():
    return catalog("sekiguchi_b5")


@pytest.fixture(scope="session")
def borel():
    return catalog("borel2")


@pytest.fixture(scope="session")
def g2_divisor():
    return catalog("g2")


@pytest.fixture(scope="session")
def d4_divisor():
    return catalog("d4")


def poly_of(divisor, text_terms) -> WeightedPoly:
    """Build a polynomial from {exponent tuple: coefficient} in the divisor ring."""
    return WeightedPoly(divisor.weights, {tuple(k): Fraction(v) for k, v in text_terms.items()})
