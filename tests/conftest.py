import random
from fractions import Fraction

import pytest

from logres import (
    FrameElement,
    FreeDivisor,
    MatrixPolyMap,
    RationalMatrix,
    ResidueData,
    VectorFieldPoly,
    WeightedPoly,
    catalog,
)
from logres.linear import inverse


def frac(num, den=1):
    return Fraction(num, den)


def rand_fraction(rng: random.Random, span: int = 6, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def diag(*values) -> RationalMatrix:
    return RationalMatrix([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])


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
