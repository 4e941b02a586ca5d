import random
from fractions import Fraction

import pytest

from logres import RationalMatrix, ResidueData, WeightedPoly, catalog
from logres.linear import inverse


def frac(num, den=1):
    return Fraction(num, den)


def rand_fraction(rng: random.Random, span: int = 6, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def diag(*values) -> RationalMatrix:
    return RationalMatrix.diagonal([Fraction(v) for v in values])


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


def residue_for(divisor, s_matrix: RationalMatrix, chi_value="auto") -> ResidueData:
    """Residue with the same matrix on every toral slot.

    ``chi_value``: "auto" fills zero matrices for each semisimple slot, None
    passes no chi, a tuple is used as given.
    """
    k = divisor.toral_count
    semis = len(divisor.semisimple_indices)
    m = s_matrix.rows
    if chi_value == "auto":
        chi = tuple(RationalMatrix.zeros(m, m) for _ in range(semis)) if semis else None
    else:
        chi = chi_value
    return ResidueData(
        s_list=tuple(s_matrix for _ in range(k)),
        positive_combination=tuple(divisor.positive_combination),
        chi=chi,
    )


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
