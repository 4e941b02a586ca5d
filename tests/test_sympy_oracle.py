"""Differential tests of the exact kernels against sympy, a test-only oracle.

The library itself stays stdlib-only; these tests are skipped where sympy is
not installed.
"""

import random
from fractions import Fraction

import pytest

from logres import RationalMatrix, catalog, charpoly, rref
from logres.divisor import poly_determinant
from logres.linear import determinant
from logres.univariate import clear_denominators, uni_gcd, uni_mul

from conftest import densify, rand_fraction

sympy = pytest.importorskip("sympy")


def to_sympy(value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


def from_sympy(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def seeded_matrices(count: int, seed: int, square: bool = False):
    """Rational matrices up to 5 x 5, about a third of the entries zero."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 5)
        cols = rows if square else rng.randint(1, 5)
        yield RationalMatrix([[rand_fraction(rng) if rng.random() < 0.65 else 0 for _ in range(cols)]
                              for _ in range(rows)])


def sympy_matrix(m: RationalMatrix):
    return sympy.Matrix([[to_sympy(v) for v in row] for row in m.row_list()])


def test_charpoly_and_determinant_match_sympy():
    t = sympy.Symbol("t")
    for m in seeded_matrices(200, 1, square=True):
        expected = sympy_matrix(m).charpoly(t).all_coeffs()[::-1]  # low degree first
        assert charpoly(m) == [from_sympy(c) for c in expected]
        assert determinant(m) == from_sympy(sympy_matrix(m).det())


def test_rref_kernel_matches_sympy_nullspace_in_order():
    kernels = 0
    for m in seeded_matrices(200, 2):
        expected = [tuple(from_sympy(v) for v in vec) for vec in sympy_matrix(m).nullspace()]
        assert list(densify(rref(m).kernel, m.cols)) == expected
        kernels += bool(expected)
    assert kernels > 50


def test_poly_determinant_matches_sympy_on_catalog_frames():
    for name in ("cusp", "borel2", "sekiguchi_b5", "g2", "d4", "normal_crossing_3"):
        d = catalog(name)
        symbols = sympy.symbols(d.variables)

        def expr(poly):
            return sum((to_sympy(c) * sympy.prod([x ** e for x, e in zip(symbols, mono)])
                        for mono, c in poly.terms.items()), sympy.Integer(0))

        matrix = d.coefficient_matrix()
        expected = sympy.Poly(sympy.Matrix([[expr(p) for p in row] for row in matrix]).det(), *symbols)
        assert sympy.Poly(expr(poly_determinant(matrix)), *symbols) == expected


def test_uni_gcd_matches_sympy_monic_gcd():
    t = sympy.Symbol("t")
    rng = random.Random(3)

    def rand_uni(degree):
        return [rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(degree)] + [Fraction(1)]

    for _ in range(100):
        common = rand_uni(rng.randint(0, 2))
        a, b = uni_mul(common, rand_uni(rng.randint(0, 3))), uni_mul(common, rand_uni(rng.randint(0, 3)))
        expected = sympy.Poly(list(map(to_sympy, reversed(a))), t).gcd(sympy.Poly(list(map(to_sympy, reversed(b))), t))
        gcd = uni_gcd(clear_denominators(a)[1], clear_denominators(b)[1])
        assert all(type(c) is int for c in gcd)
        assert [Fraction(c, gcd[-1]) for c in gcd] == [from_sympy(c) for c in expected.monic().all_coeffs()[::-1]]
