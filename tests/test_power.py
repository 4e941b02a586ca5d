"""The shared square-and-multiply behind every exact ring type's power."""

import random
from fractions import Fraction

import pytest

from logres import MatrixPolyMap, RationalMatrix, WeightedPoly, catalog, moduli_system
from logres.linear import inverse
from logres.univariate import power

from conftest import S01, diag, rand_fraction, residue_for

SEED = 20260518
WEIGHTS = (1, 2)


def rand_poly(rng: random.Random) -> WeightedPoly:
    terms = {(rng.randint(0, 2), rng.randint(0, 1)): rand_fraction(rng) for _ in range(3)}
    return WeightedPoly(WEIGHTS, terms)


def cases():
    """(base, its one, its product) for each ring type, from the fixed seed."""
    rng = random.Random(SEED)
    poly = rand_poly(rng)
    matrix = RationalMatrix([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
    poly_map = MatrixPolyMap([[rand_poly(rng) for _ in range(2)] for _ in range(2)])
    return [
        (poly, WeightedPoly.constant(1, WEIGHTS), lambda a, b: a * b, lambda x, k: x ** k),
        (matrix, RationalMatrix.identity(3), lambda a, b: a * b, lambda x, k: x.power(k)),
        (poly_map, MatrixPolyMap.from_constant(RationalMatrix.identity(2), WEIGHTS),
         lambda a, b: a.matmul(b), lambda x, k: x.power(k)),
    ]


@pytest.mark.parametrize("case", range(3), ids=["WeightedPoly", "RationalMatrix", "MatrixPolyMap"])
def test_power_equals_the_repeated_product(case):
    base, one, multiply, raise_to = cases()[case]
    product = one
    for k in range(10):
        assert raise_to(base, k) == product
        product = multiply(product, base)


@pytest.mark.parametrize("case", range(3), ids=["WeightedPoly", "RationalMatrix", "MatrixPolyMap"])
def test_negative_exponent_is_rejected(case):
    base, _, _, raise_to = cases()[case]
    with pytest.raises(ValueError):
        raise_to(base, -1)


def test_product_count_is_the_binary_method_count():
    for k in range(1, 65):
        calls = []

        def multiply(a, b):
            calls.append((a, b))
            return a * b

        assert power(3, k, multiply) == 3 ** k
        assert len(calls) == (k.bit_length() - 1) + bin(k).count("1") - 1


def test_power_rejects_exponents_below_one():
    for k in (0, -1, -64):
        with pytest.raises(ValueError):
            power(2, k, lambda a, b: a * b)


def test_matrix_power_calls_the_class_matmul(monkeypatch):
    # the product is looked up when power runs, so a wrapper on the class sees it
    base = cases()[2][0]
    calls = []
    original = MatrixPolyMap.matmul

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MatrixPolyMap, "matmul", counting)
    base.power(4)
    assert len(calls) == 2


def test_non_square_matrix_power_is_rejected():
    with pytest.raises(ValueError, match="non-square"):
        RationalMatrix([[1, 2]]).power(2)


# ------------------------------------------------- emitted nilpotency oracle


def conjugated(s: RationalMatrix, rng: random.Random) -> RationalMatrix:
    """P s P^-1 with P unit upper bidiagonal and a seeded +-1 superdiagonal."""
    m = s.rows
    p = RationalMatrix([[1 if i == j else (rng.choice((1, -1)) if j == i + 1 else 0)
                         for j in range(m)] for i in range(m)])
    return p * s * inverse(p)


def oracle_cases():
    rng = random.Random(SEED)
    return {
        "cusp/diag(0,1,2,3)~conj": ("cusp", conjugated(diag(0, 1, 2, 3), rng)),
        "borel2/diag(0,1,2)~conj": ("borel2", conjugated(diag(0, 1, 2), rng)),
        "sekiguchi_b5/S01": ("sekiguchi_b5", S01),
    }


@pytest.mark.parametrize("label", list(oracle_cases()))
def test_nilpotency_equations_match_the_repeated_product(label):
    name, s = oracle_cases()[label]
    d = catalog(name)
    problem = moduli_system(d, residue_for(d, s))
    system = problem.system
    m = s.rows
    rng = random.Random(SEED)
    values = [rand_fraction(rng) for _ in system.coordinates]
    results = system.evaluate(values)
    zero = MatrixPolyMap.zeros(m, d.weights)
    checked = 0
    for l, space in enumerate(problem.correction_spaces):
        correction = zero
        for value, coord in zip(values, system.coordinates):
            if coord.slot == space.slot:
                correction = correction + space.basis[coord.basis_index].scale(value)
        product = correction
        for _ in range(m - 1):
            product = product.matmul(correction)
        emitted = {
            (eq.entry, eq.base_monomial): results[i]
            for i, eq in enumerate(system.equations)
            if eq.tag == "nilpotency" and eq.frame_slots == (d.toral_indices[l],)
        }
        expected = {
            ((r, c), mono): coeff
            for r in range(m) for c in range(m)
            for mono, coeff in product[r, c].terms.items()
        }
        # an equation may evaluate to zero here; a nonzero coefficient must be emitted
        assert set(expected) <= set(emitted)
        for key, value in emitted.items():
            assert value == expected.get(key, Fraction(0)), key
        checked += len(expected)
    assert checked > 0
