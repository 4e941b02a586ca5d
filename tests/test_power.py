"""The shared square-and-multiply behind every exact ring type's power."""

import functools
import random
from fractions import Fraction

import pytest

from logres import LogConnection, MatrixPolyMap, RationalMatrix, WeightedPoly, curvature, moduli_system
from logres.record import replace
from logres.univariate import power

from conftest import (CHI_E, CHI_F, CHI_H, S01, ZERO2, as_written, conjugated, diag, divisor_named,
                      fraction_conjugated, rand_fraction, residue_for)

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


# ----------------------------------------------------- emitted-equation oracle


def oracle_cases():
    rng = random.Random(SEED)
    return {
        "cusp/diag(0,1,2,3)~conj": ("cusp", conjugated(diag(0, 1, 2, 3), rng), "auto"),
        "borel2/diag(0,1,2)~conj": ("borel2", conjugated(diag(0, 1, 2), rng), "auto"),
        "sekiguchi_b5/S01": ("sekiguchi_b5", S01, "auto"),
        "g2/0+sl2": ("g2", ZERO2, (CHI_H, CHI_E, CHI_F)),
        "normal_crossing_3/S01~conj": ("normal_crossing_3", conjugated(S01, rng), "auto"),
        # semisimple and graded slots in one divisor
        "g2*sekiguchi_b5/(0,S01)": ("g2*sekiguchi_b5", (ZERO2, S01), "auto"),
        "g2*sekiguchi_b5/(0,S01)~conj": ("g2*sekiguchi_b5", (ZERO2, conjugated(S01, rng)), "auto"),
        # non-integral coefficients throughout the emitted equations
        "cusp/diag(0,1,2,3)~frac": ("cusp", fraction_conjugated(diag(0, 1, 2, 3)), "auto"),
        # a structure function c_56^1 on the semisimple h slot (``with_chi_term``)
        "g2*sekiguchi_b5/0+sl2+c56": ("g2*sekiguchi_b5", (ZERO2, ZERO2), (CHI_H, CHI_E, CHI_F)),
    }


def with_chi_term(d):
    """The product g2*sekiguchi_b5 with x1 added to c_56^1.

    Slot 1 is g2's semisimple h, and slots 5 and 6 are sekiguchi_b5's graded
    fields of grades 1 and 2, so the coefficient has E-degree 3, as x1 does.
    The curvature of the pair (5, 6) then carries c_56^1 * chi_1.  No catalog
    or product divisor has a nonzero c_ij^k on a graded pair and a
    semisimple k, so without this edit the chi term of the curvature
    equations is zero on every input.  The frame constants read the true
    structure functions, so they are built first.
    """
    d.constants
    table = dict(d.structure.table)
    coeffs = list(table[(5, 6)])
    coeffs[1] = coeffs[1] + WeightedPoly.variable(0, d.weights)
    table[(5, 6)] = tuple(coeffs)
    vars(d)["structure"] = replace(d.structure, table=table)
    return d


@functools.lru_cache(maxsize=None)
def oracle_problem(label):
    """One case's divisor, residue and problem, the emitted values at seeded
    coordinates, and the component and correction elements at those coordinates.
    A conjugated residue is solved as written, so that the equations' entries are
    its own and the solve and the products reach coupled blocks and dense values."""
    name, s, chi = oracle_cases()[label]
    d = divisor_named(name)
    if label.endswith("+c56"):
        d = with_chi_term(d)
    residue = residue_for(d, s, chi)
    problem = as_written(d, residue) if "~" in label else moduli_system(d, residue)
    rng = random.Random(SEED)
    values = [rand_fraction(rng) for _ in problem.system.coordinates]
    spaces = {space.slot: space for space in problem.component_spaces + problem.correction_spaces}
    element = {slot: MatrixPolyMap.zeros(residue.matrix_size, d.weights) for slot in spaces}
    for value, coord in zip(values, problem.system.coordinates):
        element[coord.slot] = element[coord.slot] + spaces[coord.slot].basis[coord.basis_index].scale(value)
    comps = [element[space.slot] for space in problem.component_spaces]
    corrs = [element[space.slot] for space in problem.correction_spaces]
    return d, residue, problem, problem.system.evaluate(values), comps, corrs


def compare_group(label, tag, slots, expected):
    """Each emitted (tag, slots) equation equals the coefficient of its (entry, base
    monomial) in ``expected``; returns how many equations were compared."""
    _, _, problem, results, _, _ = oracle_problem(label)
    m = problem.system.matrix_size
    emitted = {
        (eq.entry, eq.base_monomial): results[i]
        for i, eq in enumerate(problem.system.equations)
        if eq.tag == tag and eq.frame_slots == slots
    }
    coefficients = {
        ((r, c), mono): coeff
        for r in range(m) for c in range(m)
        for mono, coeff in expected[r, c].terms.items()
    }
    # an equation may evaluate to zero here; a nonzero coefficient must be emitted
    assert set(coefficients) <= set(emitted), (tag, slots)
    for key, value in emitted.items():
        assert value == coefficients.get(key, Fraction(0)), (tag, slots, key)
    return len(emitted)


@pytest.mark.parametrize("label", list(oracle_cases()))
def test_nilpotency_equations_match_the_repeated_product(label):
    d, residue, _, _, _, corrs = oracle_problem(label)
    checked = 0
    for l, correction in enumerate(corrs):
        product = correction
        for _ in range(residue.matrix_size - 1):
            product = product.matmul(correction)
        compare_group(label, "nilpotency", (d.toral_indices[l],), product)
        checked += not product.is_zero()
    assert checked > 0


@pytest.mark.parametrize("label", list(oracle_cases()))
def test_flatness_equations_match_values_in_the_divisor_ring(label):
    """curvature: R(V_i, V_j) of the connection with S on toral, chi on semisimple
    and B on graded slots; ZN: V_a(N_l) - [B_a, N_l]; NN-commute: [N_l1, N_l2]."""
    d, residue, problem, _, comps, corrs = oracle_problem(label)
    value = dict(zip(d.w_indices, comps))
    for k, matrix in zip(d.toral_indices + d.semisimple_indices, residue.s_list + (residue.chi or ())):
        value[k] = MatrixPolyMap.from_constant(matrix, d.weights)
    curved = curvature(LogConnection(d, tuple(value[k] for k in range(d.n))))
    compared = 0
    for a, i in enumerate(d.w_indices):
        for j in d.w_indices[a + 1:]:
            compared += compare_group(label, "curvature", (i, j), curved[(i, j)])
        for l, correction in enumerate(corrs):
            expected = correction.apply_field(d.frame[i].field) - comps[a].commutator(correction)
            compared += compare_group(label, "ZN", (i, d.toral_indices[l]), expected)
    for l1 in range(len(corrs)):
        for l2 in range(l1 + 1, len(corrs)):
            compared += compare_group(label, "NN-commute", (d.toral_indices[l1], d.toral_indices[l2]),
                                      corrs[l1].commutator(corrs[l2]))
    assert compared == sum(eq.tag != "nilpotency" for eq in problem.system.equations)


def test_the_oracle_cases_cover_every_tag():
    tags = {eq.tag for label in oracle_cases() for eq in oracle_problem(label)[2].system.equations}
    assert tags == {"curvature", "ZN", "NN-commute", "nilpotency"}
