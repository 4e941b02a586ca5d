"""Exact fixtures for every catalog divisor, frozen from hand computation."""

from fractions import Fraction

import pytest

from logres import (
    WeightedPoly,
    bracket,
    catalog,
    dual_log_forms,
    plane_curve,
    verify_saito,
)
from logres.divisor import DivisorError, SEMISIMPLE, TORAL, WTYPE

from conftest import poly_of

EXPECTED_CONSTANTS = {
    "cusp": Fraction(6),
    "normal_crossing_2": Fraction(1),
    "normal_crossing_4": Fraction(1),
    "borel2": Fraction(4),
    "g2": Fraction(-6),
    "d4": Fraction(2),
    "sekiguchi_b5": Fraction(-18),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CONSTANTS))
def test_catalog_saito_constants(name):
    d = catalog(name)
    result = verify_saito(d)
    assert result.ok
    assert result.constant == EXPECTED_CONSTANTS[name]
    assert result.squarefree == "probably-squarefree"


@pytest.mark.parametrize("name", sorted(EXPECTED_CONSTANTS))
def test_catalog_euler_homogeneity(name):
    d = catalog(name)
    assert d.euler_field().apply(d.f) == d.f * d.degree


def test_catalog_kind_layout():
    assert [e.kind for e in catalog("cusp").frame] == [TORAL, WTYPE]
    assert [e.kind for e in catalog("borel2").frame] == [TORAL, TORAL, WTYPE]
    assert [e.kind for e in catalog("g2").frame] == [TORAL] + [SEMISIMPLE] * 3
    assert [e.kind for e in catalog("d4").frame] == [TORAL] * 3 + [SEMISIMPLE] * 3
    assert [e.kind for e in catalog("sekiguchi_b5").frame] == [TORAL, WTYPE, WTYPE]
    seki, borel = catalog("sekiguchi_b5"), catalog("borel2")
    assert tuple(seki.frame[i].grade for i in seki.w_indices) == (1, 2)
    assert tuple(borel.frame[i].grade for i in borel.w_indices) == (0,)


def test_sekiguchi_data(seki):
    assert seki.weights == (1, 2, 3)
    assert seki.degree == 9
    assert seki.f == poly_of(seki, {(1, 4, 0): 1, (0, 3, 1): 1, (0, 0, 3): 1})
    assert seki.frame[0].distinguished


def test_g2_polynomial(g2_divisor):
    assert g2_divisor.f == poly_of(
        g2_divisor,
        {
            (2, 0, 0, 2): 27,
            (1, 1, 1, 1): -18,
            (0, 3, 0, 1): 4,
            (1, 0, 3, 0): 4,
            (0, 2, 2, 0): -1,
        },
    )


def test_borel_data(borel):
    assert borel.f == poly_of(borel, {(1, 2, 0): 1, (2, 0, 1): -1})
    assert borel.factors == (
        poly_of(borel, {(1, 0, 0): 1}),
        poly_of(borel, {(0, 2, 0): 1, (1, 0, 1): -1}),
    )
    assert borel.factor_degree_matrix == [[2, 2], [0, 2]]


def test_g2_semisimple_fields_annihilate_f(g2_divisor):
    for idx in g2_divisor.semisimple_indices:
        assert g2_divisor.frame[idx].field.apply(g2_divisor.f).is_zero()


def test_g2_sl2_bracket_relations(g2_divisor):
    e, vh, vf, ve = (el.field for el in g2_divisor.frame)
    assert (bracket(vh, vf) - vf.scale(2)).is_zero()
    assert (bracket(vh, ve) - ve.scale(-2)).is_zero()
    assert (bracket(vf, ve) - vh).is_zero()
    for each in (vh, vf, ve):
        assert bracket(e, each).is_zero()


def test_d4_frame_from_group_action(d4_divisor):
    # oracle: differentiate the action (a, b, c, M) * (u, v, w) = (aMu, bMv, cMw)
    # at the identity, using an auxiliary parameter variable t and reading off
    # the t-linear part of each pulled-back coordinate
    weights = d4_divisor.weights + (1,)
    nvars = len(weights)

    def var(i):
        return WeightedPoly.variable(i, weights)

    t = var(6)
    one = WeightedPoly.constant(1, weights)
    coords = [var(i) for i in range(6)]  # u1 u2 v1 v2 w1 w2

    def act(scalars, m):
        # group element (a(t), b(t), c(t), M(t)) applied to the coordinates
        out = []
        for block in range(3):
            x1, x2 = coords[2 * block], coords[2 * block + 1]
            y1 = m[0][0] * x1 + m[0][1] * x2
            y2 = m[1][0] * x1 + m[1][1] * x2
            out.extend([scalars[block] * y1, scalars[block] * y2])
        return out

    zero = WeightedPoly.zero(weights)
    identity = [[one, zero], [zero, one]]
    directions = [
        act([one + t, one, one], identity),
        act([one, one + t, one], identity),
        act([one, one, one + t], identity),
        act([one, one, one], [[one + t, zero], [zero, one - t]]),   # h
        act([one, one, one], [[one, t], [zero, one]]),              # e
        act([one, one, one], [[one, zero], [t, one]]),              # f
    ]
    for frame_element, pulled in zip(d4_divisor.frame, directions):
        for coeff, expression in zip(frame_element.field.coefficients, pulled):
            t_linear = WeightedPoly(
                weights,
                {mono: c for mono, c in expression.terms.items() if mono[6] == 1},
            )
            embedded = WeightedPoly(weights, {m + (1,): c for m, c in coeff.terms.items()})
            assert t_linear == embedded


def test_d4_semisimple_fields_annihilate_f(d4_divisor):
    for idx in d4_divisor.semisimple_indices:
        assert d4_divisor.frame[idx].field.apply(d4_divisor.f).is_zero()


def test_sekiguchi_dual_forms_match_known_forms(seki):
    forms = dual_log_forms(seki)
    # reference numerators carry denominators 3F, 6F, 9F; our rows sit over constant * F
    c = forms.constant
    reference = [
        (Fraction(3), [
            poly_of(seki, {(0, 4, 0): 3, (0, 1, 2): 4}),
            poly_of(seki, {(1, 0, 2): 16, (0, 2, 1): -3}),
            poly_of(seki, {(0, 0, 2): 1, (0, 3, 0): 3, (1, 1, 1): -12}),
        ]),
        (Fraction(6), [
            poly_of(seki, {(0, 2, 1): 1}),
            poly_of(seki, {(1, 1, 1): 4, (0, 0, 2): 3}),
            poly_of(seki, {(1, 2, 0): -3, (0, 1, 1): -2}),
        ]),
        (Fraction(9), [
            poly_of(seki, {(0, 3, 0): 2, (0, 0, 2): 3, (1, 1, 1): -4}),
            poly_of(seki, {(0, 1, 1): -3, (1, 2, 0): -1, (2, 0, 1): -16}),
            poly_of(seki, {(2, 1, 0): 12, (0, 2, 0): 2, (1, 0, 1): -1}),
        ]),
    ]
    for row, (denominator, numerators) in zip(forms.numerators, reference):
        for ours, theirs in zip(row, numerators):
            assert ours * denominator == theirs * c


def test_g2_dual_forms_match_known_forms(g2_divisor):
    forms = dual_log_forms(g2_divisor)
    c = forms.constant
    f = g2_divisor.f
    reference = [
        (Fraction(12), [f.partial_derivative(i) for i in range(4)]),
        (Fraction(2), [
            poly_of(g2_divisor, {(1, 0, 0, 2): 9, (0, 1, 1, 1): -7, (0, 0, 3, 0): 2}),
            poly_of(g2_divisor, {(0, 2, 0, 1): 2, (0, 1, 2, 0): -1, (1, 0, 1, 1): 3}),
            poly_of(g2_divisor, {(0, 2, 1, 0): 1, (1, 1, 0, 1): -3, (1, 0, 2, 0): -2}),
            poly_of(g2_divisor, {(0, 3, 0, 0): -2, (1, 1, 1, 0): 7, (2, 0, 0, 1): -9}),
        ]),
        (Fraction(1), [
            poly_of(g2_divisor, {(0, 0, 2, 1): 2, (0, 1, 0, 2): -6}),
            poly_of(g2_divisor, {(1, 0, 0, 2): 9, (0, 1, 1, 1): -1}),
            poly_of(g2_divisor, {(0, 2, 0, 1): 2, (1, 0, 1, 1): -6}),
            poly_of(g2_divisor, {(1, 0, 2, 0): 4, (1, 1, 0, 1): -3, (0, 2, 1, 0): -1}),
        ]),
        (Fraction(1), [
            poly_of(g2_divisor, {(0, 2, 0, 1): 4, (1, 0, 1, 1): -3, (0, 1, 2, 0): -1}),
            poly_of(g2_divisor, {(1, 0, 2, 0): 2, (1, 1, 0, 1): -6}),
            poly_of(g2_divisor, {(2, 0, 0, 1): 9, (1, 1, 1, 0): -1}),
            poly_of(g2_divisor, {(1, 2, 0, 0): 2, (2, 0, 1, 0): -6}),
        ]),
    ]
    for row, (denominator, numerators) in zip(forms.numerators, reference):
        for ours, theirs in zip(row, numerators):
            assert ours * denominator == theirs * c


def test_borel_dual_forms_match_known_forms(borel):
    # cross-multiplied against the closed forms: alpha_1 = (1/2) dlog x,
    # alpha_2 = (1/2) dlog(xz - y^2) - (1/2) dlog x, and
    # beta = (1/(2x(xz-y^2))) (3xz dy - d(xyz))
    forms = dual_log_forms(borel)
    c = forms.constant
    f = borel.f
    x = WeightedPoly.variable(0, borel.weights)
    g = poly_of(borel, {(1, 0, 1): 1, (0, 2, 0): -1})  # xz - y^2
    assert forms.numerators[0][0] * 2 * x == c * f
    assert forms.numerators[0][1].is_zero() and forms.numerators[0][2].is_zero()
    for j in range(3):
        lhs = forms.numerators[1][j] * (2 * x) * g
        dlog_x_part = g if j == 0 else WeightedPoly.zero(borel.weights)
        rhs = (g.partial_derivative(j) * x - dlog_x_part) * (c * f)
        assert lhs == rhs
    xyz = poly_of(borel, {(1, 1, 1): 1})
    beta_num = [
        -xyz.partial_derivative(0),
        poly_of(borel, {(1, 0, 1): 3}) - xyz.partial_derivative(1),
        -xyz.partial_derivative(2),
    ]
    for j in range(3):
        assert forms.numerators[2][j] * 2 * x * g == beta_num[j] * (c * f)


def test_plane_curve_rejects_boundary_degree():
    xy = WeightedPoly((1, 1), {(1, 1): Fraction(1)})
    with pytest.raises(DivisorError):
        plane_curve(1, 1, xy)


def test_plane_curve_generic_example():
    # x^3 - y^5 with weights (5, 3): degree 15, grade 15 - 8 = 7
    weights = (5, 3)
    f = WeightedPoly(weights, {(3, 0): Fraction(1), (0, 5): Fraction(-1)})
    d = plane_curve(5, 3, f)
    assert d.degree == 15
    assert d.frame[1].grade == 7
    assert verify_saito(d).ok
    assert verify_saito(d).constant == 15


def test_unknown_catalog_name():
    with pytest.raises(DivisorError):
        catalog("nope")
