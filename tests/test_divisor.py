import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logres import (
    CATALOG_NAMES,
    FrameElement,
    FreeDivisor,
    MatrixPolyMap,
    ModuliPoint,
    VectorFieldPoly,
    WeightedPoly,
    WeightMismatchError,
    bracket,
    catalog,
    check_point,
    dlog_f_expansion,
    dual_log_forms,
    form_structure_equations,
    frame_constants,
    moduli_system,
    serialize,
    structure_functions,
    verify_saito,
)
import logres.divisor as divisor_module
from logres.divisor import (
    SEMISIMPLE,
    TORAL,
    WTYPE,
    DivisorError,
    StructureFunctions,
    correction_pairings,
    poly_determinant,
)
from logres.polynomials import InexactDivisionError, exact_divide

from conftest import S01, divisor_named, e_degrees, poly_of, rand_fraction, residue_for

ALL_NAMES = ("cusp", "normal_crossing_1", "normal_crossing_2", "normal_crossing_3",
             "borel2", "g2", "d4", "sekiguchi_b5")


def poly_adjugate(rows):
    """The adjugate through the minor table that ``FreeDivisor.adjugate`` reads."""
    return divisor_module._adjugate(divisor_module._minor_table(rows), len(rows))


def test_verify_saito_cusp_constant(cusp):
    result = verify_saito(cusp)
    assert result.ok
    assert result.constant == 6


def test_verify_saito_normal_crossing():
    for k in (1, 2, 3, 4):
        result = verify_saito(catalog(f"normal_crossing_{k}"))
        assert result.ok
        assert result.constant == 1


def test_verify_saito_degenerate_frame(cusp):
    euler = cusp.frame[0]
    broken = FreeDivisor(
        name="broken",
        variables=cusp.variables,
        weights=cusp.weights,
        f=cusp.f,
        degree=cusp.degree,
        frame=(euler, FrameElement("w", euler.field, grade=0)),
        positive_combination=(1,),
    )
    result = verify_saito(broken)
    assert not result.ok
    assert result.constant is None


def test_bracket_euler_with_hamiltonian_is_hamiltonian(cusp):
    e, v = cusp.frame[0].field, cusp.frame[1].field
    assert bracket(e, v).coefficients == v.coefficients


def test_bracket_sekiguchi_pair(seki):
    e, v, w = (el.field for el in seki.frame)
    lie = bracket(v, w)
    expected = e.scale(poly_of(seki, {(0, 0, 1): 24})) \
        + v.scale(poly_of(seki, {(0, 1, 0): 6})) \
        + w.scale(poly_of(seki, {(1, 0, 0): -40}))
    assert (lie - expected).is_zero()


def test_bracket_with_self_vanishes(seki):
    v = seki.frame[1].field
    assert bracket(v, v).is_zero()


def test_structure_functions_sekiguchi(seki):
    sf = structure_functions(seki)
    names = seki.variables
    c = sf.table[(1, 2)]
    assert c[0] == poly_of(seki, {(0, 0, 1): 24})
    assert c[1] == poly_of(seki, {(0, 1, 0): 6})
    assert c[2] == poly_of(seki, {(1, 0, 0): -40})


def test_structure_functions_borel(borel):
    sf = structure_functions(borel)
    one = WeightedPoly.constant(1, borel.weights)
    # [E1, V] = V and [E2, V] = -V
    assert sf.table[(0, 2)] == (0 * one, 0 * one, one)
    assert sf.table[(1, 2)] == (0 * one, 0 * one, -one)


def test_structure_functions_antisymmetry(seki):
    sf = structure_functions(seki)
    forward = sf.coefficients(1, 2)
    backward = sf.coefficients(2, 1)
    assert all((a + b).is_zero() for a, b in zip(forward, backward))
    assert all(c.is_zero() for c in sf.coefficients(1, 1))


def test_structure_functions_diagonal_of_a_single_field():
    # one frame field has no bracket pairs, so the table is empty
    d = catalog("normal_crossing_1")
    sf = structure_functions(d)
    assert sf.table == {}
    assert sf.coefficients(0, 0) == (WeightedPoly.zero(d.weights),)


def oracle_structure_functions(d: FreeDivisor) -> StructureFunctions:
    """The structure functions by adjugate division: c_ij^k is the k-th entry
    of [V_i, V_j] * adj(M) divided by det(M), for M the frame coefficient
    matrix; the divisions are exact exactly when the frame is closed under
    bracket."""
    matrix = d.coefficient_matrix()
    det = poly_determinant(matrix)
    adj = poly_adjugate(matrix)
    table = {}
    for i in range(d.n):
        for j in range(i + 1, d.n):
            v, w = d.frame[i].field, d.frame[j].field
            lie = [v.apply(wc) - w.apply(vc) for vc, wc in zip(v.coefficients, w.coefficients)]
            coeffs = []
            for k in range(d.n):
                numerator = WeightedPoly.zero(d.weights)
                for l in range(d.n):
                    numerator = numerator + lie[l] * adj[l][k]
                try:
                    coeffs.append(exact_divide(numerator, det))
                except InexactDivisionError as exc:
                    raise DivisorError(f"frame is not closed under bracket at pair ({i}, {j})") from exc
            table[(i, j)] = tuple(coeffs)
    return StructureFunctions(table=table, size=d.n, weights=d.weights)


ORACLE_NAMES = tuple(dict.fromkeys(CATALOG_NAMES + tuple(f"normal_crossing_{k}" for k in range(1, 7)) + (
    "g2*sekiguchi_b5", "cusp*borel2", "d4*normal_crossing_2")))


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_structure_functions_match_adjugate_division(name):
    d = divisor_named(name)
    assert structure_functions(d) == oracle_structure_functions(divisor_named(name))


@pytest.mark.parametrize("name", ("d4", "g2*sekiguchi_b5"))
def test_moduli_path_builds_no_minor_table(monkeypatch, name):
    def refuse(rows):
        raise AssertionError("the moduli path built a polynomial minor table")

    monkeypatch.setattr(divisor_module, "_minor_table", refuse)
    d = divisor_named(name)
    problem = moduli_system(d, residue_for(d, S01))
    assert problem.system.equations
    seki = catalog("sekiguchi_b5")
    residue = residue_for(seki, S01)
    zero = ModuliPoint(components=(MatrixPolyMap.zeros(2, seki.weights),) * 2,
                       corrections=(MatrixPolyMap.zeros(2, seki.weights),))
    assert not check_point(seki, residue, zero).flat
    for divisor in (d, seki):
        assert "determinant" not in vars(divisor) and "adjugate" not in vars(divisor)


def test_frame_info_reads_the_dual_forms_from_the_adjugate(monkeypatch, capsys):
    import json

    from logres.cli import main

    tables = []
    original = divisor_module._minor_table

    def counting(rows):
        tables.append(rows)
        return original(rows)

    monkeypatch.setattr(divisor_module, "_minor_table", counting)
    assert main(["frame-info", "--catalog", "d4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(tables) == 1
    adj = poly_adjugate(catalog("d4").coefficient_matrix())
    expected = [[serialize.poly_to_json(adj[j][i]) for j in range(len(adj))] for i in range(len(adj))]
    assert payload["dual_form_numerators"] == expected


# ------------------------------------------------------------ frame validation

def _frame_divisor(weights, f_terms, degree, fields, kinds, combination=(1,), distinguished=0):
    """A divisor with toral and semisimple fields only, each given as one
    {exponents: coefficient} dict per coordinate."""
    frame = tuple(
        FrameElement(kind, VectorFieldPoly(tuple(WeightedPoly(weights, terms) for terms in field)),
                     distinguished=(index == distinguished))
        for index, (field, kind) in enumerate(zip(fields, kinds))
    )
    return FreeDivisor(name="test", variables=tuple("xyzuvw"[:len(weights)]), weights=weights,
                       f=WeightedPoly(weights, f_terms), degree=degree, frame=frame,
                       positive_combination=combination)


def test_non_closed_frame_is_reported():
    # [y d/dx, z d/dy] = -z d/dx, which is not in the span of E, y d/dx, z d/dy
    euler = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
    d = _frame_divisor((1, 1, 1), {(0, 1, 2): 1}, 3,
                       (euler, ({(0, 1, 0): 1}, {}, {}), ({}, {(0, 0, 1): 1}, {})),
                       ("toral", "semisimple", "semisimple"))
    with pytest.raises(DivisorError, match=r"not closed under bracket at pair \(1, 2\)"):
        structure_functions(d)


def test_linearly_dependent_frame_is_reported():
    # E and 2E: the bracket solve finds the relation 2 * V1 - V2 = 0
    d = _frame_divisor((1, 1), {(1, 1): 1}, 2,
                       (({(1, 0): 1}, {(0, 1): 1}), ({(1, 0): 2}, {(0, 1): 2})),
                       ("toral", "toral"), combination=(1, 0), distinguished=None)
    with pytest.raises(DivisorError, match="linearly dependent"):
        structure_functions(d)


def test_a_dependent_frame_that_is_not_closed_reports_the_dependence():
    # y d/dx, z d/dy, E and 2E: the first pair's bracket -z d/dx lies outside
    # the span of the frame, and the frame holds the relation 2 * V2 - V3 = 0
    euler = ({(1, 0, 0, 0): 1}, {(0, 1, 0, 0): 1}, {(0, 0, 1, 0): 1}, {(0, 0, 0, 1): 1})
    doubled = tuple({mono: 2 for mono in terms} for terms in euler)
    d = _frame_divisor((1, 1, 1, 1), {(1, 1, 1, 1): 1}, 4,
                       (({(0, 1, 0, 0): 1}, {}, {}, {}), ({}, {(0, 0, 1, 0): 1}, {}, {}), euler, doubled),
                       ("semisimple", "semisimple", "toral", "toral"), combination=(1, 0), distinguished=None)
    with pytest.raises(DivisorError, match=r"linearly dependent \(found solving pair \(0, 1\)\)"):
        structure_functions(d)


@pytest.mark.parametrize("kind", ("toral", "semisimple"))
def test_non_homogeneous_constant_field_is_rejected_at_construction(kind):
    # x^2 d/dx has Euler grade 1 on weights (1, 1), not the grade 0 of a toral or semisimple field
    euler = ({(1, 0): 1}, {(0, 1): 1})
    with pytest.raises(DivisorError, match="frame element 1 does not have Euler grade 0"):
        _frame_divisor((1, 1), {(1, 1): 1}, 2, (euler, ({(2, 0): 1}, {})), ("toral", kind),
                       combination=(1, 0) if kind == "toral" else (1,))


def test_wrong_w_grade_keeps_its_message(cusp):
    element = cusp.frame[1]
    with pytest.raises(DivisorError, match=f"frame element 1 does not have Euler grade {element.grade + 1}"):
        replace(cusp, frame=(cusp.frame[0], replace(element, grade=element.grade + 1)))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_structure_functions_jacobi(name):
    d = catalog(name)
    sf = structure_functions(d)
    fields = [e.field for e in d.frame]
    for i in range(d.n):
        for j in range(i + 1, d.n):
            for k in range(j + 1, d.n):
                total = bracket(fields[i], bracket(fields[j], fields[k]))
                total = total + bracket(fields[j], bracket(fields[k], fields[i]))
                total = total + bracket(fields[k], bracket(fields[i], fields[j]))
                assert total.is_zero()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_structure_functions_e_homogeneity(name):
    # c_ij^k is E-homogeneous of degree m_i + m_j - m_k, with constant frame
    # elements at grade zero
    d = catalog(name)
    sf = structure_functions(d)
    grades = [e.grade if e.grade is not None else 0 for e in d.frame]
    for (i, j), coeffs in sf.table.items():
        for k, c in enumerate(coeffs):
            if c.is_zero():
                continue
            assert e_degrees(c) == {grades[i] + grades[j] - grades[k]}


def test_dual_forms_cusp_match_display(cusp):
    forms = dual_log_forms(cusp)
    assert forms.constant == 6
    # alpha = (1/6) dlog f: numerator rows over 6f
    fx = cusp.f.partial_derivative(0)
    fy = cusp.f.partial_derivative(1)
    assert forms.numerators[0] == (fx, fy)
    # beta = (1/(6f)) (3x dy - 2y dx)
    assert forms.numerators[1] == (poly_of(cusp, {(0, 1): -2}), poly_of(cusp, {(1, 0): 3}))


def test_dual_forms_normal_crossing_rows():
    d = catalog("normal_crossing_3")
    forms = dual_log_forms(d)
    assert forms.constant == 1
    # row i is dz_i / z_i, cleared to (product of the other coordinates) dz_i
    for i in range(3):
        for j in range(3):
            expected = WeightedPoly.constant(1, d.weights)
            if i != j:
                assert forms.numerators[i][j].is_zero()
            else:
                for l in range(3):
                    if l != i:
                        expected = expected * WeightedPoly.variable(l, d.weights)
                assert forms.numerators[i][j] == expected


def test_dlog_expansion_values(cusp, seki):
    assert [p.format(cusp.variables) for p in dlog_f_expansion(cusp)] == ["6", "0"]
    assert [p.format(seki.variables) for p in dlog_f_expansion(seki)] == ["9", "-96*x", "-36*y"]
    nc = catalog("normal_crossing_4")
    assert [p.format(nc.variables) for p in dlog_f_expansion(nc)] == ["1", "1", "1", "1"]


def test_form_structure_equations_sekiguchi(seki):
    table = form_structure_equations(seki)
    # d alpha = -24 z beta ^ gamma; d beta = -alpha ^ beta - 6 y beta ^ gamma;
    # d gamma = -2 alpha ^ gamma + 40 x beta ^ gamma
    assert table[0] == {(1, 2): poly_of(seki, {(0, 0, 1): -24})}
    assert table[1] == {
        (0, 1): poly_of(seki, {(0, 0, 0): -1}),
        (1, 2): poly_of(seki, {(0, 1, 0): -6}),
    }
    assert table[2] == {
        (0, 2): poly_of(seki, {(0, 0, 0): -2}),
        (1, 2): poly_of(seki, {(1, 0, 0): 40}),
    }


def test_form_structure_equations_cusp(cusp):
    table = form_structure_equations(cusp)
    # d alpha = 0 and d beta = (n - p - q) beta ^ alpha = -(n-p-q) alpha ^ beta
    assert table[0] == {}
    assert table[1] == {(0, 1): poly_of(cusp, {(0, 0): -1})}


def test_form_structure_equations_g2(g2_divisor):
    table = form_structure_equations(g2_divisor)
    one = WeightedPoly.constant(1, g2_divisor.weights)
    # d alpha_E = 0, d alpha_h = alpha_e ^ alpha_f = -alpha_f ^ alpha_e
    assert table[0] == {}
    assert table[1] == {(2, 3): -one}
    # d alpha_f = -2 alpha_h ^ alpha_f, d alpha_e = 2 alpha_h ^ alpha_e
    assert table[2] == {(1, 2): -2 * one}
    assert table[3] == {(1, 3): 2 * one}


def test_frame_constants_borel(borel):
    constants = frame_constants(borel)
    assert constants.toral_w[(0, 0)] == 1
    assert constants.toral_w[(1, 0)] == -1
    assert not constants.semisimple


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_form_pairing_identity(name):
    d = catalog(name)
    forms = dual_log_forms(d)
    matrix = d.coefficient_matrix()
    det = poly_determinant(matrix)
    for i in range(d.n):
        for l in range(d.n):
            pairing = WeightedPoly.zero(d.weights)
            for j in range(d.n):
                pairing = pairing + forms.numerators[i][j] * matrix[l][j]
            assert pairing == (det if i == l else WeightedPoly.zero(d.weights))


def test_poly_adjugate_identity():
    # det is nonzero on every entry, so M * adj = det * I pins adj down
    for name in ALL_NAMES:
        d = catalog(name)
        matrix = d.coefficient_matrix()
        det = poly_determinant(matrix)
        adj = poly_adjugate(matrix)
        assert not det.is_zero()
        for i in range(d.n):
            for j in range(d.n):
                total = WeightedPoly.zero(d.weights)
                for l in range(d.n):
                    total = total + matrix[i][l] * adj[l][j]
                assert total == (det if i == j else WeightedPoly.zero(d.weights)), (name, i, j)


# ------------------------------------------------------ bracket property tests

WEIGHTS = (1, 2)
coeff_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def vector_fields(draw):
    coefficients = []
    for _ in WEIGHTS:
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            mono = tuple(draw(st.integers(0, 2)) for _ in WEIGHTS)
            terms[mono] = draw(coeff_fraction)
        coefficients.append(WeightedPoly(WEIGHTS, terms))
    return VectorFieldPoly(tuple(coefficients))


@settings(max_examples=40, deadline=None)
@given(vector_fields(), vector_fields(), vector_fields())
def test_bracket_is_a_lie_bracket(a, b, c):
    assert (bracket(a, b) + bracket(b, a)).is_zero()
    left = bracket(a, b + c)
    right = bracket(a, b) + bracket(a, c)
    assert (left - right).is_zero()
    jacobi = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert jacobi.is_zero()


def test_frame_analysis_is_computed_once(seki):
    assert seki.structure is seki.structure
    assert seki.constants is seki.constants
    assert seki.dual_forms is seki.dual_forms
    assert seki.pairings is seki.pairings


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cached_frame_analysis_matches_a_fresh_computation(name):
    # each fresh divisor object starts with an empty cache, so the functions
    # on the right recompute everything from the frame
    d = catalog(name)
    assert d.structure == structure_functions(catalog(name))
    assert d.constants == frame_constants(catalog(name))
    assert d.dual_forms == dual_log_forms(catalog(name))
    assert d.determinant == poly_determinant(catalog(name).coefficient_matrix())
    assert d.pairings == tuple(map(tuple, correction_pairings(catalog(name))))


def test_determinant_and_adjugate_share_one_minor_table(monkeypatch):
    tables = []
    original = divisor_module._minor_table

    def counting(rows):
        tables.append(rows)
        return original(rows)

    monkeypatch.setattr(divisor_module, "_minor_table", counting)
    d = catalog("d4")
    assert verify_saito(d).ok
    assert "adjugate" not in vars(d)  # the Saito check reads only the determinant
    assert d.adjugate == tuple(map(tuple, poly_adjugate(catalog("d4").coefficient_matrix())))
    assert d.determinant == poly_determinant(catalog("d4").coefficient_matrix())
    # one table for the divisor, one for each standalone call above
    assert len(tables) == 3


def test_populated_cache_keeps_equality_and_hash():
    d, other = catalog("d4"), catalog("d4")
    before = hash(d)
    d.structure, d.constants, d.dual_forms
    assert d == other
    assert hash(d) == before == hash(other)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_frame_kind_positions_are_cached_and_match_the_frame(name):
    d = catalog(name)
    kinds = [element.kind for element in d.frame]
    assert d.toral_indices == tuple(i for i, kind in enumerate(kinds) if kind == TORAL)
    assert d.semisimple_indices == tuple(i for i, kind in enumerate(kinds) if kind == SEMISIMPLE)
    assert d.w_indices == tuple(i for i, kind in enumerate(kinds) if kind == WTYPE)
    assert d.toral_count == len(d.toral_indices) >= 1
    for attr in ("toral_indices", "semisimple_indices", "w_indices", "toral_count"):
        assert attr in vars(d) and getattr(d, attr) is vars(d)[attr]
    assert d == catalog(name) and hash(d) == hash(catalog(name))


def test_factors_must_multiply_to_f(cusp):
    assert replace(cusp, factors=(cusp.f * 3,)).factors == (cusp.f * 3,)
    for factors in ((cusp.f * cusp.f,), (WeightedPoly.zero(cusp.weights),)):
        with pytest.raises(DivisorError, match="product of the factors"):
            replace(cusp, factors=factors)


# ------------------------------------------- field application against its formula

divisor_of = lru_cache(maxsize=None)(catalog)


def derivative_formula(field: VectorFieldPoly, p: WeightedPoly) -> WeightedPoly:
    """sum_i c_i * dp/dz_i, the definition of applying a field, term by term."""
    total = WeightedPoly.zero(p.weights)
    for i, c in enumerate(field.coefficients):
        total = total + c * p.partial_derivative(i)
    return total


@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32))
def test_field_application_matches_the_derivative_formula(name, seed):
    d = divisor_of(name)
    rng = random.Random(seed)
    p = WeightedPoly(d.weights, {tuple(rng.randint(0, 3) for _ in d.weights): rand_fraction(rng)
                                 for _ in range(rng.randint(0, 4))})
    for element in d.frame:
        field = element.field
        assert field.apply(p) == derivative_formula(field, p)
        for mono in p.terms:
            image = field.on_monomial(mono)
            assert all(image.values())
            assert WeightedPoly(d.weights, image) == derivative_formula(field, WeightedPoly.monomial(mono, d.weights))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_field_application_rejects_another_ring(name):
    d = divisor_of(name)
    field = d.frame[0].field
    other_weights = (d.weights[0] + 1,) + d.weights[1:]
    for weights in (other_weights, d.weights + (1,)):
        with pytest.raises(WeightMismatchError):
            field.apply(WeightedPoly.variable(0, weights))
