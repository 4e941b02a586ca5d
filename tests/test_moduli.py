import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from logres import (
    FrameElement,
    FreeDivisor,
    MatrixPolyMap,
    ModuliPoint,
    RationalMatrix,
    VectorFieldPoly,
    WeightedPoly,
    assemble_connection,
    catalog,
    check_point,
    commutator,
    coordinates_of,
    linear_certificate,
    moduli_system,
    monomials_of_degree,
    restrict_system,
    serialize,
)
from logres.divisor import TORAL, DivisorError, correction_pairings
from logres.liealg import ResidueData, ad_operator
from logres.linear import integer_eigenvalues, rref
from logres.moduli import (Coordinate, Equation, LinearCertificate, MembershipError, PolySystem, ResidueError,
                           _commutator, _constant, _matmul, _products)
from logres.univariate import power

from conftest import (CHI_E, CHI_F, CHI_H, E12, E21, S01, ZERO2, as_written, assert_readings_agree,
                      centralizer_algebra, conjugated, diag, divisor_named, e_degrees, rand_fraction, residue_for,
                      solve_system, span_coordinates)


def unit_map(divisor, r, c, poly=None, m=2):
    zero = WeightedPoly.zero(divisor.weights)
    one = WeightedPoly.constant(1, divisor.weights)
    entries = [[zero for _ in range(m)] for _ in range(m)]
    entries[r][c] = poly if poly is not None else one
    return MatrixPolyMap(entries)


def random_point(problem, rng):
    def sample(space):
        total = MatrixPolyMap.zeros(space.matrix_size, problem.divisor.weights)
        for element in space.basis:
            total = total + element.scale(rand_fraction(rng))
        return total

    return ModuliPoint(
        components=tuple(sample(s) for s in problem.component_spaces),
        corrections=tuple(sample(s) for s in problem.correction_spaces),
    )


# ------------------------------------------------------------ solution spaces

def test_cusp_component_space_basis(cusp):
    spaces = moduli_system(cusp, residue_for(cusp, S01)).component_spaces
    assert len(spaces) == 1
    space = spaces[0]
    assert space.dimension == 2
    assert space.dims_by_degree == {0: 1, 2: 1}
    y = WeightedPoly.variable(1, cusp.weights)
    assert unit_map(cusp, 0, 1) in list(space.basis)
    assert unit_map(cusp, 1, 0, y) in list(space.basis)


def test_component_space_with_zero_residue(seki):
    # with S = 0 every slot is the full gl_2 times the monomials of its grade
    spaces = moduli_system(seki, residue_for(seki, ZERO2)).component_spaces
    dims = [space.dimension for space in spaces]
    assert dims == [
        4 * len(monomials_of_degree(seki.weights, 1)),
        4 * len(monomials_of_degree(seki.weights, 2)),
    ]


def test_sekiguchi_component_shapes(seki):
    # entrywise degrees: B has degrees [[1, 0], [2, 1]], C has [[2, 1], [3, 2]]
    spaces = moduli_system(seki, residue_for(seki, S01)).component_spaces
    expected = [
        {(0, 0): 1, (0, 1): 0, (1, 0): 2, (1, 1): 1},
        {(0, 0): 2, (0, 1): 1, (1, 0): 3, (1, 1): 2},
    ]
    for space, degree_table in zip(spaces, expected):
        seen = {}
        for element in space.basis:
            for r in range(2):
                for c in range(2):
                    poly = element[r, c]
                    if not poly.is_zero():
                        seen.setdefault((r, c), set()).update(e_degrees(poly))
        for entry, degrees in seen.items():
            assert degrees == {degree_table[entry]}
    assert [s.dimension for s in spaces] == [5, 8]


def test_correction_space_cusp(cusp):
    spaces = moduli_system(cusp, residue_for(cusp, S01)).correction_spaces
    assert len(spaces) == 1
    assert spaces[0].dims_by_degree == {0: 2}


def test_correction_space_with_weight_one_variable(seki):
    spaces = moduli_system(seki, residue_for(seki, S01)).correction_spaces
    space = spaces[0]
    assert space.dims_by_degree == {0: 2, 1: 1}
    x = WeightedPoly.variable(0, seki.weights)
    assert unit_map(seki, 1, 0, x) in list(space.basis)


def test_correction_space_zero_residue(cusp):
    spaces = moduli_system(cusp, residue_for(cusp, ZERO2)).correction_spaces
    assert spaces[0].dims_by_degree == {0: 4}


def test_normal_crossing_correction_space():
    d = catalog("normal_crossing_2")
    spaces = moduli_system(d, residue_for(d, S01)).correction_spaces
    assert len(spaces) == 2
    assert spaces[0].dims_by_degree == {0: 2, 2: 1}
    z1z2 = WeightedPoly((1, 1), {(1, 1): Fraction(1)})
    assert unit_map(d, 1, 0, z1z2) in list(spaces[0].basis)


@pytest.mark.parametrize("name", ["cusp", "sekiguchi_b5", "borel2", "normal_crossing_2"])
def test_grading_soundness(name):
    # every basis element satisfies every toral direction equation exactly
    from logres.divisor import frame_constants

    d = catalog(name)
    residue = residue_for(d, S01)
    constants = frame_constants(d)
    toral_fields = [d.frame[i].field for i in d.toral_indices]
    s_consts = [MatrixPolyMap.from_constant(s, d.weights) for s in residue.s_list]
    for slot, space in enumerate(moduli_system(d, residue).component_spaces):
        for element in space.basis:
            for t, field in enumerate(toral_fields):
                lhs = element.apply_field(field)
                rhs = element.scale(constants.toral_w[(t, slot)]) + s_consts[t].commutator(element)
                assert (lhs - rhs).is_zero()
    for space in moduli_system(d, residue).correction_spaces:
        for element in space.basis:
            for t, field in enumerate(toral_fields):
                assert (element.apply_field(field) - s_consts[t].commutator(element)).is_zero()


@pytest.mark.parametrize("name", ["cusp", "sekiguchi_b5", "borel2", "normal_crossing_3"])
def test_degree_bound_is_respected(name):
    d = catalog(name)
    residue = residue_for(d, S01)
    grades = [e.grade for e in d.frame if e.grade is not None]
    bound = max(integer_eigenvalues(ad_operator(residue.grading_element()))) + max(grades + [0])
    problem = moduli_system(d, residue)
    for space in problem.component_spaces + problem.correction_spaces:
        assert all(degree <= bound for degree in space.dims_by_degree)


def test_symmetry_algebra_levi_split(cusp, seki):
    residue = residue_for(cusp, S01)
    sym = moduli_system(cusp, residue).symmetry
    assert (sym.dimension, sym.constant_dimension, sym.positive_dimension) == (2, 2, 0)
    sym = moduli_system(seki, residue_for(seki, S01)).symmetry
    assert (sym.dimension, sym.constant_dimension, sym.positive_dimension) == (3, 2, 1)


def test_symmetry_constant_part_is_centralizer(seki, g2_divisor):
    cases = [
        (seki, residue_for(seki, S01)),
        (g2_divisor, ResidueData((ZERO2,), (1,), chi=(CHI_H, CHI_E, CHI_F))),
    ]
    for d, residue in cases:
        sym = moduli_system(d, residue).symmetry
        mats = list(residue.s_list) + list(residue.chi or ())
        dim, basis = centralizer_algebra(mats, size=2)
        assert sym.constant_dimension == dim
        # exact span equality of the degree-zero parts
        degree_zero = [e.evaluate((0,) * len(d.weights)) for e in sym.basis if e_degrees(e) <= {0}]
        stack = [m.flatten() for m in degree_zero] + [b.flatten() for b in basis]
        assert rref(RationalMatrix(stack)).rank == dim


def test_scalar_residue_gives_full_constant_centralizer(cusp):
    sym = moduli_system(cusp, residue_for(cusp, diag(5, 5))).symmetry
    assert sym.constant_dimension == 4


def test_residue_validation_is_enforced(cusp):
    bad = ResidueData((E12,), (1,))
    with pytest.raises(ResidueError):
        moduli_system(cusp, bad)


def test_residue_slot_count_checked(cusp):
    with pytest.raises(ResidueError):
        moduli_system(cusp, ResidueData((S01, S01), (1, 1)))


# ------------------------------------------------------------------ emission

def test_normal_crossing_1_system_is_nilpotency_only():
    d = catalog("normal_crossing_1")
    problem = moduli_system(d, residue_for(d, S01))
    assert {eq.tag for eq in problem.system.equations} == {"nilpotency"}
    assert problem.system.summary["dim_components"] == 0


def test_plane_curve_zn_equations_match_direct_evaluation(cusp):
    # the ZN block encodes V(N) = [B, N]_c, checked against direct expansion
    residue = residue_for(cusp, S01)
    problem = moduli_system(cusp, residue)
    rng = random.Random(3)
    point = random_point(problem, rng)
    values = coordinates_of(point, problem)
    b, n = point.components[0], point.corrections[0]
    direct = n.apply_field(cusp.frame[1].field) - b.commutator(n)
    for i, eq in enumerate(problem.system.equations):
        if eq.tag != "ZN":
            continue
        r, c = eq.entry
        expected = direct[r, c].terms.get(eq.base_monomial, Fraction(0))
        assert eq.poly.evaluate(values) == expected


def test_emitted_equation_order_is_deterministic(seki):
    residue = residue_for(seki, S01)
    a = moduli_system(seki, residue).system
    b = moduli_system(seki, residue).system
    assert a.coordinate_names == b.coordinate_names
    assert [(e.tag, e.frame_slots, e.entry, e.base_monomial) for e in a.equations] == [
        (e.tag, e.frame_slots, e.entry, e.base_monomial) for e in b.equations
    ]


# ------------------------------------------------------------------ assembly

def test_assemble_sekiguchi_components(seki):
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    rng = random.Random(11)
    for _ in range(5):
        point = random_point(problem, rng)
        conn = assemble_connection(seki, residue, point, problem)
        x = WeightedPoly.variable(0, seki.weights)
        y = WeightedPoly.variable(1, seki.weights)
        n = point.corrections[0]
        s_plus_n = MatrixPolyMap.from_constant(S01, seki.weights) + n
        assert conn.components[0] == s_plus_n
        assert conn.components[1] == point.components[0] + n.scale(Fraction(-32, 3) * x)
        assert conn.components[2] == point.components[1] + n.scale(-4 * y)


def test_assemble_without_corrections_keeps_components(seki):
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    rng = random.Random(5)
    point = random_point(problem, rng)
    point = ModuliPoint(point.components, (MatrixPolyMap.zeros(2, seki.weights),))
    conn = assemble_connection(seki, residue, point, problem)
    assert conn.components[0] == MatrixPolyMap.from_constant(S01, seki.weights)
    assert conn.components[1] == point.components[0]
    assert conn.components[2] == point.components[1]


def test_plane_curve_has_no_pairing_correction(cusp):
    pairings = correction_pairings(cusp)
    assert pairings[0][0].is_zero()


def test_borel_pairings_vanish_on_w_slot(borel):
    pairings = correction_pairings(borel)
    assert pairings[0][0].is_zero()
    assert pairings[1][0].is_zero()


def test_assemble_rejects_outside_points(cusp):
    residue = residue_for(cusp, S01)
    problem = moduli_system(cusp, residue)
    bad = ModuliPoint(
        components=(unit_map(cusp, 0, 0),),  # constant E11 is not in the space
        corrections=(MatrixPolyMap.zeros(2, cusp.weights),),
    )
    with pytest.raises(MembershipError):
        assemble_connection(cusp, residue, bad, problem)


# ------------------------------------------------------------------ checking

def test_check_point_zero_point_violations(seki):
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    zero = ModuliPoint(
        components=(MatrixPolyMap.zeros(2, seki.weights),) * 2,
        corrections=(MatrixPolyMap.zeros(2, seki.weights),),
    )
    report = check_point(seki, residue, zero, problem)
    assert not report.flat
    assert report.flatness.witness == (1, 2)
    violated = [problem.system.equations[i] for i in report.violations]
    assert {eq.tag for eq in violated} == {"curvature"}
    # the residual is the -24 z S term: entry (2,2), base monomial z
    assert [(eq.entry, eq.base_monomial) for eq in violated] == [((1, 1), (0, 0, 1))]


def test_check_point_flat_example(cusp):
    residue = residue_for(cusp, S01)
    problem = moduli_system(cusp, residue)
    point = ModuliPoint(
        components=(unit_map(cusp, 0, 1),),
        corrections=(MatrixPolyMap.zeros(2, cusp.weights),),
    )
    report = check_point(cusp, residue, point, problem)
    assert report.flat and report.in_variety


def test_check_point_computes_coordinates_once(monkeypatch, cusp):
    # one integer reading per check, which flattens and clears each map once
    from logres import moduli

    readings, clearings = [], []
    reading, cleared = moduli._reading, moduli._cleared
    monkeypatch.setattr(moduli, "_reading", lambda *args: readings.append(args) or reading(*args))
    monkeypatch.setattr(moduli, "_cleared", lambda terms: clearings.append(terms) or cleared(terms))
    residue = residue_for(cusp, S01)
    problem = moduli_system(cusp, residue)
    point = ModuliPoint(components=(unit_map(cusp, 0, 1),), corrections=(MatrixPolyMap.zeros(2, cusp.weights),))
    assert check_point(cusp, residue, point, problem).flat
    assert (len(readings), len(clearings)) == (1, 2)
    outside = ModuliPoint(components=(unit_map(cusp, 0, 0),), corrections=point.corrections)
    with pytest.raises(MembershipError):
        check_point(cusp, residue, outside, problem)
    assert (len(readings), len(clearings)) == (2, 4)


CRITERION_3 = [(name, s, "auto") for name in ("cusp", "normal_crossing_2", "borel2", "g2", "d4", "sekiguchi_b5")
               for s in (ZERO2, S01)] + [("g2", ZERO2, (CHI_H, CHI_E, CHI_F))]


@pytest.mark.parametrize("name, s, chi", CRITERION_3,
                         ids=[f"{name}/{'0' if s == ZERO2 else 'S01'}{'' if chi == 'auto' else '+sl2'}"
                              for name, s, chi in CRITERION_3])
def test_a_warm_check_point_builds_no_checked_polynomial(monkeypatch, name, s, chi):
    d = catalog(name)
    residue = residue_for(d, s, chi_value=chi)
    problem = moduli_system(d, residue)
    rng = random.Random(f"warm:{name}")
    parts = []
    for space in problem.component_spaces + problem.correction_spaces:
        total = MatrixPolyMap.zeros(space.matrix_size, d.weights)
        for element in space.basis:
            total = total + element.scale(rand_fraction(rng))
        parts.append(total)
    k = len(problem.component_spaces)
    point = ModuliPoint(components=tuple(parts[:k]), corrections=tuple(parts[k:]))
    expected = check_point(d, residue, point, problem)
    built = []
    original = WeightedPoly.__init__
    monkeypatch.setattr(WeightedPoly, "__init__", lambda self, *args: built.append(args) or original(self, *args))
    assert check_point(d, residue, point, problem) == expected
    assert built == []
    # the residue values enter the connection as the checked constant maps would
    components = assemble_connection(d, residue, point, problem).components
    for pos, idx in enumerate(d.toral_indices):
        assert components[idx] == MatrixPolyMap.from_constant(residue.s_list[pos], d.weights) + point.corrections[pos]
    for pos, idx in enumerate(d.semisimple_indices):
        assert components[idx] == MatrixPolyMap.from_constant(residue.chi[pos], d.weights)


CRITERION_3_IDS = [f"{name}/{'0' if s == ZERO2 else 'S01'}{'' if chi == 'auto' else '+sl2'}"
                   for name, s, chi in CRITERION_3]


@pytest.mark.parametrize("name, s, chi", CRITERION_3, ids=CRITERION_3_IDS)
def test_a_warm_check_point_calls_rref_zero_times(monkeypatch, name, s, chi):
    d = catalog(name)
    residue = residue_for(d, s, chi_value=chi)
    problem = moduli_system(d, residue)
    point = random_point(problem, random.Random(f"rref:{name}"))
    expected = check_point(d, residue, point, problem)
    calls = []
    for module in [module for key, module in sys.modules.items() if key.split(".")[0] == "logres"]:
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", lambda *args, _rref=module.rref: calls.append(args) or _rref(*args))
    assert check_point(d, residue, point, problem) == expected
    assert calls == []


@pytest.mark.parametrize("name, s, chi", CRITERION_3, ids=CRITERION_3_IDS)
def test_pivot_coordinates_match_the_dense_reduction(name, s, chi):
    d = catalog(name)
    assert_readings_agree(moduli_system(d, residue_for(d, s, chi_value=chi)), random.Random(f"pivots:{name}:{s}"))


def test_a_problem_built_for_another_residue_or_divisor_is_refused(cusp):
    # constant E12 is a correction for S = 0, not for S = diag(0, 1): trusting the S = 0 problem
    # would call it "in variety, flat" under S = diag(0, 1), whose spaces reject it
    residue = residue_for(cusp, S01)
    other = moduli_system(cusp, residue_for(cusp, diag(0, 0)))
    point = ModuliPoint(components=(MatrixPolyMap.zeros(2, cusp.weights),), corrections=(unit_map(cusp, 0, 1),))
    for call in (check_point, assemble_connection):
        with pytest.raises(ValueError, match="another divisor or residue"):
            call(cusp, residue, point, other)
        with pytest.raises(MembershipError):
            call(cusp, residue, point)
    cusp_s0 = other.residue
    with pytest.raises(ValueError, match="another divisor or residue"):
        check_point(catalog("borel2"), cusp_s0, point, other)
    # an equal divisor and residue, built apart, are the same problem
    zero = ModuliPoint(components=point.components, corrections=point.components)
    assert check_point(catalog("cusp"), residue_for(cusp, diag(0, 0)), zero, other).flat


def test_check_point_normal_crossing_candidate():
    # correction z1 z2 E21 with S = diag(0,1) on both slots passes the bracket
    # grading [S_j, N]_c = l_j N and commutation, and the point is flat
    d = catalog("normal_crossing_2")
    residue = residue_for(d, S01)
    problem = moduli_system(d, residue)
    z1z2 = WeightedPoly((1, 1), {(1, 1): Fraction(1)})
    n1 = unit_map(d, 1, 0, z1z2)
    for s in residue.s_list:
        lhs = commutator(s, E21)
        assert lhs == E21  # l_j = 1 for the z1 z2 monomial in each slot
    point = ModuliPoint(components=(), corrections=(n1, MatrixPolyMap.zeros(2, d.weights)))
    report = check_point(d, residue, point, problem)
    assert report.flat and report.in_variety


def test_check_point_on_a_product_with_semisimple_and_graded_slots():
    # g2 brings three semisimple slots and sekiguchi_b5 two graded ones;
    # check_point raises if the emitted system and the direct curvature disagree
    d = divisor_named("g2*sekiguchi_b5")
    residue = residue_for(d, (ZERO2, S01))
    problem = moduli_system(d, residue)
    assert len(d.semisimple_indices) == 3 and len(d.w_indices) == 2
    for seed in range(4):
        point = random_point(problem, random.Random(seed))
        report = check_point(d, residue, point, problem)
        assert report.violations and not report.flat
    zero = ModuliPoint(components=(MatrixPolyMap.zeros(2, d.weights),) * 2,
                       corrections=(MatrixPolyMap.zeros(2, d.weights),) * 2)
    report = check_point(d, residue, zero, problem)
    assert {problem.system.equations[i].tag for i in report.violations} == {"curvature"}


def test_membership_coordinates_roundtrip(seki):
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    rng = random.Random(21)
    point = random_point(problem, rng)
    values = coordinates_of(point, problem)
    assert len(values) == len(problem.system.coordinates)
    # rebuild the point from its coordinates and compare
    rebuilt = []
    offset = 0
    for space in problem.component_spaces + problem.correction_spaces:
        total = MatrixPolyMap.zeros(2, seki.weights)
        for element in space.basis:
            total = total + element.scale(values[offset])
            offset += 1
        rebuilt.append(total)
    assert tuple(rebuilt[: len(problem.component_spaces)]) == point.components
    assert tuple(rebuilt[len(problem.component_spaces):]) == point.corrections


def test_an_empty_component_space_holds_only_the_zero_map(cusp):
    problem = moduli_system(cusp, residue_for(cusp, ZERO2))
    assert [space.dimension for space in problem.component_spaces] == [0]
    correction = problem.correction_spaces[0]
    corrections = (correction.basis[0].scale(3),)
    zero = MatrixPolyMap.zeros(2, cusp.weights)
    expected = (Fraction(3),) + (Fraction(0),) * (correction.dimension - 1)
    assert coordinates_of(ModuliPoint(components=(zero,), corrections=corrections), problem) == expected
    with pytest.raises(MembershipError, match="solution space"):
        coordinates_of(ModuliPoint(components=(unit_map(cusp, 0, 1),), corrections=corrections), problem)


def test_a_dependent_basis_refuses_every_nonzero_target(cusp):
    # every element twice: each pivot is read twice, so the sum doubles every nonzero target
    space = moduli_system(cusp, residue_for(cusp, S01)).component_spaces[0]
    doubled = replace(space, elements=space.elements + space.elements)
    for target in (space.basis[0], space.basis[1].scale(Fraction(-2, 3)), unit_map(cusp, 0, 0)):
        with pytest.raises(MembershipError, match="solution space"):
            span_coordinates(doubled, target)
    assert span_coordinates(doubled, MatrixPolyMap.zeros(2, cusp.weights)) == [Fraction(0)] * 4


# --------------------------------------------------------------- restriction

def test_restriction_and_certificate(seki):
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    names = problem.system.coordinate_names
    keep = {"B1[2,2]*x", "B2[1,2]*x", "B2[2,2]*x^2", "B2[2,2]*y"}
    assignments = {}
    for name in names:
        if name == "B1[1,2]":
            assignments[name] = Fraction(1)
        elif name not in keep:
            assignments[name] = Fraction(0)
    restricted = restrict_system(problem.system, assignments)
    assert len(restricted.equations) == 5
    certificate = linear_certificate(restricted)
    assert certificate.status == "inconsistent"


@pytest.mark.parametrize("value, constants", [(0, 1), (1, 21)])
def test_certificate_with_every_coordinate_pinned(seki, value, constants):
    system = moduli_system(seki, residue_for(seki, S01)).system
    restricted = restrict_system(system, {name: Fraction(value) for name in system.coordinate_names})
    assert restricted.coordinates == ()
    assert len(restricted.equations) == constants
    assert all(list(eq.terms) == [()] for eq in restricted.equations)
    assert linear_certificate(restricted) == LinearCertificate(
        "inconsistent", None, "linear subsystem is already inconsistent")


def test_certificate_of_the_empty_system_is_consistent(seki):
    # S = 0 is flat at the zero point, so pinning everything to 0 leaves nothing
    system = moduli_system(seki, residue_for(seki, ZERO2)).system
    restricted = restrict_system(system, {name: Fraction(0) for name in system.coordinate_names})
    assert restricted.coordinates == () and restricted.equations == ()
    assert linear_certificate(restricted) == LinearCertificate("consistent", (), None)


@pytest.mark.parametrize("ncoords", [2, 3])
def test_a_contradictory_linear_part_is_inconsistent_not_undetermined(ncoords):
    # x0 + x1 = 1 and x0 + x1 = 2 leave free directions (two with an unused x2), but the contradiction is reported first
    coordinates = tuple(Coordinate(f"x{i}", ("component", 0), i, 0) for i in range(ncoords))
    equations = tuple(Equation("curvature", (0,), (0, 0), (0,), {(0,): 1, (1,): 1, (): -c}, ncoords) for c in (1, 2))
    system = PolySystem("lines", 1, coordinates, equations, {})
    assert linear_certificate(system) == LinearCertificate(
        "inconsistent", None, "linear subsystem is already inconsistent")
    assert linear_certificate(replace(system, equations=equations[:1])).status == "undetermined"
    if ncoords == 2:  # x0 + x1 = 1 and x0 - x1 = 3 meet at (2, -1)
        crossing = Equation("curvature", (0,), (0, 0), (0,), {(0,): 1, (1,): -1, (): -3}, 2)
        certificate = linear_certificate(replace(system, equations=(equations[0], crossing)))
        assert certificate == LinearCertificate("consistent", (2, -1), None)
        assert all(type(v) is Fraction for v in certificate.solution)


def test_equation_evaluate_rejects_a_point_of_the_wrong_length():
    d = catalog("sekiguchi_b5")
    system = moduli_system(d, residue_for(d, diag(0, 1))).system
    assert len(system.coordinates) == 16
    equation = system.equations[0]
    assert equation.evaluate([1] * 16) == system.evaluate([1] * 16)[0]
    for count in (15, 21):
        with pytest.raises(ValueError, match="coordinate value count mismatch"):
            equation.evaluate([1] * count)


def dense_restrict(system, assignments):
    """Restriction through each equation's dense polynomial: the oracle for
    ``restrict_system``.  Returns (tag, slots, entry, base monomial, polynomial)."""
    names = system.coordinate_names
    keep = [i for i, name in enumerate(names) if name not in assignments]
    pinned = {i: assignments[name] for i, name in enumerate(names) if name in assignments}
    width = max(len(keep), 1)
    out = []
    for eq in system.equations:
        terms = {}
        for mono, coeff in eq.poly.terms.items():
            for i, value in pinned.items():
                coeff *= value ** mono[i]
            new = tuple(mono[old] for old in keep) or (0,)
            terms[new] = terms.get(new, 0) + coeff
        poly = WeightedPoly((1,) * width, terms)
        if poly:
            out.append((eq.tag, eq.frame_slots, eq.entry, eq.base_monomial, poly))
    return out


def dense_certificate(system):
    """``linear_certificate`` computed on the dense polynomials."""
    rows, rhs, higher = [], [], []
    for eq in system.equations:
        if eq.poly.total_degree() <= 1:
            row = [Fraction(0)] * len(system.coordinates)
            constant = Fraction(0)
            for mono, coeff in eq.poly.terms.items():
                if any(mono):
                    row[mono.index(1)] = coeff
                else:
                    constant = coeff
            rows.append(row)
            rhs.append(-constant)
        else:
            higher.append(eq)
    if not rows:
        return LinearCertificate("undetermined", None, None)
    result = solve_system(RationalMatrix(rows), rhs)
    if result.inconsistent:
        return LinearCertificate("inconsistent", None, "linear subsystem is already inconsistent")
    if result.kernel:
        return LinearCertificate("undetermined", None, None)
    for eq in higher:
        value = eq.poly.evaluate(result.solution)
        if value:
            witness = (f"equation tagged {eq.tag} at entry {eq.entry} evaluates to {value} "
                       "at the unique solution of the linear part")
            return LinearCertificate("inconsistent", tuple(result.solution), witness)
    return LinearCertificate("consistent", tuple(result.solution), None)


CRITERION3 = [(name, s, "auto") for name in ("cusp", "normal_crossing_2", "borel2", "g2", "d4", "sekiguchi_b5")
              for s in (ZERO2, S01)] + [("g2", ZERO2, (CHI_H, CHI_E, CHI_F))]


@pytest.mark.parametrize("case", range(len(CRITERION3)))
def test_restriction_and_certificate_match_the_dense_computation(case):
    name, s, chi = CRITERION3[case]
    d = catalog(name)
    system = moduli_system(d, residue_for(d, s, chi)).system
    names = system.coordinate_names
    rng = random.Random(f"restrict:{case}")
    for share in (0.3, 0.6, 0.9):
        assignments = {name: (rand_fraction(rng) if rng.random() < 0.5 else Fraction(0))
                       for name in names if rng.random() < share}
        if len(assignments) == len(names):
            assignments.pop(names[0])
        restricted = restrict_system(system, assignments)
        assert [(eq.tag, eq.frame_slots, eq.entry, eq.base_monomial, eq.poly) for eq in restricted.equations] \
            == dense_restrict(system, assignments)
        assert all(type(coeff) is (int if coeff.denominator == 1 else Fraction)
                   for eq in restricted.equations for coeff in eq.terms.values())
        if restricted.equations:
            assert linear_certificate(restricted) == dense_certificate(restricted)


@pytest.mark.parametrize("case", range(len(CRITERION3)))
def test_coordinates_of_returns_the_coefficients_of_a_seeded_point(case):
    # the coordinates are read off the kernel vector of [-basis | target]: exactly the coefficients, as Fractions
    name, s, chi = CRITERION3[case]
    d = catalog(name)
    problem = moduli_system(d, residue_for(d, s, chi))
    rng = random.Random(f"coordinates:{case}")
    coefficients, maps = [], []
    for space in problem.component_spaces + problem.correction_spaces:
        total = MatrixPolyMap.zeros(space.matrix_size, d.weights)
        for element in space.basis:
            coefficients.append(rand_fraction(rng))
            total = total + element.scale(coefficients[-1])
        maps.append(total)
    ncomponents = len(problem.component_spaces)
    point = ModuliPoint(components=tuple(maps[:ncomponents]), corrections=tuple(maps[ncomponents:]))
    values = coordinates_of(point, problem)
    assert values == tuple(coefficients) and all(type(v) is Fraction for v in values)


def test_restrict_unknown_coordinate(cusp):
    problem = moduli_system(cusp, residue_for(cusp, S01))
    with pytest.raises(KeyError):
        restrict_system(problem.system, {"missing": Fraction(0)})


def test_sekiguchi_constant_nilpotent_flat_point(seki):
    # with zero residue, a constant nilpotent correction alone gives a flat
    # point, and flatness genuinely needs the pairing corrections on the
    # graded components
    residue = residue_for(seki, ZERO2)
    problem = moduli_system(seki, residue)
    n = MatrixPolyMap.from_constant(E12, seki.weights)
    zero = MatrixPolyMap.zeros(2, seki.weights)
    point = ModuliPoint(components=(zero, zero), corrections=(n,))
    report = check_point(seki, residue, point, problem)
    assert report.flat and report.in_variety
    conn = assemble_connection(seki, residue, point, problem)
    x = WeightedPoly.variable(0, seki.weights)
    y = WeightedPoly.variable(1, seki.weights)
    assert conn.components[1] == n.scale(Fraction(-32, 3) * x)
    assert conn.components[2] == n.scale(-4 * y)
    from logres import LogConnection, is_flat

    uncorrected = LogConnection(seki, (n, zero, zero))
    assert not is_flat(uncorrected).flat


def test_cusp_gl3_pipeline(cusp):
    # matrix size 3: with S = diag(0, 1, 3) the component degrees d satisfy
    # d - 1 in {0, +-1, +-2, +-3} and d realizable over weights (3, 2):
    # {1, E12}, {y, E21}, {x, E32}, {y^2, E31}; corrections sit at
    # {diag constants, y E32, x E31}
    residue = residue_for(cusp, diag(0, 1, 3))
    problem = moduli_system(cusp, residue)
    space = problem.component_spaces[0]
    assert space.dimension == 4
    assert space.dims_by_degree == {0: 1, 2: 1, 3: 1, 4: 1}
    corr = problem.correction_spaces[0]
    assert corr.dimension == 5
    assert corr.dims_by_degree == {0: 3, 2: 1, 3: 1}
    rng = random.Random("gl3")
    for _ in range(5):
        point = random_point(problem, rng)
        check_point(cusp, residue, point, problem)  # raises on any oracle mismatch
    # a flat point: B = E12 constant, N = 0 (same resonance as the gl2 case)
    zero = MatrixPolyMap.zeros(3, cusp.weights)
    point = ModuliPoint(components=(unit_map(cusp, 0, 1, m=3),), corrections=(zero,))
    report = check_point(cusp, residue, point, problem)
    assert report.flat and report.in_variety


def test_cusp_with_a_grading_element_without_rational_eigenvalues(cusp):
    # G = block_diag(A, A + I), A = [[0, 2], [1, 0]], has the eigenvalues
    # +-sqrt(2) and 1 +- sqrt(2); ad G has the integer eigenvalues -1, 0, 1
    g = RationalMatrix([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 1]])
    problem = moduli_system(cusp, residue_for(cusp, g))
    assert [s.dims_by_degree for s in problem.component_spaces] == [{0: 2, 2: 2}]
    assert [s.dims_by_degree for s in problem.correction_spaces] == [{0: 4}]
    assert len(problem.system.coordinates) == 8
    assert len(problem.system.equations) == 16


def test_borel_solution_spaces(borel):
    # with S1 = S2 = diag(0,1): the component space is the line through
    # x E21 (E1-degree 2, E2-degree 0) and corrections are the diagonal
    # constants plus y E21 (E-degree 2 with weights (2,2,2))
    problem = moduli_system(borel, residue_for(borel, S01))
    space = problem.component_spaces[0]
    assert space.dimension == 1
    x = WeightedPoly.variable(0, borel.weights)
    assert space.basis[0] == unit_map(borel, 1, 0, x)
    corr = problem.correction_spaces[0]
    assert corr.dims_by_degree == {0: 2, 2: 1}
    y = WeightedPoly.variable(1, borel.weights)
    assert unit_map(borel, 1, 0, y) in list(corr.basis)
    # the flat locus here is the affine line of component values t * x E21
    point = ModuliPoint(
        components=(space.basis[0].scale(Fraction(7, 3)),),
        corrections=(MatrixPolyMap.zeros(2, borel.weights),) * 2,
    )
    report = check_point(borel, residue_for(borel, S01), point, problem)
    assert report.flat and report.in_variety


def test_slot_solve_offsets(g2_divisor):
    # white box: with zero residue every constant matrix solves the zero-offset
    # equations, while offset 1 on the first semisimple direction forces M = 0
    from logres.moduli import _check_pair, _solve_slot

    residue = residue_for(g2_divisor, ZERO2)
    _check_pair(g2_divisor, residue)
    directions = g2_divisor.toral_count + len(g2_divisor.semisimple_indices)
    zeros = [Fraction(0)] * directions
    solutions = _solve_slot(g2_divisor, residue, 0, zeros)
    assert [degree for degree, _ in solutions] == [0] * 4  # the constants in gl_2
    first_semisimple = [Fraction(0)] * directions
    first_semisimple[g2_divisor.toral_count] = Fraction(1)
    assert _solve_slot(g2_divisor, residue, 0, first_semisimple) == []


def test_slot_moving_semisimple_field_is_rejected():
    # a semisimple field that moves one graded slot into another leaves no
    # per-slot normal form: rejected before any solve, whatever the residue
    d = divisor_named("g2*sekiguchi_b5")
    action = dict(d.constants.semisimple_action)
    action[(0, 0)] = (Fraction(0), Fraction(1))
    d.__dict__["constants"] = replace(d.constants, semisimple_action=action)
    with pytest.raises(DivisorError, match="mixes graded slots"):
        moduli_system(d, residue_for(d, (ZERO2, S01)))


def test_emission_builds_no_matrix_maps(monkeypatch, seki):
    def forbidden(*args):
        raise AssertionError("emission called a MatrixPolyMap operation")

    monkeypatch.setattr(MatrixPolyMap, "matmul", forbidden)
    monkeypatch.setattr(MatrixPolyMap, "apply_field", forbidden)
    system = moduli_system(seki, residue_for(seki, diag(0, 1, 2))).system
    assert {eq.tag for eq in system.equations} == {"curvature", "ZN", "nilpotency"}


@pytest.mark.parametrize("name, s, chi", [
    ("cusp", diag(0, 1, 2, 3), "auto"),
    ("sekiguchi_b5", conjugated(diag(0, 1, 2), random.Random(3)), "auto"),
    ("borel2", diag(0, 1, 2), "auto"),
    ("d4", S01, "auto"),
    ("g2", ZERO2, (CHI_H, CHI_E, CHI_F)),
], ids=["cusp/diag(0,1,2,3)", "sekiguchi_b5/diag(0,1,2)~conj", "borel2/diag(0,1,2)", "d4/S01", "g2/0+sl2"])
def test_a_warm_moduli_system_builds_no_polynomial_or_matrix_map(monkeypatch, name, s, chi):
    """Once the divisor's and the residue's caches are filled, the solve and
    the emission work on sparse terms alone: no ``WeightedPoly`` and no
    ``MatrixPolyMap`` is constructed, by the checking constructor or by ``_of``."""
    d = catalog(name)
    residue = residue_for(d, s, chi)
    moduli_system(d, residue)
    built = []

    def counted(original):
        def wrapper(*args, **kwargs):
            built.append(original.__qualname__)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(WeightedPoly, "__init__", counted(WeightedPoly.__init__))
    monkeypatch.setattr(MatrixPolyMap, "__init__", counted(MatrixPolyMap.__init__))
    monkeypatch.setattr(MatrixPolyMap, "_of", classmethod(counted(MatrixPolyMap._of.__func__)))
    problem = moduli_system(d, residue)
    assert problem.system.coordinates
    assert built == []


def test_emission_builds_no_polynomial_over_the_coordinates(monkeypatch):
    d = catalog("sekiguchi_b5")
    residue = residue_for(d, conjugated(diag(0, 1, 2), random.Random(3)))
    original = WeightedPoly.__init__

    def guarded(self, weights, terms=None):
        if len(weights) > d.n:
            raise AssertionError(f"a polynomial over {len(weights)} variables was built")
        original(self, weights, terms)

    monkeypatch.setattr(WeightedPoly, "__init__", guarded)
    system = moduli_system(d, residue).system
    assert len(system.coordinates) > d.n
    serialize.system_to_json(system, d.variables)
    with pytest.raises(AssertionError):
        system.equations[0].poly  # the dense view is exactly what the guard forbids


def naive_matmul(a, b):
    """The sparse product one term pair at a time: the oracle for ``_products``."""
    out = {}
    for (key_a, r, s, mono_a), coeff_a in a.items():
        for (key_b, s_b, c, mono_b), coeff_b in b.items():
            if s == s_b:
                term = (tuple(sorted(key_a + key_b)), r, c, tuple(x + y for x, y in zip(mono_a, mono_b)))
                out[term] = out.get(term, 0) + coeff_a * coeff_b
    return {term: coeff for term, coeff in out.items() if coeff}


def random_value(rng, m, integral):
    """Several (coordinate monomial, base monomial) blocks of a few entries each."""
    value = {}
    for _ in range(rng.randint(1, 6)):
        key = tuple(sorted(rng.randrange(4) for _ in range(rng.randint(0, 2))))
        mono = (rng.randint(0, 2), rng.randint(0, 1))
        for _ in range(rng.randint(1, 3)):
            value[(key, rng.randrange(m), rng.randrange(m), mono)] = random_coeff(rng, integral)
    return value


def dense_value(rng, m, integral):
    """One or two base monomials, each carrying two or three coordinate
    monomials whose m x m blocks have every entry nonzero."""
    value = {}
    for mono in rng.sample([(0, 0), (1, 0), (0, 1), (2, 1)], rng.randint(1, 2)):
        for key in rng.sample([(), (0,), (1,), (0, 1), (2, 2)], rng.randint(2, 3)):
            value.update(((key, r, c, mono), random_coeff(rng, integral)) for r in range(m) for c in range(m))
    return value


def random_coeff(rng, integral):
    if integral or rng.random() < 0.5:
        return rng.choice((-2, -1, 1, 3))
    return rand_fraction(rng) or Fraction(1, 2)


def naive_sum(*parts):
    """The sum of sparse values, zeros dropped."""
    out = {}
    for part in parts:
        for term, coeff in part.items():
            out[term] = out.get(term, 0) + coeff
    return {term: coeff for term, coeff in out.items() if coeff}


def kernel_cases(seed):
    """300 seeded (a, b, integral) operand pairs, every third one with int
    coefficients only: sparse m x m operands, m from 1 to 5, with at most 18
    terms, and in every tenth pair dense ones, m from 2 to 6."""
    rng = random.Random(seed)
    for trial in range(300):
        integral = trial % 3 == 0
        if trial % 10 == 9:
            m = rng.randint(2, 6)
            yield dense_value(rng, m, integral), dense_value(rng, m, integral), integral
        else:
            m = rng.randint(1, 5)
            yield random_value(rng, m, integral), random_value(rng, m, integral), integral


def test_matmul_matches_the_term_pair_product():
    unmatched = full = 0
    for a, b, integral in kernel_cases(11):
        product = _matmul(a, b)
        assert product == naive_matmul(a, b)
        assert all(coeff for coeff in product.values())
        if integral:
            assert all(type(coeff) is int for coeff in product.values())
        rows = {s for _, s, _, _ in b}
        unmatched += sum(s not in rows for _, _, s, _ in a)
        blocks = {}
        for key, r, c, mono in a:
            blocks.setdefault(mono, {}).setdefault(key, set()).add((r, c))
        full += any(len(keys) > 1 and all(len(entries) == 36 for entries in keys.values())
                    for keys in blocks.values())
    assert unmatched > 0  # terms of a whose inner index meets no row of b
    assert full > 0  # several full 6 x 6 blocks on one base monomial


def test_matmul_sums_and_cancels_across_coordinate_monomials():
    # (0,) x (1,) and (1,) x (0,) land on one coordinate monomial and cancel
    z = (0, 0)
    a = {((0,), 0, 0, z): 1, ((1,), 0, 0, z): 1}
    b = {((1,), 0, 0, z): 1, ((0,), 0, 0, z): Fraction(-1)}
    assert _matmul(a, b) == {((0, 0), 0, 0, z): -1, ((1, 1), 0, 0, z): 1}


def test_kernel_commutator_matches_two_term_pair_products():
    for a, b, integral in kernel_cases(21):
        bracket = _commutator(a, b)
        negated = {term: -coeff for term, coeff in naive_matmul(b, a).items()}
        assert bracket == naive_sum(naive_matmul(a, b), negated)
        assert all(coeff for coeff in bracket.values())
        if integral:
            assert all(type(coeff) is int for coeff in bracket.values())
        # the factors of one call add into one dict: the sum of the signed products
        assert _products((a, b, 1), (b, b, -1), (a, a, 1)) == naive_sum(
            naive_matmul(a, b), {term: -coeff for term, coeff in naive_matmul(b, b).items()}, naive_matmul(a, a))


def test_kernel_self_commutator_and_empty_operands_vanish():
    for a, b, _ in kernel_cases(22):
        assert _commutator(a, a) == {}
        assert _matmul(a, {}) == _matmul({}, b) == _commutator({}, b) == _products() == {}


def test_kernel_powers_match_repeated_term_pair_products():
    # the nilpotency path: moduli_system emits power(corrs[0], m, _matmul)
    for a, _, integral in kernel_cases(23):
        expected = a
        # the fourth and fifth powers of a dense operand hold thousands of terms
        for k in range(1, 6 if len(a) <= 18 else 4):
            if k > 1:
                expected = naive_matmul(expected, a)
            result = power(a, k, _matmul)
            assert result == expected
            if integral:
                assert all(type(coeff) is int for coeff in result.values())


def test_sparse_bracket_matches_the_matrix_commutator():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(1, 5)
        a, b = (RationalMatrix([[rand_fraction(rng) if rng.random() < 0.5 else 0 for _ in range(m)]
                                for _ in range(m)]) for _ in range(2))
        assert _commutator(_constant(a, 2), _constant(b, 2)) == _constant(commutator(a, b), 2)


@pytest.mark.parametrize("name,s", [("cusp", diag(0, 1, 2, 3)), ("sekiguchi_b5", diag(0, 1, 2)),
                                    ("borel2", diag(0, 1, 2))])
def test_sparse_bracket_on_conjugated_residues(name, s):
    d = catalog(name)
    residue = residue_for(d, conjugated(s, random.Random(3)))
    value = residue.s_list[0]
    for basis in residue.grading_eigenspaces.values():
        for mat in basis:
            for a, b in ((value, mat), (mat, value)):
                assert _commutator(_constant(a, d.n), _constant(b, d.n)) == _constant(
                    commutator(a, b), d.n)


@pytest.mark.parametrize("name, s", [("normal_crossing_4", diag(0, 1, 2)),
                                     ("cusp", conjugated(diag(0, 1, 2, 3), random.Random(3)))],
                         ids=["normal_crossing_4/diag(0,1,2)", "cusp/diag(0,1,2,3)~conj"])
def test_residue_brackets_hold_integral_entries_as_ints(name, s):
    # the solve multiplies these entries into its columns, and stays on ints
    # only while they are ints
    residue = residue_for(catalog(name), s)
    entries = [v for pairs in residue.grading_brackets.values() for eig, brackets in pairs
               for v in eig + sum(brackets, ())]
    assert any(entries)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in entries)


@pytest.mark.parametrize("name, s", [
    ("normal_crossing_3", S01), ("normal_crossing_4", S01), ("normal_crossing_5", S01),
    ("normal_crossing_4", diag(0, 2)), ("normal_crossing_4", diag(0, 1, 2))])
def test_the_sieve_reads_spectra_built_once_per_residue(monkeypatch, name, s):
    # the sieve looks each character value up in residue.bracket_spectra: no
    # call makes a rank test, and a warm call searches no eigenvalue
    import logres.moduli
    from logres import liealg

    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    monkeypatch.setattr(logres.moduli, "rref", counting("rref", logres.moduli.rref))
    monkeypatch.setattr(liealg, "integer_eigenvalues", counting("integer_eigenvalues", liealg.integer_eigenvalues))
    d = catalog(name)
    assert d.diagonal_characters
    residue = residue_for(d, s)
    moduli_system(d, residue)
    assert "rref" not in calls and "integer_eigenvalues" in calls and "bracket_spectra" in vars(residue)
    calls.clear()
    moduli_system(d, residue)
    assert calls == []


def test_a_divisor_without_characters_builds_no_spectra(cusp):
    assert not cusp.diagonal_characters
    residue = residue_for(cusp, diag(0, 1, 2))
    moduli_system(cusp, residue)
    assert "grading_brackets" in vars(residue) and "bracket_spectra" not in vars(residue)


def test_a_residue_is_validated_and_bracketed_once(monkeypatch, cusp):
    # chi-free, so validation reads nothing of the divisor: a repeated call
    # reads the residue's cached verdict and brackets
    from logres import liealg

    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for name in ("is_semisimple", "commutator"):
        monkeypatch.setattr(liealg, name, counting(name, getattr(liealg, name)))
    residue = residue_for(cusp, conjugated(diag(0, 1, 2), random.Random(5)))
    assert residue.chi is None
    moduli_system(cusp, residue)
    assert set(calls) == {"is_semisimple", "commutator"}
    # the conjugate is solved in its weight basis: the gauged residue keeps the brackets
    assert "grading_brackets" in vars(residue.weight_form[1]) and "grading_brackets" not in vars(residue)
    calls.clear()
    moduli_system(cusp, residue)
    assert calls == []


def test_moduli_system_applies_fields_without_polynomial_products(monkeypatch):
    d = catalog("normal_crossing_4")
    residue = residue_for(d, diag(0, 1, 2))
    # the cached per-divisor and per-residue facts multiply polynomials: build them first
    d.structure, d.constants, residue.grading_eigenspaces

    def forbidden(*args):
        raise AssertionError("moduli_system multiplied polynomials")

    monkeypatch.setattr(WeightedPoly, "__mul__", forbidden)
    monkeypatch.setattr(VectorFieldPoly, "apply", forbidden)
    assert moduli_system(d, residue).system.equations


def test_every_solve_block_is_reduced_through_the_rref_name(monkeypatch):
    # a tracer sees the solves by rebinding logres.linear.rref, so
    # block_kernel must look that name up exactly once per call; g2 with the
    # sl2 chi hands it rows, while the sieve leaves normal_crossing_4
    # diag(0,2) no column with entries, so its calls get none
    import logres.linear
    import logres.moduli

    calls, made = [], []
    rref_at_import, block_kernel_at_import = logres.linear.rref, logres.linear.block_kernel

    def counting_rref(*args):
        calls.append(args[0].rows)
        return rref_at_import(*args)

    def counting_block_kernel(columns):
        before = len(calls)
        vectors = block_kernel_at_import(columns)
        made.append(calls[before:])
        return vectors

    monkeypatch.setattr(logres.linear, "rref", counting_rref)
    monkeypatch.setattr(logres.moduli, "block_kernel", counting_block_kernel)
    for name, residue, reduces in [("g2", lambda d: residue_for(d, ZERO2, chi_value=(CHI_H, CHI_E, CHI_F)), True),
                                   ("normal_crossing_4", lambda d: residue_for(d, diag(0, 2)), False)]:
        made.clear()
        d = catalog(name)
        moduli_system(d, residue(d))
        assert made and all(len(rows) == 1 for rows in made)
        assert any(rows[0] for rows in made) == reduces


def test_the_character_sieve_leaves_three_correction_columns(monkeypatch):
    # normal_crossing_5 with S01 on every slot has no graded slot: of the 128
    # candidates of its one solve, the corrections', the toral characters keep
    # the 3 that can solve it
    import logres.moduli

    handed = []
    block_kernel_at_import = logres.moduli.block_kernel

    def counting_block_kernel(columns):
        handed.append(len(columns))
        return block_kernel_at_import(columns)

    monkeypatch.setattr(logres.moduli, "block_kernel", counting_block_kernel)
    d = catalog("normal_crossing_5")
    moduli_system(d, residue_for(d, S01))
    assert sum(handed) == 3


def test_the_h_character_keeps_d4_blocks_small(monkeypatch):
    # d4 diag(0,1,2) with chi = 0, and conjugated, solved as written and
    # gauged: the toral and the h characters keep 10 of the 46 candidates, and
    # the blocks reduced hold at most 84 cells (rows times columns), and 504
    # for the conjugate as written; the frame analysis reduces through rref
    # too, so it runs before the count, as does the conjugate's weight form
    # (P^-1 is one more rref)
    import logres.linear
    import logres.moduli

    handed, cells = [], []
    rref_at_import, block_kernel_at_import = logres.linear.rref, logres.moduli.block_kernel

    def counting_rref(matrix):
        cells.append(matrix.rows * matrix.cols)
        return rref_at_import(matrix)

    def counting_block_kernel(columns):
        handed.append(len(columns))
        return block_kernel_at_import(columns)

    monkeypatch.setattr(logres.linear, "rref", counting_rref)
    monkeypatch.setattr(logres.moduli, "block_kernel", counting_block_kernel)
    d = catalog("d4")
    d.constants
    conjugate = residue_for(d, conjugated(diag(0, 1, 2), random.Random(3)))
    conjugate.weight_form
    for solve, residue, most in ((moduli_system, residue_for(d, diag(0, 1, 2)), 84), (moduli_system, conjugate, 84),
                                 (as_written, conjugate, 504)):
        handed.clear()
        cells.clear()
        solve(d, residue)
        assert sum(handed) <= 10 and 0 < sum(cells) <= most


def test_the_admissible_monomial_work_is_bounded_on_a_large_torus():
    # normal_crossing_16 with diag(0, 2) on every toral slot: the grading
    # element diag(0, 32) gives ad the eigenvalue 32, and the 16 variables
    # have about 7.5 * 10^11 monomials of degree 32
    code = ("from logres import RationalMatrix, ResidueData, catalog, moduli_system; "
            "d = catalog('normal_crossing_16'); s = RationalMatrix([[0, 0], [0, 2]]); "
            "residue = ResidueData(s_list=(s,) * 16, positive_combination=d.positive_combination); "
            "system = moduli_system(d, residue).system; print(len(system.coordinates), len(system.equations))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                          cwd=Path(__file__).resolve().parents[1], env={**os.environ, "PYTHONPATH": "src"})
    k = 16
    assert done.stdout.split() == [str(3 * k), str(k * (k + 1) // 2 + 2 * k)], done.stderr


def test_toral_characters_of_the_catalog():
    assert catalog("normal_crossing_3").diagonal_characters == ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1)))
    assert catalog("borel2").diagonal_characters == ((0, (2, 1, 0)), (1, (0, 1, 2)))
    # the semisimple h fields are diagonal too, numbered after the toral ones
    assert [k for k, _ in catalog("d4").diagonal_characters] == [0, 1, 2, 3]
    assert catalog("d4").diagonal_characters[3] == (3, (1, -1, 1, -1, 1, -1))
    assert catalog("g2").diagonal_characters == ((1, (3, 1, -1, -3)),)
    # a lone toral field is the Euler field, whose value the grading fixes
    for name in ("cusp", "sekiguchi_b5", "normal_crossing_1"):
        assert catalog(name).diagonal_characters == ()


def skewed_normal_crossing_2() -> FreeDivisor:
    """normal_crossing_2 in the coordinates u = x + y, v = y: its toral fields
    x d/dx and y d/dy read (u - v) d/du and v d/du + v d/dv."""
    weights = (1, 1)
    u, v = (WeightedPoly.variable(i, weights) for i in range(2))
    zero = WeightedPoly.zero(weights)
    return FreeDivisor(
        name="normal_crossing_2_skewed",
        variables=("u", "v"),
        weights=weights,
        f=(u - v) * v,
        degree=2,
        frame=(FrameElement(TORAL, VectorFieldPoly((u - v, zero))), FrameElement(TORAL, VectorFieldPoly((v, v)))),
        positive_combination=(1, 1),
        factors=(u - v, v),
    )


def test_a_frame_without_diagonal_toral_fields_solves_unsieved():
    skewed, plain = skewed_normal_crossing_2(), catalog("normal_crossing_2")
    assert skewed.diagonal_characters == ()
    for s in (S01, diag(0, 2), (diag(0, 1), diag(0, 2))):
        got, want = (moduli_system(d, residue_for(d, s)).correction_spaces for d in (skewed, plain))
        assert [space.dims_by_degree for space in got] == [space.dims_by_degree for space in want]
        assert max(got[0].dims_by_degree) > 0
