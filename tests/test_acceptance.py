"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value here was computed independently (hand expansion,
brute-force enumeration, or a second solving path) before being frozen.
"""

import json
import random
from fractions import Fraction

from logres import (
    MatrixPolyMap,
    ModuliPoint,
    RationalMatrix,
    WeightedPoly,
    assemble_connection,
    catalog,
    commutator,
    coordinates_of,
    curvature,
    dlog_f_expansion,
    form_structure_equations,
    is_flat,
    is_nilpotent,
    is_semisimple,
    is_unipotent,
    jordan_chevalley,
    linear_certificate,
    log_unipotent,
    moduli_system,
    monomials_of_degree,
    restrict_system,
    rref,
    verify_saito,
)
from logres.divisor import bracket, correction_pairings
from logres.liealg import ad_operator
from logres.linear import determinant, integer_eigenvalues
from logres.cli import main as cli_main

from conftest import (CHI_E, CHI_F, CHI_H, S01, ZERO2, e_degrees, exp_nilpotent, rand_fraction, residue_for,
                      solve_system)


def announce(number, text):
    print(f"ACCEPTANCE CRITERION {number} PASS: {text}")


# --------------------------------------------------------------- criterion 1

def test_criterion_1_catalog_fidelity(capsys):
    names = ["cusp", "normal_crossing_1", "normal_crossing_2", "normal_crossing_3",
             "normal_crossing_4", "g2", "borel2", "sekiguchi_b5"]
    for name in names:
        assert verify_saito(catalog(name)).ok, name

    cusp = catalog("cusp")
    e, v = (el.field for el in cusp.frame)
    assert (bracket(e, v) - v).is_zero()

    g2 = catalog("g2")
    _, vh, vf, ve = (el.field for el in g2.frame)
    assert (bracket(vh, vf) - vf.scale(2)).is_zero()
    assert (bracket(vh, ve) - ve.scale(-2)).is_zero()
    assert (bracket(vf, ve) - vh).is_zero()

    borel = catalog("borel2")
    e1, e2, vb = (el.field for el in borel.frame)
    assert (bracket(e1, vb) - vb).is_zero()
    assert (bracket(e2, vb) - vb.scale(-1)).is_zero()

    seki = catalog("sekiguchi_b5")
    es, vs, ws = (el.field for el in seki.frame)
    x = WeightedPoly.variable(0, seki.weights)
    y = WeightedPoly.variable(1, seki.weights)
    z = WeightedPoly.variable(2, seki.weights)
    expected = es.scale(24 * z) + vs.scale(6 * y) + ws.scale(-40 * x)
    assert (bracket(vs, ws) - expected).is_zero()

    assert [p.format(seki.variables) for p in dlog_f_expansion(seki)] == ["9", "-96*x", "-36*y"]

    table = form_structure_equations(seki)
    assert table[0] == {(1, 2): -24 * z}
    minus_one = WeightedPoly.constant(-1, seki.weights)
    assert table[1] == {(0, 1): minus_one, (1, 2): -6 * y}
    assert table[2] == {(0, 2): 2 * minus_one, (1, 2): 40 * x}

    g2_table = form_structure_equations(g2)
    one_g2 = WeightedPoly.constant(1, g2.weights)
    assert g2_table[0] == {}
    assert g2_table[1] == {(2, 3): -one_g2}  # d alpha_h = alpha_e ^ alpha_f

    announce(1, "catalog determinants, bracket tables, dlog expansion, and "
                "form structure equations reproduce the reference values exactly")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_overdetermined_restriction(capsys):
    seki = catalog("sekiguchi_b5")
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    keep = ("B1[2,2]*x", "B2[1,2]*x", "B2[2,2]*y", "B2[2,2]*x^2")
    assignments = {}
    for name in problem.system.coordinate_names:
        if name == "B1[1,2]":
            assignments[name] = Fraction(1)
        elif name not in keep:
            assignments[name] = Fraction(0)
    restricted = restrict_system(problem.system, assignments)
    assert restricted.coordinate_names == keep
    assert len(restricted.equations) == 5

    # expected equations in the order (a, d, f, c) = coordinates `keep`,
    # each as {monomial: coefficient}; comparison is up to a nonzero scalar
    a, d_, f_, c_ = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    ad_ = (1, 1, 0, 0)
    const = (0, 0, 0, 0)
    expected = [
        {d_: 2, f_: -1, const: -6},           # 2d = 6 + f22
        {c_: 1, d_: -40, ad_: -1},            # c22 = d (40 + a22)
        {c_: 4, f_: 16, a: -6},               # 4c22 + 16f22 = 6a22
        {f_: 2, a: -3, const: -24},           # 2f22 - 3a22 = 24
        {c_: 1},                              # c22 = 0
    ]

    def matches(eq_terms, target):
        scale = None
        if set(eq_terms) != set(target):
            return False
        for mono, coeff in eq_terms.items():
            ratio = coeff / target[mono]
            if scale is None:
                scale = ratio
            elif ratio != scale:
                return False
        return scale != 0

    remaining = list(expected)
    for eq in restricted.equations:
        hit = next((t for t in remaining if matches(eq.poly.terms, t)), None)
        assert hit is not None, f"unexpected equation {eq.poly.terms}"
        remaining.remove(hit)
    assert not remaining

    certificate = linear_certificate(restricted)
    assert certificate.status == "inconsistent"
    # the linear part pins (a, d, f, c) = (-32/3, 1, -4, 0)
    assert certificate.solution == (Fraction(-32, 3), Fraction(1), Fraction(-4), Fraction(0))

    # rref certificate: the unique linear solution turns the remaining
    # quadratic into the row 0 = 88/3
    quadratic = next(eq for eq in restricted.equations if eq.poly.total_degree() == 2)
    residual = quadratic.poly.evaluate(certificate.solution)
    assert residual in (Fraction(88, 3), Fraction(-88, 3))
    rows = []
    rhs = []
    for eq in restricted.equations:
        if eq.poly.total_degree() <= 1:
            row = [Fraction(0)] * 4
            constant = Fraction(0)
            for mono, coeff in eq.poly.terms.items():
                if any(mono):
                    row[mono.index(1)] = coeff
                else:
                    constant = coeff
            rows.append(row)
            rhs.append(-constant)
    rows.append([Fraction(0)] * 4)
    rhs.append(residual)
    assert solve_system(RationalMatrix(rows), rhs).inconsistent

    announce(2, "restricted system is exactly the expected five equations and "
                "row reduction certifies it has no solutions")


# --------------------------------------------------------------- criterion 3

def _random_point(problem, rng):
    def sample(space):
        total = MatrixPolyMap.zeros(space.matrix_size, problem.divisor.weights)
        for element in space.basis:
            total = total + element.scale(rand_fraction(rng))
        return total

    return ModuliPoint(
        components=tuple(sample(s) for s in problem.component_spaces),
        corrections=tuple(sample(s) for s in problem.correction_spaces),
    )


def _reassemble(problem, values, tag, slots):
    """Rebuild the matrix polynomial of one tagged equation group at a point."""
    d = problem.divisor
    m = problem.system.matrix_size
    total = MatrixPolyMap.zeros(m, d.weights)
    for eq, value in zip(problem.system.equations, values):
        if eq.tag != tag or eq.frame_slots != slots:
            continue
        if value == 0:
            continue
        mono = WeightedPoly.monomial(eq.base_monomial, d.weights, value)
        bump = [[WeightedPoly.zero(d.weights)] * m for _ in range(m)]
        bump[eq.entry[0]][eq.entry[1]] = mono
        total = total + MatrixPolyMap(bump)
    return total


def _oracle_check_one(divisor, residue, problem, rng):
    point = _random_point(problem, rng)
    coords = coordinates_of(point, problem)
    values = problem.system.evaluate(coords)
    equations = problem.system.equations

    conn = assemble_connection(divisor, residue, point, problem)
    report = is_flat(conn)
    flat_tags = ("curvature", "ZN", "NN-commute")
    system_says_flat = all(
        v == 0 for eq, v in zip(equations, values) if eq.tag in flat_tags
    )
    assert report.flat == system_says_flat

    # nilpotency tags agree with the direct entrywise power
    for l, correction in enumerate(point.corrections):
        slot = (divisor.toral_indices[l],)
        tagged_zero = all(
            v == 0 for eq, v in zip(equations, values)
            if eq.tag == "nilpotency" and eq.frame_slots == slot
        )
        assert tagged_zero == correction.power(residue.matrix_size).is_zero()

    # per-coefficient agreement: each curvature component must equal the
    # matching combination of emitted equation groups
    pairings = correction_pairings(divisor) if divisor.w_indices else []
    toral_pos = {idx: pos for pos, idx in enumerate(divisor.toral_indices)}
    w_pos = {idx: pos for pos, idx in enumerate(divisor.w_indices)}
    semis = set(divisor.semisimple_indices)
    m = residue.matrix_size

    def nn(p1, p2):
        i1, i2 = divisor.toral_indices[p1], divisor.toral_indices[p2]
        if p1 == p2:
            return MatrixPolyMap.zeros(m, divisor.weights)
        if p1 < p2:
            return _reassemble(problem, values, "NN-commute", (i1, i2))
        return _reassemble(problem, values, "NN-commute", (i2, i1)).scale(Fraction(-1))

    def zn(w_position, toral_position):
        slots = (divisor.w_indices[w_position], divisor.toral_indices[toral_position])
        return _reassemble(problem, values, "ZN", slots)

    for (i, j), component in curvature(conn).items():
        if i in semis or j in semis:
            expected = MatrixPolyMap.zeros(m, divisor.weights)
        elif i in toral_pos and j in toral_pos:
            expected = nn(toral_pos[i], toral_pos[j]).scale(Fraction(-1))
        elif i in toral_pos and j in w_pos:
            l, a = toral_pos[i], w_pos[j]
            expected = zn(a, l).scale(Fraction(-1))
            for b in range(divisor.toral_count):
                factor = pairings[b][a]
                if not factor.is_zero():
                    expected = expected + nn(b, l).scale(factor)
        else:
            a, b = w_pos[i], w_pos[j]
            expected = _reassemble(problem, values, "curvature", (i, j))
            for t in range(divisor.toral_count):
                fj = pairings[t][b]
                if not fj.is_zero():
                    expected = expected + zn(a, t).scale(fj)
                fi = pairings[t][a]
                if not fi.is_zero():
                    expected = expected - zn(b, t).scale(fi)
            for t1 in range(divisor.toral_count):
                for t2 in range(divisor.toral_count):
                    fi = pairings[t1][a]
                    fj = pairings[t2][b]
                    if not fi.is_zero() and not fj.is_zero():
                        expected = expected - nn(t1, t2).scale(fi * fj)
        assert (component - expected).is_zero(), (divisor.name, (i, j))
    return report.flat


def test_criterion_3_oracle_equivalence(capsys):
    cases = [
        ("cusp", ZERO2), ("cusp", S01),
        ("normal_crossing_2", ZERO2), ("normal_crossing_2", S01),
        ("borel2", ZERO2), ("borel2", S01),
        ("g2", ZERO2), ("g2", S01),
        ("d4", ZERO2), ("d4", S01),
        ("sekiguchi_b5", ZERO2), ("sekiguchi_b5", S01),
    ]
    total = 0
    flat_count = 0
    per_case = {}
    for name, s_matrix in cases:
        divisor = catalog(name)
        residue = residue_for(divisor, s_matrix)
        problem = moduli_system(divisor, residue)
        rng = random.Random(f"oracle:{name}:{s_matrix.entries}")
        for _ in range(50):
            flat_count += _oracle_check_one(divisor, residue, problem, rng)
            total += 1
            per_case[(name, s_matrix.entries)] = per_case.get((name, s_matrix.entries), 0) + 1
    # a richer residue: the sl2 triple on g2
    divisor = catalog("g2")
    residue = residue_for(divisor, ZERO2, chi_value=(CHI_H, CHI_E, CHI_F))
    problem = moduli_system(divisor, residue)
    rng = random.Random("oracle:g2:sl2")
    for _ in range(10):
        flat_count += _oracle_check_one(divisor, residue, problem, rng)
        total += 1
    assert all(count >= 50 for count in per_case.values())
    announce(3, f"emitted system and direct curvature agree pointwise on {total} "
                f"seeded samples ({flat_count} of them flat), per equation and "
                "per curvature coefficient")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_jordan_chevalley_suite(capsys):
    rng = random.Random(2024)
    multiplicative_count = 0
    for index in range(200):
        size = 2 if index < 100 else 3
        matrix = RationalMatrix(
            [[rand_fraction(rng, span=4, den=2) for _ in range(size)] for _ in range(size)]
        )
        dec = jordan_chevalley(matrix)
        s, n = dec.semisimple, dec.nilpotent
        assert s + n == matrix
        assert commutator(s, n).is_zero()
        assert is_semisimple(s) and is_nilpotent(n)
        # idempotence on the returned parts
        again_s = jordan_chevalley(s)
        assert again_s.semisimple == s and again_s.nilpotent.is_zero()
        again_n = jordan_chevalley(n)
        assert again_n.semisimple.is_zero() and again_n.nilpotent == n
        if determinant(matrix) != 0:
            multiplicative_count += 1
            mdec = jordan_chevalley(matrix, mode="multiplicative")
            ms, u = mdec.semisimple, mdec.unipotent
            assert ms * u == matrix
            assert commutator(ms, u).is_zero()
            assert is_semisimple(ms) and is_unipotent(u)
            assert exp_nilpotent(log_unipotent(u)) == u
    assert multiplicative_count > 150
    announce(4, f"200 seeded decompositions verified exactly "
                f"({multiplicative_count} of them invertible, with exp(log U) = U)")


# --------------------------------------------------------------- criterion 5

def _unit(m, r, c, weights, poly):
    zero = WeightedPoly.zero(weights)
    grid = [[zero] * m for _ in range(m)]
    grid[r][c] = poly
    return MatrixPolyMap(grid)


def _brute_force_dimension(divisor, residue, shift, toral_offsets, bound):
    """Solve the slot equations directly over unit-times-monomial candidates.

    Enumerates every matrix unit against every monomial of degree <= bound
    and row reduces the full linear system, with no eigenspace shortcut.
    """
    m = residue.matrix_size
    weights = divisor.weights
    candidates = []
    for degree in range(bound + 1):
        for mono in monomials_of_degree(weights, degree):
            poly = WeightedPoly.monomial(mono, weights)
            for r in range(m):
                for c in range(m):
                    candidates.append(_unit(m, r, c, weights, poly))
    toral_fields = [divisor.frame[i].field for i in divisor.toral_indices]
    residual_rows = {}
    columns = []
    for cand in candidates:
        col = {}
        for t_idx, field in enumerate(toral_fields):
            s_const = MatrixPolyMap.from_constant(residue.s_list[t_idx], weights)
            value = cand.apply_field(field)
            value = value - cand.scale(Fraction(toral_offsets[t_idx]))
            value = value - s_const.commutator(cand)
            for r in range(m):
                for c in range(m):
                    for mono, coeff in value[r, c].terms.items():
                        key = (t_idx, r, c, mono)
                        residual_rows.setdefault(key, len(residual_rows))
                        col[residual_rows[key]] = coeff
        columns.append(col)
    if not residual_rows:
        return len(candidates)
    rows = [[Fraction(0)] * len(candidates) for _ in range(len(residual_rows))]
    for j, col in enumerate(columns):
        for i, coeff in col.items():
            rows[i][j] = coeff
    return len(rref(RationalMatrix(rows)).kernel)


def test_criterion_5_dimensions_vs_brute_force(capsys):
    checked = []
    for name in ("cusp", "sekiguchi_b5", "normal_crossing_2"):
        divisor = catalog(name)
        residue = residue_for(divisor, S01)
        problem = moduli_system(divisor, residue)
        bound = max(integer_eigenvalues(ad_operator(residue.grading_element())))
        bound += max([e.grade for e in divisor.frame if e.grade is not None] + [0])
        from logres.divisor import frame_constants

        constants = frame_constants(divisor)
        for slot, space in enumerate(problem.component_spaces):
            offsets = [constants.toral_w[(i, slot)] for i in range(divisor.toral_count)]
            brute = _brute_force_dimension(
                divisor, residue, divisor.frame[divisor.w_indices[slot]].grade, offsets, bound
            )
            assert space.dimension == brute
            checked.append((name, "component", slot, brute))
        brute = _brute_force_dimension(divisor, residue, 0, [0] * divisor.toral_count, bound)
        assert problem.correction_spaces[0].dimension == brute
        assert problem.symmetry.dimension == brute
        checked.append((name, "correction+symmetry", 0, brute))
    expected = {
        ("cusp", "component", 0): 2,
        ("cusp", "correction+symmetry", 0): 2,
        ("sekiguchi_b5", "component", 0): 5,
        ("sekiguchi_b5", "component", 1): 8,
        ("sekiguchi_b5", "correction+symmetry", 0): 3,
        ("normal_crossing_2", "correction+symmetry", 0): 3,
    }
    for name, kind, slot, brute in checked:
        assert expected[(name, kind, slot)] == brute
    announce(5, "component, correction, and symmetry dimensions match the "
                "unit-times-monomial brute force oracle")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_sign_pinning(capsys):
    # Fuchsian case: corrections of degree i satisfy [S, N]_c = i N
    a2 = catalog("normal_crossing_1")
    residue = residue_for(a2, S01)
    problem = moduli_system(a2, residue)
    space = problem.correction_spaces[0]
    assert space.dims_by_degree == {0: 2, 1: 1}
    s_const = MatrixPolyMap.from_constant(S01, a2.weights)
    for element in space.basis:
        (degree,) = e_degrees(element)
        lhs = s_const.commutator(element)
        assert (lhs - element.scale(Fraction(degree))).is_zero()

    # assembled components carry the pinned pairing corrections
    seki = catalog("sekiguchi_b5")
    residue = residue_for(seki, S01)
    problem = moduli_system(seki, residue)
    rng = random.Random("sign-pinning")
    x = WeightedPoly.variable(0, seki.weights)
    y = WeightedPoly.variable(1, seki.weights)
    for _ in range(10):
        point = _random_point(problem, rng)
        conn = assemble_connection(seki, residue, point, problem)
        n = point.corrections[0]
        assert conn.components[0] == MatrixPolyMap.from_constant(S01, seki.weights) + n
        assert conn.components[1] == point.components[0] + n.scale(Fraction(-32, 3) * x)
        assert conn.components[2] == point.components[1] + n.scale(-4 * y)
    announce(6, "degree-i corrections satisfy [S, N] = i N in the commutator and "
                "assembled components are (S+N, B-(32/3)xN, C-4yN)")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_cli_determinism(capsys, tmp_path):
    from logres import serialize
    from logres.connections import LogConnection

    seki = catalog("sekiguchi_b5")
    residue_path = tmp_path / "S01.json"
    residue_path.write_text(
        json.dumps(serialize.residue_to_json(residue_for(seki, S01))), encoding="utf-8"
    )
    conn = LogConnection(
        seki,
        (
            MatrixPolyMap.from_constant(S01, seki.weights),
            MatrixPolyMap.zeros(2, seki.weights),
            MatrixPolyMap.zeros(2, seki.weights),
        ),
    )
    conn_path = tmp_path / "conn.json"
    conn_path.write_text(json.dumps(serialize.connection_to_json(conn)), encoding="utf-8")
    zero = MatrixPolyMap.zeros(2, seki.weights)
    point_path = tmp_path / "point.json"
    point_path.write_text(
        json.dumps({"components": [serialize.matrix_map_to_json(zero)] * 2,
                    "corrections": [serialize.matrix_map_to_json(zero)]}),
        encoding="utf-8",
    )
    matrix_path = tmp_path / "J.json"
    matrix_path.write_text(json.dumps([["1", "1"], ["0", "1"]]), encoding="utf-8")

    suite = [
        ["catalog", "--format", "json"],
        ["catalog", "--name", "d4", "--format", "json"],
        ["verify-divisor", "--catalog", "cusp", "--seed", "9", "--format", "json"],
        ["verify-divisor", "--catalog", "sekiguchi_b5", "--seed", "9", "--format", "json"],
        ["verify-divisor", "--catalog", "g2", "--seed", "9", "--format", "json"],
        ["frame-info", "--catalog", "borel2", "--format", "json"],
        ["frame-info", "--catalog", "sekiguchi_b5", "--format", "json"],
        ["residue-space", "--catalog", "sekiguchi_b5", "--residue", str(residue_path), "--format", "json"],
        ["emit-moduli", "--catalog", "cusp", "--residue", str(residue_path), "--format", "json"],
        ["emit-moduli", "--catalog", "sekiguchi_b5", "--residue", str(residue_path), "--format", "json"],
        ["check-flat", "--connection", str(conn_path), "--format", "json"],
        ["check-point", "--catalog", "sekiguchi_b5", "--residue", str(residue_path),
         "--point", str(point_path), "--format", "json"],
        ["jordan", "--matrix", str(matrix_path), "--mode", "multiplicative", "--format", "json"],
    ]

    def run_suite():
        outputs = []
        for argv in suite:
            cli_main(argv)
            outputs.append(capsys.readouterr().out)
        return outputs

    first = run_suite()
    second = run_suite()
    assert first == second
    assert all(out for out in first)
    announce(7, f"two runs of the {len(suite)}-command CLI suite are byte-identical")
