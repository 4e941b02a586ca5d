import random
from fractions import Fraction

import pytest

from logres import (
    LogConnection,
    MatrixPolyMap,
    ModuliPoint,
    RationalMatrix,
    WeightedPoly,
    assemble_connection,
    catalog,
    curvature,
    is_flat,
    moduli_system,
)

from conftest import (CHI_E, CHI_F, CHI_H, S01, ZERO2, diag, divisor_named, oracle_pair_curvature, rand_fraction,
                      residue_for)


def constant(matrix, divisor):
    return MatrixPolyMap.from_constant(matrix, divisor.weights)


def zeros(divisor, m=2):
    return MatrixPolyMap.zeros(m, divisor.weights)


def test_plane_curve_constant_residue_is_flat(cusp):
    conn = LogConnection(cusp, (constant(S01, cusp), zeros(cusp)))
    report = is_flat(conn)
    assert report.flat


def test_sekiguchi_residue_alone_is_not_flat(seki):
    conn = LogConnection(seki, (constant(S01, seki), zeros(seki), zeros(seki)))
    report = is_flat(conn)
    assert not report.flat
    assert report.witness == (1, 2)
    # residual is -24 z S on the (V, W) pair
    z = WeightedPoly.variable(2, seki.weights)
    assert report.residual == constant(S01, seki).scale(-24 * z)


def test_zero_connection_is_flat(seki):
    conn = LogConnection(seki, (zeros(seki), zeros(seki), zeros(seki)))
    assert is_flat(conn).flat
    assert all(v.is_zero() for v in curvature(conn).values())


def test_normal_crossing_commuting_residues_flat():
    d = catalog("normal_crossing_2")
    s1, s2 = diag(0, 1), diag(2, 3)
    conn = LogConnection(d, (constant(s1, d), constant(s2, d)))
    assert is_flat(conn).flat


def test_normal_crossing_noncommuting_residues_not_flat():
    d = catalog("normal_crossing_2")
    s1 = RationalMatrix([[0, 1], [0, 0]])
    s2 = RationalMatrix([[0, 0], [1, 0]])
    conn = LogConnection(d, (constant(s1, d), constant(s2, d)))
    report = is_flat(conn)
    assert not report.flat
    assert report.witness == (0, 1)


def test_matrix_poly_map_algebra(cusp):
    x = WeightedPoly.variable(0, cusp.weights)
    a = MatrixPolyMap([[x, x * x], [WeightedPoly.zero(cusp.weights), x]])
    b = constant(diag(1, 2), cusp)
    assert a.matmul(b) - b.matmul(a) == a.commutator(b)
    assert a.scale(Fraction(2))[0, 0] == 2 * x
    assert a.power(2) == a.matmul(a)
    assert a.evaluate([Fraction(3), Fraction(0)]) == RationalMatrix([[3, 9], [0, 3]])


def test_matrix_poly_map_sizes_must_match(cusp):
    small, large = zeros(cusp, 2), constant(diag(1, 2, 3), cusp)
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.matmul(b)):
        with pytest.raises(ValueError, match="sizes do not match"):
            combine(small, large)
        with pytest.raises(ValueError, match="sizes do not match"):
            combine(large, small)


def test_public_constructors_check_and_the_arithmetic_trusts(cusp, seki, monkeypatch):
    from logres import serialize

    x, y = (WeightedPoly.variable(i, cusp.weights) for i in range(2))
    zero = WeightedPoly.zero(cusp.weights)
    with pytest.raises(ValueError, match="square"):
        MatrixPolyMap([[x, y]])
    with pytest.raises(ValueError, match="different polynomial rings"):
        MatrixPolyMap([[x, zero], [zero, WeightedPoly.zero(seki.weights)]])
    for ragged in ([[[], []], [[]]], [[[]], [[]]]):
        with pytest.raises(ValueError, match="square"):
            serialize.matrix_map_from_json(ragged, cusp.weights)
    a = MatrixPolyMap([[x, x * y], [zero, y]])
    b = constant(diag(1, 2), cusp)
    checked = [MatrixPolyMap(c.entries) for c in (a + b, a - b, -a, a.scale(x), a.matmul(b),
                                                   a.apply_field(cusp.frame[1].field))]
    inits = []
    original = MatrixPolyMap.__init__

    def counting_init(self, entries):
        inits.append(1)
        original(self, entries)

    monkeypatch.setattr(MatrixPolyMap, "__init__", counting_init)
    trusted = [a + b, a - b, -a, a.scale(x), a.matmul(b), a.apply_field(cusp.frame[1].field)]
    assert not inits
    assert trusted == checked and all(t.weights == cusp.weights for t in trusted)
    # a factor from another ring still fails in the entries' own arithmetic
    with pytest.raises(ValueError):
        a.scale(WeightedPoly.variable(0, seki.weights))


def _sparse_map(rng, m, weights, den=None):
    """A seeded map with some whole rows and columns zero and about half the other entries zero.

    An entry has one to three terms, with exponents up to 2 in the first
    variable and up to 1 in the others, and coefficients from ``rand_fraction``
    or, when ``den`` is given, over ``den``.
    """
    zero_rows, zero_cols = ({k for k in range(m) if rng.random() < 0.3} for _ in range(2))

    def entry(r, c):
        if r in zero_rows or c in zero_cols or rng.random() < 0.5:
            return WeightedPoly.zero(weights)
        return WeightedPoly(weights, {tuple(rng.randint(0, 1 if k else 2) for k in range(len(weights))):
                                      rand_fraction(rng) if den is None else Fraction(rng.randint(-6, 6), den)
                                      for _ in range(rng.randint(1, 3))})
    return MatrixPolyMap([[entry(r, c) for c in range(m)] for r in range(m)])


def _dense_matmul(a, b):
    """The plain triple loop over every (i, j, s)."""
    m = a.size
    out = [[WeightedPoly.zero(a.weights)] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for s in range(m):
                out[i][j] = out[i][j] + a[i, s] * b[s, j]
    return MatrixPolyMap(out)


def test_row_sparse_matmul_equals_the_dense_triple_loop(cusp):
    rng = random.Random(20261018)
    for trial in range(60):
        m = 1 + trial % 4
        a, b = _sparse_map(rng, m, cusp.weights), _sparse_map(rng, m, cusp.weights)
        assert a.matmul(b) == _dense_matmul(a, b)
        assert a.matmul(zeros(cusp, m)).is_zero() and zeros(cusp, m).matmul(a).is_zero()


def _curved_connections():
    seki = catalog("sekiguchi_b5")
    yield LogConnection(seki, (constant(S01, seki), zeros(seki), zeros(seki)))
    nc3 = catalog("normal_crossing_3")
    # the third residue commutes with neither of the others: pairs (0, 2) and (1, 2) are curved
    yield LogConnection(nc3, (constant(diag(0, 1), nc3), constant(diag(2, 3), nc3),
                              constant(RationalMatrix([[0, 1], [1, 0]]), nc3)))
    nc2 = catalog("normal_crossing_2")
    yield LogConnection(nc2, (constant(RationalMatrix([[0, 1], [0, 0]]), nc2),
                              constant(RationalMatrix([[0, 0], [1, 0]]), nc2)))


@pytest.mark.parametrize("conn", list(_curved_connections()), ids=lambda c: c.divisor.name)
def test_is_flat_reports_the_first_curved_pair_of_curvature(conn):
    report = is_flat(conn)
    pair, component = next((p, c) for p, c in sorted(curvature(conn).items()) if not c.is_zero())
    assert not report.flat
    assert report.witness == pair
    assert report.residual == component


def assert_kernel_matches_oracle(conn) -> bool:
    """``curvature`` and ``is_flat`` against ``oracle_pair_curvature`` on every pair; True when flat.

    Every component must be the oracle's map, with ``Fraction`` coefficients,
    and ``is_flat`` must name the oracle's first curved pair and its map.
    """
    n = conn.divisor.n
    expected = {(i, j): oracle_pair_curvature(conn, i, j) for i in range(n) for j in range(i + 1, n)}
    got = curvature(conn)
    assert got == expected
    assert all(type(c) is Fraction for comp in got.values() for row in comp.entries for p in row
               for c in p.terms.values())
    curved = [pair for pair in sorted(expected) if not expected[pair].is_zero()]
    report = is_flat(conn)
    if curved:
        assert (report.flat, report.witness, report.residual) == (False, curved[0], expected[curved[0]])
    else:
        assert (report.flat, report.witness, report.residual) == (True, None, None)
    return not curved


# label -> (divisor, S, chi): the 13 criterion-3 problems and one product divisor
POINT_PROBLEMS = {f"{name}/{tag}": (name, s, "auto") for name in ("cusp", "normal_crossing_2", "borel2", "g2", "d4",
                                                                  "sekiguchi_b5")
                  for tag, s in (("0", ZERO2), ("S01", S01))}
POINT_PROBLEMS["g2/0+sl2"] = ("g2", ZERO2, (CHI_H, CHI_E, CHI_F))
POINT_PROBLEMS["cusp*normal_crossing_2/S01"] = ("cusp*normal_crossing_2", S01, "auto")


@pytest.mark.parametrize("label", list(POINT_PROBLEMS))
def test_curvature_kernel_equals_the_oracle_at_seeded_points(label):
    name, s, chi = POINT_PROBLEMS[label]
    d = divisor_named(name)
    residue = residue_for(d, s, chi_value=chi)
    problem = moduli_system(d, residue)
    rng = random.Random(f"curvature:{label}")

    def sample(space):
        total = MatrixPolyMap.zeros(space.matrix_size, d.weights)
        for element in space.basis:
            if rng.random() < 2 / 3:
                total = total + element.scale(rand_fraction(rng))
        return total

    for _ in range(4):
        point = ModuliPoint(tuple(map(sample, problem.component_spaces)), tuple(map(sample, problem.correction_spaces)))
        assert_kernel_matches_oracle(assemble_connection(d, residue, point, problem))


@pytest.mark.parametrize("name", ["borel2", "sekiguchi_b5", "g2", "cusp*normal_crossing_2"])
def test_curvature_kernel_equals_the_oracle_with_mixed_denominators(name):
    # borel2 and sekiguchi_b5 have nonzero c_ij^k; component k has denominator 1, 2, 3, 5 or 7
    d = divisor_named(name)
    rng = random.Random(f"denominators:{name}")
    flat = []
    for trial in range(6):
        m = 2 + trial % 2
        maps = tuple(_sparse_map(rng, m, d.weights, den) for den in (1, 2, 3, 5, 7)[:d.n])
        flat.append(assert_kernel_matches_oracle(LogConnection(d, maps)))
    assert not any(flat)
