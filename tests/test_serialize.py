import json
import random
import time
from fractions import Fraction

import pytest

from logres import (
    LogConnection,
    MatrixPolyMap,
    ModuliPoint,
    RationalMatrix,
    WeightedPoly,
    catalog,
    moduli_system,
    restrict_system,
)
from logres import serialize
from logres.serialize import SchemaError

from conftest import CHI_E, CHI_F, CHI_H, S01, ZERO2, conjugated, diag, fraction_conjugated, residue_for


def test_fraction_roundtrip():
    assert serialize.fraction_to_json(Fraction(-3, 7)) == "-3/7"
    assert serialize.fraction_from_json("-3/7") == Fraction(-3, 7)
    assert serialize.fraction_from_json("4") == Fraction(4)
    assert serialize.fraction_from_json(4) == Fraction(4)
    with pytest.raises(SchemaError):
        serialize.fraction_from_json("x")


@pytest.mark.parametrize("text", ["1e400", "1E400", "-2.5e3", "1e-5", "1e1000000000"])
def test_fraction_literals_reject_exponent_notation(text):
    # Fraction("1e1000000000") would build a billion-digit integer before any check
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="exponent"):
        serialize.fraction_from_json(text)
    assert time.perf_counter() - start < 1


def test_poly_roundtrip(cusp):
    p = cusp.f * Fraction(2, 3)
    data = serialize.poly_to_json(p)
    assert serialize.poly_from_json(data, cusp.weights) == p
    # graded-lex term order in the serialized form
    assert data == sorted(data, key=lambda t: (sum(w * e for w, e in zip(cusp.weights, t["exponents"])), tuple(t["exponents"])))


def test_matrix_roundtrip():
    m = RationalMatrix([[Fraction(1, 2), 3], [0, -2]])
    assert serialize.matrix_from_json(serialize.matrix_to_json(m)) == m


def test_divisor_roundtrip():
    for name in ("cusp", "borel2", "g2", "d4", "sekiguchi_b5", "normal_crossing_3"):
        d = catalog(name)
        data = serialize.divisor_to_json(d)
        back = serialize.divisor_from_json(json.loads(json.dumps(data)))
        assert back.variables == d.variables
        assert back.weights == d.weights
        assert back.f == d.f
        assert back.degree == d.degree
        assert back.positive_combination == d.positive_combination
        assert back.factors == d.factors
        for e1, e2 in zip(back.frame, d.frame):
            assert e1.kind == e2.kind and e1.grade == e2.grade
            assert e1.field.coefficients == e2.field.coefficients


def test_residue_roundtrip(seki):
    r = residue_for(seki, S01)
    data = serialize.residue_to_json(r)
    back = serialize.residue_from_json(data)
    assert back == r


def test_residue_with_chi_roundtrip(g2_divisor):
    r = residue_for(g2_divisor, ZERO2, chi_value=(CHI_H, CHI_E, CHI_F))
    data = json.loads(json.dumps(serialize.residue_to_json(r)))
    assert data["chi"] == [serialize.matrix_to_json(value) for value in (CHI_H, CHI_E, CHI_F)]
    assert serialize.residue_from_json(data) == r


def test_several_toral_slots_need_a_positive_combination():
    data = serialize.divisor_to_json(catalog("normal_crossing_2"))
    del data["positive_combination"]
    with pytest.raises(SchemaError, match="positive_combination is required when there are several toral slots"):
        serialize.divisor_from_json(data)


def test_residue_k_mismatch_rejected(seki):
    data = serialize.residue_to_json(residue_for(seki, S01))
    data["k"] = 5
    with pytest.raises(SchemaError):
        serialize.residue_from_json(data)


def test_connection_roundtrip(cusp):
    conn = LogConnection(
        cusp,
        (MatrixPolyMap.from_constant(S01, cusp.weights), MatrixPolyMap.zeros(2, cusp.weights)),
    )
    back = serialize.connection_from_json(json.loads(json.dumps(serialize.connection_to_json(conn))))
    assert back.divisor.name == "cusp"
    assert back.components == conn.components


def test_point_roundtrip(cusp):
    x = WeightedPoly.variable(0, cusp.weights)
    point = ModuliPoint(
        components=(MatrixPolyMap.zeros(2, cusp.weights),),
        corrections=(MatrixPolyMap.from_constant(S01, cusp.weights).scale(x),),
    )
    back = serialize.point_from_json(json.loads(json.dumps(serialize.point_to_json(point))), cusp.weights)
    assert back == point


def test_system_roundtrip(seki):
    problem = moduli_system(seki, residue_for(seki, S01))
    data = serialize.system_to_json(problem.system, seki.variables)
    back = serialize.system_from_json(json.loads(json.dumps(data)))
    assert back.coordinate_names == problem.system.coordinate_names
    assert back.equations == problem.system.equations


def test_system_roundtrip_keeps_the_gauge(seki):
    # a conjugated residue is emitted with its gauge, and a diagonal one without the key
    for s, gauged in ((fraction_conjugated(diag(0, 1, 2)), True), (S01, False)):
        system = moduli_system(seki, residue_for(seki, s)).system
        assert (system.gauge is not None) == gauged
        data = serialize.system_to_json(system, seki.variables)
        assert ("gauge" in data) == gauged
        back = serialize.system_from_json(json.loads(json.dumps(data)))
        assert back == system and back.gauge == system.gauge
        assert serialize.system_to_json(back, seki.variables) == data
        assert restrict_system(system, {system.coordinate_names[0]: Fraction(1, 2)}).gauge == system.gauge


MALFORMED_GAUGES = {
    "non-square": [["1", "0"]],
    "wrong size": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "singular": [["1", "2"], ["2", "4"]],
    "ragged": [["1", "0"], ["1"]],
    "not a matrix": "P",
    "bad entry": [["1", "x"], ["0", "1"]],
}


@pytest.mark.parametrize("case", MALFORMED_GAUGES)
def test_system_from_json_rejects_a_malformed_gauge(seki, case):
    problem = moduli_system(seki, residue_for(seki, conjugated(S01, random.Random(1))))
    data = json.loads(json.dumps(serialize.system_to_json(problem.system, seki.variables)))
    assert data["gauge"]
    data["gauge"] = MALFORMED_GAUGES[case]
    with pytest.raises(SchemaError, match="gauge"):
        serialize.system_from_json(data)


MALFORMED_SYSTEMS = {
    "coordinates": lambda data: data.update(coordinates=5),
    "frame_slots": lambda data: data["equations"][0].pop("frame_slots"),
    "matrix_size": lambda data: data.update(matrix_size="2"),
    "basis_index": lambda data: data["coordinates"][0].update(basis_index=True),
    "slot": lambda data: data["coordinates"][0].update(slot=["component"]),
    "entry": lambda data: data["equations"][0].update(entry=[0, 1]),
    "equation": lambda data: data.update(equations=[5]),
}


@pytest.mark.parametrize("field", MALFORMED_SYSTEMS)
def test_system_from_json_rejects_malformed_fields(seki, field):
    problem = moduli_system(seki, residue_for(seki, S01))
    data = json.loads(json.dumps(serialize.system_to_json(problem.system, seki.variables)))
    MALFORMED_SYSTEMS[field](data)
    with pytest.raises(SchemaError, match=field):
        serialize.system_from_json(data)


def test_system_from_json_rejects_an_entry_outside_the_matrix(seki):
    problem = moduli_system(seki, residue_for(seki, S01))
    data = json.loads(json.dumps(serialize.system_to_json(problem.system, seki.variables)))
    assert data["matrix_size"] == 2
    data["equations"][0]["entry"] = [9, 9]
    with pytest.raises(SchemaError, match="entry"):
        serialize.system_from_json(data)


def test_system_from_json_rejects_a_coordinate_exponent_without_coordinates(seki):
    # a system with every coordinate pinned writes its constant equations with the exponents [0]
    system = moduli_system(seki, residue_for(seki, S01)).system
    pinned = restrict_system(system, {name: Fraction(1) for name in system.coordinate_names})
    data = json.loads(json.dumps(serialize.system_to_json(pinned, seki.variables)))
    assert data["coordinates"] == [] and data["equations"]
    back = serialize.system_from_json(data)
    assert back == pinned and back.evaluate([]) == pinned.evaluate([])
    data["equations"][0]["poly"] = [{"exponents": [2], "coeff": "1/1"}]
    with pytest.raises(SchemaError, match="no coordinates"):
        serialize.system_from_json(data)


def test_canonical_dumps_is_stable():
    payload = {"b": [1, 2], "a": {"y": Fraction is not None, "x": 0}}
    assert serialize.canonical_dumps(payload) == serialize.canonical_dumps(payload)
    assert serialize.canonical_dumps(payload).startswith('{"a":')


def test_load_json_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SchemaError):
        serialize.load_json_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        serialize.load_json_file(str(bad))
    assert "line" in str(err.value)
