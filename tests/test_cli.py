import hashlib
import json
import random

import pytest

from logres import MatrixPolyMap, ModuliPoint, RationalMatrix, assemble_connection, catalog, moduli_system, serialize
from logres import cli
from logres.cli import main
from logres.connections import LogConnection

from conftest import S01, diag, fraction_conjugated, rand_fraction, residue_for


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def residue_file(tmp_path):
    seki = catalog("sekiguchi_b5")
    return write_json(tmp_path / "S01.json", serialize.residue_to_json(residue_for(seki, S01)))


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    assert "sekiguchi_b5" in out


def test_catalog_dump_roundtrips(capsys):
    code, out, _ = run(capsys, "catalog", "--name", "borel2", "--format", "json")
    assert code == 0
    divisor = serialize.divisor_from_json(json.loads(out))
    assert divisor.name == "borel2"


@pytest.mark.parametrize("argv", [("catalog", "--name", "normal_crossing_40"),
                                  ("verify-divisor", "--catalog", "normal_crossing_40")])
def test_named_normal_crossing_is_bounded(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "k <= 16" in err and "Traceback" not in err


def test_named_normal_crossing_bound_is_inclusive(capsys):
    assert run(capsys, "catalog", "--name", "normal_crossing_16", "--format", "json")[0] == 0


@pytest.mark.parametrize("name", ["normal_crossing3", "normal_crossing(3", "normal_crossing_3)", "normal_crossing_03",
                                  "normal_crossing(3)", "normal_crossing_", "normal_crossing_0"])
def test_only_normal_crossing_underscore_k_names_a_normal_crossing(capsys, name):
    code, out, err = run(capsys, "catalog", "--name", name)
    assert code == 2 and not out
    assert "error: unknown catalog divisor" in err and "Traceback" not in err


def test_verify_divisor_pass(capsys):
    code, out, _ = run(capsys, "verify-divisor", "--catalog", "sekiguchi_b5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["constant"] == "-18/1"
    assert payload["degree"] == 9


def test_verify_divisor_failure_exit_code(capsys, tmp_path):
    d = catalog("cusp")
    data = serialize.divisor_to_json(d)
    # duplicate the Euler field (grade 0, since [E, E] = 0) so det vanishes
    data["frame"][1]["coefficients"] = data["frame"][0]["coefficients"]
    data["frame"][1]["grade"] = 0
    path = write_json(tmp_path / "broken.json", data)
    code, out, _ = run(capsys, "verify-divisor", "--divisor", path, "--format", "json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_divisor_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "verify-divisor", "--divisor", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("path, value", [
    (("weights",), [[2], 3]),
    (("weights",), [True, 3]),
    (("degree",), [6]),
    (("degree",), "6"),
    (("positive_combination",), 1),
    (("frame",), 5),
    (("frame", 1, "grade"), 1.5),
    (("variables",), [{"a": 1}, None]),
    (("name",), ["x"]),
    (("frame", 0, "distinguished"), "false"),
])
def test_verify_divisor_malformed_field(capsys, tmp_path, path, value):
    data = serialize.divisor_to_json(catalog("cusp"))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, _, err = run(capsys, "verify-divisor", "--divisor", write_json(tmp_path / "bad_field.json", data))
    assert code == 2
    assert path[-1] in err


@pytest.mark.parametrize("term", [
    {"exponents": 5, "coeff": "1/1"},
    {"exponents": [1, -1], "coeff": "1/1"},
    {"exponents": [1, "2"], "coeff": "1/1"},
    {"exponents": [1, True], "coeff": "1/1"},
    {"exponents": [1, 1], "coeff": 0.5},
    {"exponents": [1, 1], "coeff": True},
    {"exponents": [1, 1], "coeff": "x/2"},
])
def test_verify_divisor_malformed_polynomial_term(capsys, tmp_path, term):
    data = serialize.divisor_to_json(catalog("cusp"))
    data["f"] = [term]
    path = write_json(tmp_path / "bad_term.json", data)
    code, _, err = run(capsys, "verify-divisor", "--divisor", path)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_divisor_non_positive_trials_is_usage_error(capsys, trials):
    code, _, err = run(capsys, "verify-divisor", "--catalog", "cusp", "--trials", trials)
    assert code == 2
    assert "--trials" in err


def test_verify_divisor_rejects_factors_not_multiplying_to_f(capsys, tmp_path):
    cusp = catalog("cusp")
    data = serialize.divisor_to_json(cusp)
    data["factors"] = [serialize.poly_to_json(cusp.f * cusp.f)]
    code, _, err = run(capsys, "verify-divisor", "--divisor", write_json(tmp_path / "squared.json", data))
    assert code == 2
    assert "factors" in err


@pytest.mark.parametrize("trials, strict, code, verdict", [
    ("1", False, 0, "inconclusive"), ("1", True, 1, "inconclusive"), ("2", False, 1, "not-squarefree")])
def test_verify_divisor_strict_makes_an_inconclusive_reducedness_check_a_finding(capsys, tmp_path, trials, strict,
                                                                                   code, verdict):
    # f = x^2 y with the Euler field and the grade-1 field xy d/dy: the determinant is f, but f is not reduced,
    # and one random line cannot show it
    data = _two_field_divisor({"kind": "w", "grade": 1,
                               "coefficients": [[], [{"exponents": [1, 1], "coeff": "1/1"}]]})
    data.update(f=[{"exponents": [2, 1], "coeff": "1/1"}], degree=3)
    path = write_json(tmp_path / "x2y.json", data)
    argv = ["verify-divisor", "--divisor", path, "--trials", trials] + (["--strict"] if strict else [])
    got, out, err = run(capsys, *argv)
    assert got == code and not err
    assert f"reducedness (monte carlo, seed 0): {verdict}\n" in out


def test_emit_moduli_rejects_a_residue_entry_in_exponent_notation(capsys, tmp_path):
    data = serialize.residue_to_json(residue_for(catalog("cusp"), S01))
    data["S"][0][1][1] = "1e1000000000"
    code, out, err = run(capsys, "emit-moduli", "--catalog", "cusp", "--residue",
                         write_json(tmp_path / "exponent.json", data))
    assert code == 2 and not out
    assert "exponent" in err and "Traceback" not in err


def test_frame_info(capsys):
    code, out, _ = run(capsys, "frame-info", "--catalog", "sekiguchi_b5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["form_structure"]["1"]["2,3"] == [{"coeff": "-24/1", "exponents": [0, 0, 1]}]


def _two_field_divisor(second_field):
    """f = xy on weights (1, 1) with the toral Euler field and a second frame field."""
    def poly(terms):
        return [{"exponents": list(mono), "coeff": f"{c}/1"} for mono, c in terms.items()]

    return {
        "name": "two_fields", "variables": ["x", "y"], "weights": [1, 1], "degree": 2,
        "f": poly({(1, 1): 1}),
        "frame": [{"kind": "toral", "coefficients": [poly({(1, 0): 1}), poly({(0, 1): 1})]}, second_field],
        "positive_combination": [1, 0] if second_field["kind"] == "toral" else [1],
    }


def test_frame_info_on_a_dependent_frame_is_a_plain_error(capsys, tmp_path):
    # x d/dx + y d/dy and 2x d/dx + 2y d/dy: the frame determinant vanishes
    doubled = {"kind": "toral", "coefficients": [[{"exponents": [1, 0], "coeff": "2/1"}],
                                                  [{"exponents": [0, 1], "coeff": "2/1"}]]}
    path = write_json(tmp_path / "dependent.json", _two_field_divisor(doubled))
    code, out, err = run(capsys, "frame-info", "--divisor", path)
    assert code == 2 and out == ""
    assert err == "error: frame fields are linearly dependent (found solving pair (0, 1))\n"


@pytest.mark.parametrize("kind", ["toral", "semisimple"])
def test_non_homogeneous_constant_field_is_malformed_input(capsys, tmp_path, kind):
    # x^2 d/dx is E-homogeneous of grade 1, not 0
    field = {"kind": kind, "coefficients": [[{"exponents": [2, 0], "coeff": "1/1"}], []]}
    path = write_json(tmp_path / "graded.json", _two_field_divisor(field))
    code, _, err = run(capsys, "frame-info", "--divisor", path)
    assert code == 2
    assert err == "error: frame element 1 does not have Euler grade 0\n"


def test_residue_space(capsys, residue_file):
    code, out, _ = run(capsys, "residue-space", "--catalog", "sekiguchi_b5",
                       "--residue", residue_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["dim_components"] == 13
    assert payload["symmetry_algebra"] == {"dimension": 3, "constant": 2, "positive": 1}


@pytest.mark.parametrize("field, value", [("positive_combination", [True]), ("k", "1"), ("S", 5)])
def test_residue_space_malformed_residue(capsys, tmp_path, field, value):
    data = serialize.residue_to_json(residue_for(catalog("sekiguchi_b5"), S01))
    data[field] = value
    code, _, err = run(capsys, "residue-space", "--catalog", "sekiguchi_b5",
                       "--residue", write_json(tmp_path / "bad_residue.json", data))
    assert code == 2
    assert field in err


def test_residue_space_needs_a_divisor(capsys, residue_file):
    code, out, err = run(capsys, "residue-space", "--residue", residue_file)
    assert code == 2 and not out
    assert err == "error: either --catalog NAME or --divisor FILE is required\n"


@pytest.mark.parametrize("name, mutate, message", [
    ("sekiguchi_b5", lambda data: data.update(positive_combination=[2]),
     "residue and divisor disagree on the positive combination"),
    ("g2", lambda data: data["chi"].pop(), "chi must carry one value per semisimple frame slot"),
    ("g2", lambda data: data.pop("chi"), "this divisor has semisimple frame directions; chi is required"),
])
def test_residue_space_refuses_a_residue_that_does_not_fit_the_divisor(capsys, tmp_path, name, mutate, message):
    data = serialize.residue_to_json(residue_for(catalog(name), S01))
    mutate(data)
    code, out, err = run(capsys, "residue-space", "--catalog", name,
                         "--residue", write_json(tmp_path / "unfit.json", data))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_emit_moduli_writes_file(capsys, tmp_path, residue_file):
    out_path = tmp_path / "system.json"
    code, out, _ = run(capsys, "emit-moduli", "--catalog", "cusp", "--residue", residue_file,
                       "--output", str(out_path), "--format", "json")
    assert code == 0
    emitted = serialize.system_from_json(json.loads(out_path.read_text()))
    assert emitted.divisor_name == "cusp"
    assert json.loads(out)["summary"]["dim_components"] == 2


def test_check_flat_pass_and_finding(capsys, tmp_path):
    cusp = catalog("cusp")
    flat_conn = LogConnection(
        cusp,
        (MatrixPolyMap.from_constant(S01, cusp.weights), MatrixPolyMap.zeros(2, cusp.weights)),
    )
    path = write_json(tmp_path / "flat.json", serialize.connection_to_json(flat_conn))
    code, out, _ = run(capsys, "check-flat", "--connection", path, "--format", "json")
    assert code == 0 and json.loads(out)["flat"] is True

    seki = catalog("sekiguchi_b5")
    bent = LogConnection(
        seki,
        (
            MatrixPolyMap.from_constant(S01, seki.weights),
            MatrixPolyMap.zeros(2, seki.weights),
            MatrixPolyMap.zeros(2, seki.weights),
        ),
    )
    path = write_json(tmp_path / "bent.json", serialize.connection_to_json(bent))
    code, out, _ = run(capsys, "check-flat", "--connection", path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["flat"] is False and payload["witness"] == [1, 2]


def test_check_flat_malformed_components(capsys, tmp_path):
    path = write_json(tmp_path / "bad_conn.json", {"divisor": {"catalog": "cusp"}, "components": 5})
    code, _, err = run(capsys, "check-flat", "--connection", path)
    assert code == 2
    assert "components" in err


def test_check_flat_refuses_the_wrong_number_of_components(capsys, tmp_path):
    zero = serialize.matrix_map_to_json(MatrixPolyMap.zeros(2, catalog("cusp").weights))
    path = write_json(tmp_path / "short.json", {"divisor": {"catalog": "cusp"}, "components": [zero]})
    code, out, err = run(capsys, "check-flat", "--connection", path)
    assert code == 2 and not out
    assert err == "error: need one component per frame element\n"


def test_check_flat_reads_a_divisor_written_inline(capsys, tmp_path):
    cusp = catalog("cusp")
    connection = serialize.connection_to_json(LogConnection(
        cusp, (MatrixPolyMap.from_constant(S01, cusp.weights), MatrixPolyMap.zeros(2, cusp.weights))))
    connection["divisor"] = serialize.divisor_to_json(cusp)
    code, out, _ = run(capsys, "check-flat", "--connection", write_json(tmp_path / "inline.json", connection),
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"divisor": "cusp", "flat": True, "witness": None}


def test_check_point(capsys, tmp_path, residue_file):
    seki = catalog("sekiguchi_b5")
    zero = MatrixPolyMap.zeros(2, seki.weights)
    point = {"components": [serialize.matrix_map_to_json(zero)] * 2,
             "corrections": [serialize.matrix_map_to_json(zero)]}
    path = write_json(tmp_path / "point.json", point)
    code, out, _ = run(capsys, "check-point", "--catalog", "sekiguchi_b5",
                       "--residue", residue_file, "--point", path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["flat"] is False
    assert payload["violations"][0]["tag"] == "curvature"


@pytest.mark.parametrize("point", [{"components": 5}, {"corrections": [[5]]}])
def test_check_point_malformed_point(capsys, tmp_path, residue_file, point):
    path = write_json(tmp_path / "bad_point.json", point)
    code, _, err = run(capsys, "check-point", "--catalog", "sekiguchi_b5", "--residue", residue_file, "--point", path)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("components, corrections, m, message", [
    (1, 1, 2, "wrong number of component maps"), (2, 0, 2, "wrong number of correction maps"),
    (2, 1, 3, "matrix size mismatch")])
def test_check_point_refuses_a_point_of_the_wrong_shape(capsys, tmp_path, residue_file, components, corrections, m,
                                                        message):
    zero = serialize.matrix_map_to_json(MatrixPolyMap.zeros(m, catalog("sekiguchi_b5").weights))
    path = write_json(tmp_path / "shape.json", {"components": [zero] * components, "corrections": [zero] * corrections})
    code, out, err = run(capsys, "check-point", "--catalog", "sekiguchi_b5", "--residue", residue_file, "--point", path)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_check_point_prints_the_first_20_violations(capsys, tmp_path, residue_file):
    seki = catalog("sekiguchi_b5")
    problem = moduli_system(seki, residue_for(seki, S01))
    rng = random.Random(5)
    maps = []
    for space in problem.component_spaces + problem.correction_spaces:
        total = MatrixPolyMap.zeros(2, seki.weights)
        for element in space.basis:
            total = total + element.scale(rand_fraction(rng))
        maps.append(serialize.matrix_map_to_json(total))
    k = len(problem.component_spaces)
    path = write_json(tmp_path / "point.json", {"components": maps[:k], "corrections": maps[k:]})
    argv = ("check-point", "--catalog", "sekiguchi_b5", "--residue", residue_file, "--point", path)
    code, out, _ = run(capsys, *argv, "--format", "json")
    count = len(json.loads(out)["violations"])
    assert code == 1 and count > 20
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3 + 20 + 1
    assert sum(line.startswith("  violated [") for line in lines) == 20
    assert lines[-1] == f"  ... and {count - 20} more"


def test_jordan_additive(capsys, tmp_path):
    path = write_json(tmp_path / "J.json", [["1/1", "1/1"], ["0/1", "1/1"]])
    code, out, _ = run(capsys, "jordan", "--matrix", path, "--mode", "additive", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["semisimple"] == [["1/1", "0/1"], ["0/1", "1/1"]]
    assert payload["nilpotent"] == [["0/1", "1/1"], ["0/1", "0/1"]]


def test_jordan_multiplicative(capsys, tmp_path):
    path = write_json(tmp_path / "J.json", [["1", "1"], ["0", "1"]])
    code, out, _ = run(capsys, "jordan", "--matrix", path, "--mode", "multiplicative", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unipotent"] == [["1/1", "1/1"], ["0/1", "1/1"]]
    assert payload["log_unipotent"] == [["0/1", "1/1"], ["0/1", "0/1"]]


def test_jordan_multiplicative_singular_is_broken_input(capsys, tmp_path):
    path = write_json(tmp_path / "S.json", [["0", "0"], ["0", "1"]])
    code, _, err = run(capsys, "jordan", "--matrix", path, "--mode", "multiplicative")
    assert code == 2
    assert "invertible" in err


def test_machine_output_is_byte_stable(capsys, residue_file):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify-divisor", "--catalog", "sekiguchi_b5",
                           "--seed", "3", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "emit-moduli", "--catalog", "sekiguchi_b5",
                           "--residue", residue_file, "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# the gauge that takes fraction_conjugated(diag(0, 1, 2, 3)) back to diag(0, 1, 2, 3)
CUSP_GAUGE = [["1/1", "1/2", "-2/3", "-2/3"], ["0/1", "1/1", "1/2", "-2/3"], ["0/1", "0/1", "1/1", "1/2"],
              ["0/1", "0/1", "0/1", "1/1"]]
CUSP_GAUGE_LINE = "gauge: 1 1/2 -2/3 -2/3; 0 1 1/2 -2/3; 0 0 1 1/2; 0 0 0 1"


# sha256 of emit-moduli's stdout for cusp with fraction_conjugated(diag(0, 1, 2, 3)),
# frozen before the text lines were built only for the text format, and frozen
# again once the residue was solved in its weight basis, after the JSON was seen
# to be that of diag(0, 1, 2, 3) apart from its "gauge" key
EMIT_STDOUT = {
    "json": "8a6080a73e129ceb68a49cd6c49d28b687d92bdec9171b9221acc3009ac11369",
    "text": "498ea88363a50acae19ce7e9fb19c9e2ec5407acf2a907b75472b2d55cf60f19",
}


@pytest.mark.parametrize("fmt", sorted(EMIT_STDOUT))
def test_emit_moduli_stdout_is_unchanged(capsys, tmp_path, fmt):
    residue = residue_for(catalog("cusp"), fraction_conjugated(diag(0, 1, 2, 3)))
    path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue))
    code, out, _ = run(capsys, "emit-moduli", "--catalog", "cusp", "--residue", path, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_STDOUT[fmt]
    # the one gauge line or key, with the P that takes the residue back to diag(0, 1, 2, 3)
    if fmt == "json":
        assert json.loads(out)["gauge"] == CUSP_GAUGE
    else:
        assert [line for line in out.splitlines() if "gauge" in line] == [CUSP_GAUGE_LINE]


# sha256 of emit-moduli's stdout for cusp with S = [[0, 2], [1, 0]], whose
# eigenvalues are +-sqrt(2): the residue has no rational weight basis, so it is
# solved as written, with the bytes frozen before weight bases were introduced
IRRATIONAL_STDOUT = {
    "json": "f2383a137f4857cd7b948ba3389774c9d4ed34e2f09e0f35e13964b10d2f6155",
    "text": "2ef35c41b958a7ec055c24793ca1ad440e6a4cce904082348e69bde5fc9711ee",
}


@pytest.mark.parametrize("fmt", sorted(IRRATIONAL_STDOUT))
def test_a_residue_with_irrational_eigenvalues_is_solved_as_written(capsys, tmp_path, fmt):
    residue = residue_for(catalog("cusp"), RationalMatrix([[0, 2], [1, 0]]))
    assert residue.weight_form is None
    path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue))
    code, out, _ = run(capsys, "emit-moduli", "--catalog", "cusp", "--residue", path, "--format", fmt)
    assert code == 0 and "gauge" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == IRRATIONAL_STDOUT[fmt]


# sha256 of residue-space's stdout for sekiguchi_b5 with S01 and for cusp with
# fraction_conjugated(diag(0, 1, 2, 3)), and of jordan --mode multiplicative on
# [[2, 2], [0, 2]], frozen before the public solve wrappers were removed; cusp's
# JSON, whose coordinate names are read in the residue's weight basis, was
# frozen again with EMIT_STDOUT, and again once it printed that basis, its
# "gauge", after the rest was seen to be the bytes before (the test below)
RESIDUE_SPACE_STDOUT = {
    ("sekiguchi_b5", "json"): "200dec3220f213ca3e1afd5601a54306955358fe0d212aa5695a6e2670e3f4ee",
    ("sekiguchi_b5", "text"): "cb15074828e2e382b856e22663550b960d4fdd555bdbfe97ea6043e1acabd0d3",
    ("cusp", "json"): "52f59a9c2ee802dba5c1a58d41639585b3a9a8a3689c6958c79231cdceecaf3c",
    ("cusp", "text"): "f959a65a88d8bd9bcb4a75dfca2045dd1d3161465d9a5c67f6f03f8096cf4a9f",
}
JORDAN_MULTIPLICATIVE_STDOUT = {
    "json": "507cccfb16947c72930dfd99435700381a957a60eec861180d942dfd39be1f4b",
    "text": "5cea30cf8f4cd57e35933de40875d19decf7a8517fb942adf49e99f41f59cdbf",
}


@pytest.mark.parametrize("name, fmt", sorted(RESIDUE_SPACE_STDOUT))
def test_residue_space_stdout_is_unchanged(capsys, tmp_path, name, fmt):
    s = S01 if name == "sekiguchi_b5" else fraction_conjugated(diag(0, 1, 2, 3))
    path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue_for(catalog(name), s)))
    code, out, _ = run(capsys, "residue-space", "--catalog", name, "--residue", path, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RESIDUE_SPACE_STDOUT[name, fmt]


def without_gauge(out, fmt):
    """The output with its gauge key or line taken out, and the gauge as printed."""
    if fmt == "json":
        payload = json.loads(out)
        gauge = payload.pop("gauge")
        return serialize.canonical_dumps(payload), gauge
    lines = out.splitlines(keepends=True)
    gauges = [line for line in lines if line.startswith("gauge: ")]
    assert len(gauges) == 1
    return "".join(line for line in lines if line not in gauges), gauges[0].rstrip("\n")


def test_residue_space_json_prints_the_gauge_and_otherwise_the_bytes_before_it(capsys, tmp_path):
    # the coordinate names are read in the basis of P's columns, so P is printed
    # with them; the rest is the output frozen before the gauge was printed
    residue = residue_for(catalog("cusp"), fraction_conjugated(diag(0, 1, 2, 3)))
    path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue))
    code, out, _ = run(capsys, "residue-space", "--catalog", "cusp", "--residue", path, "--format", "json")
    rest, gauge = without_gauge(out, "json")
    assert code == 0 and gauge == CUSP_GAUGE
    assert hashlib.sha256(rest.encode()).hexdigest() == \
        "cb589d6e073845eae639e112b53a704c3eba5a2b704d6873a832eff97fcac151"


# sha256 of check-point's stdout on a seeded cusp point for fraction_conjugated(diag(0, 1, 2, 3)),
# frozen before the gauge was printed
GAUGED_CHECK_STDOUT = {
    "json": "fa4cd91adbd5922b66f48ae9df3c31cc0f0a9d434f4046257e99ab0cc141c262",
    "text": "15ea7bddfc927e14c9a8f73e7b163b85e486e63c58585186469adfd8db6f5ea0",
}


@pytest.mark.parametrize("fmt", sorted(GAUGED_CHECK_STDOUT))
def test_check_point_prints_the_gauge_of_a_conjugated_residue(capsys, tmp_path, fmt):
    # the violations' entries are in the basis of P's columns
    d = catalog("cusp")
    residue = residue_for(d, fraction_conjugated(diag(0, 1, 2, 3)))
    problem = moduli_system(d, residue)
    rng = random.Random(3)
    maps = []
    for space in problem.component_spaces + problem.correction_spaces:
        total = MatrixPolyMap.zeros(space.matrix_size, d.weights)
        for element in space.basis:
            if rng.random() < 0.5:
                total = total + element.scale(rand_fraction(rng))
        maps.append(serialize.matrix_map_to_json(total))
    path = write_json(tmp_path / "point.json", {"components": maps[:1], "corrections": maps[1:]})
    residue_path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue))
    code, out, _ = run(capsys, "check-point", "--catalog", "cusp", "--residue", residue_path, "--point", path,
                       "--format", fmt)
    rest, gauge = without_gauge(out, fmt)
    assert code == 1 and "ZN" in out
    assert gauge == (CUSP_GAUGE if fmt == "json" else CUSP_GAUGE_LINE)
    if fmt == "text":
        assert out.splitlines()[1] == CUSP_GAUGE_LINE
    assert hashlib.sha256(rest.encode()).hexdigest() == GAUGED_CHECK_STDOUT[fmt]


@pytest.mark.parametrize("fmt", sorted(JORDAN_MULTIPLICATIVE_STDOUT))
def test_jordan_multiplicative_stdout_is_unchanged(capsys, tmp_path, fmt):
    path = write_json(tmp_path / "M.json", [["2", "2"], ["0", "2"]])
    code, out, _ = run(capsys, "jordan", "--matrix", path, "--mode", "multiplicative", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JORDAN_MULTIPLICATIVE_STDOUT[fmt]


# the check-flat and check-point inputs: a seeded point with mixed denominators
# (thirds on cusp, halves and thirds on sekiguchi_b5) in the component spaces and
# zero corrections; cusp's is flat and in the variety, sekiguchi_b5's is neither
CHECK_INPUTS = {"cusp": diag(0, 1, 2), "sekiguchi_b5": S01}
# sha256 of check-flat's stdout on each input's assembled connection and of
# check-point's stdout on the point, frozen before the curvature kernel was rewritten
CHECK_STDOUT = {
    ("check-flat", "cusp", "json"): "365febad2e10b745b5e416c55a23d4b7e67173073470dd2889b89a6a5ed7baec",
    ("check-flat", "cusp", "text"): "380c64eed59170e20730116a938491ea50538f58fed1e20d9c9d837232cee67d",
    ("check-flat", "sekiguchi_b5", "json"): "00035f1115818b81dc9f025f3dafb5a618b99ce0b846cd2c6a636b7257bdda04",
    ("check-flat", "sekiguchi_b5", "text"): "c15231d312d70142b5bf4bca5827aaed0ce7947dbe4d087769e2a4bbfac87932",
    ("check-point", "cusp", "json"): "244976ab490c21372f37b3f38a4dfbc38d5fdf7aeb1d6ce9385104240ca4ba96",
    ("check-point", "cusp", "text"): "ccd49eeef13412262e6f6a2f54ff5f379f7bbd4dfc8ebdffc936e6b06c1b2136",
    ("check-point", "sekiguchi_b5", "json"): "14ea191b91f9dac1acb8d062356d29815f367601b1c716d90c8baa2b549e3050",
    ("check-point", "sekiguchi_b5", "text"): "7157324fd2b86a9c2eac01a98fb4385dd2efd2cc44d7f4cc4a5632f20bc76e8d",
}


@pytest.mark.parametrize("command, name, fmt", sorted(CHECK_STDOUT))
def test_check_flat_and_check_point_stdout_is_unchanged(capsys, tmp_path, command, name, fmt):
    d = catalog(name)
    residue = residue_for(d, CHECK_INPUTS[name])
    problem = moduli_system(d, residue)
    rng = random.Random(3)
    components = []
    for space in problem.component_spaces:
        total = MatrixPolyMap.zeros(space.matrix_size, d.weights)
        for element in space.basis:
            total = total + element.scale(rand_fraction(rng))
        components.append(total)
    zero = MatrixPolyMap.zeros(residue.matrix_size, d.weights)
    point = ModuliPoint(tuple(components), (zero,) * len(problem.correction_spaces))
    if command == "check-flat":
        connection = serialize.connection_to_json(assemble_connection(d, residue, point, problem))
        argv = ("--connection", write_json(tmp_path / "connection.json", connection))
    else:
        residue_path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue))
        argv = ("--catalog", name, "--residue", residue_path,
                "--point", write_json(tmp_path / "point.json", serialize.point_to_json(point)))
    code, out, _ = run(capsys, command, *argv, "--format", fmt)
    assert code == (0 if name == "cusp" else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_STDOUT[command, name, fmt]


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_seed_and_strict_belong_to_verify_divisor_alone(capsys, residue_file):
    assert run(capsys, "emit-moduli", "--catalog", "sekiguchi_b5", "--residue", residue_file,
               "--seed", "1")[0] == 2
    assert run(capsys, "catalog", "--strict")[0] == 2
    code, out, _ = run(capsys, "verify-divisor", "--catalog", "cusp", "--seed", "1", "--strict")
    assert code == 0
    assert "seed 1" in out


@pytest.mark.parametrize("error", [ArithmeticError("broken invariant"), RecursionError("too deep"), MemoryError()])
def test_internal_errors_keep_the_exit_code_contract(capsys, monkeypatch, residue_file, error):
    def broken(*args):
        raise error

    monkeypatch.setattr(cli, "moduli_system", broken)
    code, _, err = run(capsys, "emit-moduli", "--catalog", "sekiguchi_b5", "--residue", residue_file)
    assert code == 2
    # str(MemoryError()) is empty, so such an error is reported by its class name
    assert err == "error: internal: " + (str(error) or type(error).__name__) + "\n"


def test_emit_moduli_builds_the_json_payload_only_for_a_writer(capsys, monkeypatch, tmp_path, residue_file):
    calls = []
    original = serialize.system_to_json

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(serialize, "system_to_json", counting)
    base = ("emit-moduli", "--catalog", "sekiguchi_b5", "--residue", residue_file)
    code, out, _ = run(capsys, *base)
    assert code == 0 and out.startswith("divisor: sekiguchi_b5\n")
    assert calls == []
    assert run(capsys, *base, "--format", "json")[0] == 0
    assert len(calls) == 1
    assert run(capsys, *base, "--output", str(tmp_path / "system.json"))[0] == 0
    assert len(calls) == 2


def test_verify_divisor_normal_crossing_16_is_reduced(capsys):
    code, out, _ = run(capsys, "verify-divisor", "--catalog", "normal_crossing_16")
    assert code == 0
    assert "reducedness (monte carlo, seed 0): probably-squarefree" in out


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["frame"][1].update(kind="rotation"), "unknown frame element kind 'rotation'"),
    (lambda d: d["frame"][1].pop("grade"), "w-kind frame elements need a grade"),
    (lambda d: d["frame"][0].update(grade=0), "only w-kind frame elements carry a grade"),
    (lambda d: d["frame"][1].update(distinguished=True), "only toral elements can be distinguished"),
    (lambda d: d["frame"][1].update(coefficients=[]), "a vector field needs at least one coefficient"),
    (lambda d: d["frame"][1]["coefficients"].pop(), "coefficient count must equal the variable count"),
    (lambda d: d.update(weights=[3, 0]), "variable weights must be positive integers, got (3, 0)"),
    (lambda d: d["variables"].pop(), "variables and weights differ in length"),
    (lambda d: d.update(f=[]), "the defining polynomial must be nonzero"),
    (lambda d: d["frame"].pop(), "expected 2 frame elements, got 1"),
    (lambda d: d.update(degree=5), "f is not weighted homogeneous of the declared degree"),
    (lambda d: d.update(factors=[d["f"], [{"coeff": "1/1", "exponents": [0, 0]}]]),
     "need one defining factor per toral direction"),
    (lambda d: d.update(positive_combination=[2]), "positive combination of toral fields is not the Euler field"),
    (lambda d: d.update(positive_combination=[]), "positive combination length must match the toral count"),
])
def test_verify_divisor_rejects_a_broken_divisor_file(capsys, tmp_path, mutate, message):
    code, out, _ = run(capsys, "catalog", "--name", "cusp", "--format", "json")
    assert code == 0
    data = json.loads(out)
    mutate(data)
    code, out, err = run(capsys, "verify-divisor", "--divisor", write_json(tmp_path / "mutated.json", data))
    assert code == 2 and not out
    assert err == f"error: {message}\n"
