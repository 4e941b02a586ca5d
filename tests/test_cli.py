import hashlib
import json

import pytest

from logres import MatrixPolyMap, catalog, serialize
from logres import cli
from logres.cli import main
from logres.connections import LogConnection

from conftest import S01, diag, fraction_conjugated, residue_for


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


# sha256 of emit-moduli's stdout for cusp with fraction_conjugated(diag(0, 1, 2, 3)),
# frozen before the text lines were built only for the text format
EMIT_STDOUT = {
    "json": "3c0a675500d160a8e40c24bd34e19749bc8ab294771c239e7fce95021c152123",
    "text": "5cf8b6a5f8a9b633f13437206e3cac0173b20efb52ebf643402fe2678c9d7fd6",
}


@pytest.mark.parametrize("fmt", sorted(EMIT_STDOUT))
def test_emit_moduli_stdout_is_unchanged(capsys, tmp_path, fmt):
    residue = residue_for(catalog("cusp"), fraction_conjugated(diag(0, 1, 2, 3)))
    path = write_json(tmp_path / "residue.json", serialize.residue_to_json(residue))
    code, out, _ = run(capsys, "emit-moduli", "--catalog", "cusp", "--residue", path, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_STDOUT[fmt]


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
