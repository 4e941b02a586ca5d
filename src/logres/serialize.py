"""JSON schemas for divisors, residues, connections, points, and systems.

Fractions serialize as "p/q" strings (denominator always written), and
polynomials as graded-lexicographically sorted term lists, so identical
values always produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Sequence

from .catalog import catalog
from .connections import LogConnection, MatrixPolyMap
from .divisor import TORAL, FrameElement, FreeDivisor, VectorFieldPoly
from .liealg import ResidueData
from .linear import RationalMatrix, rref
from .moduli import Coordinate, Equation, ModuliPoint, PolySystem, coordinate_monomial, exponent_vector
from .polynomials import WeightedPoly
from .univariate import as_scalar


class SchemaError(ValueError):
    """Raised when an input file does not match the expected schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _integer(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a list, got {value!r}")
    return value


def _integers(value, what: str) -> tuple:
    return tuple(_integer(v, f"each entry of {what}") for v in _list(value, what))


def _object(value, keys: Sequence[str], what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be a JSON object")
    for key in keys:
        _require(key in value, f"{what} is missing {key!r}")
    return value


def _string(value, what: str) -> str:
    _require(isinstance(value, str), f"{what} must be a string, got {value!r}")
    return value


# ----------------------------------------------------------------- fractions

def fraction_to_json(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def fraction_from_json(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    _require(isinstance(text, str), f"expected a rational string, got {text!r}")
    # an exponent would make Fraction build its power of ten before any size check
    _require("e" not in text and "E" not in text, f"bad rational literal {text!r}: no exponent notation")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {text!r}") from exc


# --------------------------------------------------------------- polynomials

def poly_to_json(p: WeightedPoly) -> List[dict]:
    return [
        {"exponents": list(mono), "coeff": fraction_to_json(coeff)}
        for mono, coeff in p.sorted_terms()
    ]


def poly_from_json(data, weights: Sequence[int]) -> WeightedPoly:
    _require(isinstance(data, list), "polynomial must be a list of terms")
    terms = {}
    for item in data:
        _require(isinstance(item, dict) and "exponents" in item and "coeff" in item,
                 "each term needs 'exponents' and 'coeff'")
        exponents = item["exponents"]
        _require(isinstance(exponents, list)
                 and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exponents),
                 f"exponents must be a list of non-negative integers, got {exponents!r}")
        mono = tuple(exponents)
        _require(len(mono) == len(weights), f"term has {len(mono)} exponents, expected {len(weights)}")
        terms[mono] = terms.get(mono, Fraction(0)) + fraction_from_json(item["coeff"])
    return WeightedPoly(weights, terms)


# ------------------------------------------------------------------ matrices

def matrix_to_json(m: RationalMatrix) -> List[List[str]]:
    return [[fraction_to_json(v) for v in row] for row in m.entries]


def matrix_from_json(data) -> RationalMatrix:
    _require(isinstance(data, list) and data and all(isinstance(r, list) for r in data),
             "matrix must be a non-empty list of rows")
    return RationalMatrix([[fraction_from_json(v) for v in row] for row in data])


def matrix_map_to_json(m: MatrixPolyMap) -> List[List[List[dict]]]:
    return [[poly_to_json(p) for p in row] for row in m.entries]


def matrix_map_from_json(data, weights: Sequence[int]) -> MatrixPolyMap:
    _require(isinstance(data, list) and data and all(isinstance(r, list) for r in data),
             "matrix polynomial map must be a non-empty list of rows")
    return MatrixPolyMap([[poly_from_json(p, weights) for p in row] for row in data])


# ------------------------------------------------------------------ divisors

def divisor_to_json(d: FreeDivisor) -> dict:
    frame = []
    for element in d.frame:
        entry: Dict[str, object] = {
            "kind": element.kind,
            "coefficients": [poly_to_json(c) for c in element.field.coefficients],
        }
        if element.grade is not None:
            entry["grade"] = element.grade
        if element.distinguished:
            entry["distinguished"] = True
        frame.append(entry)
    out: Dict[str, object] = {
        "name": d.name,
        "variables": list(d.variables),
        "weights": list(d.weights),
        "f": poly_to_json(d.f),
        "degree": d.degree,
        "frame": frame,
        "positive_combination": list(d.positive_combination),
    }
    if d.factors is not None:
        out["factors"] = [poly_to_json(p) for p in d.factors]
    if d.constants.semisimple:
        out["semisimple_constants"] = {
            f"{i + 1},{j + 1}": [fraction_to_json(c) for c in row]
            for (i, j), row in sorted(d.constants.semisimple.items())
        }
    return out


def divisor_from_json(data) -> FreeDivisor:
    _object(data, ("variables", "weights", "f", "degree", "frame"), "divisor file")
    variables = tuple(_string(v, "each entry of variables") for v in _list(data["variables"], "variables"))
    weights = _integers(data["weights"], "weights")
    _require(len(variables) == len(weights), "variables and weights differ in length")
    f = poly_from_json(data["f"], weights)
    frame = []
    for raw in _list(data["frame"], "frame"):
        _require(isinstance(raw, dict) and "kind" in raw and "coefficients" in raw,
                 "each frame element needs 'kind' and 'coefficients'")
        coefficients = tuple(poly_from_json(c, weights) for c in _list(raw["coefficients"], "coefficients"))
        grade = raw.get("grade")
        distinguished = raw.get("distinguished", False)
        _require(isinstance(distinguished, bool), f"distinguished must be true or false, got {distinguished!r}")
        frame.append(
            FrameElement(
                kind=_string(raw["kind"], "kind"),
                field=VectorFieldPoly(coefficients),
                grade=None if grade is None else _integer(grade, "grade"),
                distinguished=distinguished,
            )
        )
    toral_count = sum(1 for e in frame if e.kind == TORAL)
    combination = data.get("positive_combination")
    if combination is None:
        _require(toral_count == 1, "positive_combination is required when there are several toral slots")
        combination = [1]
    factors = data.get("factors")
    return FreeDivisor(
        name=_string(data.get("name", "divisor"), "name"),
        variables=variables,
        weights=weights,
        f=f,
        degree=_integer(data["degree"], "degree"),
        frame=tuple(frame),
        positive_combination=_integers(combination, "positive_combination"),
        factors=tuple(poly_from_json(p, weights) for p in _list(factors, "factors")) if factors is not None else None,
    )


def divisor_reference(d: FreeDivisor) -> dict:
    return {"catalog": d.name}


def divisor_from_reference(data) -> FreeDivisor:
    _require(isinstance(data, dict), "divisor reference must be an object")
    if "catalog" in data:
        return catalog(str(data["catalog"]))
    return divisor_from_json(data)


# ------------------------------------------------------------------ residues

def residue_to_json(r: ResidueData) -> dict:
    out: Dict[str, object] = {
        "k": r.k,
        "matrix_size": r.matrix_size,
        "S": [matrix_to_json(s) for s in r.s_list],
        "positive_combination": list(r.positive_combination),
    }
    if r.chi is not None:
        out["chi"] = [matrix_to_json(c) for c in r.chi]
    return out


def residue_from_json(data) -> ResidueData:
    _object(data, ("S",), "residue file")
    s_list = tuple(matrix_from_json(m) for m in _list(data["S"], "S"))
    combination = data.get("positive_combination", [1] * len(s_list))
    chi = data.get("chi")
    residue = ResidueData(
        s_list=s_list,
        positive_combination=_integers(combination, "positive_combination"),
        chi=tuple(matrix_from_json(m) for m in _list(chi, "chi")) if chi is not None else None,
    )
    if "k" in data:
        _require(_integer(data["k"], "k") == residue.k, "'k' does not match the number of S matrices")
    return residue


# --------------------------------------------------------------- connections

def connection_to_json(conn: LogConnection) -> dict:
    return {
        "divisor": divisor_reference(conn.divisor),
        "components": [matrix_map_to_json(c) for c in conn.components],
    }


def connection_from_json(data) -> LogConnection:
    _require(isinstance(data, dict) and "divisor" in data and "components" in data,
             "connection file needs 'divisor' and 'components'")
    divisor = divisor_from_reference(data["divisor"])
    components = tuple(matrix_map_from_json(c, divisor.weights) for c in _list(data["components"], "components"))
    return LogConnection(divisor=divisor, components=components)


# -------------------------------------------------------------------- points

def point_to_json(p: ModuliPoint) -> dict:
    return {
        "components": [matrix_map_to_json(c) for c in p.components],
        "corrections": [matrix_map_to_json(c) for c in p.corrections],
    }


def point_from_json(data, weights: Sequence[int]) -> ModuliPoint:
    _require(isinstance(data, dict), "point file must be a JSON object")
    components = tuple(matrix_map_from_json(c, weights) for c in _list(data.get("components", []), "components"))
    corrections = tuple(matrix_map_from_json(c, weights) for c in _list(data.get("corrections", []), "corrections"))
    return ModuliPoint(components=components, corrections=corrections)


# ------------------------------------------------------------------- systems

def system_to_json(system: PolySystem, variables: Sequence[str]) -> dict:
    """The system with each equation as a polynomial over max(#coordinates, 1)
    variables, its exponent lists written straight from the sparse keys, and
    its ``gauge`` only when it has one."""
    width = max(len(system.coordinates), 1)
    out = {
        "divisor": system.divisor_name,
        "matrix_size": system.matrix_size,
        "summary": system.summary,
        "coordinates": [
            {
                "name": c.name,
                "slot": list(c.slot),
                "basis_index": c.basis_index,
                "degree": c.degree,
            }
            for c in system.coordinates
        ],
        "equations": [
            {
                "tag": eq.tag,
                "frame_slots": list(eq.frame_slots),
                "entry": [eq.entry[0] + 1, eq.entry[1] + 1],
                "base_monomial": list(eq.base_monomial),
                "poly": [{"exponents": exponent_vector(key, width), "coeff": fraction_to_json(coeff)}
                         for key, coeff in eq.sorted_terms()],
            }
            for eq in system.equations
        ],
    }
    if system.gauge is not None:
        out["gauge"] = matrix_to_json(system.gauge)
    return out


def system_from_json(data) -> PolySystem:
    _object(data, ("divisor", "matrix_size", "coordinates", "equations"), "system file")
    coords = []
    for c in _list(data["coordinates"], "coordinates"):
        _object(c, ("name", "slot", "basis_index", "degree"), "coordinate")
        slot = _list(c["slot"], "slot")
        _require(len(slot) == 2, f"slot must be [kind, index], got {slot!r}")
        coords.append(Coordinate(
            name=_string(c["name"], "coordinate name"),
            slot=(_string(slot[0], "slot kind"), _integer(slot[1], "slot index")),
            basis_index=_integer(c["basis_index"], "basis_index"),
            degree=_integer(c["degree"], "degree"),
        ))
    ncoords = len(coords)
    coord_weights = (1,) * (ncoords if ncoords else 1)
    matrix_size = _integer(data["matrix_size"], "matrix_size")
    equations = []
    for eq in _list(data["equations"], "equations"):
        _object(eq, ("tag", "frame_slots", "entry", "base_monomial", "poly"), "equation")
        entry = _integers(eq["entry"], "entry")
        _require(len(entry) == 2 and min(entry) >= 1 and max(entry) <= matrix_size,
                 f"entry must be two indices from 1 to matrix_size {matrix_size}, got {entry!r}")
        poly = poly_from_json(eq["poly"], coord_weights)
        # with no coordinates, the one exponent of each term is a placeholder that must be 0
        _require(ncoords or not any(map(any, poly.terms)),
                 "a system with no coordinates takes only constant terms, with the exponents [0]")
        equations.append(Equation(
            tag=_string(eq["tag"], "tag"),
            frame_slots=_integers(eq["frame_slots"], "frame_slots"),
            entry=(entry[0] - 1, entry[1] - 1),
            base_monomial=_integers(eq["base_monomial"], "base_monomial"),
            terms={coordinate_monomial(mono): as_scalar(coeff) for mono, coeff in poly.terms.items()},
            ncoords=ncoords,
        ))
    summary = data.get("summary", {})
    _require(isinstance(summary, dict), f"summary must be a JSON object, got {summary!r}")
    gauge = None
    if "gauge" in data:
        try:
            gauge = matrix_from_json(data["gauge"])
        except ValueError as exc:  # ragged rows
            raise SchemaError(f"gauge: {exc}") from exc
        _require((gauge.rows, gauge.cols) == (matrix_size, matrix_size),
                 f"gauge must be a square matrix of size {matrix_size}")
        _require(not rref(gauge).kernel, "gauge must be invertible")
    return PolySystem(
        divisor_name=_string(data["divisor"], "divisor"),
        matrix_size=matrix_size,
        coordinates=tuple(coords),
        equations=tuple(equations),
        summary=dict(summary),
        gauge=gauge,
    )


# ----------------------------------------------------------------- text form

def canonical_dumps(payload) -> str:
    """Byte-stable compact JSON: sorted keys, fixed separators, newline end."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def pretty_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise SchemaError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
