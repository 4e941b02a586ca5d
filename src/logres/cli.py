"""Command-line interface.

Exit codes: 0 for a pass, 1 for a negative verification finding (the tool ran
fine, the math said no), 2 for malformed input, usage errors or an internal
error (a broken invariant, runaway recursion or exhausted memory, reported as
"error: internal: ..."). With ``verify-divisor --strict``, an inconclusive
reducedness check is a finding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import serialize
from .catalog import CATALOG_NAMES, catalog
from .connections import is_flat
from .divisor import (
    DivisorError,
    FreeDivisor,
    dlog_f_expansion,
    form_structure_equations,
    verify_saito,
)
from .liealg import jordan_chevalley, log_unipotent
from .moduli import MembershipError, ResidueError, check_point, moduli_system
from .polynomials import InexactDivisionError, WeightMismatchError, monomial_text
from .serialize import SchemaError

PASS, FINDING, BROKEN = 0, 1, 2


def _load_divisor(args) -> FreeDivisor:
    if args.catalog:
        return catalog(args.catalog)
    if args.divisor:
        return serialize.divisor_from_json(serialize.load_json_file(args.divisor))
    raise SchemaError("either --catalog NAME or --divisor FILE is required")


def _load_residue(args):
    return serialize.residue_from_json(serialize.load_json_file(args.residue))


def _emit(args, machine: Optional[dict], human_lines: List[str]) -> None:
    if args.format == "json":
        sys.stdout.write(serialize.canonical_dumps(machine))
    else:
        sys.stdout.write("\n".join(human_lines) + "\n")


# ---------------------------------------------------------------- subcommands

def cmd_catalog(args) -> int:
    if args.name:
        d = catalog(args.name)
        payload = serialize.divisor_to_json(d)
        _emit(args, payload, [serialize.pretty_dumps(payload).rstrip("\n")])
        return PASS
    payload = {"catalog": list(CATALOG_NAMES), "note": "normal_crossing_<k> accepts 1 <= k <= 16"}
    _emit(args, payload, ["available divisors:"] + [f"  {n}" for n in CATALOG_NAMES])
    return PASS


def cmd_verify_divisor(args) -> int:
    d = _load_divisor(args)
    result = verify_saito(d, trials=args.trials, seed=args.seed)
    expansion = dlog_f_expansion(d) if result.ok else ()
    machine = {
        "divisor": d.name,
        "ok": result.ok,
        "constant": serialize.fraction_to_json(result.constant) if result.constant is not None else None,
        "squarefree": result.squarefree,
        "degree": d.degree,
        "message": result.message,
        "dlog_expansion": [serialize.poly_to_json(p) for p in expansion],
    }
    human = [
        f"divisor: {d.name}",
        f"saito determinant check: {'ok' if result.ok else 'FAILED'}",
    ]
    if result.constant is not None:
        human.append(f"determinant = {result.constant} * f")
    human.append(f"euler degree: E(f) = {d.degree} * f")
    human.append(f"reducedness (monte carlo, seed {args.seed}): {result.squarefree}")
    if result.message:
        human.append(f"note: {result.message}")
    if expansion:
        human.append(
            "dlog f expansion: ("
            + ", ".join(p.format(d.variables) for p in expansion)
            + ")"
        )
    _emit(args, machine, human)
    if not result.ok:
        return FINDING
    if args.strict and result.squarefree == "inconclusive":
        return FINDING
    return PASS


def cmd_frame_info(args) -> int:
    d = _load_divisor(args)
    sf = d.structure
    forms = d.dual_forms
    expansion = dlog_f_expansion(d)
    structure = form_structure_equations(d)
    names = d.variables
    labels = [f"V{i + 1}" for i in range(d.n)]
    machine = {
        "divisor": d.name,
        "kinds": [e.kind for e in d.frame],
        "grades": [e.grade for e in d.frame],
        "brackets": {
            f"{i + 1},{j + 1}": [serialize.poly_to_json(c) for c in coeffs]
            for (i, j), coeffs in sorted(sf.table.items())
        },
        "dual_form_numerators": [[serialize.poly_to_json(p) for p in row] for row in forms.numerators],
        "dual_form_constant": serialize.fraction_to_json(forms.constant),
        "dlog_expansion": [serialize.poly_to_json(p) for p in expansion],
        "form_structure": {
            str(k + 1): {f"{i + 1},{j + 1}": serialize.poly_to_json(c) for (i, j), c in sorted(table.items())}
            for k, table in structure.items()
        },
    }
    human = [f"divisor: {d.name}", "frame:"]
    for i, e in enumerate(d.frame):
        grade = f", grade {e.grade}" if e.grade is not None else ""
        star = " (distinguished)" if e.distinguished else ""
        field = " + ".join(
            f"({c.format(names)})*d/d{names[j]}" for j, c in enumerate(e.field.coefficients) if c
        )
        human.append(f"  {labels[i]}: {e.kind}{grade}{star}: {field}")
    human.append("brackets [Vi, Vj] = sum_k c_ij^k Vk:")
    for (i, j), coeffs in sorted(sf.table.items()):
        parts = [
            f"({c.format(names)})*{labels[k]}" for k, c in enumerate(coeffs) if not c.is_zero()
        ]
        human.append(f"  [{labels[i]},{labels[j]}] = " + (" + ".join(parts) if parts else "0"))
    human.append(f"dual forms: row_i / ({forms.constant} * f), rows:")
    for i, row in enumerate(forms.numerators):
        human.append(
            f"  xi^{labels[i]}: " + ", ".join(f"{p.format(names)} d{names[j]}" for j, p in enumerate(row))
        )
    human.append(
        "dlog f = " + " , ".join(f"{p.format(names)} on xi^{labels[i]}" for i, p in enumerate(expansion))
    )
    human.append("form structure equations d xi^k = - sum c_ij^k xi^i ^ xi^j:")
    for k, table in structure.items():
        parts = [
            f"({c.format(names)}) xi^{labels[i]}^xi^{labels[j]}" for (i, j), c in sorted(table.items())
        ]
        human.append(f"  d xi^{labels[k]} = " + (" + ".join(parts) if parts else "0"))
    _emit(args, machine, human)
    return PASS


def cmd_residue_space(args) -> int:
    d = _load_divisor(args)
    residue = _load_residue(args)
    problem = moduli_system(d, residue)
    machine = {
        "divisor": d.name,
        "summary": problem.system.summary,
        "component_spaces": [
            {
                "slot": list(space.slot),
                "dimension": space.dimension,
                "dims_by_degree": {str(k): v for k, v in sorted(space.dims_by_degree.items())},
            }
            for space in problem.component_spaces
        ],
        "correction_space": {
            "dimension": problem.symmetry.dimension,
            "dims_by_degree": {str(k): v for k, v in sorted(problem.symmetry.dims_by_degree.items())},
        },
        "symmetry_algebra": {
            "dimension": problem.symmetry.dimension,
            "constant": problem.symmetry.constant_dimension,
            "positive": problem.symmetry.positive_dimension,
        },
        "coordinates": [c.name for c in problem.system.coordinates],
    }
    human = [f"divisor: {d.name}"]
    for space in problem.component_spaces:
        human.append(
            f"component slot {space.slot[1] + 1}: dim {space.dimension} "
            f"(by degree: {dict(sorted(space.dims_by_degree.items()))})"
        )
    human.append(
        f"correction space per toral slot: dim {problem.symmetry.dimension} "
        f"(by degree: {dict(sorted(problem.symmetry.dims_by_degree.items()))})"
    )
    human.append(
        f"symmetry algebra: dim {problem.symmetry.dimension} = "
        f"{problem.symmetry.constant_dimension} constant + {problem.symmetry.positive_dimension} positive"
    )
    _emit(args, machine, human)
    return PASS


def cmd_emit_moduli(args) -> int:
    d = _load_divisor(args)
    residue = _load_residue(args)
    problem = moduli_system(d, residue)
    payload = serialize.system_to_json(problem.system, d.variables) if args.output or args.format == "json" else None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialize.pretty_dumps(payload))
    human: List[str] = []
    if args.format == "text":
        # json never prints these lines, so only text formats the equations
        names = problem.system.coordinate_names
        human = [
            f"divisor: {d.name}",
            f"coordinates ({len(names)}): " + ", ".join(names),
            f"equations ({len(problem.system.equations)}):",
        ]
        for eq in problem.system.equations:
            slots = ",".join(f"V{k + 1}" for k in eq.frame_slots)
            human.append(
                f"  [{eq.tag}] ({slots}) entry ({eq.entry[0] + 1},{eq.entry[1] + 1}) "
                f"monomial {monomial_text(eq.base_monomial, d.variables)}: "
                f"{eq.format(names)} = 0"
            )
        if args.output:
            human.append(f"written to {args.output}")
    _emit(args, payload, human)
    return PASS


def cmd_check_flat(args) -> int:
    conn = serialize.connection_from_json(serialize.load_json_file(args.connection))
    report = is_flat(conn)
    machine = {
        "divisor": conn.divisor.name,
        "flat": report.flat,
        "witness": list(report.witness) if report.witness else None,
    }
    human = [f"divisor: {conn.divisor.name}", f"flat: {report.flat}"]
    if report.witness is not None:
        i, j = report.witness
        human.append(f"first nonzero curvature on frame pair ({i + 1},{j + 1})")
    _emit(args, machine, human)
    return PASS if report.flat else FINDING


def cmd_check_point(args) -> int:
    d = _load_divisor(args)
    residue = _load_residue(args)
    point = serialize.point_from_json(serialize.load_json_file(args.point), d.weights)
    problem = moduli_system(d, residue)
    report = check_point(d, residue, point, problem)
    violated = [
        {
            "tag": problem.system.equations[i].tag,
            "frame_slots": list(problem.system.equations[i].frame_slots),
            "entry": [problem.system.equations[i].entry[0] + 1, problem.system.equations[i].entry[1] + 1],
            "base_monomial": list(problem.system.equations[i].base_monomial),
        }
        for i in report.violations
    ]
    machine = {
        "divisor": d.name,
        "flat": report.flat,
        "in_variety": report.in_variety,
        "violations": violated,
    }
    human = [f"divisor: {d.name}", f"flat: {report.flat}", f"in variety: {report.in_variety}"]
    for v in violated[:20]:
        slots = ",".join(f"V{k + 1}" for k in v["frame_slots"])
        human.append(
            f"  violated [{v['tag']}] ({slots}) entry {tuple(v['entry'])} "
            f"monomial {monomial_text(v['base_monomial'], d.variables)}"
        )
    if len(violated) > 20:
        human.append(f"  ... and {len(violated) - 20} more")
    _emit(args, machine, human)
    return PASS if report.in_variety else FINDING


def cmd_jordan(args) -> int:
    matrix = serialize.matrix_from_json(serialize.load_json_file(args.matrix))
    decomposition = jordan_chevalley(matrix, mode=args.mode)
    machine = {
        "mode": args.mode,
        "semisimple": serialize.matrix_to_json(decomposition.semisimple),
        ("nilpotent" if args.mode == "additive" else "unipotent"): serialize.matrix_to_json(decomposition.other),
    }
    human = [
        f"mode: {args.mode}",
        f"semisimple part: {serialize.matrix_to_json(decomposition.semisimple)}",
    ]
    if args.mode == "additive":
        human.append(f"nilpotent part: {serialize.matrix_to_json(decomposition.other)}")
    else:
        machine["log_unipotent"] = serialize.matrix_to_json(log_unipotent(decomposition.other))
        human.append(f"unipotent part: {serialize.matrix_to_json(decomposition.other)}")
        human.append(f"log of unipotent part: {machine['log_unipotent']}")
    _emit(args, machine, human)
    return PASS


# -------------------------------------------------------------------- parser

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logres",
        description="Exact calculus for weighted-homogeneous free divisors and "
        "normal forms of flat logarithmic connections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, divisor=False, residue=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if divisor:
            p.add_argument("--catalog", metavar="NAME")
            p.add_argument("--divisor", metavar="FILE")
        if residue:
            p.add_argument("--residue", metavar="FILE", required=True)

    p = sub.add_parser("catalog", help="list catalog divisors or dump one as JSON")
    p.add_argument("--name", metavar="NAME")
    add_common(p)
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("verify-divisor", help="run the determinant and reducedness checks")
    add_common(p, divisor=True)
    p.add_argument("--trials", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true", help="treat an inconclusive reducedness check as a finding")
    p.set_defaults(handler=cmd_verify_divisor)

    p = sub.add_parser("frame-info", help="brackets, dual forms, and structure equations")
    add_common(p, divisor=True)
    p.set_defaults(handler=cmd_frame_info)

    p = sub.add_parser("residue-space", help="solution space dimensions for a residue")
    add_common(p, divisor=True, residue=True)
    p.set_defaults(handler=cmd_residue_space)

    p = sub.add_parser("emit-moduli", help="emit the normal-form variety equations")
    add_common(p, divisor=True, residue=True)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(handler=cmd_emit_moduli)

    p = sub.add_parser("check-flat", help="exact flatness of a connection file")
    add_common(p)
    p.add_argument("--connection", metavar="FILE", required=True)
    p.set_defaults(handler=cmd_check_flat)

    p = sub.add_parser("check-point", help="evaluate the variety equations at a point")
    add_common(p, divisor=True, residue=True)
    p.add_argument("--point", metavar="FILE", required=True)
    p.set_defaults(handler=cmd_check_point)

    p = sub.add_parser("jordan", help="Jordan-Chevalley decomposition of a matrix file")
    add_common(p)
    p.add_argument("--matrix", metavar="FILE", required=True)
    p.add_argument("--mode", choices=("additive", "multiplicative"), default="additive")
    p.set_defaults(handler=cmd_jordan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return BROKEN if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (SchemaError, DivisorError, ResidueError, MembershipError, WeightMismatchError,
            InexactDivisionError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BROKEN
    except (ArithmeticError, RecursionError, MemoryError) as exc:
        sys.stderr.write(f"error: internal: {str(exc) or type(exc).__name__}\n")
        return BROKEN


if __name__ == "__main__":
    sys.exit(main())
