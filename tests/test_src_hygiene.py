"""Static checks on the library source: no unused import, no orphaned private
name, one integral-rational normaliser.

The import and private-name rules read the modules with the stdlib ``ast``
only.  A name counts as used when it is loaded, is the attribute of an
expression, is imported by another module, or appears in a string annotation.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logres"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def referenced(node):
    """Every name that ``node`` loads, reads as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and IDENTIFIER.fullmatch(sub.value):
            names.add(sub.value)  # a forward reference such as -> "RationalMatrix"
    return names


@lru_cache(maxsize=None)
def statements():
    """(module name, statement, names it references) for every module-level statement."""
    return [(path.stem, node, referenced(node))
            for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text(), str(path)).body]


def imported_names(node):
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def defined_names(node):
    """The private names that a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        targets = [node.name]
    elif isinstance(node, ast.Assign):
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        targets = [node.target.id]
    else:
        targets = []
    return [name for name in targets if name.startswith("_") and not name.startswith("__")]


def test_every_import_is_used_in_its_module():
    imports, used = {}, {}
    for module, node, names in statements():
        if module == "__init__":
            continue  # re-exports
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.setdefault(module, []).extend(imported_names(node))
        else:
            used.setdefault(module, set()).update(names)
    unused = [f"{module}: {name}" for module, names in imports.items() for name in names
              if name not in used.get(module, ())]
    assert unused == []


def test_every_private_name_is_referenced_outside_its_definition():
    table = statements()
    orphans = [private for i, (_, node, _) in enumerate(table) for private in defined_names(node)
               if not any(private in names for j, (_, _, names) in enumerate(table) if j != i)]
    assert orphans == []


def test_only_univariate_spells_the_integral_test():
    # ``univariate.as_scalar`` is the one int-or-Fraction normaliser; every
    # other module calls it rather than testing ``.denominator == 1`` itself
    spelled = [path.stem for path in sorted(SRC.glob("*.py"))
               if path.stem != "univariate" and ".denominator == 1" in path.read_text()]
    assert spelled == []


def test_only_moduli_system_calls_the_private_solves():
    # ``moduli_system`` is the one way into the component and correction
    # solves, through its builder ``_build``: no other statement names them
    def callers(names):
        return sorted(getattr(node, "name", f"{module}:{node.lineno}") for module, node, named in statements()
                      if named & names and getattr(node, "name", None) not in names)

    assert callers({"_component_spaces", "_correction_spaces"}) == ["_build"]
    assert callers({"_build"}) == ["moduli_system"]


def test_connections_imports_nothing_from_moduli():
    # check_point cross-checks the emission kernel ``moduli._products`` against
    # ``connections``' own curvature kernel, so the two must stay independent
    tree = ast.parse((SRC / "connections.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.extend([node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names])
    assert [name for name in imported if "moduli" in name.split(".")] == []


def test_private_and_nested_functions_read_every_parameter():
    # a private or nested function is called only from inside the package, so
    # a parameter it never reads is dropped with its arguments rather than
    # passed along; public functions keep their signatures for outside callers,
    # and dunders, ``self``, ``cls`` and lambdas are exempt
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        nested = {id(inner) for node in ast.walk(tree) if isinstance(node, functions)
                  for stmt in node.body for inner in ast.walk(stmt) if isinstance(inner, functions)}
        for node in ast.walk(tree):
            if not isinstance(node, functions):
                continue
            private = node.name.startswith("_") and not node.name.endswith("__")
            if not (private or id(node) in nested):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread.extend(f"{path.stem}.{node.name}: {param.arg}" for param in params
                          if param.arg not in ("self", "cls") and param.arg not in read)
    assert unread == []
