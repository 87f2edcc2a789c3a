"""Every public function and class of the library is used by the system.

The system is the library's modules, the example scripts and the benchmark.
``__init__.py`` does not count: its re-exports use nothing. A public
module-level name that only tests reach belongs in the tests (the paper's
math oracles are in ``reference.py``). A use is an AST reference: a
``Name`` that the file defines or imports from the name's module, or an
``Attribute`` on that module. Strings, such as the benchmark's probe table,
do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hdfed"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
SYSTEM = [PACKAGE / f"{m}.py" for m in MODULES] + sorted(
    p for d in ("scripts", "bench") for p in (ROOT / d).glob("*.py")
)


def imported_module(node: ast.ImportFrom) -> str | None:
    """The library module an import reads from: a module name, "hdfed" for
    the package, or None outside the library."""
    if node.level:  # relative imports occur only inside the package
        return node.module or "hdfed"
    package, _, module = (node.module or "").partition(".")
    if package != "hdfed":
        return None
    return module or "hdfed"


def references(path: Path) -> set[tuple[str, str]]:
    """The (module, name) pairs that the file at ``path`` uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == PACKAGE else None
    names: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    modules: dict[str, str] = {}  # local name -> module, or "hdfed"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := imported_module(node)):
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "hdfed" and alias.name in MODULES:
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "hdfed" and alias.asname:
                    modules[alias.asname] = module or "hdfed"
                elif package == "hdfed":
                    modules["hdfed"] = "hdfed"

    def module_of(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and module_of(expr.value) == "hdfed":
            return expr.attr if expr.attr in MODULES else None
        return None

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in names:
                used.add(names[node.id])
            elif own:
                used.add((own, node.id))
        elif isinstance(node, ast.Attribute) and (module := module_of(node.value)):
            used.add((module, node.attr))
    return used


def public_definitions() -> list[tuple[str, str]]:
    return [
        (module, node.name)
        for module in MODULES
        for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_public_name_is_used_by_the_system():
    used = set().union(*map(references, SYSTEM))
    unused = [
        f"hdfed.{module}.{name}"
        for module, name in public_definitions()
        if (module, name) not in used and ("hdfed", name) not in used
    ]
    assert unused == []


def test_references_resolve_imports_and_module_attributes():
    used = references(ROOT / "bench" / "worker.py") | references(PACKAGE / "harness.py")
    assert ("channel", "read_model_bytes") in used  # imported inside a function
    assert ("data", "synth_train_test") in used  # dio.synth_train_test
    assert ("hdc", "encode_batch") in used  # imported name
    assert ("harness", "projection_for") in used  # its own module
    # Neither str.encode nor a method named encode is a library function.
    methods = references(ROOT / "bench" / "worker.py") | references(PACKAGE / "federated.py")
    assert ("hdc", "encode") not in methods
