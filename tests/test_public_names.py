"""What src/ exposes: a name without a leading underscore, reached by something that runs.

A public name counts as reached when another top-level definition of the
package refers to it, or the acceptance criteria, their fixtures, the
README quick start, a tool or the benchmark's tracer does. A reference is
resolved, not matched by spelling: it is a bare name, a name imported from
the package, an attribute of the package or of one of its modules, or a
string in a tool or the tracer (the tracer's hooks name their functions in
strings, and tools/advect_bench.py loads spectral.py from a path and names
the kernels it times in its docstring). An attribute of anything else, such
as a method call on a run context, names no package definition. A name only
unit tests reach belongs in tests/oracles.py, not in src/. The leading
underscore is the one declaration of what a module exposes, so no module
but the package's __init__ keeps an __all__ list.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "attractorlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _in_package(name: str) -> bool:
    return name.split(".")[0] == "attractorlab"


def _from_package(node: ast.AST) -> bool:
    """Whether node imports from the package: relatively, or by its absolute name."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or _in_package(node.module or "")
    return isinstance(node, ast.Import) and any(_in_package(alias.name) for alias in node.names)


def _module_names(tree: ast.AST) -> set:
    """Local names a tree binds to the package or to one of its modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias for alias in node.names if _in_package(alias.name)]
            out.update(alias.asname or "attractorlab" for alias in names)
        elif _from_package(node) and node.module in (None, "attractorlab"):
            out.update(alias.asname or alias.name for alias in node.names if alias.name in MODULES)
    return out


def _is_module(node: ast.AST, modules: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in modules
    if isinstance(node, ast.Attribute):
        return node.attr in MODULES and _is_module(node.value, modules)
    return False


def _names(tree: ast.AST, modules: set, strings: bool = False) -> set:
    """Names a tree refers to, given the local names of the package and its modules;
    with strings, also every identifier its string constants spell."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and _from_package(node):
            out.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Attribute) and _is_module(node.value, modules):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _quick_start() -> ast.AST:
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])


def _package() -> list:
    """(module, parsed tree) of every module of the package."""
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def test_every_public_definition_is_reached_outside_the_unit_tests():
    quick_start = _quick_start()
    reached = _names(quick_start, _module_names(quick_start))
    for path in [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]:
        tree = ast.parse(path.read_text())
        reached |= _names(tree, _module_names(tree))
    for path in sorted((ROOT / "tools").glob("*.py")) + [ROOT / "perfbench" / "tracer.py"]:
        tree = ast.parse(path.read_text())
        reached |= _names(tree, _module_names(tree), strings=True)
    defs = []  # (module, top-level definition, the names it refers to)
    for module, tree in _package():
        modules = _module_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AnnAssign, ast.Assign)):
                defs.append((module, node, _names(node, modules)))
    dead = [
        f"{module}.{node.name}"
        for module, node, _ in defs
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in reached
        and not any(node.name in names for _, other, names in defs if other is not node)
    ]
    assert dead == []


def test_only_the_package_init_lists_exports():
    listing = [
        module
        for module, tree in _package()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and any(
            isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and name.id == "__all__"
            for name in ast.walk(node)
        )
    ]
    assert listing == ["__init__"]
