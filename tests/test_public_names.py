"""Every public function or class in the package is reached by something that runs.

A public name counts as reached when another top-level definition of the
package refers to it, or the acceptance criteria, their fixtures, the
README quick start, a tool or the benchmark's tracer does. A name only unit
tests reach belongs in tests/oracles.py, not in src/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "attractorlab"


def _names(tree: ast.AST) -> set:
    """Identifiers a tree refers to: names, attributes, and strings spelling one
    (the tracer's hooks name their functions in strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(part for part in node.value.split(".") if part.isidentifier())
    return out


def _quick_start() -> ast.AST:
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])


def test_every_public_definition_is_reached_outside_the_unit_tests():
    outside = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    outside += sorted((ROOT / "tools").glob("*.py")) + [ROOT / "perfbench" / "tracer.py"]
    reached = _names(_quick_start())
    for path in outside:
        reached |= _names(ast.parse(path.read_text()))
    defs = []  # (module, top-level definition) of the package; export lists are none
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AnnAssign)) or (
                isinstance(node, ast.Assign) and "__all__" not in _names(node.targets[0])
            ):
                defs.append((path.stem, node))
    refs = [(node, _names(node)) for _, node in defs]
    dead = [
        f"{module}.{node.name}"
        for module, node in defs
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in reached
        and not any(node.name in names for other, names in refs if other is not node)
    ]
    assert dead == []
