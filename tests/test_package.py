import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "renormlab"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_in_src():
    """Every name an ast Name, Attribute or import in src/ refers to."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1]
                             for alias in node.names)
    return names


def test_every_definition_has_a_caller():
    """Every top-level def or class in src/renormlab is referenced by an
    ast Name, Attribute or import somewhere in src/, or by its name in the
    text of scripts/ or perfbench/.  Tests do not count: a definition only
    tests reach belongs in tests/.

    The check matches names only.  A same-named method or attribute
    elsewhere hides a dead function: a module-level `apply` would pass
    because some object's `.apply` is called."""
    used = _referenced_in_src()
    outside = "\n".join(path.read_text()
                        for folder in ("scripts", "perfbench")
                        for path in sorted((ROOT / folder).glob("*.py")))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in used or re.search(
                    rf"\b{re.escape(node.name)}\b", outside):
                continue
            dead.append(f"{path.stem}.{node.name}")
    assert not dead, f"no caller outside tests: {dead}"
