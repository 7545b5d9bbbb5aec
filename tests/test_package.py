import ast
from pathlib import Path

import psvsim

ROOT = Path(__file__).resolve().parent.parent


def _loaded_names(path: Path) -> set[str]:
    """Every name a module reads: loaded names and attributes, base classes
    included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_program_reader():
    # Test-only checks live in tests/_oracles.py, not in the package.
    program = [p for p in sorted((ROOT / "src" / "psvsim").glob("*.py")) if p.name != "__init__.py"]
    program += sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_loaded_names, program))
    assert sorted(set(psvsim.__all__) - read) == []
