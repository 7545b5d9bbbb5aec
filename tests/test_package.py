import ast
import shutil
import subprocess
import sys
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


def _imported_names(path: Path) -> set[str]:
    """Every name a module binds by import, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export; its readers are checked above.
    modules = [p for p in sorted((ROOT / "src" / "psvsim").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    unread = {p.relative_to(ROOT).as_posix(): sorted(_imported_names(p) - _loaded_names(p))
              for p in modules}
    assert {path: names for path, names in unread.items() if names} == {}


def test_the_package_exports_exactly_what_its_init_imports():
    # A name dropped from one of the two lists cannot linger in the other.
    imported = _imported_names(ROOT / "src" / "psvsim" / "__init__.py")
    assert sorted(imported) == sorted(psvsim.__all__)


def test_a_failing_property_test_reports_its_example(tmp_path):
    # Under the project's pytest settings (warnings are errors) and its
    # conftest, a failing hypothesis test is a FAILED line with its
    # falsifying example, not an INTERNALERROR that stops the run.
    for name in ("pyproject.toml", "tests/conftest.py"):
        shutil.copy(ROOT / name, tmp_path)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
    assert "Falsifying example" in proc.stdout
