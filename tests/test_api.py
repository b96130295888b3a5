"""The package's public name list."""

import ast
from pathlib import Path

import uapaudio


def test_all_is_sorted_without_duplicates():
    assert uapaudio.__all__ == sorted(set(uapaudio.__all__))


def test_every_public_name_resolves():
    for name in uapaudio.__all__:
        assert hasattr(uapaudio, name), name


def _names_used_outside_tests(root: Path) -> set[str]:
    """Names, attributes and string constants in the package, scripts and benchmark."""
    files = [p for p in (root / "src" / "uapaudio").glob("*.py") if p.name != "__init__.py"]
    files += (root / "scripts").glob("*.py")
    files += [p for p in (root / "perfbench").rglob("*.py")
              if root / "perfbench" / "tests" not in p.parents]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_tests():
    """A public name that only tests use is a wrapper to delete, not API."""
    used = _names_used_outside_tests(Path(__file__).resolve().parent.parent)
    assert sorted(set(uapaudio.__all__) - used) == []


def test_every_module_level_definition_has_a_caller_outside_tests():
    """A module-level function or class that only tests use belongs in the tests.

    Result fields are left out: a field is output for the caller, and some have
    only test readers on purpose, such as PenaltyResult.trace and
    InnerAttackResult.l2_norm, which criteria 3 and 4 read.
    """
    root = Path(__file__).resolve().parent.parent
    defined = set()
    for path in (root / "src" / "uapaudio").glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert sorted(defined - _names_used_outside_tests(root)) == []


def test_one_function_reads_the_row_block_size():
    """The row-block rule is stated once: every batched pass takes its blocks from one helper."""
    root = Path(__file__).resolve().parent.parent
    readers = []
    for path in (root / "src" / "uapaudio").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(n, ast.Name) and n.id == "_ROW_BLOCK" and isinstance(n.ctx, ast.Load)
                    for n in ast.walk(node)):
                readers.append(f"{path.stem}.{node.name}")
    assert readers == ["models._row_blocks"]
