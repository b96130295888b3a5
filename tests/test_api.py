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
    only test readers on purpose, such as CraftResult.trace and
    InnerAttackResult.l2_norm, which criteria 3 and 4 read.
    """
    root = Path(__file__).resolve().parent.parent
    defined = set()
    for path in (root / "src" / "uapaudio").glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert sorted(defined - _names_used_outside_tests(root)) == []


def _functions_where(test) -> list[str]:
    """Each function of the package, as module.name, holding a syntax node that passes test.

    A node counts for the innermost function around it only, so a nested
    function's nodes are not also reported under the functions that enclose it.
    """
    root = Path(__file__).resolve().parent.parent
    found = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if function and test(child):
                found.add(f"{module}.{function}")
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else function)

    for path in (root / "src" / "uapaudio").glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return sorted(found)


def test_one_function_reads_the_row_block_size():
    """The row-block rule is stated once: every batched pass takes its blocks from one helper."""
    assert _functions_where(lambda n: isinstance(n, ast.Name) and n.id == "_ROW_BLOCK"
                            and isinstance(n.ctx, ast.Load)) == ["models._row_blocks"]


def test_one_function_states_the_success_threshold():
    """The stopping rule is stated once: only ddn.craft_loop subtracts a delta (the 1 - delta threshold)."""
    def subtracts_delta(n):
        return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
                and "delta" in (getattr(n.right, "id", None), getattr(n.right, "attr", None)))

    assert _functions_where(subtracts_delta) == ["ddn.craft_loop"]


def test_one_function_builds_an_asr_trace():
    """Both crafts run one loop: only ddn.craft_loop appends to an asr_trace."""
    assert _functions_where(lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "append"
                            and getattr(n.func.value, "id", None) == "asr_trace") == ["ddn.craft_loop"]


def test_one_function_renders_a_perturbations_signal_vector():
    """A perturbation's signal-space vector is rendered once, when it is built; the
    other call is penalty's projection step, in the generator of its updates."""
    assert _functions_where(lambda n: isinstance(n, ast.Call)
                            and getattr(n.func, "id", None) == "render_signal_v") \
        == ["penalty.updates", "perturbation.__post_init__"]


def test_one_block_runner_calls_the_layers():
    """Inference has one path: only _forward (a pass that keeps caches) and _front (row blocks,
    keeping none) call a layer's forward, so no second runner can come back."""
    assert _functions_where(lambda n: isinstance(n, ast.Call)
                            and getattr(n.func, "attr", None) == "forward") == ["models._forward", "models._front"]


def test_one_function_takes_each_db_level():
    """Each dB formula is written once: only audio.spl (20 log10 of the RMS) and audio._peak_db
    (20 log10 of the peak) take a log10, so no caller, evaluation included, keeps its own copy."""
    assert _functions_where(lambda n: isinstance(n, ast.Call)
                            and getattr(n.func, "attr", None) == "log10") == ["audio._peak_db", "audio.spl"]


def test_one_crafting_path_in_the_cli():
    """craft, sweep and transfer share one path: in the CLI only _craft names a crafting method, and
    only _crafting_sets loads a crafting set (train-victim and evaluate load the data they need)."""
    def cli_functions_naming(*names):
        return [f for f in _functions_where(lambda n: isinstance(n, ast.Name) and n.id in names)
                if f.startswith("cli.")]

    assert cli_functions_naming("greedy_uap", "penalty_uap") == ["cli._craft"]
    assert cli_functions_naming("load_dataset_dir") == ["cli._cmd_evaluate", "cli._cmd_train_victim",
                                                        "cli._crafting_sets"]
