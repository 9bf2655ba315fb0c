import ast
import re
from pathlib import Path

import pooltest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# names that left the package: they had no caller outside their own tests,
# or moved to tests/brute_force.py, or stay in their modules for src/ only,
# or (the three exception types) folded into InputError, or (Margin) folded
# into GeneralMargin, or (ENUMERATION_LIMIT) gave way to the scan's budget,
# or (DirectExponent) gave way to GeneralMargin as the direct exponents' result
REMOVED = (
    "CURVE_IDS", "ConfigurationError", "DEFAULT_EPSILON", "DirectExponent", "ENUMERATION_LIMIT",
    "EmptyTypicalSetError", "Infimum", "Margin", "NoThresholdError", "ReducedAlphabetError",
    "brute_force_decision_set_noiseless", "compositions", "enumerate_ensemble",
    "exponent_infimum", "forward_general", "graph_from_json", "graph_to_json",
    "is_typical", "linspace", "multinomial", "noisy_achievable_margin", "noisy_collision_factor",
    "parity_function", "threshold_function", "type_vector_representative", "typical_weights",
    "weight_rate", "weight_vector",
)


def test_every_export_resolves_once():
    names = pooltest.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pooltest, name)]
    assert not missing


def test_polynomial_classes_are_gone():
    # enumerators are plain coefficient tuples and {type: multiplicity} dicts
    for name in ("Polynomial", "MultiPolynomial"):
        assert not hasattr(pooltest, name)
        assert not hasattr(pooltest.genfunc, name)


def test_removed_names_are_gone():
    assert len(pooltest.__all__) == 51
    assert not [name for name in REMOVED if name in pooltest.__all__ or hasattr(pooltest, name)]
    assert not hasattr(pooltest.errors, "EmptyTypicalSetError")
    assert not hasattr(pooltest.ensemble, "type_vector_representative")
    assert not hasattr(pooltest.genfunc, "Margin")
    assert not hasattr(pooltest.genfunc, "DirectExponent")
    assert not hasattr(pooltest.bounds, "noisy_collision_factor")
    assert not hasattr(pooltest.PoolingGraph, "object_tests")
    assert not hasattr(pooltest.PoolingGraph, "test_pools")


def test_value_for_type_left_test_function():
    # only the brute-force references read a pool's output symbol by type
    assert not hasattr(pooltest.TestFunction, "value_for_type")


def test_one_exception_type_per_exit_code():
    # InputError is every usage error (exit 2), GuardError every guard refusal (exit 3)
    defined = sorted(
        name for name, obj in vars(pooltest.errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    )
    assert defined == ["GuardError", "InputError"]


def test_readme_python_example_prints_what_it_says(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    pair, probability = capsys.readouterr().out.splitlines()
    lower, upper = map(float, re.findall(r"p_\w+=([0-9.]+)", pair))
    assert (round(lower, 6), round(upper, 6)) == (0.110022, 0.110023)
    assert probability == "461/973896"
    # the comments quote what each line prints
    comments = [line.split("# ")[1] for line in blocks[0].splitlines() if "# " in line]
    assert comments == ["p_lower=0.110022..., p_upper=0.110023...", "461/973896"]


def _import_problems(tree: ast.Module) -> list[str]:
    """Names that the module's imports bind twice, or bind and never read.
    A read is a Name node, a name in a string annotation, or an entry of
    __all__."""
    bound: dict[str, int] = {}
    used, strings = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = bound.get(name, 0) + 1
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            strings += [n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)]
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                strings += [n.value for n in ast.walk(annotation)
                            if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for text in strings:
        used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return sorted(
        [f"{name} imported {count} times" for name, count in bound.items() if count > 1]
        + [f"{name} imported and never used" for name in bound if name not in used]
    )


def test_no_unused_or_duplicate_imports():
    problems = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        found = _import_problems(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            problems[str(path.relative_to(ROOT))] = found
    assert not problems


def test_import_scan_sees_unused_and_duplicate_names():
    tree = ast.parse(
        "import math\nfrom os import path, sep\nfrom os import sep\n"
        "from typing import List\n__all__ = ['path']\nx: 'List[int]' = 0\ny = 'math' + sep\n"
    )
    assert _import_problems(tree) == ["math imported and never used", "sep imported 2 times"]


def _genfunc_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports, at module or function level, that reach genfunc."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("genfunc" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


def test_ensemble_oracles_import_nothing_from_genfunc():
    # the oracles are the generating functions' ground truth, so they share none of their code
    tree = ast.parse((ROOT / "src" / "pooltest" / "ensemble.py").read_text(encoding="utf-8"))
    assert _genfunc_imports(tree) == []


def test_genfunc_import_scan_sees_every_form():
    tree = ast.parse(
        "from .genfunc import x\ndef f():\n    from . import genfunc\n    import pooltest.genfunc\n"
        "from .bounds import genfunc_limit\nimport genfuncs\n"
    )
    assert _genfunc_imports(tree) == [1, 3, 4]
