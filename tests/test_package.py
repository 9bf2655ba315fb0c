import re
from pathlib import Path

import pooltest

README = Path(__file__).resolve().parents[1] / "README.md"

# names that left the package: they had no caller outside their own tests,
# or moved to tests/brute_force.py, or stay in their modules for src/ only
REMOVED = (
    "CURVE_IDS", "DEFAULT_EPSILON", "EmptyTypicalSetError", "Infimum",
    "brute_force_decision_set_noiseless", "compositions", "enumerate_ensemble",
    "exponent_infimum", "forward_general", "graph_from_json", "graph_to_json",
    "is_typical", "linspace", "multinomial", "parity_function", "threshold_function",
    "type_vector_representative", "typical_weights", "weight_rate", "weight_vector",
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
    assert len(pooltest.__all__) == 59
    assert not [name for name in REMOVED if name in pooltest.__all__ or hasattr(pooltest, name)]
    assert not hasattr(pooltest.errors, "EmptyTypicalSetError")
    assert not hasattr(pooltest.PoolingGraph, "object_tests")
    assert not hasattr(pooltest.PoolingGraph, "test_pools")


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
