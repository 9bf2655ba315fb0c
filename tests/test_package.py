import pooltest


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
