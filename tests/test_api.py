import importlib

import huffwyth


def test_exports_resolve_and_the_package_exports_the_layers():
    # bench/tracer.py reads getattr(module, name) for each name in __all__
    exported = ["__version__"]
    for layer in ("numbers", "wythoff", "huffman", "theorems", "oracle", "cli"):
        mod = importlib.import_module(f"huffwyth.{layer}")
        assert all(hasattr(mod, name) for name in mod.__all__), layer
        exported += mod.__all__ if layer != "cli" else []
    assert sorted(huffwyth.__all__) == sorted(exported)
    assert all(hasattr(huffwyth, name) for name in huffwyth.__all__)
