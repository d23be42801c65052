"""The package's export list."""

import gravlab


def test_every_exported_name_resolves():
    missing = [name for name in gravlab.__all__ if not hasattr(gravlab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from gravlab import *", namespace)
    assert set(gravlab.__all__) <= set(namespace)
