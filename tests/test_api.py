"""The package's exported names."""

import slaacsim


def test_every_exported_name_resolves():
    assert [name for name in slaacsim.__all__ if not hasattr(slaacsim, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from slaacsim import *", namespace)
    assert set(slaacsim.__all__) <= set(namespace)
