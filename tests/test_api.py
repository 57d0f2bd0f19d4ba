import importlib

import pytest

MODULES = ("lattice", "phasespace", "geomphase", "effective", "oracle", "mbqc", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cavitycluster.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"cavitycluster.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)

