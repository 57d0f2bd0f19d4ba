import importlib

import pytest

import cavitycluster

MODULES = ("lattice", "phasespace", "geomphase", "effective", "oracle", "mbqc", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cavitycluster.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"cavitycluster.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_resolves():
    missing = [attr for attr in cavitycluster.__all__ if not hasattr(cavitycluster, attr)]
    assert not missing, f"cavitycluster.__all__ names {missing}"
    assert len(set(cavitycluster.__all__)) == len(cavitycluster.__all__)
