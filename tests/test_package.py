"""Tests for the package surface: one export list, built from the
modules' own."""

import maxstab

MODULES = (maxstab.analysis, maxstab.conditional, maxstab.continuous,
           maxstab.distributions, maxstab.maxar, maxstab.serialize,
           maxstab.spectral)


def test_all_is_union_of_module_lists():
    names = ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert len(maxstab.__all__) == len(set(maxstab.__all__))
    assert len(names) == len(set(names))
    assert set(maxstab.__all__) == set(names)


def test_every_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(maxstab, name) is getattr(module, name)
    assert isinstance(maxstab.__version__, str)
