"""Tests for the package surface: one export list, built from the
modules' own."""

import re
from pathlib import Path

import pytest

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


REMOVED = ("ConeSpec", "cone_member", "StationaryLaw", "STATIONARY",
           "ratio_support", "RatioSupportEstimate", "kernel_sample",
           "sample_spectral", "shift")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in maxstab.__all__
    assert name not in dir(maxstab)
    with pytest.raises(AttributeError):
        getattr(maxstab, name)


def test_cli_keeps_only_the_exit_codes_it_reads():
    import maxstab.cli
    for name in ("EXIT_OK", "EXIT_IO", "EXIT_USAGE"):
        assert not hasattr(maxstab.cli, name)
    assert (maxstab.cli.EXIT_UNCLASSIFIABLE, maxstab.cli.EXIT_VERIFICATION) \
        == (3, 4)


def overview_names():
    """The backticked names of README's library overview table: each
    module and each name in its row."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = text.split("## Library overview", 1)[1]
    rows = [line for line in section.splitlines()
            if line.startswith("| `maxstab.")]
    assert len(rows) == len(MODULES)
    return [name.removeprefix("maxstab.")
            for row in rows for name in re.findall(r"`([^`]+)`", row)]


@pytest.mark.parametrize("name", overview_names())
def test_overview_names_resolve(name):
    assert hasattr(maxstab, name)
