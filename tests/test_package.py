"""Tests for the package surface: one export list, built from the
modules' own."""

import ast
import re
from pathlib import Path

import pytest

import maxstab

MODULES = (maxstab.analysis, maxstab.conditional, maxstab.continuous,
           maxstab.distributions, maxstab.law, maxstab.maxar,
           maxstab.serialize, maxstab.spectral)


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


def cap_literals(tree) -> list[int]:
    """Lines of the number 10**7 written as a literal (10_000_000, 1e7) or
    as a power of two literals (10**7)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and isinstance(node.left, ast.Constant) \
                and isinstance(node.right, ast.Constant):
            value = node.left.value ** node.right.value
        elif isinstance(node, ast.Constant):
            value = node.value
        else:
            continue
        if type(value) in (int, float) and value == 10**7:
            lines.append(node.lineno)
    return lines


def test_parsers_name_fields_without_catching_type_errors():
    """Every field is converted by the constructor that checks it, which
    names the field; serialize and cli keep no layer that catches a
    TypeError afterwards to find out which field held no number."""
    package = Path(maxstab.__file__).parent
    for module in ("serialize.py", "cli.py"):
        tree = ast.parse((package / module).read_text("utf-8"))
        caught = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler)
                  and node.type is not None
                  and any(isinstance(name, ast.Name) and name.id == "TypeError"
                          for name in ast.walk(node.type))]
        assert not caught, (module, caught)


def test_the_size_cap_has_one_home():
    """Every size limit reads distributions._MAX_COUNT: no other module
    writes the number itself."""
    package = Path(maxstab.__file__).parent
    found = {path.name: cap_literals(ast.parse(path.read_text("utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert len(found.pop("distributions.py")) == 1
    assert not any(found.values()), found


def numpy_submodules_used(tree) -> list[str]:
    """numpy.polynomial and numpy.linalg as imported, in any form, or read
    as an attribute of numpy (np.linalg.solve), with their lines."""
    lean = {"numpy.polynomial", "numpy.linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            names = [f"numpy.{node.attr}"]
        else:
            continue
        found += [f"{name}:{node.lineno}" for name in names
                  if any(name == m or name.startswith(m + ".") for m in lean)]
    return found


def test_no_module_uses_numpy_polynomial_or_linalg():
    """The package needs numpy's core only: the battery's Gauss-Legendre
    rule is its own, so no process loads numpy.polynomial or runs a
    LAPACK routine."""
    package = Path(maxstab.__file__).parent
    found = {path.name: numpy_submodules_used(
        ast.parse(path.read_text("utf-8")))
        for path in sorted(package.glob("*.py"))}
    assert not any(found.values()), found
    assert numpy_submodules_used(ast.parse(
        "import numpy.linalg\nfrom numpy.polynomial.legendre import leggauss\n"
        "from numpy import polynomial\nnp.linalg.eigvalsh(m)\n")) == [
        "numpy.linalg:1", "numpy.polynomial.legendre.leggauss:2",
        "numpy.polynomial:3", "numpy.linalg:4"]
