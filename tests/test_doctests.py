"""Run the examples in every patlab module's docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import patlab

MODULES = ["patlab"] + [f"patlab.{m.name}" for m in pkgutil.iter_modules(patlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_examples_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert attempted >= 4
