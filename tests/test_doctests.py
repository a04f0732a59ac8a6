import doctest
import importlib

import chaintop.freemod
import chaintop.linalg
import chaintop.rings
import chaintop.smith
import chaintop.words

# the package re-exports a function named cobar, which shadows the module
cobar_module = importlib.import_module("chaintop.cobar")


def test_doctests():
    for module in (
        chaintop.rings,
        chaintop.freemod,
        chaintop.linalg,
        chaintop.smith,
        chaintop.words,
        cobar_module,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
