import doctest
import importlib
import pkgutil

import chaintop

# every module of the package, found rather than listed, so a module's
# doctests cannot be left out; imported by name, because the package
# re-exports a function named cobar, which shadows the module
MODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(chaintop.__path__, "chaintop.")
]


def test_doctests():
    assert MODULES
    for module in MODULES:
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
