import doctest

import chaintop.freemod
import chaintop.linalg
import chaintop.rings
import chaintop.smith
import chaintop.words


def test_doctests():
    for module in (
        chaintop.rings,
        chaintop.freemod,
        chaintop.linalg,
        chaintop.smith,
        chaintop.words,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
