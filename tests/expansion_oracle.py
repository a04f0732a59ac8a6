"""The edge expansion as one loop over the letters, kept as an oracle.

The library builds phi of a long cell by extending the value kept for
its prefix by one expansion step (`loopspace._phi_sums`). Expected
values in the tests come from this whole-word loop, the body
`cobar.edge_expansion` had before it was split into steps.
"""

from chaintop.freemod import FreeElement


def edge_expansion(space, word, ring, odd_sign, edge_sign) -> FreeElement:
    """The product of the letters, each edge t as t + edge_sign, times
    odd_sign per letter of odd degree."""
    sums = {(): 1}
    for cell in word:
        dim = space.dim_of(cell)
        sign = odd_sign if dim % 2 == 0 else 1
        grown = {}
        for sub, c in sums.items():
            longer = sub + (cell,)
            grown[longer] = grown.get(longer, 0) + c * sign
            if dim == 1:
                grown[sub] = grown.get(sub, 0) + c * edge_sign
        sums = grown
    return FreeElement._from_sums(ring, sums)
