"""The Leibniz boundary on tensor words of basis keys, a test helper.

The tests hold the E-infinity, Hopf and prop operations to the chain-map
rule d(f x) = f(d x), where the left side is a sum of tensor words of
one complex's basis keys; this is the d of that tensor power.
"""

from chaintop.freemod import FreeElement


def tensor_diff(complex_, element: FreeElement) -> FreeElement:
    """Leibniz boundary on tensor words of basis keys, with Koszul signs."""
    sums = {}
    for key, coeff in element.items():
        for j, x in enumerate(key):
            for face, c2 in complex_.diff(x).items():
                new_key = key[:j] + (face,) + key[j + 1 :]
                sums[new_key] = sums.get(new_key, 0) + coeff * c2
            if complex_.degree_of(x) % 2:
                coeff = -coeff
    return FreeElement._from_sums(complex_.ring, sums)
