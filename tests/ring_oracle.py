"""Ring-arithmetic accumulation, kept as an oracle for the tests.

The library builds chains by adding plain numbers and canonicalizing
once (FreeElement._from_sums). Expected values in the tests are built
the other way, one ring call per term, so the two are independent.
"""


def add_into(terms: dict, ring, key, coeff) -> None:
    """Accumulate coeff onto terms[key], dropping the entry if it cancels."""
    c = ring.add(terms.get(key, ring.zero), coeff)
    if ring.is_zero(c):
        terms.pop(key, None)
    else:
        terms[key] = c


def evaluate_cochain(alpha: dict, chain, ring):
    """The pairing of a cochain {key: value} with a chain, the sum of
    alpha(key) * c over its terms; keys alpha omits count as 0."""
    total = ring.zero
    for key, c in chain.items():
        a = alpha.get(key)
        if a is not None:
            total = ring.add(total, ring.mul(a, c))
    return total
