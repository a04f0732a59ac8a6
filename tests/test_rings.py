from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chaintop.rings import GF, QQ, ZZ, Ring, is_prime, parse_ring


def test_kinds_and_validation():
    assert ZZ.name == "Z" and not ZZ.is_field
    assert QQ.name == "Q" and QQ.is_field
    assert GF(7).name == "F7" and GF(7).is_field
    with pytest.raises(ValueError):
        Ring("R")
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        Ring("Z", p=3)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_coerce_and_arithmetic():
    assert ZZ.coerce(-4) == -4
    assert ZZ.coerce(Fraction(6, 3)) == 2
    with pytest.raises(TypeError):
        ZZ.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        ZZ.coerce(1.0)
    with pytest.raises(TypeError):
        ZZ.coerce(True)
    assert QQ.coerce(3) == Fraction(3)
    f5 = GF(5)
    assert f5.coerce(12) == 2
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2
    with pytest.raises(ValueError):
        f5.inv(0)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert ZZ.inv(-1) == -1
    with pytest.raises(ValueError):
        ZZ.inv(2)


def test_exactness_no_floats():
    # a computation that would drift under floats stays exact
    x = QQ.one
    for k in range(1, 30):
        x = QQ.mul(x, Fraction(1, k))
    for k in range(1, 30):
        x = QQ.mul(x, Fraction(k))
    assert x == 1


def test_immutability_and_hash():
    r = GF(3)
    with pytest.raises(AttributeError):
        r.p = 5
    assert len({ZZ, QQ, GF(3), GF(3), Ring("Z")}) == 3


def test_parse_ring():
    assert parse_ring("z") == ZZ
    assert parse_ring("Q") == QQ
    assert parse_ring("fp:2") == GF(2)
    for bad in ("r", "fp:4", "fp:x", ""):
        with pytest.raises(ValueError):
            parse_ring(bad)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ring=st.sampled_from([ZZ, GF(2), GF(3), QQ]))
def test_canonical_column_is_canonical_sums_rekeyed(data, ring):
    numbers = st.integers(-7, 7)
    if ring == QQ:
        numbers = numbers | st.fractions(-4, 4, max_denominator=5)
    # sums that are 0 in the ring, on keys the index does not hold
    zeros = st.integers(-2, 2).map(lambda k: k * ring.characteristic)
    if ring == QQ:
        zeros = zeros | st.just(Fraction(0))
    stored = data.draw(st.dictionaries(st.text("abc", max_size=3), numbers, max_size=8))
    missing = data.draw(st.dictionaries(st.text("xyz", min_size=1, max_size=2), zeros, max_size=3))
    sums = dict(data.draw(st.permutations(list(stored.items()) + list(missing.items()))))
    keys = data.draw(st.permutations(sorted(stored)))
    index = {key: 2 * i + 1 for i, key in enumerate(keys)}

    column = ring.canonical_column(sums, index)
    want = {index[k]: c for k, c in ring.canonical_sums(sums).items()}
    # Fraction(1) == 1, so compare the type of every entry, and the order
    assert [(i, type(c), c) for i, c in column.items()] == [
        (i, type(c), c) for i, c in want.items()
    ]
    nonzero = [k for k in stored if ring.canonical_sums({k: stored[k]})]
    if nonzero:
        del index[nonzero[0]]
        with pytest.raises(KeyError):
            ring.canonical_column(sums, index)
