from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chaintop.complexes import ChainComplex
from chaintop.freemod import (
    FreeElement,
    cyclic_rotation_sign,
    koszul_sign,
    permute_word,
    tensor_elements,
)
from chaintop.rings import GF, QQ, ZZ

from ring_oracle import add_into
from tensor_boundary import tensor_diff

KEYS = ("a", "b", "c", "d")


def elements(ring=ZZ):
    coeffs = st.integers(min_value=-4, max_value=4)
    return st.dictionaries(st.sampled_from(KEYS), coeffs, max_size=4).map(
        lambda d: FreeElement(ring, d)
    )


def brute_force_koszul(perm, degrees):
    # independent oracle: sort by adjacent transpositions, tracking the sign
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(len(perm) - 1 - i):
            if perm[j] > perm[j + 1]:
                if degrees[perm[j]] % 2 and degrees[perm[j + 1]] % 2:
                    sign = -sign
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return sign


def test_zero_never_stored():
    x = FreeElement(ZZ, {"a": 1, "b": 0})
    assert x.support() == ["a"]
    assert (x - x).terms == {}
    assert FreeElement(GF(3), {"a": 3}).is_zero()


def test_basic_algebra():
    x = FreeElement(ZZ, {"a": 2, "b": -1})
    y = FreeElement.single(ZZ, "b")
    assert (x + y).coeff("b") == 0
    assert (x + y).support() == ["a"]
    assert (-x).coeff("a") == -2
    assert x.scale(0).is_zero()
    assert (3 * y).coeff("b") == 3
    with pytest.raises(ValueError):
        x + FreeElement.single(QQ, "a")


@given(elements(), elements(), elements())
def test_module_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + FreeElement.zero(ZZ) == x
    assert (x - x).is_zero()
    assert x.scale(2) + x.scale(3) == x.scale(5)
    assert (x + y).scale(-2) == x.scale(-2) + y.scale(-2)


def test_map_keys_and_terms():
    x = FreeElement(ZZ, {"a": 1, "b": 2})
    assert x.map_keys(lambda k: None if k == "b" else k.upper()) == FreeElement(ZZ, {"A": 1})
    doubled = x.map_terms(lambda k: FreeElement(ZZ, {k: 1, "extra": 1}))
    assert doubled.coeff("extra") == 3
    # cancellation through a non-injective key map
    y = FreeElement(ZZ, {"a": 1, "b": -1})
    assert y.map_keys(lambda k: "same").is_zero()


def test_koszul_sign_frozen_cases():
    # two odd symbols swapping costs -1
    assert koszul_sign([1, 0], [1, 1]) == -1
    # odd past even is free
    assert koszul_sign([1, 0], [1, 0]) == 1
    assert koszul_sign([1, 0], [0, 1]) == 1
    # frozen: deinterleave (a1, a2, b1, b2) -> (a1, b1, a2, b2), all degree 1,
    # moves b1 past a2 only: sign -1
    assert koszul_sign([0, 2, 1, 3], [1, 1, 1, 1]) == -1
    with pytest.raises(ValueError):
        koszul_sign([0, 0], [1, 1])


@given(
    st.permutations(range(5)),
    st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
)
def test_koszul_sign_matches_transposition_oracle(perm, degrees):
    assert koszul_sign(list(perm), degrees) == brute_force_koszul(perm, degrees)


@given(
    st.permutations(range(4)),
    st.permutations(range(4)),
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
)
def test_koszul_sign_multiplicative(p1, p2, degrees):
    # composite permutation sign = product of step signs
    word = tuple(range(4))
    w1, s1 = permute_word(word, p1, degrees)
    mid_degrees = [degrees[i] for i in p1]
    w2, s2 = permute_word(w1, p2, mid_degrees)
    composite = [p1[i] for i in p2]
    w3, s3 = permute_word(word, composite, degrees)
    assert w2 == w3 and s1 * s2 == s3


def test_cyclic_rotation_sign():
    assert cyclic_rotation_sign([1, 1]) == -1
    assert cyclic_rotation_sign([0, 1]) == 1
    assert cyclic_rotation_sign([1, 1, 1]) == 1
    assert cyclic_rotation_sign([1]) == 1


def test_tensor_elements():
    x = FreeElement(ZZ, {"a": 2})
    y = FreeElement(ZZ, {"u": 1, "v": -1})
    t = tensor_elements(x, y)
    assert t == FreeElement(ZZ, {("a", "u"): 2, ("a", "v"): -2})
    assert tensor_elements(FreeElement.zero(ZZ), y).is_zero()
    with pytest.raises(ValueError):
        tensor_elements(x, FreeElement.single(QQ, "u", Fraction(1)))


def test_tensor_elements_rejects_mixed_degree():
    deg = {"a": 0, "b": 1}.get
    x = FreeElement(ZZ, {"a": 1, "b": 1})
    y = FreeElement.single(ZZ, "a")
    with pytest.raises(ValueError):
        tensor_elements(x, y, degree_fn=deg)
    assert tensor_elements(y, y, degree_fn=deg).coeff(("a", "a")) == 1


@given(elements(), elements(), elements())
def test_tensor_bilinear(x, y, z):
    assert tensor_elements(x + y, z) == tensor_elements(x, z) + tensor_elements(y, z)
    assert tensor_elements(z, x + y) == tensor_elements(z, x) + tensor_elements(z, y)


# --- the plain-sum builders against one ring call per term ---
#
# Each builder adds plain numbers and canonicalizes once; the oracle makes
# one ring call per term (add_into). Keys repeat, and coefficients such
# as 1 + 2 cancel over F_3 only.

RINGS = (ZZ, GF(2), GF(3), QQ)


def raw_scalars(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(-4, 4)


def raw_pairs(ring, keys=KEYS):
    return st.lists(st.tuples(st.sampled_from(keys), raw_scalars(ring)), max_size=8)


def oracle_terms(ring, pairs):
    terms = {}
    for key, coeff in pairs:
        add_into(terms, ring, key, ring.coerce(coeff))
    return terms


def assert_same_terms(ring, element, expected):
    assert element.ring == ring
    assert element.terms == expected
    kind = {"Z": int, "Fp": int, "Q": Fraction}[ring.kind]
    for c in element.terms.values():
        assert type(c) is kind and c != 0
        if ring.p:
            assert 0 <= c < ring.p


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_pair_form_constructor_matches_ring_arithmetic(ring, data):
    pairs = data.draw(raw_pairs(ring))
    assert_same_terms(ring, FreeElement(ring, pairs), oracle_terms(ring, pairs))
    as_dict = dict(pairs)
    assert_same_terms(ring, FreeElement(ring, as_dict), oracle_terms(ring, as_dict.items()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_sum_and_key_maps_match_ring_arithmetic(ring, data):
    x = FreeElement(ring, data.draw(raw_pairs(ring)))
    y = FreeElement(ring, data.draw(raw_pairs(ring)))

    expected = dict(x.terms)
    for key, c in y.items():
        add_into(expected, ring, key, c)
    assert_same_terms(ring, x + y, expected)

    # a key map that merges and drops keys
    targets = st.sampled_from(("p", "q", None))
    image = data.draw(st.fixed_dictionaries({k: targets for k in KEYS}))
    expected = {}
    for key, c in x.items():
        if image[key] is not None:
            add_into(expected, ring, image[key], c)
    assert_same_terms(ring, x.map_keys(image.get), expected)

    # a key -> element map whose images overlap
    images = {k: FreeElement(ring, data.draw(raw_pairs(ring, "pqr"))) for k in KEYS}
    images["d"] = None
    expected = {}
    for key, c in x.items():
        if images[key] is not None:
            for k2, c2 in images[key].items():
                add_into(expected, ring, k2, ring.mul(c, c2))
    assert_same_terms(ring, x.map_terms(images.get), expected)

    expected = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            add_into(expected, ring, (ka, kb), ring.mul(ca, cb))
    assert_same_terms(ring, tensor_elements(x, y), expected)


def small_complex(ring):
    """d e = w - v, d f = 2v - 2w, d t = 2e + f: sums of 2s that vanish mod 2."""
    diffs = {
        "e": {"w": 1, "v": -1},
        "f": {"v": 2, "w": -2},
        "t": {"e": 2, "f": 1},
    }
    return ChainComplex(
        ring,
        {0: ["v", "w"], 1: ["e", "f"], 2: ["t"]},
        lambda key: FreeElement(ring, diffs.get(key, {})),
        complete=True,
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_tensor_diff_matches_ring_arithmetic(ring, data):
    cx = small_complex(ring)
    words = [(a, b) for a in "vweft" for b in "vweft"]
    element = FreeElement(ring, data.draw(raw_pairs(ring, words)))
    expected = {}
    for key, c in element.items():
        sign = ring.one
        for j, x in enumerate(key):
            for face, c2 in cx.diff(x).items():
                new_key = key[:j] + (face,) + key[j + 1 :]
                add_into(expected, ring, new_key, ring.mul(ring.mul(c, sign), c2))
            if cx.degree_of(x) % 2:
                sign = ring.neg(sign)
    assert_same_terms(ring, tensor_diff(cx, element), expected)


def test_checked_constructor_rejects_bools_and_fractions_over_z():
    with pytest.raises(TypeError):
        FreeElement(ZZ, {"a": True})
    with pytest.raises(TypeError):
        FreeElement(ZZ, {"a": Fraction(1, 2)})
