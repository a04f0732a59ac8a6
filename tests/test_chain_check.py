"""The column form of GradedLinearMap.is_chain_map against a key-by-key oracle.

The oracle is the earlier body of is_chain_map: one basis key at a time,
both sides built as FreeElements. On correct maps, on maps with one sign
flipped and on maps with one term dropped, both must agree on ok and on
the witness. The columns of a map, which is_chain_map reads, are checked
against apply_key, on values and on errors.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chaintop.cobar import ExtendedCobarComplex, cobar
from chaintop.complexes import ChainComplex, GradedLinearMap, tensor_complex
from chaintop.freemod import FreeElement
from chaintop.linalg import residual_columns
from chaintop.loopspace import (
    cartan_serre,
    cubical_cobar,
    extended_cubical_cobar,
    phi_cell,
    phi_signed_cell,
)
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    normalized_chains,
    projective_plane_model,
    random_reduced_model,
    sphere_model,
    wedge_models,
)

RINGS = (ZZ, GF(2), GF(3), QQ)


def oracle_is_chain_map(f, degrees=None):
    sign = -1 if f.shift % 2 else 1
    if degrees is None:
        degrees = [n for n in f.source.degrees() if n > f.source.min_degree]
    for n in sorted(degrees):
        for key in f.source.basis_in(n):
            lhs = f.apply(f.source.diff(key))
            rhs = f.target.diff_element(f.apply_key(key)).scale(sign)
            if lhs != rhs:
                return False, (key, lhs, rhs)
    return True, None


# --- maps to check: (source, target, shift, rule) ---

def phi_map(space, max_degree, max_length, ring=ZZ):
    omega = cubical_cobar(space, max_degree, max_length, ring)
    cap = None if max_length is None else omega.budget(0)
    words = cobar(space, max_degree, ring, cap).complex
    return omega.chains(), words, 0, lambda cell: phi_cell(space, cell, ring)


def signed_phi_map(space, max_degree, cutoff, ring=ZZ):
    chains = extended_cubical_cobar(space, max_degree, cutoff, ring).chains()
    words = ExtendedCobarComplex(space, max_degree, cutoff, ring).complex
    return chains, words, 0, lambda cell: phi_signed_cell(space, cell, ring)


def cartan_serre_map(space, max_degree, ring=ZZ):
    cs = cartan_serre(space, max_degree, ring)
    return cs.source, cs.target, 0, cs._rule


def suspension_map(space, max_degree, ring):
    """x -> (-1)^|x| x ox s into C ox S, S one cycle s of degree 1: shift 1."""
    chains = normalized_chains(space, max_degree, ring)
    line = ChainComplex(ring, {1: ["s"]}, lambda key: None)
    target = tensor_complex(chains, line)

    def rule(key):
        sign = -1 if chains.degree_of(key) % 2 else 1
        return FreeElement.single(ring, (key, "s"), ring.from_int(sign))

    return chains, target, 1, rule


def s2s2s3():
    return wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))


def maps():
    rp2 = projective_plane_model()
    yield "phi rp2 4 2", phi_map(rp2, 4, 2)
    yield "phi rp2 2 3", phi_map(rp2, 2, 3)
    yield "phi s2s2s3 6", phi_map(s2s2s3(), 6, None)
    yield "phi rp2 3 2 over F3", phi_map(rp2, 3, 2, GF(3))
    yield "phi rp2 3 2 over Q", phi_map(rp2, 3, 2, QQ)
    for seed in (0, 3, 5, 8):
        yield f"phi random {seed}", phi_map(random_reduced_model(random.Random(seed)), 3, 3)
    yield "signed phi rp2 2 6", signed_phi_map(rp2, 2, 6)
    yield "cartan-serre s2 3", cartan_serre_map(sphere_model(2), 3)
    yield "cartan-serre rp2 2", cartan_serre_map(rp2, 2)
    for ring in RINGS:
        yield f"suspension rp2 over {ring}", suspension_map(rp2, 3, ring)


def mutated_key(source, target, rule):
    """(key, seen): a key with a nonzero image, mid-degree first.

    seen is True when the image has a nonzero boundary, so that a
    flipped sign (outside characteristic 2) or a dropped term with a
    nonzero boundary must fail at that key; with zero differentials
    every map is a chain map and nothing can fail.
    """
    degrees = [n for n in source.degrees() if n > source.min_degree]
    middle = degrees[len(degrees) // 2]
    fallback = None
    for n in sorted(degrees, key=lambda n: abs(n - middle)):
        for key in source.basis_in(n):
            image = rule(key)
            if image is None or image.is_zero():
                continue
            if not target.diff_element(image).is_zero():
                return key, True
            fallback = fallback or key
    assert fallback is not None
    return fallback, False


def flipped(rule, bad, ring):
    return lambda key: rule(key).scale(ring.neg(ring.one)) if key == bad else rule(key)


def dropped(rule, bad, target):
    """rule with one term of the image of bad dropped, a detectable one if any."""

    def new_rule(key):
        value = rule(key)
        if key != bad:
            return value
        terms = dict(value.items())
        cycles = [k for k in terms if target.diff(k).is_zero()]
        del terms[max(set(terms) - set(cycles) or cycles, key=repr)]
        return FreeElement(value.ring, terms)

    return new_rule


def plain_sums(rule, ring):
    """rule with each image given as a dict of plain-number sums.

    Each coefficient is off by the characteristic, so that over F_p the
    map must reduce it, and a key outside the target rides along with
    sum 0, so that it must be dropped before its lookup.
    """

    def sums_rule(key):
        value = rule(key)
        if value is None:
            return None
        sums = {k: c + ring.characteristic for k, c in value.items()}
        sums[("stray", "sum 0")] = 0
        return sums

    return sums_rule


def agree(source, target, shift, rule, degrees=None):
    new = GradedLinearMap(source, target, shift, rule).is_chain_map(degrees)
    old = oracle_is_chain_map(GradedLinearMap(source, target, shift, rule), degrees)
    assert new[0] == old[0]
    assert new[1] == old[1]
    return new


def test_column_check_agrees_with_oracle_on_correct_maps():
    for name, (source, target, shift, rule) in maps():
        ok, witness = agree(source, target, shift, rule)
        assert ok and witness is None, name
        # the same images as plain sums, and the zero map of a None rule
        assert agree(source, target, shift, plain_sums(rule, source.ring)) == (True, None)
        assert agree(source, target, shift, None) == (True, None)
        # every degree, the bottom one included, and one degree alone
        # (which then builds the columns one degree down on its own)
        agree(source, target, shift, rule, source.degrees())
        agree(source, target, shift, rule, [source.degrees()[-1]])


def test_column_check_agrees_with_oracle_on_a_flipped_sign():
    for name, (source, target, shift, rule) in maps():
        ring = source.ring
        bad, seen = mutated_key(source, target, rule)
        ok, witness = agree(source, target, shift, flipped(rule, bad, ring))
        if seen and ring.characteristic != 2:
            assert not ok and witness[0] == bad, name
        agree(source, target, shift, flipped(rule, bad, ring), [source.degree_of(bad) + 1])


def test_column_check_agrees_with_oracle_on_a_dropped_term():
    for name, (source, target, shift, rule) in maps():
        bad, seen = mutated_key(source, target, rule)
        ok, witness = agree(source, target, shift, dropped(rule, bad, target))
        if seen:
            assert not ok and witness[0] == bad, name
        agree(source, target, shift, dropped(rule, bad, target), [source.degree_of(bad) + 1])


# --- the columns of a map against apply_key ---

def test_columns_match_apply_key_at_target_positions():
    for name, (source, target, shift, rule) in maps():
        f = GradedLinearMap(source, target, shift, rule)
        oracle = GradedLinearMap(source, target, shift, rule)
        sums = GradedLinearMap(source, target, shift, plain_sums(rule, source.ring))
        zero = GradedLinearMap(source, target, shift, None)
        for n in source.degrees():
            columns = f.columns(n)
            row_keys = target.basis_in(n + shift)
            keys = source.basis_in(n)
            assert len(columns) == len(keys), name
            for key, col in zip(keys, columns):
                image = FreeElement(source.ring, {row_keys[i]: c for i, c in col.items()})
                assert image == oracle.apply_key(key), (name, key)
                # apply_key reads the same image off the rule
                assert f.apply_key(key) == image, (name, key)
                assert sums.apply_key(key) == image, (name, key)
                assert zero.apply_key(key).is_zero(), (name, key)
            assert f.columns(n) is columns, name
            assert sums.columns(n) == columns, name
            # each map's zero columns are one shared dict
            for built in (columns, sums.columns(n)):
                empty = [col for col in built if not col]
                assert all(col is empty[0] for col in empty), name
            zeros = zero.columns(n)
            assert zeros == [{}] * len(keys), name
            assert all(col is zeros[0] for col in zeros), name


def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # the exception itself is the result
        return type(exc), str(exc)
    return None


def test_columns_raise_the_error_of_apply_key():
    for name, (source, target, shift, rule) in maps():
        bad, _ = mutated_key(source, target, rule)
        n = source.degree_of(bad)
        other = next(m for m in target.degrees() if m != n + shift)
        strays = [("stray", "not a target key"), target.basis_in(other)[0]]
        for stray in strays:
            def broken(key, stray=stray):
                value = rule(key)
                if key != bad:
                    return value
                terms = dict(value.items())
                terms[stray] = source.ring.one
                return FreeElement(source.ring, terms)

            expected = raised(GradedLinearMap(source, target, shift, broken).apply_key, bad)
            # one ValueError naming the key, the degree hit and the one expected
            assert expected is not None and expected[0] is ValueError, (name, stray)
            assert expected[1] == (
                f"map of {bad!r} (degree {n}) hit {stray!r} "
                f"(degree {target._degree_of.get(stray)}), expected degree {n + shift}"
            ), (name, stray)
            f = GradedLinearMap(source, target, shift, broken)
            assert raised(f.columns, n) == expected, (name, stray)
            f = GradedLinearMap(source, target, shift, broken)
            assert raised(f.is_chain_map) == expected, (name, stray)


# --- the residual of sparse column products against dense products ---

def scalars(ring):
    if ring == QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(-3, 3)


def dense(draw, ring, rows, cols):
    return [[draw(scalars(ring)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def residual_cases(draw):
    """(ring, a, b, second, sign): second is None or the pair (c, d)."""
    ring = draw(st.sampled_from(RINGS))
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = dense(draw, ring, rows, inner), dense(draw, ring, inner, cols)
    second = None
    if draw(st.booleans()):
        middle = draw(st.integers(0, 4))
        second = dense(draw, ring, rows, middle), dense(draw, ring, middle, cols)
    return ring, a, b, second, draw(st.sampled_from((1, -1)))


def sparse_columns(mat, width, ring):
    return [
        {i: x for i, row in enumerate(mat) if (x := ring.coerce(row[j]))}
        for j in range(width)
    ]


def dense_product(a, b, width):
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(width)]
        for row in a
    ]


@settings(max_examples=300, deadline=None)
@given(residual_cases())
def test_residual_columns_match_dense_products(case):
    ring, a, b, second, sign = case
    cols = len(b[0]) if b else 0
    # exact products of the entries as given; sparse_columns reduces them
    expected = dense_product(a, b, cols)
    args = (sparse_columns(a, len(b), ring), sparse_columns(b, cols, ring), ring)
    if second is not None:
        c, d = second
        other = dense_product(c, d, cols)
        expected = [
            [x - sign * y for x, y in zip(row, other_row)]
            for row, other_row in zip(expected, other)
        ]
        args += (sparse_columns(c, len(d), ring), sparse_columns(d, cols, ring), sign)
    residual = list(residual_columns(*args))
    assert residual == sparse_columns(expected, cols, ring)
    for col in residual:
        for x in col.values():
            assert type(x) is (Fraction if ring == QQ else int)


def mod_three_map(ring):
    """v -> 2w, e -> x with d e = 2v and d x = w: f d e - d f e = 3w."""
    source = ChainComplex(
        ring, {0: ["v"], 1: ["e"]}, {"e": FreeElement(ring, {"v": 2})}.get
    )
    target = ChainComplex(
        ring, {0: ["w"], 1: ["x"]}, {"x": FreeElement(ring, {"w": 1})}.get
    )
    images = {"v": FreeElement(ring, {"w": 2}), "e": FreeElement(ring, {"x": 1})}
    return source, target, 0, images.get


def test_sides_that_agree_only_mod_p_pass_exactly_over_that_field():
    # over F_3 the columns hold 2, 2 and 1, so the residual 4 - 1 is a
    # nonzero plain number that vanishes only once reduced mod 3
    ok, witness = agree(*mod_three_map(GF(3)))
    assert ok and witness is None
    for ring in (ZZ, QQ, GF(2)):
        ok, witness = agree(*mod_three_map(ring))
        assert not ok and witness[0] == "e", ring


# --- the constructor that canonicalizes plain-number sums ---

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.data())
def test_sums_constructor_matches_the_checked_one(ring, data):
    sums = data.draw(
        st.dictionaries(
            st.sampled_from("abcdef"),
            st.lists(scalars(ring) | st.integers(-9, 9), max_size=4).map(sum),
            max_size=6,
        )
    )
    fast = FreeElement._from_sums(ring, sums)
    slow = FreeElement(ring, sums)
    assert fast == slow
    assert [type(c) for _, c in sorted(fast.items())] == [
        type(c) for _, c in sorted(slow.items())
    ]
