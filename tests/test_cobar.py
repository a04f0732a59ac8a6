"""Cobar and localized cobar constructions."""

import gc
import importlib
import itertools
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from chaintop.cobar import (
    CobarComplex,
    cobar,
    extended_cobar,
    fundamental_relators,
    group_words,
    h0_group_ring,
    invert_group_word,
    letter_boundary,
    letter_degree,
    loc_degree,
    reduce_group_word,
)
from chaintop.complexes import ChainComplex, GradedLinearMap
from chaintop.freemod import FreeElement
from chaintop.linalg import eliminate
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    back_face,
    collapse_free_pairs,
    collapse_subcomplex,
    front_face,
    projective_plane_model,
    random_reduced_model,
    sphere_model,
    standard_simplex,
    two_vertex_projective_plane,
    wedge_models,
)
from chaintop.smith import homology_table, smith_homology

from h0_rows_oracle import h0_rows, h0_within, junction_rows
from ring_oracle import add_into
from shared_models import collapsed_simplex
from words_oracle import word_degree

# the package re-exports a function named cobar, which shadows the module
cobar_module = importlib.import_module("chaintop.cobar")


def el(ring, *terms):
    out = {}
    for key, c in terms:
        out[key] = ring.from_int(c)
    return FreeElement(ring, out)


def single(word):
    return FreeElement.single(ZZ, word, ZZ.one)


# --- plain construction ---

def test_rejects_spaces_with_extra_vertices():
    with pytest.raises(ValueError):
        cobar(two_vertex_projective_plane(), 2, ZZ, max_length=2)


def test_length_cutoff_required_exactly_when_one_cells_exist():
    rp2 = projective_plane_model()
    with pytest.raises(ValueError):
        cobar(rp2, 2)
    assert cobar(sphere_model(2), 4).complex.rank(4) == 1


def test_letter_boundary_frozen_values():
    rp2 = projective_plane_model()
    assert letter_boundary(rp2, "U", ZZ) == el(
        ZZ, (("a",), -1), (("b",), -1), (("b", "a"), -1)
    )
    assert letter_boundary(rp2, "L", ZZ) == el(ZZ, (("a",), 1), (("b",), -1))
    assert letter_boundary(sphere_model(2), "s", ZZ).is_zero()
    assert letter_boundary(sphere_model(1), "s", ZZ).is_zero()


def letter_boundary_by_faces(space, cell):
    """letter_boundary's formula with every split face built on its own."""
    n = space.dim_of(cell)
    ref = space.ref(cell)
    terms = {}
    if n >= 2:
        for i in range(n + 1):
            face = space.face_of_ref(ref, i)
            if not face.is_degenerate:
                add_into(terms, ZZ, (face.base,), -1 if i % 2 == 0 else 1)
    for i in range(1, n):
        front = front_face(space, ref, i)
        back = back_face(space, ref, n - i)
        if not front.is_degenerate and not back.is_degenerate:
            add_into(terms, ZZ, (front.base, back.base), -1 if i % 2 else 1)
    return FreeElement(ZZ, terms)


def test_letter_boundary_agrees_with_splits_built_one_by_one():
    spaces = [projective_plane_model(), sphere_model(4)]
    spaces += [collapsed_simplex(5, 2), collapsed_simplex(4, 1), collapsed_simplex(6, 1)]
    spaces += [random_reduced_model(random.Random(seed), max_dim=5) for seed in range(12)]
    splits = 0
    for space in spaces:
        for n in space.dimensions():
            for cell in space.nondegenerate(n) if n else ():
                expected = letter_boundary_by_faces(space, cell)
                assert letter_boundary(space, cell, ZZ) == expected
                splits += any(len(word) == 2 for word in expected.terms)
    assert splits > 20


def test_basis_respects_degree_and_length():
    rp2 = projective_plane_model()
    c = cobar(rp2, 2, ZZ, max_length=3)
    for n in c.complex.degrees():
        for w in c.complex.basis_in(n):
            assert word_degree(rp2, w) == n
            assert len(w) <= 3


def test_word_boundary_is_a_derivation():
    rp2 = projective_plane_model()
    c = cobar(rp2, 3, ZZ, max_length=3)
    words = [w for n in c.complex.degrees() for w in c.complex.basis_in(n)]
    small = [w for w in words if len(w) <= 2 and word_degree(rp2, w) <= 2]
    checked = 0
    for u in small:
        for v in small:
            w = u + v
            if len(w) > 3 or word_degree(rp2, w) > 3:
                continue
            checked += 1
            lhs = c.complex.diff_element(c.product(single(u), single(v)))
            sign = -1 if word_degree(rp2, u) % 2 else 1
            rhs = c.product(c.complex.diff(u), single(v)) + c.product(
                single(u), c.complex.diff(v)
            ).scale(sign)
            assert lhs == rhs, (u, v)
    assert checked > 100


def letter_by_letter_boundary(algebra, word, letter_terms):
    """d of a word as a sum over its letters with Koszul signs, each
    term kept when the window stores its length."""
    space, ring = algebra.space, algebra.ring
    terms = {}
    sign = 1
    for j, cell in enumerate(word):
        if cell not in letter_terms:
            letter_terms[cell] = letter_boundary(space, cell, ring)
        for piece, c in letter_terms[cell].items():
            new = word[:j] + piece + word[j + 1 :]
            cap = algebra.budget(word_degree(space, new))
            if cap is None or len(new) <= cap:
                add_into(terms, ring, new, ring.mul(ring.from_int(sign), c))
        if letter_degree(space, cell) % 2:
            sign = -sign
    return FreeElement(ring, terms)


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=str)
def test_word_boundary_matches_letter_by_letter_oracle(ring):
    windows = [
        cobar(collapsed_simplex(5, 2), 5, ring),
        cobar(collapsed_simplex(4, 1), 3, ring),
        cobar(projective_plane_model(), 3, ring, max_length=3),
    ]
    for algebra in windows:
        letter_terms = {}
        cycles = 0
        for n in algebra.complex.degrees():
            for word in algebra.complex.basis_in(n):
                expected = letter_by_letter_boundary(algebra, word, letter_terms)
                assert algebra.complex.diff(word) == expected, word
                cycles += all(letter_terms[cell].is_zero() for cell in word)
        # every window has words of cycle letters and words without
        assert 0 < cycles < sum(map(algebra.complex.rank, algebra.complex.degrees()))


def zero_path_models():
    """(name, space, max_degree, max_length): wedges of spheres and the
    benchmark's collapsed simplices, whose letters are all cycles, seeded
    random models, and a wedge with exactly one letter that moves."""
    s2, s3 = sphere_model(2), sphere_model(3)
    models = [
        ("S2", s2, 6, None),
        ("S2vS2vS3", wedge_models(wedge_models(s2, s2), s3), 5, None),
        ("d5c2", collapse_free_pairs(collapsed_simplex(5, 2)).source, 4, None),
        ("d4c1", collapse_free_pairs(collapsed_simplex(4, 1)).source, 3, None),
        # the 3-cell of the tetrahedron over its 1-skeleton moves
        ("d3c1vS2", wedge_models(collapsed_simplex(3, 1), s2), 4, None),
    ]
    for seed in range(6):
        space = random_reduced_model(random.Random(seed))
        models.append((f"random{seed}", space, 3, 2 if space.nondegenerate(1) else None))
    return models


@pytest.mark.parametrize("ring", [ZZ, GF(2), QQ], ids=str)
def test_a_cobar_of_cycles_is_the_zero_complex_of_its_per_word_rule(ring):
    # each window again as a complex on the same basis that reads the
    # per-word rule of the same cobar: its columns and homology must agree
    kinds = set()
    for name, space, top, length in zero_path_models():
        algebra = cobar(space, top, ring, length)
        words = algebra.complex
        oracle = ChainComplex(ring, words.basis, algebra._word_boundary)
        oracle.max_degree = words.max_degree
        cycles = all(not terms for terms, _ in algebra._letters.values())
        assert (words._diff_rule is None) == cycles, name
        kinds.add(cycles)
        for n in range(words.max_degree + 2):
            assert words.diff_columns(n) == oracle.diff_columns(n), (name, n)
        degrees = range(top + 1)
        assert homology_table(words, degrees) == homology_table(oracle, degrees), name
    assert kinds == {True, False}


def test_a_table_with_one_moving_letter_reads_the_rule(monkeypatch):
    calls = Counter()
    real = CobarComplex._word_boundary

    def counted(self, word):
        calls[word] += 1
        return real(self, word)

    monkeypatch.setattr(CobarComplex, "_word_boundary", counted)
    algebra = cobar(wedge_models(collapsed_simplex(3, 1), sphere_model(2)), 4)
    moving = [letter for letter, (terms, _) in algebra._letters.items() if terms]
    assert len(moving) == 1
    words = algebra.complex
    keys = [w for n in words.degrees() for w in words.basis_in(n)]
    columns = [words.diff_columns(n) for n in words.degrees()]
    assert set(calls) == set(keys) and set(calls.values()) == {1}
    # the moving letter gives nonzero columns, its cycle neighbours none
    assert words.diff_columns(2)[words.basis_in(2).index(tuple(moving))]
    assert any(col == {} for cols in columns for col in cols)


def test_product_is_associative_and_unital():
    rp2 = projective_plane_model()
    c = cobar(rp2, 2, ZZ, max_length=4)
    words = [w for n in c.complex.degrees() for w in c.complex.basis_in(n)]
    rng = random.Random(5)
    one = c.unit()
    for _ in range(60):
        u, v, w = (single(rng.choice(words)) for _ in range(3))
        assert c.product(c.product(u, v), w) == c.product(u, c.product(v, w))
        assert c.product(one, u) == u == c.product(u, one)


def oracle_product(algebra, left, right):
    """The product with every degree summed letter by letter."""
    space, ring = algebra.space, algebra.ring
    terms = {}
    for u, cu in left.items():
        for v, cv in right.items():
            degree = word_degree(space, u) + word_degree(space, v)
            cap = algebra.budget(degree)
            if degree <= algebra.max_degree and (cap is None or len(u + v) <= cap):
                add_into(terms, ring, u + v, ring.mul(cu, cv))
    return FreeElement(ring, terms)


def product_windows(ring):
    rp2 = projective_plane_model()
    yield "fixed rp2", cobar(rp2, 3, ring, max_length=2)
    # the cube model's sliding budget: one more letter per degree down
    yield "sliding rp2", CobarComplex(rp2, 3, ring, lambda degree: 2 + (3 - degree))
    wedge = wedge_models(sphere_model(2), sphere_model(3))
    yield "uncapped s2vs3", CobarComplex(wedge, 4, ring)


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ])
def test_product_reads_stored_degrees_and_matches_the_letter_sum(ring, monkeypatch):
    # the library's only degree rule; the product must not call it
    summed = []
    real = cobar_module.letter_degree

    def counted(space, cell):
        summed.append(cell)
        return real(space, cell)

    monkeypatch.setattr(cobar_module, "letter_degree", counted)
    rng = random.Random(11)
    for name, algebra in product_windows(ring):
        words = [w for n in algebra.complex.degrees() for w in algebra.complex.basis_in(n)]
        letters = sorted({x for w in words for x in w})
        # words the window does not store: too long, or of too high a degree
        strays = {tuple(rng.choice(letters) for _ in range(rng.randint(3, 6))) for _ in range(40)}
        strays -= set(words)
        assert strays, name

        def element(pool):
            picked = {rng.choice(pool): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
            return FreeElement(ring, {w: ring.coerce(c) for w, c in picked.items()})

        for _ in range(40):
            left, right = element(words), element(words)
            summed.clear()
            assert algebra.product(left, right) == oracle_product(algebra, left, right), name
            # every factor word is stored, so no degree is summed
            assert summed == [], name
        for pools in ((words, list(strays)), (list(strays), words), (list(strays), list(strays))):
            for _ in range(20):
                left, right = element(pools[0]), element(pools[1])
                summed.clear()
                assert algebra.product(left, right) == oracle_product(algebra, left, right), name
                # the window's lookup decides unstored factors too
                assert summed == [], name


def test_d_squared_on_standard_models():
    assert cobar(sphere_model(2), 5).complex.d_squared_witness() is None
    assert cobar(sphere_model(3), 5).complex.d_squared_witness() is None
    rp2 = cobar(projective_plane_model(), 5, ZZ, max_length=5)
    assert rp2.complex.d_squared_witness() is None


def test_loop_space_homology_of_s2():
    c = cobar(sphere_model(2), 6)
    for n in range(6):
        assert smith_homology(c.complex, n) == (1, []), n


def test_loop_space_homology_of_s3():
    c = cobar(sphere_model(3), 6)
    for n in range(6):
        expected = 1 if n % 2 == 0 and n <= 4 else 0
        h = smith_homology(c.complex, n)
        assert h.free_rank == expected and not h.invariant_factors, n


def test_circle_cobar_is_truncated_polynomial_algebra():
    c = cobar(sphere_model(1), 0, ZZ, max_length=4)
    assert c.complex.degrees() == [0]
    assert c.complex.rank(0) == 5
    for w in c.complex.basis_in(0):
        assert w == ("s",) * len(w)
        assert c.complex.diff(w).is_zero()
    t = single(("s",))
    assert c.product(t, c.product(t, t)) == single(("s",) * 3)


# --- group words ---

def test_group_word_reduction():
    assert reduce_group_word(((("a"), 1), ("a", -1))) == ()
    assert reduce_group_word((("a", 1), ("b", 1), ("b", -1), ("a", 1))) == (
        ("a", 1),
        ("a", 1),
    )
    w = (("a", 1), ("b", -1), ("a", 1))
    assert reduce_group_word(w + invert_group_word(w)) == ()
    with pytest.raises(ValueError):
        reduce_group_word((("a", 2),))


def test_group_word_enumeration_counts():
    # one generator: powers t^j, |j| <= n
    assert sum(1 for _ in group_words(("t",), 3)) == 7
    # two generators: 1 + 4 + 12 + 36
    assert sum(1 for _ in group_words(("a", "b"), 3)) == 53
    for w in group_words(("a", "b"), 4):
        assert reduce_group_word(w) == w


# --- localized construction ---

def test_extended_requires_cutoff():
    with pytest.raises(ValueError):
        extended_cobar(projective_plane_model(), 2)


def test_extended_circle_is_laurent_truncation():
    for c in (1, 2, 3):
        e = extended_cobar(sphere_model(1), 0, c)
        assert e.complex.degrees() == [0]
        assert e.complex.rank(0) == 2 * c + 1
        for w in e.complex.basis_in(0):
            assert e.complex.diff(w).is_zero()
    # t * t^-1 = 1
    e = extended_cobar(sphere_model(1), 0, 2)
    t = FreeElement.single(ZZ, (("s", 1),), ZZ.one)
    tinv = FreeElement.single(ZZ, (("s", -1),), ZZ.one)
    assert e.product(t, tinv) == e.unit() == FreeElement.single(ZZ, (), ZZ.one)


def test_extended_boundary_frozen_on_projective_plane():
    e = extended_cobar(projective_plane_model(), 1, 4)
    d_u = e.complex.diff((("U", 1),))
    assert d_u == el(ZZ, ((), 1), ((("b", 1), ("a", 1)), -1))
    d_l = e.complex.diff((("L", 1),))
    assert d_l == el(ZZ, ((("a", 1),), 1), ((("b", 1),), -1))


def test_extended_boundary_merges_group_segments():
    e = extended_cobar(projective_plane_model(), 1, 6)
    # conjugating the letter conjugates its boundary
    g = (("a", 1),)
    ginv = (("a", -1),)
    value = e.complex.diff(g + (("U", 1),) + ginv)
    expect = {}
    for word, c in e.complex.diff((("U", 1),)).items():
        key = reduce_group_word(g + word + ginv)
        expect[key] = expect.get(key, ZZ.zero) + c
    assert value == FreeElement(ZZ, expect)


def test_extended_d_squared():
    assert extended_cobar(projective_plane_model(), 2, 6).complex.d_squared_witness() is None
    e = extended_cobar(sphere_model(2), 5, 3)
    assert e.complex.d_squared_witness() is None
    # without 1-cells the localized and plain complexes coincide
    c = cobar(sphere_model(2), 5)
    assert [e.complex.rank(n) for n in range(6)] == [
        c.complex.rank(n) for n in range(6)
    ]


def group_count(space, word):
    """The group letters (edges) of a localized word."""
    return sum(1 for cell, _ in word if space.dim_of(cell) == 1)


def test_extended_window_is_tiered():
    e = extended_cobar(projective_plane_model(), 2, 6)
    assert e.growth == 2
    for n in e.complex.degrees():
        for w in e.complex.basis_in(n):
            assert loc_degree(e.space, w) == n
            assert group_count(e.space, w) <= 6 - 2 * n
            assert e.in_window(w)
    # one group letter past the degree-1 budget of 4, and degree 3
    assert not e.in_window((("U", 1),) + (("a", 1),) * 5)
    assert not e.in_window((("L", 1),) * 3)


def oracle_in_window(algebra, word):
    """The letter-count rule: after free reduction, degree <= max_degree
    and at most cutoff - growth * degree group letters."""
    space = algebra.space
    word = reduce_group_word(word)
    degree = loc_degree(space, word)
    budget = algebra.cutoff - algebra.growth * degree
    return degree <= algebra.max_degree and group_count(space, word) <= budget


def oracle_loc_product(algebra, left, right):
    ring = algebra.ring
    terms = {}
    for u, cu in left.items():
        for v, cv in right.items():
            w = reduce_group_word(u + v)
            if oracle_in_window(algebra, w):
                add_into(terms, ring, w, ring.mul(cu, cv))
    return FreeElement(ring, terms)


def localized_windows():
    yield extended_cobar(projective_plane_model(), 2, 6)
    yield extended_cobar(wedge_models(sphere_model(1), sphere_model(2)), 2, 3)
    for seed in (0, 5, 6):
        yield extended_cobar(random_reduced_model(random.Random(seed)), 2, 4)


def test_extended_product_and_in_window_match_the_letter_count_rule():
    rng = random.Random(23)
    for algebra in localized_windows():
        name = algebra.complex.name
        words = [w for n in algebra.complex.degrees() for w in algebra.complex.basis_in(n)]
        alphabet = [(e, exp) for e in algebra.group_letters for exp in (1, -1)]
        alphabet += [(x, 1) for x in algebra.heavy_letters]
        # reduced words the window may not store: past the group budget,
        # or of too high a degree
        strays = set()
        for _ in range(60):
            strays.add(reduce_group_word(
                rng.choice(alphabet) for _ in range(rng.randint(2, algebra.cutoff + 4))
            ))
        # a run past the cutoff whose product with an inverse run falls
        # back inside the window, as (a,1)^3 (a,-1)^2 does at cutoff 2
        edge = algebra.group_letters[0]
        long_run = ((edge, 1),) * (algebra.cutoff + 1)
        back = ((edge, -1),) * 2
        strays |= {long_run, back}
        assert not algebra.in_window(long_run), name
        assert algebra.in_window(reduce_group_word(long_run + back)), name
        outside = {w for w in strays if not oracle_in_window(algebra, w)}
        assert outside and strays - outside, name
        for w in words:
            assert algebra.in_window(w) and oracle_in_window(algebra, w), (name, w)
        for w in strays:
            assert algebra.in_window(w) == oracle_in_window(algebra, w), (name, w)

        def element(pool):
            picked = {rng.choice(pool): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
            return FreeElement(ZZ, picked)

        one, stray = single(long_run), single(back)
        assert algebra.product(one, stray) == oracle_loc_product(algebra, one, stray), name
        assert not algebra.product(one, stray).is_zero(), name
        pools = (words, sorted(strays))
        for left_pool, right_pool in itertools.product(pools, pools):
            for _ in range(20):
                left, right = element(left_pool), element(right_pool)
                want = oracle_loc_product(algebra, left, right)
                assert algebra.product(left, right) == want, name


def test_extended_derivation_law():
    rp2 = projective_plane_model()
    e = extended_cobar(rp2, 2, 8)
    rng = random.Random(11)
    words = [w for n in (0, 1) for w in e.complex.basis_in(n)]
    small = [w for w in words if group_count(rp2, w) <= 2]
    checked = 0
    while checked < 60:
        u, v = rng.choice(small), rng.choice(small)
        w = reduce_group_word(u + v)
        if not e.in_window(w):
            continue
        checked += 1
        lhs = e.complex.diff_element(e.product(single(u), single(v)))
        sign = -1 if loc_degree(rp2, u) % 2 else 1
        rhs = e.product(e.complex.diff(u), single(v)) + e.product(
            single(u), e.complex.diff(v)
        ).scale(sign)
        assert lhs == rhs, (u, v)


def test_embedding_commutes_with_boundary_and_product():
    rp2 = projective_plane_model()
    c = cobar(rp2, 2, ZZ, max_length=4)
    e = extended_cobar(rp2, 2, 7)
    # below the length cutoff nothing is quotiented away, so the
    # rewriting of 1-letters into group letters is a chain map
    for n in c.complex.degrees():
        for w in c.complex.basis_in(n):
            if len(w) >= 4 or n == 0:
                continue
            lhs = FreeElement.zero(ZZ)
            for u, coeff in c.complex.diff(w).items():
                lhs = lhs + e.embed_word(u).scale(coeff)
            assert lhs == e.complex.diff_element(e.embed_word(w)), w
    for u, v in ((("a",), ("b", "U")), (("U",), ("L",)), (("a", "a"), ("b",))):
        lhs = e.product(e.embed_word(u), e.embed_word(v))
        assert lhs == e.embed_word(u + v), (u, v)


def test_embedding_is_injective_on_degree_zero():
    rp2 = projective_plane_model()
    c = cobar(rp2, 0, QQ, max_length=3)
    e = extended_cobar(rp2, 0, 3, QQ)
    cols = c.complex.basis_in(0)
    rows = {w: i for i, w in enumerate(e.complex.basis_in(0))}
    mat = [[QQ.zero] * len(cols) for _ in rows]
    for j, w in enumerate(cols):
        for loc, coeff in e.embed_word(w).items():
            mat[rows[loc]][j] = coeff
    from chaintop.smith import field_rank

    assert field_rank(mat, QQ) == len(cols)


def test_collapsed_simplex_large_window_over_f2():
    # Delta^4 / 1-skeleton is a wedge of six 2-spheres, so H_n(Omega) = F2^(6^n);
    # d_4 here is 1101 x 11545, too large for dense elimination
    simplex = standard_simplex(4)
    skeleton = [cell for m in range(2) for cell in simplex.nondegenerate(m)]
    quotient = collapse_subcomplex(simplex, skeleton).target
    algebra = CobarComplex(quotient, 4, GF(2))
    assert algebra.complex.rank(4) == 11545
    assert [smith_homology(algebra.complex, n).pair for n in range(4)] == [
        (1, []),
        (6, []),
        (36, []),
        (216, []),
    ]


def test_embedding_rejects_windows_that_are_too_tight():
    e = extended_cobar(projective_plane_model(), 1, 2)
    with pytest.raises(ValueError):
        e.embed_word(("a", "a", "a"))


# --- degree-0 homology reports ---

def test_fundamental_relators_frozen():
    assert fundamental_relators(projective_plane_model()) == (
        (("b", 1), ("a", 1)),
        (("b", 1), ("a", -1)),
    )
    assert fundamental_relators(sphere_model(2)) == ()


def test_h0_projective_plane_has_rank_two():
    for cutoff in (3, 4):
        report = h0_group_ring(projective_plane_model(), cutoff)
        assert report.rank == 2
        assert not report.inconclusive
        assert report.basis_size == sum(
            1 for _ in group_words(("a", "b"), cutoff)
        )


def test_h0_circle_is_free_on_one_generator():
    report = h0_group_ring(sphere_model(1), 3)
    assert report.generators == ("s",)
    assert report.relators == ()
    assert report.rank == 7
    assert report.inconclusive  # the Laurent window keeps growing


def test_h0_simply_connected():
    report = h0_group_ring(sphere_model(2), 2)
    assert report.rank == 1
    assert not report.inconclusive


def test_h0_input_validation():
    with pytest.raises(ValueError):
        h0_group_ring(projective_plane_model(), 3, ZZ)
    with pytest.raises(ValueError):
        h0_group_ring(projective_plane_model(), 0)
    report = h0_group_ring(projective_plane_model(), 2, GF(5))
    assert report.rank == 2


def oracle_h0_within(space, cutoff, ring):
    """One window as the two-pass H_0 built it: (size, rank, rows).

    Every (relator, g, h) row is summed with ring arithmetic and kept
    when all its reduced terms lie within the cutoff, duplicates included.
    """
    words = list(group_words(space.nondegenerate(1), cutoff))
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for value in cobar_module._relator_values(space, ring):
        for g in group_words(space.nondegenerate(1), cutoff):
            for h in group_words(space.nondegenerate(1), cutoff - len(g)):
                row = {}
                ok = True
                for w, c in value.items():
                    full = reduce_group_word(g + w + h)
                    if len(full) > cutoff:
                        ok = False
                        break
                    add_into(row, ring, index[full], c)
                if ok and row:
                    rows.append(row)
    return len(words), len(eliminate(rows, ring)), rows


def h0_models():
    s1, s2 = sphere_model(1), sphere_model(2)
    models = [projective_plane_model(), s1, s2, wedge_models(s1, s2)]
    # seeds whose models have edges and 2-cells; 4, 6 and 8 stay inconclusive
    return models + [random_reduced_model(random.Random(s)) for s in (0, 4, 6, 8)]


def as_set(rows):
    return {frozenset(row.items()) for row in rows}


def test_one_pass_h0_matches_the_two_pass_oracle():
    for k, space in enumerate(h0_models()):
        for ring in (QQ, GF(2), GF(5)):
            for cutoff in (1, 2, 3, 4):
                size, rank, rows = oracle_h0_within(space, cutoff, ring)
                prev_size, prev_rank, prev_rows = oracle_h0_within(space, cutoff - 1, ring)
                where = (k, space.name, ring, cutoff)
                assert cobar_module._h0_within(space, cutoff, ring) == (
                    (size, rank),
                    (prev_size, prev_rank),
                ), where
                words, leveled = junction_rows(space, cutoff, ring)
                assert len(words) == size, where
                assert as_set(row for _, row in leveled) == as_set(rows), where
                below = as_set(row for level, row in leveled if level <= cutoff - 1)
                assert below == as_set(prev_rows), where


def edge_levels(pairs) -> dict:
    """{unordered pair of word indices: lowest level}."""
    lowest = {}
    for level, i, j in pairs:
        key = frozenset((i, j))
        lowest[key] = min(level, lowest.get(key, level))
    return lowest


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3)], ids=str)
def test_h0_rows_match_the_triple_by_triple_oracle(ring):
    # each distinct oracle row is a difference of two words: as unordered
    # pairs with their lowest level, the rows are the edges _h0_within joins
    rng = random.Random(3)
    spaces = [projective_plane_model()] + [random_reduced_model(rng) for _ in range(6)]
    assert sum(bool(space.nondegenerate(1)) for space in spaces) >= 4
    for space in spaces:
        for cutoff in (1, 2, 3, 4):
            words, rows = h0_rows(space, cutoff, ring)
            where = (space.name, cutoff)
            assert all(len(row) == 2 for _, row in rows), where
            want = edge_levels((level, *row) for level, row in rows)
            edges = cobar_module._h0_edges(space, words, cutoff)
            assert edge_levels(edges) == want, where
            # the junction builder kept beside it returns the same rows, in order
            ordered = [(level, list(row.items())) for level, row in rows]
            got_words, got_rows = junction_rows(space, cutoff, ring)
            assert got_words == words, where
            assert [(level, list(row.items())) for level, row in got_rows] == ordered, where


def assert_relator_values_are_edges(space):
    # d of each 2-cell letter is (+1 term) - (-1 term), and the -1 term
    # times the inverse of the +1 term is the cell's fundamental relator
    relators = []
    for value in cobar_module._relator_values(space, ZZ):
        if value:
            assert sorted(value.values()) == [-1, 1], (space.name, value)
            plus, minus = sorted(value, key=value.get, reverse=True)
            relators.append(reduce_group_word(minus + invert_group_word(plus)))
    assert tuple(relators) == fundamental_relators(space), space.name


def test_relator_values_are_edges_on_the_h0_models():
    for space in h0_models():
        assert_relator_values_are_edges(space)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    max_dim=st.integers(2, 4),
    ring=st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    cutoff=st.integers(1, 4),
)
def test_union_find_h0_matches_elimination_on_drawn_models(seed, max_dim, ring, cutoff):
    space = random_reduced_model(random.Random(seed), max_dim=max_dim)
    assert_relator_values_are_edges(space)
    assert cobar_module._h0_within(space, cutoff, ring) == h0_within(space, cutoff, ring)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda u, v: {u: 1, v: 1},
        lambda u, v: {u: 2, v: -2},
        lambda u, v: {u: 1, v: -1, (("a", 1),) * 3: 1},
    ],
    ids=["same-sign", "not-unit", "three-terms"],
)
def test_a_relator_value_that_is_not_an_edge_raises(monkeypatch, mutate):
    real = cobar_module._relator_values

    def mutant(space, ring):
        values = real(space, ring)
        u, v = values[0]
        return [mutate(u, v)] + values[1:]

    monkeypatch.setattr(cobar_module, "_relator_values", mutant)
    rp2 = projective_plane_model()
    with pytest.raises(ValueError, match="2-cell 'U'"):
        h0_group_ring(rp2, 3)


def test_h0_group_ring_eliminates_nothing(monkeypatch):
    from chaintop import linalg, smith

    calls = []
    for module in (linalg, smith):
        real = module.eliminate
        monkeypatch.setattr(
            module, "eliminate", lambda *args, real=real: calls.append(args) or real(*args)
        )
    for cutoff in (2, 3):
        report = h0_group_ring(projective_plane_model(), cutoff, QQ)
        assert report.rank == 2 and not report.inconclusive
    assert calls == []


def test_h0_group_ring_builds_the_relator_values_once(monkeypatch):
    calls = []
    real = cobar_module._relator_values

    def counted(space, ring):
        calls.append(ring)
        return real(space, ring)

    monkeypatch.setattr(cobar_module, "_relator_values", counted)
    report = h0_group_ring(projective_plane_model(), 3, QQ)
    assert report.rank == 2 and not report.inconclusive
    assert len(calls) == 1


def test_h0_report_serializes():
    data = h0_group_ring(projective_plane_model(), 2).as_dict()
    assert data["rank"] == 2
    assert data["relators"] == [[["b", 1], ["a", 1]], [["b", 1], ["a", -1]]]


# --- randomized models ---

def test_fuzz_d_squared_and_derivation():
    rng = random.Random(20260814)
    for case in range(5):
        space = random_reduced_model(rng)
        has_edges = bool(space.nondegenerate(1))
        c = cobar(space, 4, ZZ, max_length=4 if has_edges else None)
        e = extended_cobar(space, 4, 4)
        assert c.complex.d_squared_witness() is None, space.name
        assert e.complex.d_squared_witness() is None, space.name
        words = [w for n in c.complex.degrees() for w in c.complex.basis_in(n)]
        pairs = 0
        for u in words:
            for v in words:
                w = u + v
                cap = c.budget(word_degree(space, w))
                if (cap is not None and len(w) > cap) or word_degree(space, w) > 4:
                    continue
                pairs += 1
                if pairs > 40:
                    break
                lhs = c.complex.diff_element(c.product(single(u), single(v)))
                sign = -1 if word_degree(space, u) % 2 else 1
                rhs = c.product(c.complex.diff(u), single(v)) + c.product(
                    single(u), c.complex.diff(v)
                ).scale(sign)
                assert lhs == rhs, (space.name, u, v)
            if pairs > 40:
                break
        assert pairs > 0


def test_dropped_cobar_complexes_are_freed_without_a_garbage_collection():
    gc.disable()
    try:
        algebra = cobar(projective_plane_model(), 3, ZZ, max_length=2)
        assert algebra.complex.d_squared_witness() is None
        # d itself, as a map of shift -1, holds its complex and its columns
        d = GradedLinearMap(algebra.complex, algebra.complex, -1, algebra.complex.diff)
        assert d.is_chain_map() == (True, None)
        refs = [weakref.ref(algebra), weakref.ref(algebra.complex), weakref.ref(d)]
        # and so is its window, which keeps its cap-rule index
        refs.append(weakref.ref(algebra.complex.window))
        del algebra, d
        assert [ref() for ref in refs] == [None, None, None, None]
        algebra = extended_cobar(projective_plane_model(), 2, 6)
        assert algebra.complex.d_squared_witness() is None
        refs = [weakref.ref(algebra), weakref.ref(algebra.complex)]
        del algebra
        assert [ref() for ref in refs] == [None, None]
        # the complex alone still works after its algebra is gone
        chains = cobar(sphere_model(2), 4).complex
        assert chains.d_squared_witness() is None and chains.rank(4) == 1
    finally:
        gc.enable()
