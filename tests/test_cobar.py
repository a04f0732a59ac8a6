"""Cobar and localized cobar constructions."""

import gc
import importlib
import random
import weakref

import pytest

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
    loc_group_count,
    loc_product,
    reduce_group_word,
    word_degree,
)
from chaintop.freemod import FreeElement, add_into
from chaintop.linalg import eliminate
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    collapse_subcomplex,
    projective_plane_model,
    random_reduced_model,
    sphere_model,
    standard_simplex,
    two_vertex_projective_plane,
    wedge_models,
)
from chaintop.smith import smith_homology

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


def collapsed_simplex(n, k):
    simplex = standard_simplex(n)
    skeleton = [cell for m in range(k + 1) for cell in simplex.nondegenerate(m)]
    return collapse_subcomplex(simplex, skeleton).target


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
                assert algebra._word_boundary(word) == expected, word
                cycles += all(letter_terms[cell].is_zero() for cell in word)
        # every window has words of cycle letters and words without
        assert 0 < cycles < sum(map(algebra.complex.rank, algebra.complex.degrees()))


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
    summed = []
    real = cobar_module.word_degree

    def counted(space, word):
        summed.append(word)
        return real(space, word)

    monkeypatch.setattr(cobar_module, "word_degree", counted)
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
                # the fallback sums the degree of each unstored factor word
                stray = [w for w in (*left.support(), *right.support()) if w in strays]
                assert sorted(summed) == sorted(stray), name


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
    t = FreeElement.single(ZZ, ((("s", 1),),), ZZ.one)
    tinv = FreeElement.single(ZZ, ((("s", -1),),), ZZ.one)
    assert e.product(t, tinv) == e.unit()


def test_extended_boundary_frozen_on_projective_plane():
    e = extended_cobar(projective_plane_model(), 1, 4)
    d_u = e.complex.diff(((), "U", ()))
    assert d_u == el(ZZ, (((),), 1), (((("b", 1), ("a", 1)),), -1))
    d_l = e.complex.diff(((), "L", ()))
    assert d_l == el(ZZ, (((("a", 1),),), 1), (((("b", 1),),), -1))


def test_extended_boundary_merges_group_segments():
    e = extended_cobar(projective_plane_model(), 1, 6)
    # conjugating the letter conjugates its boundary
    g = (("a", 1),)
    ginv = (("a", -1),)
    value = e.complex.diff((g, "U", ginv))
    expect = {}
    for word, c in e.complex.diff(((), "U", ())).items():
        key = (reduce_group_word(g + word[0] + ginv),)
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


def test_extended_window_is_tiered():
    e = extended_cobar(projective_plane_model(), 2, 6)
    assert e.growth == 2
    for n in e.complex.degrees():
        for w in e.complex.basis_in(n):
            assert loc_degree(e.space, w) == n
            assert loc_group_count(w) <= 6 - 2 * n


def test_extended_derivation_law():
    rp2 = projective_plane_model()
    e = extended_cobar(rp2, 2, 8)
    rng = random.Random(11)
    words = [w for n in (0, 1) for w in e.complex.basis_in(n)]
    small = [w for w in words if loc_group_count(w) <= 2]
    checked = 0
    while checked < 60:
        u, v = rng.choice(small), rng.choice(small)
        w = loc_product(u, v)
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
                words, leveled = cobar_module._h0_rows(space, cutoff, ring)
                assert len(words) == size, where
                assert as_set(row for _, row in leveled) == as_set(rows), where
                below = as_set(row for level, row in leveled if level <= cutoff - 1)
                assert below == as_set(prev_rows), where


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
        refs = [weakref.ref(algebra), weakref.ref(algebra.complex)]
        del algebra
        assert [ref() for ref in refs] == [None, None]
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
