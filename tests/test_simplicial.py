import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from chaintop.cobar import cobar
from chaintop.complexes import GradedLinearMap
from chaintop.freemod import FreeElement
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    SimplexBialgebra,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracy,
    aw_coproduct,
    char_pushforward,
    collapse_free_pairs,
    collapse_to_projective_plane,
    collapse_to_sphere,
    monotone_ref,
    normalized_chains,
    projective_plane_model,
    random_reduced_model,
    simplicial_from_json,
    simplicial_model,
    simplicial_to_json,
    sphere_model,
    standard_simplex,
    two_vertex_projective_plane,
    wedge_models,
)

from ring_oracle import add_into
from shared_models import bench_module, collapsed_simplex, relabeled_json
from chaintop.smith import homology_table, smith_homology


def join_el(bial, x, y):
    terms = {}
    for ka, ca in x.items():
        for kb, cb in y.items():
            for k, c in bial.join(ka, kb).items():
                add_into(terms, bial.ring, k, bial.ring.mul(bial.ring.mul(ca, cb), c))
    return FreeElement(bial.ring, terms)


def coproduct_el(bial, x):
    terms = {}
    for k, c in x.items():
        for pair, c2 in bial.coproduct(k).items():
            add_into(terms, bial.ring, pair, bial.ring.mul(c, c2))
    return FreeElement(bial.ring, terms)


# --- refs and normal forms ---

def test_ref_normal_form():
    with pytest.raises(ValueError):
        SimplexRef("x", (0, 1))
    r = apply_degeneracy(SimplexRef("x", (0,)), 0)
    assert r.word == (1, 0)  # s0 s0 = s1 s0
    r = apply_degeneracy(SimplexRef("x", (2, 0)), 1)
    assert r.word == (3, 1, 0)


def test_face_through_degeneracy():
    d = standard_simplex(1)
    e = (0, 1)
    s0e = apply_degeneracy(d.ref(e), 0)
    assert d.face_of_ref(s0e, 0) == d.ref(e)
    assert d.face_of_ref(s0e, 1) == d.ref(e)
    # d_2 s_0 = s_0 d_1
    assert d.face_of_ref(s0e, 2) == SimplexRef((0,), (0,))


def test_refs_enumeration():
    d = standard_simplex(1)
    assert len(d.refs(0)) == 2
    assert len(d.refs(1)) == 3
    assert len(d.refs(2)) == 4  # monotone sequences of length 3 in {0, 1}
    assert len(d.refs(3)) == 5


def test_validation_catches_bad_faces():
    refp = SimplexRef("p")
    bad = SimplicialSet(
        "bad",
        {0: ["p", "q"], 1: ["e", "f"], 2: ["t"]},
        {
            "e": (refp, SimplexRef("q")),
            "f": (SimplexRef("q"), refp),
            "t": (SimplexRef("e"), SimplexRef("f"), SimplexRef("e")),
        },
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_all_models_validate():
    for space in (
        standard_simplex(3),
        sphere_model(1),
        sphere_model(2),
        sphere_model(3),
        projective_plane_model(),
        two_vertex_projective_plane(),
        simplicial_model("point"),
    ):
        space.validate()
    assert simplicial_model("circle").name == "sphere1"
    with pytest.raises(ValueError):
        simplicial_model("klein")
    with pytest.raises(ValueError):
        simplicial_model("simplex")


def validate_as_before(space):
    """SimplicialSet.validate as it was: both sides of every pair through
    face_of_ref twice, so each first face is pushed through again."""
    for n in space.dimensions():
        if n < 2:
            continue
        for cid in space.nondegenerate(n):
            ref = space.ref(cid)
            for j in range(1, n + 1):
                for i in range(j):
                    left = space.face_of_ref(space.face_of_ref(ref, j), i)
                    right = space.face_of_ref(space.face_of_ref(ref, i), j - 1)
                    if left != right:
                        raise ValueError(
                            f"simplicial identity fails on {cid!r}: "
                            f"d_{i} d_{j} = {left!r} but d_{j-1} d_{i} = {right!r}"
                        )


def validation_models():
    """Builtins, standard simplices, the benchmark's models and random
    reduced models."""
    models = [simplicial_model(name) for name in ("point", "circle", "rp2")]
    models += [simplicial_model("sphere", n) for n in range(1, 5)]
    models += [simplicial_model("simplex", n) for n in range(2, 6)]
    models += [collapsed_simplex(5, 2), collapsed_simplex(4, 1)]
    models.append(
        wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
    )
    models += [random_reduced_model(random.Random(seed)) for seed in range(8)]
    return models


def check_outcome(check, space):
    try:
        check(space)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def broken_variants(space):
    """Copies of space with two faces of one cell swapped, or with one
    degeneracy word replaced by another of the same length; the new word
    may name a degeneracy that does not exist in its dimension."""
    rng = random.Random(space.name)
    faces = {
        cid: tuple(space.face(cid, i) for i in range(n + 1))
        for n in space.dimensions()
        if n > 0
        for cid in space.nondegenerate(n)
    }
    for cid, refs in faces.items():
        for i in range(len(refs) - 1):
            if refs[i] != refs[i + 1]:
                swapped = list(refs)
                swapped[i], swapped[i + 1] = refs[i + 1], refs[i]
                yield SimplicialSet(space.name, space.cells, {**faces, cid: swapped})
        for i, ref in enumerate(refs):
            if ref.word:
                top = space.ref_dim(ref)
                letters = rng.sample(range(top + 1), len(ref.word))
                word = tuple(sorted(letters, reverse=True))
                if word != ref.word:
                    altered = list(refs)
                    altered[i] = SimplexRef(ref.base, word)
                    yield SimplicialSet(space.name, space.cells, {**faces, cid: altered})


def test_validate_agrees_with_the_four_face_version():
    failed = 0
    for space in validation_models():
        assert check_outcome(SimplicialSet.validate, space) is None, space.name
        assert check_outcome(validate_as_before, space) is None, space.name
        for broken in broken_variants(space):
            expected = check_outcome(validate_as_before, broken)
            assert check_outcome(SimplicialSet.validate, broken) == expected
            failed += expected is not None
    assert failed > 100


def test_validate_reports_the_first_failing_pair():
    # with faces 0 and 1 of the 3-simplex swapped the pair (j, i) = (2, 0)
    # fails; face 3 names degeneracies a vertex does not have, so pushing a
    # face through it raises, but only the pairs after (2, 0) do that
    simplex = standard_simplex(3)
    faces = {
        cid: [simplex.face(cid, i) for i in range(n + 1)]
        for n in (1, 2, 3)
        for cid in simplex.nondegenerate(n)
    }
    top = faces[(0, 1, 2, 3)]
    top[0], top[1], top[3] = top[1], top[0], SimplexRef((0,), (5, 4))
    broken = SimplicialSet("broken", simplex.cells, faces)
    expected = check_outcome(validate_as_before, broken)
    assert expected == (
        ValueError,
        "simplicial identity fails on (0, 1, 2, 3): "
        "d_0 d_2 = <(1, 3)> but d_1 d_0 = <(0, 3)>",
    )
    assert check_outcome(SimplicialSet.validate, broken) == expected


@st.composite
def simplex_refs(draw):
    """A standard simplex and a valid ref in it: a strictly decreasing word
    of k letters on a d-cell may use the letters 0 .. d + k - 1."""
    space = standard_simplex(draw(st.integers(1, 4)))
    cells = [c for n in space.dimensions() for c in space.nondegenerate(n)]
    base = draw(st.sampled_from(cells))
    k = draw(st.integers(0, 4))
    letters = ()
    if k:
        letters = draw(st.sets(st.integers(0, len(base) + k - 2), min_size=k, max_size=k))
    return space, SimplexRef(base, sorted(letters, reverse=True))


@settings(max_examples=200, deadline=None)
@given(simplex_refs())
def test_face_and_degeneracy_rules_build_checked_refs(case):
    space, ref = case
    top = space.ref_dim(ref)
    built = [apply_degeneracy(ref, i) for i in range(top + 1)]
    if top > 0:
        built += [space.face_of_ref(ref, i) for i in range(top + 1)]
    for out in built:
        assert type(out.word) is tuple
        checked = SimplexRef(out.base, out.word)
        assert out == checked and hash(out) == hash(checked)


# --- chains ---

def test_chain_boundaries_frozen():
    d1 = normalized_chains(standard_simplex(1))
    assert d1.diff((0, 1)) == FreeElement(ZZ, {(1,): 1, (0,): -1})
    s2 = normalized_chains(sphere_model(2))
    assert s2.diff("s").is_zero()
    circle = normalized_chains(sphere_model(1))
    assert circle.diff("s").is_zero()
    rp2 = normalized_chains(projective_plane_model())
    assert rp2.diff("U") == FreeElement(ZZ, {"a": 1, "b": 1})
    assert rp2.diff("L") == FreeElement(ZZ, {"b": 1, "a": -1})


def test_d_squared_all_models():
    for space in (
        standard_simplex(4),
        sphere_model(3),
        projective_plane_model(),
        two_vertex_projective_plane(),
    ):
        assert normalized_chains(space).d_squared_witness() is None


def test_normalized_chains_reuse_the_space_index(monkeypatch):
    # the cells were indexed and checked when the space was built
    from chaintop import complexes

    spaces = [projective_plane_model(), sphere_model(3)]
    calls = []
    monkeypatch.setattr(complexes, "graded_ids", calls.append)
    for space in spaces:
        whole = normalized_chains(space)
        assert whole._degree_of is space._dim
        cut = normalized_chains(space, 1)
        assert cut.max_degree == 1
        assert cut._degree_of == {
            cell: n for n in range(2) for cell in space.nondegenerate(n)
        }
    assert calls == []


def test_model_homology():
    for n in range(1, 5):
        chains = normalized_chains(sphere_model(n))
        assert smith_homology(chains, 0).pair == (1, [])
        assert smith_homology(chains, n).pair == (1, [])
        for m in range(1, n):
            assert smith_homology(chains, m).pair == (0, [])
    rp2 = normalized_chains(projective_plane_model())
    assert [smith_homology(rp2, n).pair for n in range(3)] == [(1, []), (0, [2]), (0, [])]
    rp2_f2 = [smith_homology(rp2, n, GF(2)).pair for n in range(3)]
    assert rp2_f2 == [(1, []), (1, []), (1, [])]


# --- coproduct ---

def test_aw_frozen_example():
    d2 = standard_simplex(2)
    got = aw_coproduct(d2, (0, 1, 2))
    assert got == FreeElement(
        ZZ,
        {
            ((0,), (0, 1, 2)): 1,
            ((0, 1), (1, 2)): 1,
            ((0, 1, 2), (2,)): 1,
        },
    )


def test_aw_counit_axiom():
    for n in range(4):
        b = SimplexBialgebra(n)
        for key in b.complex._degree_of:
            left = FreeElement.zero(ZZ)
            right = FreeElement.zero(ZZ)
            for (ka, kb), c in b.coproduct(key).items():
                left += FreeElement(ZZ, {kb: ZZ.mul(c, b.counit(ka))})
                right += FreeElement(ZZ, {ka: ZZ.mul(c, b.counit(kb))})
            assert left == FreeElement.single(ZZ, key)
            assert right == FreeElement.single(ZZ, key)


def test_aw_coassociative():
    for n in range(4):
        b = SimplexBialgebra(n)
        for key in b.complex._degree_of:
            left = {}
            right = {}
            for (ka, kb), c in b.coproduct(key).items():
                for (k1, k2), c2 in b.coproduct(ka).items():
                    add_into(left, ZZ, (k1, k2, kb), ZZ.mul(c, c2))
                for (k1, k2), c2 in b.coproduct(kb).items():
                    add_into(right, ZZ, (ka, k1, k2), ZZ.mul(c, c2))
            assert left == right


def test_aw_is_chain_map_on_simplex():
    # Delta d = (d ox 1 + 1 ox d) Delta with Koszul sign on the second term
    for n in range(4):
        b = SimplexBialgebra(n)
        c = b.complex
        for key in c._degree_of:
            lhs = coproduct_el(b, c.diff(key))
            rhs = {}
            for (ka, kb), coeff in b.coproduct(key).items():
                for k2, c2 in c.diff(ka).items():
                    add_into(rhs, ZZ, (k2, kb), ZZ.mul(coeff, c2))
                sign = -1 if b.degree(ka) % 2 else 1
                for k2, c2 in c.diff(kb).items():
                    add_into(rhs, ZZ, (ka, k2), ZZ.mul(coeff, ZZ.mul(sign, c2)))
            assert lhs == FreeElement(ZZ, rhs)


def test_aw_natural_under_collapse():
    for quotient in (collapse_to_sphere(2), collapse_to_projective_plane()):
        quotient.validate()
        src, dst = quotient.source, quotient.target
        for n in src.dimensions():
            for cid in src.nondegenerate(n):
                image = quotient.apply_ref(src.ref(cid))
                direct = (
                    aw_coproduct(dst, image.base) if not image.is_degenerate else FreeElement.zero(ZZ)
                )
                pushed = {}
                for (ka, kb), c in aw_coproduct(src, cid).items():
                    fa = quotient.apply_ref(src.ref(ka))
                    fb = quotient.apply_ref(src.ref(kb))
                    if not fa.is_degenerate and not fb.is_degenerate:
                        add_into(pushed, ZZ, (fa.base, fb.base), c)
                assert FreeElement(ZZ, pushed) == direct


# --- join ---

def test_join_frozen_examples():
    b = SimplexBialgebra(2)
    assert b.join((0,), (1,)) == FreeElement.single(ZZ, (0, 1))
    assert b.join((1,), (0,)) == FreeElement.single(ZZ, (0, 1), -1)
    assert b.join((0, 2), (1,)) == FreeElement.single(ZZ, (0, 1, 2))
    assert b.join((1,), (1,)).is_zero()
    assert b.join((0, 1), (1, 2)).is_zero()


def test_join_degree_and_counit():
    b = SimplexBialgebra(3)
    keys = list(b.complex._degree_of)
    for ka, kb in itertools.product(keys, repeat=2):
        for k in b.join(ka, kb).support():
            assert b.degree(k) == b.degree(ka) + b.degree(kb) + 1
            assert b.counit(k) == 0


def join_boundary_defect(b, ka, kb, s1, s2):
    """d(a*b) + da*b + (-1)^|a| a*db - s1 eps(a) b - s2 eps(b) a."""
    ring = b.ring
    c = b.complex
    a_el = FreeElement.single(ring, ka)
    b_el = FreeElement.single(ring, kb)
    out = c.diff_element(join_el(b, a_el, b_el))
    out += join_el(b, c.diff(ka), b_el)
    sign = -1 if b.degree(ka) % 2 else 1
    out += join_el(b, a_el, c.diff(kb)).scale(sign)
    out -= b_el.scale(ring.mul(ring.from_int(s1), b.counit(ka)))
    out -= a_el.scale(ring.mul(ring.from_int(s2), b.counit(kb)))
    return out


def test_join_boundary_sign_oracle():
    # exhaustive over all basis pairs of simplex chains, n <= 3: exactly one
    # sign convention survives
    candidates = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    surviving = set(candidates)
    for n in range(4):
        b = SimplexBialgebra(n)
        keys = list(b.complex._degree_of)
        for s1, s2 in list(surviving):
            for ka, kb in itertools.product(keys, repeat=2):
                if not join_boundary_defect(b, ka, kb, s1, s2).is_zero():
                    surviving.discard((s1, s2))
                    break
    assert surviving == {(1, -1)}


def test_contraction_homotopy():
    # h(x) = v0 * x satisfies dh + hd = id - pi on simplex chains
    for n in range(4):
        b = SimplexBialgebra(n)
        c = b.complex
        for key in c._degree_of:
            x = FreeElement.single(ZZ, key)
            lhs = c.diff_element(b.contract(key)) + c.diff(key).map_terms(b.contract)
            rhs = x - b.project(key)
            assert lhs == rhs, key


# --- maps, characteristic pushforward ---

def test_collapse_chain_maps():
    for quotient, top in ((collapse_to_sphere(3), 3), (collapse_to_projective_plane(), 2)):
        quotient.validate()
        cm = quotient.chain_map()
        ok, witness = cm.is_chain_map()
        assert ok, witness
    rp2_map = collapse_to_projective_plane().chain_map()
    assert smith_homology(rp2_map.target, 1).pair == (0, [2])


def test_char_pushforward():
    rp2 = projective_plane_model()
    assert char_pushforward(rp2, "U", (0, 1)) == SimplexRef("b")
    assert char_pushforward(rp2, "U", (1, 2)) == SimplexRef("a")
    assert char_pushforward(rp2, "U", (0, 2)) == SimplexRef("p", (0,))
    assert char_pushforward(rp2, "U", (0, 1, 2)) == SimplexRef("U")
    assert char_pushforward(rp2, "U", (1,)) == SimplexRef("p")


def test_monotone_ref():
    rp2 = projective_plane_model()
    assert monotone_ref(rp2, "U", (0, 1)) == SimplexRef("b")
    assert monotone_ref(rp2, "U", (0, 0, 1)) == SimplexRef("b", (0,))
    assert monotone_ref(rp2, "U", (0, 1, 1)) == SimplexRef("b", (1,))
    with pytest.raises(ValueError):
        monotone_ref(rp2, "U", (1, 0))


# --- elementary collapses ---

def collapse_cases():
    """Models without 1-cells that have free pairs: seeded random ones,
    and the benchmark's wedges of spheres, renamed and reordered."""
    cases = []
    for seed in range(40):
        space = random_reduced_model(random.Random(seed), max_dim=5, max_cells_per_degree=10)
        if not space.nondegenerate(1):
            cases.append((f"random{seed}", space, 4))
    for n, k, top in ((5, 2, 5), (4, 1, 3)):
        for seed in range(3):
            space = simplicial_from_json(relabeled_json(collapsed_simplex(n, k), seed))
            cases.append((f"d{n}c{k}/{seed}", space, top))
    return cases


def test_collapse_keeps_the_loop_homology_and_includes_as_a_chain_map():
    cases = collapse_cases()
    assert len(cases) >= 12
    for name, space, top in cases:
        inclusion = collapse_free_pairs(space)
        inclusion.validate()
        small = inclusion.source
        assert inclusion.target is space and small.name == space.name
        assert sum(map(len, small.cells.values())) < sum(map(len, space.cells.values()))
        for ring in (ZZ, GF(2), QQ):
            big_words, small_words = cobar(space, top, ring), cobar(small, top, ring)
            expected = homology_table(big_words.complex, range(top))
            assert None not in expected.values(), name
            assert homology_table(small_words.complex, range(top)) == expected, (name, ring)
            # the inclusion sends each word to itself
            words = GradedLinearMap(
                small_words.complex,
                big_words.complex,
                0,
                lambda word: FreeElement.single(ring, word),
            )
            ok, witness = words.is_chain_map()
            assert ok, (name, ring, witness)


def test_collapse_reaches_the_fewest_cells_on_the_wedges_of_spheres():
    for n, k, cells in ((5, 2, {0: 1, 3: 10}), (4, 1, {0: 1, 2: 6})):
        for seed in range(4):
            space = simplicial_from_json(relabeled_json(collapsed_simplex(n, k), seed))
            small = collapse_free_pairs(space).source
            assert {m: len(ids) for m, ids in small.cells.items()} == cells


def test_collapse_builds_what_the_checked_constructor_builds():
    cases = [(name, space) for name, space, _ in collapse_cases()]
    cases += [(f"simplex{n}", standard_simplex(n)) for n in (3, 4, 5)]
    cases += [(f"d{n}c{k}", collapsed_simplex(n, k)) for n, k in ((5, 1), (5, 3), (6, 2))]
    for name, space in cases:
        small = collapse_free_pairs(space).source
        assert small is not space, name
        kept = set(small._dim)
        cells = {n: [cid for cid in ids if cid in kept] for n, ids in space.cells.items()}
        faces = {
            cid: tuple(space.face(cid, i) for i in range(n + 1))
            for n, ids in cells.items()
            if n
            for cid in ids
        }
        checked = SimplicialSet(space.name, cells, faces)
        assert (small.name, small.complete) == (checked.name, checked.complete), name
        assert small.cells == checked.cells, name
        assert list(small._dim.items()) == list(checked._dim.items()), name
        assert list(small._faces.items()) == list(checked._faces.items()), name
        small.validate()


def disk_model(extra=None, complete=True):
    """A 4-cell s whose face 0 is the 3-cell t, every other face of both
    collapsed to the point: a disk, with t the free face of s. extra maps
    cell ids, new or not, to their faces."""
    point = {m: SimplexRef("p", tuple(range(m - 1, -1, -1))) for m in (2, 3)}
    faces = {"t": (point[2],) * 4, "s": (SimplexRef("t"),) + (point[3],) * 4}
    cells = {0: ["p"], 3: ["t"], 4: ["s"]}
    for cid, refs in (extra or {}).items():
        if cid not in faces:
            cells.setdefault(len(refs) - 1, []).append(cid)
        faces[cid] = refs
    space = SimplicialSet("disk", cells, faces, complete=complete)
    space.validate()
    return space


def test_no_pair_collapses_whose_face_is_used_twice_or_whose_cell_is_a_face():
    assert collapse_free_pairs(disk_model()).source.cells == {0: ("p",)}
    t, point3 = SimplexRef("t"), SimplexRef("p", (2, 1, 0))
    # the faces of the degenerate 5-simplex s1 s0 t use t through
    # degeneracies only
    degenerate = [disk_model().face_of_ref(SimplexRef("t", (1, 0)), i) for i in range(6)]
    assert {ref.base for ref in degenerate} == {"t", "p"}
    assert all(ref.is_degenerate for ref in degenerate)
    twice = {
        "by a second cell": {"u": (t,) + (point3,) * 4},
        "by the same cell": {"s": (t, t) + (point3,) * 3},
        "through a degeneracy": {"r": tuple(degenerate)},
        # t is still free, but s itself is a face (twice) of r
        "by a cell that is a face": {
            "r": (SimplexRef("s"), SimplexRef("s")) + (SimplexRef("p", (3, 2, 1, 0)),) * 4
        },
    }
    for name, extra in twice.items():
        space = disk_model(extra)
        assert collapse_free_pairs(space).source is space, name


def test_nothing_to_collapse_returns_the_space_itself():
    wedge = wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
    # a truncated space may use its faces in cells it does not store
    truncated = disk_model(complete=False)
    for space in (wedge, projective_plane_model(), sphere_model(5), truncated):
        inclusion = collapse_free_pairs(space)
        assert inclusion.source is space and inclusion.target is space
        inclusion.validate()


# --- json ---

def test_json_round_trip():
    rp2 = projective_plane_model()
    data = simplicial_to_json(rp2)
    back = simplicial_from_json(data)
    assert back.cells == rp2.cells
    for n in back.dimensions():
        if n == 0:
            continue
        for cid in back.nondegenerate(n):
            for i in range(n + 1):
                assert back.face(cid, i) == rp2.face(cid, i)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        simplicial_from_json([])
    with pytest.raises(ValueError):
        simplicial_from_json({"cells": {"x": ["p"]}})
    with pytest.raises(ValueError):
        simplicial_from_json({"cells": {"0": ["p"], "1": ["e"]}, "faces": {"e": [["p", []]]}})
    # face referencing a missing cell
    with pytest.raises(ValueError):
        simplicial_from_json(
            {"cells": {"0": ["p"], "1": ["e"]}, "faces": {"e": [["q", []], ["p", []]]}}
        )


# int() reads each of these as 2, and two of them could name one dimension
NONCANONICAL_KEYS = [" 2", "2 ", "+2", "02", "0_2", "\uff12"]


@pytest.mark.parametrize("key", NONCANONICAL_KEYS)
def test_json_dimension_keys_must_be_canonical(key):
    data = simplicial_to_json(sphere_model(2))
    data["cells"][key] = data["cells"].pop("2")
    with pytest.raises(ValueError, match=re.escape(f"bad dimension key {key!r}")):
        simplicial_from_json(data)
    # beside the key "2" it would have overwritten that dimension's cells
    data["cells"]["2"] = data["cells"][key]
    with pytest.raises(ValueError, match="bad dimension key"):
        simplicial_from_json(data)


def test_loaded_broken_models_report_the_first_failing_pair():
    failed = 0
    for space in validation_models():
        for broken in broken_variants(space):
            doc = simplicial_to_json(broken)
            # the model as the JSON names it, built without validating it
            read = SimplicialSet(
                doc["name"],
                {int(n): ids for n, ids in doc["cells"].items()},
                {
                    cid: [SimplexRef(base, word) for base, word in refs]
                    for cid, refs in doc["faces"].items()
                },
            )
            expected = check_outcome(validate_as_before, read)
            if expected is None:
                simplicial_from_json(doc)
                continue
            with pytest.raises(ValueError) as info:
                simplicial_from_json(doc)
            assert str(info.value) == f"invalid simplicial set: {expected[1]}"
            failed += 1
    assert failed > 100


def test_benchmark_labelings_load_with_one_ref_per_distinct_face():
    workloads = bench_module("workloads")
    for model, n, k in (("d5c2", 5, 2), ("d4c1", 4, 1)):
        plain = simplicial_to_json(collapsed_simplex(n, k))
        for seed in (1, 2, 3):
            for labeling in range(workloads.LABELINGS):
                doc = workloads.relabel(plain, model, seed, labeling)
                space = simplicial_from_json(doc)
                assert simplicial_to_json(space) == doc
                shared = {}
                for m in space.dimensions():
                    for cid in space.nondegenerate(m) if m else ():
                        for i in range(m + 1):
                            ref = space.face(cid, i)
                            assert shared.setdefault(ref, ref) is ref
                assert any(ref.word for ref in shared)
