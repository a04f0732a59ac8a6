import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product

from chaintop.complexes import GradedLinearMap, tensor_complex
from chaintop.cubical import (
    CubeBialgebra,
    CubeMorphism,
    CubeRef,
    CubicalSet,
    I,
    MapCell,
    _strict_chains,
    canonical_map_cell,
    cell_pushforward,
    cube_tensor_iso,
    cube_word_degree,
    cubical_chains,
    cubical_circle,
    cubical_join,
    cubical_torus,
    permute_cube_word,
    serre_coproduct,
    serre_counit,
    standard_cube,
    triangulate,
    u_closure,
    word_face_morphism,
)
from chaintop.freemod import FreeElement
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import SimplexRef, monotone_ref, standard_simplex
from chaintop.smith import smith_homology


def words(n):
    return list(product(("0", "1", I), repeat=n))


def all_keys(chains):
    for n in chains.degrees():
        yield from chains.basis_in(n)


def el(ring, *pairs):
    terms = {}
    for key, c in pairs:
        terms[key] = ring.from_int(c)
    return FreeElement(ring, terms)


# --- morphisms ---

def test_morphism_validation():
    CubeMorphism(2, 2, ((1,), (2,)))
    with pytest.raises(ValueError):
        CubeMorphism(2, 2, ((2,), (1,)))  # blocks out of order
    with pytest.raises(ValueError):
        CubeMorphism(2, 2, ((1, 1), (2,)))  # not strictly increasing
    with pytest.raises(ValueError):
        CubeMorphism(2, 2, ((1, 2), (2,)))  # overlap
    with pytest.raises(ValueError):
        CubeMorphism(2, 1, ((3,),))  # exceeds inputs
    with pytest.raises(ValueError):
        CubeMorphism(2, 2, ((1,),))  # wrong arity


def test_stored_predicates_match_their_definitions():
    gens = [CubeMorphism.identity(n) for n in range(4)]
    for n in range(1, 4):
        for i in range(1, n + 1):
            gens += [CubeMorphism.degeneracy(n, i), CubeMorphism.face(n, i, 0)]
            gens += [CubeMorphism.face(n, i, 1)]
        gens += [CubeMorphism.connection(n, i) for i in range(1, n)]
    morphisms = gens + [f.compose(g) for f in gens for g in gens if f.n_in == g.n_out]
    for m in morphisms:
        constant = [e for e in m.entries if e in (0, 1)]
        assert m.is_degeneracy_morphism == (not constant)
        identity = m.n_in == m.n_out and m.entries == tuple((i,) for i in range(1, m.n_in + 1))
        assert m.is_identity == identity
    assert any(m.is_identity for m in morphisms)
    assert any(m.is_degeneracy_morphism and not m.is_identity for m in morphisms)


def test_generator_semantics():
    # delta_1^0 on the interval: pick out the left endpoint
    d10 = CubeMorphism.face(1, 1, 0)
    assert d10.evaluate(()) == (0,)
    s1 = CubeMorphism.degeneracy(2, 1)
    assert s1.evaluate((0, 1)) == (1,)
    assert s1.evaluate((1, 0)) == (0,)
    g1 = CubeMorphism.connection(2, 1)
    assert [g1.evaluate(p) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]] == [
        (0,),
        (1,),
        (1,),
        (1,),
    ]


def test_cubical_category_identities():
    # sigma_i delta_i^eps = id, and the mixed connection identities
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            s = CubeMorphism.degeneracy(n, i)
            for eps in (0, 1):
                assert s.compose(CubeMorphism.face(n, i, eps)).is_identity
        for i in range(1, n):
            g = CubeMorphism.connection(n, i)
            assert g.compose(CubeMorphism.face(n, i, 0)).is_identity
            assert g.compose(CubeMorphism.face(n, i + 1, 0)).is_identity
            # gamma_i delta_i^1 kills the merged axis at 1
            left = g.compose(CubeMorphism.face(n, i, 1))
            right = CubeMorphism.face(n - 1, i, 1).compose(
                CubeMorphism.degeneracy(n - 1, i)
            ) if n >= 2 else None
            if right is not None:
                assert left == right


def random_walk(rng, m, steps):
    # grow on either side: faces postcompose, degeneracies precompose
    for _ in range(steps):
        choices = [("face", i, eps) for i in range(1, m.n_out + 2) for eps in (0, 1)]
        choices.extend(("deg", i) for i in range(1, m.n_in + 2))
        if m.n_in >= 1:
            choices.extend(("conn", i) for i in range(1, m.n_in + 1))
        op = rng.choice(choices)
        if op[0] == "face":
            m = CubeMorphism.face(m.n_out + 1, op[1], op[2]).compose(m)
        elif op[0] == "deg":
            m = m.compose(CubeMorphism.degeneracy(m.n_in + 1, op[1]))
        else:
            m = m.compose(CubeMorphism.connection(m.n_in + 1, op[1]))
    return m


def random_walk_out(rng, m, steps):
    # compose generators on the output side only, keeping n_in fixed
    for _ in range(steps):
        choices = [("face", i, eps) for i in range(1, m.n_out + 2) for eps in (0, 1)]
        if m.n_out >= 1:
            choices.extend(("deg", i) for i in range(1, m.n_out + 1))
        if m.n_out >= 2:
            choices.extend(("conn", i) for i in range(1, m.n_out))
        op = rng.choice(choices)
        if op[0] == "face":
            m = CubeMorphism.face(m.n_out + 1, op[1], op[2]).compose(m)
        elif op[0] == "deg":
            m = CubeMorphism.degeneracy(m.n_out, op[1]).compose(m)
        else:
            m = CubeMorphism.connection(m.n_out, op[1]).compose(m)
    return m


def random_morphism(rng, max_dim=4, steps=4):
    return random_walk(rng, CubeMorphism.identity(rng.randrange(0, max_dim + 1)), steps)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_compose_matches_pointwise(seed):
    rng = random.Random(seed)
    g = random_morphism(rng)
    f = random_walk_out(rng, CubeMorphism.identity(g.n_out), 3)
    h = f.compose(g)
    for pt in product((0, 1), repeat=g.n_in):
        assert h.evaluate(pt) == f.evaluate(g.evaluate(pt))


def morphism_from_word(base_dim, word):
    """Oracle for CubeMorphism.word: compose ("s", i) and ("g", i) onto the
    identity of 2^base_dim in list order, the first closest to the base."""
    m = CubeMorphism.identity(base_dim)
    for kind, i in word:
        op = {"s": CubeMorphism.degeneracy, "g": CubeMorphism.connection}[kind]
        m = m.compose(op(m.n_in + 1, i))
    return m


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_factor_and_word_roundtrip(seed):
    rng = random.Random(seed)
    m = random_morphism(rng)
    face, degen = m.factor()
    # a face morphism: only constants and singleton blocks, every input used
    assert all(e in (0, 1) or len(e) == 1 for e in face.entries)
    assert face.used_inputs() == list(range(1, face.n_in + 1))
    assert degen.is_degeneracy_morphism
    assert face.compose(degen) == m
    word = degen.word()
    assert morphism_from_word(degen.n_out, word) == degen


def test_word_frozen():
    # s0 s0 analog: degenerate twice in direction 1
    m = CubeMorphism.degeneracy(1, 1).compose(CubeMorphism.degeneracy(2, 1))
    assert m.word() == [("s", 1), ("s", 1)]
    g = CubeMorphism.connection(2, 1)
    assert g.word() == [("g", 1)]


# --- standard cubes and chains ---

def test_standard_cube_counts():
    sq = standard_cube(2)
    assert len(sq.nondegenerate(0)) == 4
    assert len(sq.nondegenerate(1)) == 4
    assert len(sq.nondegenerate(2)) == 1
    sq.validate()
    standard_cube(3).validate()
    assert sq.face((I, I), 1, 0) == CubeRef(("0", I), CubeMorphism.identity(1))
    assert sq.face((I, I), 2, 1) == CubeRef((I, "1"), CubeMorphism.identity(1))


def test_missing_face_rejected():
    with pytest.raises(ValueError):
        CubicalSet(
            "bad",
            {0: ["p"], 1: ["e"]},
            {("e", 1, 0): CubeRef("p", CubeMorphism.identity(0))},
        )


POINT = CubeRef("p", CubeMorphism.identity(0))
EDGE = CubeRef("e", CubeMorphism.identity(1))
SQUARE_CELLS = {0: ["p"], 1: ["e"], 2: ["s"]}


def square_faces(**changes):
    """Faces of a point p, an edge e and a square s, with entries replaced.

    A change maps a name such as "s_2_1" to a new ref, or to None to drop
    that face; extra keys come in through the "extra" change.
    """
    faces = {("e", 1, 0): POINT, ("e", 1, 1): POINT}
    for i in (1, 2):
        for eps in (0, 1):
            faces[("s", i, eps)] = EDGE
    for name, ref in changes.items():
        if name == "extra":
            faces.update(ref)
            continue
        cid, i, eps = name.split("_")
        key = (cid, int(i), int(eps))
        if ref is None:
            del faces[key]
        else:
            faces[key] = ref
    return faces


def construction_error(cells, faces):
    try:
        CubicalSet("bad", cells, faces)
    except Exception as exc:  # the exception itself is the result
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "faces, expected",
    [
        # the key: direction out of range, eps not 0/1, unknown cell
        (square_faces(extra={("e", 2, 0): POINT}), (ValueError, "bad face key ('e', 2, 0)")),
        (square_faces(extra={("s", 0, 1): EDGE}), (ValueError, "bad face key ('s', 0, 1)")),
        (square_faces(extra={("e", 1, 2): POINT}), (ValueError, "bad face key ('e', 1, 2)")),
        (square_faces(extra={("x", 1, 0): POINT}), (KeyError, "\"unknown cube id: 'x'\"")),
        # the ref: not a CubeRef, unknown base, morphism off its base,
        # wrong dimension
        (square_faces(e_1_1="p"), (ValueError, "face ('e', 1, 1) must be a CubeRef")),
        (
            square_faces(s_2_0=CubeRef("q", CubeMorphism.identity(1))),
            (KeyError, "\"unknown cube id: 'q'\""),
        ),
        (
            square_faces(s_1_1=CubeRef("e", CubeMorphism.identity(0))),
            (ValueError, "ref morphism does not match base dimension: <e>"),
        ),
        (
            square_faces(e_1_0=CubeRef("p", CubeMorphism.degeneracy(1, 1))),
            (ValueError, "face ('e', 1, 0) has wrong dimension"),
        ),
        (square_faces(s_1_0=POINT), (ValueError, "face ('s', 1, 0) has wrong dimension")),
        # completeness, named in cell order, then direction, then eps
        (square_faces(s_2_1=None), (ValueError, "missing face ('s', 2, 1)")),
        (square_faces(e_1_1=None, s_1_0=None), (ValueError, "missing face ('e', 1, 1)")),
        # a direction strictly inside the range is valid but names no
        # face, so it must not stand in for a missing one
        (
            square_faces(s_2_1=None, extra={("s", 1.5, 1): EDGE}),
            (ValueError, "missing face ('s', 2, 1)"),
        ),
        # the first bad face in the dict's order is reported, and the key
        # is checked before its ref
        (
            square_faces(extra={("e", 3, 0): "p", ("x", 1, 0): POINT}),
            (ValueError, "bad face key ('e', 3, 0)"),
        ),
        (
            square_faces(e_1_0="p", extra={("x", 1, 0): POINT}),
            (ValueError, "face ('e', 1, 0) must be a CubeRef"),
        ),
    ],
)
def test_cubical_set_constructor_errors(faces, expected):
    assert construction_error(SQUARE_CELLS, faces) == expected


def test_cubical_set_accepts_complete_faces_and_valid_strays():
    assert construction_error(SQUARE_CELLS, square_faces()) is None
    # a valid direction that names no face is kept, as it always was
    faces = square_faces(extra={("s", 1.5, 1): EDGE})
    assert CubicalSet("ok", SQUARE_CELLS, faces).face("s", 1.5, 1) == EDGE
    # a dimension with no cells needs no faces
    assert construction_error({0: ["p"], 1: []}, {}) is None


def test_chain_boundary_frozen():
    ring = ZZ
    c1 = cubical_chains(standard_cube(1), ring=ring)
    assert c1.diff((I,)) == el(ring, (("1",), 1), (("0",), -1))
    c2 = cubical_chains(standard_cube(2), ring=ring)
    assert c2.diff((I, I)) == el(
        ring,
        (("1", I), 1),
        (("0", I), -1),
        ((I, "1"), -1),
        ((I, "0"), 1),
    )
    for n in range(5):
        assert cubical_chains(standard_cube(n)).d_squared_witness() is None


def test_cube_chains_index_the_cells_once(monkeypatch):
    # a cubical set indexes and checks its cells when it is built, and its
    # chains take that index with the cells
    from chaintop import complexes

    calls = []

    def counted(given, real=complexes.graded_ids):
        calls.append(sum(map(len, given.values())))
        return real(given)

    monkeypatch.setattr(complexes, "graded_ids", counted)
    cube = standard_cube(3)
    chains = cubical_chains(cube)
    assert calls == [27]
    assert chains._degree_of is cube._dim
    assert chains.basis == cube.cells
    assert [chains.rank(n) for n in chains.degrees()] == [8, 12, 6, 1]


def test_torus_chains():
    torus = cubical_torus()
    torus.validate()
    chains = cubical_chains(torus)
    assert chains.diff("t").is_zero()
    assert chains.diff("a").is_zero()
    assert chains.d_squared_witness() is None


def test_model_homology():
    torus = cubical_torus()
    chains = cubical_chains(torus)
    assert smith_homology(chains, 0).pair == (1, [])
    assert smith_homology(chains, 1).pair == (2, [])
    assert smith_homology(chains, 2).pair == (1, [])
    circle = cubical_chains(cubical_circle())
    assert smith_homology(circle, 0).pair == (1, [])
    assert smith_homology(circle, 1).pair == (1, [])
    for n in range(4):
        cube = cubical_chains(standard_cube(n))
        assert smith_homology(cube, 0).pair == (1, [])
        for k in range(1, n + 1):
            assert smith_homology(cube, k).pair == (0, [])


# --- coalgebra ---

def test_serre_frozen():
    ring = ZZ
    d = serre_coproduct((I,), ring)
    assert d == el(ring, ((("0",), (I,)), 1), (((I,), ("1",)), 1))
    dd = serre_coproduct((I, I), ring)
    assert dd == el(
        ring,
        ((("0", "0"), (I, I)), 1),
        (((I, I), ("1", "1")), 1),
        (((I, "0"), ("1", I)), 1),
        ((("0", I), (I, "1")), -1),
    )


def test_serre_counit_axiom():
    ring = ZZ
    for n in range(4):
        for w in words(n):
            d = serre_coproduct(w, ring)
            left = {}
            right = {}
            for (a, b), c in d.items():
                ca = serre_counit(a, ring)
                cb = serre_counit(b, ring)
                if not ring.is_zero(ca):
                    left[b] = ring.add(left.get(b, ring.zero), ring.mul(ca, c))
                if not ring.is_zero(cb):
                    right[a] = ring.add(right.get(a, ring.zero), ring.mul(c, cb))
            assert FreeElement(ring, left) == FreeElement.single(ring, w)
            assert FreeElement(ring, right) == FreeElement.single(ring, w)


def test_serre_coassociative():
    ring = ZZ
    for n in range(4):
        for w in words(n):
            left = {}
            right = {}
            for (a, b), c in serre_coproduct(w, ring).items():
                for (a1, a2), c2 in serre_coproduct(a, ring).items():
                    key = (a1, a2, b)
                    left[key] = ring.add(left.get(key, ring.zero), ring.mul(c, c2))
            for (a, b), c in serre_coproduct(w, ring).items():
                for (b1, b2), c2 in serre_coproduct(b, ring).items():
                    key = (a, b1, b2)
                    right[key] = ring.add(right.get(key, ring.zero), ring.mul(c, c2))
            assert FreeElement(ring, left) == FreeElement(ring, right)


def test_serre_is_chain_map():
    ring = ZZ
    for n in range(4):
        chains = cubical_chains(standard_cube(n), ring=ring)
        target = tensor_complex(chains, chains)

        def rule(key):
            return serre_coproduct(key, ring)

        f = GradedLinearMap(chains, target, 0, rule)
        ok, witness = f.is_chain_map()
        assert ok, witness


def test_serre_equivariance_small():
    from itertools import permutations

    ring = ZZ
    for n in (2, 3):
        for w in words(n):
            base = serre_coproduct(w, ring)
            for perm in permutations(range(n)):
                pw, s = permute_cube_word(w, perm)
                left = serre_coproduct(pw, ring).scale(ring.from_int(s))
                terms = {}
                for (a, b), c in base.items():
                    pa, sa = permute_cube_word(a, perm)
                    pb, sb = permute_cube_word(b, perm)
                    coeff = ring.mul(c, ring.from_int(sa * sb))
                    key = (pa, pb)
                    terms[key] = ring.add(terms.get(key, ring.zero), coeff)
                assert left == FreeElement(
                    ring, {k: v for k, v in terms.items() if not ring.is_zero(v)}
                )


# --- join ---

def test_join_frozen():
    ring = ZZ
    assert cubical_join(("0",), ("1",), ring) == el(ring, ((I,), 1))
    assert cubical_join(("1",), ("0",), ring) == el(ring, ((I,), -1))
    assert cubical_join(("0",), ("0",), ring).is_zero()
    assert cubical_join((I,), ("1",), ring).is_zero()
    assert cubical_join(("0", "0"), ("1", "1"), ring) == el(
        ring, ((I, "1"), 1), (("0", I), 1)
    )
    with pytest.raises(ValueError):
        cubical_join(("0",), ("0", "1"), ring)


def join_el(bial, x, y):
    ring = bial.ring
    out = FreeElement.zero(ring)
    for ka, ca in x.items():
        for kb, cb in y.items():
            out = out + bial.join(ka, kb).scale(ring.mul(ca, cb))
    return out


def test_join_boundary_sign_oracle():
    # the boundary identity for the join fixes the counit signs uniquely
    ring = ZZ
    survivors = set()
    for s1 in (1, -1):
        for s2 in (1, -1):
            ok = True
            for n in (1, 2):
                bial = CubeBialgebra(n, ring)
                chains = bial.complex
                for ka in all_keys(chains):
                    for kb in all_keys(chains):
                        a = FreeElement.single(ring, ka)
                        b = FreeElement.single(ring, kb)
                        da = chains.diff(ka)
                        db = chains.diff(kb)
                        lhs = FreeElement.zero(ring)
                        for key, c in bial.join(ka, kb).items():
                            lhs = lhs + chains.diff(key).scale(c)
                        lhs = lhs + join_el(bial, da, b)
                        sign = ring.from_int(-1 if bial.degree(ka) % 2 else 1)
                        lhs = lhs + join_el(bial, a, db).scale(sign)
                        rhs = b.scale(ring.mul(ring.from_int(s1), bial.counit(ka)))
                        rhs = rhs + a.scale(
                            ring.mul(ring.from_int(s2), bial.counit(kb))
                        )
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                survivors.add((s1, s2))
    assert survivors == {(1, -1)}


def test_contraction_homotopy():
    ring = ZZ
    for n in (0, 1, 2, 3):
        bial = CubeBialgebra(n, ring)
        chains = bial.complex
        for key in all_keys(chains):
            h = bial.contract(key)
            dh = FreeElement.zero(ring)
            for k2, c in h.items():
                dh = dh + chains.diff(k2).scale(c)
            hd = FreeElement.zero(ring)
            for k2, c in chains.diff(key).items():
                hd = hd + bial.contract(k2).scale(c)
            expected = FreeElement.single(ring, key) - bial.project(key)
            assert dh + hd == expected, (n, key)


def test_join_monoidality():
    ring = ZZ
    for p in (1, 2):
        for q in (1, 2):
            if p + q > 3:
                continue
            for x1 in words(p):
                for x2 in words(p):
                    jx = cubical_join(x1, x2, ring)
                    sx = -1 if cube_word_degree(x1) % 2 else 1
                    ex2 = serre_counit(x2, ring)
                    for y1 in words(q):
                        ey1 = serre_counit(y1, ring)
                        for y2 in words(q):
                            lhs = cubical_join(x1 + y1, x2 + y2, ring)
                            terms = {}
                            for w, c in jx.items():
                                coeff = ring.mul(c, ey1)
                                if not ring.is_zero(coeff):
                                    terms[w + y2] = ring.add(
                                        terms.get(w + y2, ring.zero), coeff
                                    )
                            jy = cubical_join(y1, y2, ring)
                            for w, c in jy.items():
                                coeff = ring.mul(ring.mul(c, ex2), ring.from_int(sx))
                                if not ring.is_zero(coeff):
                                    key = x1 + w
                                    terms[key] = ring.add(
                                        terms.get(key, ring.zero), coeff
                                    )
                            rhs = FreeElement(
                                ring,
                                {k: v for k, v in terms.items() if not ring.is_zero(v)},
                            )
                            assert lhs == rhs, (x1, y1, x2, y2)


def test_tensor_iso_chain_map():
    for p in range(3):
        for q in range(3):
            if p + q == 0 or p + q > 4:
                continue
            iso = cube_tensor_iso(p, q)
            ok, witness = iso.is_chain_map()
            assert ok, (p, q, witness)


# --- characteristic maps ---

def test_word_face_morphism():
    m = word_face_morphism(("0", I, "1", I))
    assert m.n_in == 2 and m.n_out == 4
    assert m.evaluate((1, 0)) == (0, 1, 1, 0)


def test_cell_pushforward():
    torus = cubical_torus()
    assert cell_pushforward(torus, "t", (I, I)) == torus.ref("t")
    assert cell_pushforward(torus, "t", (I, "0")) == torus.ref("b")
    assert cell_pushforward(torus, "t", ("1", I)) == torus.ref("a")
    assert cell_pushforward(torus, "t", ("0", "1")) == torus.ref("p")
    sq = standard_cube(2)
    assert cell_pushforward(sq, (I, I), ("0", I)) == sq.ref(("0", I))


# --- triangulation ---

def test_triangulate_square():
    tri = triangulate(standard_cube(2))
    tri.validate()
    counts = {n: len(tri.nondegenerate(n)) for n in tri.dimensions()}
    # the square splits into two triangles along its diagonal
    assert counts == {0: 4, 1: 5, 2: 2}
    by_dim = {}
    for n in tri.dimensions():
        for cube, chain in tri.nondegenerate(n):
            by_dim.setdefault(cube, {}).setdefault(n, 0)
            by_dim[cube][n] += 1
    assert by_dim[(I, I)] == {1: 1, 2: 2}


def test_triangulate_square_total():
    tri = triangulate(standard_cube(2))
    # contractible, and a genuine simplicial set
    from chaintop.simplicial import normalized_chains

    chains = normalized_chains(tri)
    assert chains.d_squared_witness() is None
    assert smith_homology(chains, 0).pair == (1, [])
    assert smith_homology(chains, 1).pair == (0, [])
    assert smith_homology(chains, 2).pair == (0, [])
    assert smith_homology(chains, 3).pair == (0, [])


def test_triangulate_models():
    from chaintop.simplicial import normalized_chains

    tri = triangulate(cubical_torus())
    tri.validate()
    chains = normalized_chains(tri)
    assert smith_homology(chains, 0).pair == (1, [])
    assert smith_homology(chains, 1).pair == (2, [])
    assert smith_homology(chains, 2).pair == (1, [])
    circle = triangulate(cubical_circle())
    circle.validate()
    cc = normalized_chains(circle)
    assert smith_homology(cc, 0).pair == (1, [])
    assert smith_homology(cc, 1).pair == (1, [])


def test_triangulate_degenerate_faces():
    # the torus square pushes boundary paths onto degenerate simplices
    torus = cubical_torus()
    tri = triangulate(torus)
    top = ("t", ((0, 0), (1, 0), (1, 1)))
    refs = [tri.face(top, i) for i in range(3)]
    assert tri.ref_dim(refs[0]) == 1
    # d_2 keeps the path along direction 1, which glues to the edge b
    assert refs[2] == SimplexRef(("b", ((0,), (1,))))


def test_triangulate_truncation_flag():
    full = triangulate(standard_cube(2))
    assert full.complete
    cut = triangulate(standard_cube(2), max_degree=2)
    assert not cut.complete


# --- mapping objects ---

def test_canonical_map_cell_peels():
    target = standard_simplex(1)
    v0 = SimplexRef((0,))
    const = MapCell(1, {((0,),): v0, ((1,),): v0, ((0,), (1,)): SimplexRef((0,), (0,))})
    base, morphism = canonical_map_cell(target, const)
    assert base.n == 0
    assert morphism == CubeMorphism.degeneracy(1, 1)


def test_u_closure():
    target = standard_simplex(1)
    # the square min(x, y) of maps into the edge, closed under faces
    cell = MapCell(
        2,
        {
            chain: monotone_ref(target, (0, 1), [min(pt) for pt in chain])
            for chain in _strict_chains(2)
        },
    )
    sub = u_closure(target, [cell])
    sub.validate()
    assert len(sub.nondegenerate(2)) == 1
    assert len(sub.nondegenerate(1)) == 1
    assert len(sub.nondegenerate(0)) == 2
    assert not sub.complete


# --- permutation action ---

def test_permute_cube_word():
    w = (I, "0", I)
    pw, s = permute_cube_word(w, (2, 1, 0))
    assert pw == (I, "0", I)
    assert s == -1
    pw, s = permute_cube_word((I, "0"), (1, 0))
    assert pw == ("0", I) and s == 1


# --- degenerate faces ---

def test_json_degenerate_faces():
    # a 2-cell glued along a degenerate edge: every side is s_1 of the point
    side = CubeRef("p", CubeMorphism.degeneracy(1, 1))
    faces = {("c", i, eps): side for i in (1, 2) for eps in (0, 1)}
    space = CubicalSet("collapsed", {0: ["p"], 2: ["c"]}, faces)
    ref = space.face("c", 1, 0)
    assert ref.is_degenerate and ref.base == "p"
    chains = cubical_chains(space)
    assert chains.diff("c").is_zero()
    assert smith_homology(chains, 2).pair == (1, [])
