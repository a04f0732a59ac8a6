"""Loop-space cube models, comparison maps, loop group, collapse, zigzag."""

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chaintop import loopspace
from chaintop.cobar import (
    CobarComplex,
    ExtendedCobarComplex,
    cobar,
    expand_word,
    reduce_group_word,
)
from chaintop.complexes import (
    ChainComplex,
    GradedLinearMap,
    InsufficientTruncationError,
)
from chaintop.cubical import CubeMorphism, CubeRef, CubicalSet, cubical_chains
from chaintop.einfty import cubical_um, simplicial_um, um_action
from chaintop.freemod import FreeElement
from chaintop.loopspace import (
    CubicalCobar,
    KanLoopGroup,
    _face_items,
    canonical_cell,
    cartan_serre,
    cartan_serre_cell,
    cobar_psi,
    cobar_um_structure,
    collapse_vertex,
    cubical_cobar,
    extended_cubical_cobar,
    kan_loop_group,
    p_functor,
    phi_cell,
    phi_certificate,
    phi_inverse_chain,
    phi_inverse_word,
    phi_signed_cell,
    phi_signed_certificate,
    zigzag_report,
)
from chaintop.propm import (
    compose_graphs,
    coproduct_graph,
    counit_graph,
    identity_graph,
    msl_generator,
    tensor_graphs,
)
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    SimplexRef,
    collapse_subcomplex,
    projective_plane_model,
    random_reduced_model,
    sphere_model,
    standard_simplex,
    two_vertex_projective_plane,
    wedge_models,
)
from chaintop.words import letters

import certificate_oracle
from expansion_oracle import edge_expansion as oracle_edge_expansion
from ring_oracle import add_into
from shared_models import collapsed_simplex
from tensor_boundary import tensor_diff


def s2s2s3_model():
    return wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))


def el(ring, *terms):
    out = {}
    for key, c in terms:
        add_into(out, ring, key, ring.from_int(c))
    return FreeElement(ring, out)


# --- generator images of necklace morphisms ---

def test_p_functor_coface_lands_on_zero_side():
    assert p_functor("coface", 3, 2) == CubeMorphism.face(3, 2, 0)
    assert p_functor("coface", 1, 1) == CubeMorphism.face(1, 1, 0)


def test_p_functor_split_lands_on_one_side():
    assert p_functor("split", 3, 1) == CubeMorphism.face(3, 1, 1)
    assert p_functor("split", 2, 2) == CubeMorphism.face(2, 2, 1)


def test_p_functor_codegeneracies():
    assert p_functor("codegeneracy", 3, 0) == CubeMorphism.degeneracy(3, 1)
    assert p_functor("codegeneracy", 3, 3) == CubeMorphism.degeneracy(3, 3)
    assert p_functor("codegeneracy", 3, 1) == CubeMorphism.connection(3, 1)
    assert p_functor("codegeneracy", 3, 2) == CubeMorphism.connection(3, 2)
    # the bottom collapse [1] -> [0] has no coordinates to touch
    assert p_functor("codegeneracy", 0, 0) == CubeMorphism.identity(0)


def test_p_functor_rejects_outer_cofaces():
    with pytest.raises(ValueError):
        p_functor("coface", 2, 0)
    with pytest.raises(ValueError):
        p_functor("coface", 2, 3)
    with pytest.raises(ValueError):
        p_functor("split", 2, 0)
    with pytest.raises(ValueError):
        p_functor("hop", 2, 1)


# --- canonical forms of bead words ---

def test_degenerate_higher_bead_strips_to_cube_operator():
    s2 = sphere_model(2)
    strips = {
        (0,): CubeMorphism.degeneracy(2, 1),
        (1,): CubeMorphism.connection(2, 1),
        (2,): CubeMorphism.degeneracy(2, 2),
    }
    for word, op in strips.items():
        got = canonical_cell(s2, [(SimplexRef("s", word), 1)])
        assert got == CubeRef(("s",), op)


def test_degenerate_edge_beads_vanish():
    rp2 = projective_plane_model()
    items = [(rp2.ref("a"), 1), (SimplexRef("p", (0,)), 1), (rp2.ref("b"), 1)]
    assert canonical_cell(rp2, items) == CubeRef(
        ("a", "b"), CubeMorphism.identity(0)
    )
    assert canonical_cell(rp2, [(SimplexRef("p", (0,)), 1)]) == CubeRef(
        (), CubeMorphism.identity(0)
    )


def test_signed_canonical_form_cancels_inverse_pairs():
    rp2 = projective_plane_model()
    items = [(rp2.ref("a"), 1), (rp2.ref("a"), -1)]
    assert canonical_cell(rp2, items, signed=True) == CubeRef(
        (), CubeMorphism.identity(0)
    )
    # cancellation only fires on adjacent exact inverses
    items = [(rp2.ref("a"), 1), (rp2.ref("b"), -1)]
    got = canonical_cell(rp2, items, signed=True)
    assert got.base == (("a", 1), ("b", -1))


# --- the bead-word monoid in cubical sets ---

def test_sphere_has_one_cube_per_dimension():
    om = cubical_cobar(sphere_model(2), 4)
    for n in range(5):
        assert om.cubes.nondegenerate(n) == (("s",) * n,)
    om.cubes.validate()


def test_sphere_faces_collapse_to_the_shorter_word():
    om = cubical_cobar(sphere_model(2), 3)
    cell = ("s", "s")
    for q in (1, 2):
        for eps in (0, 1):
            assert om.cubes.face(cell, q, eps).base == ("s",)
    assert om.chains().diff(cell).is_zero()


def test_projective_plane_frozen_faces():
    rp2 = projective_plane_model()
    om = cubical_cobar(rp2, 2, max_length=3)
    ident0 = CubeMorphism.identity(0)
    assert om.cubes.face(("U",), 1, 1) == CubeRef(("b", "a"), ident0)
    assert om.cubes.face(("U",), 1, 0) == CubeRef((), ident0)
    assert om.cubes.face(("L",), 1, 0) == CubeRef(("a",), ident0)
    assert om.cubes.face(("L",), 1, 1) == CubeRef(("b",), ident0)
    assert dict(om.chains().diff(("U",)).items()) == {("b", "a"): 1, (): -1}
    assert dict(om.chains().diff(("L",)).items()) == {("b",): 1, ("a",): -1}


def test_projective_plane_window_is_closed_and_square_zero():
    om = cubical_cobar(projective_plane_model(), 3, max_length=3)
    om.cubes.validate()
    assert om.chains().d_squared_witness() is None


def whole_word_face(space, cid, q, eps, signed):
    """The face as it was computed before splicing: canonicalize the raw word."""
    if signed:
        items = [(space.ref(c), e) for c, e in cid]
    else:
        items = [(space.ref(c), 1) for c in cid]
    return canonical_cell(space, _face_items(space, items, q, eps), signed)


def assert_spliced_faces_match_whole_words(om):
    space = om.source
    checked = 0
    for n in om.cubes.dimensions():
        for cid in om.cubes.nondegenerate(n):
            for q in range(1, n + 1):
                for eps in (0, 1):
                    expected = whole_word_face(space, cid, q, eps, om.signed)
                    assert om.cubes.face(cid, q, eps) == expected, (cid, q, eps)
                    checked += 1
    return checked


def test_spliced_faces_match_whole_word_canonical_forms():
    s2s2s3 = wedge_models(
        wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3)
    )
    windows = [
        cubical_cobar(projective_plane_model(), 3, max_length=3),
        cubical_cobar(projective_plane_model(), 4, max_length=2),
        cubical_cobar(s2s2s3, 5),
        cubical_cobar(collapsed_simplex(4, 1), 3),
        cubical_cobar(collapsed_simplex(5, 2), 3),
    ]
    rng = random.Random(20261018)
    for _ in range(6):
        windows.append(cubical_cobar(random_reduced_model(rng), 3, max_length=3))
    assert sum(assert_spliced_faces_match_whole_words(om) for om in windows) > 0


def test_spliced_signed_faces_match_whole_word_canonical_forms():
    rp2 = projective_plane_model()
    for cutoff in (2, 3, 4):
        om = extended_cubical_cobar(rp2, 3, cutoff)
        assert_spliced_faces_match_whole_words(om)
    s1s2 = wedge_models(sphere_model(1), sphere_model(2))
    om = extended_cubical_cobar(s1s2, 3, 4)
    assert assert_spliced_faces_match_whole_words(om) > 0
    # b's inner face is the basepoint edge, so a^-1 a cancels to nothing
    a, b = ("a", "s"), ("b", "s")
    face = om.cubes.face(((a, -1), (b, 1), (a, 1)), 1, 0)
    assert face == CubeRef((), CubeMorphism.identity(0))


def splice_loop_faces(space, cells, signed):
    """The faces as the splice loop built them before the per-letter table:
    each (letter, direction, side) piece looked up per face, and the padded
    morphisms keyed by (coordinates before, piece morphism, after)."""
    faces = {}
    pieces = {}
    padded = {}
    for n, ids in cells.items():
        for cid in ids:
            offset = 0
            for i, letter in enumerate(cid):
                cell = letter[0] if signed else letter
                width = space.dim_of(cell) - 1
                after = n - offset - width
                for j, eps in itertools.product(range(1, width + 1), (0, 1)):
                    piece = pieces.get((cell, j, eps))
                    if piece is None:
                        raw = _face_items(space, [(space.ref(cell), 1)], j, eps)
                        piece = canonical_cell(space, raw, signed)
                        pieces[(cell, j, eps)] = piece
                    base = cid[:i] + piece.base + cid[i + 1 :]
                    if signed:
                        base = reduce_group_word(base)
                    key = (offset, piece.morphism, after)
                    morphism = padded.get(key)
                    if morphism is None:
                        morphism = padded[key] = loopspace._padded(*key)
                    faces[(cid, offset + j, eps)] = CubeRef(base, morphism)
                offset += width
    return faces


def test_face_table_matches_the_splice_loop():
    rp2 = projective_plane_model()
    s2s2s3 = wedge_models(
        wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3)
    )
    windows = [
        cubical_cobar(rp2, 4, max_length=2),
        cubical_cobar(rp2, 2, max_length=3),
        cubical_cobar(s2s2s3, 6),
        extended_cubical_cobar(rp2, 2, 6),
    ]
    for seed in (0, 3, 5, 8):
        model = random_reduced_model(random.Random(seed))
        windows.append(cubical_cobar(model, 3, max_length=3))
    for om in windows:
        faces = splice_loop_faces(om.source, om.cubes.cells, om.signed)
        assert faces
        assert om.cubes._faces.keys() == faces.keys()
        for key, ref in faces.items():
            assert om.cubes.face(*key) == ref, key


def face_built_chains(om):
    """The oracle for the letter-table columns: the window's chains summed
    by `cubical_chains` from the splice loop's eager face dict, after
    `CubicalSet` has checked every face."""
    faces = splice_loop_faces(om.source, om.cubes.cells, om.signed)
    cubes = CubicalSet(om.cubes.name, om.cubes.cells, faces, complete=om.cubes.complete)
    return cubical_chains(cubes, om.ring)


def letter_table_windows():
    rp2 = projective_plane_model()
    windows = [cubical_cobar(*window) for window in certify_windows()]
    windows.append(cubical_cobar(s2s2s3_model(), 9))
    windows.append(cubical_cobar(rp2, 6, max_length=3))
    for max_degree, cutoff in ((2, 3), (3, 3), (2, 4), (4, 4)):
        windows.append(extended_cubical_cobar(rp2, max_degree, cutoff))
    windows.append(cubical_cobar(rp2, 4, max_length=2, ring=GF(2)))
    windows.append(extended_cubical_cobar(rp2, 3, 3, ring=GF(3)))
    for seed in range(6):
        model = random_reduced_model(random.Random(seed))
        windows.append(cubical_cobar(model, 3, max_length=3))
    return windows


def test_every_spliced_face_is_a_stored_cell_of_its_dimension():
    # the boundary skips degenerate sides, so their splices are checked
    # here: `CubicalSet`'s pass refuses a face on an unstored base or of
    # the wrong dimension
    for om in letter_table_windows():
        faces = om.cubes._faces
        assert len(faces) == 2 * sum(n * len(ids) for n, ids in om.cubes.cells.items())


def test_letter_table_columns_match_the_face_built_oracle():
    for om in letter_table_windows():
        chains = om.chains()
        assert chains.degrees()
        for n in chains.degrees():
            chains.diff_columns(n)
        # the columns were read off the letter table, without a face
        assert "_faces" not in vars(om.cubes)
        oracle = face_built_chains(om)
        assert chains.degrees() == oracle.degrees()
        for n in chains.degrees():
            assert chains.diff_columns(n) == oracle.diff_columns(n), (om.cubes.name, n)


def test_faces_are_spliced_only_when_asked_for():
    rp2 = projective_plane_model()
    om = cubical_cobar(rp2, 3, max_length=2)
    assert [len(om.cubes.nondegenerate(n)) for n in om.cubes.dimensions()]
    phi_certificate(rp2, 3, max_length=2, omega=om)
    assert "_faces" not in vars(om.cubes)
    assert om.cubes.face(("U",), 1, 1) == CubeRef(("b", "a"), CubeMorphism.identity(0))
    assert "_faces" in vars(om.cubes)
    om.cubes.validate()


def letter_table_mutants(table):
    """The side table with one nondegenerate side moved to the other side
    of its coordinate, which negates its coefficient, and with that side
    dropped, for every such side. The mutation is made on the sides, so
    it also reaches sides whose terms cancel in a letter's value."""
    for letter, (width, sides) in table.items():
        for k, (j, eps, base, morphism, padded) in enumerate(sides):
            if morphism.is_identity:
                flipped = (j, 1 - eps, base, morphism, padded)
                yield {**table, letter: (width, sides[:k] + (flipped,) + sides[k + 1 :])}
                yield {**table, letter: (width, sides[:k] + sides[k + 1 :])}


def with_sides(omega, sides):
    """omega with its cube side table replaced, and the value table
    derived from it as the constructor derives it."""
    omega.cubes._sides = sides
    omega.cubes._values = loopspace._letter_values(sides)
    return omega


def test_a_wrong_side_in_the_letter_table_fails_the_certificate():
    windows = certify_windows()
    for seed in (0, 5):
        windows.append((random_reduced_model(random.Random(seed)), 3, 3))
    for window in windows:
        space, max_degree, max_length = window
        mutants = 0
        for table in letter_table_mutants(cubical_cobar(*window).cubes._sides):
            omega = with_sides(cubical_cobar(*window), table)
            with pytest.raises(AssertionError, match="not a chain map") as caught:
                phi_certificate(space, max_degree, max_length, omega=omega)
            # the per-cell oracle fails on the same cell, with the same witness
            with pytest.raises(AssertionError) as oracle:
                certificate_oracle.phi_certificate(with_sides(cubical_cobar(*window), table))
            assert caught.value.witness == oracle.value.witness
            mutants += 1
        assert mutants > 0, space.name


def test_a_spliced_face_outside_the_window_is_refused():
    # S^3's letter has only degenerate sides; each S^2 letter has two
    # nondegenerate sides that cancel, so neither face is a term of d,
    # and the faces refuse them
    s2 = ("a", ("a", "s"))
    s3 = ("b", "s")
    for letter in (s2, s3):
        om = cubical_cobar(s2s2s3_model(), 4)
        width, sides = om.cubes._sides[letter]
        om.cubes._sides[letter] = width, tuple(
            (j, eps, ("nowhere",), morphism, padded)
            for j, eps, _, morphism, padded in sides
        )
        with pytest.raises(KeyError, match="nowhere"):
            om.cubes.face((letter,), 1, 0)
    # one S^2 side moved out of the window is a term of d, which the
    # chains refuse
    om = cubical_cobar(s2s2s3_model(), 4)
    width, (side, *rest) = om.cubes._sides[s2]
    moved = side[:2] + (("nowhere",),) + side[3:]
    with_sides(om, {**om.cubes._sides, s2: (width, (moved, *rest))})
    with pytest.raises(ValueError, match="nowhere"):
        om.chains().diff_columns(width)


def test_length_cutoff_required_exactly_when_edges_exist():
    with pytest.raises(ValueError):
        cubical_cobar(projective_plane_model(), 2)
    cubical_cobar(sphere_model(2), 3)
    with pytest.raises(ValueError):
        cubical_cobar(two_vertex_projective_plane(), 2, max_length=2)


def test_product_is_concatenation_with_window_guard():
    om = cubical_cobar(sphere_model(2), 4)
    assert om.product(("s",), ("s", "s")) == ("s", "s", "s")
    assert om.product(om.unit(), ("s",)) == ("s",)
    with pytest.raises(InsufficientTruncationError):
        om.product(("s", "s", "s"), ("s", "s"))


def test_budget_slides_with_degree():
    om = cubical_cobar(projective_plane_model(), 3, max_length=2)
    assert [om.budget(n) for n in range(4)] == [5, 4, 3, 2]
    assert cubical_cobar(sphere_model(2), 3).budget(1) is None


# --- the signed relabeling ---

def test_phi_cell_frozen_values():
    rp2 = projective_plane_model()
    assert phi_cell(rp2, (), ZZ) == el(ZZ, ((), 1))
    assert phi_cell(rp2, ("a",), ZZ) == el(ZZ, (("a",), 1), ((), 1))
    assert phi_cell(rp2, ("U",), ZZ) == el(ZZ, (("U",), -1))
    assert phi_cell(rp2, ("a", "U"), ZZ) == el(
        ZZ, (("a", "U"), -1), (("U",), -1)
    )
    assert phi_cell(rp2, ("a", "b"), ZZ) == el(
        ZZ, (("a", "b"), 1), (("a",), 1), (("b",), 1), ((), 1)
    )


def test_phi_inverse_unshifts_edge_letters():
    rp2 = projective_plane_model()
    assert phi_inverse_word(rp2, ("a",), ZZ) == el(ZZ, (("a",), 1), ((), -1))
    assert phi_inverse_word(rp2, ("U",), ZZ) == el(ZZ, (("U",), -1))
    assert phi_inverse_word(rp2, ("a", "b"), ZZ) == el(
        ZZ, (("a", "b"), 1), (("a",), -1), (("b",), -1), ((), 1)
    )
    # equal subwords add up: (a - 1)^2 = aa - 2a + 1, and 2 = 0 over F2
    assert phi_inverse_word(rp2, ("a", "a"), ZZ) == el(
        ZZ, (("a", "a"), 1), (("a",), -2), ((), 1)
    )
    assert phi_inverse_word(rp2, ("a", "a"), GF(2)) == el(
        GF(2), (("a", "a"), 1), ((), 1)
    )


def phi_chain(space, element, ring):
    """phi on a chain, cell by cell: a private copy of the helper the
    library no longer keeps."""
    return element.map_terms(lambda cell: phi_cell(space, cell, ring))


def test_phi_roundtrips_on_every_stored_cell():
    windows = [(projective_plane_model(), 2, 2)]
    windows += [(random_reduced_model(random.Random(s)), 3, 3) for s in (0, 3, 5, 8)]
    for space, max_degree, max_length in windows:
        ch = cubical_cobar(space, max_degree, max_length=max_length).chains()
        for n in ch.degrees():
            for cell in ch.basis_in(n):
                x = FreeElement.single(ZZ, cell, ZZ.one)
                back = phi_inverse_chain(space, phi_chain(space, x, ZZ), ZZ)
                assert back == x


# --- the edge expansion against the kernels it replaced ---

def _oracle_dim_sign(ring, dims):
    return ring.neg(ring.one) if sum(d - 1 for d in dims) % 2 else ring.one


def oracle_phi_cell(space, cell, ring):
    dims = [space.dim_of(c) for c in cell]
    sign = _oracle_dim_sign(ring, dims)
    edge_slots = [i for i, d in enumerate(dims) if d == 1]
    terms = {}
    for r in range(len(edge_slots) + 1):
        for keep in itertools.combinations(edge_slots, r):
            kept = set(keep)
            word = tuple(
                c for i, c in enumerate(cell) if dims[i] >= 2 or i in kept
            )
            add_into(terms, ring, word, sign)
    return FreeElement(ring, terms)


def oracle_phi_inverse_word(space, word, ring):
    dims = [space.dim_of(c) for c in word]
    sign = _oracle_dim_sign(ring, dims)
    edge_slots = [i for i, d in enumerate(dims) if d == 1]
    terms = {}
    for r in range(len(edge_slots) + 1):
        for keep in itertools.combinations(edge_slots, r):
            kept = set(keep)
            cell = tuple(
                c for i, c in enumerate(word) if dims[i] >= 2 or i in kept
            )
            coeff = sign if (len(edge_slots) - r) % 2 == 0 else ring.neg(sign)
            add_into(terms, ring, cell, coeff)
    return FreeElement(ring, terms)


def oracle_expand_word(space, word, ring):
    branches = [(ring.one, [()])]
    for cell in word:
        if space.dim_of(cell) == 1:
            grown = []
            for sign, parts in branches:
                grown.append((sign, parts[:-1] + [parts[-1] + ((cell, 1),)]))
                grown.append((ring.neg(sign), parts))
            branches = grown
        else:
            branches = [
                (sign, parts + [cell, ()]) for sign, parts in branches
            ]
    terms = {}
    for sign, parts in branches:
        # the alternating word (g0, x1, g1, ...), written flat
        word = []
        for j, part in enumerate(parts):
            word += part if j % 2 == 0 else [(part, 1)]
        add_into(terms, ring, tuple(word), sign)
    return FreeElement(ring, terms)


def _collapsed_simplex(n, k):
    space = standard_simplex(n)
    skeleton = [c for m in range(k + 1) for c in space.nondegenerate(m)]
    return collapse_subcomplex(space, skeleton).target


def _oracle_inputs():
    """(space, words): the benchmark models' windows and random models."""
    rp2 = projective_plane_model()
    s2s2s3 = wedge_models(
        wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3)
    )
    inputs = []
    for space, max_degree in (
        (_collapsed_simplex(5, 2), 4),
        (_collapsed_simplex(4, 1), 2),
        (s2s2s3, 7),
    ):
        words = cobar(space, max_degree, ZZ).complex
        inputs.append((space, [w for n in words.degrees() for w in words.basis_in(n)]))
    windows = [(rp2, 4, 2), (rp2, 2, 3)]
    windows += [(random_reduced_model(random.Random(s)), 3, 3) for s in range(6)]
    for space, max_degree, max_length in windows:
        chains = cubical_cobar(space, max_degree, max_length).chains()
        inputs.append(
            (space, [w for n in chains.degrees() for w in chains.basis_in(n)])
        )
    inputs.append(
        (rp2, [("a", "a"), ("a", "a", "a"), ("a", "U", "a"), ("b", "a", "b", "a")])
    )
    return inputs


def test_edge_expansion_matches_the_replaced_kernels():
    for space, words in _oracle_inputs():
        for ring in (ZZ, GF(2), GF(3)):
            for w in words:
                assert phi_cell(space, w, ring) == oracle_phi_cell(space, w, ring)
                assert phi_inverse_word(space, w, ring) == oracle_phi_inverse_word(
                    space, w, ring
                )
                assert expand_word(space, w, ring) == oracle_expand_word(
                    space, w, ring
                )


def test_phi_certificates_small_windows():
    assert phi_certificate(sphere_model(1), 5, max_length=4)["cells"] == 10
    cert = phi_certificate(sphere_model(2), 5)
    assert cert["degrees"] == {n: 1 for n in range(6)}
    cert = phi_certificate(projective_plane_model(), 4, max_length=2)
    assert cert["degrees"][0] == 127


def test_phi_is_a_chain_map_over_odd_characteristic():
    cert = phi_certificate(projective_plane_model(), 3, max_length=2, ring=GF(3))
    assert cert["cells"] > 0


def test_cached_certificate_still_catches_a_wrong_sign(monkeypatch):
    rp2 = projective_plane_model()
    real = loopspace.phi_cell

    def flipped(space, cell, ring):
        value = real(space, cell, ring)
        return value.scale(ring.neg(ring.one)) if cell == ("U",) else value

    monkeypatch.setattr(loopspace, "phi_cell", flipped)
    with pytest.raises(AssertionError, match="not a chain map"):
        phi_certificate(rp2, 3, max_length=2)


def test_cached_certificate_still_catches_a_dropped_product_term(monkeypatch):
    # the certificate sums phi(a) phi(b) with concatenation; drop one
    # nonzero term of that product
    real = loopspace.concatenation

    def lossy(left, right, stored, reduce, sums, sign):
        product = {w: c for w, c in real(left, right, stored, reduce, {}, sign).items() if c}
        if product:
            del product[max(product, key=repr)]
        for w, c in product.items():
            sums[w] = sums.get(w, 0) + c
        return sums

    monkeypatch.setattr(loopspace, "concatenation", lossy)
    with pytest.raises(AssertionError, match="not multiplicative"):
        phi_certificate(projective_plane_model(), 3, max_length=2)


def test_a_unitless_step_on_longer_cells_fails_the_product_check(monkeypatch):
    # the certificate takes an expansion step only for a cell of two or
    # more letters, on its prefix's value; a step that drops an edge
    # letter's unit term there (t -> t instead of t + 1) leaves phi of
    # every letter, and so the letter rule, as it was: the product half
    # must catch it
    real = loopspace.expansion_step

    def unitless(sums, cell, dim, odd_sign, edge_sign):
        return real(sums, cell, dim, odd_sign, 0)

    monkeypatch.setattr(loopspace, "expansion_step", unitless)
    rp2 = projective_plane_model()
    phi = loopspace._phi_sums(rp2, ZZ)
    assert phi(("a",)) == phi_cell(rp2, ("a",), ZZ).terms
    assert phi(("a", "b")) != phi_cell(rp2, ("a", "b"), ZZ).terms
    with pytest.raises(AssertionError, match="not multiplicative"):
        phi_certificate(rp2, 3, max_length=2)


def test_the_certificate_checks_the_same_sample():
    # the counts are pinned, so a change to the pair loop cannot check
    # fewer pairs: the certificate checks every pair of letters whose
    # product is stored, the per-cell oracle its sample of small cells
    rp2 = projective_plane_model()
    for window, cells, letter_pairs, sampled in (
        ((rp2, 4, 2), 517, 16, 361),
        ((rp2, 2, 3), 189, 16, 249),
        ((s2s2s3_model(), 6, None), 288, 9, 160),
        ((rp2, 5, 2), 1413, 16, 400),
    ):
        cert = phi_certificate(*window)
        assert (cert["cells"], cert["pairs"]) == (cells, letter_pairs), window[1:]
        oracle = certificate_oracle.phi_certificate(cubical_cobar(*window))
        assert (oracle["cells"], oracle["pairs"]) == (cells, sampled), window[1:]


def test_prefix_shared_phi_matches_the_whole_word_expansion():
    # the certify windows come first among these; phi is the relabeling
    # of plain cells, so the signed windows have none
    for om in letter_table_windows():
        if om.signed:
            continue
        space = om.source
        cells = [c for n in om.cubes.dimensions() for c in om.cubes.nondegenerate(n)]
        for ring in (ZZ, GF(2), GF(3), QQ):
            phi = loopspace._phi_sums(space, ring)
            for cell in cells:
                expected = oracle_edge_expansion(space, cell, ring, -1, ring.one)
                assert phi(cell) == expected.terms, (om.cubes.name, cell, ring)


def test_certificate_reuses_the_cube_model_of_its_window():
    rp2 = projective_plane_model()
    omega = cubical_cobar(rp2, 3, max_length=2)
    assert omega.chains() is omega.chains()
    assert phi_certificate(rp2, 3, max_length=2, omega=omega) == phi_certificate(
        rp2, 3, max_length=2
    )
    for window in ((rp2, 2, 2), (rp2, 3, 3)):
        with pytest.raises(ValueError, match="not the cube model"):
            phi_certificate(*window, omega=omega)
    with pytest.raises(ValueError, match="not the cube model"):
        phi_certificate(rp2, 3, max_length=2, ring=GF(2), omega=omega)


def test_each_certificate_enumerates_its_window_once(monkeypatch):
    # the package re-exports a function named cobar, which shadows the module
    cobar_module = importlib.import_module("chaintop.cobar")
    words_module = importlib.import_module("chaintop.words")
    calls = []
    for name in ("plain_words", "localized_words"):

        def counted(*args, real=getattr(words_module, name), name=name):
            calls.append(name)
            return real(*args)

        for module in (cobar_module, loopspace):
            monkeypatch.setattr(module, name, counted, raising=False)
    rp2 = projective_plane_model()
    phi_certificate(rp2, 3, max_length=2)
    phi_certificate(s2s2s3_model(), 5)
    assert calls == ["plain_words"] * 2
    calls.clear()
    phi_signed_certificate(rp2, 2, 4)
    assert calls == ["localized_words"]


def test_the_cells_are_the_words_of_the_window():
    for om in letter_table_windows():
        for n in range(om.max_degree + 1):
            assert om.cubes.nondegenerate(n) == om.words.complex.basis_in(n)


def certify_windows():
    s2s2s3 = wedge_models(
        wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3)
    )
    rp2 = projective_plane_model()
    return [(rp2, 4, 2), (rp2, 2, 3), (s2s2s3, 6, None)]


def test_comparison_cap_budget_zero_drops_no_boundary_term():
    windows = certify_windows()
    for seed in (0, 5):
        windows.append((random_reduced_model(random.Random(seed)), 3, 3))
    for space, max_degree, max_length in windows:
        om = cubical_cobar(space, max_degree, max_length)
        cap = om.budget(0)
        narrow = cobar(space, max_degree, ZZ, cap)
        wide = cobar(space, max_degree, ZZ, None if cap is None else cap + 1)
        chains = om.chains()
        for n in chains.degrees():
            for cell in chains.basis_in(n):
                for word in phi_cell(space, cell, ZZ).support():
                    assert narrow.complex.degree_of(word) == n
                    assert narrow._word_boundary(word) == wide._word_boundary(word)


def test_sliding_window_cobar_drops_no_boundary_term():
    # so the certificate checks phi against the honest cobar differential
    windows = certify_windows() + [(projective_plane_model(), 3, 3)]
    for seed in range(4):
        windows.append((random_reduced_model(random.Random(seed)), 3, 3))
    for space, max_degree, max_length in windows:
        om = cubical_cobar(space, max_degree, max_length)
        sliding = CobarComplex(space, max_degree, ZZ, om.budget)
        cap = om.budget(0)
        wide = cobar(space, max_degree, ZZ, None if cap is None else cap + 1)
        for n in sliding.complex.degrees():
            for word in sliding.complex.basis_in(n):
                assert sliding.complex.diff(word) == wide.complex.diff(word), (
                    space.name,
                    word,
                )


def test_certificate_compares_as_many_words_as_cells(monkeypatch):
    built = []

    class Recorded(CobarComplex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(loopspace, "CobarComplex", Recorded)
    for space, max_degree, max_length in certify_windows():
        omega = cubical_cobar(space, max_degree, max_length)
        cert = phi_certificate(space, max_degree, max_length, omega=omega)
        (algebra,) = built
        built.clear()
        words = sum(algebra.complex.rank(n) for n in range(max_degree + 1))
        cells = sum(len(omega.cubes.nondegenerate(n)) for n in range(max_degree + 1))
        assert words == cells == cert["cells"], space.name


def certify_relabeling(omega, words, image):
    """The full-column check: image relabels the cells of omega as the
    words, and phi(d c) = d phi(c) on every stored cell, with phi built on
    every cell in one GradedLinearMap. Returns the summary
    {"cells": count, "degrees": {degree: count}}; a failing cell raises
    AssertionError naming it."""
    chains = omega.chains()
    for n in range(omega.max_degree + 1):
        assert omega.cubes.nondegenerate(n) == words.basis_in(n), n
    phi = GradedLinearMap(chains, words, 0, image)
    ok, witness = phi.is_chain_map(chains.degrees())
    if not ok:
        raise AssertionError(f"not a chain map on {witness[0]!r}")
    degrees = {n: chains.rank(n) for n in chains.degrees()}
    return {"cells": sum(degrees.values()), "degrees": degrees}


def _chain_map_verdicts(space, max_degree, max_length, perturb=None):
    """(per-cell letter rule, full columns) verdicts on one window: summary
    or failing key. Both are oracles: the letter rule of
    `certificate_oracle` splices D into every cell.

    perturb, when given, is (degree, position): that column of the cube
    differential is negated, or given a term when it is zero, before
    either check reads it.
    """
    omega = cubical_cobar(space, max_degree, max_length)
    words = CobarComplex(space, max_degree, ZZ, omega.budget).complex
    chains = omega.chains()
    if perturb is not None:
        n, j = perturb
        columns = chains.diff_columns(n)
        columns[j] = {i: -c for i, c in columns[j].items()} or {0: 1}

    def image(cell):
        return phi_cell(space, cell, ZZ)

    verdicts = []
    for check in (
        lambda: certificate_oracle.letter_rule_by_columns(omega, image),
        lambda: certify_relabeling(omega, words, image),
    ):
        try:
            verdicts.append(check())
        except AssertionError as exc:
            assert str(exc).startswith("not a chain map on ")
            verdicts.append(str(exc))
    return verdicts


def oracle_windows():
    windows = [
        # criterion 05
        (sphere_model(1), 5, 4),
        (sphere_model(2), 5, None),
        (projective_plane_model(), 5, 2),
    ]
    windows += certify_windows()
    windows.append((projective_plane_model(), 6, 3))
    for seed in range(4):
        windows.append((random_reduced_model(random.Random(seed)), 3, 3))
    return windows


def test_letter_rule_agrees_with_the_full_column_check():
    # the per-cell letter rule builds phi only on letters; the
    # full-column check of GradedLinearMap.is_chain_map builds it on
    # every cell
    for space, max_degree, max_length in oracle_windows():
        rule, full = _chain_map_verdicts(space, max_degree, max_length)
        assert rule == full, (space.name, max_degree, max_length)
        assert isinstance(rule, dict) and rule["cells"] > 0


def test_letter_rule_fails_where_the_full_column_check_fails():
    # a built column is perturbed, which the certificate never reads, so
    # this holds the per-cell oracle to the full-column check; a wrong
    # letter value is the certificate's case (below)
    rng = random.Random(3)
    for space, max_degree, max_length in oracle_windows():
        chains = cubical_cobar(space, max_degree, max_length).chains()
        degrees = [m for m in chains.degrees() if m > chains.min_degree]
        if not degrees:
            continue
        n = rng.choice(degrees)
        perturb = (n, rng.randrange(chains.rank(n)))
        rule, full = _chain_map_verdicts(space, max_degree, max_length, perturb)
        cell = chains.basis_in(n)[perturb[1]]
        assert rule == full == f"not a chain map on {cell!r}", space.name


def _verdict(check):
    """check()'s summary, or (message, witness) of the AssertionError it raises."""
    try:
        return check()
    except AssertionError as exc:
        return str(exc), getattr(exc, "witness", None)


def test_the_certificate_agrees_with_the_per_cell_oracle():
    windows = oracle_windows()
    windows += [(random_reduced_model(random.Random(seed)), 3, 3) for seed in range(4, 10)]
    for space, max_degree, max_length in windows:
        for ring in (ZZ, GF(2), GF(3), QQ):
            window = (space, max_degree, max_length, ring)
            cert = _verdict(lambda: phi_certificate(*window))
            oracle = _verdict(lambda: certificate_oracle.phi_certificate(cubical_cobar(*window)))
            assert isinstance(cert, dict) and isinstance(oracle, dict), (window, cert, oracle)
            assert cert["degrees"] == oracle["degrees"], window
            assert cert["cells"] == oracle["cells"] > 0, window
            assert cert["letters"] == sum(
                len(space.nondegenerate(m)) for m in range(1, max_degree + 2)
            ), window
            assert 0 < cert["pairs"] <= cert["letters"] ** 2, window


def test_a_wrong_letter_value_fails_with_the_oracle_witness():
    # one letter's cube value gets a stored word one degree down added,
    # which changes it over every ring
    rng = random.Random(7)
    for space, max_degree, max_length in oracle_windows():
        for ring in (ZZ, GF(2)):
            window = (space, max_degree, max_length, ring)
            values = cubical_cobar(*window).cubes._values
            words = cubical_cobar(*window).words.complex
            moving = [letter for letter, (_, n) in values.items() if 1 <= n <= max_degree]
            if not moving:
                continue
            letter = rng.choice(moving)
            value, n = values[letter]
            wrong = dict(value or {})
            extra = words.basis_in(n - 1)[0]
            wrong[extra] = wrong.get(extra, 0) + 1

            def perturbed():
                omega = cubical_cobar(*window)
                omega.cubes._values = {**values, letter: (wrong, n)}
                return omega

            with pytest.raises(AssertionError, match="not a chain map") as caught:
                phi_certificate(*window, omega=perturbed())
            with pytest.raises(AssertionError) as oracle:
                certificate_oracle.phi_certificate(perturbed())
            assert caught.value.witness == oracle.value.witness
            key, cube_side, rule_side = caught.value.witness
            assert key == (letter,) and cube_side != rule_side


def test_the_certificate_refuses_a_window_not_closed_under_d():
    # the letter check reads no cell, so whether the window keeps every
    # boundary term is read off its budget: a fixed cap, as `cobar.cobar`
    # has, does not
    rp2 = projective_plane_model()
    omega = cubical_cobar(rp2, 3, max_length=2)
    omega.budget = lambda degree: 2
    with pytest.raises(AssertionError, match="not closed under d in degree 1"):
        phi_certificate(rp2, 3, max_length=2, omega=omega)


def _unsigned_derivation(table, cell, reduce=None):
    # the letter rule with its Koszul signs dropped
    sums = {}
    for j, letter in enumerate(cell):
        for piece, c in (table[letter][0] or {}).items():
            new = cell[:j] + piece + cell[j + 1 :]
            sums[new] = sums.get(new, 0) + c
    return sums, sum(table[letter][1] for letter in cell)


@pytest.mark.parametrize(
    "mutant, witness",
    [
        ("negated rule", ("U",)),
        ("E for E inverse", ("U",)),
    ],
)
def test_letter_rule_mutants_are_not_chain_maps(monkeypatch, mutant, witness):
    real = loopspace.phi_inverse_word
    if mutant == "negated rule":
        monkeypatch.setattr(
            loopspace,
            "phi_inverse_word",
            lambda space, word, ring: -real(space, word, ring),
        )
    else:
        monkeypatch.setattr(loopspace, "phi_inverse_word", loopspace.phi_cell)
    with pytest.raises(AssertionError, match="not a chain map") as caught:
        phi_certificate(projective_plane_model(), 3, max_length=2)
    key, cube_side, rule_side = caught.value.witness
    assert key == witness
    assert cube_side != rule_side


def test_a_splice_without_koszul_signs_differs_from_the_face_built_oracle(
    monkeypatch,
):
    # the cube boundary and the letter rule both splice with derivation,
    # so a splice that drops the Koszul signs changes both sides of the
    # certificate alike; the face-built chains are what tell
    monkeypatch.setattr(loopspace, "derivation", _unsigned_derivation)
    om = cubical_cobar(projective_plane_model(), 3, max_length=2)
    chains, oracle = om.chains(), face_built_chains(om)
    assert ("U", "U") in chains.basis_in(2)
    differ = [
        n for n in chains.degrees() if chains.diff_columns(n) != oracle.diff_columns(n)
    ]
    assert differ


# words of up to _FACTOR letters on each side, in a cobar window that
# stores every product of two of them
_FACTOR = 3


@pytest.fixture(scope="module")
def multiplicativity_windows():
    spaces = [projective_plane_model()]
    spaces += [random_reduced_model(random.Random(seed)) for seed in (0, 1, 5)]
    windows = []
    for space in spaces:
        edges, heavies = letters(space)
        top = max(space.dim_of(cell) - 1 for cell in heavies)
        algebra = cobar(space, 2 * _FACTOR * top, ZZ, 2 * _FACTOR)
        windows.append((space, edges + heavies, algebra))
    return windows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phi_is_multiplicative_on_random_words(multiplicativity_windows, data):
    # phi_certificate checks phi d = d phi by the letter rule, which
    # stands for phi on long cells because phi is multiplicative
    space, alphabet, algebra = data.draw(st.sampled_from(multiplicativity_windows))
    word = st.lists(st.sampled_from(alphabet), max_size=_FACTOR).map(tuple)
    u, v = data.draw(word), data.draw(word)
    whole = phi_cell(space, u + v, ZZ)
    for w in whole.support():
        algebra.complex.degree_of(w)  # stored, so the product cuts nothing
    assert whole == algebra.product(phi_cell(space, u, ZZ), phi_cell(space, v, ZZ))


# --- localized variant ---

def test_localized_window_matches_group_word_algebra():
    rp2 = projective_plane_model()
    om = extended_cubical_cobar(rp2, 2, cutoff=6)
    ranks = {n: len(om.cubes.nondegenerate(n)) for n in om.cubes.dimensions()}
    assert ranks == {0: 1457, 1: 1730, 2: 388}
    alg = ExtendedCobarComplex(rp2, 2, 6)
    assert {n: alg.complex.rank(n) for n in (0, 1, 2)} == ranks


def test_localized_certificate():
    report = phi_signed_certificate(projective_plane_model(), 2, 6)
    assert report["cells"] == 1457 + 1730 + 388


def s1s2_model():
    return wedge_models(sphere_model(1), sphere_model(2))


@pytest.mark.parametrize(
    "model, max_degree, cutoff, degrees, letters",
    [
        (projective_plane_model, 2, 6, {0: 1457, 1: 1730, 2: 388}, 6),
        (projective_plane_model, 3, 4, {0: 161, 1: 98, 2: 4}, 6),
        (s1s2_model, 3, 4, {0: 9, 1: 13, 2: 1}, 3),
    ],
)
def test_signed_certificate_summaries_match_the_full_column_check(
    model, max_degree, cutoff, degrees, letters
):
    # the column comparison against the phi-on-every-cell oracle
    space = model()
    report = phi_signed_certificate(space, max_degree, cutoff)
    cells = {"cells": sum(degrees.values()), "degrees": degrees}
    assert report == {**cells, "letters": letters}
    omega = extended_cubical_cobar(space, max_degree, cutoff)
    words = ExtendedCobarComplex(space, max_degree, cutoff).complex
    image = lambda cell: phi_signed_cell(space, cell, ZZ)
    assert certify_relabeling(omega, words, image) == cells


def signed_windows():
    """The signed windows these tests build, as cube models."""
    rp2, s1s2 = projective_plane_model(), s1s2_model()
    rp2_windows = ((2, 3), (3, 3), (2, 4), (4, 4), (2, 6), (3, 2), (3, 4), (1, 2))
    windows = [extended_cubical_cobar(rp2, d, c) for d, c in rp2_windows]
    windows.append(extended_cubical_cobar(rp2, 3, 3, ring=GF(3)))
    windows += [extended_cubical_cobar(s1s2, d, c) for d, c in ((3, 4), (2, 3), (1, 2))]
    windows += [extended_cubical_cobar(sphere_model(1), 0, c) for c in (1, 2, 3)]
    return windows


def test_signed_cells_are_the_extended_cobar_words_in_order():
    for om in signed_windows():
        words = ExtendedCobarComplex(om.source, om.max_degree, om.cutoff, om.ring)
        for n in range(om.max_degree + 1):
            assert om.cubes.nondegenerate(n) == words.complex.basis_in(n), (
                om.cubes.name,
                n,
            )


def test_signed_certificate_agrees_with_the_column_oracle_on_every_signed_window():
    windows = signed_windows()
    assert len(windows) == 15
    for om in windows:
        report = phi_signed_certificate(om.source, om.max_degree, om.cutoff, om.ring)
        oracle = certificate_oracle.signed_columns(om)
        assert {k: report[k] for k in oracle} == oracle, om.cubes.name


def test_signed_certificate_builds_no_column(monkeypatch):
    def refused(self, n):
        raise AssertionError("the signed certificate built a column")

    monkeypatch.setattr(ChainComplex, "diff_columns", refused)
    report = phi_signed_certificate(projective_plane_model(), 2, 6)
    assert report["cells"] == 3575


def signed_mutant_windows():
    return [(projective_plane_model(), 2, 4), (s1s2_model(), 2, 3)]


def test_a_wrong_side_in_a_signed_letter_table_fails_the_signed_certificate(
    monkeypatch,
):
    real = loopspace.extended_cubical_cobar
    for (space, max_degree, cutoff), count in zip(signed_mutant_windows(), (8, 4)):
        mutants = 0
        for table in letter_table_mutants(real(space, max_degree, cutoff).cubes._sides):

            def mutant(*args, table=table, **kwargs):
                return with_sides(real(*args, **kwargs), table)

            monkeypatch.setattr(loopspace, "extended_cubical_cobar", mutant)
            with pytest.raises(AssertionError, match="not a chain map") as caught:
                phi_signed_certificate(space, max_degree, cutoff)
            # the per-cell oracle fails first on the same cell
            with pytest.raises(AssertionError) as oracle:
                certificate_oracle.signed_columns(mutant(space, max_degree, cutoff))
            assert str(caught.value) == str(oracle.value)
            mutants += 1
        assert mutants == count, space.name


def negated_extended_letter_values(monkeypatch):
    """Make the extended cobar read -d on each heavy letter."""
    # the package re-exports a function named cobar, which shadows the module
    cobar_module = importlib.import_module("chaintop.cobar")
    real = cobar_module.loc_letter_boundary
    monkeypatch.setattr(
        cobar_module,
        "loc_letter_boundary",
        lambda space, cell, ring: -real(space, cell, ring),
    )


def test_a_negated_extended_letter_value_fails_the_signed_certificate(monkeypatch):
    negated_extended_letter_values(monkeypatch)
    rp2 = projective_plane_model()
    # S^1 v S^2's heavy letter has d = 0, so only RP^2 can tell
    with pytest.raises(AssertionError, match="not a chain map") as caught:
        phi_signed_certificate(rp2, 2, 4)
    with pytest.raises(AssertionError) as oracle:
        certificate_oracle.signed_columns(extended_cubical_cobar(rp2, 2, 4))
    assert str(caught.value) == str(oracle.value)


def test_a_failing_signed_check_carries_a_witness(monkeypatch):
    negated_extended_letter_values(monkeypatch)
    rp2 = projective_plane_model()
    with pytest.raises(AssertionError) as caught:
        phi_signed_certificate(rp2, 2, 4)
    cell, cube, rule = caught.value.witness
    assert str(caught.value) == f"not a chain map on {cell!r}"
    assert cube == extended_cubical_cobar(rp2, 2, 4).chains().diff(cell)
    # the negated letter value turns D(l) = -d(l) into d(l) = -d_cube(l)
    assert cube and rule == -cube


def test_cutoff_required_for_localization():
    with pytest.raises(ValueError):
        extended_cubical_cobar(sphere_model(1), 0)


def test_a_cutoff_alone_picks_the_localized_window():
    rp2 = projective_plane_model()
    for space, max_degree in ((sphere_model(2), 3), (rp2, 2)):
        om = CubicalCobar(space, max_degree, cutoff=2)
        want = extended_cubical_cobar(space, max_degree, 2)
        assert om.signed and (om.cutoff, om.max_length) == (2, None)
        for n in range(max_degree + 1):
            assert om.cubes.nondegenerate(n) == want.cubes.nondegenerate(n)
    with pytest.raises(ValueError, match="not both"):
        CubicalCobar(rp2, 2, max_length=5, cutoff=2)
    plain = CubicalCobar(sphere_model(2), 3)
    assert not plain.signed and plain.cutoff is None


def test_circle_cells_are_reduced_words_in_one_letter():
    s1 = sphere_model(1)
    for c in (1, 2, 3):
        om = extended_cubical_cobar(s1, 0, cutoff=c)
        assert len(om.cubes.nondegenerate(0)) == 2 * c + 1
        assert om.cubes.complete
    om = extended_cubical_cobar(s1, 0, cutoff=2)
    t, tinv = (("s", 1),), (("s", -1),)
    assert om.product(t, tinv) == om.unit() == ()
    assert om.product(t, t) == (("s", 1), ("s", 1))


def test_phi_sends_inverse_cells_to_algebra_inverses():
    s1 = sphere_model(1)
    alg = ExtendedCobarComplex(s1, 0, 2)
    t = phi_signed_cell(s1, (("s", 1),), ZZ)
    tinv = phi_signed_cell(s1, (("s", -1),), ZZ)
    assert alg.product(t, tinv) == alg.unit()
    assert alg.product(tinv, t) == alg.unit()


# --- free simplicial group on positive simplices ---

def test_circle_loop_group_generators():
    g = kan_loop_group(sphere_model(1), 3)
    assert [len(g.generators(n)) for n in range(4)] == [1, 1, 1, 1]
    assert g.generators(0) == (SimplexRef("s", ()),)
    # outer degeneracies die: s0 of anything is the identity
    assert g.bar(SimplexRef("s", (0,))) == ()
    assert g.bar(SimplexRef("p", (1, 0))) == ()


def test_loop_group_face_zero_twists():
    rp2 = projective_plane_model()
    g = kan_loop_group(rp2, 3)
    u = g.bar(rp2.ref("U"))
    assert g.face(1, 0, u) == ((rp2.ref("a"), -1),)
    assert g.face(1, 1, u) == ((rp2.ref("b"), 1),)
    # the other two-cell has a degenerate zero face, so no inverse appears
    l = g.bar(rp2.ref("L"))
    assert g.face(1, 0, l) == ((rp2.ref("a"), 1),)
    assert g.face(1, 1, l) == ((rp2.ref("b"), 1),)


def test_loop_group_simplicial_identities():
    for space in (sphere_model(1), sphere_model(2), projective_plane_model()):
        assert kan_loop_group(space, 3).check_identities() is None


def test_face_commutation_on_projective_plane_degree_two():
    g = kan_loop_group(projective_plane_model(), 3)
    for gen in g.generators(2):
        w = g.bar(gen)
        assert g.face(1, 0, g.face(2, 2, w)) == g.face(1, 1, g.face(2, 0, w))


def test_loop_group_faces_are_homomorphisms():
    rng = random.Random(7)
    for space in (sphere_model(1), projective_plane_model()):
        assert kan_loop_group(space, 2).check_homomorphisms(rng) is None


def test_pi0_of_circle_loops_is_infinite_cyclic():
    p = kan_loop_group(sphere_model(1), 1).pi0()
    assert p.generators == (SimplexRef("s", ()),)
    assert p.relators == ()
    assert p.identify() == "Z"


def test_pi0_of_sphere_loops_is_trivial():
    assert kan_loop_group(sphere_model(2), 1).pi0().identify() == "trivial"


def test_pi0_of_projective_plane_loops_is_order_two():
    p = kan_loop_group(projective_plane_model(), 1).pi0()
    a, b = SimplexRef("a", ()), SimplexRef("b", ())
    assert set(p.relators) == {((a, -1), (b, -1)), ((a, 1), (b, -1))}
    assert p.abelianization() == (0, [2])
    assert p.identify() == "Z/2"


# --- simplex-to-cube collapse ---

def test_collapse_vertex_counts_leading_ones():
    assert collapse_vertex(()) == 0
    assert collapse_vertex((1, 1, 0)) == 2
    assert collapse_vertex((0, 1, 1)) == 0
    assert collapse_vertex((1, 1, 1)) == 3


def test_collapse_sends_vertices_to_constant_cubes():
    s2 = sphere_model(2)
    cs = cartan_serre(s2, 2)
    img = cs.map.apply_key("p")
    ((key, c),) = tuple(img.items())
    assert c == 1 and key[0] == 0


def test_collapse_top_assignment_is_the_simplex_itself():
    s1 = sphere_model(1)
    mc = cartan_serre_cell(s1, "s")
    assert mc.assignment[((0,), (1,))] == SimplexRef("s", ())
    assert mc.assignment[((0,),)] == SimplexRef("p", ())


def test_collapse_is_a_chain_map():
    for n in (2, 3):
        ok, witness = cartan_serre(standard_simplex(n), n).is_chain_map()
        assert ok and witness is None
    ok, witness = cartan_serre(sphere_model(2), 3).is_chain_map()
    assert ok and witness is None


def _push_pair(cs, element, ring):
    out = {}
    for (x, y), c in element.items():
        for kx, cx in cs.map.apply_key(x).items():
            for ky, cy in cs.map.apply_key(y).items():
                add_into(out, ring, (kx, ky), ring.mul(c, ring.mul(cx, cy)))
    return FreeElement(ring, out)


def _natural_for(space, max_degree, op):
    cs = cartan_serre(space, max_degree)
    source_um = simplicial_um(space, ZZ)
    target_um = cubical_um(cs.cubes, ZZ)
    for m in space.dimensions():
        for cell in space.nondegenerate(m):
            x = FreeElement.single(ZZ, cell, ZZ.one)
            lhs = _push_pair(cs, um_action(source_um, op, x), ZZ)
            rhs = um_action(target_um, op, cs.map.apply(x))
            if lhs != rhs:
                return cell
    return None


def test_collapse_is_a_coalgebra_morphism():
    for n in (1, 2, 3):
        assert _natural_for(standard_simplex(n), n, coproduct_graph()) is None


def test_collapse_naturality_for_two_output_generator():
    op = msl_generator(((1, 2), (3,)))
    assert (op.n_in, op.n_out) == (1, 2)
    for n in (1, 2):
        assert _natural_for(standard_simplex(n), n, op) is None


# --- triangulation zigzag ---

def test_zigzag_on_sphere_loops():
    report = zigzag_report(sphere_model(2), 3)
    z = (1, ())
    assert report.cubical_homology == {0: z, 1: z, 2: z, 3: z}
    assert report.triangulated_homology == {0: z, 1: z, 2: z, 3: z}
    assert report.agree
    assert report.inconclusive == ()
    assert report.collapse_is_chain_map
    assert report.unit_is_chain_map
    assert report.unit_injective
    assert report.as_dict()["cubical"]["2"] == {"rank": 1, "torsion": []}


@pytest.mark.parametrize("model, rank", [(projective_plane_model, 15), (s1s2_model, 5)])
def test_zigzag_on_localized_models_with_heavy_letters(model, rank):
    space = model()
    assert zigzag_report(space, 1, cutoff=2).as_dict() == {
        "space": space.name,
        "range": 1,
        "cubical": {"0": {"rank": rank, "torsion": []}, "1": None},
        "triangulated": {"0": {"rank": rank, "torsion": []}, "1": None},
        "agree": True,
        "inconclusive": (("cubical", 1), ("triangulated", 1)),
        "collapse_chain_map": True,
        "unit_chain_map": True,
        "unit_injective": True,
    }


def test_zigzag_on_localized_circle():
    for c in (1, 2, 3):
        report = zigzag_report(sphere_model(1), 0, cutoff=c)
        assert report.cubical_homology[0] == (2 * c + 1, ())
        assert report.triangulated_homology[0] == (2 * c + 1, ())
        assert report.agree and report.unit_injective
        assert report.collapse_is_chain_map and report.unit_is_chain_map


# --- operations transported through the relabeling ---

def test_transport_of_identity_is_identity():
    om = cubical_cobar(sphere_model(2), 4)
    for w in [(), ("s",), ("s", "s")]:
        out = cobar_um_structure(om, identity_graph(1), w)
        assert out == el(ZZ, ((w,), 1))


def test_transported_coproduct_frozen_values():
    om = cubical_cobar(sphere_model(2), 4)
    cop = coproduct_graph()
    assert cobar_um_structure(om, cop, ()) == el(ZZ, (((), ()), 1))
    s = ("s",)
    assert cobar_um_structure(om, cop, s) == el(
        ZZ, (((), s), 1), ((s, ()), 1)
    )
    ss = ("s", "s")
    assert cobar_um_structure(om, cop, ss) == el(
        ZZ, (((), ss), 1), ((ss, ()), 1)
    )


def test_transported_counit_kills_positive_words():
    om = cubical_cobar(sphere_model(2), 4)
    eps = counit_graph()
    assert cobar_um_structure(om, eps, ()) == el(ZZ, ((), 1))
    assert cobar_um_structure(om, eps, ("s",)).is_zero()


def test_transported_coproduct_is_coassociative_and_counital():
    om = cubical_cobar(sphere_model(2), 5)
    cop = coproduct_graph()
    one = identity_graph(1)
    left = compose_graphs(cop, tensor_graphs(cop, one))
    right = compose_graphs(cop, tensor_graphs(one, cop))
    lcounit = compose_graphs(cop, tensor_graphs(counit_graph(), one))
    rcounit = compose_graphs(cop, tensor_graphs(one, counit_graph()))
    for k in range(5):
        w = ("s",) * k
        assert cobar_um_structure(om, left, w) == cobar_um_structure(
            om, right, w
        )
        ident = el(ZZ, ((w,), 1))
        assert cobar_um_structure(om, lcounit, w) == ident
        assert cobar_um_structure(om, rcounit, w) == ident


def test_transport_refuses_the_localized_model():
    om = extended_cubical_cobar(sphere_model(1), 0, cutoff=1)
    with pytest.raises(ValueError):
        cobar_um_structure(om, identity_graph(1), ())


def test_interval_style_self_pairing():
    om = cubical_cobar(sphere_model(2), 5, ring=GF(2))
    s = ("s",)
    assert cobar_psi(om, 2, 1, s, GF(2)) == el(GF(2), ((s, s), 1))
    sss = ("s",) * 3
    assert cobar_psi(om, 2, 1, sss, GF(2)) == el(
        GF(2), ((("s",), sss), 1), ((sss, ("s",)), 1)
    )


def test_cup_one_measures_cocommutativity():
    two = GF(2)
    om = cubical_cobar(sphere_model(2), 5, ring=two)
    alg = cobar(sphere_model(2), 5, two)

    def flip(element):
        out = {}
        for (x, y), c in element.items():
            add_into(out, two, (y, x), c)
        return FreeElement(two, out)

    for k in range(5):
        w = ("s",) * k
        d0 = cobar_psi(om, 2, 0, w, two)
        d1 = cobar_psi(om, 2, 1, w, two)
        # the source word is a cycle here, so only the outer boundary acts
        assert tensor_diff(alg.complex, d1) == d0 + flip(d0)


# --- fuzzing ---

def test_random_reduced_models_give_valid_windows():
    for seed in range(5):
        rng = random.Random(seed)
        space = random_reduced_model(rng)
        om = cubical_cobar(space, 3, max_length=3)
        om.cubes.validate()
        chains = om.chains()
        assert chains.d_squared_witness() is None


def test_random_reduced_models_satisfy_the_relabeling():
    rng = random.Random(11)
    space = random_reduced_model(rng)
    om = cubical_cobar(space, 3, max_length=3)
    chains = om.chains()
    wide = cobar(space, 3, ZZ, om.budget(0) + 1 if om.max_length else None)
    for n in chains.degrees():
        for cell in chains.basis_in(n):
            lhs = phi_chain(space, chains.diff(cell), ZZ)
            rhs = wide.complex.diff_element(phi_cell(space, cell, ZZ))
            assert lhs == rhs
