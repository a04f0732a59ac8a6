"""A simplicial set stores each cell's faces as one tuple, and the cobars
compute one letter value per distinct face tuple.

The collapse walk is checked against its (cell, i) version
(`collapse_oracle`), every letter table against `letter_boundary` with
each split built on its own, and the constructor's error paths against
the messages and exit codes they have always had.
"""

import importlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chaintop.cli import EXIT_INPUT, main
from chaintop.cobar import cobar, expand_word, extended_cobar
from chaintop.rings import ZZ
from chaintop.simplicial import (
    SimplexRef,
    SimplicialSet,
    collapse_free_pairs,
    projective_plane_model,
    random_reduced_model,
    simplicial_from_json,
    simplicial_to_json,
    sphere_model,
    wedge_models,
)

from collapse_oracle import collapse_by_face_keys, face_table
from shared_models import collapsed_simplex, relabeled_json
from test_cobar import letter_boundary_by_faces

cobar_module = importlib.import_module("chaintop.cobar")


def s2s2s3():
    return wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))


@st.composite
def drawn_models(draw):
    """A random reduced model, a wedge of two, or one of them read back
    from its JSON form with cells renamed and reordered."""
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    space = random_reduced_model(rng, max_dim=5, max_cells_per_degree=10)
    form = draw(st.sampled_from(("plain", "wedge", "json")))
    if form == "wedge":
        space = wedge_models(space, random_reduced_model(rng, max_dim=4))
    elif form == "json":
        space = simplicial_from_json(relabeled_json(space, seed))
    return space


def assert_one_tuple_per_cell(space):
    positive = [cid for n in space.dimensions() if n for cid in space.nondegenerate(n)]
    assert space._faces.keys() == set(positive)
    for cid in positive:
        stored = space._faces[cid]
        assert type(stored) is tuple and len(stored) == space.dim_of(cid) + 1
        assert space.faces(cid) is stored
        assert all(space.face(cid, i) is ref for i, ref in enumerate(stored))


def test_collapse_keeps_what_the_face_key_walk_keeps_on_seeded_models():
    spaces = [collapsed_simplex(n, k) for n, k in ((5, 2), (4, 1), (5, 1), (6, 2))]
    spaces += [
        random_reduced_model(random.Random(seed), max_dim=5, max_cells_per_degree=10)
        for seed in range(60)
    ]
    for seed, space in enumerate(spaces):
        assert_collapse_keeps_what_the_face_key_walk_keeps(space)
        renamed = simplicial_from_json(relabeled_json(space, seed))
        assert_collapse_keeps_what_the_face_key_walk_keeps(renamed)


@settings(max_examples=80, deadline=None)
@given(drawn_models())
def test_collapse_keeps_what_the_face_key_walk_keeps(space):
    assert_collapse_keeps_what_the_face_key_walk_keeps(space)


def assert_collapse_keeps_what_the_face_key_walk_keeps(space):
    small = collapse_free_pairs(space).source
    cells, faces = collapse_by_face_keys(space)
    assert list(small.cells.items()) == list(cells.items())
    assert list(face_table(small).items()) == list(faces.items())
    assert_one_tuple_per_cell(space)
    assert_one_tuple_per_cell(small)
    # Y keeps the very tuples of the cells it keeps
    assert all(small.faces(cid) is space.faces(cid) for cid in small._faces)


@settings(max_examples=80, deadline=None)
@given(drawn_models())
def test_every_face_reads_back_as_given(space):
    given_faces = {cid: tuple(space.faces(cid)) for cid in space._faces}
    built = SimplicialSet(space.name, space.cells, given_faces)
    for cid, refs in given_faces.items():
        # a tuple is stored as it is given
        assert built.faces(cid) is refs
        for i, ref in enumerate(refs):
            assert built.face(cid, i) is ref
    doc = simplicial_to_json(space)
    loaded = simplicial_from_json(doc)
    for cid, entries in doc["faces"].items():
        for i, (base, word) in enumerate(entries):
            assert loaded.face(cid, i) == SimplexRef(base, word)
    assert_one_tuple_per_cell(built)
    assert_one_tuple_per_cell(loaded)


def test_face_keeps_its_range_check():
    rp2 = projective_plane_model()
    for cid, i, n in (("U", 3, 2), ("U", -1, 2), ("a", 2, 1), ("p", 0, 0)):
        with pytest.raises(ValueError, match=rf"^face index {i} out of range for dimension {n}$"):
            rp2.face(cid, i)
    with pytest.raises(KeyError, match="unknown cell id: 'x'"):
        rp2.face("x", 0)
    assert rp2.faces("p") == ()
    with pytest.raises(KeyError, match="unknown cell id: 'x'"):
        rp2.faces("x")


def fixed_models():
    """Models with letters of one dimension whose faces differ (RP^2's U
    and L) and with letters that share their faces (the wedges)."""
    models = [projective_plane_model(), s2s2s3()]
    models += [collapsed_simplex(n, k) for n, k in ((5, 2), (4, 1), (5, 1))]
    return models + [collapse_free_pairs(space).source for space in models[2:]]


def expanded_by_faces(space, cell):
    return letter_boundary_by_faces(space, cell).map_terms(
        lambda word: expand_word(space, word, ZZ)
    )


def assert_letter_tables_agree(space):
    plain = cobar(space, 2, ZZ, max_length=2)
    for n in space.dimensions():
        for cell in space.nondegenerate(n) if n else ():
            terms, degree = plain._letters[cell]
            assert terms == letter_boundary_by_faces(space, cell).terms, cell
            assert degree == n - 1
    local = extended_cobar(space, 1, cutoff=2)
    for cell in space.nondegenerate(1):
        assert local._letters[cell, 1] == local._letters[cell, -1] == (None, 0)
    for n in space.dimensions():
        for cell in space.nondegenerate(n) if n > 1 else ():
            terms, degree = local._letters[cell, 1]
            assert terms == expanded_by_faces(space, cell).terms, cell
            assert degree == n - 1


def test_letter_tables_agree_letter_by_letter_on_fixed_models():
    for space in fixed_models():
        assert_letter_tables_agree(space)


@settings(max_examples=40, deadline=None)
@given(drawn_models())
def test_letter_tables_agree_letter_by_letter(space):
    assert_letter_tables_agree(space)


@pytest.mark.parametrize(
    "name, space, calls",
    [
        ("d5c2", collapsed_simplex(5, 2), 1),
        ("d4c1", collapsed_simplex(4, 1), 1),
        ("s2s2s3", s2s2s3(), 2),
    ],
)
def test_letters_with_equal_faces_share_one_boundary_call(monkeypatch, name, space, calls):
    seen = []
    real = cobar_module.letter_boundary

    def counted(space, cell, ring):
        seen.append(cell)
        return real(space, cell, ring)

    monkeypatch.setattr(cobar_module, "letter_boundary", counted)
    # as the CLI reads a model: collapsed, and from JSON with new names
    for loaded in (space, simplicial_from_json(relabeled_json(space, 3))):
        small = collapse_free_pairs(loaded).source
        seen.clear()
        cobar(small, 3)
        assert len(seen) == calls, name
        seen.clear()
        extended_cobar(small, 1, cutoff=1)
        assert len(seen) == calls, name


# --- the constructor's error paths ---

POINT2 = ["p", [1, 0]]


def broken_docs():
    """JSON models of RP^2 with one fault each, and the message each
    raises; the messages are those the constructor has always given."""
    rp2 = simplicial_to_json(projective_plane_model())

    def fault(edit):
        doc = json.loads(json.dumps(rp2))
        edit(doc)
        return doc

    return [
        (
            fault(lambda doc: doc["faces"]["U"].pop()),
            ValueError,
            "cell 'U' of dimension 2 needs 3 faces",
        ),
        (
            fault(lambda doc: doc["faces"]["U"].__setitem__(1, ["U", []])),
            ValueError,
            "face 1 of 'U' has dimension 2, expected 1",
        ),
        (
            fault(lambda doc: doc["faces"]["L"].__setitem__(2, POINT2)),
            ValueError,
            "face 2 of 'L' has dimension 2, expected 1",
        ),
        # an unknown base has no dimension: the message is the lookup's
        (
            fault(lambda doc: doc["faces"]["U"].__setitem__(0, ["zz", []])),
            KeyError,
            "\"unknown cell id: 'zz'\"",
        ),
        (
            fault(lambda doc: doc["faces"].pop("L")),
            ValueError,
            "cell 'L' has no faces given",
        ),
        (
            fault(lambda doc: doc["faces"].__setitem__("p", [])),
            ValueError,
            "cell 'p' of dimension 0 needs 1 faces",
        ),
    ]


def constructor_args(doc):
    return (
        doc["name"],
        {int(n): ids for n, ids in doc["cells"].items()},
        {cid: [SimplexRef(base, word) for base, word in refs] for cid, refs in doc["faces"].items()},
    )


@pytest.mark.parametrize("case", range(6))
def test_constructor_errors_keep_their_messages(case):
    doc, error, message = broken_docs()[case]
    with pytest.raises(error) as info:
        SimplicialSet(*constructor_args(doc))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("case", range(6))
def test_loaded_models_report_constructor_errors(case):
    doc, _, message = broken_docs()[case]
    with pytest.raises(ValueError) as info:
        simplicial_from_json(doc)
    assert str(info.value) == f"invalid simplicial set: {message}"


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("command", ["homology", "cobar", "loop", "cobar-ext"])
def test_cli_exits_4_on_constructor_errors(tmp_path, capsys, case, command):
    doc, _, message = broken_docs()[case]
    model = tmp_path / "broken.json"
    model.write_text(json.dumps(doc))
    assert main([command, str(model), "--format", "json"]) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: invalid simplicial set: {message}\n"
