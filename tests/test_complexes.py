import random

import pytest

from chaintop.cobar import CobarComplex, cobar, extended_cobar
from chaintop.complexes import ChainComplex, GradedLinearMap, tensor_complex
from chaintop.cubical import cubical_chains, standard_cube
from chaintop.freemod import FreeElement
from chaintop.loopspace import cubical_cobar
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import normalized_chains, projective_plane_model, random_reduced_model


def interval():
    # chains on the 1-simplex: d(e) = v1 - v0
    def diff(key):
        if key == "e":
            return FreeElement(ZZ, {"v1": 1, "v0": -1})
        return FreeElement.zero(ZZ)

    return ChainComplex(ZZ, {0: ["v0", "v1"], 1: ["e"]}, diff, complete=True, name="interval")


def projective_plane_chains():
    def diff(key):
        if key == "U":
            return FreeElement(ZZ, {"a": 1, "b": 1})
        if key == "L":
            return FreeElement(ZZ, {"b": 1, "a": -1})
        return FreeElement.zero(ZZ)

    return ChainComplex(
        ZZ, {0: ["p"], 1: ["a", "b"], 2: ["U", "L"]}, diff, complete=True, name="rp2"
    )


def test_basis_bookkeeping():
    c = interval()
    assert c.degrees() == [0, 1]
    assert c.rank(0) == 2 and c.rank(5) == 0
    assert c.degree_of("e") == 1
    with pytest.raises(KeyError):
        c.degree_of("missing")
    with pytest.raises(ValueError):
        ChainComplex(ZZ, {0: ["x"], 1: ["x"]}, lambda k: None)


def test_bases_given_as_iterators_are_kept_and_empty_degrees_dropped():
    from chaintop.cubical import CubeMorphism, CubeRef, CubicalSet
    from chaintop.simplicial import SimplexRef, SimplicialSet

    c = ChainComplex(ZZ, {0: iter(["v"]), 1: (k for k in ["e"]), 2: iter([])}, lambda k: None)
    assert c.basis == {0: ("v",), 1: ("e",)}
    assert c.degrees() == [0, 1] and c.degree_of("e") == 1

    point = CubeRef("p", CubeMorphism.identity(0))
    cubes = CubicalSet(
        "interval",
        {0: iter(["p"]), 1: (k for k in ["e"]), 2: iter([])},
        {("e", 1, 0): point, ("e", 1, 1): point},
    )
    assert cubes.cells == {0: ("p",), 1: ("e",)}
    assert cubes.dimensions() == [0, 1] and cubes.dim_of("e") == 1

    faces = {"e": (SimplexRef("p"), SimplexRef("p"))}
    circle = SimplicialSet("circle", {0: iter(["p"]), 1: (k for k in ["e"]), 2: iter([])}, faces)
    assert circle.cells == {0: ("p",), 1: ("e",)}
    assert circle.dimensions() == [0, 1] and circle.dim_of("e") == 1


def test_diff_validation():
    def bad(key):
        return FreeElement(ZZ, {"v0": 1}) if key == "e" else FreeElement.zero(ZZ)

    c = ChainComplex(ZZ, {0: ["v0"], 2: ["e"]}, bad)
    with pytest.raises(ValueError):
        c.diff("e")


def test_d_squared_witness():
    assert interval().d_squared_witness() is None
    assert projective_plane_chains().d_squared_witness() is None

    def broken(key):
        if key == "t":
            return FreeElement(ZZ, {"e": 1})
        if key == "e":
            return FreeElement(ZZ, {"v0": 1})
        return FreeElement.zero(ZZ)

    c = ChainComplex(ZZ, {0: ["v0"], 1: ["e"], 2: ["t"]}, broken)
    witness = c.d_squared_witness()
    assert witness is not None and witness[0] == "t"


def per_key_columns(complex_, n):
    """diff_columns as it was: each key through the checked, cached diff."""
    index = {key: i for i, key in enumerate(complex_.basis_in(n - 1))}
    return [
        {index[out_key]: coeff for out_key, coeff in complex_.diff(key).items()}
        for key in complex_.basis_in(n)
    ]


def per_key_witness(complex_, degrees=None):
    """d_squared_witness as it was: d(d(key)) key by key through diff."""
    if degrees is None:
        degrees = [n for n in complex_.degrees() if n - 2 >= complex_.min_degree - 1]
    for n in sorted(degrees):
        for key in complex_.basis_in(n):
            dd = complex_.diff_element(complex_.diff(key))
            if not dd.is_zero():
                return key, dd
    return None


def typed(columns):
    # Fraction(1) == 1, so compare the type of every entry too
    return [[(i, type(c), c) for i, c in col.items()] for col in columns]


def column_windows(ring):
    """Complexes of every kind whose d_n is read as columns."""
    rp2 = projective_plane_model()
    omega = cubical_cobar(rp2, 3, max_length=2, ring=ring)
    yield lambda: cobar(rp2, 3, ring, max_length=2).complex
    yield lambda: CobarComplex(rp2, 3, ring, omega.budget).complex
    yield lambda: cubical_cobar(rp2, 3, max_length=2, ring=ring).chains()
    yield lambda: cubical_chains(standard_cube(3), None, ring)
    yield lambda: normalized_chains(rp2, None, ring)
    yield lambda: extended_cobar(rp2, 2, 4, ring).complex
    for seed in range(4):
        space = random_reduced_model(random.Random(seed))
        length = 3 if space.nondegenerate(1) else None
        yield lambda space=space, length=length: cobar(space, 4, ring, length).complex
        yield lambda space=space: normalized_chains(space, None, ring)


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=str)
def test_diff_columns_match_the_per_key_construction(ring):
    for build in column_windows(ring):
        complex_ = build()
        oracle = build()
        for n in range(complex_.min_degree, complex_.max_degree + 2):
            columns = complex_.diff_columns(n)
            assert typed(columns) == typed(per_key_columns(oracle, n)), (
                complex_.name,
                n,
            )
            # d_n is built once, and its zero columns are one dict
            assert complex_.diff_columns(n) is columns
            assert len({id(col) for col in columns if not col}) <= 1
        # the columns are read from the rule, not through the per-key cache
        assert not complex_._diff_cache


def test_diff_columns_raise_the_error_of_diff():
    def leaves(key):
        if key == "e":
            return FreeElement(ZZ, {"v0": 1})
        if key == "f":
            return FreeElement(ZZ, {"nowhere": 1})
        return FreeElement.zero(ZZ)

    def build():
        return ChainComplex(ZZ, {0: ["v0"], 2: ["e"], 4: ["f"]}, leaves)

    for key, n in (("e", 2), ("f", 4)):
        with pytest.raises(ValueError) as per_key:
            build().diff(key)
        with pytest.raises(ValueError) as columns:
            build().diff_columns(n)
        assert str(columns.value) == str(per_key.value)


def table_complex(ring, basis, table):
    return ChainComplex(ring, basis, lambda key: FreeElement(ring, table.get(key, {})))


def test_d_squared_witness_matches_the_per_key_sweep():
    def broken():
        # the complex of test_d_squared_witness
        return table_complex(ZZ, {0: ["v0"], 1: ["e"], 2: ["t"]}, {"t": {"e": 1}, "e": {"v0": 1}})

    # d(t) = e + f has d^2 = 2v, which vanishes mod 2; d(u) = s never does
    basis = {0: ["v"], 1: ["e", "f"], 2: ["s", "t"], 3: ["u"]}
    table = {
        "e": {"v": 1},
        "f": {"v": 1},
        "s": {"e": 1, "f": -1},
        "t": {"e": 1, "f": 1},
        "u": {"s": 1},
    }
    builds = [interval, projective_plane_chains, broken]
    builds += [
        lambda ring=ring: table_complex(ring, basis, table) for ring in (ZZ, GF(2), GF(3), QQ)
    ]
    rp2 = projective_plane_model()
    builds += [
        lambda: cobar(rp2, 3, ZZ, max_length=2).complex,
        lambda: extended_cobar(rp2, 2, 4, GF(3)).complex,
    ]
    for build in builds:
        for degrees in (None, [3], [3, 2], [1, 5]):
            # None, or the same key with the same d(d(key))
            witness = build().d_squared_witness(degrees)
            assert witness == per_key_witness(build(), degrees), (build().name, degrees)
    assert table_complex(ZZ, basis, table).d_squared_witness()[0] == "t"
    assert table_complex(GF(2), basis, table).d_squared_witness()[0] == "u"


def test_diff_matrix_layout():
    c = projective_plane_chains()
    assert c.diff_matrix(2) == [[1, -1], [1, 1]]
    assert c.diff_matrix(1) == [[0, 0]]


def test_tensor_complex_leibniz():
    c = interval()
    t = tensor_complex(c, c)
    assert t.rank(0) == 4 and t.rank(1) == 4 and t.rank(2) == 1
    d_ee = t.diff(("e", "e"))
    assert d_ee == FreeElement(
        ZZ, {("v1", "e"): 1, ("v0", "e"): -1, ("e", "v1"): -1, ("e", "v0"): 1}
    )
    assert t.d_squared_witness() is None
    assert t.complete


def test_tensor_complex_truncation():
    c = interval()
    t = tensor_complex(c, c, max_degree=1)
    assert t.max_degree == 1 and not t.complete


def test_chain_map_identity_and_witness():
    c = interval()
    ident = GradedLinearMap(c, c, 0, lambda k: FreeElement.single(ZZ, k))
    ok, witness = ident.is_chain_map()
    assert ok and witness is None

    swap = {"v0": "v1", "v1": "v0", "e": "e"}
    bad = GradedLinearMap(c, c, 0, lambda k: FreeElement.single(ZZ, swap[k]))
    ok, witness = bad.is_chain_map()
    assert not ok
    key, lhs, rhs = witness
    assert key == "e" and lhs == -rhs


def test_chain_map_shift_sign():
    # f of degree 1 must satisfy f(dx) = -d(fx); the suspension-style map
    # e -> (e, e) against the tensor square exercises the sign
    c = interval()
    t = tensor_complex(c, c)

    def rule(key):
        if key == "e":
            return FreeElement.zero(ZZ)
        # vertex v goes to v ox e - e ox v, a degree 1 map with zero boundary
        # contribution matching f(d e) for neither endpoint, so use zero map
        return FreeElement.zero(ZZ)

    zero_map = GradedLinearMap(c, t, 1, rule)
    ok, _ = zero_map.is_chain_map()
    assert ok

    def bad_rule(key):
        if key == "v0":
            return FreeElement.single(ZZ, ("v0", "e"))
        return FreeElement.zero(ZZ)

    bad = GradedLinearMap(c, t, 1, bad_rule)
    ok, witness = bad.is_chain_map()
    assert not ok and witness[0] == "e"


def test_map_degree_validation():
    c = interval()
    wrong = GradedLinearMap(c, c, 1, lambda k: FreeElement.single(ZZ, k))
    with pytest.raises(ValueError):
        wrong.apply_key("v0")
    with pytest.raises(ValueError):
        GradedLinearMap(c, ChainComplex(QQ, {0: ["x"]}, lambda k: None), 0, lambda k: None)
