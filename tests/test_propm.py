import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintop.cubical import CubeBialgebra
from chaintop.freemod import FreeElement
from chaintop.propm import (
    PropGraph,
    PsiMachine,
    WResolution,
    compose_graphs,
    coproduct_graph,
    counit_graph,
    evaluate,
    graph_boundary,
    hopf_coproduct,
    hopf_counit,
    identity_graph,
    join_graph,
    msl_generator,
    permutation_graph,
    random_linear_extension,
    random_prop_graph,
    reorder_sign,
    reorder_vertices,
    tensor_graphs,
)
from chaintop.rings import GF, ZZ
from chaintop.simplicial import SimplexBialgebra, aw_coproduct

from tensor_boundary import tensor_diff


def all_cells(bial):
    for n in bial.complex.degrees():
        yield from bial.complex.basis_in(n)


def el(ring, *pairs):
    return FreeElement(ring, {k: ring.from_int(c) for k, c in pairs})


LEFT_COUNIT = compose_graphs(
    coproduct_graph(), tensor_graphs(counit_graph(), identity_graph(1))
)
RIGHT_COUNIT = compose_graphs(
    coproduct_graph(), tensor_graphs(identity_graph(1), counit_graph())
)
COASSOC_L = compose_graphs(
    coproduct_graph(), tensor_graphs(coproduct_graph(), identity_graph(1))
)
COASSOC_R = compose_graphs(
    coproduct_graph(), tensor_graphs(identity_graph(1), coproduct_graph())
)
PRODUCT_COUNIT = compose_graphs(join_graph(), counit_graph())


# --- construction ---

def test_validation_errors():
    with pytest.raises(ValueError):
        PropGraph(1, 1, ("eps",), ((("in", 0),),), (("in", 0),))  # reused
    with pytest.raises(ValueError):
        PropGraph(1, 0, ("eps",), ((("in", 1),),), ())  # unknown leg
    with pytest.raises(ValueError):
        PropGraph(1, 1, (), (), ())  # wrong out count
    with pytest.raises(ValueError):
        PropGraph(2, 2, (), (), (("in", 0), ("in", 0)))  # double use
    with pytest.raises(ValueError):
        # vertex consumes a later vertex's output
        PropGraph(
            1,
            2,
            ("delta", "delta"),
            ((("v", 1, 0),), (("in", 0),)),
            (("v", 0, 0), ("v", 0, 1)),
        )
    with pytest.raises(ValueError):
        PropGraph(1, 1, ("frob",), ((("in", 0),),), (("v", 0, 0),))


def test_degree_and_composition():
    g = compose_graphs(coproduct_graph(), join_graph())
    assert g.n_in == 1 and g.n_out == 1 and g.degree == 1
    t = tensor_graphs(counit_graph(), counit_graph())
    assert (t.n_in, t.n_out, t.degree) == (2, 0, 0)
    with pytest.raises(ValueError):
        compose_graphs(coproduct_graph(), coproduct_graph())


# --- evaluation ---

def test_evaluate_coproduct_matches_aw():
    bial = SimplexBialgebra(2)
    key = (0, 1, 2)
    got = evaluate(coproduct_graph(), bial, (key,))
    expected = aw_coproduct(bial.space, key, bial.ring)
    assert got == expected


def test_evaluate_join_frozen():
    bial = SimplexBialgebra(2)
    out = evaluate(join_graph(), bial, ((0,), (1,)))
    assert out == el(ZZ, (((0, 1),), 1))
    out = evaluate(join_graph(), bial, ((1,), (0,)))
    assert out == el(ZZ, (((0, 1),), -1))


def test_prop_relations_small():
    for bial in (SimplexBialgebra(2), CubeBialgebra(2)):
        for x in all_cells(bial):
            ident = el(bial.ring, ((x,), 1))
            assert evaluate(LEFT_COUNIT, bial, (x,)) == ident
            assert evaluate(RIGHT_COUNIT, bial, (x,)) == ident
            assert evaluate(COASSOC_L, bial, (x,)) == evaluate(
                COASSOC_R, bial, (x,)
            )
        for x in all_cells(bial):
            for y in all_cells(bial):
                assert evaluate(PRODUCT_COUNIT, bial, (x, y)).is_zero()


def test_permutation_graph_koszul():
    bial = SimplexBialgebra(1)
    swap = permutation_graph((1, 0))
    out = evaluate(swap, bial, ((0, 1), (0, 1)))
    assert out == el(ZZ, ((((0, 1), (0, 1))), -1))
    out = evaluate(swap, bial, ((0,), (0, 1)))
    assert out == el(ZZ, ((((0, 1), (0,))), 1))


# --- boundary ---

def test_boundary_frozen():
    b = graph_boundary(join_graph())
    eats_first = PropGraph(2, 1, ("eps",), ((("in", 0),),), (("in", 1),))
    eats_second = PropGraph(2, 1, ("eps",), ((("in", 1),),), (("in", 0),))
    assert b == el(ZZ, (eats_first, 1), (eats_second, -1))
    assert graph_boundary(counit_graph()).is_zero()
    assert graph_boundary(coproduct_graph()).is_zero()


def boundary_of_element(element, ring):
    out = FreeElement.zero(ring)
    for g, c in element.items():
        out = out + graph_boundary(g, ring).scale(c)
    return out


def test_boundary_squared_double_join():
    g = compose_graphs(
        tensor_graphs(join_graph(), identity_graph(1)), join_graph()
    )
    assert g.degree == 2
    assert boundary_of_element(graph_boundary(g), ZZ).is_zero()


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_boundary_squared_random(seed):
    rng = random.Random(seed)
    g = random_prop_graph(rng, max_vertices=6, max_stars=3)
    assert boundary_of_element(graph_boundary(g), ZZ).is_zero()


def tensor_output_diff(bial, element):
    ring = bial.ring
    out = FreeElement.zero(ring)
    for key, c in element.items():
        sign = 1
        for j, x in enumerate(key):
            for face, c2 in bial.complex.diff(x).items():
                new_key = key[:j] + (face,) + key[j + 1 :]
                out = out + el(ring, (new_key, 1)).scale(
                    ring.mul(ring.mul(c, c2), ring.from_int(sign))
                )
            if bial.degree(x) % 2:
                sign = -sign
    return out


def hom_leibniz_defect(g, bial, inputs):
    # d(F(x)) - (dF)(x) - (-1)^{|F|} F(dx), expanded over the graph boundary
    ring = bial.ring
    lhs = tensor_output_diff(bial, evaluate(g, bial, inputs))
    rhs = FreeElement.zero(ring)
    for g2, c in graph_boundary(g, ring).items():
        rhs = rhs + evaluate(g2, bial, inputs).scale(c)
    sign = 1
    op_sign = ring.from_int(-1 if g.degree % 2 else 1)
    for i, x in enumerate(inputs):
        for face, c in bial.complex.diff(x).items():
            new_inputs = inputs[:i] + (face,) + inputs[i + 1 :]
            rhs = rhs + evaluate(g, bial, new_inputs).scale(
                ring.mul(ring.mul(op_sign, c), ring.from_int(sign))
            )
        if bial.degree(x) % 2:
            sign = -sign
    return lhs - rhs


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_evaluation_hom_leibniz(seed):
    rng = random.Random(seed)
    g = random_prop_graph(rng, max_vertices=4, max_stars=2)
    for bial in (SimplexBialgebra(2), CubeBialgebra(2)):
        cells = list(all_cells(bial))
        inputs = tuple(rng.choice(cells) for _ in range(g.n_in))
        assert hom_leibniz_defect(g, bial, inputs).is_zero(), (g, inputs)


def test_vertex_order_independence():
    rng = random.Random(11)
    bial = SimplexBialgebra(2)
    cells = list(all_cells(bial))
    done = 0
    while done < 20:
        g = random_prop_graph(rng, max_vertices=5, max_stars=3)
        if not g.kinds:
            continue
        order = random_linear_extension(g, rng)
        h = reorder_vertices(g, order)
        sign = reorder_sign(g, order)
        inputs = tuple(rng.choice(cells) for _ in range(g.n_in))
        left = evaluate(h, bial, inputs)
        right = evaluate(g, bial, inputs).scale(ZZ.from_int(sign))
        assert left == right, (g, order)
        done += 1


# --- hopf structure ---

def test_hopf_frozen_generators():
    ring = ZZ
    a_sub = PropGraph(2, 1, ("eps",), ((("in", 1),),), (("in", 0),))
    b_sub = PropGraph(2, 1, ("eps",), ((("in", 0),),), (("in", 1),))
    assert hopf_coproduct(join_graph(), ring) == el(
        ring, ((a_sub, join_graph()), 1), ((join_graph(), b_sub), 1)
    )
    d = coproduct_graph()
    assert hopf_coproduct(d, ring) == el(ring, ((d, d), 1))
    e = counit_graph()
    assert hopf_coproduct(e, ring) == el(ring, ((e, e), 1))
    assert hopf_counit(join_graph(), ring) == ring.zero
    assert hopf_counit(d, ring) == ring.one


def test_hopf_counitality():
    rng = random.Random(3)
    ring = ZZ
    for _ in range(20):
        g = random_prop_graph(rng, max_vertices=5, max_stars=3)
        left = {}
        right = {}
        for (l, r), c in hopf_coproduct(g, ring).items():
            cl = hopf_counit(l, ring)
            if not ring.is_zero(cl):
                right[r] = ring.add(right.get(r, ring.zero), ring.mul(cl, c))
            cr = hopf_counit(r, ring)
            if not ring.is_zero(cr):
                left[l] = ring.add(left.get(l, ring.zero), ring.mul(c, cr))
        assert FreeElement(ring, left) == el(ring, (g, 1))
        assert FreeElement(ring, right) == el(ring, (g, 1))


def hopf_of_element(element, ring):
    out = FreeElement.zero(ring)
    for g, c in element.items():
        out = out + hopf_coproduct(g, ring).scale(c)
    return out


def pair_boundary(element, ring):
    out = {}
    for (l, r), c in element.items():
        for l2, c2 in graph_boundary(l, ring).items():
            key = (l2, r)
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(c, c2))
        sign = ring.from_int(-1 if l.degree % 2 else 1)
        for r2, c2 in graph_boundary(r, ring).items():
            key = (l, r2)
            out[key] = ring.add(
                out.get(key, ring.zero), ring.mul(ring.mul(c, c2), sign)
            )
    return FreeElement(ring, {k: v for k, v in out.items() if not ring.is_zero(v)})


def test_hopf_chain_map():
    ring = ZZ
    cases = [
        join_graph(),
        compose_graphs(tensor_graphs(join_graph(), identity_graph(1)), join_graph()),
        compose_graphs(coproduct_graph(), join_graph()),
    ]
    rng = random.Random(5)
    for _ in range(10):
        cases.append(random_prop_graph(rng, max_vertices=5, max_stars=2))
    for g in cases:
        lhs = hopf_of_element(graph_boundary(g, ring), ring)
        rhs = pair_boundary(hopf_coproduct(g, ring), ring)
        assert lhs == rhs, g


def test_hopf_multiplicative():
    ring = ZZ
    rng = random.Random(9)
    done = 0
    while done < 10:
        g = random_prop_graph(rng, max_vertices=4, max_stars=2)
        h = random_prop_graph(rng, n_in=g.n_out, max_vertices=4, max_stars=2)
        composite = compose_graphs(g, h)
        lhs = hopf_coproduct(composite, ring)
        terms = {}
        # composite is h after g, so the Koszul swap moves hr past gl
        for (gl, gr), c in hopf_coproduct(g, ring).items():
            for (hl, hr), c2 in hopf_coproduct(h, ring).items():
                sign = -1 if (hr.degree % 2 and gl.degree % 2) else 1
                key = (compose_graphs(gl, hl), compose_graphs(gr, hr))
                coeff = ring.mul(ring.mul(c, c2), ring.from_int(sign))
                terms[key] = ring.add(terms.get(key, ring.zero), coeff)
        rhs = FreeElement(
            ring, {k: v for k, v in terms.items() if not ring.is_zero(v)}
        )
        assert lhs == rhs
        done += 1


def test_hopf_counit_kills_boundaries():
    rng = random.Random(13)
    ring = ZZ
    for _ in range(20):
        g = random_prop_graph(rng, max_vertices=5, max_stars=3)
        total = ring.zero
        for g2, c in graph_boundary(g, ring).items():
            total = ring.add(total, ring.mul(c, hopf_counit(g2, ring)))
        assert ring.is_zero(total)


def test_hopf_of_product_counit_vanishes():
    # every diagonal term keeps a factor that evaluates to zero
    ring = ZZ
    bial = SimplexBialgebra(1)
    cells = list(all_cells(bial))
    for (l, r), c in hopf_coproduct(PRODUCT_COUNIT, ring).items():
        def vanishes(graph):
            for x in cells:
                for y in cells:
                    if not evaluate(graph, bial, (x, y)).is_zero():
                        return False
            return True

        assert vanishes(l) or vanishes(r)


# --- msl generators ---

def test_msl_basic():
    assert msl_generator(((1,), (2,))) == coproduct_graph()
    g = msl_generator(((1, 2),))
    assert (g.n_in, g.n_out, g.degree) == (1, 1, 1)
    with pytest.raises(ValueError):
        msl_generator(((2, 1),))
    with pytest.raises(ValueError):
        msl_generator(((1,), (3,)))
    with pytest.raises(ValueError):
        msl_generator(())


def test_msl_frozen_evaluation():
    bial = SimplexBialgebra(2)
    g = msl_generator(((1, 3), (2,)))
    out = evaluate(g, bial, ((0, 1, 2),))
    assert out == el(
        ZZ,
        ((((0, 1, 2), (0, 1))), -1),
        ((((0, 2), (0, 1, 2))), 1),
        ((((0, 1, 2), (1, 2))), -1),
    )


# --- resolution and lifting ---

def test_w_resolution_frozen():
    w = WResolution(3)
    assert w.differential(0) == ()
    assert w.differential(1) == ((0, 1), (1, -1))
    assert w.differential(2) == ((0, 1), (1, 1), (2, 1))
    assert w.differential(3) == ((0, 1), (1, -1))
    with pytest.raises(ValueError):
        WResolution(4)


def test_w_resolution_d_squared():
    # convolution in the group ring: d then d must cancel
    for p in (2, 3, 5):
        w = WResolution(p)
        for i in range(2, 7):
            acc = {}
            for k1, c1 in w.differential(i):
                for k2, c2 in w.differential(i - 1):
                    k = (k1 + k2) % p
                    acc[k] = acc.get(k, 0) + c1 * c2
            assert all(v == 0 for v in acc.values()), (p, i)


def test_psi_base_case():
    machine = PsiMachine(2, "simplex")
    ring = machine.ring
    out = machine.on_cell(0, (0, 1))
    assert out == el(ring, ((((0,), (0, 1))), 1), ((((0, 1), (1,))), 1))


def test_psi_vertex_vanishes():
    for geometry in ("simplex", "cube"):
        machine = PsiMachine(2, geometry)
        vertex = (0,) if geometry == "simplex" else ()
        for i in (1, 2, 3):
            assert machine.on_cell(i, vertex).is_zero()


def test_psi_degree_empties():
    machine = PsiMachine(2, "simplex")
    # (C(interval)^{ox 2}) vanishes above degree 2
    assert machine.on_cell(3, (0, 1)).is_zero()


def boundary_defect(machine, i, n, key):
    """d(psi(e_i)(x)) - psi(d e_i)(x) - (-1)^i psi(e_i)(dx) in model n."""
    ring = machine.ring
    bial = machine.model(n)
    lhs = tensor_diff(bial.complex, machine.on_cell(i, key))
    rhs = FreeElement.zero(ring)
    for power, coeff in machine.w.differential(i):
        rhs = rhs + machine.rho_power(machine.on_cell(i - 1, key), power).scale(
            ring.from_int(coeff)
        )
    sign = ring.from_int(-1 if i % 2 else 1)
    for face, c in bial.complex.diff(key).items():
        rhs = rhs + machine.on_cell(i, face).scale(ring.mul(sign, c))
    return lhs - rhs


def test_psi_boundary_relation():
    for p, top_n in ((2, 3), (3, 3)):
        for geometry in ("simplex", "cube"):
            machine = PsiMachine(p, geometry)
            for n in range(top_n + 1):
                bial = machine.model(n)
                for key in all_cells(bial):
                    for i in range(4):
                        defect = boundary_defect(machine, i, n, key)
                        assert defect.is_zero(), (p, geometry, n, key, i)


def test_rho_is_an_order_p_chain_map():
    for p, geometry, top in (
        (2, "simplex", (0, 1, 2)),
        (3, "simplex", (0, 1, 2)),
        (2, "cube", ("I", "I")),
        (3, "cube", ("I", "I")),
    ):
        machine = PsiMachine(p, geometry)
        bial = machine.model(2)
        for i in (0, 1, 2):
            value = machine.on_cell(i, top)
            rotated = value
            for _ in range(p):
                rotated = machine.rho(rotated)
            assert rotated == value, (p, geometry, i)
            lhs = tensor_diff(bial.complex, machine.rho(value))
            rhs = machine.rho(tensor_diff(bial.complex, value))
            assert lhs == rhs, (p, geometry, i)


def test_psi_cup_one_symmetry():
    # on the interval, e_1 gives the classical cup-1 square witness
    machine = PsiMachine(2, "simplex")
    value = machine.on_cell(1, (0, 1))
    assert not value.is_zero()
    total = value + machine.rho(value)
    defect = tensor_diff(machine.model(1).complex, machine.on_cell(2, (0, 1)))
    # d psi(e_2) = N psi(e_1) with N = 1 + rho mod 2
    assert defect == total
