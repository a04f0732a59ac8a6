import random

import pytest

from chaintop.complexes import InsufficientTruncationError
from chaintop.cubical import (
    CubeBialgebra,
    CubeMorphism,
    cubical_circle,
    cubical_torus,
    word_face_morphism,
)
from chaintop.einfty import (
    FieldHomology,
    HomologyClass,
    UmCoalgebra,
    cubical_um,
    cup_i,
    nu_coefficient,
    psi_action,
    simplicial_um,
    steenrod_odd,
    steenrod_sq,
    um_action,
)
from chaintop.freemod import FreeElement
from chaintop.propm import (
    PsiMachine,
    coproduct_graph,
    counit_graph,
    identity_graph,
    random_prop_graph,
)
from chaintop.rings import GF, QQ
from chaintop.simplicial import (
    SimplexBialgebra,
    aw_coproduct,
    collapse_to_projective_plane,
    collapse_to_sphere,
    projective_plane_model,
    simplicial_model,
    sphere_model,
    standard_simplex,
)

from ring_oracle import evaluate_cochain
from tensor_boundary import tensor_diff


def one(coalg, key):
    return FreeElement.single(coalg.ring, key, coalg.ring.one)


def test_um_identity_and_coproduct():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    for n in coalg.complex.degrees():
        for cell in coalg.complex.basis_in(n):
            assert um_action(coalg, identity_graph(1), cell) == one(coalg, (cell,))
            got = um_action(coalg, coproduct_graph(), cell)
            want = aw_coproduct(coalg.space, cell, coalg.ring)
            assert got == want


def test_um_rejects_multi_input():
    from chaintop.propm import join_graph

    coalg = simplicial_um(sphere_model(1), GF(2))
    with pytest.raises(ValueError):
        um_action(coalg, join_graph(), "a")


def test_um_action_evaluates_once_per_dimension(monkeypatch):
    # the value on the top cell depends only on the dimension, so the two
    # 1-cells of the torus share one evaluation
    import chaintop.einfty as einfty

    calls = []

    def counted(*args, real=einfty.evaluate):
        calls.append(args[1].n)
        return real(*args)

    monkeypatch.setattr(einfty, "evaluate", counted)
    coalg = cubical_um(cubical_torus(), GF(2))
    a, b = coalg.complex.basis_in(1)
    chain = one(coalg, a) + one(coalg, b)
    got = um_action(coalg, coproduct_graph(), chain)
    assert calls == [1]
    assert got == um_action(coalg, coproduct_graph(), a) + um_action(
        coalg, coproduct_graph(), b
    )


def test_um_action_is_chain_map_on_models():
    # degree-0 one-input ops commute with d; checked for the diagonal
    for coalg in (
        simplicial_um(projective_plane_model(), GF(2)),
        cubical_um(cubical_torus(), GF(2)),
    ):
        op = coproduct_graph()
        for n in coalg.complex.degrees():
            for cell in coalg.complex.basis_in(n):
                lhs = tensor_diff(coalg.complex, um_action(coalg, op, cell))
                rhs = um_action(coalg, op, coalg.complex.diff(cell))
                assert lhs == rhs, (coalg.geometry, cell)


def chain_push(smap, ring, element):
    # componentwise pushforward of tensor words, degenerates dropped
    out = FreeElement.zero(ring)
    for key, c in element.items():
        images = []
        for comp in key:
            ref = smap.apply_ref(_ref(comp))
            if ref.is_degenerate:
                break
            images.append(ref.base)
        else:
            out = out + FreeElement.single(ring, tuple(images), c)
    return out


def _ref(base):
    from chaintop.simplicial import SimplexRef

    return SimplexRef(base)


def test_um_naturality_under_quotients():
    rng = random.Random(23)
    ring = GF(2)
    for smap in (collapse_to_sphere(2), collapse_to_projective_plane()):
        source = simplicial_um(smap.source, ring)
        target = simplicial_um(smap.target, ring)
        ops = [identity_graph(1), coproduct_graph()]
        while len(ops) < 8:
            g = random_prop_graph(rng, n_in=1, max_vertices=5, max_stars=2)
            if g.n_out <= 3 and g.degree <= 2:
                ops.append(g)
        for op in ops:
            for n in source.complex.degrees():
                for cell in source.complex.basis_in(n):
                    below = um_action(source, op, cell)
                    lhs = chain_push(smap, ring, below)
                    image = smap.apply_ref(_ref(cell))
                    rhs = FreeElement.zero(ring)
                    if not image.is_degenerate:
                        rhs = um_action(target, op, image.base)
                    assert lhs == rhs, (op, cell)


def simplex_collapse(key, t):
    out = tuple(v if v <= t else v - 1 for v in key)
    for a, b in zip(out, out[1:]):
        if a == b:
            return None
    return out


def test_psi_values_vanish_under_simplicial_degeneracies():
    for p in (2, 3):
        machine = PsiMachine(p, "simplex")
        ring = machine.ring
        for n in (1, 2, 3):
            for i in range(4):
                value = machine.top_value(i, n)
                for t in range(n):
                    acc = {}
                    for key, c in value.items():
                        images = [simplex_collapse(comp, t) for comp in key]
                        if all(x is not None for x in images):
                            k = tuple(images)
                            prev = acc.get(k, ring.zero)
                            acc[k] = ring.add(prev, c)
                    assert all(ring.is_zero(v) for v in acc.values()), (p, n, i, t)


def cube_collapse(word, op):
    m = op.compose(word_face_morphism(word))
    face, degen = m.factor()
    if not degen.is_identity:
        return None
    return tuple("0" if e == 0 else "1" if e == 1 else "I" for e in face.entries)


def test_psi_values_vanish_under_cubical_collapses():
    # degeneracies and connections both kill the transported values
    for p in (2, 3):
        machine = PsiMachine(p, "cube")
        ring = machine.ring
        for n in (1, 2, 3):
            ops = [CubeMorphism.degeneracy(n, i) for i in range(1, n + 1)]
            ops += [CubeMorphism.connection(n, i) for i in range(1, n)]
            for i in range(4):
                value = machine.top_value(i, n)
                for op in ops:
                    acc = {}
                    for key, c in value.items():
                        images = [cube_collapse(comp, op) for comp in key]
                        if all(x is not None for x in images):
                            k = tuple(images)
                            prev = acc.get(k, ring.zero)
                            acc[k] = ring.add(prev, c)
                    assert all(ring.is_zero(v) for v in acc.values()), (p, n, i)


def test_cup_zero_is_the_diagonal():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    for n in coalg.complex.degrees():
        for cell in coalg.complex.basis_in(n):
            assert cup_i(coalg, 0, cell) == aw_coproduct(
                coalg.space, cell, coalg.ring
            )


def test_cup_requires_char_two():
    coalg = simplicial_um(projective_plane_model(), GF(3))
    with pytest.raises(ValueError):
        cup_i(coalg, 1, "a")


def swap_tensor(element, ring):
    out = FreeElement.zero(ring)
    for (a, b), c in element.items():
        out = out + FreeElement.single(ring, (b, a), c)
    return out


def cup_relation_defect(coalg, i, cell):
    # d(cup_i c) + cup_i(dc) + (1 + T) cup_{i-1}(c), which must vanish mod 2
    ring = coalg.ring
    total = tensor_diff(coalg.complex, cup_i(coalg, i, cell))
    total = total + cup_i(coalg, i, coalg.complex.diff(cell))
    if i >= 1:
        lower = cup_i(coalg, i - 1, cell)
        total = total + lower + swap_tensor(lower, ring)
    return total


def test_cup_relations_on_models():
    spaces = [
        simplicial_um(sphere_model(2), GF(2)),
        simplicial_um(projective_plane_model(), GF(2)),
        cubical_um(cubical_torus(), GF(2)),
        cubical_um(cubical_circle(), GF(2)),
    ]
    for coalg in spaces:
        for n in coalg.complex.degrees():
            for cell in coalg.complex.basis_in(n):
                for i in range(4):
                    assert cup_relation_defect(coalg, i, cell).is_zero(), (
                        coalg.geometry,
                        cell,
                        i,
                    )


def test_cup_vanishes_above_dimension():
    coalg = simplicial_um(standard_simplex(2), GF(2))
    top = (0, 1, 2)
    assert cup_i(coalg, 3, top).is_zero()
    assert not cup_i(coalg, 2, top).is_zero()


# --- homology machinery ---

def test_field_homology_dimensions():
    rp2 = projective_plane_model()
    for ring, dims in ((GF(2), (1, 1, 1)), (QQ, (1, 0, 0)), (GF(3), (1, 0, 0))):
        coalg = simplicial_um(rp2, ring)
        got = tuple(FieldHomology(coalg.complex, n).dim for n in (0, 1, 2))
        assert got == dims, ring


def test_homology_class_validation():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    ring = coalg.ring
    with pytest.raises(ValueError):
        HomologyClass(coalg.complex, 2, FreeElement.single(ring, "U", ring.one))
    mixed = FreeElement(ring, {"a": ring.one, "U": ring.one})
    with pytest.raises(ValueError):
        HomologyClass(coalg.complex, 2, mixed)


def test_coordinates_ignore_boundaries():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    ring = coalg.ring
    h1 = FieldHomology(coalg.complex, 1)
    assert h1.dim == 1
    rep = h1.classes()[0].representative
    perturbed = rep + coalg.complex.diff("U")
    assert h1.coordinates(rep) == h1.coordinates(perturbed)
    with pytest.raises(ValueError):
        h1.coordinates(FreeElement.single(ring, "no-such-cell", ring.one))


def test_dual_cocycles_pair_identically():
    for ring in (GF(2), GF(3), QQ):
        coalg = simplicial_um(sphere_model(2), ring)
        for n in (0, 1, 2):
            h = FieldHomology(coalg.complex, n)
            reps = [cls.representative for cls in h.classes()]
            alphas = h.dual_cocycles()
            for i, alpha in enumerate(alphas):
                for j, rep in enumerate(reps):
                    want = ring.one if i == j else ring.zero
                    assert evaluate_cochain(alpha, rep, ring) == want
                # cocycles vanish on boundaries
                for key in coalg.complex.basis_in(n + 1):
                    assert ring.is_zero(
                        evaluate_cochain(alpha, coalg.complex.diff(key), ring)
                    )


def test_truncation_refused():
    from chaintop.simplicial import normalized_chains
    from chaintop.smith import smith_homology

    space = projective_plane_model()
    chains = normalized_chains(space, max_degree=1, ring=GF(2))
    assert not chains.complete
    with pytest.raises(InsufficientTruncationError) as field:
        FieldHomology(chains, 1)
    # the same rule as smith_homology refuses it, in the same words
    with pytest.raises(InsufficientTruncationError) as smith:
        smith_homology(chains, 1)
    assert str(field.value) == str(smith.value)
    # degree 0 is still certifiable
    assert FieldHomology(chains, 0).dim == 1


# --- Steenrod operations ---

def test_sq_zero_is_identity():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    for n in (1, 2):
        h = FieldHomology(coalg.complex, n)
        for cls in h.classes():
            out = steenrod_sq(coalg, 0, cls)
            assert h.coordinates(out.representative) == h.coordinates(
                cls.representative
            )


def test_sq_one_detects_projective_plane():
    # the square from the top class lands on the one-dimensional generator
    coalg = simplicial_um(projective_plane_model(), GF(2))
    h2 = FieldHomology(coalg.complex, 2)
    h1 = FieldHomology(coalg.complex, 1)
    mu2 = h2.classes()[0]
    out = steenrod_sq(coalg, 1, mu2)
    assert not out.is_zero_class
    assert out.degree == 1
    assert h1.coordinates(out.representative) == [coalg.ring.one]


def test_sq_top_square_matches_cup_square():
    # at 2s = k the pairing reduces to the diagonal: alpha(cup product)
    coalg = simplicial_um(projective_plane_model(), GF(2))
    ring = coalg.ring
    h2 = FieldHomology(coalg.complex, 2)
    h1 = FieldHomology(coalg.complex, 1)
    mu2 = h2.classes()[0]
    out = steenrod_sq(coalg, 1, mu2)
    diag = cup_i(coalg, 0, mu2.representative)
    for alpha, cls in zip(h1.dual_cocycles(), h1.classes()):
        total = ring.zero
        for (a, b), c in diag.items():
            va = evaluate_cochain(alpha, FreeElement.single(ring, a, ring.one), ring)
            vb = evaluate_cochain(alpha, FreeElement.single(ring, b, ring.one), ring)
            total = ring.add(total, ring.mul(ring.mul(va, vb), c))
        assert total == evaluate_cochain(alpha, out.representative, ring)


def test_sq_negative_index_vanishes():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    h2 = FieldHomology(coalg.complex, 2)
    mu2 = h2.classes()[0]
    out = steenrod_sq(coalg, 2, mu2)
    assert out.is_zero_class and out.degree == 0


def test_sq_representative_independence():
    coalg = simplicial_um(projective_plane_model(), GF(2))
    ring = coalg.ring
    h1 = FieldHomology(coalg.complex, 1)
    cls = h1.classes()[0]
    perturbed = HomologyClass(
        coalg.complex, 1, cls.representative + coalg.complex.diff("U")
    )
    for s in (0, 1):
        a = steenrod_sq(coalg, s, cls)
        b = steenrod_sq(coalg, s, perturbed)
        target = FieldHomology(coalg.complex, 1 - s)
        assert target.coordinates(a.representative) == target.coordinates(
            b.representative
        )


def test_nu_spot_values():
    assert int(nu_coefficient(0, 3)) == 1
    assert int(nu_coefficient(1, 3)) == 1
    assert int(nu_coefficient(2, 3)) == 2
    assert int(nu_coefficient(3, 3)) == 2
    assert int(nu_coefficient(-2, 3)) == 2
    assert int(nu_coefficient(2, 5)) == 4
    with pytest.raises(ValueError):
        nu_coefficient(1, 2)


def test_steenrod_odd_spot_values():
    # with the global (-1)^p written into the formula, P_0 acts as -1
    coalg = simplicial_um(sphere_model(2), GF(3))
    h2 = FieldHomology(coalg.complex, 2)
    mu = h2.classes()[0]
    out = steenrod_odd(coalg, 0, 0, mu)
    assert h2.coordinates(out.representative) == [coalg.ring.from_int(-1)]
    bock = steenrod_odd(coalg, 1, 0, mu)
    assert bock.is_zero_class and bock.degree == 1


def test_steenrod_odd_negative_index_vanishes():
    coalg = simplicial_um(sphere_model(2), GF(3))
    h2 = FieldHomology(coalg.complex, 2)
    mu = h2.classes()[0]
    # s = 1 pushes the resolution index negative: q = -6, index drops below 0
    out = steenrod_odd(coalg, 0, -1, mu)
    assert out.is_zero_class


def test_psi_action_matches_machine_on_standard_cells():
    machine = PsiMachine(2, "simplex")
    coalg = simplicial_um(standard_simplex(2), GF(2))
    top = (0, 1, 2)
    for i in range(3):
        assert psi_action(coalg, 2, i, top) == machine.top_value(i, 2)


def test_a_geometry_outside_the_two_families_is_refused():
    chains = simplicial_um(sphere_model(2), GF(2)).complex
    with pytest.raises(ValueError, match="'sphere'"):
        PsiMachine(2, "sphere")
    with pytest.raises(ValueError, match="'sphere'"):
        UmCoalgebra("sphere", sphere_model(2), chains)


def test_pushforward_along_a_standard_cell_is_the_substitution():
    # PsiMachine.on_cell substitutes where UmCoalgebra.push pushes forward;
    # on standard models the two must name the same nondegenerate cell
    pairs = 0
    for family in (SimplexBialgebra, CubeBialgebra):
        for n in range(4):
            model = family(n, GF(2))
            for m in model.complex.degrees():
                keys = family(m, GF(2)).complex
                for cell in model.complex.basis_in(m):
                    for k in keys.degrees():
                        for key in keys.basis_in(k):
                            ref = family.pushforward(model.space, cell, key)
                            assert not ref.is_degenerate, (family, cell, key)
                            assert ref.base == family.substitute(cell, key)
                            pairs += 1
    assert pairs == 90 + 156
