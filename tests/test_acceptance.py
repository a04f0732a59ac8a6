"""End-to-end acceptance checks, one test and one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
timed criteria assert their own wall-clock bounds.
"""

import contextlib
import itertools
import random
import time

from chaintop.cobar import (
    cobar,
    extended_cobar,
    h0_group_ring,
    loc_degree,
    loc_product,
    word_degree,
)
from chaintop.cubical import (
    CubeBialgebra,
    I,
    cubical_join,
    permute_cube_word,
    serre_coproduct,
    serre_counit,
    standard_cube,
)
from chaintop.einfty import (
    FieldHomology,
    HomologyClass,
    cubical_um,
    cup_i,
    evaluate_cochain,
    nu_coefficient,
    simplicial_um,
    steenrod_sq,
    tensor_diff,
    um_action,
)
from chaintop.freemod import FreeElement, add_into
from chaintop.loopspace import (
    cartan_serre,
    cobar_psi,
    cubical_cobar,
    kan_loop_group,
    phi_certificate,
    zigzag_report,
)
from chaintop.propm import (
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
    random_linear_extension,
    random_prop_graph,
    reorder_sign,
    reorder_vertices,
    tensor_graphs,
)
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import (
    SimplexBialgebra,
    apply_degeneracy,
    aw_coproduct,
    collapse_subcomplex,
    projective_plane_model,
    random_reduced_model,
    sphere_model,
    standard_simplex,
    wedge_models,
)
from chaintop.smith import smith_homology


@contextlib.contextmanager
def criterion(num, name, limit=None):
    started = time.monotonic()
    status = "FAIL"
    box = {}
    try:
        yield
        status = "PASS"
    finally:
        box["elapsed"] = time.monotonic() - started
        print(f"criterion {num:02d} {name}: {status} ({box['elapsed']:.1f}s)")
    if limit is not None:
        assert box["elapsed"] < limit, f"took {box['elapsed']:.1f}s, bound {limit}s"


def el(ring, *pairs):
    out = {}
    for k, c in pairs:
        add_into(out, ring, k, ring.from_int(c))
    return FreeElement(ring, out)


def cube_words(n):
    return list(itertools.product(("0", "1", I), repeat=n))


def cube_deg(w):
    return sum(1 for a in w if a == I)


def all_cells(bial):
    chains = bial.complex
    return [k for n in chains.degrees() for k in chains.basis_in(n)]


# 1. counit, coassociativity, and equivariance of the two coproducts

def test_criterion_01_coalgebra_axioms():
    ring = ZZ
    with criterion(1, "coalgebra axioms n<=5", limit=10.0):
        for n in range(6):
            sp = standard_simplex(n)
            for m in sp.dimensions():
                for cell in sp.nondegenerate(m):
                    d = aw_coproduct(sp, cell, ring)
                    left, right, lc, rc = {}, {}, {}, {}
                    for (a, b), c in d.items():
                        for (a1, a2), c2 in aw_coproduct(sp, a, ring).items():
                            add_into(left, ring, (a1, a2, b), ring.mul(c, c2))
                        for (b1, b2), c2 in aw_coproduct(sp, b, ring).items():
                            add_into(right, ring, (a, b1, b2), ring.mul(c, c2))
                        if len(a) == 1:
                            add_into(lc, ring, b, c)
                        if len(b) == 1:
                            add_into(rc, ring, a, c)
                    one = FreeElement.single(ring, cell, ring.one)
                    assert FreeElement(ring, left) == FreeElement(ring, right)
                    assert FreeElement(ring, lc) == one
                    assert FreeElement(ring, rc) == one
        for n in range(6):
            for w in cube_words(n):
                d = serre_coproduct(w, ring)
                left, right, lc, rc = {}, {}, {}, {}
                for (a, b), c in d.items():
                    for (a1, a2), c2 in serre_coproduct(a, ring).items():
                        add_into(left, ring, (a1, a2, b), ring.mul(c, c2))
                    for (b1, b2), c2 in serre_coproduct(b, ring).items():
                        add_into(right, ring, (a, b1, b2), ring.mul(c, c2))
                    ca, cb = serre_counit(a, ring), serre_counit(b, ring)
                    if not ring.is_zero(ca):
                        add_into(lc, ring, b, ring.mul(c, ca))
                    if not ring.is_zero(cb):
                        add_into(rc, ring, a, ring.mul(c, cb))
                one = FreeElement.single(ring, w, ring.one)
                assert FreeElement(ring, left) == FreeElement(ring, right)
                assert FreeElement(ring, lc) == one
                assert FreeElement(ring, rc) == one
        # full symmetric groups through n = 3; adjacent transpositions
        # generate the rest and equivariance composes
        for n in range(6):
            if n <= 3:
                perms = list(itertools.permutations(range(n)))
            else:
                perms = [
                    tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
                    for i in range(n - 1)
                ]
            for w in cube_words(n):
                base = serre_coproduct(w, ring)
                for perm in perms:
                    pw, s = permute_cube_word(w, perm)
                    lhs = serre_coproduct(pw, ring).scale(ring.from_int(s))
                    terms = {}
                    for (a, b), c in base.items():
                        pa, sa = permute_cube_word(a, perm)
                        pb, sb = permute_cube_word(b, perm)
                        add_into(
                            terms, ring, (pa, pb),
                            ring.mul(c, ring.from_int(sa * sb)),
                        )
                    assert lhs == FreeElement(ring, terms), (w, perm)


# 2. relations of the operation prop under evaluation

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


def test_criterion_02_prop_relations():
    ring = ZZ
    with criterion(2, "prop relations n<=4 + join-sign oracle", limit=60.0):
        boundary = graph_boundary(join_graph(), ring)
        for make in (SimplexBialgebra, CubeBialgebra):
            for n in range(5):
                bial = make(n)
                chains = bial.complex
                cells = all_cells(bial)
                for x in cells:
                    ident = FreeElement.single(ring, (x,), ring.one)
                    assert evaluate(LEFT_COUNIT, bial, (x,)) == ident
                    assert evaluate(RIGHT_COUNIT, bial, (x,)) == ident
                    assert evaluate(COASSOC_L, bial, (x,)) == evaluate(
                        COASSOC_R, bial, (x,)
                    )
                for x in cells:
                    sx = ring.from_int(-1 if bial.degree(x) % 2 else 1)
                    dx = chains.diff(x)
                    for y in cells:
                        assert evaluate(PRODUCT_COUNIT, bial, (x, y)).is_zero()
                        dy = chains.diff(y)
                        lhs = FreeElement.zero(ring)
                        for key, c in bial.join(x, y).items():
                            lhs = lhs + chains.diff(key).scale(c)
                        for kx, c in dx.items():
                            lhs = lhs + bial.join(kx, y).scale(c)
                        for ky, c in dy.items():
                            lhs = lhs + bial.join(x, ky).scale(ring.mul(c, sx))
                        terms = {}
                        for g, c in boundary.items():
                            for (out,), c2 in evaluate(g, bial, (x, y)).items():
                                add_into(terms, ring, out, ring.mul(c, c2))
                        assert lhs == FreeElement(ring, terms), (n, x, y)
        # among the four counit sign conventions exactly one closes the
        # boundary identity
        survivors = set()
        for s1, s2 in itertools.product((1, -1), repeat=2):
            ok = True
            for n in (1, 2):
                bial = CubeBialgebra(n, ring)
                chains = bial.complex
                for ka, kb in itertools.product(all_cells(bial), repeat=2):
                    lhs = FreeElement.zero(ring)
                    for key, c in bial.join(ka, kb).items():
                        lhs = lhs + chains.diff(key).scale(c)
                    for k2, c in chains.diff(ka).items():
                        lhs = lhs + bial.join(k2, kb).scale(c)
                    sign = ring.from_int(-1 if bial.degree(ka) % 2 else 1)
                    for k2, c in chains.diff(kb).items():
                        lhs = lhs + bial.join(ka, k2).scale(ring.mul(c, sign))
                    rhs = FreeElement.single(
                        ring, kb, ring.mul(ring.from_int(s1), bial.counit(ka))
                    ) + FreeElement.single(
                        ring, ka, ring.mul(ring.from_int(s2), bial.counit(kb))
                    )
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.add((s1, s2))
        assert survivors == {(1, -1)}


# 3. coalgebra enrichment of the prop itself

def test_criterion_03_hopf_prop():
    ring = ZZ

    def hopf_of_element(element):
        out = FreeElement.zero(ring)
        for g, c in element.items():
            out = out + hopf_coproduct(g, ring).scale(c)
        return out

    def pair_boundary(element):
        out = {}
        for (l, r), c in element.items():
            for l2, c2 in graph_boundary(l, ring).items():
                add_into(out, ring, (l2, r), ring.mul(c, c2))
            sign = ring.from_int(-1 if l.degree % 2 else 1)
            for r2, c2 in graph_boundary(r, ring).items():
                add_into(out, ring, (l, r2), ring.mul(ring.mul(c, c2), sign))
        return FreeElement(ring, out)

    with criterion(3, "hopf prop suite"):
        cases = [
            counit_graph(),
            coproduct_graph(),
            join_graph(),
            compose_graphs(
                tensor_graphs(join_graph(), identity_graph(1)), join_graph()
            ),
            compose_graphs(coproduct_graph(), join_graph()),
        ]
        rng = random.Random(3)
        for _ in range(10):
            cases.append(random_prop_graph(rng, max_vertices=5, max_stars=2))
        for g in cases:
            lhs = hopf_of_element(graph_boundary(g, ring))
            assert lhs == pair_boundary(hopf_coproduct(g, ring)), g
        for _ in range(20):
            g = random_prop_graph(rng, max_vertices=5, max_stars=3)
            left, right = {}, {}
            for (l, r), c in hopf_coproduct(g, ring).items():
                cl, cr = hopf_counit(l, ring), hopf_counit(r, ring)
                if not ring.is_zero(cl):
                    add_into(right, ring, r, ring.mul(cl, c))
                if not ring.is_zero(cr):
                    add_into(left, ring, l, ring.mul(c, cr))
            assert FreeElement(ring, left) == el(ring, (g, 1))
            assert FreeElement(ring, right) == el(ring, (g, 1))
        # every term of the diagonal of join-then-counit keeps a factor
        # that evaluates to zero
        bial = SimplexBialgebra(1)
        cells = all_cells(bial)

        def vanishes(graph):
            return all(
                evaluate(graph, bial, (x, y)).is_zero()
                for x in cells
                for y in cells
            )

        for (l, r), _ in hopf_coproduct(PRODUCT_COUNIT, ring).items():
            assert vanishes(l) or vanishes(r)
        # vertex-order independence of the diagonal, observed through
        # evaluation pairings on both tensor legs
        bial2 = SimplexBialgebra(2)
        cells2 = all_cells(bial2)
        done = 0
        while done < 20:
            g = random_prop_graph(rng, max_vertices=5, max_stars=3)
            if not g.kinds or g.degree > 3:
                continue
            order = random_linear_extension(g, rng)
            h = reorder_vertices(g, order)
            sign = reorder_sign(g, order)
            inputs = tuple(rng.choice(cells2) for _ in range(g.n_in))

            def pairing(graph):
                out = {}
                for (l, r), c in hopf_coproduct(graph, ring).items():
                    for kl, cl in evaluate(l, bial2, inputs).items():
                        for kr, cr in evaluate(r, bial2, inputs).items():
                            add_into(
                                out, ring, (kl, kr),
                                ring.mul(c, ring.mul(cl, cr)),
                            )
                return FreeElement(ring, out)

            assert pairing(h) == pairing(g).scale(ZZ.from_int(sign)), g
            done += 1


# 4. the coproduct and join against concatenation of cubes

def test_criterion_04_monoidality():
    ring = ZZ
    with criterion(4, "monoidality p+q<=5"):
        pairs_at_one = 0
        for p in range(1, 5):
            for q in range(1, 6 - p):
                wp, wq = cube_words(p), cube_words(q)
                joins_p = {
                    (x1, x2): cubical_join(x1, x2, ring)
                    for x1 in wp
                    for x2 in wp
                }
                joins_q = {
                    (y1, y2): cubical_join(y1, y2, ring)
                    for y1 in wq
                    for y2 in wq
                }
                eps_p = {x: serre_counit(x, ring) for x in wp}
                eps_q = {y: serre_counit(y, ring) for y in wq}
                for x1 in wp:
                    sx = ring.from_int(-1 if cube_deg(x1) % 2 else 1)
                    for x2 in wp:
                        jx = joins_p[(x1, x2)]
                        ex2 = eps_p[x2]
                        for y1 in wq:
                            ey1 = eps_q[y1]
                            for y2 in wq:
                                lhs = cubical_join(x1 + y1, x2 + y2, ring)
                                terms = {}
                                if not ring.is_zero(ey1):
                                    for w, c in jx.items():
                                        add_into(
                                            terms, ring, w + y2,
                                            ring.mul(c, ey1),
                                        )
                                if not ring.is_zero(ex2):
                                    coeff = ring.mul(ex2, sx)
                                    for w, c in joins_q[(y1, y2)].items():
                                        add_into(
                                            terms, ring, x1 + w,
                                            ring.mul(c, coeff),
                                        )
                                assert lhs == FreeElement(ring, terms)
                                if p == q == 1:
                                    pairs_at_one += 1
        assert pairs_at_one == 81
        for p in range(6):
            for q in range(6 - p):
                for x in cube_words(p):
                    dx = serre_coproduct(x, ring)
                    for y in cube_words(q):
                        dy = serre_coproduct(y, ring)
                        lhs = serre_coproduct(x + y, ring)
                        terms = {}
                        for (a1, b1), c in dx.items():
                            for (a2, b2), c2 in dy.items():
                                s = -1 if (
                                    cube_deg(b1) % 2 and cube_deg(a2) % 2
                                ) else 1
                                add_into(
                                    terms, ring, (a1 + a2, b1 + b2),
                                    ring.mul(ring.mul(c, c2), ring.from_int(s)),
                                )
                        assert lhs == FreeElement(ring, terms), (x, y)
                        assert serre_counit(x + y, ring) == ring.mul(
                            serre_counit(x, ring), serre_counit(y, ring)
                        )


# 5. the relabeling between cube model and word algebra

def test_criterion_05_phi_certification():
    with criterion(5, "phi certificates S1, S2, RP2 degrees<=5", limit=1.0):
        cert = phi_certificate(sphere_model(1), 5, max_length=4)
        assert cert["cells"] == 10 and cert["pairs"] > 0
        cert = phi_certificate(sphere_model(2), 5)
        assert cert["degrees"] == {n: 1 for n in range(6)}
        cert = phi_certificate(projective_plane_model(), 5, max_length=2)
        assert cert["degrees"] == {0: 255, 1: 642, 2: 444, 3: 72}
        assert cert["cells"] == 1413 and cert["pairs"] > 0


# 6. loop homology of the spheres through the integer oracle

def test_criterion_06_loop_homology():
    with criterion(6, "loop homology of S2 and S3", limit=5.0):
        algebra = cobar(sphere_model(2), 6)
        for n in range(6):
            assert smith_homology(algebra.complex, n) == (1, ())
        # degree 6 is the next nonempty one, so storing it certifies H_4
        algebra = cobar(sphere_model(3), 6)
        for n in range(5):
            expected = (1, ()) if n % 2 == 0 else (0, ())
            assert smith_homology(algebra.complex, n) == expected
        # every letter of a wedge of spheres is a cycle: the tensor
        # algebra on generators of degrees 1, 1 and 2 (Bott-Samelson)
        wedge = wedge_models(wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3))
        for ring in (ZZ, GF(2)):
            algebra = cobar(wedge, 7, ring)
            ranks = [smith_homology(algebra.complex, n).free_rank for n in range(7)]
            assert ranks == [1, 2, 5, 12, 29, 70, 169], ring
        # Delta^5 over its 2-skeleton is a wedge of ten 3-spheres; its
        # letters mix cycles with letters of nonzero boundary
        simplex = standard_simplex(5)
        skeleton = [c for m in range(3) for c in simplex.nondegenerate(m)]
        algebra = cobar(collapse_subcomplex(simplex, skeleton).target, 5)
        for n in range(5):
            expected = (10 ** (n // 2), ()) if n % 2 == 0 else (0, ())
            assert smith_homology(algebra.complex, n) == expected, n


# 7. degree zero of the localized word algebra

def test_criterion_07_extended_cobar_h0():
    with criterion(7, "localized degree zero", limit=2.0):
        for cutoff in (3, 4, 5):
            report = h0_group_ring(projective_plane_model(), cutoff, QQ)
            assert report.rank == 2 and not report.inconclusive
        for cutoff in (1, 2, 3, 4):
            report = h0_group_ring(sphere_model(1), cutoff, QQ)
            assert report.rank == 2 * cutoff + 1
            assert report.generators == ("s",)
            assert report.relators == ()


# 8. chain-level squares and their relations

def test_criterion_08_steenrod_suite():
    two = GF(2)

    def swap(element):
        out = {}
        for (x, y), c in element.items():
            add_into(out, two, (y, x), c)
        return FreeElement(two, out)

    with criterion(8, "steenrod suite"):
        for build in (
            lambda n: simplicial_um(standard_simplex(n), two),
            lambda n: cubical_um(standard_cube(n), two),
        ):
            for n in range(5):
                coalg = build(n)
                for m in coalg.complex.degrees():
                    for cell in coalg.complex.basis_in(m):
                        for i in range(5):
                            total = tensor_diff(
                                coalg.complex, cup_i(coalg, i, cell)
                            )
                            total = total + cup_i(
                                coalg, i, coalg.complex.diff(cell)
                            )
                            if i >= 1:
                                lower = cup_i(coalg, i - 1, cell)
                                total = total + lower + swap(lower)
                            assert total.is_zero(), (n, cell, i)
        omega = cubical_cobar(sphere_model(2), 5, ring=two)
        algebra = cobar(sphere_model(2), 5, two)
        for k in range(5):
            w = ("s",) * k
            for i in (1, 2, 3):
                upper = cobar_psi(omega, 2, i, w, two)
                lower = cobar_psi(omega, 2, i - 1, w, two)
                # the word is a cycle, so the inner boundary term drops
                assert tensor_diff(algebra.complex, upper) == lower + swap(
                    lower
                ), (w, i)
        coalg = simplicial_um(projective_plane_model(), two)
        h2 = FieldHomology(coalg.complex, 2)
        h1 = FieldHomology(coalg.complex, 1)
        mu2 = h2.classes()[0]
        out = steenrod_sq(coalg, 1, mu2)
        assert not out.is_zero_class
        assert h1.coordinates(out.representative) == [two.one]
        # at 2s = k the square is the cup square against any dual cocycle
        diag = cup_i(coalg, 0, mu2.representative)
        for alpha in h1.dual_cocycles():
            total = two.zero
            for (a, b), c in diag.items():
                va = evaluate_cochain(
                    alpha, FreeElement.single(two, a, two.one), two
                )
                vb = evaluate_cochain(
                    alpha, FreeElement.single(two, b, two.one), two
                )
                total = two.add(total, two.mul(two.mul(va, vb), c))
            assert total == evaluate_cochain(alpha, out.representative, two)
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
        assert [int(nu_coefficient(q, 3)) for q in (0, 1, 2, 3)] == [1, 1, 2, 2]
        assert int(nu_coefficient(2, 5)) == 4


# 9. the free simplicial group on positive simplices

def test_criterion_09_kan_loop_group():
    with criterion(9, "loop group identities and pi0"):
        for space in (
            sphere_model(1),
            sphere_model(2),
            projective_plane_model(),
        ):
            group = kan_loop_group(space, 3)
            assert group.check_identities() is None, space.name
            for n in range(4):
                for ref in space.refs(n):
                    assert group.bar(apply_degeneracy(ref, 0)) == ()
        assert kan_loop_group(sphere_model(1), 1).pi0().identify() == "Z"
        pres = kan_loop_group(projective_plane_model(), 1).pi0()
        assert pres.abelianization() == (0, [2])
        assert pres.identify() == "Z/2"


# 10. collapse comparison and the triangulation zigzag

def push_pair(cs, ring, value):
    out = {}
    for (a, b), c in value.items():
        for ka, ca in cs.map.apply_key(a).items():
            for kb, cb in cs.map.apply_key(b).items():
                add_into(out, ring, (ka, kb), ring.mul(c, ring.mul(ca, cb)))
    return FreeElement(ring, out)


def test_criterion_10_cartan_serre():
    ring = ZZ
    msl = msl_generator(((1, 2), (3,)))
    with criterion(10, "collapse comparison and zigzag"):
        for n in (1, 2, 3):
            cs = cartan_serre(standard_simplex(n), n)
            ok, witness = cs.is_chain_map()
            assert ok and witness is None
            source_um = simplicial_um(cs.space, ring)
            target_um = cubical_um(cs.cubes, ring)
            ops = [coproduct_graph()] + ([msl] if n <= 2 else [])
            for op in ops:
                for m in cs.space.dimensions():
                    for cell in cs.space.nondegenerate(m):
                        x = FreeElement.single(ring, cell, ring.one)
                        lhs = push_pair(cs, ring, um_action(source_um, op, x))
                        rhs = um_action(target_um, op, cs.map.apply(x))
                        assert lhs == rhs, (n, op.kinds, cell)
        report = zigzag_report(sphere_model(2), 3)
        assert report.agree and report.inconclusive == ()
        assert report.collapse_is_chain_map and report.unit_is_chain_map
        assert report.unit_injective
        assert report.cubical_homology == {n: (1, ()) for n in range(4)}


# 11. randomized windows keep their structure

def test_criterion_11_fuzz():
    with criterion(11, "fuzz d^2 and derivation law"):
        rng = random.Random(314159)
        for case in range(5):
            space = random_reduced_model(rng)
            has_edges = bool(space.nondegenerate(1))
            plain = cobar(space, 4, ZZ, max_length=4 if has_edges else None)
            extended = extended_cobar(space, 4, 4)
            assert plain.complex.d_squared_witness() is None, space.name
            assert extended.complex.d_squared_witness() is None, space.name

            def single(w):
                return FreeElement.single(ZZ, w, ZZ.one)

            words = [
                w
                for n in plain.complex.degrees()
                for w in plain.complex.basis_in(n)
            ]
            checked = 0
            for u in words:
                if checked > 40:
                    break
                du = plain.complex.diff(u)
                sign = ZZ.from_int(-1 if word_degree(space, u) % 2 else 1)
                for v in words:
                    cap = plain.budget(word_degree(space, u + v))
                    if cap is not None and len(u + v) > cap:
                        continue
                    checked += 1
                    lhs = plain.complex.diff_element(
                        plain.product(single(u), single(v))
                    )
                    rhs = plain.product(du, single(v)) + plain.product(
                        single(u), plain.complex.diff(v)
                    ).scale(sign)
                    assert lhs == rhs, (space.name, u, v)
                    if checked > 40:
                        break
            assert checked > 0
            loc_words = [
                w
                for n in extended.complex.degrees()
                for w in extended.complex.basis_in(n)
            ]
            checked = 0
            for u in loc_words:
                if checked > 40:
                    break
                du = extended.complex.diff(u)
                sign = ZZ.from_int(-1 if loc_degree(space, u) % 2 else 1)
                for v in loc_words:
                    if not extended.in_window(loc_product(u, v)):
                        continue
                    checked += 1
                    lhs = extended.complex.diff_element(
                        extended.product(single(u), single(v))
                    )
                    rhs = extended.product(du, single(v)) + extended.product(
                        single(u), extended.complex.diff(v)
                    ).scale(sign)
                    assert lhs == rhs, (space.name, u, v)
                    if checked > 40:
                        break
            assert checked > 0
