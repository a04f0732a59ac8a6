"""Operation graphs over counit, coproduct, and join, with evaluation.

A graph is a wiring diagram built from three generators: eps (1 -> 0,
degree 0), delta (1 -> 2, degree 0), and star (2 -> 1, degree 1). The
stored vertex order is a linear extension of the wiring; reordering the
stars of a graph changes its sign by the Koszul rule, which evaluation
and the boundary both respect.

The differential replaces one star at a time by the two counit wirings,
matching d[0,1] = [1] - [0] on the interval whose endpoints are the two
ways a join can degenerate. The induced coproduct on graphs applies the
cube diagonal to the stars, so graphs form a bialgebra that evaluation
turns into operations on any chain-level coalgebra with a join.
"""

from __future__ import annotations

from .cubical import CubeBialgebra, I, serre_coproduct
from .freemod import FreeElement, cyclic_rotation_sign, koszul_sign
from .rings import GF, Ring, ZZ, is_prime
from .simplicial import SimplexBialgebra

KIND_ARITY = {"eps": (1, 0), "delta": (1, 2), "star": (2, 1)}


class PropGraph:
    """Immutable wiring diagram; vertex order is part of the data."""

    __slots__ = ("n_in", "n_out", "kinds", "vertex_inputs", "out_sources")

    def __init__(self, n_in: int, n_out: int, kinds, vertex_inputs, out_sources):
        kinds = tuple(kinds)
        vertex_inputs = tuple(tuple(v) for v in vertex_inputs)
        out_sources = tuple(out_sources)
        if n_in < 0 or n_out < 0:
            raise ValueError("leg counts must be nonnegative")
        if len(kinds) != len(vertex_inputs):
            raise ValueError("one input tuple per vertex required")
        produced = {("in", i) for i in range(n_in)}
        consumed = []
        for vid, kind in enumerate(kinds):
            if kind not in KIND_ARITY:
                raise ValueError(f"unknown vertex kind {kind!r}")
            ins, outs = KIND_ARITY[kind]
            if len(vertex_inputs[vid]) != ins:
                raise ValueError(f"vertex {vid} ({kind}) needs {ins} inputs")
            for src in vertex_inputs[vid]:
                if src not in produced:
                    raise ValueError(
                        f"vertex {vid} consumes unavailable source {src!r}"
                    )
                consumed.append(src)
            for port in range(outs):
                produced.add(("v", vid, port))
        for src in out_sources:
            if src not in produced:
                raise ValueError(f"output leg consumes unavailable source {src!r}")
            consumed.append(src)
        if len(out_sources) != n_out:
            raise ValueError(f"expected {n_out} output legs")
        if len(consumed) != len(set(consumed)):
            raise ValueError("a source is consumed more than once")
        if len(consumed) != len(produced):
            unused = produced - set(consumed)
            raise ValueError(f"dangling sources: {sorted(unused)!r}")
        object.__setattr__(self, "n_in", int(n_in))
        object.__setattr__(self, "n_out", int(n_out))
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "vertex_inputs", vertex_inputs)
        object.__setattr__(self, "out_sources", out_sources)

    def __setattr__(self, name, value):
        raise AttributeError("PropGraph is immutable")

    def _key(self):
        return (self.n_in, self.n_out, self.kinds, self.vertex_inputs, self.out_sources)

    def __eq__(self, other):
        return isinstance(other, PropGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"PropGraph({self.n_in}->{self.n_out}, "
            f"{'|'.join(self.kinds) or 'wires'})"
        )

    @property
    def degree(self) -> int:
        return sum(1 for k in self.kinds if k == "star")

    @property
    def stars(self) -> tuple:
        return tuple(vid for vid, k in enumerate(self.kinds) if k == "star")


def identity_graph(n: int) -> PropGraph:
    return PropGraph(n, n, (), (), tuple(("in", i) for i in range(n)))


def permutation_graph(perm) -> PropGraph:
    n = len(perm)
    return PropGraph(n, n, (), (), tuple(("in", perm[i]) for i in range(n)))


def counit_graph() -> PropGraph:
    return PropGraph(1, 0, ("eps",), ((("in", 0),),), ())


def coproduct_graph() -> PropGraph:
    return PropGraph(
        1, 2, ("delta",), ((("in", 0),),), (("v", 0, 0), ("v", 0, 1))
    )


def join_graph() -> PropGraph:
    return PropGraph(2, 1, ("star",), ((("in", 0), ("in", 1)),), (("v", 0, 0),))


def _relabel(graph: PropGraph, inputs, vertex, order=None):
    """Kinds, vertex inputs and outputs of graph, vertices taken in order,
    with input leg i read as the source inputs(i) and vertex v renamed
    vertex(v)."""

    def remap(src):
        if src[0] == "in":
            return inputs(src[1])
        return ("v", vertex(src[1]), src[2])

    order = range(len(graph.kinds)) if order is None else order
    return (
        tuple(graph.kinds[vid] for vid in order),
        tuple(tuple(map(remap, graph.vertex_inputs[vid])) for vid in order),
        tuple(map(remap, graph.out_sources)),
    )


def compose_graphs(first: PropGraph, second: PropGraph) -> PropGraph:
    """Feed the outputs of first into the inputs of second."""
    if first.n_out != second.n_in:
        raise ValueError(
            f"cannot compose: {first.n_out} outputs into {second.n_in} inputs"
        )
    off = len(first.kinds)
    inputs = first.out_sources
    kinds, vins, out = _relabel(second, lambda i: inputs[i], lambda v: v + off)
    return PropGraph(
        first.n_in, second.n_out, first.kinds + kinds, first.vertex_inputs + vins, out
    )


def tensor_graphs(a: PropGraph, b: PropGraph) -> PropGraph:
    off = len(a.kinds)
    kinds, vins, out = _relabel(b, lambda i: ("in", i + a.n_in), lambda v: v + off)
    return PropGraph(
        a.n_in + b.n_in,
        a.n_out + b.n_out,
        a.kinds + kinds,
        a.vertex_inputs + vins,
        a.out_sources + out,
    )


def reorder_vertices(graph: PropGraph, order) -> PropGraph:
    """Relabel vertices so order[t] sits at slot t; must stay acyclic."""
    order = tuple(order)
    if sorted(order) != list(range(len(graph.kinds))):
        raise ValueError("order must permute the vertices")
    slot = {vid: t for t, vid in enumerate(order)}
    parts = _relabel(graph, lambda i: ("in", i), lambda v: slot[v], order)
    return PropGraph(graph.n_in, graph.n_out, *parts)


def reorder_sign(graph: PropGraph, order) -> int:
    """Koszul sign of the reordering: one -1 per inverted pair of stars."""
    return koszul_sign(tuple(order), [kind == "star" for kind in graph.kinds])


def _star_to_eps(graph: PropGraph, vid: int, eaten_idx: int) -> PropGraph:
    """Degenerate one star: the counit eats one input, the other passes."""
    a, b = graph.vertex_inputs[vid]
    eaten = (a, b)[eaten_idx]
    passing = (b, a)[eaten_idx]
    kinds = list(graph.kinds)
    kinds[vid] = "eps"
    vins = list(graph.vertex_inputs)
    vins[vid] = (eaten,)

    def rewire(src):
        return passing if src == ("v", vid, 0) else src

    vins = [tuple(rewire(s) for s in v) for v in vins]
    out = tuple(rewire(s) for s in graph.out_sources)
    return PropGraph(graph.n_in, graph.n_out, kinds, vins, out)


def graph_boundary(graph: PropGraph, ring: Ring = ZZ) -> FreeElement:
    """d(graph): each star degenerates both ways, with Koszul position signs.

    Per star, the positive term lets the counit eat the first input and
    the negative term the second, matching d[0,1] = [1] - [0].
    """
    sums = {}
    # vertex 0 acts innermost, so the Leibniz sign counts stars after it
    remaining = graph.degree
    for vid, kind in enumerate(graph.kinds):
        if kind != "star":
            continue
        remaining -= 1
        sign = -1 if remaining % 2 else 1
        first = _star_to_eps(graph, vid, 0)
        sums[first] = sums.get(first, 0) + sign
        second = _star_to_eps(graph, vid, 1)
        sums[second] = sums.get(second, 0) - sign
    return FreeElement._from_sums(ring, sums)


def evaluate(graph: PropGraph, bialgebra, inputs) -> FreeElement:
    """Run the graph on basis keys of a chain-level bialgebra.

    bialgebra provides ring, degree, counit, coproduct, join; the result
    is a sum of n_out-tuples of basis keys with coefficients, including
    all Koszul signs from moving the degree-1 joins into position.
    """
    ring = bialgebra.ring
    inputs = tuple(inputs)
    if len(inputs) != graph.n_in:
        raise ValueError(f"graph wants {graph.n_in} inputs, got {len(inputs)}")
    start = tuple((("in", i), key) for i, key in enumerate(inputs))
    states = [(1, start)]
    for vid, kind in enumerate(graph.kinds):
        sources = graph.vertex_inputs[vid]
        new_states = []
        for coef, frontier in states:
            pos = {src: t for t, (src, _) in enumerate(frontier)}
            if kind == "eps":
                p = pos[sources[0]]
                c = bialgebra.counit(frontier[p][1])
                if not c:
                    continue
                new_states.append((coef * c, frontier[:p] + frontier[p + 1 :]))
            elif kind == "delta":
                p = pos[sources[0]]
                for (k1, k2), c in bialgebra.coproduct(frontier[p][1]).items():
                    repl = ((("v", vid, 0), k1), (("v", vid, 1), k2))
                    new_states.append(
                        (coef * c, frontier[:p] + repl + frontier[p + 1 :])
                    )
            else:
                pa = pos[sources[0]]
                pb = pos[sources[1]]
                ka = frontier[pa][1]
                kb = frontier[pb][1]
                degrees = [bialgebra.degree(k) for _, k in frontier]
                pmin = min(pa, pb)
                perm = (
                    list(range(pmin))
                    + [pa, pb]
                    + [t for t in range(pmin, len(frontier)) if t not in (pa, pb)]
                )
                sign = koszul_sign(perm, degrees)
                # the join has degree 1 and passes everything left of it
                if sum(degrees[:pmin]) % 2:
                    sign = -sign
                permuted = tuple(frontier[t] for t in perm)
                for key, c in bialgebra.join(ka, kb).items():
                    repl = ((("v", vid, 0), key),)
                    new_states.append(
                        (coef * sign * c, permuted[:pmin] + repl + permuted[pmin + 2 :])
                    )
        states = new_states
    sums = {}
    for coef, frontier in states:
        pos = {src: t for t, (src, _) in enumerate(frontier)}
        degrees = [bialgebra.degree(k) for _, k in frontier]
        perm = [pos[s] for s in graph.out_sources]
        sign = koszul_sign(perm, degrees)
        key = tuple(frontier[t][1] for t in perm)
        sums[key] = sums.get(key, 0) + coef * sign
    return FreeElement._from_sums(ring, sums)


def hopf_coproduct(graph: PropGraph, ring: Ring = ZZ) -> FreeElement:
    """Diagonal on graphs: the cube diagonal applied to the stars.

    Stars are the axes of a cube in reverse vertex order, so axis signs
    line up with the boundary's innermost-first Leibniz convention; each
    diagonal term keeps a star on one side and degenerates it on the
    other, 0 passing the first input and 1 the second.
    """
    stars = tuple(reversed(graph.stars))

    def degenerate(side):
        out = graph
        for t, vid in enumerate(stars):
            if side[t] != I:
                out = _star_to_eps(out, vid, int(side[t] == "0"))
        return out

    sums = {}
    for sides, c in serre_coproduct((I,) * len(stars), ring).items():
        pair = tuple(map(degenerate, sides))
        sums[pair] = sums.get(pair, 0) + c
    return FreeElement._from_sums(ring, sums)


def hopf_counit(graph: PropGraph, ring: Ring = ZZ):
    return ring.one if graph.degree == 0 else ring.zero


def msl_generator(parts) -> PropGraph:
    """Split one strand into labeled tensor factors and join the groups.

    parts lists strictly increasing tuples partitioning 1..N; strand k
    of the iterated coproduct goes to group j when k is in parts[j], and
    each group is joined left to right. Arity 1 -> len(parts), degree
    N - len(parts).
    """
    parts = tuple(tuple(int(i) for i in p) for p in parts)
    if not parts:
        raise ValueError("need at least one part")
    flat = [i for p in parts for i in p]
    n = len(flat)
    if sorted(flat) != list(range(1, n + 1)):
        raise ValueError(f"parts must partition 1..{n}: {parts!r}")
    for p in parts:
        if any(a >= b for a, b in zip(p, p[1:])) or not p:
            raise ValueError(f"part not strictly increasing: {p!r}")
    kinds = []
    vins = []
    strands = []
    src = ("in", 0)
    for k in range(n - 1):
        vid = len(kinds)
        kinds.append("delta")
        vins.append((src,))
        strands.append(("v", vid, 0))
        src = ("v", vid, 1)
    strands.append(src)
    out = []
    for p in parts:
        acc = strands[p[0] - 1]
        for i in p[1:]:
            vid = len(kinds)
            kinds.append("star")
            vins.append((acc, strands[i - 1]))
            acc = ("v", vid, 0)
        out.append(acc)
    return PropGraph(1, len(parts), kinds, vins, out)


def random_prop_graph(rng, n_in: int | None = None, max_vertices: int = 6,
                      max_stars: int | None = None) -> PropGraph:
    """Random valid wiring; the pool invariant keeps every source used."""
    if n_in is None:
        n_in = rng.randrange(1, 4)
    pool = [("in", i) for i in range(n_in)]
    kinds = []
    vins = []
    stars = 0
    for _ in range(rng.randrange(0, max_vertices + 1)):
        if not pool:
            break
        options = ["delta", "eps"]
        if len(pool) >= 2 and (max_stars is None or stars < max_stars):
            options.append("star")
        kind = rng.choice(options)
        vid = len(kinds)
        if kind == "star":
            a = pool.pop(rng.randrange(len(pool)))
            b = pool.pop(rng.randrange(len(pool)))
            kinds.append(kind)
            vins.append((a, b))
            pool.append(("v", vid, 0))
            stars += 1
        else:
            src = pool.pop(rng.randrange(len(pool)))
            kinds.append(kind)
            vins.append((src,))
            if kind == "delta":
                pool.extend([("v", vid, 0), ("v", vid, 1)])
    out = list(pool)
    rng.shuffle(out)
    return PropGraph(n_in, len(out), kinds, vins, out)


def random_linear_extension(graph: PropGraph, rng):
    """A random vertex order compatible with the wiring."""
    nv = len(graph.kinds)
    deps = {vid: set() for vid in range(nv)}
    for vid in range(nv):
        for src in graph.vertex_inputs[vid]:
            if src[0] == "v":
                deps[vid].add(src[1])
    placed = []
    remaining = set(range(nv))
    while remaining:
        ready = [v for v in remaining if deps[v] <= set(placed)]
        pick = rng.choice(ready)
        placed.append(pick)
        remaining.discard(pick)
    return placed


# --- standard cells, the cyclic resolution and the lifting machinery ---

def cell_family(geometry: str):
    """The standard-cell class a geometry name stands for."""
    families = {"simplex": SimplexBialgebra, "cube": CubeBialgebra}
    if geometry not in families:
        raise ValueError(f"unknown geometry {geometry!r}")
    return families[geometry]


def push_terms(ring: Ring, element: FreeElement, push) -> FreeElement:
    """Push every factor of every tensor term of element; a factor pushed
    to None (a degenerate image) drops its term."""
    sums = {}
    for key, c in element.items():
        pushed = tuple(map(push, key))
        if None not in pushed:
            sums[pushed] = sums.get(pushed, 0) + c
    return FreeElement._from_sums(ring, sums)


class WResolution:
    """Minimal free resolution of the trivial module over k[C_p].

    One generator e_i per degree; d e_i alternates between 1 - rho and
    the norm 1 + rho + ... + rho^{p-1}.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p

    def differential(self, i: int):
        """d e_i as ((rho power, integer coefficient), ...)."""
        if i < 0:
            raise ValueError("negative resolution degree")
        if i == 0:
            return ()
        if i % 2 == 1:
            return ((0, 1), (1, -1))
        return tuple((k, 1) for k in range(self.p))


class PsiMachine:
    """Natural chain operations chains(model) -> chains(model)^{otimes p}.

    Realizes the resolution generators as operations: e_0 becomes the
    iterated coproduct, and each higher generator is lifted against the
    boundary demanded by the resolution differential, using the
    basepoint-join contraction on the standard model. Values on lower
    cells are pushforwards of the value on the top cell of their own
    dimension, so every value is natural in the model.
    """

    def __init__(self, p: int, geometry: str = "simplex", ring: Ring | None = None):
        self.p = p
        self.geometry = geometry
        self.family = cell_family(geometry)
        self.ring = GF(p) if ring is None else ring
        self.w = WResolution(p)
        self._models = {}
        self._top_values = {}

    def model(self, m: int):
        if m not in self._models:
            self._models[m] = self.family(m, self.ring)
        return self._models[m]

    def rho(self, element: FreeElement) -> FreeElement:
        """Cyclic action on p-tensors: last factor to the front."""
        # the rotation is a bijection on keys, so nothing adds up
        sums = {}
        for key, c in element.items():
            sign = cyclic_rotation_sign([self.family.degree(x) for x in key])
            sums[(key[-1],) + key[:-1]] = c * sign
        return FreeElement._from_sums(self.ring, sums)

    def rho_power(self, element: FreeElement, k: int) -> FreeElement:
        for _ in range(k % self.p):
            element = self.rho(element)
        return element

    def iterated_coproduct(self, bial, key) -> FreeElement:
        current = FreeElement.single(self.ring, (key,))
        for _ in range(self.p - 1):
            sums = {}
            for tup, c in current.items():
                for (a, b), c2 in bial.coproduct(tup[-1]).items():
                    new = tup[:-1] + (a, b)
                    sums[new] = sums.get(new, 0) + c * c2
            current = FreeElement._from_sums(self.ring, sums)
        return current

    def h_tensor(self, bial, element: FreeElement) -> FreeElement:
        """Tensor contraction: project the prefix, contract one factor.

        The projected prefix has degree zero, so the degree-1 contraction
        passes it without signs; d h + h d = id - (projection)^p.
        """
        sums = {}
        for key, c in element.items():
            for j in range(self.p):
                coeff = c
                for x in key[:j]:
                    coeff *= bial.counit(x)
                if not coeff:
                    continue
                prefix = (bial.basepoint,) * j
                for lifted, c2 in bial.contract(key[j]).items():
                    new_key = prefix + (lifted,) + key[j + 1 :]
                    sums[new_key] = sums.get(new_key, 0) + coeff * c2
        return FreeElement._from_sums(self.ring, sums)

    def top_value(self, i: int, m: int) -> FreeElement:
        """psi(e_i) on the top cell of the m-dimensional model."""
        if (i, m) in self._top_values:
            return self._top_values[(i, m)]
        ring = self.ring
        bial = self.model(m)
        top = bial.top
        if i == 0:
            out = self.iterated_coproduct(bial, top)
        else:
            z = FreeElement.zero(ring)
            for power, coeff in self.w.differential(i):
                z = z + self.rho_power(self.top_value(i - 1, m), power).scale(
                    ring.from_int(coeff)
                )
            sign = ring.from_int(-1 if i % 2 else 1)
            for face, c in bial.complex.diff(top).items():
                z = z + self.on_cell(i, face).scale(ring.mul(sign, c))
            out = self.h_tensor(bial, z)
        self._top_values[(i, m)] = out
        return out

    def on_cell(self, i: int, key) -> FreeElement:
        """psi(e_i) on any standard-model cell, by naturality.

        The value on a face is the pushforward of the value on the top
        cell of its own dimension, so components come out in the same
        coordinates as the input cell.
        """
        m = self.family.degree(key)
        value = self.top_value(i, m)
        if key == self.model(m).top:
            return value
        # the inclusion of a standard-model cell degenerates no face
        return push_terms(self.ring, value, lambda x: self.family.substitute(key, x))
