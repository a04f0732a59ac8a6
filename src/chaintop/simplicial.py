"""Simplicial sets with explicit nondegenerate cells and normalized chains.

A simplicial set is given by its nondegenerate cells and their faces;
degenerate simplices are handled symbolically through SimplexRef, which
keeps every degeneracy word in the unique strictly-decreasing normal
form. On top of that sit the normalized chain complex, the front/back
(Alexander-Whitney style) coproduct, and the vertex-join product that
standard simplices carry in degree 1.
"""

from __future__ import annotations

from .complexes import CellSet, ChainComplex, GradedLinearMap, Window, graded_ids
from .freemod import FreeElement
from .rings import Ring, ZZ


class SimplexRef:
    """s_{w_1} s_{w_2} ... s_{w_k} (base), with w strictly decreasing.

    Every degenerate simplex has exactly one such word, so refs compare
    and hash structurally. SimplexRef(base, word) checks that the word
    is strictly decreasing. The face and degeneracy rules of this module
    (`SimplicialSet.face_of_ref`, `apply_degeneracy`) build their results
    with `_normal_ref`, which skips that check: both rules take words in
    normal form to words in normal form.
    """

    __slots__ = ("base", "word")

    def __init__(self, base, word=()):
        word = tuple(word)
        if any(a <= b for a, b in zip(word, word[1:])):
            raise ValueError(f"degeneracy word not strictly decreasing: {word}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexRef is immutable")

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)

    def __eq__(self, other):
        return (
            isinstance(other, SimplexRef)
            and self.base == other.base
            and self.word == other.word
        )

    def __hash__(self):
        return hash(("SimplexRef", self.base, self.word))

    def __repr__(self):
        if not self.word:
            return f"<{self.base}>"
        letters = " ".join(f"s{i}" for i in self.word)
        return f"<{letters} {self.base}>"


# the slot descriptors write past the immutability guard, and cost less
# than object.__setattr__
_set_base = SimplexRef.base.__set__
_set_word = SimplexRef.word.__set__


def _normal_ref(base, word: tuple) -> SimplexRef:
    """SimplexRef(base, word) for a word already known to be a strictly
    decreasing tuple, built without checking it."""
    ref = object.__new__(SimplexRef)
    _set_base(ref, base)
    _set_word(ref, word)
    return ref


def apply_degeneracy(ref: SimplexRef, i: int) -> SimplexRef:
    """s_i applied on the outside, renormalized via s_i s_j = s_{j+1} s_i."""
    word = ref.word
    out = []
    t = 0
    while t < len(word) and i <= word[t]:
        out.append(word[t] + 1)
        t += 1
    out.append(i)
    out.extend(word[t:])
    return _normal_ref(ref.base, tuple(out))


class SimplicialSet(CellSet):
    """Finite collection of nondegenerate simplices plus face structure.

    cells maps dimension -> ordered ids (ids unique across dimensions),
    checked and kept as one `Window` (`CellSet`); faces maps id ->
    tuple of SimplexRef, one per face index, each one dimension down.
    The set keeps each cell's tuple as given, one dict entry per cell
    (`faces`), so reading a face indexes that tuple and builds no key.
    Use validate() to check the simplicial identities. complete=False
    marks a truncation of a larger object: cells above the listed top
    dimension exist but are not stored.
    """

    _kind = "simplicial set"

    def __init__(self, name: str, cells, faces, complete: bool = True):
        super().__init__(name, cells, complete)
        self._faces = {}
        dims = self._dim
        for cid, refs in faces.items():
            n = self.dim_of(cid)
            refs = tuple(refs)
            if len(refs) != n + 1:
                raise ValueError(f"cell {cid!r} of dimension {n} needs {n + 1} faces")
            for i, ref in enumerate(refs):
                base_dim = dims.get(ref.base)
                # an unknown base raises ref_dim's KeyError in the message
                if base_dim is None or base_dim + len(ref.word) != n - 1:
                    raise ValueError(
                        f"face {i} of {cid!r} has dimension {self.ref_dim(ref)}, "
                        f"expected {n - 1}"
                    )
            self._faces[cid] = refs
        for cid, n in dims.items():
            if n > 0 and cid not in self._faces:
                raise ValueError(f"cell {cid!r} has no faces given")
        self._refs_cache = {}

    @classmethod
    def _trusted(cls, name: str, window: Window, faces: dict) -> SimplicialSet:
        """A complete set from tables that a checked set already holds.

        window is the cells as `complexes.graded_ids` returns them, and
        faces maps each id of positive dimension to the tuple of its
        faces, as a checked set stores them; nothing is checked again.
        """
        space = object.__new__(cls)
        space.name = name
        space.complete = True
        space._keep(window)
        space._faces = faces
        space._refs_cache = {}
        return space

    def ref_dim(self, ref: SimplexRef) -> int:
        return self.dim_of(ref.base) + len(ref.word)

    def face(self, cid, i: int) -> SimplexRef:
        n = self.dim_of(cid)
        if n == 0 or not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dimension {n}")
        return self._faces[cid][i]

    def faces(self, cid) -> tuple:
        """The faces d_0 .. d_n of a cell as one tuple; () for a vertex."""
        return self._faces[cid] if self.dim_of(cid) else ()

    def ref(self, cid) -> SimplexRef:
        self.dim_of(cid)
        return _normal_ref(cid, ())

    def face_of_ref(self, ref: SimplexRef, i: int) -> SimplexRef:
        """d_i pushed through the degeneracy word of ref.

        Uses d_i s_j = s_{j-1} d_i (i < j), = id (i in {j, j+1}),
        = s_j d_{i-1} (i > j + 1).
        """
        word = ref.word
        out = []
        for t, j in enumerate(word):
            if i < j:
                out.append(j - 1)
            elif i == j or i == j + 1:
                return _normal_ref(ref.base, tuple(out) + word[t + 1 :])
            else:
                out.append(j)
                i -= 1
        inner = self.face(ref.base, i)
        for s in reversed(out):
            inner = apply_degeneracy(inner, s)
        return inner

    def refs(self, n: int):
        """All simplices of dimension n, degenerate ones included."""
        if n < 0:
            return ()
        if n not in self._refs_cache:
            found = [SimplexRef(cid) for cid in self.nondegenerate(n)]
            seen = set(found)
            for ref in self.refs(n - 1):
                for i in range(n):
                    new = apply_degeneracy(ref, i)
                    if new not in seen:
                        seen.add(new)
                        found.append(new)
            self._refs_cache[n] = tuple(found)
        return self._refs_cache[n]

    def validate(self) -> None:
        """Check d_i d_j = d_{j-1} d_i (i < j) on every nondegenerate cell.

        The first faces d_k x are the cell's stored tuple. The pairs of a
        cell are checked in the order (j, i) = (1, 0), (2, 0), (2, 1),
        (3, 0), ..., so a broken set reports its first failing pair. The
        faces d_i f of a nondegenerate first face f are f's stored tuple,
        read with no lookup per entry. For a
        degenerate f, d_i f is computed when a pair first needs it and kept
        per face object, so a ref that many cells share (as
        `simplicial_from_json` shares equal ones) is pushed through each
        face map once. The pairs depend on the first faces alone, so a
        cell whose faces are the same objects as those of a cell already
        checked passes with it.
        """
        face_of_ref = self.face_of_ref
        faces = self._faces
        # id of a first face -> its faces d_0 .. d_{n-1}, None until needed;
        # the refs are held by self._faces, so their ids stay unique
        rows = {}
        checked = set()
        for n in self.dimensions():
            if n < 2:
                continue
            for cid in self.nondegenerate(n):
                first = faces[cid]
                ids = tuple(map(id, first))
                if ids in checked:
                    continue
                checked.add(ids)
                own = []
                for f in first:
                    row = rows.get(id(f))
                    if row is None:
                        # a stored tuple has no None, so it is never written
                        row = rows[id(f)] = [None] * n if f.word else faces[f.base]
                    own.append(row)
                for j in range(1, n + 1):
                    row_j = own[j]
                    for i in range(j):
                        left = row_j[i]
                        if left is None:
                            left = row_j[i] = face_of_ref(first[j], i)
                        row_i = own[i]
                        right = row_i[j - 1]
                        if right is None:
                            right = row_i[j - 1] = face_of_ref(first[i], j - 1)
                        if left is not right and left != right:
                            raise ValueError(
                                f"simplicial identity fails on {cid!r}: "
                                f"d_{i} d_{j} = {left!r} but d_{j-1} d_{i} = {right!r}"
                            )


def normalized_chains(
    space: SimplicialSet, max_degree: int | None = None, ring: Ring = ZZ
) -> ChainComplex:
    """Normalized chains: nondegenerate cells, faces with degenerates dropped.

    The basis is the space's own cells, already indexed and checked, so
    it goes to `ChainComplex` as a `Window`, not to be checked again:
    when it holds every cell, the space's own window, index and all.
    """
    top = space.dimension if max_degree is None else min(max_degree, space.dimension)
    if top >= space.dimension:
        basis = space.window
    else:
        basis = Window((n, space.nondegenerate(n)) for n in range(top + 1))

    def diff(key):
        sums = {}
        for i, ref in enumerate(space.faces(key)):
            if not ref.word:
                sums[ref.base] = sums.get(ref.base, 0) + (-1 if i % 2 else 1)
        return sums

    complete = space.complete and top >= space.dimension
    chains = ChainComplex(ring, basis, diff, complete=complete, name=space.name)
    # every degree up to top is stored in full, the empty ones included
    chains.max_degree = max(chains.max_degree, top)
    return chains


def front_face(space: SimplicialSet, ref: SimplexRef, i: int) -> SimplexRef:
    """The face spanned by the first i + 1 vertices."""
    out = ref
    for t in range(space.ref_dim(ref), i, -1):
        out = space.face_of_ref(out, t)
    return out


def back_face(space: SimplicialSet, ref: SimplexRef, j: int) -> SimplexRef:
    """The face spanned by the last j + 1 vertices."""
    out = ref
    for _ in range(space.ref_dim(ref) - j):
        out = space.face_of_ref(out, 0)
    return out


def aw_coproduct(space: SimplicialSet, key, ring: Ring = ZZ) -> FreeElement:
    """Front-back coproduct of a nondegenerate cell, in normalized chains.

    Delta(x) = sum_i front_i(x) ox back_{n-i}(x); summands with a
    degenerate factor vanish. All signs are +1.
    """
    n = space.dim_of(key)
    ref = space.ref(key)
    sums = {}
    for i in range(n + 1):
        left = front_face(space, ref, i)
        right = back_face(space, ref, n - i)
        if not left.is_degenerate and not right.is_degenerate:
            pair = (left.base, right.base)
            sums[pair] = sums.get(pair, 0) + 1
    return FreeElement._from_sums(ring, sums)


# --- standard simplices and the vertex join ---

def standard_simplex(n: int) -> SimplicialSet:
    """The n-simplex; cells are increasing vertex tuples."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    cells = {}
    faces = {}
    from itertools import combinations

    for m in range(n + 1):
        ids = list(combinations(range(n + 1), m + 1))
        cells[m] = ids
        if m > 0:
            for tup in ids:
                faces[tup] = tuple(
                    SimplexRef(tup[:i] + tup[i + 1 :]) for i in range(m + 1)
                )
    return SimplicialSet(f"simplex{n}", cells, faces)


def join_vertex_tuples(a: tuple, b: tuple):
    """Join of two vertex tuples: (sorted union, sign), or None if they meet.

    The sign is (-1)^(dim a + inversions of the sorting shuffle).
    """
    merged = a + b
    if len(set(merged)) != len(merged):
        return None
    inversions = sum(
        1
        for i in range(len(merged))
        for j in range(i + 1, len(merged))
        if merged[i] > merged[j]
    )
    sign = -1 if (len(a) - 1 + inversions) % 2 else 1
    return tuple(sorted(merged)), sign


class CellBialgebra:
    """Chains on a standard cell with counit, coproduct, and join.

    A subclass is one family of standard cells and the one place that
    knows its geometry: the static `degree(key)`, `substitute(outer,
    inner)` (the cell inner of the standard model names inside the cell
    outer), and `pushforward(space, cell, key)` (the image of a
    standard-model key under the characteristic map of a cell of space).
    The basepoint-join contraction and its projection are shared.
    """

    def contract(self, key) -> FreeElement:
        """h(x) = basepoint * x, the standard contraction."""
        return self.join(self.basepoint, key)

    def project(self, key) -> FreeElement:
        """pi(x) = counit(x) basepoint."""
        c = self.counit(key)
        if self.ring.is_zero(c):
            return FreeElement.zero(self.ring)
        return FreeElement.single(self.ring, self.basepoint, c)


class SimplexBialgebra(CellBialgebra):
    """Chains on a standard simplex; keys are increasing vertex tuples."""

    def __init__(self, n: int, ring: Ring = ZZ):
        self.n = n
        self.ring = ring
        self.space = standard_simplex(n)
        self.complex = normalized_chains(self.space, ring=ring)
        self.basepoint = (0,)
        self.top = tuple(range(n + 1))
        self.name = f"simplex{n}"

    @staticmethod
    def degree(key) -> int:
        return len(key) - 1

    @staticmethod
    def substitute(outer, inner):
        return tuple(outer[t] for t in inner)

    @staticmethod
    def pushforward(space, cell, key) -> SimplexRef:
        return monotone_ref(space, cell, key)

    def counit(self, key):
        return self.ring.one if len(key) == 1 else self.ring.zero

    def coproduct(self, key) -> FreeElement:
        one = self.ring.one
        return FreeElement._trusted(
            self.ring, {(key[: i + 1], key[i:]): one for i in range(len(key))}
        )

    def join(self, ka, kb) -> FreeElement:
        hit = join_vertex_tuples(ka, kb)
        if hit is None:
            return FreeElement.zero(self.ring)
        key, sign = hit
        return FreeElement.single(self.ring, key, self.ring.from_int(sign))


# --- models ---

def sphere_model(n: int) -> SimplicialSet:
    """One vertex and one n-cell, all of whose faces collapse."""
    if n < 1:
        raise ValueError("sphere model needs n >= 1")
    degenerate_point = SimplexRef("p", tuple(range(n - 2, -1, -1)))
    faces = {"s": tuple(degenerate_point for _ in range(n + 1))}
    return SimplicialSet(f"sphere{n}", {0: ["p"], n: ["s"]}, faces)


def projective_plane_model() -> SimplicialSet:
    """One vertex, edges a and b, two triangles glueing to RP^2.

    Faces (d0, d1, d2): U -> (a, s0 p, b), L -> (s0 p, a, b). Obtained
    from the classical two-vertex triangulation by collapsing a spanning
    edge; pi_1 = <a, b | b a = 1, a = b> = Z/2.
    """
    sp = SimplexRef("p", (0,))
    faces = {
        "a": (SimplexRef("p"), SimplexRef("p")),
        "b": (SimplexRef("p"), SimplexRef("p")),
        "U": (SimplexRef("a"), sp, SimplexRef("b")),
        "L": (sp, SimplexRef("a"), SimplexRef("b")),
    }
    return SimplicialSet("rp2", {0: ["p"], 1: ["a", "b"], 2: ["U", "L"]}, faces)


def two_vertex_projective_plane() -> SimplicialSet:
    """The classical 2-vertex triangulation of RP^2 (before edge collapse)."""
    rv, rw = SimplexRef("v"), SimplexRef("w")
    faces = {
        "a": (rw, rv),
        "b": (rw, rv),
        "c": (rv, rv),
        "U": (SimplexRef("b"), SimplexRef("a"), SimplexRef("c")),
        "L": (SimplexRef("a"), SimplexRef("b"), SimplexRef("c")),
    }
    return SimplicialSet(
        "rp2_two_vertex", {0: ["v", "w"], 1: ["a", "b", "c"], 2: ["U", "L"]}, faces
    )


def point_model() -> SimplicialSet:
    return SimplicialSet("point", {0: ["p"]}, {})


def simplicial_model(name: str, n: int | None = None) -> SimplicialSet:
    """Built-in models by name: point, simplex, sphere, circle, rp2.

    simplex and sphere need the dimension n; the others take none, and a
    dimension given to them raises ValueError rather than being dropped.
    """
    if n is not None and name in ("point", "circle", "rp2"):
        raise ValueError(f"{name} model takes no dimension")
    if name == "point":
        return point_model()
    if name == "simplex":
        if n is None:
            raise ValueError("simplex model needs a dimension")
        return standard_simplex(n)
    if name == "sphere":
        if n is None:
            raise ValueError("sphere model needs a dimension")
        return sphere_model(n)
    if name == "circle":
        return sphere_model(1)
    if name == "rp2":
        return projective_plane_model()
    raise ValueError(f"unknown simplicial model {name!r}")


# --- simplicial maps ---

class SimplicialMap:
    """Map of simplicial sets, given on nondegenerate cells.

    mapping sends each nondegenerate id of the source to a SimplexRef of
    the target in the same dimension.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        for cid in self.mapping:
            if self.source.dim_of(cid) != self.target.ref_dim(self.mapping[cid]):
                raise ValueError(f"map does not preserve dimension at {cid!r}")
        for n in source.dimensions():
            for cid in source.nondegenerate(n):
                if cid not in self.mapping:
                    raise ValueError(f"map not defined on {cid!r}")

    def apply_ref(self, ref: SimplexRef) -> SimplexRef:
        out = self.mapping[ref.base]
        for s in reversed(ref.word):
            out = apply_degeneracy(out, s)
        return out

    def validate(self) -> None:
        """Commutation with every face map, hence with all structure maps."""
        for n in self.source.dimensions():
            if n == 0:
                continue
            for cid in self.source.nondegenerate(n):
                image = self.apply_ref(self.source.ref(cid))
                for i in range(n + 1):
                    left = self.apply_ref(self.source.face(cid, i))
                    right = self.target.face_of_ref(image, i)
                    if left != right:
                        raise ValueError(
                            f"not simplicial at {cid!r}, face {i}: "
                            f"f(d_i x) = {left!r} != d_i f(x) = {right!r}"
                        )

    def chain_map(self, ring: Ring = ZZ, max_degree: int | None = None) -> GradedLinearMap:
        chains_source = normalized_chains(self.source, max_degree, ring)
        chains_target = normalized_chains(self.target, max_degree, ring)

        def rule(key):
            ref = self.apply_ref(self.source.ref(key))
            if ref.is_degenerate:
                return FreeElement.zero(ring)
            return FreeElement.single(ring, ref.base)

        return GradedLinearMap(chains_source, chains_target, 0, rule)


def collapse_to_sphere(n: int) -> SimplicialMap:
    """Quotient of the n-simplex by its boundary."""
    source = standard_simplex(n)
    target = sphere_model(n)
    mapping = {}
    for m in range(n + 1):
        for tup in source.nondegenerate(m):
            if m == n:
                mapping[tup] = SimplexRef("s")
            else:
                mapping[tup] = SimplexRef("p", tuple(range(m - 1, -1, -1)))
    return SimplicialMap(source, target, mapping)


def collapse_to_projective_plane() -> SimplicialMap:
    """Spanning edge collapse from the two-vertex model onto the one-vertex one."""
    source = two_vertex_projective_plane()
    target = projective_plane_model()
    mapping = {
        "v": SimplexRef("p"),
        "w": SimplexRef("p"),
        "a": SimplexRef("p", (0,)),
        "b": SimplexRef("a"),
        "c": SimplexRef("b"),
        "U": SimplexRef("U"),
        "L": SimplexRef("L"),
    }
    return SimplicialMap(source, target, mapping)


def collapse_subcomplex(space: SimplicialSet, cells, name: str = "") -> SimplicialMap:
    """Quotient map collapsing a face-closed set of cells to one point.

    The set must contain every vertex, so the quotient is reduced. Faces
    of surviving cells that land in the set become degenerate basepoint
    simplices of the right dimension.
    """
    collapsed = set(cells)
    for cid in collapsed:
        for ref in space.faces(cid):
            if ref.base not in collapsed:
                raise ValueError(f"collapse set not face-closed at {cid!r}")
    for v in space.nondegenerate(0):
        if v not in collapsed:
            raise ValueError("collapse set must contain every vertex")
    point = "pt"
    while point in space._dim:
        point += "_"

    def collapse_ref(ref: SimplexRef) -> SimplexRef:
        if ref.base in collapsed:
            m = space.ref_dim(ref)
            return SimplexRef(point, tuple(range(m - 1, -1, -1)))
        return ref

    new_cells = {0: (point,)}
    faces = {}
    for n in space.dimensions():
        if n == 0:
            continue
        keep = tuple(c for c in space.nondegenerate(n) if c not in collapsed)
        if keep:
            new_cells[n] = keep
        for cid in keep:
            faces[cid] = tuple(map(collapse_ref, space.faces(cid)))
    target = SimplicialSet(name or f"{space.name}-quotient", new_cells, faces)
    target.validate()
    mapping = {}
    for n in space.dimensions():
        for cid in space.nondegenerate(n):
            mapping[cid] = collapse_ref(SimplexRef(cid))
    return SimplicialMap(space, target, mapping)


def collapse_free_pairs(space: SimplicialSet) -> SimplicialMap:
    """Inclusion Y -> space of what elementary collapses leave of space.

    A pair (sigma, tau) collapses when tau = d_i sigma is nondegenerate
    of dimension >= 2, tau occurs exactly once among the face refs of
    the cells that remain (degenerate refs count), and sigma occurs in
    none. Then space is Y with sigma filling the horn that misses face
    i, so Y is a deformation retract of it (Whitehead's elementary
    collapse), and a 1-reduced space stays 1-reduced. Cells are walked
    top dimension first, each dimension in stored order, until a whole
    walk collapses nothing, so Y does not depend on the hash seed. The
    use counts and the walk read each cell's stored face tuple, and Y
    keeps the very tuples of the cells it keeps.

    Y is the source of the map and keeps the name of space; when nothing
    collapses it is space itself. A truncated space is returned as it
    is, since the cells it does not store may use any face.

    >>> collapse_free_pairs(standard_simplex(3)).source.nondegenerate(2)
    ((0, 1, 2), (0, 1, 3), (0, 2, 3))
    """
    faces = space._faces
    uses = {}
    for refs in faces.values():
        for ref in refs:
            uses[ref.base] = uses.get(ref.base, 0) + 1
    removed = set()
    walk = space.complete
    while walk:
        walk = False
        for n in sorted(space.cells, reverse=True):
            if n < 3:
                break
            for sigma in space.cells[n]:
                if sigma in removed or uses.get(sigma):
                    continue
                for tau in faces[sigma]:
                    if not tau.word and uses[tau.base] == 1:
                        break
                else:
                    continue
                for cid in (sigma, tau.base):
                    removed.add(cid)
                    for ref in faces[cid]:
                        uses[ref.base] -= 1
                walk = True
    rest = space
    if removed:
        # a kept cell has no removed face, since tau goes only when sigma
        # is its one user, so Y needs none of its faces checked again
        window = graded_ids(
            {n: [cid for cid in ids if cid not in removed] for n, ids in space.cells.items()}
        )
        kept = {cid: faces[cid] for cid, n in window.degree_of.items() if n}
        rest = SimplicialSet._trusted(space.name, window, kept)
    mapping = {cid: _normal_ref(cid, ()) for ids in rest.cells.values() for cid in ids}
    return SimplicialMap(rest, space, mapping)


def wedge_models(first: SimplicialSet, second: SimplicialSet, name: str = "") -> SimplicialSet:
    """One-point union of two reduced models; cells are tagged by side."""
    bp = "w"
    cells = {0: (bp,)}
    faces = {}

    def retag(tag: str, space: SimplicialSet) -> None:
        base_v = space.basepoint

        def conv(ref: SimplexRef) -> SimplexRef:
            if ref.base == base_v:
                return SimplexRef(bp, ref.word)
            return SimplexRef((tag, ref.base), ref.word)

        for n in space.dimensions():
            if n == 0:
                continue
            ids = tuple((tag, c) for c in space.nondegenerate(n))
            cells[n] = cells.get(n, ()) + ids
            for c in space.nondegenerate(n):
                faces[(tag, c)] = tuple(map(conv, space.faces(c)))

    retag("a", first)
    retag("b", second)
    out = SimplicialSet(name or f"{first.name}-wedge-{second.name}", cells, faces)
    out.validate()
    return out


def random_reduced_model(rng, max_dim: int = 3, max_cells_per_degree: int = 3):
    """Random reduced quotient of a standard simplex, sometimes a wedge.

    Survivor cells are an upward-closed random family, so the collapsed
    complement is face-closed and contains the whole 0-skeleton.
    """

    def single():
        for _ in range(50):
            n = rng.randint(2, max_dim)
            space = standard_simplex(n)
            pool = [c for m in range(1, n) for c in space.nondegenerate(m)]
            picks = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            survivors = set()
            for m in range(1, n + 1):
                for cell in space.nondegenerate(m):
                    if any(set(p) <= set(cell) for p in picks):
                        survivors.add(cell)
            counts = {}
            for cell in survivors:
                d = space.dim_of(cell)
                counts[d] = counts.get(d, 0) + 1
            if counts and max(counts.values()) <= max_cells_per_degree:
                collapsed = [
                    c
                    for m in space.dimensions()
                    for c in space.nondegenerate(m)
                    if c not in survivors
                ]
                return collapse_subcomplex(space, collapsed).target
        return sphere_model(2)

    space = single()
    if rng.random() < 0.3:
        other = single()
        merged = wedge_models(space, other)
        if all(
            len(merged.nondegenerate(n)) <= max_cells_per_degree
            for n in merged.dimensions()
        ):
            return merged
    return space


# --- characteristic maps and monotone vertex sequences ---

def char_pushforward(space: SimplicialSet, cell, vertex_tuple: tuple) -> SimplexRef:
    """Image of a standard-simplex face under the characteristic map of cell.

    vertex_tuple is a strictly increasing subset of {0..n}, n = dim(cell);
    the result is the iterated face of cell keeping those vertices.
    """
    n = space.dim_of(cell)
    ref = space.ref(cell)
    for i in sorted(set(range(n + 1)) - set(vertex_tuple), reverse=True):
        ref = space.face_of_ref(ref, i)
    return ref


def monotone_ref(space: SimplicialSet, cell, seq) -> SimplexRef:
    """Simplex of space named by a weakly increasing vertex sequence of cell."""
    seq = list(seq)
    if any(a > b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"vertex sequence not monotone: {seq}")
    for t in range(len(seq) - 1):
        if seq[t] == seq[t + 1]:
            inner = monotone_ref(space, cell, seq[: t + 1] + seq[t + 2 :])
            return apply_degeneracy(inner, t)
    return char_pushforward(space, cell, tuple(seq))


# --- JSON input and output ---

def _dimension_key(key) -> int:
    """The dimension a JSON model's "cells" key names, read strictly.

    int() also reads " 2", "+2", "02", "0_2" and "\uff12" as 2, so two
    keys could name one dimension; only the key str(n) is read as n.

    >>> _dimension_key("2")
    2
    >>> _dimension_key("02")
    Traceback (most recent call last):
    ...
    ValueError: bad dimension key '02'
    """
    try:
        n = int(key)
    except (TypeError, ValueError):
        n = None
    if n is None or key != str(n):
        raise ValueError(f"bad dimension key {key!r}")
    return n


def simplicial_from_json(data) -> SimplicialSet:
    """Build and validate a simplicial set from the JSON wire format.

    {"name": ..., "cells": {"0": [ids], "1": [ids], ...},
     "faces": {id: [[base, [degeneracy word]], ...]}}

    A dimension key is the decimal form of its integer, as str(n)
    writes it. A degeneracy word is a strictly decreasing list of JSON
    integers; booleans, floats and strings in it are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError("simplicial JSON must be an object")
    cells_raw = data.get("cells")
    if not isinstance(cells_raw, dict):
        raise ValueError("missing or bad 'cells' object")
    cells = {}
    for key, ids in cells_raw.items():
        n = _dimension_key(key)
        if not isinstance(ids, list) or not all(isinstance(c, str) for c in ids):
            raise ValueError(f"cell list for dimension {key} must hold strings")
        cells[n] = ids
    faces_raw = data.get("faces", {})
    if not isinstance(faces_raw, dict):
        raise ValueError("'faces' must be an object")
    faces = {}
    # one checked ref per distinct (base, word), shared by every face naming it
    shared = {}
    for cid, lst in faces_raw.items():
        if not isinstance(lst, list):
            raise ValueError(f"faces of {cid!r} must be a list")
        refs = []
        for entry in lst:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], list)
            ):
                raise ValueError(f"face entry of {cid!r} must be [base, [word]]")
            word = entry[1]
            # JSON integers only: true and 1.0 would hash and compare as 1
            for i in word:
                if type(i) is not int:
                    raise ValueError(
                        f"bad face of {cid!r}: degeneracy word must hold integers: {word!r}"
                    )
            key = (entry[0], tuple(word))
            ref = shared.get(key)
            if ref is None:
                try:
                    ref = shared[key] = SimplexRef(*key)
                except ValueError as e:
                    raise ValueError(f"bad face of {cid!r}: {e}") from None
            refs.append(ref)
        faces[cid] = tuple(refs)
    try:
        space = SimplicialSet(data.get("name", "input"), cells, faces)
        space.validate()
    except (KeyError, ValueError) as e:
        raise ValueError(f"invalid simplicial set: {e}") from None
    return space


def simplicial_to_json(space: SimplicialSet) -> dict:
    ids = {}
    for n in space.dimensions():
        for cid in space.nondegenerate(n):
            text = cid if isinstance(cid, str) else repr(cid)
            if text in ids:
                raise ValueError(f"cell ids collide as strings: {text!r}")
            ids[text] = cid
    by_text = {v: k for k, v in ids.items()}
    cells = {str(n): [by_text[c] for c in space.nondegenerate(n)] for n in space.dimensions()}
    faces = {}
    for n in space.dimensions():
        if n == 0:
            continue
        for cid in space.nondegenerate(n):
            faces[by_text[cid]] = [
                [by_text[ref.base], list(ref.word)] for ref in space.faces(cid)
            ]
    return {"name": space.name, "cells": cells, "faces": faces}
