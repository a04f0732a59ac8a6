"""Cubical sets with connections, their chains, and the cube coalgebra.

Morphisms of the indexing category (faces, degeneracies, connections and
their composites) are stored semantically: a map 2^m -> 2^n is a tuple
of output entries, each either a constant 0/1 or a block of input
coordinates combined by max. Composition, the cubical identities, and
the unique face/degeneracy factorization are then ordinary function
algebra instead of rewriting rules.

On top: cubical sets with explicit nondegenerate cells, normalized
chains with the Leibniz boundary, the diagonal coalgebra on standard
cubes, the coordinatewise join, triangulation into simplicial sets, and
cubical mapping objects out of simplex powers.
"""

from __future__ import annotations

from itertools import product

from .complexes import CellSet, ChainComplex, GradedLinearMap
from .freemod import FreeElement
from .rings import Ring, ZZ
from .simplicial import CellBialgebra, SimplexRef, SimplicialSet, peel_repeats


class CubeMorphism:
    """A map 2^{n_in} -> 2^{n_out} in the cube category with connections.

    entries[j] describes output j + 1: the constant 0, the constant 1,
    or a strictly increasing tuple of 1-based input coordinates whose
    max is taken. Blocks are pairwise disjoint and increase across
    outputs, which characterizes exactly the composable words in faces,
    degeneracies, and connections.
    """

    __slots__ = ("n_in", "n_out", "entries", "is_identity", "is_degeneracy_morphism")

    def __init__(self, n_in: int, n_out: int, entries):
        entries = tuple(
            e if e in (0, 1) else tuple(int(i) for i in e) for e in entries
        )
        if len(entries) != n_out:
            raise ValueError(f"expected {n_out} entries, got {len(entries)}")
        last = 0
        # the two predicates read off the same pass, once per morphism
        degeneracy = True
        identity = n_in == n_out
        for k, e in enumerate(entries, 1):
            if e in (0, 1):
                degeneracy = identity = False
                continue
            if not e or any(a >= b for a, b in zip(e, e[1:])):
                raise ValueError(f"block not strictly increasing: {e}")
            if e[0] <= last:
                raise ValueError(f"blocks out of order or overlapping at {e}")
            if e[-1] > n_in:
                raise ValueError(f"block {e} exceeds {n_in} inputs")
            last = e[-1]
            identity = identity and e == (k,)
        object.__setattr__(self, "n_in", int(n_in))
        object.__setattr__(self, "n_out", int(n_out))
        object.__setattr__(self, "entries", entries)
        # entries (1,), (2,), ..., (n,) on n inputs
        object.__setattr__(self, "is_identity", identity)
        # no constant entry: a composite of degeneracies and connections
        object.__setattr__(self, "is_degeneracy_morphism", degeneracy)

    def __setattr__(self, name, value):
        raise AttributeError("CubeMorphism is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, CubeMorphism)
            and (self.n_in, self.n_out, self.entries)
            == (other.n_in, other.n_out, other.entries)
        )

    def __hash__(self):
        return hash(("CubeMorphism", self.n_in, self.n_out, self.entries))

    def __repr__(self):
        return f"Cube({self.n_in}->{self.n_out}; {self.entries})"

    @classmethod
    def identity(cls, n: int) -> "CubeMorphism":
        return cls(n, n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def face(cls, n: int, i: int, eps: int) -> "CubeMorphism":
        """delta_i^eps : 2^{n-1} -> 2^n, inserting the constant eps at i."""
        if not 1 <= i <= n:
            raise ValueError(f"face index {i} out of range 1..{n}")
        entries = [(j,) for j in range(1, i)] + [eps] + [(j,) for j in range(i, n)]
        return cls(n - 1, n, entries)

    @classmethod
    def degeneracy(cls, n: int, i: int) -> "CubeMorphism":
        """sigma_i : 2^n -> 2^{n-1}, forgetting coordinate i."""
        if not 1 <= i <= n:
            raise ValueError(f"degeneracy index {i} out of range 1..{n}")
        entries = [(j,) if j < i else (j + 1,) for j in range(1, n)]
        return cls(n, n - 1, entries)

    @classmethod
    def connection(cls, n: int, i: int) -> "CubeMorphism":
        """gamma_i : 2^n -> 2^{n-1}, merging coordinates i, i+1 by max."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"connection index {i} out of range 1..{n - 1}")
        entries = []
        for j in range(1, n):
            if j < i:
                entries.append((j,))
            elif j == i:
                entries.append((i, i + 1))
            else:
                entries.append((j + 1,))
        return cls(n, n - 1, entries)

    def compose(self, other: "CubeMorphism") -> "CubeMorphism":
        """self after other (other is applied to the argument first)."""
        if self.n_in != other.n_out:
            raise ValueError(
                f"cannot compose: {self.n_in} inputs vs {other.n_out} outputs"
            )
        entries = []
        for e in self.entries:
            if e in (0, 1):
                entries.append(e)
                continue
            merged = []
            value = 0
            for k in e:
                inner = other.entries[k - 1]
                if inner == 1:
                    value = 1
                    break
                if inner != 0:
                    merged.extend(inner)
            if value == 1:
                entries.append(1)
            elif merged:
                entries.append(tuple(sorted(merged)))
            else:
                entries.append(0)
        return CubeMorphism(other.n_in, self.n_out, entries)

    def evaluate(self, point) -> tuple:
        """Apply as a function {0,1}^{n_in} -> {0,1}^{n_out}."""
        if len(point) != self.n_in:
            raise ValueError(f"point has {len(point)} coordinates, need {self.n_in}")
        out = []
        for e in self.entries:
            if e in (0, 1):
                out.append(e)
            else:
                out.append(max(point[k - 1] for k in e))
        return tuple(out)

    def used_inputs(self):
        used = []
        for e in self.entries:
            if e not in (0, 1):
                used.extend(e)
        return sorted(used)

    def remove_output(self, j: int) -> "CubeMorphism":
        """Drop output j (1-based); only valid when entry j is a constant."""
        if self.entries[j - 1] not in (0, 1):
            raise ValueError(f"output {j} is not constant")
        entries = self.entries[: j - 1] + self.entries[j:]
        return CubeMorphism(self.n_in, self.n_out - 1, entries)

    def factor(self):
        """Unique factorization self = face_part o degeneracy_part."""
        inner = [e for e in self.entries if e not in (0, 1)]
        degen = CubeMorphism(self.n_in, len(inner), inner)
        face_entries = []
        t = 0
        for e in self.entries:
            if e in (0, 1):
                face_entries.append(e)
            else:
                t += 1
                face_entries.append((t,))
        face = CubeMorphism(len(inner), self.n_out, face_entries)
        return face, degen

    def word(self):
        """Generator word for a pure degeneracy morphism.

        Returns ops [("s", i) | ("g", i)] with the first entry applied
        next to the base (outermost).
        """
        if not self.is_degeneracy_morphism:
            raise ValueError("word() needs a pure degeneracy morphism")
        if self.is_identity:
            return []
        used = set(self.used_inputs())
        for i in range(1, self.n_in + 1):
            if i not in used:
                reduced = CubeMorphism(
                    self.n_in - 1,
                    self.n_out,
                    tuple(tuple(k if k < i else k - 1 for k in e) for e in self.entries),
                )
                return reduced.word() + [("s", i)]
        for e in self.entries:
            for a, b in zip(e, e[1:]):
                if b == a + 1:
                    reduced = CubeMorphism(
                        self.n_in - 1,
                        self.n_out,
                        tuple(
                            tuple(
                                k if k <= a else k - 1 for k in blk if k != a + 1
                            )
                            for blk in self.entries
                        ),
                    )
                    return reduced.word() + [("g", a)]
        raise ValueError(f"cannot factor {self!r} into degeneracy generators")


class CubeRef:
    """A possibly-degenerate cube: base cell plus a degeneracy morphism."""

    __slots__ = ("base", "morphism")

    def __init__(self, base, morphism: CubeMorphism):
        if not morphism.is_degeneracy_morphism:
            raise ValueError("CubeRef morphism must be a pure degeneracy")
        # the slot descriptors' setters skip the blocked __setattr__ lookup
        _set_cube_base(self, base)
        _set_cube_morphism(self, morphism)

    def __setattr__(self, name, value):
        raise AttributeError("CubeRef is immutable")

    @property
    def is_degenerate(self) -> bool:
        return not self.morphism.is_identity

    @property
    def dim(self) -> int:
        return self.morphism.n_in

    def __eq__(self, other):
        return (
            isinstance(other, CubeRef)
            and self.base == other.base
            and self.morphism == other.morphism
        )

    def __hash__(self):
        return hash(("CubeRef", self.base, self.morphism))

    def __repr__(self):
        if not self.is_degenerate:
            return f"<{self.base}>"
        ops = " ".join(f"{k}{i}" for k, i in self.morphism.word())
        return f"<{ops} {self.base}>"


_set_cube_base = CubeRef.base.__set__
_set_cube_morphism = CubeRef.morphism.__set__


class CubicalSet(CellSet):
    """Nondegenerate cubes with faces; degeneracies live in CubeRef words.

    The cells are checked and kept as one `Window` (`CellSet`).
    faces maps (id, direction 1..n, eps) -> CubeRef one dimension down.
    complete=False marks a truncation: cells above the stored top
    dimension exist but are not listed.

    The constructor checks every face in one pass against its own table
    of cell dimensions: the key names a known cell, a direction in range
    and a side 0 or 1; the face is a CubeRef on a known base, whose
    morphism starts at that base's dimension and ends one dimension
    below the cell. Every key that passes names a face of its cell, so
    the faces are complete exactly when there are 2n of them per n-cube;
    only when the count falls short are the cells walked to name the
    first missing face.
    """

    _cell = "cube"
    _kind = "cubical set"

    def __init__(self, name: str, cells, faces, complete: bool = True):
        super().__init__(name, cells, complete)
        self._faces = self._checked_faces(faces)

    def _checked_faces(self, faces) -> dict:
        """faces as a dict, after the checking pass the class docstring describes."""
        dims = self._dim
        named = 0
        for key, ref in faces.items():
            cid, i, eps = key
            n = dims.get(cid)
            if n is None:
                raise KeyError(f"unknown {self._cell} id: {cid!r}")
            if not 1 <= i <= n or eps not in (0, 1):
                raise ValueError(f"bad face key {key!r}")
            if not isinstance(ref, CubeRef):
                raise ValueError(f"face {key!r} must be a CubeRef")
            base_dim = dims.get(ref.base)
            if base_dim is None:
                raise KeyError(f"unknown {self._cell} id: {ref.base!r}")
            morphism = ref.morphism
            if morphism.n_out != base_dim:
                raise ValueError(f"ref morphism does not match base dimension: {ref!r}")
            if morphism.n_in != n - 1:
                raise ValueError(f"face {key!r} has wrong dimension")
            # a direction strictly between two integers passes the range
            # check but names no face, so it does not count
            if i.__class__ is int or i in range(1, n + 1):
                named += 1
        faces = dict(faces)
        if named != 2 * sum(n * size for n, size in self.window.sizes.items()):
            for cid, n in dims.items():
                for i in range(1, n + 1):
                    for eps in (0, 1):
                        if (cid, i, eps) not in faces:
                            raise ValueError(f"missing face ({cid!r}, {i}, {eps})")
        return faces

    def ref_dim(self, ref: CubeRef) -> int:
        if ref.morphism.n_out != self.dim_of(ref.base):
            raise ValueError(f"ref morphism does not match base dimension: {ref!r}")
        return ref.dim

    def ref(self, cid) -> CubeRef:
        return CubeRef(cid, CubeMorphism.identity(self.dim_of(cid)))

    def face(self, cid, i: int, eps: int) -> CubeRef:
        return self._faces[(cid, i, eps)]

    def _boundary(self, cid) -> dict:
        """Normalized boundary of a stored cell, as plain-number sums.

        sum_{i=1..n} (-1)^{i-1} (d_i^1 c - d_i^0 c), degenerate faces
        dropped; a term may sum to 0.
        """
        faces = self._faces
        sums = {}
        for i in range(1, self._dim[cid] + 1):
            sign = 1 if i % 2 else -1
            for eps, eps_sign in ((1, sign), (0, -sign)):
                ref = faces[cid, i, eps]
                if ref.morphism.is_identity:
                    sums[ref.base] = sums.get(ref.base, 0) + eps_sign
        return sums

    def resolve(self, base, morphism: CubeMorphism) -> CubeRef:
        """Canonical CubeRef for base acted on by an arbitrary morphism.

        Constant outputs are peeled off against the stored faces until a
        pure degeneracy remains.
        """
        while True:
            const_j = None
            for j in range(morphism.n_out, 0, -1):
                if morphism.entries[j - 1] in (0, 1):
                    const_j = j
                    break
            if const_j is None:
                return CubeRef(base, morphism)
            eps = morphism.entries[const_j - 1]
            reduced = morphism.remove_output(const_j)
            stored = self.face(base, const_j, eps)
            base = stored.base
            morphism = stored.morphism.compose(reduced)

    def face_of_ref(self, ref: CubeRef, i: int, eps: int) -> CubeRef:
        n = self.ref_dim(ref)
        return self.resolve(ref.base, ref.morphism.compose(CubeMorphism.face(n, i, eps)))

    def validate(self) -> None:
        """Check d_i^eps d_j^delta = d_{j-1}^delta d_i^eps for i < j."""
        for n in self.dimensions():
            if n < 2:
                continue
            for cid in self.nondegenerate(n):
                ref = self.ref(cid)
                for j in range(2, n + 1):
                    for i in range(1, j):
                        for eps in (0, 1):
                            for delta in (0, 1):
                                left = self.face_of_ref(
                                    self.face_of_ref(ref, j, delta), i, eps
                                )
                                right = self.face_of_ref(
                                    self.face_of_ref(ref, i, eps), j - 1, delta
                                )
                                if left != right:
                                    raise ValueError(
                                        f"cubical identity fails on {cid!r}: "
                                        f"d_{i}^{eps} d_{j}^{delta} = {left!r} "
                                        f"!= {right!r}"
                                    )


def cubical_chains(space: CubicalSet, ring: Ring = ZZ) -> ChainComplex:
    """Normalized cubical chains with the Leibniz boundary.

    d(c) = sum_{i=1..n} (-1)^{i-1} (d_i^1 c - d_i^0 c), degenerate faces
    dropped; this is the boundary induced by d[0,1] = [1] - [0] under
    the tensor decomposition of the standard cube. The boundary rule is
    the set's own `_boundary`, plain-number sums that the complex
    canonicalizes; a set that knows its boundary without its faces (the
    loop-space cube model) computes it that way, and gives None for the
    zero differential. The basis is every stored cell: the set's own
    `Window` of them (`CellSet.window`), so its chains share the index
    of its cells by degree, which no one builds twice, and a set whose
    window lists its cells late (the cube model's words) lists none here.
    This is the one entry to the cube chains.
    """
    return ChainComplex(
        ring, space.window, space._boundary, complete=space.complete, name=space.name
    )


# --- standard cubes: coalgebra and join ---

I = "I"


def cube_word_degree(word) -> int:
    return sum(1 for x in word if x == I)


def standard_cube(n: int) -> CubicalSet:
    """The n-cube; cells are words over {0, 1, I}, I marking free axes."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    cells = {m: [] for m in range(n + 1)}
    faces = {}
    for word in product(("0", "1", I), repeat=n):
        m = cube_word_degree(word)
        cells[m].append(word)
        axes = [t for t, x in enumerate(word) if x == I]
        for i, t in enumerate(axes, start=1):
            for eps in (0, 1):
                sub = word[:t] + (str(eps),) + word[t + 1 :]
                faces[(word, i, eps)] = CubeRef(
                    sub, CubeMorphism.identity(m - 1)
                )
    return CubicalSet(f"cube{n}", cells, faces)


def serre_coproduct(word, ring: Ring = ZZ) -> FreeElement:
    """Diagonal of a cube word: [0] and [1] are grouplike, and
    Delta(I) = [0] ox I + I ox [1], extended with Koszul interleave signs.
    """
    options = []
    for x in word:
        if x == I:
            options.append((("0", I), (I, "1")))
        else:
            options.append(((x, x),))
    sums = {}
    for combo in product(*options):
        left = tuple(a for a, _ in combo)
        right = tuple(b for _, b in combo)
        sign = 1
        for j in range(len(word)):
            if left[j] != I:
                continue
            # left factor of slot j moves past right factors of slots < j
            crossings = sum(1 for t in range(j) if right[t] == I)
            if crossings % 2:
                sign = -sign
        sums[(left, right)] = sign
    return FreeElement._from_sums(ring, sums)


def serre_counit(word, ring: Ring = ZZ):
    return ring.zero if I in word else ring.one


def _letter_join(a, b):
    if (a, b) == ("0", "1"):
        return 1
    if (a, b) == ("1", "0"):
        return -1
    return None


def cubical_join(wa, wb, ring: Ring = ZZ) -> FreeElement:
    """Coordinatewise join of two words of the same cube.

    (x1 ox .. ox xn) * (y1 ox .. ox yn) puts a single letter join x_i * y_i
    in one slot, counits everything right of it in x and left of it in y,
    and carries the global sign (-1)^{deg x}.
    """
    if len(wa) != len(wb):
        raise ValueError("join of words from different cubes")
    global_sign = -1 if cube_word_degree(wa) % 2 else 1
    sums = {}
    for i in range(len(wa)):
        if any(y == I for y in wb[:i]) or any(x == I for x in wa[i + 1 :]):
            continue
        s = _letter_join(wa[i], wb[i])
        if s is None:
            continue
        new_word = wa[:i] + (I,) + wb[i + 1 :]
        sums[new_word] = sums.get(new_word, 0) + s * global_sign
    return FreeElement._from_sums(ring, sums)


def word_face_morphism(word) -> CubeMorphism:
    """Characteristic inclusion of a standard-cube cell: 2^deg -> 2^n."""
    entries = []
    t = 0
    for x in word:
        if x == I:
            t += 1
            entries.append((t,))
        else:
            entries.append(int(x))
    return CubeMorphism(t, len(word), entries)


def cube_word_substitute(outer, inner):
    """Substitute a standard-cube cell into the free axes of another.

    inner has one letter per I of outer; the result is the image of
    inner under the characteristic inclusion of outer.
    """
    out = []
    t = 0
    for x in outer:
        if x == I:
            out.append(inner[t])
            t += 1
        else:
            out.append(x)
    if t != len(inner):
        raise ValueError(f"{inner!r} does not fit the free axes of {outer!r}")
    return tuple(out)


def cell_pushforward(space: CubicalSet, cell, word) -> CubeRef:
    """Image of a standard-cube cell under the characteristic map of cell.

    word lives on the standard cube of the cell's dimension; the result
    is the canonical reference in the ambient cubical set.
    """
    n = space.dim_of(cell)
    if len(word) != n:
        raise ValueError(f"word {word!r} does not fit a {n}-cell")
    return space.resolve(cell, word_face_morphism(word))


class CubeBialgebra(CellBialgebra):
    """Chains on a standard cube; keys are words over {0, 1, I}."""

    degree = staticmethod(cube_word_degree)
    substitute = staticmethod(cube_word_substitute)
    pushforward = staticmethod(cell_pushforward)

    def __init__(self, n: int, ring: Ring = ZZ):
        self.n = n
        self.ring = ring
        self.space = standard_cube(n)
        self.complex = cubical_chains(self.space, ring=ring)
        self.basepoint = ("0",) * n
        self.top = (I,) * n
        self.name = f"cube{n}"

    def counit(self, key):
        return serre_counit(key, self.ring)

    def coproduct(self, key) -> FreeElement:
        return serre_coproduct(key, self.ring)

    def join(self, ka, kb) -> FreeElement:
        return cubical_join(ka, kb, self.ring)


def permute_cube_word(word, perm):
    """Permute the axes of a cube word; returns (new_word, Koszul sign).

    perm[i] is the input slot landing at output slot i.
    """
    from .freemod import permute_word

    degrees = [1 if x == I else 0 for x in word]
    return permute_word(tuple(word), perm, degrees)


def cube_tensor_iso(p: int, q: int, ring: Ring = ZZ) -> GradedLinearMap:
    """chains(cube^p) ox chains(cube^q) -> chains(cube^{p+q}), concatenation."""
    from .complexes import tensor_complex

    chains_p = cubical_chains(standard_cube(p), ring=ring)
    chains_q = cubical_chains(standard_cube(q), ring=ring)
    source = tensor_complex(chains_p, chains_q)
    target = cubical_chains(standard_cube(p + q), ring=ring)

    def rule(key):
        wa, wb = key
        return FreeElement.single(ring, wa + wb)

    return GradedLinearMap(source, target, 0, rule)


# --- models ---

def cubical_circle() -> CubicalSet:
    pt = CubeRef("p", CubeMorphism.identity(0))
    return CubicalSet(
        "cubical_circle",
        {0: ["p"], 1: ["e"]},
        {("e", 1, 0): pt, ("e", 1, 1): pt},
    )


def cubical_torus() -> CubicalSet:
    pt = CubeRef("p", CubeMorphism.identity(0))
    ra = CubeRef("a", CubeMorphism.identity(1))
    rb = CubeRef("b", CubeMorphism.identity(1))
    faces = {
        ("a", 1, 0): pt,
        ("a", 1, 1): pt,
        ("b", 1, 0): pt,
        ("b", 1, 1): pt,
        ("t", 1, 0): ra,
        ("t", 1, 1): ra,
        ("t", 2, 0): rb,
        ("t", 2, 1): rb,
    }
    return CubicalSet("cubical_torus", {0: ["p"], 1: ["a", "b"], 2: ["t"]}, faces)


# --- triangulation ---

def _canonical_simplex(space: CubicalSet, cube, seq) -> SimplexRef:
    """Canonical triangulation simplex named by a monotone point sequence.

    Repeats become degeneracies; a coordinate that is constant along the
    sequence pushes the simplex into the corresponding stored face.
    """

    def on_strict(seq):
        for i in range(1, space.dim_of(cube) + 1):
            values = {pt[i - 1] for pt in seq}
            if len(values) == 1:
                stored = space.face(cube, i, values.pop())
                reduced = [pt[: i - 1] + pt[i:] for pt in seq]
                mapped = [stored.morphism.evaluate(pt) for pt in reduced]
                return _canonical_simplex(space, stored.base, mapped)
        return SimplexRef((cube, seq))

    return peel_repeats(map(tuple, seq), on_strict)


def triangulate(space: CubicalSet, max_degree: int | None = None) -> SimplicialSet:
    """Simplicial set of monotone paths through the cubes of the space.

    Nondegenerate m-simplices are pairs (cube, strict chain of corners
    from the bottom corner to the top one); the square becomes two
    triangles along its diagonal.
    """
    cells = {}
    faces = {}
    for n in space.dimensions():
        if max_degree is not None and n > max_degree:
            continue
        spanning = [
            chain
            for chain in _strict_chains(n)
            if chain[0] == (0,) * n and chain[-1] == (1,) * n
        ]
        for cube in space.nondegenerate(n):
            for chain in spanning:
                m = len(chain) - 1
                if max_degree is not None and m > max_degree:
                    continue
                cells.setdefault(m, []).append((cube, chain))
    for m, ids in sorted(cells.items()):
        if m == 0:
            continue
        for cube, chain in ids:
            refs = []
            for t in range(m + 1):
                refs.append(
                    _canonical_simplex(space, cube, chain[:t] + chain[t + 1 :])
                )
            faces[(cube, chain)] = tuple(refs)
    name = f"tri({space.name})"
    full = space.complete and (
        max_degree is None or max_degree >= 2 ** max(space.dimension, 0) - 1
    )
    return SimplicialSet(name, cells, faces, complete=full)


# --- cubical mapping objects out of simplex powers ---

def _strict_chains(n: int):
    """All strict monotone chains in {0,1}^n, nonempty."""
    points = sorted(product((0, 1), repeat=n))

    def extend(chain):
        yield chain
        for pt in points:
            if pt <= chain[-1]:
                continue
            if all(a <= b for a, b in zip(chain[-1], pt)):
                yield from extend(chain + (pt,))

    for pt in points:
        yield from extend((pt,))


def _ref_on_monotone(target: SimplicialSet, assignment, seq):
    """Value of a simplex-power map on a monotone, possibly lazy sequence.

    assignment gives SimplexRefs on strict chains; repeats in seq turn
    into degeneracies of the strict value.
    """
    return peel_repeats(seq, assignment.__getitem__)


class MapCell:
    """A map (simplex power)^n -> X as values on strict corner chains."""

    __slots__ = ("n", "assignment")

    def __init__(self, n: int, assignment: dict):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "assignment", dict(assignment)
        )

    def __setattr__(self, name, value):
        raise AttributeError("MapCell is immutable")

    def key(self):
        return (self.n, tuple(sorted(self.assignment.items())))

    def value(self, target: SimplicialSet, seq) -> SimplexRef:
        return _ref_on_monotone(target, self.assignment, seq)


def _map_cell_face(cell: MapCell, i: int, eps: int) -> MapCell:
    """Precompose with the coordinate inclusion at slot i (1-based)."""
    out = {}
    for chain in _strict_chains(cell.n - 1):
        lifted = tuple(
            pt[: i - 1] + (eps,) + pt[i - 1 :] for pt in chain
        )
        out[chain] = cell.assignment[lifted]
    return MapCell(cell.n - 1, out)


def _map_cell_factors(target: SimplicialSet, cell: MapCell, m: CubeMorphism):
    """If cell factors through the degeneracy m, return the smaller cell."""
    section = CubeMorphism.face(cell.n, _degeneracy_axis(m), 0)
    small = {}
    for chain in _strict_chains(m.n_out):
        lifted = tuple(section.evaluate(pt) for pt in chain)
        small[chain] = cell.assignment[lifted]
    candidate = MapCell(m.n_out, small)
    for chain, ref in cell.assignment.items():
        projected = [m.evaluate(pt) for pt in chain]
        if candidate.value(target, projected) != ref:
            return None
    return candidate


def _degeneracy_axis(m: CubeMorphism) -> int:
    # for sigma_i the unused input, for gamma_i the first merged input
    used = m.used_inputs()
    missing = [i for i in range(1, m.n_in + 1) if i not in used]
    if missing:
        return missing[0]
    for e in m.entries:
        if len(e) > 1:
            return e[0]
    raise ValueError("not a proper degeneracy")


def canonical_map_cell(target: SimplicialSet, cell: MapCell):
    """Peel degeneracies off a map cell; returns (nondeg cell, morphism)."""
    n = cell.n
    morphism = CubeMorphism.identity(n)
    while True:
        n = cell.n
        peeled = None
        for i in range(1, n + 1):
            m = CubeMorphism.degeneracy(n, i)
            smaller = _map_cell_factors(target, cell, m)
            if smaller is not None:
                peeled = (smaller, m)
                break
        if peeled is None:
            for i in range(1, n):
                m = CubeMorphism.connection(n, i)
                smaller = _map_cell_factors(target, cell, m)
                if smaller is not None:
                    peeled = (smaller, m)
                    break
        if peeled is None:
            return cell, morphism
        cell, m = peeled
        morphism = m.compose(morphism)


def u_closure(target: SimplicialSet, seed_cells) -> CubicalSet:
    """Face-closed cubical subset of the mapping object containing the seeds.

    Seeds are MapCells (assumed consistent); the result stores every
    nondegenerate cell reachable by iterated faces, which is enough to
    run chain-level certificates against maps landing in the seeds.
    """
    by_key = {}
    pending = []
    for cell in seed_cells:
        base, morphism = canonical_map_cell(target, cell)
        if base.key() not in by_key:
            by_key[base.key()] = base
            pending.append(base)
    faces = {}
    while pending:
        cell = pending.pop()
        n = cell.n
        for i in range(1, n + 1):
            for eps in (0, 1):
                sub = _map_cell_face(cell, i, eps)
                base, morphism = canonical_map_cell(target, sub)
                faces[(cell.key(), i, eps)] = CubeRef(base.key(), morphism)
                if base.key() not in by_key:
                    by_key[base.key()] = base
                    pending.append(base)
    cells = {}
    for key, cell in by_key.items():
        cells.setdefault(cell.n, []).append(key)
    for n in cells:
        # keys hold SimplexRefs, which have no order; repr is stable
        cells[n] = sorted(cells[n], key=repr)
    return CubicalSet(
        f"submaps(power->{target.name})", cells, faces, complete=False
    )

