"""Cubical models of based loop spaces and their comparison maps.

Bead words of positive-dimensional simplices form a monoid in cubical
sets: a bead of dimension d contributes d - 1 cube coordinates, the
0-side of a coordinate takes an inner face of its bead and the 1-side
splits the bead in two. A signed relabeling identifies the chains of
this object with bead-word tensor algebras, edge beads picking up a
unit shift. The localized variant makes edge beads group letters with
inverses. The module also carries the free simplicial group on the
positive simplices (loop group), the simplex-to-cube collapse, and the
triangulation zigzag used to compare all of these models.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .cobar import (
    CobarComplex,
    ExtendedCobarComplex,
    concatenation,
    derivation,
    edge_expansion,
    invert_group_word,
    loc_degree,
    reduce_group_word,
)
from .complexes import GradedLinearMap, InsufficientTruncationError
from .cubical import (
    CubeMorphism,
    CubeRef,
    CubicalSet,
    MapCell,
    _strict_chains,
    _canonical_simplex,
    canonical_map_cell,
    cubical_chains,
    triangulate,
    u_closure,
)
from .freemod import FreeElement
from .rings import Ring, ZZ
from .simplicial import (
    SimplexRef,
    SimplicialSet,
    apply_degeneracy,
    back_face,
    front_face,
    normalized_chains,
)
from .smith import homology_table, smith_normal_form
from .words import letters, sliding_budget


# --- the functor from necklace generators to the cube category ---

def p_functor(kind: str, n: int, j: int) -> CubeMorphism:
    """Cube morphism assigned to a necklace morphism generator.

    kind "coface" is the inner injection [n] -> [n+1] missing j, kind
    "split" is the wedge inclusion [j] v [n+1-j] -> [n+1], and kind
    "codegeneracy" is [n+1] -> [n] collapsing j, j+1. Cube coordinates
    track inner vertices, so cofaces land on the 0-side, splits on the
    1-side, outer collapses forget a coordinate and inner ones merge
    two neighbours by max.
    """
    if kind == "coface":
        if not 0 < j < n + 1:
            raise ValueError(f"inner coface needs 0 < j < {n + 1}, got {j}")
        return CubeMorphism.face(n, j, 0)
    if kind == "split":
        if not 0 < j < n + 1:
            raise ValueError(f"split position must satisfy 0 < j < {n + 1}, got {j}")
        return CubeMorphism.face(n, j, 1)
    if kind == "codegeneracy":
        if not 0 <= j <= n:
            raise ValueError(f"codegeneracy index out of range: {j}")
        if n == 0:
            return CubeMorphism.identity(0)
        if j == 0:
            return CubeMorphism.degeneracy(n, 1)
        if j == n:
            return CubeMorphism.degeneracy(n, n)
        return CubeMorphism.connection(n, j)
    raise ValueError(f"unknown generator kind {kind!r}")


# --- bead words and their canonical forms ---
#
# A working cell is a list of (SimplexRef, exp) pairs; exp is +1 except
# for inverted edge beads of the localized construction. Stored cell
# ids drop the refs: plain cells are bare tuples of simplex ids, signed
# cells are tuples of (id, exp) pairs, the localized words of
# `chaintop.words`.

def _items_dim(space, items) -> int:
    return sum(space.ref_dim(ref) - 1 for ref, _ in items)


def _cell_id(space, items, signed: bool):
    if signed:
        return tuple((ref.base, e) for ref, e in items)
    return tuple(ref.base for ref, _ in items)


def canonical_cell(space: SimplicialSet, items, signed: bool = False) -> CubeRef:
    """Totally nondegenerate form of a raw bead word, as a CubeRef.

    Degenerate edge beads are the basepoint edge and disappear without
    touching coordinates. A degenerate higher bead sheds its outermost
    degeneracy: collapsing at an end forgets the matching coordinate,
    collapsing inside merges two neighbouring coordinates, so the cell
    is a cubical degeneracy or connection of a smaller one. In signed
    mode adjacent inverse edge pairs cancel outright.
    """
    items = list(items)
    morphism = None
    while True:
        changed = False
        for i, (ref, exp) in enumerate(items):
            if space.ref_dim(ref) == 1 and ref.is_degenerate:
                del items[i]
                changed = True
                break
        if changed:
            continue
        if signed:
            for i in range(len(items) - 1):
                (r1, e1), (r2, e2) = items[i], items[i + 1]
                if (
                    space.ref_dim(r1) == 1
                    and space.ref_dim(r2) == 1
                    and r1 == r2
                    and e1 == -e2
                ):
                    del items[i : i + 2]
                    changed = True
                    break
            if changed:
                continue
        target = None
        offset = 0
        for i, (ref, _) in enumerate(items):
            width = space.ref_dim(ref) - 1
            if width >= 1 and ref.is_degenerate:
                target = (i, offset, ref)
                break
            offset += width
        if target is None:
            break
        i, offset, ref = target
        total = _items_dim(space, items)
        d = space.ref_dim(ref)  # bead dimension, coordinates 1..d-1
        j = ref.word[0]
        items[i] = (SimplexRef(ref.base, ref.word[1:]), items[i][1])
        if j == 0:
            op = CubeMorphism.degeneracy(total, offset + 1)
        elif j == d - 1:
            op = CubeMorphism.degeneracy(total, offset + d - 1)
        else:
            op = CubeMorphism.connection(total, offset + j)
        morphism = op if morphism is None else op.compose(morphism)
    if morphism is None:
        morphism = CubeMorphism.identity(_items_dim(space, items))
    return CubeRef(_cell_id(space, items, signed), morphism)


def _face_items(space: SimplicialSet, items, q: int, eps: int):
    """Raw bead word of the eps-side face in cube direction q."""
    offset = 0
    for i, (ref, _) in enumerate(items):
        width = space.ref_dim(ref) - 1
        if q <= offset + width:
            j = q - offset
            break
        offset += width
    else:
        raise IndexError(f"direction {q} exceeds dimension {offset}")
    ref = items[i][0]
    d = space.ref_dim(ref)
    if eps == 0:
        piece = [(space.face_of_ref(ref, j), 1)]
    else:
        piece = [
            (front_face(space, ref, j), 1),
            (back_face(space, ref, d - j), 1),
        ]
    return items[:i] + piece + items[i + 1 :]


def _padded(before: int, morphism: CubeMorphism, after: int) -> CubeMorphism:
    """id x morphism x id: a bead's degeneracy acting inside a whole word."""
    n_in = before + morphism.n_in
    entries = [(k,) for k in range(1, before + 1)]
    entries += [tuple(k + before for k in block) for block in morphism.entries]
    entries += [(k,) for k in range(n_in + 1, n_in + after + 1)]
    return CubeMorphism(n_in + after, before + morphism.n_out + after, entries)


def _letter_values(sides) -> dict:
    """`cobar.derivation`'s table for the cube boundary, read off the side table.

    sides maps each letter to (width, its sides), as `_WordCubes` keeps
    them. A side (j, eps, base, morphism, padded) is a term of the lone
    bead's boundary exactly when its morphism is the identity, with
    coefficient (-1)^(j-1) for eps 1 and -(-1)^(j-1) for eps 0. Each
    letter's value sums those terms by base, zero sums dropped, and is
    None when nothing is left; its degree is its width.
    """
    values = {}
    for letter, (width, entries) in sides.items():
        terms = {}
        for j, eps, base, morphism, _ in entries:
            if morphism.is_identity:
                sign = 1 if j % 2 else -1
                terms[base] = terms.get(base, 0) + (sign if eps else -sign)
        values[letter] = {b: c for b, c in terms.items() if c} or None, width
    return values


class _WordCubes(CubicalSet):
    """The cubes of a bead-word window, read off a table built once per letter.

    The cells are the words of a cobar complex of the same window, and
    share its basis and degrees. sides maps each letter, keyed as it
    stands in a word, to (width, sides): its number of cube coordinates
    and, per coordinate j and side eps, the entry
    (j, eps, base, morphism, padded). base and morphism form the
    canonical face of the lone bead; padded caches the morphism padded
    by identities on the other beads' coordinates, keyed by how many
    come before and after. A face of a word rewrites only the bead that
    owns its direction, so the face (word, offset + j, eps) of a letter
    with offset coordinates before it is the splice head + base + tail of
    that letter's entry, with the padded morphism; signed windows reduce
    the splice freely (reduce, `cobar.reduce_group_word`), which cancels
    inverse edge pairs at the two junctions, since heavy letters never
    cancel.

    The boundary of a word is the sum over its letters and their
    nondegenerate sides of (-1)^offset * coefficient * splice. A
    letter's width is its degree, so that is `cobar.derivation` on the
    value table (`_letter_values`), the splice the cobar's own d uses;
    when every letter is a cycle the chains read no rule. The face dict
    that `CubicalSet` keeps is spliced from the side table, and checked
    by its pass, only when something first asks for a face: a face that
    is not a stored cell of its dimension raises there.
    """

    def __init__(self, name: str, words, complete: bool, sides, reduce):
        self.name = name
        self.complete = complete
        self.cells, self._dim = words.basis, words._degree_of
        self._sides = sides
        self._values = _letter_values(sides)
        self._reduce = reduce

    @property
    def _boundary(self):
        """The rule `cubical_chains` reads: None, the zero differential, when
        every letter is a cycle."""
        values, reduce = self._values, self._reduce
        if not any(value for value, _ in values.values()):
            return None
        return lambda cid: derivation(values, cid, reduce)[0]

    @cached_property
    def _faces(self) -> dict:
        sides, reduce = self._sides, self._reduce
        faces = {}
        for n, ids in self.cells.items():
            for cid in ids:
                offset = 0
                for i, letter in enumerate(cid):
                    width, entries = sides[letter]
                    after = n - offset - width
                    key = (offset, after)
                    head, tail = cid[:i], cid[i + 1 :]
                    for j, eps, base, morphism, padded in entries:
                        pad = padded.get(key)
                        if pad is None:
                            pad = padded[key] = _padded(offset, morphism, after)
                        spliced = head + base + tail
                        if reduce is not None:
                            spliced = reduce(spliced)
                        faces[(cid, offset + j, eps)] = CubeRef(spliced, pad)
                    offset += width
        return self._checked_faces(faces)


class CubicalCobar:
    """Monoid of bead words, one cube per totally nondegenerate word.

    Faces in a coordinate owned by a bead either take that bead's inner
    simplicial face (0-side) or split it front/back at the matching
    vertex (1-side); the raw answer is canonicalized, so faces may be
    degeneracies or connections of stored cells. The window is that of
    a cobar, kept as words: `CobarComplex` on the sliding budget
    (`chaintop.words.sliding_budget`), or `ExtendedCobarComplex` for
    the signed words. Its words are the cells, in its order, and the
    window is closed under faces. Stored beads are nondegenerate, so a
    face rewrites only the bead that owns its direction: the constructor
    canonicalizes each letter's faces once, checks their dimensions, and
    keeps that table with the cells (`_WordCubes`). The boundary is
    `cobar.derivation` on the value table read off it; the faces
    themselves are spliced from it only when asked for. The product is
    word concatenation.
    """

    def __init__(
        self,
        space: SimplicialSet,
        max_degree: int,
        max_length: int | None = None,
        signed: bool = False,
        cutoff: int | None = None,
        ring: Ring = ZZ,
    ):
        edges, heavies = letters(space)
        self.source = space
        self.max_degree = int(max_degree)
        self.signed = bool(signed)
        self.ring = ring
        self.max_length = self.cutoff = None
        if signed:
            if cutoff is None:
                raise ValueError("the localized monoid needs a group-letter cutoff")
            self.cutoff = int(cutoff)
            self.words = ExtendedCobarComplex(space, self.max_degree, self.cutoff, ring)
        else:
            if edges and max_length is None:
                raise ValueError(
                    "edge beads make the word monoid infinite; pass max_length"
                )
            self.max_length = None if max_length is None else int(max_length)
            budget = sliding_budget(self.max_length, self.max_degree)
            self.words = CobarComplex(space, self.max_degree, ring, budget)
        self.budget = self.words.budget
        sides = {}
        for letter, (_, width) in self.words._letters.items():
            if width > self.max_degree:
                continue
            cell = letter[0] if signed else letter
            entries = []
            for j in range(1, width + 1):
                for eps in (0, 1):
                    raw = _face_items(space, [(space.ref(cell), 1)], j, eps)
                    piece = canonical_cell(space, raw, signed)
                    base, morphism = piece.base, piece.morphism
                    dim = sum(space.dim_of(b[0] if signed else b) - 1 for b in base)
                    if (morphism.n_in, morphism.n_out) != (width - 1, dim):
                        raise ValueError(
                            f"face ({cell!r}, {j}, {eps}) has wrong dimension: {piece!r}"
                        )
                    entries.append((j, eps, base, morphism, {}))
            sides[letter] = width, tuple(entries)
        self._chains = None
        # no beads above the cutoff dimension means nothing was dropped
        self.cubes = _WordCubes(
            ("loc-loops(" if signed else "loops(") + space.name + ")",
            self.words.complex,
            not heavies,
            sides,
            self.words._reduce,
        )

    # monoid structure

    def unit(self):
        return ()

    def product(self, left, right):
        """Concatenation; raises when the result leaves the window."""
        cid = left + right
        if self.signed:
            cid = reduce_group_word(cid)
        try:
            self.cubes.dim_of(cid)
        except KeyError:
            raise InsufficientTruncationError(
                f"product of {left!r} and {right!r} leaves the stored window"
            ) from None
        return cid

    def chains(self):
        """Normalized chains of the whole window over its ring, built once.

        Their top degree is the words' (`chaintop.words.stored_top`),
        which counts the empty degrees the window stores in full; the
        cube set itself lists only nonempty dimensions.
        """
        if self._chains is None:
            self._chains = cubical_chains(self.cubes, None, self.ring)
            self._chains.max_degree = self.words.complex.max_degree
        return self._chains


def cubical_cobar(
    space: SimplicialSet,
    max_degree: int,
    max_length: int | None = None,
    ring: Ring = ZZ,
) -> CubicalCobar:
    """The loop-space monoid in cubical sets, truncated to a window."""
    return CubicalCobar(space, max_degree, max_length=max_length, ring=ring)


def extended_cubical_cobar(
    space: SimplicialSet,
    max_degree: int,
    cutoff: int | None = None,
    ring: Ring = ZZ,
) -> CubicalCobar:
    """Loop-space monoid with formal inverses for the edge beads."""
    return CubicalCobar(
        space, max_degree, signed=True, cutoff=cutoff, ring=ring
    )


# --- the signed relabeling onto bead-word tensor algebras ---
#
# A cell of dimension n maps to (-1)^n times the product of its bead
# letters, where an edge bead contributes (letter + unit); the inverse
# unshifts each edge letter to (cell - unit). Both are
# `cobar.edge_expansion`, which reads the sign off the letters in the
# same pass that expands them. The sign reconciles the two boundary
# conventions and is multiplicative, so the relabeling is
# simultaneously an algebra map and a chain map.

def _dim_sign(ring: Ring, n: int):
    return ring.neg(ring.one) if n % 2 else ring.one


def phi_cell(space: SimplicialSet, cell, ring: Ring) -> FreeElement:
    """Image of a plain cell: a signed sum of subwords keeping heavies."""
    return edge_expansion(space, cell, ring, -1, ring.one)


def phi_inverse_word(space: SimplicialSet, word, ring: Ring) -> FreeElement:
    """Preimage of a bead word: edge letters unshift to (cell - unit)."""
    return edge_expansion(space, word, ring, -1, ring.neg(ring.one))


def phi_inverse_chain(space, element: FreeElement, ring: Ring) -> FreeElement:
    return element.map_terms(lambda word: phi_inverse_word(space, word, ring))


def phi_signed_cell(space: SimplicialSet, cell, ring: Ring) -> FreeElement:
    """Image of a signed cell: the same localized word, times (-1)^degree."""
    return FreeElement.single(ring, cell, _dim_sign(ring, loc_degree(space, cell)))


# how many small-by-small products phi_certificate checks
_PRODUCT_PAIRS = 400


def phi_certificate(
    space: SimplicialSet,
    max_degree: int,
    max_length: int | None = None,
    ring: Ring = ZZ,
    omega: CubicalCobar | None = None,
) -> dict:
    """Certify the relabeling against the bead-word tensor algebra.

    The word algebra is the cube model's own words (`omega.words`), the
    cobar of the same window, whose basis is the cells in their order;
    the cobar differential never leaves that window (`chaintop.words`).
    Checks, exactly: the chain-map identity phi(d c) = d phi(c) on
    every stored cell, by the letter rule (`_certify_letter_rule`); and
    multiplicativity phi(a b) = phi(a) phi(b) on up to `_PRODUCT_PAIRS`
    sampled pairs of cells of at most two letters whose product stays
    stored, a sample and not every pair. phi is evaluated only on the
    letters and the sampled cells, once each. Each pair's
    phi(ab) - phi(a) phi(b) is summed into one dict by
    `cobar.concatenation`, the loop of `CobarComplex.product`, keeping
    the words the window stores, and must vanish after one canonical
    pass; neither side is built as an element. Returns a summary dict;
    any failure raises AssertionError with the witness. omega, when
    given, is the cube model of this very window, built once by the
    caller.

    Both differentials are `cobar.derivation`, on two letter tables:
    the cube sides of each letter, from its simplicial faces, and D(l),
    from its Alexander-Whitney splits. So the chain-map check compares
    the two tables through the one splice. That the splice gives the
    faces of the whole word is not checked here; the tests hold the
    columns to those of the face-built `CubicalSet` on fixed and seeded
    windows.
    """
    window = (space, max_degree, max_length, ring)
    if omega is None:
        omega = cubical_cobar(*window)
    elif omega.signed or (
        omega.source, omega.max_degree, omega.max_length, omega.ring
    ) != window:
        raise ValueError("omega is not the cube model of the window to certify")
    images = {}

    def phi(cell):
        value = images.get(cell)
        if value is None:
            value = images[cell] = phi_cell(space, cell, ring)
        return value

    checked = _certify_letter_rule(omega, phi)
    chains = omega.chains()
    stored = omega.words.complex._degree_of
    pairs = 0
    # small-by-small products, exhaustively up to the requested count
    small = [
        cid
        for n in chains.degrees()
        for cid in chains.basis_in(n)
        if len(cid) <= 2
    ]
    for a, b in itertools.islice(itertools.product(small, small), _PRODUCT_PAIRS * 4):
        try:
            ab = omega.product(a, b)
        except InsufficientTruncationError:
            continue
        # phi(ab) - phi(a) phi(b), the product as `CobarComplex.product` sums it
        residual = concatenation(
            phi(a).terms, phi(b).terms, stored, None, dict(phi(ab).terms), -1
        )
        if ring.canonical_sums(residual):
            raise AssertionError(f"not multiplicative on {a!r} * {b!r}")
        pairs += 1
        if pairs >= _PRODUCT_PAIRS:
            break
    checked["pairs"] = pairs
    return checked


def _certify_letter_rule(omega: CubicalCobar, image) -> dict:
    """Check phi d_cube = d phi on every stored cell of a plain window.

    phi = S E, where S is the sign (-1)^degree and E the algebra
    automorphism sending each edge letter t to t + 1 and fixing the
    heavy letters. So phi d_cube = d phi exactly when
    d_cube = phi^-1 d phi = -E^-1 d E. The right side is a derivation,
    since d is one and E preserves degrees, so it is fixed by its
    letter table D(l) = phi^-1(d(phi(l))), read from image (the phi of
    one-letter cells), `phi_inverse_word` and the words' own d on the
    one-letter words (`omega.words`). Every cell's cube boundary
    (`diff_columns`), `cobar.derivation` on the cube model's value
    table, must equal `cobar.derivation` on the D table: the sum over
    its letters of +-prefix D(l) suffix, with the Koszul sign of the
    letters before l. Both sides thus splice per-letter values into the
    word with the same loop, and this checks the letters' cube sides
    against their D(l); the tests check the splice against the faces.
    Leibniz is assumed only for the cobar, where it is the definition;
    no word of the window has a boundary term it cuts, so D is exact on
    it. Returns {"cells": count, "degrees": {degree: count}}; a failing
    cell raises AssertionError whose `witness` is (cell, d_cube(cell),
    its letter rule value).
    """
    chains, words = omega.chains(), omega.words.complex
    space, ring = omega.source, omega.ring
    # per letter: its nonzero D(l) or None, and its degree
    table = {}
    for n in words.degrees():
        for word in words.basis_in(n):
            if len(word) == 1:
                value = phi_inverse_chain(space, words.diff_element(image(word)), ring)
                table[word[0]] = (value.terms or None, n)
    moving = frozenset(letter for letter, (rule, _) in table.items() if rule)
    for n in chains.degrees():
        below = chains.basis_in(n - 1)
        for cell, column in zip(chains.basis_in(n), chains.diff_columns(n)):
            if moving.isdisjoint(cell):
                if not column:
                    continue
                residual = {}
            else:
                residual, _ = derivation(table, cell)
            for i, c in column.items():
                key = below[i]
                residual[key] = residual.get(key, 0) - c
            if ring.canonical_sums(residual):
                error = AssertionError(f"not a chain map on {cell!r}")
                error.witness = (
                    cell,
                    chains.diff(cell),
                    FreeElement._from_sums(ring, derivation(table, cell)[0]),
                )
                raise error
    degrees = {n: chains.rank(n) for n in chains.degrees()}
    return {"cells": sum(degrees.values()), "degrees": degrees}


def phi_signed_certificate(
    space: SimplicialSet,
    max_degree: int,
    cutoff: int,
    ring: Ring = ZZ,
) -> dict:
    """Certify the localized monoid against the extended cobar.

    The cells are the extended cobar's localized words (`omega.words`),
    in its order, and phi is the sign (-1)^degree (`phi_signed_cell`),
    so phi d = d phi says that every column of the cube differential is
    the negated column of the extended cobar's; each is compared, in
    every degree. Both are `cobar.derivation`, on the cube sides and on
    the extended cobar's letter values. Returns
    {"cells": count, "degrees": {degree: count}}; a failing cell raises
    AssertionError naming it.
    """
    omega = extended_cubical_cobar(space, max_degree, cutoff, ring)
    chains, words = omega.chains(), omega.words.complex
    for n in chains.degrees():
        for cell, cube, word in zip(
            chains.basis_in(n), chains.diff_columns(n), words.diff_columns(n)
        ):
            if cube != {i: ring.neg(c) for i, c in word.items()}:
                raise AssertionError(f"not a chain map on {cell!r}")
    degrees = {n: chains.rank(n) for n in chains.degrees()}
    return {"cells": sum(degrees.values()), "degrees": degrees}


# --- the free simplicial group on positive simplices ---

# random words for the homomorphism checks have fewer letters than this
_RANDOM_WORD_CUTOFF = 8


class KanLoopGroup:
    """Reduced words over barred simplices, one degree down.

    Degree n is the free group on the simplices of dimension n + 1 that
    are not outer degeneracies (those are the identity); elements are
    reduced words of (ref, exp) letters. Faces and degeneracies extend
    the generator rules as group homomorphisms.
    """

    def __init__(self, space: SimplicialSet, max_degree: int):
        space.basepoint  # raises ValueError unless there is a single vertex
        self.space = space
        self.max_degree = int(max_degree)

    def generators(self, n: int):
        return tuple(
            ref for ref in self.space.refs(n + 1) if not self._is_trivial(ref)
        )

    @staticmethod
    def _is_trivial(ref: SimplexRef) -> bool:
        # outermost-innermost normal form puts s_0 last when present
        return bool(ref.word) and ref.word[-1] == 0

    def bar(self, ref: SimplexRef) -> tuple:
        return () if self._is_trivial(ref) else ((ref, 1),)

    def _extend(self, image, word) -> tuple:
        out = []
        for ref, e in word:
            value = image(ref)
            if e == -1:
                value = invert_group_word(value)
            out.extend(value)
        return reduce_group_word(out)

    def face(self, n: int, i: int, word) -> tuple:
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for degree {n}")
        space = self.space

        def image(ref):
            if i == 0:
                head = self.bar(space.face_of_ref(ref, 1))
                tail = invert_group_word(self.bar(space.face_of_ref(ref, 0)))
                return reduce_group_word(head + tail)
            return self.bar(space.face_of_ref(ref, i + 1))

        return self._extend(image, word)

    def degeneracy(self, n: int, i: int, word) -> tuple:
        if not 0 <= i <= n:
            raise ValueError(f"degeneracy index {i} out of range for degree {n}")

        def image(ref):
            return self.bar(apply_degeneracy(ref, i + 1))

        return self._extend(image, word)

    def check_identities(self, max_degree: int | None = None):
        """Simplicial identities on all generator words in range.

        Returns None or a witness tuple (law, degree, generator).
        """
        top = self.max_degree if max_degree is None else max_degree
        for n in range(top + 1):
            for gen in self.generators(n):
                w = self.bar(gen)
                for j in range(1, n + 1):
                    for i in range(j):
                        if n >= 1 and self.face(
                            n - 1, i, self.face(n, j, w)
                        ) != self.face(n - 1, j - 1, self.face(n, i, w)):
                            return ("dd", n, gen, i, j)
                for i in range(n + 1):
                    for j in range(n + 1):
                        left = self.face(n + 1, i, self.degeneracy(n, j, w))
                        if i < j:
                            right = self.degeneracy(
                                n - 1, j - 1, self.face(n, i, w)
                            )
                        elif i in (j, j + 1):
                            right = w
                        else:
                            right = self.degeneracy(
                                n - 1, j, self.face(n, i - 1, w)
                            )
                        if left != right:
                            return ("ds", n, gen, i, j)
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        if self.degeneracy(
                            n + 1, i, self.degeneracy(n, j, w)
                        ) != self.degeneracy(n + 1, j + 1, self.degeneracy(n, i, w)):
                            return ("ss", n, gen, i, j)
        return None

    def check_homomorphisms(self, rng, samples: int = 20):
        """Spot check f(uv) = f(u)f(v) on random words."""
        gens = self.generators(1)
        if not gens:
            return None
        for _ in range(samples):
            u = self._random_word(rng, gens)
            v = self._random_word(rng, gens)
            uv = reduce_group_word(u + v)
            for i in range(2):
                if self.face(1, i, uv) != reduce_group_word(
                    self.face(1, i, u) + self.face(1, i, v)
                ):
                    return ("face", i, u, v)
                if self.degeneracy(1, i, uv) != reduce_group_word(
                    self.degeneracy(1, i, u) + self.degeneracy(1, i, v)
                ):
                    return ("degeneracy", i, u, v)
        return None

    def _random_word(self, rng, gens):
        letters = []
        for _ in range(rng.randrange(_RANDOM_WORD_CUTOFF)):
            letters.append((gens[rng.randrange(len(gens))], rng.choice((1, -1))))
        return reduce_group_word(letters)

    def pi0(self):
        """Finite presentation of the path components group.

        Generators are the degree-0 generators; each degree-1 generator
        g contributes the relator d0(g) d1(g)^(-1).
        """
        gens = self.generators(0)
        relators = []
        for g in self.generators(1):
            w = self.bar(g)
            rel = reduce_group_word(
                self.face(1, 0, w) + invert_group_word(self.face(1, 1, w))
            )
            if rel:
                relators.append(rel)
        return Pi0Presentation(gens, tuple(relators))


class Pi0Presentation:
    """Group presentation with abelianization-based identification."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "relators", tuple(relators))

    def __setattr__(self, name, value):
        raise AttributeError("Pi0Presentation is immutable")

    def abelianization(self):
        """(free rank, invariant factors > 1) of the abelianized group."""
        index = {g: i for i, g in enumerate(self.generators)}
        rows = []
        for rel in self.relators:
            row = [0] * len(self.generators)
            for ref, e in rel:
                row[index[ref]] += e
            rows.append(row)
        factors = smith_normal_form(rows) if rows else []
        free = len(self.generators) - len(factors)
        return free, [f for f in factors if f > 1]

    def identify(self):
        """Name among {"trivial", "Z", "Z/2"} via abelianization, else None.

        Relator-free presentations and single-relator order checks make
        the three target groups recognizable without general machinery.
        """
        free, torsion = self.abelianization()
        if free == 0 and not torsion:
            # with generators, free rank 0 needs a nonempty relator, and
            # a group killed only in the abelianization is not certified
            return "trivial" if not self.generators else None
        if free == 1 and not torsion:
            return "Z" if not any(self.relators) else None
        if free == 0 and torsion == [2]:
            return "Z/2"
        return None


def kan_loop_group(space: SimplicialSet, max_degree: int) -> KanLoopGroup:
    return KanLoopGroup(space, max_degree)


# --- simplex-to-cube collapse ---

def collapse_vertex(point) -> int:
    """Number of leading ones; the vertex shadow of the cube collapse."""
    k = 0
    for b in point:
        if b != 1:
            break
        k += 1
    return k


def cartan_serre_cell(space: SimplicialSet, cell) -> MapCell:
    """The cube of maps attached to a simplex by the collapse."""
    from .simplicial import monotone_ref

    n = space.dim_of(cell)
    assignment = {}
    for chain in _strict_chains(n):
        seq = [collapse_vertex(pt) for pt in chain]
        assignment[chain] = monotone_ref(space, cell, seq)
    return MapCell(n, assignment)


def _map_cell_chain(target: SimplicialSet, cell: MapCell, ring: Ring) -> FreeElement:
    """The canonical form of a map cell; zero unless its morphism is the identity."""
    base, morphism = canonical_map_cell(target, cell)
    if not morphism.is_identity:
        return FreeElement.zero(ring)
    return FreeElement.single(ring, base.key(), ring.one)


class CartanSerre:
    """Collapse comparison from simplicial chains into cube-map chains."""

    def __init__(self, space: SimplicialSet, max_degree: int, ring: Ring = ZZ):
        self.space = space
        self.ring = ring
        self.max_degree = int(max_degree)
        seeds = []
        self._image = {}
        for n in space.dimensions():
            if n > max_degree:
                continue
            for cell in space.nondegenerate(n):
                mc = cartan_serre_cell(space, cell)
                seeds.append(mc)
                self._image[cell] = mc
        self.cubes = u_closure(space, seeds)
        self.source = normalized_chains(space, max_degree, ring)
        self.target = cubical_chains(self.cubes, None, ring)
        self.map = GradedLinearMap(self.source, self.target, 0, self._rule)

    def _rule(self, cell) -> FreeElement:
        return _map_cell_chain(self.space, self._image[cell], self.ring)

    def is_chain_map(self, degrees=None):
        return self.map.is_chain_map(degrees)


def cartan_serre(space: SimplicialSet, max_degree: int, ring: Ring = ZZ) -> CartanSerre:
    return CartanSerre(space, max_degree, ring)


# --- triangulation zigzag for the loop-space monoid ---

class ZigzagReport:
    """Outcome of comparing a cubical monoid with its triangulation."""

    __slots__ = (
        "space_name",
        "max_range",
        "cubical_homology",
        "triangulated_homology",
        "agree",
        "inconclusive",
        "collapse_is_chain_map",
        "unit_is_chain_map",
        "unit_injective",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw[name])

    def __setattr__(self, name, value):
        raise AttributeError("ZigzagReport is immutable")

    def as_dict(self):
        def table(rows):
            return {
                str(n): None if h is None else {"rank": h[0], "torsion": list(h[1])}
                for n, h in rows.items()
            }

        return {
            "space": self.space_name,
            "range": self.max_range,
            "cubical": table(self.cubical_homology),
            "triangulated": table(self.triangulated_homology),
            "agree": self.agree,
            "inconclusive": self.inconclusive,
            "collapse_chain_map": self.collapse_is_chain_map,
            "unit_chain_map": self.unit_is_chain_map,
            "unit_injective": self.unit_injective,
        }


def _eta_cell(cubes: CubicalSet, cid) -> MapCell:
    n = cubes.dim_of(cid)
    assignment = {}
    for chain in _strict_chains(n):
        assignment[chain] = _canonical_simplex(cubes, cid, chain)
    return MapCell(n, assignment)


def zigzag_report(
    space: SimplicialSet,
    max_range: int,
    ring: Ring = ZZ,
    max_length: int | None = None,
    cutoff: int | None = None,
) -> ZigzagReport:
    """Compare the loop-space monoid with its triangulated shadow.

    Builds the (localized when cutoff is given) monoid one degree past
    the requested range, triangulates it, and reports homology of both
    sides, chain-map certificates for the collapse on the triangulated
    side and for the unit into the mapping object, and injectivity of
    the unit on nondegenerate cells. Homology degrees the truncation
    cannot settle are recorded as None and flagged.
    """
    depth = max_range + 1
    if cutoff is not None:
        omega = extended_cubical_cobar(space, depth, cutoff, ring)
    else:
        omega = cubical_cobar(space, depth, max_length, ring)
    cubes = omega.cubes
    cube_chains = omega.chains()
    tri = triangulate(cubes, depth)
    tri_chains = normalized_chains(tri, depth, ring)

    degrees = range(max_range + 1)
    cub_h, tri_h = (
        {
            n: None if h is None else (h.free_rank, h.invariant_factors)
            for n, h in homology_table(chains, degrees).items()
        }
        for chains in (cube_chains, tri_chains)
    )
    inconclusive = [
        (tag, n)
        for n in degrees
        for tag, out in (("cubical", cub_h), ("triangulated", tri_h))
        if out[n] is None
    ]
    agree = all(
        cub_h[n] == tri_h[n]
        for n in range(max_range + 1)
        if cub_h[n] is not None and tri_h[n] is not None
    )

    seeds = []
    eta_of = {}
    for n in cubes.dimensions():
        for cid in cubes.nondegenerate(n):
            mc = _eta_cell(cubes, cid)
            eta_of[cid] = mc
            seeds.append(mc)
    cs_of = {}
    for n in tri.dimensions():
        if n > max_range:
            continue
        for cell in tri.nondegenerate(n):
            mc = cartan_serre_cell(tri, cell)
            cs_of[cell] = mc
            seeds.append(mc)
    mapping = u_closure(tri, seeds)
    mapping_chains = cubical_chains(mapping, None, ring)

    def eta_rule(cid):
        return _map_cell_chain(tri, eta_of[cid], ring)

    def cs_rule(cell):
        return _map_cell_chain(tri, cs_of[cell], ring)

    unit_map = GradedLinearMap(cube_chains, mapping_chains, 0, eta_rule)
    unit_ok, unit_wit = unit_map.is_chain_map(
        [n for n in cube_chains.degrees() if n <= max_range]
    )
    collapse_source = normalized_chains(tri, max_range, ring)
    collapse_map = GradedLinearMap(collapse_source, mapping_chains, 0, cs_rule)
    cs_ok, cs_wit = collapse_map.is_chain_map(
        [n for n in collapse_source.degrees() if n <= max_range]
    )

    images = {}
    injective = True
    for n in cubes.dimensions():
        if n > max_range:
            continue
        for cid in cubes.nondegenerate(n):
            key = eta_of[cid].key()
            if key in images:
                injective = False
            images[key] = cid

    return ZigzagReport(
        space_name=space.name,
        max_range=max_range,
        cubical_homology=cub_h,
        triangulated_homology=tri_h,
        agree=agree,
        inconclusive=tuple(inconclusive),
        collapse_is_chain_map=bool(cs_ok) and cs_wit is None,
        unit_is_chain_map=bool(unit_ok) and unit_wit is None,
        unit_injective=injective,
    )


# --- operations transported through the relabeling ---

def _phi_tensor(space, element: FreeElement, ring: Ring) -> FreeElement:
    sums = {}
    for key, c in element.items():
        factors = [list(phi_cell(space, comp, ring).items()) for comp in key]
        for combo in itertools.product(*factors):
            word = tuple(w for w, _ in combo)
            coeff = c
            for _, s in combo:
                coeff *= s
            sums[word] = sums.get(word, 0) + coeff
    return FreeElement._from_sums(ring, sums)


def _transport(omega: CubicalCobar, action, chain, ring: Ring) -> FreeElement:
    """action(coalgebra, cells) on the cube model, read back on words."""
    from .einfty import cubical_um

    if omega.signed:
        raise ValueError("transport acts on the plain bead-word model")
    if not isinstance(chain, FreeElement):
        chain = FreeElement.single(ring, tuple(chain), ring.one)
    coalg = cubical_um(omega.cubes, ring)
    cells = phi_inverse_chain(omega.source, chain, ring)
    return _phi_tensor(omega.source, action(coalg, cells), ring)


def cobar_um_structure(omega: CubicalCobar, op, chain, ring: Ring | None = None):
    """A prop operation on bead words, conjugated through the cube model.

    chain is a word or a FreeElement of words; the answer is a sum of
    tensor tuples of words. The operation acts on the cubical side by
    evaluation on standard cubes and pushforward, exactly as for any
    cubical set, and the relabeling carries it back.
    """
    from .einfty import um_action

    return _transport(
        omega, lambda coalg, cells: um_action(coalg, op, cells), chain, ring or omega.ring
    )


def cobar_psi(omega: CubicalCobar, p: int, i: int, chain, ring: Ring):
    """Transported cyclic-resolution operation, for Steenrod words."""
    from .einfty import psi_action

    return _transport(
        omega, lambda coalg, cells: psi_action(coalg, p, i, cells), chain, ring
    )
