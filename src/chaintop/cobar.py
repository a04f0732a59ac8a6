"""Cobar constructions on chains of reduced simplicial sets.

Words are tuples of nondegenerate simplices of dimension >= 1, each
letter contributing its dimension minus one to the degree. The plain
construction truncates by degree and, when dimension-1 letters make a
degree infinite-rank, by a word length budget(degree): a fixed length
for `cobar`, the cube model's sliding one when Adams' map is certified.
The localized variant turns dimension-1 letters into invertible group
letters under a group budget that shrinks with the degree. Both windows
are built by `chaintop.words`, whose notes say when each is closed
under d; each degree is stored in the order that module builds it.
`edge_expansion` is the one rule that turns a dimension-1 letter t
into t plus or minus the unit: Adams' relabeling, its inverse and the
embedding into the localized construction all call it.
"""

from __future__ import annotations

import copy

from .complexes import ChainComplex
from .freemod import FreeElement, add_into
from .linalg import eliminate
from .rings import QQ, Ring, ZZ
from .simplicial import SimplicialSet, back_face, front_face
from .words import group_words, growth, letters, localized_words, plain_words


def letter_degree(space: SimplicialSet, cell) -> int:
    return space.dim_of(cell) - 1


def word_degree(space: SimplicialSet, word) -> int:
    return sum(letter_degree(space, cell) for cell in word)


def letter_boundary(space: SimplicialSet, cell, ring: Ring) -> FreeElement:
    """Boundary of a one-letter word: shifted faces plus split terms.

    Face i carries (-1)^(i+1); the split into the first i vertices and
    the last n - i carries (-1)^i from moving a shift past the front
    factor. Degenerate letters and vertex letters drop.
    """
    n = space.dim_of(cell)
    terms = {}
    ref = space.ref(cell)
    if n >= 2:
        for i in range(n + 1):
            face = space.face_of_ref(ref, i)
            if not face.is_degenerate:
                sign = ring.from_int(-1 if i % 2 == 0 else 1)
                add_into(terms, ring, (face.base,), sign)
    for i in range(1, n):
        front = front_face(space, ref, i)
        back = back_face(space, ref, n - i)
        if front.is_degenerate or back.is_degenerate:
            continue
        sign = ring.from_int(-1 if i % 2 else 1)
        add_into(terms, ring, (front.base, back.base), sign)
    return FreeElement(ring, terms)


class CobarComplex:
    """Truncated tensor algebra on shifted chains, with its product.

    A word of degree d is stored when d <= max_degree and its length is
    at most budget(d) (`chaintop.words`; None for no cap).
    """

    def __init__(
        self,
        space: SimplicialSet,
        max_degree: int,
        ring: Ring = ZZ,
        budget=lambda degree: None,
    ):
        edges, heavies = letters(space)
        self.space = space
        self.ring = ring
        self.max_degree = int(max_degree)
        self.budget = budget
        if edges and any(budget(d) is None for d in range(self.max_degree + 1)):
            raise ValueError(
                "dimension-1 letters make degrees infinite-rank; "
                "pass a word length cutoff"
            )
        basis = plain_words(space, edges + heavies, self.max_degree, budget)
        # each letter's boundary terms and degree
        self._letters = {
            cell: (
                letter_boundary(space, cell, ring).terms,
                letter_degree(space, cell),
            )
            for cell in edges + heavies
        }
        # the letters with d = 0: d is a derivation, so every word of
        # them has d = 0, and _word_boundary returns one shared zero
        self._cycles = frozenset(
            cell for cell, (terms, _) in self._letters.items() if not terms
        )
        self._zero = FreeElement.zero(ring)
        # d is a method of a copy taken before self.complex exists: with
        # self's own method the complex would refer back to self, a cycle
        # that keeps a finished complex and its diff cache alive until a
        # full garbage collection
        self.complex = ChainComplex(
            ring,
            basis,
            copy.copy(self)._word_boundary,
            complete=False,
            name=f"cobar({space.name})",
        )

    def _word_boundary(self, word) -> FreeElement:
        if self._cycles.issuperset(word):
            return self._zero
        sums = {}
        sign = 1
        degree = 0
        table = self._letters
        for j, cell in enumerate(word):
            terms, step = table[cell]
            for piece, c in terms.items():
                new = word[:j] + piece + word[j + 1 :]
                sums[new] = sums.get(new, 0) + sign * c
            if step % 2:
                sign = -sign
            degree += step
        # a term is at most one letter longer than the word
        cap = self.budget(degree - 1)
        if cap is not None and len(word) >= cap:
            sums = {new: c for new, c in sums.items() if len(new) <= cap}
        return FreeElement._from_sums(self.ring, sums)

    def unit(self) -> FreeElement:
        return FreeElement.single(self.ring, (), self.ring.one)

    def product(self, left: FreeElement, right: FreeElement) -> FreeElement:
        """Concatenation, dropping words outside the stored truncation.

        The degree of a stored word is read from the window's basis;
        only a word the window does not store has its degree summed
        letter by letter.
        """
        space, budget = self.space, self.budget
        stored = self.complex._degree_of
        factors = []
        for v, cv in right.items():
            dv = stored.get(v)
            factors.append((v, cv, word_degree(space, v) if dv is None else dv))
        sums = {}
        for u, cu in left.items():
            du = stored.get(u)
            if du is None:
                du = word_degree(space, u)
            room = self.max_degree - du
            for v, cv, dv in factors:
                if dv <= room:
                    w = u + v
                    cap = budget(du + dv)
                    if cap is None or len(w) <= cap:
                        sums[w] = sums.get(w, 0) + cu * cv
        return FreeElement._from_sums(self.ring, sums)


def cobar(
    space: SimplicialSet,
    max_degree: int,
    ring: Ring = ZZ,
    max_length: int | None = None,
) -> CobarComplex:
    """The cobar window with words of length at most max_length in every degree."""
    return CobarComplex(space, max_degree, ring, lambda degree: max_length)


# --- free group words over the 1-cells ---

def reduce_group_word(letters) -> tuple:
    """Free reduction: cancel adjacent (g, e)(g, -e) pairs."""
    out = []
    for cell, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"exponent must be +-1, got {exp!r}")
        if out and out[-1][0] == cell and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((cell, exp))
    return tuple(out)


def invert_group_word(word) -> tuple:
    return tuple((cell, -exp) for cell, exp in reversed(word))


# --- localized words ---
#
# A localized word alternates group segments and letters of dimension
# >= 2: (g0, x1, g1, ..., xk, gk), always odd length, every group
# segment reduced. The unit is ((),).

def loc_degree(space: SimplicialSet, word) -> int:
    return sum(space.dim_of(word[j]) - 1 for j in range(1, len(word), 2))


def loc_group_count(word) -> int:
    return sum(len(word[j]) for j in range(0, len(word), 2))


def loc_product(left, right) -> tuple:
    joined = reduce_group_word(left[-1] + right[0])
    return left[:-1] + (joined,) + right[1:]


def signed_cell_to_word(space: SimplicialSet, cell) -> tuple:
    """Localized word of a signed cell: edge runs become group segments."""
    parts = []
    seg = []
    for c, e in cell:
        if space.dim_of(c) == 1:
            seg.append((c, e))
        else:
            parts.append(tuple(seg))
            parts.append(c)
            seg = []
    parts.append(tuple(seg))
    return tuple(parts)


def word_to_signed_cell(word) -> tuple:
    out = []
    for j, part in enumerate(word):
        if j % 2 == 0:
            out.extend(part)
        else:
            out.append((part, 1))
    return tuple(out)


def edge_expansion(space: SimplicialSet, word, ring: Ring, odd_sign, edge_sign) -> FreeElement:
    """The product of the letters, each edge t as t + edge_sign.

    Letters of dimension >= 2 stay, so a word with k edge letters
    expands into 2^k subwords; equal subwords add up. Each letter of odd
    degree multiplies every term by odd_sign, so with odd_sign = -1 the
    whole sum carries (-1)^degree, the same for every subword since
    edges have degree 0; it is read in the one pass over the letters.

    >>> from .rings import ZZ
    >>> from .simplicial import projective_plane_model
    >>> rp2 = projective_plane_model()
    >>> edge_expansion(rp2, ("a", "U", "b"), ZZ, 1, 1)
    ('U', 'b') + ('U',) + ('a', 'U') + ('a', 'U', 'b')
    >>> edge_expansion(rp2, ("a", "U", "b"), ZZ, -1, 1)
    -1*('U', 'b') + -1*('U',) + -1*('a', 'U') + -1*('a', 'U', 'b')
    >>> edge_expansion(rp2, ("a", "a"), ZZ, -1, -1)
    ('a', 'a') + -2*('a',) + ()
    """
    sums = {(): 1}
    for cell in word:
        dim = space.dim_of(cell)
        sign = odd_sign if dim % 2 == 0 else 1
        grown = {}
        for sub, c in sums.items():
            longer = sub + (cell,)
            grown[longer] = grown.get(longer, 0) + c * sign
            if dim == 1:
                grown[sub] = grown.get(sub, 0) + c * edge_sign
        sums = grown
    return FreeElement._from_sums(ring, sums)


def expand_word(space: SimplicialSet, word, ring: Ring) -> FreeElement:
    """A plain word as a sum of localized words: each edge is g - 1."""
    return edge_expansion(space, word, ring, 1, ring.neg(ring.one)).map_keys(
        lambda sub: signed_cell_to_word(space, tuple((c, 1) for c in sub))
    )


def loc_letter_boundary(space: SimplicialSet, cell, ring: Ring) -> FreeElement:
    """d of a heavy letter as localized words.

    Each term of `letter_boundary` has its edges written as g - 1
    (`expand_word`). The extended cobar's boundary and the H_0 relation
    rows both read the letter rule from here.
    """
    return letter_boundary(space, cell, ring).map_terms(
        lambda word: expand_word(space, word, ring)
    )


class ExtendedCobarComplex:
    """Localized construction: 1-cells become invertible group letters.

    The group-letter budget of the degree-n basis is cutoff - growth*n
    (`chaintop.words.growth`), so boundaries never leave the stored
    basis and d^2 = 0 holds exactly.
    """

    def __init__(
        self,
        space: SimplicialSet,
        max_degree: int,
        cutoff: int | None,
        ring: Ring = ZZ,
    ):
        self.group_letters, self.heavy_letters = letters(space)
        if cutoff is None:
            raise ValueError(
                "localized degrees are infinite-rank; pass a group-letter cutoff"
            )
        self.space = space
        self.ring = ring
        self.max_degree = int(max_degree)
        self.cutoff = int(cutoff)
        self.growth = growth(space)
        self._letter_values = {}
        basis = localized_words(
            space, self.group_letters, self.heavy_letters, self.max_degree, self.budget
        )
        # a copy's method, as in CobarComplex, so no cycle through self
        self.complex = ChainComplex(
            ring,
            basis,
            copy.copy(self)._boundary,
            complete=False,
            name=f"extended-cobar({space.name})",
        )

    def budget(self, degree: int) -> int:
        return self.cutoff - self.growth * degree

    def in_window(self, word) -> bool:
        degree = loc_degree(self.space, word)
        return degree <= self.max_degree and loc_group_count(word) <= self.budget(
            degree
        )

    def letter_value(self, cell) -> FreeElement:
        """d of a heavy letter, rewritten into localized words."""
        if cell not in self._letter_values:
            self._letter_values[cell] = loc_letter_boundary(self.space, cell, self.ring)
        return self._letter_values[cell]

    def _boundary(self, word) -> FreeElement:
        ring = self.ring
        terms = {}
        sign = ring.one
        for j in range(1, len(word), 2):
            cell = word[j]
            for piece, c in self.letter_value(cell).items():
                if len(piece) == 1:
                    mid = reduce_group_word(word[j - 1] + piece[0] + word[j + 1])
                    new = word[: j - 1] + (mid,) + word[j + 2 :]
                else:
                    first = reduce_group_word(word[j - 1] + piece[0])
                    last = reduce_group_word(piece[-1] + word[j + 1])
                    new = (
                        word[: j - 1]
                        + (first,)
                        + piece[1:-1]
                        + (last,)
                        + word[j + 2 :]
                    )
                add_into(terms, ring, new, ring.mul(sign, c))
            if (self.space.dim_of(cell) - 1) % 2:
                sign = ring.neg(sign)
        return FreeElement(ring, terms)

    def unit(self) -> FreeElement:
        return FreeElement.single(self.ring, ((),), self.ring.one)

    def product(self, left: FreeElement, right: FreeElement) -> FreeElement:
        ring = self.ring
        terms = {}
        for u, cu in left.items():
            for v, cv in right.items():
                w = loc_product(u, v)
                if self.in_window(w):
                    add_into(terms, ring, w, ring.mul(cu, cv))
        return FreeElement(ring, terms)

    def embed_word(self, word) -> FreeElement:
        """Image of a plain cobar word; fails if the window is too tight."""
        value = expand_word(self.space, word, self.ring)
        for loc in value.support():
            if not self.in_window(loc):
                raise ValueError(
                    f"embedding {word!r} needs words beyond the cutoff; "
                    "raise the group-letter budget"
                )
        return value


def extended_cobar(
    space: SimplicialSet,
    max_degree: int,
    cutoff: int | None = None,
    ring: Ring = ZZ,
) -> ExtendedCobarComplex:
    return ExtendedCobarComplex(space, max_degree, cutoff, ring)


# --- degree-0 homology of the localized construction ---

class H0Report:
    """Presentation plus a rank certificate for the degree-0 homology."""

    __slots__ = (
        "generators",
        "relators",
        "rank",
        "basis_size",
        "cutoff",
        "inconclusive",
    )

    def __init__(self, generators, relators, rank, basis_size, cutoff, inconclusive):
        self.generators = tuple(generators)
        self.relators = tuple(relators)
        self.rank = rank
        self.basis_size = basis_size
        self.cutoff = cutoff
        self.inconclusive = inconclusive

    def as_dict(self):
        return {
            "generators": [str(cell) for cell in self.generators],
            "relators": [
                [[str(cell), exp] for cell, exp in rel] for rel in self.relators
            ],
            "rank": self.rank,
            "basis_size": self.basis_size,
            "cutoff": self.cutoff,
            "inconclusive": self.inconclusive,
        }


def fundamental_relators(space: SimplicialSet):
    """One relator per nondegenerate 2-cell: its edge-path boundary word.

    The far face crosses first, then face 0, then face 1 backwards;
    degenerate faces contribute the identity and drop out.
    """
    relators = []
    for cell in space.nondegenerate(2):
        ref = space.ref(cell)
        letters = []
        for i, exp in ((2, 1), (0, 1), (1, -1)):
            face = space.face_of_ref(ref, i)
            if not face.is_degenerate:
                letters.append((face.base, exp))
        word = reduce_group_word(letters)
        if word:
            relators.append(word)
    return tuple(relators)


def _relator_values(space: SimplicialSet, ring: Ring):
    """d of each 2-cell letter as a group-algebra element."""
    values = []
    for cell in space.nondegenerate(2):
        loc = loc_letter_boundary(space, cell, ring)
        values.append({word[0]: c for word, c in loc.items()})
    return values


def _h0_rows(space: SimplicialSet, cutoff: int, ring: Ring) -> tuple:
    """(words, rows) of the cutoff window, in one enumeration.

    words are the reduced group words of length <= cutoff, shortest
    first, so a smaller window c numbers its words as a prefix of this
    list. rows holds each distinct relation row {word index: coefficient}
    once, as (level, row). The row of g * d(x) * h has level
    max(|g| + |h|, longest reduced term): it is a row of the window c
    exactly when its level is <= c, and a row met more than once keeps
    its lowest level. Coefficients are plain ints, mod p over F_p.
    """
    edges = space.nondegenerate(1)
    words = list(group_words(edges, cutoff))
    index = {w: i for i, w in enumerate(words)}
    p = ring.p
    found = {}
    for value in _relator_values(space, ZZ):
        value = [(w, r) for w, c in value.items() if (r := c % p if p else c)]
        if not value:
            continue
        for g in group_words(edges, cutoff):
            for h in group_words(edges, cutoff - len(g)):
                level = len(g) + len(h)
                # g w h = g w' h only when w = w', so no two terms meet
                row = {}
                for w, c in value:
                    full = reduce_group_word(g + w + h)
                    if len(full) > level:
                        if len(full) > cutoff:
                            break
                        level = len(full)
                    row[index[full]] = c
                else:
                    key = frozenset(row.items())
                    seen = found.get(key)
                    if seen is None or level < seen[0]:
                        found[key] = (level, row)
    return words, list(found.values())


def _h0_within(space: SimplicialSet, cutoff: int, ring: Ring) -> tuple:
    """(basis size, certified relation rank) at cutoff and at cutoff - 1.

    Relations are the boundaries g * d(x) * h over all group words g, h
    with |g| + |h| <= cutoff, kept only when every reduced term stays
    within the window; each kept row is an honest boundary, so the
    quotient rank can only overshoot the true one, never undershoot.
    One enumeration of the cutoff window (`_h0_rows`) serves both
    windows: the cutoff - 1 rows are those of level <= cutoff - 1.
    """
    words, rows = _h0_rows(space, cutoff, ring)
    prev_size = sum(1 for w in words if len(w) < cutoff)
    prev = [row for level, row in rows if level < cutoff]
    # the rank of the relation rows is that of their transpose
    prev_rank = len(eliminate(prev, ring))
    rank = len(eliminate([row for _, row in rows], ring))
    return (len(words), rank), (prev_size, prev_rank)


def h0_group_ring(space: SimplicialSet, cutoff: int, ring: Ring = QQ) -> H0Report:
    """Group ring of the edge-path group, computed within a word cutoff.

    Quotients the span of reduced group words of length <= cutoff by
    all boundary relations certifiable inside that window. The rank is
    exact once the window saturates the relations; when the answer
    still moves between cutoff - 1 and cutoff the report says so. Both
    windows come from one enumeration of the cutoff window, whose rows
    carry the level of the smallest window that holds them.
    """
    space.basepoint  # raises ValueError unless there is a single vertex
    if not getattr(ring, "is_field", False):
        raise ValueError("rank certification needs field coefficients")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    (size, rank), (prev_size, prev_rank) = _h0_within(space, cutoff, ring)
    h0 = size - rank
    inconclusive = (prev_size - prev_rank) != h0
    return H0Report(
        generators=space.nondegenerate(1),
        relators=fundamental_relators(space),
        rank=h0,
        basis_size=size,
        cutoff=cutoff,
        inconclusive=inconclusive,
    )
