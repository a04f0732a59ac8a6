"""Cobar constructions on chains of reduced simplicial sets.

Words are tuples of nondegenerate simplices of dimension >= 1, each
letter contributing its dimension minus one to the degree. The plain
construction truncates by degree and, when dimension-1 letters make a
degree infinite-rank, by a word length budget(degree): a fixed length
for `cobar`, a sliding one for the cube model, which keeps this window.
The localized variant turns dimension-1 letters into invertible group
letters under a group budget that shrinks with the degree. Both windows
are built by `chaintop.words`, whose notes say when each is closed
under d; each degree is stored in the order that module builds it.

One class, `CobarComplex`, serves both windows; `ExtendedCobarComplex`
supplies only its window, its letter table and free reduction. d is
the derivation fixed by one value per letter (`derivation`), and a
product keeps a word exactly when the window stores it, since a window
stores every word its caps admit.
`edge_expansion` is the one rule that turns a dimension-1 letter t
into t plus or minus the unit: Adams' relabeling, its inverse and the
embedding into the localized construction all call it.
"""

from __future__ import annotations

from .complexes import ChainComplex
from .freemod import FreeElement
from .rings import QQ, Ring, ZZ
from .simplicial import SimplicialSet
from .words import (
    group_words,
    growth,
    letters,
    localized_budget,
    localized_words,
    plain_words,
    stored_top,
)


def letter_degree(space: SimplicialSet, cell) -> int:
    return space.dim_of(cell) - 1


def letter_boundary(space: SimplicialSet, cell, ring: Ring) -> FreeElement:
    """Boundary of a one-letter word: shifted faces plus split terms.

    Face i carries (-1)^(i+1); the split into the first i vertices and
    the last n - i carries (-1)^i from moving a shift past the front
    factor. Degenerate letters and vertex letters drop.
    """
    faces = space.faces(cell)
    n = len(faces) - 1
    sums = {}
    if n >= 2:
        for i, face in enumerate(faces):
            if not face.word:
                word = (face.base,)
                sums[word] = sums.get(word, 0) + (-1 if i % 2 == 0 else 1)
    # front_face(x, i) = d_{i+1} front_face(x, i + 1) and back_face(x, i) =
    # d_0 back_face(x, i + 1), so one face each gives every split
    fronts, backs = {}, {}
    if n >= 2:
        fronts[n - 1], backs[n - 1] = faces[n], faces[0]
    for i in range(n - 2, 0, -1):
        fronts[i] = space.face_of_ref(fronts[i + 1], i + 1)
        backs[i] = space.face_of_ref(backs[i + 1], 0)
    for i in range(1, n):
        front, back = fronts[i], backs[n - i]
        if front.is_degenerate or back.is_degenerate:
            continue
        word = (front.base, back.base)
        sums[word] = sums.get(word, 0) + (-1 if i % 2 else 1)
    return FreeElement._from_sums(ring, sums)


def by_faces(space: SimplicialSet, cells, rule, ring: Ring) -> dict:
    """{cell: rule(space, cell, ring)}, one call per distinct face tuple.

    A letter's d reads only the cell's faces (`letter_boundary`), so
    cells with equal face tuples share one value: on a wedge of spheres
    all letters of one dimension have the same degenerate faces. The
    tuple itself is the key, and equal refs hash equal, so cells share
    whether or not their refs are the same objects.
    """
    values = {}
    out = {}
    for cell in cells:
        faces = space.faces(cell)
        value = values.get(faces)
        if value is None:
            value = values[faces] = rule(space, cell, ring)
        out[cell] = value
    return out


def derivation(table, word, reduce=None) -> tuple:
    """(sums, degree): the derivation fixed by table, on one word.

    table maps each letter to (its value as {word: coefficient}, or
    nothing, and its degree). sums is the sum over the letters l of the
    word of (-1)^(degree before l) head value(l) tail, each term passed
    through reduce when one is given; degree is the word's. The cobar's
    d, the cube model's d and the certificate's letter rule all splice
    with this.
    """
    sums = {}
    sign = 1
    degree = 0
    for j, letter in enumerate(word):
        terms, step = table[letter]
        if terms:
            head, tail = word[:j], word[j + 1 :]
            for piece, c in terms.items():
                new = head + piece + tail
                if reduce is not None:
                    new = reduce(new)
                sums[new] = sums.get(new, 0) + sign * c
        if step % 2:
            sign = -sign
        degree += step
    return sums, degree


def concatenation(left, right, stored, reduce, sums, sign) -> dict:
    """Add sign * c_u * c_v at uv into sums for each uv that stored holds.

    left and right map words to coefficients; uv is passed through
    reduce first when one is given. Returns sums, whose entries stay
    plain-number sums: the cobar's product and the certificate's
    product check both add with this, and canonicalize once.

    >>> left, right = {("a",): 2}, {("b",): 3, ("c",): 1}
    >>> concatenation(left, right, {("a", "b"), ("a", "c")}, None, {}, 1)
    {('a', 'b'): 6, ('a', 'c'): 2}
    >>> concatenation(left, right, {("a", "b")}, None, {("a", "b"): 6}, -1)
    {('a', 'b'): 0}
    """
    for u, cu in left.items():
        cu *= sign
        for v, cv in right.items():
            w = u + v if reduce is None else reduce(u + v)
            if w in stored:
                sums[w] = sums.get(w, 0) + cu * cv
    return sums


class CobarComplex:
    """Truncated tensor algebra on shifted chains, with its product.

    A word of degree d is stored when d <= max_degree and its length is
    at most budget(d) (`chaintop.words`; None for no cap), a budget
    that must not rise with degree. The complex counts the empty degrees
    above its words that the cap cannot cut (`chaintop.words.stored_top`).
    d is `derivation` on the letter table, which holds one value per
    distinct face tuple (`by_faces`), and the zero differential
    when every letter is a cycle, as on a wedge of spheres; the product keeps a
    concatenation exactly when the window stores it. The localized
    construction (`ExtendedCobarComplex`) is this class on another
    window and letter table, with words freely reduced.
    """

    # what a spliced or concatenated word goes through; None for plain words
    _reduce = None

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
        values = by_faces(space, edges + heavies, letter_boundary, ring)
        table = {
            cell: (value.terms, letter_degree(space, cell)) for cell, value in values.items()
        }
        basis = plain_words(space, edges + heavies, self.max_degree, budget)
        self._build(basis, table, edges, f"cobar({space.name})")

    def _build(self, basis, table, edges, name) -> None:
        """Store the window basis under d, the derivation of table.

        basis is the `Window` that `chaintop.words` enumerates; the
        complex stores it as it is, reads its sizes for its degrees and
        ranks, and lists its words only at the first read by degree,
        which the zero complex never makes; a plain window answers
        lookups by its cap rule without listing. table maps each letter
        to (the terms of its d, its degree).
        """
        self._letters = table
        # the letters with d = 0: d is a derivation, so every word of
        # them has d = 0, and _word_boundary returns None for it
        self._cycles = frozenset(
            letter for letter, (terms, _) in table.items() if not terms
        )
        if len(self._cycles) == len(table):
            # every letter is a cycle (a wedge of spheres): d = 0 on every
            # word, so the complex is the zero complex and reads no rule
            rule = None
        else:
            # d is a method of a copy taken before self.complex exists:
            # with self's own method the complex would refer back to self,
            # a cycle that keeps a finished complex and its diff cache
            # alive until a full garbage collection. The copy is made by
            # hand, since importing `copy` costs every start of the CLI
            twin = object.__new__(type(self))
            twin.__dict__.update(self.__dict__)
            rule = twin._word_boundary
        self.complex = ChainComplex(self.ring, basis, rule, complete=False, name=name)
        self.complex.max_degree = stored_top(basis.sizes, edges, self.budget)

    def _word_boundary(self, word):
        """d of a stored word as plain-number sums, or None when it is 0.

        The complex canonicalizes the sums (`ChainComplex`).
        """
        if self._cycles.issuperset(word):
            return None
        sums, degree = derivation(self._letters, word, self._reduce)
        # localized windows are closed under d (`chaintop.words`); a
        # plain term is at most one letter longer than the word
        if self._reduce is None:
            cap = self.budget(degree - 1)
            if cap is not None and len(word) >= cap:
                sums = {new: c for new, c in sums.items() if len(new) <= cap}
        return sums

    def unit(self) -> FreeElement:
        return FreeElement.single(self.ring, (), self.ring.one)

    def product(self, left: FreeElement, right: FreeElement) -> FreeElement:
        """Concatenation, keeping the words the window stores.

        The window stores every word its caps admit, so a lookup in its
        basis is the cap test for any word of its letters, stored factors
        or not: on plain words it is that test itself
        (`chaintop.words.plain_words`), and lists no word; localized
        words are freely reduced first. The terms are
        summed by `concatenation` and canonicalized once.
        """
        sums = concatenation(
            left.terms, right.terms, self.complex._degree_of, self._reduce, {}, 1
        )
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
# A localized word is a flat, freely reduced word of (cell, exp) pairs
# (`chaintop.words`): edges are group letters with exp +-1, and letters
# of dimension >= 2 always carry exp +1, so they never cancel. The unit
# is (), the product is `reduce_group_word(u + v)`, and the signed bead
# words of `loopspace.CubicalCobar` are the same keys.

def loc_degree(space: SimplicialSet, word) -> int:
    return sum(space.dim_of(cell) - 1 for cell, _ in word)


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
        sums = expansion_step(sums, cell, space.dim_of(cell), odd_sign, edge_sign)
    return FreeElement._from_sums(ring, sums)


def expansion_step(sums, cell, dim, odd_sign, edge_sign) -> dict:
    """One step of `edge_expansion`: sums times a letter, an edge as cell + edge_sign.

    sums maps words to plain-number coefficients; cell is a letter of
    simplicial dimension dim. Each word gets cell appended, times
    odd_sign when the letter's degree dim - 1 is odd; an edge (dim 1)
    also keeps each word as it is, times edge_sign. Returns new
    plain-number sums, equal words added up; sums is not changed.

    >>> expansion_step({("a",): 1, (): 1}, "a", 1, -1, 1)
    {('a', 'a'): 1, ('a',): 2, (): 1}
    >>> expansion_step({("a",): 3}, "U", 2, -1, 1)
    {('a', 'U'): -3}
    """
    if dim != 1:
        sign = odd_sign if dim % 2 == 0 else 1
        return {sub + (cell,): c * sign for sub, c in sums.items()}
    grown = {}
    for sub, c in sums.items():
        longer = sub + (cell,)
        grown[longer] = grown.get(longer, 0) + c
        grown[sub] = grown.get(sub, 0) + c * edge_sign
    return grown


def expand_word(space: SimplicialSet, word, ring: Ring) -> FreeElement:
    """A plain word as a sum of localized words: each edge is g - 1."""
    return edge_expansion(space, word, ring, 1, ring.neg(ring.one)).map_keys(
        lambda sub: tuple((c, 1) for c in sub)
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


class ExtendedCobarComplex(CobarComplex):
    """Localized construction: 1-cells become invertible group letters.

    Keys are flat localized words of (cell, exp) pairs, the same keys as
    the signed bead words of `loopspace.CubicalCobar`; the unit is ()
    and the product is free reduction of the concatenation. The
    group-letter budget of the degree-n basis is cutoff - growth*n
    (`chaintop.words.localized_budget`), so boundaries never leave the
    stored basis and d^2 = 0 holds exactly. Only the window, the letter
    table and free reduction are its own; d and the product are those
    of `CobarComplex`.
    """

    _reduce = staticmethod(reduce_group_word)

    def __init__(
        self,
        space: SimplicialSet,
        max_degree: int,
        cutoff: int | None,
        ring: Ring = ZZ,
    ):
        edges, heavies = self.group_letters, self.heavy_letters = letters(space)
        if cutoff is None:
            raise ValueError(
                "localized degrees are infinite-rank; pass a group-letter cutoff"
            )
        self.space = space
        self.ring = ring
        self.max_degree = int(max_degree)
        self.cutoff = int(cutoff)
        self.growth = growth(space)
        self.budget = localized_budget(self.cutoff, self.growth)
        table = {(edge, exp): (None, 0) for edge in edges for exp in (1, -1)}
        for cell, value in by_faces(space, heavies, loc_letter_boundary, ring).items():
            table[cell, 1] = (value.terms, letter_degree(space, cell))
        basis = localized_words(space, edges, heavies, self.max_degree, self.budget)
        self._build(basis, table, edges, f"extended-cobar({space.name})")

    def in_window(self, word) -> bool:
        """Whether the window stores word, a freely reduced localized word."""
        return word in self.complex._degree_of

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
    return [
        loc_letter_boundary(space, cell, ring).terms
        for cell in space.nondegenerate(2)
    ]


def _junction(left, right) -> tuple:
    """Free reduction of left + right when both are reduced.

    Only pairs across the junction can cancel, so it peels inverse
    pairs there and nowhere else.

    >>> _junction((("a", 1), ("b", 1)), (("b", -1), ("a", 1)))
    (('a', 1), ('a', 1))
    """
    n = len(left)
    k = 0
    for cell, exp in right[:n]:
        if left[n - 1 - k] != (cell, -exp):
            break
        k += 1
    return left[: n - k] + right[k:]


def _relator_edges(space: SimplicialSet) -> list:
    """The two words of d x for each 2-cell letter x whose d is not zero.

    With a degenerate face counted as 1, d x = v - u for u = d_2 x * d_0 x
    and v = d_1 x, so u v^-1 is the cell's `fundamental_relators` word
    and u != v; the pair comes in the value's order, which the rank does
    not see. Raises ValueError, naming the cell, on a value of any other
    shape.
    """
    pairs = []
    for cell, value in zip(space.nondegenerate(2), _relator_values(space, ZZ)):
        if not value:
            continue
        (u, s), *rest = value.items()
        if s not in (1, -1) or len(rest) != 1 or rest[0][1] != -s:
            raise ValueError(
                f"d of the 2-cell {cell!r} is not a difference of two "
                f"group words: {value!r}"
            )
        pairs.append((u, rest[0][0]))
    return pairs


def _h0_edges(space: SimplicialSet, words: list, cutoff: int):
    """Each relation row of the cutoff window as an edge (level, i, j).

    words are the reduced group words of length <= cutoff, shortest
    first. The row g * d(x) * h is +-(e_i - e_j) with words[i] = g u h
    and words[j] = g v h (`_relator_edges`); it is yielded once per
    (x, g, h), repeats included, at level max(|g| + |h|, |g u h|,
    |g v h|), the smallest window that holds it, and skipped when that
    is over the cutoff. g u and g v are reduced once per g; h runs over
    the words of length <= cutoff - |g|, a prefix of words, and each
    product is reduced at its one junction (`_junction`).
    """
    index = {w: i for i, w in enumerate(words)}
    # within[k]: how many words have length <= k
    within = [0] * (cutoff + 1)
    for w in words:
        within[len(w)] += 1
    for k in range(1, cutoff + 1):
        within[k] += within[k - 1]
    # the inverse of each word's first letter: what a junction cancels
    heads = [(w[0][0], -w[0][1]) if w else None for w in words]
    for u, v in _relator_edges(space):
        for g in words:
            gu, gv = _junction(g, u), _junction(g, v)
            for j in range(within[cutoff - len(g)]):
                h, head = words[j], heads[j]
                a = _junction(gu, h) if gu and gu[-1] == head else gu + h
                b = _junction(gv, h) if gv and gv[-1] == head else gv + h
                level = max(len(g) + len(h), len(a), len(b))
                if level <= cutoff:
                    yield level, index[a], index[b]


def _h0_within(space: SimplicialSet, cutoff: int, ring: Ring) -> tuple:
    """(basis size, certified relation rank) at cutoff and at cutoff - 1.

    Relations are the boundaries g * d(x) * h over all group words g, h
    with |g| + |h| <= cutoff, kept only when every reduced term stays
    within the window; each kept row is an honest boundary, so the
    quotient rank can only overshoot the true one, never undershoot.
    Each row is a difference of two words (`_h0_edges`), an edge of a
    graph on the window's words, and the rank of a graph's edge rows
    is the number of its vertices minus the number of its connected
    components over every field: a spanning forest's rows are
    independent, since each tree has a leaf whose word only one of its
    rows holds, and every other edge row is a signed sum of the rows on
    the forest path between its ends. So union-find counts the rank
    exactly, with no elimination, and ring, which must be a field, does
    not change it. Edges below level cutoff are joined first: their
    successful joins are the rank of the cutoff - 1 window, whose words
    are those shorter than cutoff; the edges at level cutoff are held
    and joined after.
    """
    words = list(group_words(space.nondegenerate(1), cutoff))
    parent = list(range(len(words)))

    def join(i, j) -> bool:
        """Merge the trees of i and j; whether they were apart."""
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i == j:
            return False
        parent[i] = j
        return True

    prev_rank = 0
    last = []
    for level, i, j in _h0_edges(space, words, cutoff):
        if level < cutoff:
            prev_rank += join(i, j)
        else:
            last.append((i, j))
    rank = prev_rank + sum(join(i, j) for i, j in last)
    prev_size = sum(1 for w in words if len(w) < cutoff)
    return (len(words), rank), (prev_size, prev_rank)


def h0_group_ring(space: SimplicialSet, cutoff: int, ring: Ring = QQ) -> H0Report:
    """Group ring of the edge-path group, computed within a word cutoff.

    Quotients the span of reduced group words of length <= cutoff by
    all boundary relations certifiable inside that window. The rank is
    exact once the window saturates the relations; when the answer
    still moves between cutoff - 1 and cutoff the report says so. Both
    windows come from one enumeration of the cutoff window, whose rows
    carry the level of the smallest window that holds them. Each row
    is a difference of two words, so the rank is the number of
    words minus the number of components of the graph those rows draw
    on them (`_h0_within`), the same over every field. The quotient is
    free over Z too, but ZZ is still refused: the report certifies a
    rank over a field, and `cobar-ext --ring z` keeps its input error.
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
