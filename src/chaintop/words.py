"""Word windows: the stored bases of the word models of the loop space.

Adams' cobar (`cobar.CobarComplex`), the Hess-Tonks extended cobar
(`cobar.ExtendedCobarComplex`) and the bead-word monoid
(`loopspace.CubicalCobar`, plain and signed) each store a finite window
of an infinite word basis, and this module is the only place that
builds one. The two cobars call it; the bead-word monoid takes its
window from the cobar of the same window, and its cube boundary is
`cobar.derivation` on its cube value table, the splice of the cobar's
own d. Letters are the nondegenerate simplices of dimension >= 1
of a reduced simplicial set; a letter of dimension m adds m - 1 to the
degree. Edges (dimension 1) add nothing, so with edges every degree has
infinite rank and a window needs a second cap besides `max_degree`: a
function `budget(degree)` that bounds the words of that degree (`None`
for no bound).

Plain words, letters in a row, are capped by their length:

- fixed cap, `budget(d) = max_length` (`cobar.cobar`). A boundary term
  replaces one letter by at most two, so it can leave the window; the
  cobar drops such terms. Longer words span a subcomplex, so the window
  is a quotient complex and d^2 = 0 survives exactly.
- sliding cap, `budget(d) = max_length + (max_degree - d)`
  (`sliding_budget`; the bead-word monoid, and the cobar it is certified
  against). A cube face, like a cobar boundary term, lowers the degree
  by one and lengthens the word by at most one letter, which the cap one
  degree down absorbs, so the window is closed under d and nothing is
  dropped.

Localized words are flat, freely reduced words of (cell, exp) pairs:
heavy letters (dimension >= 2) always carry exponent +1, and the runs
between them are reduced group words over the edges. The extended cobar
and the signed bead words store these same keys and multiply them by
free reduction (`cobar.reduce_group_word`): heavy letters never cancel,
so reducing u + v cancels only at the join. They are capped by their
total group length, `budget(d) = cutoff - growth * d`
(`localized_budget`), where `growth` bounds how many group letters one
boundary term can add: 2 when 2-cells exist, since their splits produce
two edge factors; 1 with higher cells only; 0 without edges. A boundary
term lowers the degree by one and so raises the budget by `growth`,
which keeps the stored basis closed under the honest differential, and
d^2 = 0 holds exactly.

A window's complex keeps no empty degree, so each window also says up
to which degree it stores every word (`stored_top`): an empty degree
above its top nonempty one counts when the cap cannot cut it, and then
settles the homology one degree down.

Both enumerators return a `complexes.Window`: the words of each degree
0..max_degree as a tuple, empty degrees included. Each word is built
once, as a letter in front of a shorter word, or as heavy letters
between group runs, so the words are distinct as soon as the letters
are; that premise is all an enumerator checks, and a letter given twice
raises ValueError naming it. The cobar stores the window as it is, and
its cube model shares the same object (`loopspace.CubicalCobar`), so
the words are indexed by degree once, at the first lookup, and not at
all when nothing looks one up (`ChainComplex`).

The order built here is the stored basis order: each window keeps every
degree exactly as `plain_words` or `localized_words` returns it, and no
class sorts it again. Plain words come shortest first, then
lexicographic in the order of `letters`, which is the model's stored
cell order; group runs come from `group_words` in the same way. So
the order is deterministic and does not depend on the hash seed.

A budget must not rise with degree: budget(d + 1) <= budget(d), and no
None after a number. The fixed, sliding and localized caps above all
fall or stay level, and `plain_words` refuses any other. A rising
budget would make the window depend on how it is built, since a word
could be kept while a shorter word inside it is not.
"""

from __future__ import annotations

from .complexes import Window
from .simplicial import SimplicialSet


def letters(space: SimplicialSet) -> tuple:
    """(edges, heavies): the letters of dimension 1 and of dimension >= 2.

    Raises ValueError unless the space is reduced.
    """
    space.basepoint  # raises ValueError unless there is a single vertex
    edges = tuple(space.nondegenerate(1))
    heavies = tuple(
        cell for m in space.dimensions() if m >= 2 for cell in space.nondegenerate(m)
    )
    return edges, heavies


def growth(space: SimplicialSet) -> int:
    """Most group letters one boundary term can add (see the module notes)."""
    if not space.nondegenerate(1):
        return 0
    return 2 if space.nondegenerate(2) else 1


def sliding_budget(max_length: int | None, max_degree: int):
    """budget(d) = max_length + (max_degree - d); no cap when max_length is None.

    >>> [sliding_budget(2, 3)(d) for d in range(4)]
    [5, 4, 3, 2]
    """
    if max_length is None:
        return lambda degree: None
    return lambda degree: max_length + (max_degree - degree)


def first_open_degree(budget, max_degree: int):
    """The lowest degree 1..max_degree whose plain boundary terms the budget may cut.

    A boundary term of a plain word, in the cobar and in the cube model
    alike, lowers the degree by one and adds at most one letter, so a
    window keeps every term of d exactly when, in each degree d,
    budget(d - 1) is None or at least budget(d) + 1. Returns the first
    degree where that fails, or None when the window is closed under d:
    the sliding cap is, the fixed cap of `cobar.cobar` is not.

    >>> first_open_degree(sliding_budget(2, 3), 3) is None
    True
    >>> first_open_degree(lambda d: 2, 3)
    1
    """
    for d in range(1, max_degree + 1):
        below, cap = budget(d - 1), budget(d)
        if below is not None and (cap is None or below < cap + 1):
            return d
    return None


def localized_budget(cutoff: int, growth: int):
    """budget(d) = cutoff - growth * d, the group letters of a localized word."""
    return lambda degree: cutoff - growth * degree


def group_words(cells, max_len: int):
    """All reduced words of length <= max_len, shortest first.

    >>> sum(1 for _ in group_words(("a", "b"), 2))
    17
    """
    yield ()
    frontier = [()]
    alphabet = [(cell, exp) for cell in cells for exp in (1, -1)]
    for _ in range(max(0, max_len)):
        new = []
        for w in frontier:
            for cell, exp in alphabet:
                if w and w[-1] == (cell, -exp):
                    continue
                grown = w + ((cell, exp),)
                new.append(grown)
                yield grown
        frontier = new


def _distinct(letters) -> None:
    """Raise ValueError naming the first letter listed twice."""
    if len(set(letters)) != len(letters):
        seen = set()
        for cell in letters:
            if cell in seen:
                raise ValueError(f"letter listed twice: {cell!r}")
            seen.add(cell)


def plain_words(space: SimplicialSet, letters, max_degree: int, budget) -> Window:
    """Words in `letters` by degree, a `Window` of tuples for 0..max_degree.

    A word of degree d is kept when d <= max_degree and its length is at
    most budget(d). Each degree comes shortest first, then
    lexicographic in the order of `letters`. The words are built one
    (length, degree) bucket at a time: those of length L and degree d
    are each letter l, in order, put in front of every word of length
    L - 1 and degree d - |l|. That reaches every word of the window
    because the budget must not rise with degree, so every suffix of a
    kept word is kept too, and it keeps the words distinct when the
    letters are: a letter listed twice raises ValueError. So does a
    budget(d + 1) above budget(d), or None after a number.

    >>> from .simplicial import simplicial_model
    >>> rp2 = simplicial_model("rp2")
    >>> a, b = rp2.nondegenerate(1)
    >>> plain_words(rp2, (a, b), 0, lambda d: 2)[0] == ((), (a,), (b,), (a, a), (a, b), (b, a), (b, b))
    True
    """
    letters = tuple(letters)
    _distinct(letters)
    caps = [budget(d) for d in range(max_degree + 1)]
    for d, (cap, above) in enumerate(zip(caps, caps[1:])):
        if cap is not None and (above is None or above > cap):
            raise ValueError(
                f"word budget rises with degree: budget({d}) = {cap}, "
                f"budget({d + 1}) = {above}"
            )
    words = {d: [] for d in range(max_degree + 1)}
    if max_degree < 0:
        return Window()
    steps = [(cell, space.dim_of(cell) - 1) for cell in letters]
    # per degree d, each letter that fits with the degree d - |letter|
    # of the words it goes in front of
    sources = [
        [(cell, d - step) for cell, step in steps if step <= d]
        for d in range(max_degree + 1)
    ]
    # bucket[d]: the words of the current length and degree d
    bucket = [[()]] + [[] for _ in range(max_degree)]
    words[0].append(())
    length = 0
    while any(bucket):
        length += 1
        grown = []
        for d, pairs in enumerate(sources):
            new = []
            cap = caps[d]
            if cap is None or length <= cap:
                for cell, below in pairs:
                    tails = bucket[below]
                    if tails:
                        new += [(cell,) + u for u in tails]
                words[d] += new
            grown.append(new)
        bucket = grown
    return Window((d, tuple(ws)) for d, ws in words.items())


def stored_top(words: dict, edges, budget) -> int:
    """The top degree up to which a window stores every degree in full.

    words is a window's {degree: words} for 0..max_degree, as
    `plain_words` or `localized_words` build it. Its top nonempty degree
    is raised through each degree above it that the cap leaves whole,
    since a whole degree that is stored empty has no words at all. The
    cap leaves degree d whole when budget(d) is None, or when there are
    no edges and budget(d) >= d: every letter then adds at least one to
    the degree, so a word of degree d has at most d letters and no group
    letters. A degree the cap may cut is never raised through, so the
    homology below it stays inconclusive rather than read as zero.

    >>> stored_top({0: ((),), 1: (), 2: (("x",),), 3: ()}, (), lambda d: None)
    3
    >>> stored_top({0: ((),), 1: (("x",),), 2: ()}, (), lambda d: 1)
    1
    """
    top = max((d for d, ws in words.items() if ws), default=-1)
    while top + 1 in words:
        cap = budget(top + 1)
        if cap is not None and (edges or cap < top + 1):
            break
        top += 1
    return top


def localized_words(
    space: SimplicialSet, edges, heavies, max_degree: int, budget
) -> Window:
    """Localized words g0 x1 g1 ... xk gk by degree, written flat, as a `Window`.

    The heavy letters x1..xk, each as (x, 1), form a skeleton of degree
    d; the group runs g0..gk are reduced words in the edges of total
    length at most budget(d). A degree with a negative budget stays
    empty. Edges and heavy letters must be distinct, one from another
    and each from each, so that a flat word splits one way into its
    skeleton and runs; a letter listed twice raises ValueError.

    >>> from .simplicial import simplicial_model
    >>> rp2 = simplicial_model("rp2")
    >>> edges, heavies = letters(rp2)
    >>> words = localized_words(rp2, edges, heavies, 1, lambda d: 1 - d)
    >>> words[0]
    ((), (('a', 1),), (('a', -1),), (('b', 1),), (('b', -1),))
    >>> words[1]
    ((('U', 1),), (('L', 1),))
    """
    _distinct(tuple(edges) + tuple(heavies))
    skeletons = plain_words(space, heavies, max_degree, lambda d: None)
    words = Window()
    for degree, sks in skeletons.items():
        cap = budget(degree)
        built = []
        if cap >= 0:
            pool = list(group_words(edges, cap))
            for sk in sks:
                heavy = [((cell, 1),) for cell in sk]
                for segs in _segments(pool, len(sk) + 1, cap):
                    word = segs[0]
                    for letter, seg in zip(heavy, segs[1:]):
                        word += letter + seg
                    built.append(word)
        words[degree] = tuple(built)
    return words


def _segments(pool, count: int, cap: int):
    """Tuples of `count` words of `pool` (shortest first), total length <= cap."""
    for head in pool:
        if len(head) > cap:
            break
        if count == 1:
            yield (head,)
        else:
            for tail in _segments(pool, count - 1, cap - len(head)):
                yield (head,) + tail
