"""Relation-row builders and the H_0 kernel that eliminated their rows,
kept as oracles for the tests.

`chaintop.cobar._h0_within` counts the rank of the relation rows by
union-find on their edges. Before that it built each distinct row as a
dict, with its lowest level, and eliminated the rows of both windows:
`junction_rows` and `h0_within` are that builder and that kernel.
`h0_rows` is the builder before it: every (relator, g, h) triple
reduces the whole word g w h. Both builders return equal (words, rows),
order included.
"""

from chaintop.cobar import _junction, _relator_values, reduce_group_word
from chaintop.linalg import eliminate
from chaintop.rings import ZZ
from chaintop.words import group_words


def h0_rows(space, cutoff, ring):
    """(words, rows) of the cutoff window, one full reduction per triple."""
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


def junction_rows(space, cutoff, ring):
    """(words, rows) of the cutoff window, as `h0_rows` returns them.

    words are the reduced group words of length <= cutoff, shortest
    first. rows holds each distinct relation row {word index:
    coefficient} once, as (level, row), with its lowest level
    max(|g| + |h|, longest reduced term). Coefficients are plain ints,
    mod p over F_p. Each term w is reduced against g once, as g w; h
    runs over the words of length <= cutoff - |g|, a prefix of words,
    and g w and h are joined at their one junction (`_junction`).
    """
    edges = space.nondegenerate(1)
    words = list(group_words(edges, cutoff))
    index = {w: i for i, w in enumerate(words)}
    # within[k]: how many words have length <= k
    within = [0] * (cutoff + 1)
    for w in words:
        within[len(w)] += 1
    for k in range(1, cutoff + 1):
        within[k] += within[k - 1]
    # the inverse of each word's first letter: what a junction cancels
    heads = [(w[0][0], -w[0][1]) if w else None for w in words]
    p = ring.p
    found = {}
    for value in _relator_values(space, ZZ):
        value = [(w, r) for w, c in value.items() if (r := c % p if p else c)]
        if not value:
            continue
        for g in words:
            gw = [(reduce_group_word(g + w), c) for w, c in value]
            for j in range(within[cutoff - len(g)]):
                h, head = words[j], heads[j]
                level = len(g) + len(h)
                # g w h = g w' h only when w = w', so no two terms meet
                row = {}
                for x, c in gw:
                    full = _junction(x, h) if x and x[-1] == head else x + h
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


def h0_within(space, cutoff, ring):
    """`_h0_within` by elimination: (size, rank) at cutoff and at cutoff - 1."""
    words, rows = junction_rows(space, cutoff, ring)
    prev_size = sum(1 for w in words if len(w) < cutoff)
    prev = [row for level, row in rows if level < cutoff]
    # the rank of the relation rows is that of their transpose
    prev_rank = len(eliminate(prev, ring))
    rank = len(eliminate([row for _, row in rows], ring))
    return (len(words), rank), (prev_size, prev_rank)
