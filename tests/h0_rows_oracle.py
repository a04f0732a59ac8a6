"""The relation-row builder, kept as an oracle for the tests.

`chaintop.cobar._h0_rows` reduces g * w once per relation term w and
joins it to each h at their one junction. This is the builder it
replaced: every (relator, g, h) triple reduces the whole word g w h.
Both must return equal (words, rows), order included, since the
eliminations read the rows in that order.
"""

from chaintop.cobar import _relator_values, reduce_group_word
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
