"""The breadth-first word enumerator, kept as an oracle for the tests.

`chaintop.words.plain_words` builds a window one (length, degree) bucket
at a time, putting each letter in front of the shorter words. This is
the enumerator it replaced: one length at a time, each word of the
frontier grown by every letter at its end, the degree carried along.
Both keep a word of degree d when d <= max_degree and its length is at
most budget(d), and both list each degree shortest first, then
lexicographic in the letter order, so their dicts must be equal, order
included, for every budget that does not rise with degree. Like the
library's window, the oracle gives each degree as a tuple.

`word_degree` sums a plain word's degree letter by letter; the library
no longer does, since its windows store each word's degree.
"""


def word_degree(space, word) -> int:
    """The degree of a plain cobar word: each letter's dimension minus one."""
    return sum(space.dim_of(cell) - 1 for cell in word)


def plain_words(space, letters, max_degree, budget):
    """{degree: (words)} for 0..max_degree, breadth first."""
    steps = [(cell, space.dim_of(cell) - 1) for cell in letters]
    caps = [budget(d) for d in range(max_degree + 1)]
    words = {d: [] for d in range(max_degree + 1)}
    if max_degree < 0:
        return words
    words[0].append(())
    frontier = [((), 0)]
    length = 0
    while frontier:
        length += 1
        new = []
        for word, degree in frontier:
            for cell, step in steps:
                d = degree + step
                if d > max_degree or (caps[d] is not None and length > caps[d]):
                    continue
                grown = word + (cell,)
                new.append((grown, d))
                words[d].append(grown)
        frontier = new
    return {d: tuple(ws) for d, ws in words.items()}
