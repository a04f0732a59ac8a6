"""The per-cell relabeling certificate, kept as an oracle for the tests.

`loopspace.phi_certificate` checks Adams' relabeling on its generators:
each letter's cube value against its D(l), and phi on each pair of
letters. This is the certificate it replaced, which checks every stored
cell: the chain-map half compares every column of the cube differential
with the letter rule spliced into that cell, and the product half
checks phi(a b) = phi(a) phi(b) on up to `PRODUCT_PAIRS` pairs of cells
of at most two letters. On every window both must give the same
verdict, and a failing chain-map check the same witness.
"""

import itertools

from chaintop.cobar import concatenation, derivation
from chaintop.freemod import FreeElement
from chaintop.loopspace import _phi_sums, phi_inverse_chain

# how many small-by-small products the sample checks
PRODUCT_PAIRS = 400


def letter_rule_by_columns(omega, image) -> dict:
    """Check phi d_cube = d phi on every stored cell of a plain window.

    The letter table D(l) = phi^-1(d(phi(l))) is read from image (the
    phi of one-letter cells, as FreeElements) on the letters the window
    stores as one-letter words. Every cell's cube column must equal
    `cobar.derivation` on the D table, numbered by one
    `Ring.canonical_column` pass; a nonzero term outside the window is a
    mismatch. Returns {"cells": count, "degrees": {degree: count}}; a
    failing cell raises AssertionError whose `witness` is
    (cell, d_cube(cell), its letter rule value).
    """
    chains, words = omega.chains(), omega.words.complex
    space, ring = omega.source, omega.ring
    stored = words._degree_of
    # per letter: its nonzero D(l) or None, and its degree
    table = {}
    for letter in omega.words._letters:
        n = stored.get((letter,))
        if n is not None:
            value = phi_inverse_chain(space, words.diff_element(image((letter,))), ring)
            table[letter] = (value.terms or None, n)
    moving = frozenset(letter for letter, (rule, _) in table.items() if rule)
    for n in chains.degrees():
        for cell, column in zip(chains.basis_in(n), chains.diff_columns(n)):
            if moving.isdisjoint(cell):
                expected = {}
            else:
                try:
                    expected = ring.canonical_column(
                        derivation(table, cell)[0], chains.positions(n - 1)
                    )
                except KeyError:
                    expected = None
            if column != expected:
                error = AssertionError(f"not a chain map on {cell!r}")
                error.witness = (
                    cell,
                    chains.diff(cell),
                    FreeElement._from_sums(ring, derivation(table, cell)[0]),
                )
                raise error
    degrees = {n: chains.rank(n) for n in chains.degrees()}
    return {"cells": sum(degrees.values()), "degrees": degrees}


def sampled_products(omega, phi) -> int:
    """How many sampled pairs of cells of at most two letters satisfy
    phi(ab) = phi(a) phi(b); the first that does not raises AssertionError.

    phi maps a cell to its canonical sums (`loopspace._phi_sums`). The
    pairs run over the cells in basis order, and a pair counts only when
    the window stores ab.
    """
    chains, ring = omega.chains(), omega.ring
    stored = omega.words.complex._degree_of
    small = [cid for n in chains.degrees() for cid in chains.basis_in(n) if len(cid) <= 2]
    pairs = 0
    for a, b in itertools.islice(itertools.product(small, small), PRODUCT_PAIRS * 4):
        ab = a + b
        if ab not in stored:
            continue
        residual = concatenation(phi(a), phi(b), stored, None, dict(phi(ab)), -1)
        if ring.canonical_sums(residual):
            raise AssertionError(f"not multiplicative on {a!r} * {b!r}")
        pairs += 1
        if pairs >= PRODUCT_PAIRS:
            break
    return pairs


def phi_certificate(omega) -> dict:
    """The per-cell certificate of omega's window: the summary of
    `letter_rule_by_columns` with the sampled pairs as "pairs"."""
    phi = _phi_sums(omega.source, omega.ring)
    checked = letter_rule_by_columns(
        omega, lambda cell: FreeElement._trusted(omega.ring, phi(cell))
    )
    checked["pairs"] = sampled_products(omega, phi)
    return checked
