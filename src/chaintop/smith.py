"""Exact homology of truncated complexes, and dense-matrix entry points.

smith_homology reads the boundary columns of a complex straight from its
differential rule (`ChainComplex.diff_columns`, one pass per d_n) and
hands them to the sparse elimination kernel in chaintop.linalg, which
pivots on unit entries first and keeps a dense Smith form only for the
non-unit remainder. The columns go to the kernel as they are when the
complex is over the requested ring and every entry is already in the
kernel's form; otherwise each entry is converted and checked first, as
when an integral complex is reduced to a field. Over Z one elimination
of d_n gives both its rank and its invariant factors, and homology_table
eliminates each d_n once for a whole range of degrees. smith_normal_form
and field_rank keep their dense list-of-rows interface for callers that
build small matrices by hand; both convert to sparse columns and run the
same kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import ChainComplex, InsufficientTruncationError
from .linalg import eliminate
from .rings import ZZ, Ring


def _columns(mat, convert) -> list:
    """Sparse columns of a dense list-of-rows matrix, entries converted."""
    cols = [{} for _ in (mat[0] if mat else ())]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            x = convert(x)
            if x:
                cols[j][i] = x
    return cols


def smith_normal_form(mat) -> list:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix.

    >>> smith_normal_form([[2, 4], [6, 10]])
    [2, 2]
    >>> smith_normal_form([[1, 0], [0, 0]])
    [1]
    """
    return eliminate(_columns(mat, int), ZZ)


def field_rank(mat, ring: Ring) -> int:
    """Rank of a dense list-of-rows matrix over a field.

    >>> from .rings import GF
    >>> field_rank([[1, 2], [2, 4]], GF(3))
    1
    """
    if not mat or not mat[0]:
        return 0
    if not ring.is_field:
        raise ValueError(f"field rank needs a field, got {ring}")
    return len(eliminate(_columns(mat, ring.coerce), ring))


def _integer(x) -> int:
    xi = int(x)
    if xi != x:
        raise ValueError(f"non-integer entry {x!r} in integer matrix")
    return xi


def _canonical(columns, ring: Ring) -> bool:
    """Whether every entry already has the form that conversion gives it:
    a nonzero int over Z, an int in [1, p) over F_p, a nonzero Fraction
    over Q."""
    entries = (c for col in filter(None, columns) for c in col.values())
    if ring.kind == "Q":
        return all(type(c) is Fraction and c for c in entries)
    if ring.kind == "Fp":
        p = ring.p
        return all(type(c) is int and 0 < c < p for c in entries)
    return all(type(c) is int and c for c in entries)


class HomologySummary:
    """free_rank copies of the ring plus one cyclic factor per invariant factor."""

    __slots__ = ("degree", "ring", "free_rank", "invariant_factors")

    def __init__(self, degree: int, ring: Ring, free_rank: int, invariant_factors):
        self.degree = degree
        self.ring = ring
        self.free_rank = free_rank
        self.invariant_factors = tuple(invariant_factors)

    @property
    def pair(self):
        return self.free_rank, list(self.invariant_factors)

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.pair == (other[0], list(other[1]))
        return (
            isinstance(other, HomologySummary)
            and self.pair == other.pair
            and self.degree == other.degree
            and self.ring == other.ring
        )

    def __repr__(self):
        bits = []
        if self.free_rank:
            bits.append(f"{self.ring}^{self.free_rank}")
        bits.extend(f"{self.ring}/{d}" for d in self.invariant_factors)
        return " + ".join(bits) if bits else "0"

    def to_json(self):
        return {
            "degree": self.degree,
            "ring": self.ring.to_json(),
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
        }


def _stored(complex_: ChainComplex, n: int) -> bool:
    """Whether H_n needs d_n and d_{n+1}; raises where they are cut off.

    False means H_n = 0 without computing: below the honest bottom degree
    of the complex, or above the top of a complete one. The top is the
    complex's max_degree, the top degree its window stores in full, so a
    stored empty degree n + 1 settles H_n.
    """
    if n < complex_.min_degree:
        return False
    if n > complex_.max_degree:
        if complex_.complete:
            return False
        raise InsufficientTruncationError(
            f"degree {n} is above the stored truncation "
            f"(max degree {complex_.max_degree})"
        )
    if n + 1 > complex_.max_degree and not complex_.complete:
        raise InsufficientTruncationError(
            f"homology in degree {n} needs the boundary from degree {n + 1}, "
            f"but the complex is truncated at degree {complex_.max_degree}"
        )
    return True


def smith_homology(
    complex_: ChainComplex, n: int, ring: Ring | None = None, *, _factors=None
) -> HomologySummary:
    """Homology of the complex in degree n with coefficients in ring.

    Over Z the answer is (free rank, invariant factors > 1); over a field
    the factor list is empty. The complex must either be complete or
    store degree n + 1, else InsufficientTruncationError is raised.
    _factors belongs to homology_table: the invariant factors of each d_m
    of this complex over this ring that its earlier rows eliminated.
    """
    ring = ring or complex_.ring
    if complex_.ring != ring and complex_.ring != ZZ:
        raise ValueError(
            f"cannot change coefficients from {complex_.ring} to {ring}; "
            "only integral complexes can be reduced"
        )
    if not _stored(complex_, n):
        return HomologySummary(n, ring, 0, ())
    factors = {} if _factors is None else _factors
    convert = _integer if ring == ZZ else ring.coerce
    for m in (n, n + 1):
        if m not in factors:
            columns = complex_.diff_columns(m)
            # an all-zero d_m (every column the one shared empty dict of a
            # zero complex) has no entry to convert or check
            if any(columns) and (complex_.ring != ring or not _canonical(columns, ring)):
                # entries that convert sends to zero are dropped
                columns = [
                    {i: x for i, c in col.items() if (x := convert(c))}
                    for col in columns
                ]
            factors[m] = eliminate(columns, ring)
    free_rank = complex_.rank(n) - len(factors[n]) - len(factors[n + 1])
    return HomologySummary(n, ring, free_rank, (f for f in factors[n + 1] if f > 1))


def homology_table(complex_: ChainComplex, degrees) -> dict:
    """smith_homology of the complex in each degree, None where the
    truncation cannot settle it.

    The rows share the invariant factors of each d_m, so a table of
    consecutive degrees eliminates every differential once.
    """
    factors = {}
    table = {}
    for n in degrees:
        try:
            table[n] = smith_homology(complex_, n, _factors=factors)
        except InsufficientTruncationError:
            table[n] = None
    return table
