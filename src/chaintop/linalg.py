"""Exact elimination on sparse columns.

A matrix is a list of columns; column j is a dict {row index: coefficient}
that stores only nonzero entries, with coefficients already in canonical
form for the ring (ints for Z and F_p; ints or Fractions for Q). Row
indices are ints; the number of rows is never needed.

eliminate() reduces a whole matrix by column operations. It always pivots
on a unit entry: any nonzero entry over F_p, +-1 over Z, and over Q a
+-1 entry when the row has one, any nonzero entry only when it has none.
Among the rows that hold a unit it takes the one with the fewest
entries, so that the fewest columns are updated, and in that row the
unit whose column has the fewest entries, so that the least fill is
added; ties go to the lower row, then the lower column index, so the
cost of a run does not depend on hash order. A unit pivot splits off an
invariant factor 1 (Kaczynski-Mrozek-Slusarek, "Homology computation by
reduction of chain complexes", 1998). Cobar and cube boundaries are
mostly +-1, so over Z little or nothing is left; that remainder, which
has no unit entry, gets the dense Smith form by minimal-|entry|
pivoting. Over Q the integral entries of a column of Fractions are
stored as ints when the columns are first copied, and a +-1 pivot keeps
int entries ints, so a Fraction is made only after a pivot that is not
+-1; the elimination is exact either way.

residual_columns() gives a*b - sign*c*d column by column, or a*b alone
when no second product is passed. Each column is one dict of plain-number
sums, brought to canonical form once, so it is {} exactly when every sum
is 0 (0 mod p over F_p): the two sides of an identity such as
F d = d' F are compared without building either of them.

Echelon keeps columns reduced against each other over a field and takes
them one at a time, so a caller can ask whether a vector lies in the span
of the columns added so far, and with which coefficients.
"""

from __future__ import annotations

from math import gcd

from .rings import Ring


def eliminate(columns, ring: Ring) -> list:
    """Positive invariant factors d_1 | d_2 | ... of a sparse matrix.

    Over a field every factor is 1, so the length of the list is the rank.
    Over Z, [[1, 1], [1, -1]] takes one unit pivot; the 2 left after it
    is not a unit and comes from the remainder step:

    >>> from .rings import GF, ZZ
    >>> eliminate([{0: 1, 1: 1}, {0: 1, 1: -1}], ZZ)
    [1, 2]
    >>> eliminate([{0: 1, 1: 1}, {0: 1, 1: 1}], GF(2))
    [1]

    Over Q a row with no +-1 entry is still pivoted, on any nonzero entry:

    >>> from fractions import Fraction
    >>> from .rings import QQ
    >>> eliminate([{0: 2, 1: Fraction(4)}, {0: Fraction(2, 3), 1: 3}], QQ)
    [1, 1]

    Zero columns, or none at all, have no factors; that takes one test:

    >>> [eliminate([{}, {}, {}], ring) for ring in (ZZ, GF(5), QQ)]
    [[], [], []]
    >>> eliminate([], ZZ)
    []
    """
    if not any(columns):
        return []
    # imported on first use so that it adds nothing to the start-up of
    # commands that never eliminate
    from heapq import heapify, heappop, heappush

    mod = ring.p
    rational = ring.kind == "Q"
    cols = {}
    rows = {}
    for j, col in enumerate(columns):
        if col:
            if rational and type(next(iter(col.values()))) is not int:
                # a column built over Q holds Fractions (`QQ.canonical_sums`);
                # its integral ones are stored as ints, so that +-1 pivots do
                # int arithmetic. A column of ints, such as a relation row,
                # is copied as it is.
                cols[j] = {
                    i: c.numerator if c.denominator == 1 else c for i, c in col.items()
                }
            else:
                cols[j] = dict(col)
            for i in col:
                rows.setdefault(i, set()).add(j)
    # (row length, row index); an entry whose length is out of date is
    # skipped, since every change to a row pushes its new length
    heap = [(len(js), i) for i, js in rows.items()]
    heapify(heap)
    units = 0
    while heap:
        n, i = heappop(heap)
        js = rows.get(i)
        if js is None or len(js) != n:
            continue
        best = None
        for j in js:
            if mod or cols[j][i] in (1, -1):
                key = (len(cols[j]), j)
                if best is None or key < best:
                    best = key
        if best is None:
            if not rational:
                continue
            best = min((len(cols[j]), j) for j in js)
        pivot = cols.pop(best[1])
        for r in pivot:
            rows[r].discard(best[1])
        a = pivot[i]
        inv = a if a in (1, -1) else ring.inv(a)
        for j in list(js):
            col = cols[j]
            f = col[i] * inv
            for r, a in pivot.items():
                v = col.get(r, 0) - f * a
                if mod:
                    v %= mod
                if v:
                    if r not in col:
                        rows[r].add(j)
                    col[r] = v
                else:
                    del col[r]
                    rows[r].discard(j)
            if not col:
                del cols[j]
        for r in pivot:
            if rows[r]:
                heappush(heap, (len(rows[r]), r))
            else:
                del rows[r]
        units += 1
    if not cols:
        return [1] * units
    # only over Z: what is left has no unit entry
    index = {i: t for t, i in enumerate(sorted(rows))}
    dense = [[0] * len(cols) for _ in index]
    for t, j in enumerate(sorted(cols)):
        for i, v in cols[j].items():
            dense[index[i]][t] = v
    return [1] * units + _smith_remainder(dense)


def residual_columns(a, b, ring: Ring, c=None, d=None, sign=1):
    """Sparse columns of a * b - sign * c * d, yielded one at a time.

    Column j sums x times column k of a over the entries (k, x) of
    column j of b, then -sign * x times column k of c over the entries
    of column j of d; a and c may be any mappings from those indices to
    columns, b and d are sequences of the same length, and sign is +1 or
    -1. Without d the column is that of a * b alone. The sums are plain
    numbers in one dict per column, brought to canonical form at the
    end, so a caller that only asks which columns vanish never holds
    the whole product.

    >>> from .rings import GF, ZZ
    >>> a = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    >>> list(residual_columns(a, [{0: 1, 1: 1}, {1: 2}], ZZ))
    [{0: 2}, {0: 2, 1: -2}]
    >>> list(residual_columns(a, [{0: 1, 1: 1}], GF(2)))
    [{}]

    Over Z the products 2 * 2 and 1 * 1 differ by 3; mod 3 they agree:

    >>> list(residual_columns([{0: 2}], [{0: 2}], ZZ, [{0: 1}], [{0: 1}]))
    [{0: 3}]
    >>> list(residual_columns([{0: 2}], [{0: 2}], GF(3), [{0: 1}], [{0: 1}]))
    [{}]
    >>> list(residual_columns([{0: 2}], [{0: 2}], ZZ, [{0: 1}], [{0: 1}], -1))
    [{0: 5}]
    """
    minus = -sign
    for j, col in enumerate(b):
        sums = {}
        get = sums.get
        for k, x in col.items():
            for i, y in a[k].items():
                sums[i] = get(i, 0) + x * y
        if d is not None:
            for k, x in d[j].items():
                x *= minus
                for i, y in c[k].items():
                    sums[i] = get(i, 0) + x * y
        yield ring.canonical_sums(sums)


def _smith_remainder(m: list) -> list:
    """Invariant factors of a dense integer matrix (rows of ints), in place.

    Always pivots on an entry of minimal absolute value, which keeps
    intermediate growth down; the divisibility chain is restored at the
    end by gcd/lcm passes.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    t = 0
    while t < rows and t < cols:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = m[i][j]
                if v and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        # clear row and column by remainder steps; a nonzero remainder
        # becomes the new, strictly smaller pivot next pass
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(t, rows):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(m[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return diag


class Echelon:
    """Independent columns over a field, added one at a time.

    Column k is stored reduced: scaled to 1 at its pivot row and zero at
    the pivot rows of columns 0..k-1, together with its coefficients in
    the columns as they were added. The span, and whether a column is
    added, depend only on the order of the columns offered.

    >>> from .rings import GF
    >>> span = Echelon(GF(5))
    >>> span.add({0: 1, 1: 2}), span.add({0: 2, 1: 4})
    (True, False)
    >>> span.reduce({0: 3, 1: 1})
    ({}, {0: 3})
    """

    def __init__(self, ring: Ring):
        if not ring.is_field:
            raise ValueError(f"echelon columns need a field, got {ring}")
        self.ring = ring
        self._pivots = []

    def reduce(self, col):
        """(remainder, coefficients) with col = remainder + sum c_k * column k.

        The remainder is {} exactly when col lies in the span; the
        coefficients are then the unique ones, keyed by the order in which
        the columns were added. As in eliminate(), the sums are plain
        numbers, reduced mod p only where a pivot entry is tested, and
        both dicts are brought to canonical form once at the end.
        """
        ring = self.ring
        mod = ring.p
        vec = dict(col)
        coeffs = {}
        for row, reduced, combo in self._pivots:
            a = vec.get(row, 0)
            if mod:
                a %= mod
            if a:
                for r, c in reduced.items():
                    vec[r] = vec.get(r, 0) - a * c
                for k, c in combo.items():
                    coeffs[k] = coeffs.get(k, 0) + a * c
        return ring.canonical_sums(vec), ring.canonical_sums(coeffs)

    def add(self, col) -> bool:
        """Add col if it lies outside the span; True when it was added."""
        remainder, coeffs = self.reduce(col)
        if remainder:
            self._push(remainder, coeffs)
        return bool(remainder)

    def _push(self, remainder, coeffs) -> None:
        # remainder = col - sum coeffs[k] * column k, for the col added now
        ring = self.ring
        row = min(remainder)
        inv = ring.inv(remainder[row])
        combo = {k: ring.neg(ring.mul(inv, c)) for k, c in coeffs.items()}
        combo[len(self._pivots)] = inv
        reduced = {r: ring.mul(inv, c) for r, c in remainder.items()}
        self._pivots.append((row, reduced, combo))


def nullspace(columns, ring: Ring) -> list:
    """Basis of the vectors x with sum x_j * column j = 0, as sparse dicts.

    One vector per column j that depends on the columns before it: 1 at j,
    zero at every other such column, so the basis is the one read off the
    reduced row echelon form.

    >>> from .rings import GF
    >>> nullspace([{0: 1}, {0: 2}], GF(5))
    [{0: 3, 1: 1}]
    """
    span = Echelon(ring)
    independent = []
    out = []
    for j, col in enumerate(columns):
        remainder, coeffs = span.reduce(col)
        if remainder:
            span._push(remainder, coeffs)
            independent.append(j)
            continue
        vec = {independent[k]: ring.neg(c) for k, c in sorted(coeffs.items())}
        vec[j] = ring.one
        out.append(vec)
    return out
