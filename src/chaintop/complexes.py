"""Chain complexes with an explicit finite basis in each degree.

A complex stores an ordered basis per degree and a differential rule on
basis keys. Complexes may be truncations of infinite objects; the
`complete` flag records whether the listed basis is the whole thing.
Homology routines refuse to answer when the needed degrees fall outside
a truncation (see InsufficientTruncationError).
"""

from __future__ import annotations

from .freemod import FreeElement, add_into
from .linalg import residual_columns
from .rings import Ring


class InsufficientTruncationError(Exception):
    """The requested computation needs degrees beyond the stored range."""


class ChainComplex:
    """Non-negatively graded complex data: basis per degree plus boundary rule.

    basis maps degree -> ordered iterable of keys; keys must be globally
    unique across degrees. diff maps a basis key to a FreeElement supported
    in the basis one degree down. That is checked lazily, wherever a
    boundary is read: `diff` checks and caches one key at a time for
    per-key callers, and `diff_columns` checks a whole d_n as it numbers
    its terms, and keeps the columns it builds.
    """

    def __init__(self, ring: Ring, basis, diff, complete: bool = False, name: str = ""):
        self.ring = ring
        self.basis = {int(n): ids for n, given in basis.items() if (ids := tuple(given))}
        degree_of = {}
        for n, keys in self.basis.items():
            for key in keys:
                if key in degree_of:
                    raise ValueError(f"basis key appears in two degrees: {key!r}")
                degree_of[key] = n
        self._degree_of = degree_of
        self._diff_rule = diff
        self._diff_cache = {}
        self._columns = {}
        self.complete = complete
        self.name = name
        self.min_degree = min(self.basis) if self.basis else 0
        self.max_degree = max(self.basis) if self.basis else -1

    def degrees(self):
        return sorted(self.basis)

    def basis_in(self, n: int) -> tuple:
        return self.basis.get(n, ())

    def rank(self, n: int) -> int:
        return len(self.basis_in(n))

    def degree_of(self, key) -> int:
        try:
            return self._degree_of[key]
        except KeyError:
            raise KeyError(f"key not in complex basis: {key!r}") from None

    def zero(self) -> FreeElement:
        return FreeElement.zero(self.ring)

    def element(self, terms) -> FreeElement:
        el = FreeElement(self.ring, terms)
        for key in el.support():
            self.degree_of(key)
        return el

    def diff(self, key) -> FreeElement:
        """Boundary of a single basis key, validated to land in the basis."""
        if key in self._diff_cache:
            return self._diff_cache[key]
        n = self.degree_of(key)
        value = self._diff_rule(key)
        if value is None:
            value = self.zero()
        for out_key in value.support():
            m = self._degree_of.get(out_key)
            if m != n - 1:
                raise ValueError(
                    f"diff of {key!r} (degree {n}) hit {out_key!r} "
                    f"(degree {m}), expected degree {n - 1}"
                )
        self._diff_cache[key] = value
        return value

    def diff_element(self, el: FreeElement) -> FreeElement:
        return el.map_terms(self.diff)

    def d_squared_witness(self, degrees=None):
        """First basis key whose d(d(key)) is nonzero, or None if d^2 = 0.

        Each degree n is checked as D_{n-1} D_n = 0 on `diff_columns`, so
        a sweep assembles every d_n once; `linalg.residual_columns` sums
        each column of the product in one dict, and the witness
        (key, d(d(key))) is built from `diff` for the first nonzero
        column only.
        """
        if degrees is None:
            degrees = [n for n in self.degrees() if n - 2 >= self.min_degree - 1]
        last = upper = None
        for n in sorted(degrees):
            keys = self.basis_in(n)
            if not keys:
                continue
            lower = upper if last == n - 1 else self.diff_columns(n - 1)
            last, upper = n, self.diff_columns(n)
            for key, dd in zip(keys, residual_columns(lower, upper, self.ring)):
                if dd:
                    return key, self.diff_element(self.diff(key))
        return None

    def diff_columns(self, n: int) -> list:
        """Sparse columns of d: C_n -> C_{n-1}, one per key of C_n.

        Column j maps the position in C_{n-1} of each term of d(key_j) to
        its coefficient (the column format of chaintop.linalg), read in
        one pass from the boundary rule; the per-key cache of `diff` is
        neither read nor filled. A term outside C_{n-1} raises the
        ValueError of `diff`. Each d_n is built once: later calls return
        the same list, so callers must not change it. Its zero columns
        are one shared dict, so that keeping a d_n with many cycles,
        such as a cobar's, keeps no dict per key alive.

        >>> from .freemod import FreeElement
        >>> from .rings import ZZ
        >>> rule = {"e": FreeElement(ZZ, {"v1": 1, "v0": -1})}.get
        >>> ChainComplex(ZZ, {0: ["v0", "v1"], 1: ["e"]}, rule).diff_columns(1)
        [{1: 1, 0: -1}]
        """
        columns = self._columns.get(n)
        if columns is not None:
            return columns
        index = {key: i for i, key in enumerate(self.basis_in(n - 1))}
        rule = self._diff_rule
        zero = {}
        columns = []
        for key in self.basis_in(n):
            value = rule(key)
            if value is None:
                columns.append(zero)
                continue
            try:
                columns.append({index[out]: c for out, c in value.items()} or zero)
            except KeyError:
                self.diff(key)
                raise
        self._columns[n] = columns
        return columns

    def diff_matrix(self, n: int):
        """Matrix of d: C_n -> C_{n-1}; rows indexed by C_{n-1}, columns by C_n."""
        cols = self.diff_columns(n)
        mat = [[self.ring.zero] * len(cols) for _ in self.basis_in(n - 1)]
        for j, col in enumerate(cols):
            for i, coeff in col.items():
                mat[i][j] = coeff
        return mat


def tensor_diff(complex_: ChainComplex, element: FreeElement) -> FreeElement:
    """Leibniz boundary on tensor words of basis keys, with Koszul signs."""
    ring = complex_.ring
    terms = {}
    for key, c in element.items():
        sign = ring.one
        for j, x in enumerate(key):
            coeff = ring.mul(c, sign)
            for face, c2 in complex_.diff(x).items():
                new_key = key[:j] + (face,) + key[j + 1 :]
                add_into(terms, ring, new_key, ring.mul(coeff, c2))
            if complex_.degree_of(x) % 2:
                sign = ring.neg(sign)
    return FreeElement(ring, terms)


class GradedLinearMap:
    """Degree-homogeneous linear map between complexes.

    shift s sends degree n to degree n + s; the chain-map condition used
    throughout is f(d x) = (-1)^s d(f x).
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, shift: int, rule):
        if source.ring != target.ring:
            raise ValueError("chain map between complexes over different rings")
        self.source = source
        self.target = target
        self.shift = shift
        self._rule = rule
        self._cache = {}
        self._columns = {}

    def apply_key(self, key) -> FreeElement:
        if key not in self._cache:
            n = self.source.degree_of(key)
            value = self._rule(key)
            if value is None:
                value = FreeElement.zero(self.target.ring)
            for out_key in value.support():
                m = self.target.degree_of(out_key)
                if m != n + self.shift:
                    raise ValueError(
                        f"map of {key!r} (degree {n}, shift {self.shift}) "
                        f"hit {out_key!r} of degree {m}"
                    )
            self._cache[key] = value
        return self._cache[key]

    def apply(self, el: FreeElement) -> FreeElement:
        return el.map_terms(self.apply_key)

    def columns(self, n: int) -> list:
        """Sparse columns of f on degree n, one per key of the source's C_n.

        Column j maps the position in the target basis of degree
        n + shift of each term of f(key_j) to its coefficient, the format
        of `ChainComplex.diff_columns`. Each image is read once, from the
        per-key cache of `apply_key` or from the rule, and kept in that
        cache; a term outside the target basis of degree n + shift raises
        the error of `apply_key`. Each degree is built once: later calls
        return the same list, so callers must not change it.

        >>> from .rings import ZZ
        >>> a = ChainComplex(ZZ, {0: ["v"], 1: ["e"]}, lambda key: None)
        >>> b = ChainComplex(ZZ, {0: ["w"], 1: ["x", "y"]}, lambda key: None)
        >>> f = GradedLinearMap(a, b, 0, {"e": FreeElement(ZZ, {"y": 2})}.get)
        >>> f.columns(1), f.columns(0)
        ([{1: 2}], [{}])
        """
        columns = self._columns.get(n)
        if columns is not None:
            return columns
        index = {key: i for i, key in enumerate(self.target.basis_in(n + self.shift))}
        cache = self._cache
        rule = self._rule
        columns = []
        for key in self.source.basis_in(n):
            value = cache.get(key)
            if value is None:
                value = rule(key)
                if value is None:
                    value = FreeElement.zero(self.target.ring)
            try:
                columns.append({index[out]: c for out, c in value.items()})
            except KeyError:
                self.apply_key(key)
                raise
            cache[key] = value
        self._columns[n] = columns
        return columns

    def is_chain_map(self, degrees=None):
        """Check f(dx) = (-1)^shift d(fx) on basis keys.

        Returns (True, None) or (False, (key, f_dx, d_fx_signed)); the
        witness carries both sides so failures are inspectable.
        Each degree n is checked as F_{n-1} D_n - (-1)^shift D' F_n = 0
        on sparse columns (chaintop.linalg) whose rows are positions in
        the target basis: F comes from `columns`, and D' is the target's
        own `diff_columns(n + shift)`. `linalg.residual_columns` sums both
        products of a column into one dict, which vanishes exactly when
        the two sides agree (mod p over F_p); neither side is built on
        its own. Every column of D' and all of F_{n-1} are built, and so
        validated, not only the part that the images and the source's
        boundaries reach: a target whose boundary leaves its basis on a
        key outside the image of f raises, and so does a map whose image
        of an unreached key of degree n - 1 leaves the target basis.
        Columns are checked in basis order, so the witness is the first
        failing key, and only once a degree's columns are all built: a
        map that raises on any key of degree n raises even if an earlier
        key of degree n fails. The witness itself is built key by key,
        for the failing key only.
        """
        source, target = self.source, self.target
        sign = -1 if self.shift % 2 else 1
        if degrees is None:
            degrees = [n for n in source.degrees() if n > source.min_degree]
        for n in sorted(degrees):
            keys = source.basis_in(n)
            if not keys:
                continue
            f_n = self.columns(n)
            d_source = source.diff_columns(n)
            f_below = self.columns(n - 1)
            d_target = target.diff_columns(n + self.shift)
            residuals = residual_columns(
                f_below, d_source, target.ring, d_target, f_n, sign
            )
            for key, residual in zip(keys, residuals):
                if residual:
                    return False, (
                        key,
                        self.apply(source.diff(key)),
                        target.diff_element(self.apply_key(key)).scale(sign),
                    )
        return True, None


def tensor_complex(a: ChainComplex, b: ChainComplex, max_degree=None, name: str = "") -> ChainComplex:
    """Tensor product complex with the Leibniz boundary.

    d(x ox y) = dx ox y + (-1)^{|x|} x ox dy; keys are pairs (ka, kb).
    """
    if a.ring != b.ring:
        raise ValueError("tensor of complexes over different rings")
    top = a.max_degree + b.max_degree
    if max_degree is not None:
        top = min(top, max_degree)
    basis = {}
    for n in range(min(a.min_degree + b.min_degree, top), top + 1):
        keys = []
        for i in a.degrees():
            j = n - i
            for ka in a.basis_in(i):
                for kb in b.basis_in(j):
                    keys.append((ka, kb))
        if keys:
            basis[n] = keys
    complete = a.complete and b.complete and (max_degree is None or max_degree >= a.max_degree + b.max_degree)
    ring = a.ring

    def diff(key):
        ka, kb = key
        deg_a = a.degree_of(ka)
        terms = {}
        for k2, c in a.diff(ka).items():
            add_into(terms, ring, (k2, kb), c)
        sign = ring.from_int(-1 if deg_a % 2 else 1)
        for k2, c in b.diff(kb).items():
            add_into(terms, ring, (ka, k2), ring.mul(sign, c))
        return FreeElement(ring, terms)

    return ChainComplex(ring, basis, diff, complete=complete, name=name or f"({a.name})ox({b.name})")
