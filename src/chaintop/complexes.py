"""Chain complexes with an explicit finite basis in each degree.

A complex stores an ordered basis per degree and a differential rule on
basis keys. Complexes may be truncations of infinite objects; the
`complete` flag records whether the listed basis is the whole thing.
Homology routines refuse to answer when the needed degrees fall outside
a truncation (see InsufficientTruncationError).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, partial

from .freemod import FreeElement
from .linalg import residual_columns
from .rings import Ring


class InsufficientTruncationError(Exception):
    """The requested computation needs degrees beyond the stored range."""


def graded_ids(given) -> Window:
    """The keys of a map degree -> iterable of keys, checked, as a `Window`.

    Degrees are read with int and empty ones are dropped; each degree
    keeps its keys in the order given, as a tuple. A negative degree
    raises ValueError, and so does a key listed twice, in one degree or
    in two, naming the first repeat in the order given. The window comes
    with its index, {key: degree}, already built (`Window.degree_of`),
    since the check builds it. Complexes and cell sets index their bases
    and cells here.

    >>> window = graded_ids({1: ["e"], 0: ("v", "w"), 2: []})
    >>> dict(window), window.degree_of
    ({1: ('e',), 0: ('v', 'w')}, {'e': 1, 'v': 0, 'w': 0})
    >>> graded_ids({0: ["v"], 1: ["a", "b", "b", "a"]})
    Traceback (most recent call last):
    ...
    ValueError: basis key listed twice: 'b'
    """
    ids = {int(n): keys for n, listed in given.items() if (keys := tuple(listed))}
    degree_of = {}
    for n, keys in ids.items():
        if n < 0:
            raise ValueError(f"negative degree: {n}")
        degree_of.update(dict.fromkeys(keys, n))
    if len(degree_of) != sum(map(len, ids.values())):
        # some key repeats; walk the keys to name the first repeat
        seen = set()
        for keys in ids.values():
            for key in keys:
                if key in seen:
                    raise ValueError(f"basis key listed twice: {key!r}")
                seen.add(key)
    window = Window(ids)
    window.degree_of = degree_of
    return window


class Window(Mapping):
    """Keys listed per degree, {degree: tuple of keys}, each key once.

    A read-only mapping that knows the number of keys of each degree,
    `sizes` ({degree: int}), before its keys. `Window(keys)` lists them
    at once; `Window.deferred(sizes, build)` takes the sizes now and
    lists the keys with build() only when a key is first read: a lookup
    by degree (`window[n]`, `items`, `values`, `nonempty`, equality) or
    the default `degree_of`. Its degrees (`iter`, `len`, `in`) and
    `sizes` read no key. The built keys must come in exactly the sizes
    given: a degree listed with another number of keys, or a degree
    added or left out, raises ValueError at that first read, so a wrong
    count cannot pass.

    The word enumerators (`chaintop.words`) build their keys distinct
    and return them as a window, which a `ChainComplex` and a cell set
    (`CellSet`) store as it is, so every complex and cell set that holds
    the window shares its `degree_of`, the map {key: degree}. By default
    it is built from the listed keys at its first read and kept. A
    builder may set it instead: `graded_ids` sets the dict its check
    built, and `chaintop.words.plain_words` a mapping that answers each
    lookup by the window's length cap and lists no key. A degree may be
    empty; a complex and a cell set keep only the nonempty ones
    (`nonempty`). A window is trusted, not checked: a builder must make
    its degrees non-negative ints and its keys distinct. Any other
    basis goes through `graded_ids`.

    >>> window = Window({0: ((),), 1: (("a",), ("b",)), 2: ()})
    >>> window.sizes
    {0: 1, 1: 2, 2: 0}
    >>> "degree_of" in window.__dict__
    False
    >>> window.degree_of
    {(): 0, ('a',): 1, ('b',): 1}
    >>> late = Window.deferred({0: 1, 1: 1}, lambda: {0: ((),), 1: (("b", "a"),)})
    >>> list(late), late.sizes[1]
    ([0, 1], 1)
    >>> late[1]
    (('b', 'a'),)
    >>> Window.deferred({0: 1, 1: 2}, lambda: {0: ((),), 1: (("a",),)})[0]
    Traceback (most recent call last):
    ...
    ValueError: window degree 1 lists 1 keys where its size is 2
    """

    def __init__(self, keys=()):
        self._listed = dict(keys)
        self._build = None
        self.sizes = {n: len(listed) for n, listed in self._listed.items()}

    @classmethod
    def deferred(cls, sizes: dict, build) -> Window:
        """A window of these sizes whose keys build() lists at the first read."""
        window = cls()
        window._listed, window._build, window.sizes = None, build, dict(sizes)
        return window

    def _keys(self) -> dict:
        listed = self._listed
        if listed is None:
            listed = dict(self._build())
            counts = {n: len(keys) for n, keys in listed.items()}
            if counts != self.sizes:
                n = min(
                    n for n in counts.keys() | self.sizes.keys()
                    if counts.get(n) != self.sizes.get(n)
                )
                raise ValueError(
                    f"window degree {n} lists {counts.get(n)} keys "
                    f"where its size is {self.sizes.get(n)}"
                )
            self._listed, self._build = listed, None
        return listed

    def __getitem__(self, n):
        return self._keys()[n]

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __contains__(self, n) -> bool:
        return n in self.sizes

    def nonempty(self) -> dict:
        """{degree: keys} of the nonempty degrees, a plain dict; lists the keys."""
        return {n: keys for n, keys in self._keys().items() if keys}

    @cached_property
    def degree_of(self) -> dict:
        degree_of = {}
        for n, keys in self._keys().items():
            degree_of.update(dict.fromkeys(keys, n))
        return degree_of


class CellSet:
    """Cells listed per dimension, kept as one `Window`: the base of the
    simplicial and cubical sets.

    The constructor checks and indexes cells ({dimension: ids}) with
    `graded_ids` and keeps the window (`_keep`); a subclass that builds
    its cells distinct (the cube model's words) sets `window` itself.
    The window is the set's only table of its cells: `cells`
    ({dimension: ids} of the nonempty dimensions) and `_dim`
    ({id: dimension}) are read off it, and `dimensions` and `dimension`
    read only its sizes. `_keep` reads an indexed window at once: a
    `cached_property` stores through the instance `__dict__`, which on
    CPython 3.11 slows every later attribute lookup on the set. A window
    set otherwise is read at the first use of `cells` or `_dim`, so a
    set whose cells nobody reads lists none; the cube model's `_dim` is
    its window's cap-rule index, which lists none either. `dim_of` is a
    single lookup in `_dim`. The class attributes `_cell` and `_kind`
    name a cell and the set in error messages.
    """

    _cell = "cell"
    _kind = "cell set"

    def __init__(self, name: str, cells, complete: bool = True):
        self.name = name
        self.complete = bool(complete)
        self._keep(graded_ids(cells))

    def _keep(self, window: Window) -> None:
        """Keep window, listed and indexed, as the cells, read off at once."""
        self.window = window
        self.cells, self._dim = window.nonempty(), window.degree_of

    @cached_property
    def cells(self) -> dict:
        return self.window.nonempty()

    @cached_property
    def _dim(self) -> dict:
        return self.window.degree_of

    def dimensions(self) -> list:
        return sorted(n for n, size in self.window.sizes.items() if size)

    @property
    def dimension(self) -> int:
        return max(self.dimensions(), default=-1)

    def nondegenerate(self, n: int) -> tuple:
        return self.cells.get(n, ())

    def dim_of(self, cid) -> int:
        try:
            return self._dim[cid]
        except KeyError:
            raise KeyError(f"unknown {self._cell} id: {cid!r}") from None

    @property
    def basepoint(self):
        verts = self.nondegenerate(0)
        if len(verts) != 1:
            raise ValueError(f"{self.name or self._kind} is not reduced")
        return verts[0]


def _image(rule, key, source, target, shift, cache, what) -> FreeElement:
    """rule(key) as a FreeElement in degree n + shift of target, kept in cache.

    n is the degree of key in source. The rule is None for the zero map,
    and its value None, a FreeElement, or a dict of plain-number sums,
    wrapped once. A term outside target's basis of degree n + shift
    raises ValueError naming the key, the degree hit and the one
    expected; `what` names the map in that message. Callers look in the
    cache first.
    """
    n = source.degree_of(key)
    value = None if rule is None else rule(key)
    if not value:
        value = FreeElement.zero(target.ring)
    elif isinstance(value, dict):
        value = FreeElement._from_sums(target.ring, value)
    expected, degree_of = n + shift, target._degree_of
    for out_key in value.terms:
        m = degree_of.get(out_key)
        if m != expected:
            raise ValueError(
                f"{what} of {key!r} (degree {n}) hit {out_key!r} "
                f"(degree {m}), expected degree {expected}"
            )
    cache[key] = value
    return value


def _columns(rule, source, n, rows, ring, checked) -> list:
    """Sparse columns of rule on the keys of degree n of source, numbered
    by rows() = {row key: position}.

    The rule and its values are read as `_image` reads them. Each value
    is canonicalized straight into positions in one pass
    (`Ring.canonical_column`), so no FreeElement is built. Every zero
    column is one shared dict, and rows is called only at the first
    nonzero value. A None rule reads only source.rank(n), no key. A
    nonzero term outside the rows makes checked(key) raise its error.
    """
    zero = {}
    if rule is None:
        return [zero] * source.rank(n)
    column = ring.canonical_column
    index = None
    columns = []
    for key in source.basis_in(n):
        value = rule(key)
        if not value:
            columns.append(zero)
            continue
        if index is None:
            index = rows()
        try:
            columns.append(column(value, index) or zero)
        except KeyError:
            checked(key)
            raise
    return columns


class ChainComplex:
    """Non-negatively graded complex data: basis per degree plus boundary rule.

    basis maps degree -> ordered iterable of keys; keys must be globally
    unique across degrees. diff is None for the zero differential, which
    calls no rule: every boundary is 0 and every d_n a list of empty
    columns. Otherwise diff maps a basis key to its boundary, one of:
    None for zero; a dict of plain-number sums (ints, and Fractions over
    Q, as a loop adds them with + and *; a sum may be 0); or a
    FreeElement, whose terms are already canonical. The boundary must be
    supported in the basis one degree down. That is checked lazily,
    wherever a boundary is read: `diff` wraps a dict once, then checks
    and caches one key at a time for per-key callers, and `diff_columns`
    canonicalizes and checks a whole d_n as it numbers its terms, and
    keeps the columns it builds.

    A `Window` basis, as `chaintop.words` enumerates it, is stored as it
    is and kept as `window`. The degrees, `min_degree`, `max_degree`,
    `rank` and the zero differential's columns read only its `sizes`;
    its keys are listed at the first read of `basis` or `basis_in`,
    and a lookup (`degree_of`, `diff`'s check of its terms) reads the
    window's `degree_of`. A plain word window counts its words before it
    lists them and answers lookups by its length cap
    (`chaintop.words.plain_words`), so the zero complex of a cobar on a
    wedge of spheres, whose homology reads ranks only, builds no word,
    and the certificate of Adams' map, which reads lookups and ranks,
    builds none either. Any other basis is indexed and checked at
    construction by `graded_ids`, whose window comes with its index
    built.

    max_degree is the top degree the complex stores in full. It starts
    as the top nonempty degree, since the basis keeps no empty degree; a
    window that knows it stores empty degrees above that one in full
    (`chaintop.words.stored_top`, `normalized_chains`) raises it, and
    homology reads it to decide which degrees a truncation settles.
    """

    def __init__(self, ring: Ring, basis, diff, complete: bool = False, name: str = ""):
        self.ring = ring
        self.window = basis if isinstance(basis, Window) else graded_ids(basis)
        self._diff_rule = diff
        self._diff_cache = {}
        self._columns = {}
        self._positions = {}
        self.complete = complete
        self.name = name
        self._sizes = {n: size for n, size in self.window.sizes.items() if size}
        self.min_degree = min(self._sizes, default=0)
        self.max_degree = max(self._sizes, default=-1)

    @cached_property
    def basis(self) -> dict:
        """{degree: keys} of the nonempty degrees, listed at the first read."""
        return self.window.nonempty()

    def degrees(self):
        return sorted(self._sizes)

    def basis_in(self, n: int) -> tuple:
        return self.basis.get(n, ())

    def rank(self, n: int) -> int:
        return self._sizes.get(n, 0)

    @property
    def _degree_of(self) -> Mapping:
        """{key: degree} of the whole basis, the window's `degree_of`."""
        return self.window.degree_of

    def positions(self, n: int) -> dict:
        """{key: position} of the basis of degree n, built once and kept.

        The rows that `diff_columns` and `GradedLinearMap.columns` number
        their terms by; a degree whose columns are all zero never builds
        one.
        """
        index = self._positions.get(n)
        if index is None:
            index = self._positions[n] = {k: i for i, k in enumerate(self.basis_in(n))}
        return index

    def degree_of(self, key) -> int:
        try:
            return self._degree_of[key]
        except KeyError:
            raise KeyError(f"key not in complex basis: {key!r}") from None

    def zero(self) -> FreeElement:
        return FreeElement.zero(self.ring)

    def diff(self, key) -> FreeElement:
        """Boundary of a single basis key, validated to land in the basis."""
        cache = self._diff_cache
        if key in cache:
            return cache[key]
        return _image(self._diff_rule, key, self, self, -1, cache, "diff")

    def diff_element(self, el: FreeElement) -> FreeElement:
        return el.map_terms(self.diff)

    def d_squared_witness(self, degrees=None):
        """First basis key whose d(d(key)) is nonzero, or None if d^2 = 0.

        Each degree n is checked as D_{n-1} D_n = 0 on `diff_columns`, so
        a sweep assembles every d_n once; `linalg.residual_columns` sums
        each column of the product in one dict, and the witness
        (key, d(d(key))) is built from `diff` for the first nonzero
        column only. The zero differential (diff None) has d^2 = 0 and
        reads no key.
        """
        if self._diff_rule is None:
            return None
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

        Column j maps the position in C_{n-1} (`positions`) of each term
        of d(key_j) to its coefficient (the column format of
        chaintop.linalg). The
        columns come from `_columns`, the builder that the columns of a
        GradedLinearMap use too: no FreeElement is built, the per-key
        cache of `diff` is neither read nor filled, a term whose sum is
        0 is dropped before its lookup, and a nonzero term outside
        C_{n-1} raises the ValueError of `diff`. Each d_n is built once:
        later calls return the same list, so callers must not change it.
        Its zero columns are one shared dict, so that keeping a d_n with
        many cycles, such as a cobar's, keeps no dict per key alive. The
        zero differential (diff None) gives that dict rank(n) times,
        reading no key, so it lists no basis.

        >>> from .freemod import FreeElement
        >>> from .rings import GF, ZZ
        >>> rule = {"e": FreeElement(ZZ, {"v1": 1, "v0": -1})}.get
        >>> ChainComplex(ZZ, {0: ["v0", "v1"], 1: ["e"]}, rule).diff_columns(1)
        [{1: 1, 0: -1}]
        >>> sums = {"e": {"v1": 1, "v0": -1, "elsewhere": 0}}.get
        >>> ChainComplex(GF(3), {0: ["v0", "v1"], 1: ["e"]}, sums).diff_columns(1)
        [{1: 1, 0: 2}]
        >>> ChainComplex(ZZ, {0: ["v"], 1: ["a", "b"]}, None).diff_columns(1)
        [{}, {}]
        """
        columns = self._columns.get(n)
        if columns is None:
            columns = self._columns[n] = _columns(
                self._diff_rule,
                self,
                n,
                partial(self.positions, n - 1),
                self.ring,
                self.diff,
            )
        return columns

    def diff_matrix(self, n: int):
        """Matrix of d: C_n -> C_{n-1}; rows indexed by C_{n-1}, columns by C_n."""
        cols = self.diff_columns(n)
        mat = [[self.ring.zero] * len(cols) for _ in self.basis_in(n - 1)]
        for j, col in enumerate(cols):
            for i, coeff in col.items():
                mat[i][j] = coeff
        return mat


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
        cache = self._cache
        if key in cache:
            return cache[key]
        return _image(self._rule, key, self.source, self.target, self.shift, cache, "map")

    def apply(self, el: FreeElement) -> FreeElement:
        return el.map_terms(self.apply_key)

    def columns(self, n: int) -> list:
        """Sparse columns of f on degree n, one per key of the source's C_n.

        Column j maps the position in the target basis of degree
        n + shift (`ChainComplex.positions`) of each term of f(key_j) to
        its coefficient, built as
        `ChainComplex.diff_columns` builds a d_n, by `_columns`: the rule
        may return plain sums, a None rule is the zero map, and every
        zero column is one shared dict. The per-key cache of `apply_key`
        is neither read nor filled; a term outside the target basis of
        degree n + shift raises the ValueError of `apply_key`. Each
        degree is built once: later calls return the same list, so
        callers must not change it.

        >>> from .rings import ZZ
        >>> a = ChainComplex(ZZ, {0: ["v"], 1: ["e"]}, lambda key: None)
        >>> b = ChainComplex(ZZ, {0: ["w"], 1: ["x", "y"]}, lambda key: None)
        >>> f = GradedLinearMap(a, b, 0, {"e": FreeElement(ZZ, {"y": 2})}.get)
        >>> f.columns(1), f.columns(0)
        ([{1: 2}], [{}])
        """
        columns = self._columns.get(n)
        if columns is None:
            columns = self._columns[n] = _columns(
                self._rule,
                self.source,
                n,
                partial(self.target.positions, n + self.shift),
                self.target.ring,
                self.apply_key,
            )
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
        # a face of ka is never ka, so the two halves share no pair key
        sums = {(k2, kb): c for k2, c in a.diff(ka).items()}
        sign = -1 if a.degree_of(ka) % 2 else 1
        for k2, c in b.diff(kb).items():
            sums[(ka, k2)] = sign * c
        return sums

    return ChainComplex(ring, basis, diff, complete=complete, name=name or f"({a.name})ox({b.name})")
