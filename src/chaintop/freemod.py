"""Free modules on hashable basis keys, with exact coefficients.

A FreeElement is a sparse linear combination; zero coefficients are never
stored. Keys can be anything hashable: simplex references, words of cube
letters, operation graphs. Degree bookkeeping lives with the callers,
so the Koszul sign helpers here take explicit degree data.

Chains are built one way. A loop in the library adds plain ints (and
Fractions over Q) into a dict with + and *, and ends in one
FreeElement._from_sums, which reduces mod p, makes Fractions over Q and
drops zeros in a single pass; _trusted wraps a dict that is already
canonical. A boundary rule of a ChainComplex may stop before that step
and return its sums: the complex canonicalizes them straight into
sparse columns (Ring.canonical_column), and wraps them with _from_sums
only for a per-key diff. The rule of a GradedLinearMap may return its
sums the same way: a map's columns and its apply_key read them as a
complex's diff_columns and diff do. FreeElement(ring, terms) is the checked
constructor for input from outside: every coefficient goes through
Ring.coerce first.
"""

from __future__ import annotations

from .rings import Ring


class FreeElement:
    """Finite linear combination of basis keys over a fixed ring.

    terms is a dict or an iterable of (key, coefficient) pairs; repeated
    keys add up, and a sum that is 0 in the ring is dropped, here 3 over
    F_3:

    >>> from .rings import GF, ZZ
    >>> x = FreeElement(ZZ, {"a": 2, "b": -1})
    >>> (x + x).coeff("a")
    4
    >>> (x - x).is_zero()
    True
    >>> FreeElement(GF(3), [("a", 2), ("b", 1), ("a", 1)]).terms
    {'b': 1}
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms=None):
        sums = {}
        if terms:
            coerce = ring.coerce
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                sums[key] = sums.get(key, 0) + coerce(coeff)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", ring.canonical_sums(sums) if sums else sums)

    def __setattr__(self, name, value):
        raise AttributeError("FreeElement is immutable; build a new one")

    @classmethod
    def _trusted(cls, ring: Ring, terms: dict) -> "FreeElement":
        """Wrap terms as they are: canonical coefficients, no zeros, not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def _from_sums(cls, ring: Ring, sums: dict) -> "FreeElement":
        """Element whose coefficients are plain-number sums, canonicalized once.

        The caller adds ints (and Fractions over Q) with + and *; here they
        are reduced mod p, made Fractions over Q, and zeros are dropped.
        """
        return cls._trusted(ring, ring.canonical_sums(sums) if sums else sums)

    @classmethod
    def zero(cls, ring: Ring) -> "FreeElement":
        return cls._trusted(ring, {})

    @classmethod
    def single(cls, ring: Ring, key, coeff=None) -> "FreeElement":
        return cls(ring, {key: ring.one if coeff is None else coeff})

    def coeff(self, key):
        return self.terms.get(key, self.ring.zero)

    def items(self):
        return self.terms.items()

    def support(self):
        return list(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __contains__(self, key):
        return key in self.terms

    def _require_same_ring(self, other):
        if not isinstance(other, FreeElement):
            raise TypeError(f"expected FreeElement, got {type(other).__name__}")
        if self.ring != other.ring:
            raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._require_same_ring(other)
        sums = dict(self.terms)
        for key, coeff in other.terms.items():
            sums[key] = sums.get(key, 0) + coeff
        return FreeElement._from_sums(self.ring, sums)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(self.ring.neg(self.ring.one))

    def scale(self, coeff):
        coeff = self.ring.coerce(coeff)
        if self.ring.is_zero(coeff):
            return FreeElement.zero(self.ring)
        # field or +-1 scaling never produces zeros; integers cannot either
        return FreeElement._trusted(
            self.ring, {k: self.ring.mul(c, coeff) for k, c in self.terms.items()}
        )

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=repr):
            c = self.terms[key]
            bits.append(f"{c}*{key!r}" if c != self.ring.one else f"{key!r}")
        return " + ".join(bits)

    def map_keys(self, fn) -> "FreeElement":
        """Linear extension of a key map; fn may return None to drop a key."""
        sums = {}
        for key, coeff in self.terms.items():
            new = fn(key)
            if new is not None:
                sums[new] = sums.get(new, 0) + coeff
        return FreeElement._from_sums(self.ring, sums)

    def map_terms(self, fn) -> "FreeElement":
        """Linear extension of a key -> FreeElement map."""
        sums = {}
        for key, coeff in self.terms.items():
            image = fn(key)
            if image is None:
                continue
            for k2, c2 in image.terms.items():
                sums[k2] = sums.get(k2, 0) + coeff * c2
        return FreeElement._from_sums(self.ring, sums)


def koszul_sign(perm, degrees) -> int:
    """Sign picked up when graded symbols are reordered.

    perm[i] is the index of the input symbol landing in output slot i;
    degrees are the input degrees. Every transposition of two odd-degree
    symbols contributes a factor -1.

    >>> koszul_sign([1, 0], [1, 1])
    -1
    >>> koszul_sign([1, 0], [1, 0])
    1
    >>> koszul_sign([2, 0, 1], [1, 1, 1])
    1
    """
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError(f"not a permutation of {len(degrees)} symbols: {perm!r}")
    sign = 1
    for j in range(len(perm)):
        for i in range(j):
            if perm[i] > perm[j] and degrees[perm[i]] % 2 and degrees[perm[j]] % 2:
                sign = -sign
    return sign


def permute_word(word: tuple, perm, degrees):
    """Apply a permutation to a tensor word, returning (new_word, sign).

    Output slot i receives word[perm[i]]; the sign is the Koszul sign of
    the reordering.
    """
    new_word = tuple(word[i] for i in perm)
    return new_word, koszul_sign(list(perm), list(degrees))


def cyclic_rotation_sign(degrees) -> int:
    """Koszul sign for bringing the last tensor factor to the front."""
    n = len(degrees)
    if n <= 1:
        return 1
    return koszul_sign([n - 1] + list(range(n - 1)), list(degrees))


def tensor_elements(a: FreeElement, b: FreeElement, degree_fn=None) -> FreeElement:
    """Tensor product over pair keys (ka, kb).

    No sign appears here; Koszul signs only enter when factors move past
    each other. With degree_fn given, each input must be homogeneous.
    """
    if a.ring != b.ring:
        raise ValueError("tensor over mixed rings")
    if degree_fn is not None:
        for el in (a, b):
            degs = {degree_fn(k) for k in el.support()}
            if len(degs) > 1:
                raise ValueError(f"mixed-degree tensor factor, degrees {sorted(degs)}")
    # pair keys are distinct, so each sum is a single product
    return FreeElement._from_sums(
        a.ring, {(ka, kb): ca * cb for ka, ca in a.items() for kb, cb in b.items()}
    )
