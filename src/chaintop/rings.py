"""Coefficient rings for exact chain arithmetic.

Three rings are supported: the integers Z, the rationals Q, and prime
fields F_p. Scalars are plain ints (for Z, and reduced residues for F_p)
or fractions.Fraction (for Q). Nothing in this package ever touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality check, fine for the small moduli used here.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Ring:
    """A coefficient ring together with exact scalar arithmetic.

    kind is one of "Z", "Q", "Fp"; p is the modulus for "Fp" and None
    otherwise. Instances are immutable and hashable so they can ride
    along inside elements and complexes.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind: {kind!r}")
        if kind == "Fp":
            if p is None or not is_prime(p):
                raise ValueError(f"prime field needs a prime modulus, got {p!r}")
        elif p is not None:
            raise ValueError(f"modulus given for ring {kind}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    def __eq__(self, other):
        return isinstance(other, Ring) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash(("Ring", self.kind, self.p))

    def __repr__(self):
        return self.name

    @property
    def name(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def coerce(self, x):
        """Bring an int or Fraction into canonical scalar form for this ring.

        >>> GF(5).coerce(-3)
        2
        >>> ZZ.coerce(Fraction(4, 2))
        2
        >>> QQ.coerce(2) == Fraction(2)
        True
        """
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if self.kind == "Q":
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"not a rational scalar: {x!r}")
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise TypeError(f"non-integral scalar for {self.name}: {x!r}")
            x = int(x)
        if not isinstance(x, int):
            raise TypeError(f"not an integer scalar for {self.name}: {x!r}")
        return x % self.p if self.kind == "Fp" else x

    def canonical_sums(self, sums: dict) -> dict:
        """A dict of plain-number sums in canonical form: mod p, Q as Fractions.

        Zeros are dropped. Callers that add coefficients with + and * bring
        them to canonical form once here instead of one ring call per term.

        >>> GF(3).canonical_sums({"a": 4, "b": -3, "c": -1})
        {'a': 1, 'c': 2}
        >>> QQ.canonical_sums({"a": 2, "b": 0})
        {'a': Fraction(2, 1)}
        """
        if self.kind == "Fp":
            p = self.p
            return {k: r for k, v in sums.items() if (r := v % p)}
        if self.kind == "Q":
            return {
                k: v if type(v) is Fraction else Fraction(v)
                for k, v in sums.items()
                if v
            }
        return {k: v for k, v in sums.items() if v}

    def canonical_column(self, sums, index: dict) -> dict:
        """`canonical_sums` with each key replaced by its position in index.

        One pass builds a sparse column (the format of chaintop.linalg)
        from plain-number sums, or from anything with `items()`. A key
        whose sum is 0 is dropped before its lookup, so it need not be
        in index; a nonzero one that is not raises KeyError.

        >>> GF(3).canonical_column({"a": 4, "b": -3, "c": -1}, {"a": 0, "c": 1})
        {0: 1, 1: 2}
        >>> QQ.canonical_column({"a": 2, "gone": 0}, {"a": 5})
        {5: Fraction(2, 1)}
        """
        if self.kind == "Fp":
            p = self.p
            return {index[k]: r for k, v in sums.items() if (r := v % p)}
        if self.kind == "Q":
            return {
                index[k]: v if type(v) is Fraction else Fraction(v)
                for k, v in sums.items()
                if v
            }
        return {index[k]: v for k, v in sums.items() if v}

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        if self.kind == "Z":
            return a in (1, -1)
        if self.kind == "Fp":
            return a % self.p != 0
        return a != 0

    def inv(self, a):
        """Multiplicative inverse; raises ValueError off the unit group.

        >>> GF(7).inv(3)
        5
        >>> QQ.inv(Fraction(2, 3))
        Fraction(3, 2)
        """
        if not self.is_unit(a):
            raise ValueError(f"not a unit in {self.name}: {a!r}")
        if self.kind == "Z":
            return a
        if self.kind == "Q":
            return 1 / Fraction(a)
        return pow(a % self.p, self.p - 2, self.p)

    def from_int(self, n: int):
        return self.coerce(n)

    def to_json(self):
        return self.name.lower()


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    """The prime field with p elements."""
    return Ring("Fp", p)


def parse_ring(text: str) -> Ring:
    """Parse a command-line ring name: "z", "q", or "fp:<p>".

    >>> parse_ring("fp:3").name
    'F3'
    >>> parse_ring("Z").name
    'Z'
    """
    t = text.strip().lower()
    if t == "z":
        return ZZ
    if t == "q":
        return QQ
    if t.startswith("fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise ValueError(f"bad ring spec {text!r}: modulus is not an integer") from None
        return GF(p)
    raise ValueError(f"bad ring spec {text!r} (want z, q, or fp:<prime>)")
