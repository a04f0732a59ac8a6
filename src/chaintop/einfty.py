"""Natural operations on chains of arbitrary spaces, and Steenrod actions.

Operations are defined once on standard cells, where the counit,
diagonal, and join live, and transported to any simplicial or cubical
set along characteristic maps. On homology over a prime field this
yields chain-level Steenrod operations computed through an explicit
cocycle pairing.
"""

from __future__ import annotations

import math

from .complexes import ChainComplex
from .cubical import CubicalSet, cubical_chains
from .freemod import FreeElement
from .linalg import Echelon, nullspace
from .propm import PropGraph, PsiMachine, cell_family, evaluate, push_terms
from .rings import GF, Ring
from .simplicial import SimplicialSet, normalized_chains
from .smith import _stored


class UmCoalgebra:
    """Chains of a space together with the transported prop action.

    `geometry` names the standard-cell family (`propm.cell_family`),
    whose class supplies the models and the pushforward; `push` carries
    a basis cell of the standard model through the characteristic map
    of a cell of the space, returning None when the image is degenerate.
    """

    def __init__(self, geometry: str, space, complex_: ChainComplex):
        self.family = cell_family(geometry)
        self.geometry = geometry
        self.space = space
        self.complex = complex_
        self.ring = complex_.ring
        self._models = {}
        self._machines = {}

    def model(self, n: int):
        if n not in self._models:
            self._models[n] = self.family(n, self.ring)
        return self._models[n]

    def machine(self, p: int) -> PsiMachine:
        if self.ring.characteristic != p:
            raise ValueError(
                f"ring has characteristic {self.ring.characteristic}, need {p}"
            )
        if p not in self._machines:
            self._machines[p] = PsiMachine(p, self.geometry, self.ring)
        return self._machines[p]

    def push(self, cell, std_key):
        """Image of a standard-model basis key; None when degenerate."""
        ref = self.family.pushforward(self.space, cell, std_key)
        return None if ref.is_degenerate else ref.base

    def push_tensor(self, cell, element: FreeElement) -> FreeElement:
        return push_terms(self.ring, element, lambda key: self.push(cell, key))


def simplicial_um(space: SimplicialSet, ring: Ring) -> UmCoalgebra:
    return UmCoalgebra("simplex", space, normalized_chains(space, ring=ring))


def cubical_um(space: CubicalSet, ring: Ring) -> UmCoalgebra:
    return UmCoalgebra("cube", space, cubical_chains(space, ring=ring))


def _as_element(coalg: UmCoalgebra, chain) -> FreeElement:
    if isinstance(chain, FreeElement):
        return chain
    return FreeElement.single(coalg.ring, chain, coalg.ring.one)


def _transport(coalg: UmCoalgebra, chain, top_value) -> FreeElement:
    """Push top_value(n), an operation's value on the top cell of the
    n-dimensional standard model, along each n-cell of the chain.

    top_value is called once per dimension of the chain's cells."""
    chain = _as_element(coalg, chain)
    out = FreeElement.zero(coalg.ring)
    values = {}
    for cell, c in chain.items():
        n = coalg.complex.degree_of(cell)
        value = values.get(n)
        if value is None:
            value = values[n] = top_value(n)
        out = out + coalg.push_tensor(cell, value).scale(c)
    return out


def um_action(coalg: UmCoalgebra, op: PropGraph, chain) -> FreeElement:
    """Evaluate a one-input prop operation on a chain of the space.

    The operation runs once on the top cell of the standard model in
    each dimension of the chain's cells, and the answer is pushed
    forward componentwise.
    """
    if op.n_in != 1:
        raise ValueError("prop action needs a one-input operation")

    def top_value(n):
        model = coalg.model(n)
        return evaluate(op, model, (model.top,))

    return _transport(coalg, chain, top_value)


def psi_action(coalg: UmCoalgebra, p: int, i: int, chain) -> FreeElement:
    """The width-p operation psi(e_i) transported to the space's chains."""
    if i < 0:
        return FreeElement.zero(coalg.ring)
    machine = coalg.machine(p)
    return _transport(coalg, chain, lambda n: machine.top_value(i, n))


def cup_i(coalg: UmCoalgebra, i: int, chain) -> FreeElement:
    """Mod-2 cup-i coproduct; i = 0 is the diagonal, higher i its homotopies."""
    if coalg.ring.characteristic != 2:
        raise ValueError("cup-i coproducts need characteristic 2")
    return psi_action(coalg, 2, i, chain)


# --- homology over a field, with explicit representatives ---

class HomologyClass:
    """A homology class carried by an explicit representative cycle."""

    __slots__ = ("complex", "degree", "representative", "ring", "is_zero_class")

    def __init__(self, complex_, degree, representative, is_zero_class=False):
        self.complex = complex_
        self.degree = int(degree)
        self.representative = representative
        self.ring = complex_.ring
        self.is_zero_class = bool(is_zero_class)
        for key in representative.support():
            if complex_.degree_of(key) != self.degree:
                raise ValueError("representative not homogeneous of the stated degree")
        if not complex_.diff_element(representative).is_zero():
            raise ValueError("representative is not a cycle")

    def __repr__(self):
        return f"[{self.representative!r}] in H_{self.degree}"


class FieldHomology:
    """Homology of one degree of a complex over a field.

    Stores representative cycles plus enough linear algebra to express
    any cycle in terms of them. Refuses truncations that cannot certify
    the requested degree with the InsufficientTruncationError of
    `smith_homology`, by the same rule (`smith._stored`).
    """

    def __init__(self, complex_: ChainComplex, n: int):
        ring = complex_.ring
        if not getattr(ring, "is_field", False):
            raise ValueError("field coefficients required")
        _stored(complex_, n)
        self.complex = complex_
        self.degree = int(n)
        self.ring = ring
        basis = complex_.basis_in(n)
        self._basis = basis
        self._index = complex_.positions(n)

        # greedy in basis order: a boundary, then a cycle, is kept when it
        # lies outside the span of those kept before it
        span = Echelon(ring)
        self._boundary_cols = [col for col in complex_.diff_columns(n + 1) if span.add(col)]
        cycles = nullspace(complex_.diff_columns(n), ring)
        self._rep_cols = [col for col in cycles if span.add(col)]
        self._span = span
        self.dim = len(self._rep_cols)
        self.boundary_rank = len(self._boundary_cols)

    def _vector(self, chain: FreeElement):
        vec = {}
        for key, c in chain.items():
            t = self._index.get(key)
            if t is None:
                raise ValueError(f"chain not supported in degree {self.degree}: {key!r}")
            vec[t] = c
        return vec

    def _element(self, vec) -> FreeElement:
        return FreeElement(self.ring, {self._basis[t]: vec[t] for t in sorted(vec)})

    def classes(self):
        return [
            HomologyClass(self.complex, self.degree, self._element(vec))
            for vec in self._rep_cols
        ]

    def coordinates(self, chain: FreeElement):
        """Coordinates of a cycle in the representative basis."""
        vec = self._vector(chain)
        if not self.complex.diff_element(chain).is_zero():
            raise ValueError("not a cycle")
        if not self._basis:
            return []
        remainder, coeffs = self._span.reduce(vec)
        if remainder:
            raise ValueError("cycle outside the computed cycle space")
        nb = len(self._boundary_cols)
        return [coeffs.get(nb + t, self.ring.zero) for t in range(self.dim)]

    def class_from_pairings(self, values) -> HomologyClass:
        """The class whose dual-basis pairings are the given values."""
        values = list(values)
        if len(values) != self.dim:
            raise ValueError("pairing vector has the wrong length")
        rep = FreeElement.zero(self.ring)
        for vec, v in zip(self._rep_cols, values):
            if not self.ring.is_zero(v):
                rep = rep + self._element(vec).scale(v)
        return HomologyClass(
            self.complex, self.degree, rep, is_zero_class=rep.is_zero()
        )

    def dual_cocycles(self):
        """Functionals on C_n dual to the representatives, zero on boundaries.

        Returned as coefficient dicts key -> ring element; evaluating a
        chain is a dot product against these.
        """
        ring = self.ring
        # complete [boundaries | reps] to a basis with unit vectors, in
        # order; alpha_t(e_r) is the rep-t coordinate of e_r in that basis
        full = Echelon(ring)
        for col in self._boundary_cols + self._rep_cols:
            full.add(col)
        coords = []
        for r in range(len(self._basis)):
            unit = {r: ring.one}
            remainder, coeffs = full.reduce(unit)
            if remainder:
                full.add(unit)
                coeffs = {}
            coords.append(coeffs)
        nb = len(self._boundary_cols)
        out = []
        for t in range(self.dim):
            alpha = {}
            for r, key in enumerate(self._basis):
                a = coords[r].get(nb + t)
                if a is not None:
                    alpha[key] = a
            out.append(alpha)
        return out


def _class_of_pairings(target: FieldHomology, value: FreeElement) -> HomologyClass:
    """The class of target pairing each dual cocycle alpha with the
    p-tensor chain value as the sum of c alpha(x_1)...alpha(x_p)."""
    ring = target.ring
    pairings = []
    for alpha in target.dual_cocycles():
        total = ring.zero
        for key, c in value.items():
            for x in key:
                c = ring.mul(c, alpha.get(x, ring.zero))
            total = ring.add(total, c)
        pairings.append(total)
    return target.class_from_pairings(pairings)


# --- Steenrod operations ---

def steenrod_sq(coalg: UmCoalgebra, s: int, mu: HomologyClass) -> HomologyClass:
    """Right action of the s-th square on a mod-2 homology class.

    The image in degree k - s pairs with a cocycle alpha as
    (alpha ox alpha)(psi(e_{k-2s})(rep)); 2s = k recovers the cup
    square, and negative indices vanish for degree reasons.
    """
    ring = coalg.ring
    if ring.characteristic != 2:
        raise ValueError("steenrod squares need characteristic 2")
    if mu.complex is not coalg.complex:
        raise ValueError("class does not live on this coalgebra")
    k = mu.degree
    out_degree = k - s
    if out_degree < 0:
        raise ValueError("output degree is negative")
    target = FieldHomology(coalg.complex, out_degree)
    index = k - 2 * s
    if index < 0:
        return target.class_from_pairings([ring.zero] * target.dim)
    value = psi_action(coalg, 2, index, mu.representative)
    return _class_of_pairings(target, value)


def nu_coefficient(q: int, p: int):
    """nu(q) = (-1)^(q(q-1)m/2) (m!)^q in F_p, with m = (p-1)/2."""
    if p % 2 == 0:
        raise ValueError("nu is an odd-prime coefficient")
    ring = GF(p)
    m = (p - 1) // 2
    sign = -1 if (q * (q - 1) * m // 2) % 2 else 1
    base = ring.from_int(math.factorial(m))
    power = ring.one
    # m! is invertible mod p, so negative q reduces mod p - 1 as well
    for _ in range(q % (p - 1)):
        power = ring.mul(power, base)
    return ring.mul(ring.from_int(sign), power)


def steenrod_odd(
    coalg: UmCoalgebra, eps: int, s: int, mu: HomologyClass
) -> HomologyClass:
    """Odd-prime operations: the class pairing alpha to
    alpha^{ox p}((-1)^p nu(q) psi(e_{(2s-q)(p-1)-eps})(rep)).
    """
    ring = coalg.ring
    p = ring.characteristic
    if p < 3:
        raise ValueError("odd-prime operation needs odd characteristic")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if mu.complex is not coalg.complex:
        raise ValueError("class does not live on this coalgebra")
    k = mu.degree
    q = -k - 2 * s * (p - 1) + eps
    index = (2 * s - q) * (p - 1) - eps
    total_degree = k + index
    if total_degree % p:
        raise ValueError("pairing degree is not divisible by p")
    out_degree = total_degree // p
    if index < 0:
        zero = FreeElement.zero(ring)
        return HomologyClass(
            coalg.complex, max(out_degree, 0), zero, is_zero_class=True
        )
    if out_degree < 0:
        raise ValueError("output degree is negative")
    target = FieldHomology(coalg.complex, out_degree)
    coeff = ring.mul(ring.from_int((-1) ** p), nu_coefficient(q, p))
    value = psi_action(coalg, p, index, mu.representative).scale(coeff)
    return _class_of_pairings(target, value)
