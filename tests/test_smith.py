import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from chaintop.complexes import ChainComplex, InsufficientTruncationError
from chaintop.freemod import FreeElement
from chaintop.linalg import Echelon, eliminate, nullspace
from chaintop.rings import GF, QQ, ZZ
from chaintop.simplicial import normalized_chains, projective_plane_model, random_reduced_model
from chaintop.smith import _integer, field_rank, homology_table, smith_homology, smith_normal_form

from test_complexes import interval, per_key_columns, projective_plane_chains


# --- independent oracle: invariant factors via determinantal divisors ---

def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
    return total


def oracle_invariant_factors(mat):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[mat[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        if g == 0:
            break
        divisors.append(abs(g))
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


# --- the dense kernels the sparse one replaced, kept as oracles ---

def dense_smith_normal_form(mat):
    """Invariant factors by dense min-|entry| elimination."""
    m = [[int(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    t = 0
    while t < rows and t < cols:
        # locate a minimal |entry| pivot in the trailing submatrix
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
    # restore the divisibility chain
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


def dense_field_row_reduce(mat, ring):
    """Row-reduce over a field; returns (reduced rows, pivot column list)."""
    if not ring.is_field:
        raise ValueError(f"row reduction needs a field, got {ring}")
    rows = [list(map(ring.coerce, row)) for row in mat]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        hit = None
        for i in range(r, len(rows)):
            if not ring.is_zero(rows[i][c]):
                hit = i
                break
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [ring.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not ring.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def dense_rank(mat, ring):
    return len(dense_field_row_reduce(mat, ring)[1]) if mat and mat[0] else 0


def sparse_columns(mat, ring):
    return [
        {i: x for i, row in enumerate(mat) if (x := ring.coerce(row[j]))}
        for j in range(len(mat[0]))
    ]


# entries in -3..3, half of them +-1, so that unit pivots and non-unit
# remainders both occur
ENTRIES = st.sampled_from([-3, -2, -1, -1, -1, 0, 0, 1, 1, 1, 2, 3])


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    return [draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_sparse_kernel_matches_dense_smith_and_minor_oracle(mat):
    expected = dense_smith_normal_form(mat)
    assert eliminate(sparse_columns(mat, ZZ), ZZ) == expected
    assert smith_normal_form(mat) == expected
    assert expected == oracle_invariant_factors(mat)


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_sparse_kernel_ranks_match_dense_oracle(mat):
    for ring in (GF(2), GF(3), QQ):
        expected = dense_rank(mat, ring)
        assert len(eliminate(sparse_columns(mat, ring), ring)) == expected, ring
        assert field_rank(mat, ring) == expected, ring


# Q entries as callers pass them: ints, integral Fractions and
# non-integral Fractions; NO_UNITS has no +-1, so every pivot is a Fraction
MIXED_Q = st.sampled_from(
    [-2, -1, 0, 0, 1, 3, Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-2, 3)]
)
NO_UNITS = st.sampled_from([-3, 0, 0, 2, Fraction(4), Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def rational_matrices(draw):
    entries = draw(st.sampled_from([MIXED_Q, NO_UNITS]))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    mat = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        # a dependent row, so that entries cancel to zero
        a, b = draw(st.sampled_from([(1, 1), (Fraction(1, 2), -3), (2, Fraction(-2, 3))]))
        mat.append([a * x + b * y for x, y in zip(mat[0], mat[1])])
    return mat


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rational_kernel_with_mixed_entries_matches_dense_oracle(mat):
    columns = [
        {i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(len(mat[0]))
    ]
    assert eliminate(columns, QQ) == [1] * dense_rank(mat, QQ)


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_rational_kernel_on_integral_fractions_matches_ints_and_the_z_rank(mat):
    # over Q the columns arrive as Fractions, which eliminate stores as ints
    fractions = sparse_columns(mat, QQ)
    ints = sparse_columns(mat, ZZ)
    assert all(type(c) is Fraction for col in fractions for c in col.values())
    factors = eliminate(fractions, QQ)
    assert factors == eliminate(ints, QQ)
    assert len(factors) == len(eliminate(ints, ZZ))


def test_oracle_sanity():
    assert oracle_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert oracle_invariant_factors([[0]]) == []


def test_smith_frozen_values():
    assert smith_normal_form([[2, 4], [6, 10]]) == [2, 2]
    assert smith_normal_form([[1, -1], [1, 1]]) == [1, 2]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_matches_minor_oracle(mat):
    assert smith_normal_form(mat) == oracle_invariant_factors(mat)


def test_divisibility_chain():
    factors = smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 9]])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_field_linear_algebra():
    assert field_rank([[1, 2], [2, 4]], QQ) == 1
    assert field_rank([[1, 2], [2, 4]], GF(2)) == 1
    assert field_rank([[2, 0], [0, 1]], GF(2)) == 1
    # the sparse columns of [[1, 2]]
    ns = nullspace([{0: Fraction(1)}, {0: Fraction(2)}], QQ)
    assert len(ns) == 1 and ns[0][0] + 2 * ns[0][1] == 0
    # [[2, 0], [0, 1]] x = (1, 3)
    span = Echelon(QQ)
    assert span.add({0: Fraction(2)}) and span.add({1: Fraction(1)})
    remainder, coeffs = span.reduce({0: Fraction(1), 1: Fraction(3)})
    assert remainder == {} and coeffs == {0: Fraction(1, 2), 1: Fraction(3)}
    # [[1], [1]] x = (0, 1) has no solution
    span = Echelon(QQ)
    span.add({0: Fraction(1), 1: Fraction(1)})
    assert span.reduce({1: Fraction(1)})[0]


# --- Echelon and nullspace over F_3 against dense row reduction ---
#
# The columns are canonical (entries 0, 1, 2), and a third of them are
# sums of earlier ones, so plain-number reduction passes through values
# such as 1 - 2 * 2 = -3 that are 0 over F_3 but not as ints.

F3 = GF(3)


@st.composite
def f3_columns(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    entries = st.lists(st.integers(0, 2), min_size=rows, max_size=rows)
    dense = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if len(dense) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(dense)), draw(st.sampled_from(dense))
            k = draw(st.integers(1, 2))
            dense.append([(x + k * y) % 3 for x, y in zip(a, b)])
        else:
            dense.append(draw(entries))
    return [{i: x for i, x in enumerate(col) if x} for col in dense], rows


def f3_dense(columns, rows):
    return [[col.get(i, 0) for col in columns] for i in range(rows)]


def assert_f3_canonical(vec):
    assert all(type(c) is int and 0 < c < 3 for c in vec.values()), vec


@settings(max_examples=200, deadline=None)
@example(([{0: 1, 1: 2}, {0: 2, 1: 1}], 2))
@given(f3_columns())
def test_echelon_reduce_over_f3_matches_dense_row_reduction(case):
    columns, rows = case
    span = Echelon(F3)
    added = []
    for col in columns:
        remainder, coeffs = span.reduce(col)
        assert_f3_canonical(remainder)
        assert_f3_canonical(coeffs)
        # col = remainder + sum coeffs[k] * (k-th column added), over F_3
        for i in range(rows):
            span_part = sum(c * added[k].get(i, 0) for k, c in coeffs.items())
            assert (remainder.get(i, 0) + span_part - col.get(i, 0)) % 3 == 0
        inside = dense_rank(f3_dense(added + [col], rows), F3) == len(added)
        assert (remainder == {}) == inside
        assert span.add(col) == (not inside)
        if not inside:
            added.append(col)


@settings(max_examples=200, deadline=None)
@example(([{0: 1, 1: 2}, {0: 2, 1: 1}], 2))
@given(f3_columns())
def test_nullspace_over_f3_matches_dense_row_reduction(case):
    columns, rows = case
    kernel = nullspace(columns, F3)
    assert len(kernel) == len(columns) - dense_rank(f3_dense(columns, rows), F3)
    dependent = []
    for vec in kernel:
        assert_f3_canonical(vec)
        for i in range(rows):
            assert sum(c * columns[j].get(i, 0) for j, c in vec.items()) % 3 == 0
        dependent.append(max(vec))
        assert vec[max(vec)] == 1
    # 1 at its own dependent column, 0 at every other one
    for vec in kernel:
        assert [j for j in dependent if j in vec] == [max(vec)]


def point_complex():
    return ChainComplex(ZZ, {0: ["p"]}, lambda k: FreeElement.zero(ZZ), complete=True)


def circle_complex():
    def diff(key):
        return FreeElement.zero(ZZ)

    return ChainComplex(ZZ, {0: ["v"], 1: ["t"]}, diff, complete=True)


def test_homology_frozen_examples():
    assert smith_homology(point_complex(), 0).pair == (1, [])
    assert smith_homology(circle_complex(), 1).pair == (1, [])
    assert smith_homology(circle_complex(), 0).pair == (1, [])
    rp2 = projective_plane_chains()
    assert smith_homology(rp2, 0).pair == (1, [])
    assert smith_homology(rp2, 1).pair == (0, [2])
    assert smith_homology(rp2, 2).pair == (0, [])


def test_homology_field_coefficients():
    rp2 = projective_plane_chains()
    assert smith_homology(rp2, 1, GF(2)).pair == (1, [])
    assert smith_homology(rp2, 2, GF(2)).pair == (1, [])
    assert smith_homology(rp2, 1, QQ).pair == (0, [])
    assert smith_homology(rp2, 1, GF(3)).pair == (0, [])


def test_homology_out_of_range():
    rp2 = projective_plane_chains()
    assert smith_homology(rp2, 5).pair == (0, [])
    assert smith_homology(rp2, -1).pair == (0, [])


def test_insufficient_truncation():
    def diff(key):
        if key == "t":
            return FreeElement(ZZ, {"e": 2})
        return FreeElement.zero(ZZ)

    truncated = ChainComplex(ZZ, {0: ["v"], 1: ["e"], 2: ["t"]}, diff, complete=False)
    with pytest.raises(InsufficientTruncationError):
        smith_homology(truncated, 2)
    with pytest.raises(InsufficientTruncationError):
        smith_homology(truncated, 3)
    # inner degrees are still fine
    assert smith_homology(truncated, 1).pair == (0, [2])


def test_homology_table_eliminates_each_differential_once(monkeypatch):
    import chaintop.smith as smith

    def diff(key):
        if key == "t":
            return FreeElement(ZZ, {"e": 2})
        return FreeElement.zero(ZZ)

    truncated = ChainComplex(ZZ, {0: ["v"], 1: ["e"], 2: ["t"]}, diff, complete=False)
    calls = []
    real = smith.eliminate

    def counted(columns, ring):
        calls.append(len(columns))
        return real(columns, ring)

    monkeypatch.setattr(smith, "eliminate", counted)
    table = homology_table(truncated, range(-1, 4))
    monkeypatch.undo()
    assert table[-1].pair == (0, [])
    assert table[0] == smith_homology(truncated, 0)
    assert table[1] == smith_homology(truncated, 1)
    # degrees the truncation cannot settle are None, not errors
    assert table[2] is None and table[3] is None
    # H_0 and H_1 read d_0, d_1 and d_2, each eliminated once
    assert calls == [1, 1, 1]


def converted_homology(complex_, n, ring):
    """smith_homology of a complete complex as it was: every entry of the
    per-key columns converted into the ring before elimination."""
    convert = _integer if ring == ZZ else ring.coerce

    def factors(m):
        return eliminate(
            [
                {i: x for i, c in col.items() if (x := convert(c))}
                for col in per_key_columns(complex_, m)
            ],
            ring,
        )

    below, above = factors(n), factors(n + 1)
    return complex_.rank(n) - len(below) - len(above), [f for f in above if f > 1]


def trusted_complex(ring, entry):
    # _trusted keeps the entry as given, so the rule can hand smith_homology
    # an entry outside the ring's canonical form
    def diff(key):
        if key == "e":
            return FreeElement._trusted(ring, {"v": entry})
        return FreeElement.zero(ring)

    return ChainComplex(ring, {0: ["v"], 1: ["e"]}, diff, complete=True)


def test_smith_homology_matches_converted_columns():
    complexes = [projective_plane_chains, lambda: normalized_chains(projective_plane_model())]
    for seed in range(4):
        space = random_reduced_model(random.Random(seed))
        complexes.append(lambda space=space: normalized_chains(space))
    # entries that are not in canonical form are converted, as before
    complexes += [
        lambda: trusted_complex(ZZ, Fraction(2)),
        lambda: trusted_complex(ZZ, Fraction(-1)),
        lambda: trusted_complex(GF(3), 4),
        lambda: trusted_complex(GF(3), 3),
        lambda: trusted_complex(QQ, 2),
    ]
    for build in complexes:
        complex_ = build()
        rings = (ZZ, GF(2), GF(3), QQ) if complex_.ring == ZZ else (complex_.ring,)
        for ring in rings:
            for n in complex_.degrees():
                summary = smith_homology(build(), n, ring)
                assert summary.pair == converted_homology(build(), n, ring), (ring, n)
                assert all(type(f) is int for f in summary.invariant_factors)
    assert smith_homology(trusted_complex(ZZ, Fraction(2)), 0).pair == (0, [2])
    assert smith_homology(trusted_complex(GF(3), 3), 0).pair == (1, [])


def mixed_columns_complex():
    # zero boundaries, given as None and as zero elements, between
    # nonzero ones: H_0 = Z, H_1 = Z + Z/2, H_2 = Z^2, H_3 = Z
    table = {
        "a": {"v1": 1, "v0": -1},
        "b": {"v2": 1, "v1": -1},
        "c": {"v2": 1, "v0": -1},
        "z2": {},
        "s": {"a": 2, "b": 2, "c": -2},
        "y1": {},
        "t": {"z1": 1},
    }

    def diff(key):
        terms = table.get(key)
        return None if terms is None else FreeElement(ZZ, terms)

    basis = {
        0: ["v0", "v1", "v2"],
        1: ["z1", "a", "z2", "b", "c"],
        2: ["y0", "s", "y1", "t"],
        3: ["w"],
    }
    return ChainComplex(ZZ, basis, diff, complete=True)


def test_homology_with_zero_and_nonzero_columns():
    expected = {
        ZZ: [(1, []), (1, [2]), (2, []), (1, [])],
        GF(2): [(1, []), (2, []), (3, []), (1, [])],
        QQ: [(1, []), (1, []), (2, []), (1, [])],
    }
    for ring, pairs in expected.items():
        for n, pair in enumerate(pairs):
            assert smith_homology(mixed_columns_complex(), n, ring).pair == pair, (ring, n)
            assert converted_homology(mixed_columns_complex(), n, ring) == pair, (ring, n)
    table = homology_table(mixed_columns_complex(), range(4))
    assert [table[n].pair for n in range(4)] == expected[ZZ]


def test_smith_homology_rejects_a_non_integral_entry_over_z():
    with pytest.raises(ValueError) as converted:
        converted_homology(trusted_complex(ZZ, Fraction(1, 2)), 0, ZZ)
    with pytest.raises(ValueError) as summary:
        smith_homology(trusted_complex(ZZ, Fraction(1, 2)), 0)
    assert str(summary.value) == str(converted.value)


def test_coefficient_change_guard():
    over_f2 = ChainComplex(GF(2), {0: ["v"]}, lambda k: FreeElement.zero(GF(2)), complete=True)
    with pytest.raises(ValueError):
        smith_homology(over_f2, 0, ZZ)
    assert smith_homology(over_f2, 0, GF(2)).pair == (1, [])


@given(st.permutations(range(2)), st.permutations(range(2)))
def test_homology_invariant_under_basis_permutation(p1, p2):
    ones = ["a", "b"]
    twos = ["U", "L"]

    def diff(key):
        if key == "U":
            return FreeElement(ZZ, {"a": 1, "b": 1})
        if key == "L":
            return FreeElement(ZZ, {"b": 1, "a": -1})
        return FreeElement.zero(ZZ)

    shuffled = ChainComplex(
        ZZ,
        {0: ["p"], 1: [ones[i] for i in p1], 2: [twos[i] for i in p2]},
        diff,
        complete=True,
    )
    reference = projective_plane_chains()
    for n in range(3):
        assert smith_homology(shuffled, n).pair == smith_homology(reference, n).pair


def test_summary_repr_and_json():
    s = smith_homology(projective_plane_chains(), 1)
    assert "2" in repr(s)
    js = s.to_json()
    assert js == {"degree": 1, "ring": "z", "free_rank": 0, "invariant_factors": [2]}


# --- smith_homology against the dense path it replaced ---

def _unimodular(draw, size):
    """(U, U^-1) as a product of elementary integer row operations."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    u_inv = [row[:] for row in u]
    if size < 2:
        return u, u_inv
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        # U <- (I + c e_ij) U and U^-1 <- U^-1 (I - c e_ij)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    return u, u_inv


def _matmul(a, b, inner):
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(len(b[0]))] for row in a]


@st.composite
def integral_complexes(draw):
    """A complete complex over Z in degrees 0..3 with d^2 = 0.

    Degree n is spanned by the targets of d_{n+1}, the sources of d_n and
    free cycles; d_n sends its k-th source to m_k times the k-th target in
    degree n - 1. Each degree's basis is then changed by a random
    unimodular matrix, which keeps d^2 = 0 and scrambles the entries.
    """
    top = 3
    divisors = {
        n: draw(st.lists(st.sampled_from([1, 1, 2, 3, 4]), max_size=2)) for n in range(1, top + 1)
    }
    divisors[0] = divisors[top + 1] = []
    free = [draw(st.integers(min_value=0, max_value=2)) for _ in range(top + 1)]
    dims = [len(divisors[n + 1]) + len(divisors[n]) + free[n] for n in range(top + 1)]
    change = [_unimodular(draw, d) for d in dims]
    matrices = {}
    for n in range(1, top + 1):
        rows, cols = dims[n - 1], dims[n]
        if not rows or not cols:
            continue
        d = [[0] * cols for _ in range(rows)]
        # targets come first in degree n - 1, sources right after them in n
        start = len(divisors[n + 1])
        for k, m in enumerate(divisors[n]):
            d[k][start + k] = m
        u, _ = change[n - 1]
        _, u_inv = change[n]
        matrices[n] = _matmul(_matmul(u, d, rows), u_inv, cols)
    basis = {n: [(n, i) for i in range(dims[n])] for n in range(top + 1)}

    def diff(key):
        n, j = key
        if n not in matrices:
            return FreeElement.zero(ZZ)
        return FreeElement(ZZ, {(n - 1, i): row[j] for i, row in enumerate(matrices[n]) if row[j]})

    return ChainComplex(ZZ, basis, diff, complete=True)


def dense_homology(complex_, n, ring):
    """The pre-sparse smith_homology: dense matrices, Q rank, dense SNF."""
    if n < complex_.min_degree or n > complex_.max_degree:
        return 0, []
    d_n = complex_.diff_matrix(n)
    d_np1 = complex_.diff_matrix(n + 1)
    if ring == ZZ:
        rank_dn = dense_rank(d_n, QQ)
        factors = dense_smith_normal_form(d_np1) if d_np1 and d_np1[0] else []
        return complex_.rank(n) - rank_dn - len(factors), [f for f in factors if f > 1]
    return complex_.rank(n) - dense_rank(d_n, ring) - dense_rank(d_np1, ring), []


@settings(max_examples=60, deadline=None)
@given(integral_complexes())
def test_smith_homology_matches_dense_path(complex_):
    assert complex_.d_squared_witness() is None
    for ring in (ZZ, GF(2), GF(3), QQ):
        for n in range(-1, 5):
            expected = dense_homology(complex_, n, ring)
            assert smith_homology(complex_, n, ring).pair == expected, (ring, n)
