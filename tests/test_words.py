"""The shared word-window enumerator against the three enumerators it replaced.

The oracle functions below are the per-class enumerators that the cobar,
the extended cobar and the bead-word monoid each carried before
`chaintop.words` existed, kept verbatim as plain functions. The bases
the constructions store now must hold the same words as theirs, degree
by degree; both sides are repr-sorted before they are compared, so these
tests fix the words and not their order. The order is pinned twice:
`plain_words` must equal the breadth-first enumerator it replaced
(`words_oracle`), list for list, and every window must store each degree
exactly as `chaintop.words` returns it. The pinned certificate counts
come from the word recurrence of the benchmark notes, so they hold
whichever enumerator builds the windows.
"""

import itertools
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from chaintop.cobar import (
    CobarComplex,
    ExtendedCobarComplex,
    cobar,
    group_words,
)
from chaintop.loopspace import CubicalCobar, cubical_cobar, phi_certificate
from chaintop.simplicial import (
    random_reduced_model,
    simplicial_model,
    sphere_model,
    standard_simplex,
    wedge_models,
)
from chaintop.words import (
    growth,
    letters,
    localized_budget,
    localized_words,
    plain_words,
    sliding_budget,
    stored_top,
)

import words_oracle
from shared_models import collapsed_simplex


# --- the old enumerators, as oracles ---

def old_growth(space):
    if not space.nondegenerate(1):
        return 0
    if space.nondegenerate(2):
        return 2
    return 1


def old_cobar_words(space, max_degree, max_length):
    """CobarComplex._words: fixed length cap, degree recomputed per word."""
    letters_ = [
        cell for m in space.dimensions() if m >= 1 for cell in space.nondegenerate(m)
    ]

    def word_degree(word):
        return sum(space.dim_of(cell) - 1 for cell in word)

    yield ()
    frontier = [()]
    while frontier:
        new = []
        for word in frontier:
            if max_length is not None and len(word) >= max_length:
                continue
            base = word_degree(word)
            for cell in letters_:
                if base + space.dim_of(cell) - 1 <= max_degree:
                    grown = word + (cell,)
                    new.append(grown)
                    yield grown
        frontier = new


def old_skeletons(space, heavy_letters, max_degree):
    """ExtendedCobarComplex._skeletons."""
    yield ()
    frontier = [()]
    while frontier:
        new = []
        for sk in frontier:
            base = sum(space.dim_of(c) - 1 for c in sk)
            for cell in heavy_letters:
                if base + space.dim_of(cell) - 1 <= max_degree:
                    grown = sk + (cell,)
                    new.append(grown)
                    yield grown
        frontier = new


def old_segment_tuples(group_letters, k, budget):
    """ExtendedCobarComplex._segment_tuples."""
    if k == 0:
        for w in group_words(group_letters, budget):
            yield (w,)
        return
    for head in group_words(group_letters, budget):
        for tail in old_segment_tuples(group_letters, k - 1, budget - len(head)):
            yield (head,) + tail


def old_extended_words(space, max_degree, cutoff):
    """ExtendedCobarComplex._enumerate, budget cutoff - growth * degree."""
    group_letters = space.nondegenerate(1)
    heavy_letters = tuple(
        cell for m in space.dimensions() if m >= 2 for cell in space.nondegenerate(m)
    )
    g = old_growth(space)
    for sk in old_skeletons(space, heavy_letters, max_degree):
        degree = sum(space.dim_of(c) - 1 for c in sk)
        budget = cutoff - g * degree
        if budget < 0:
            continue
        for segs in old_segment_tuples(group_letters, len(sk), budget):
            parts = [segs[0]]
            for i, cell in enumerate(sk):
                parts.append(cell)
                parts.append(segs[i + 1])
            yield tuple(parts)


def old_cube_words(space, max_degree, max_length):
    """CubicalCobar._enumerate, plain: sliding cap on the grown word."""
    edges = tuple(space.nondegenerate(1))
    heavies = tuple(
        cell for m in space.dimensions() if m >= 2 for cell in space.nondegenerate(m)
    )

    def budget(degree):
        if max_length is None:
            return None
        return max_length + (max_degree - degree)

    yield ()
    frontier = [((), 0, 0)]
    while frontier:
        new = []
        for word, deg, length in frontier:
            for cell in edges + heavies:
                d = deg + space.dim_of(cell) - 1
                if d > max_degree:
                    continue
                cap = budget(d)
                if cap is not None and length + 1 > cap:
                    continue
                grown = word + (cell,)
                new.append((grown, d, length + 1))
                yield grown
        frontier = new


def old_signed_cube_words(space, max_degree, cutoff):
    """CubicalCobar._enumerate_signed with loopspace._segment_tuples."""
    edges = tuple(space.nondegenerate(1))
    heavies = tuple(
        cell for m in space.dimensions() if m >= 2 for cell in space.nondegenerate(m)
    )
    g = old_growth(space)
    skeletons = [()]
    frontier = [()]
    while frontier:
        new = []
        for sk in frontier:
            base = sum(space.dim_of(c) - 1 for c in sk)
            for cell in heavies:
                if base + space.dim_of(cell) - 1 <= max_degree:
                    grown = sk + (cell,)
                    new.append(grown)
                    skeletons.append(grown)
        frontier = new
    for sk in skeletons:
        degree = sum(space.dim_of(c) - 1 for c in sk)
        cap = cutoff - g * degree
        if cap < 0:
            continue
        for segs in old_segment_tuples(edges, len(sk), cap):
            parts = list(segs[0])
            for i, cell in enumerate(sk):
                parts.append((cell, 1))
                parts.extend(segs[i + 1])
            yield tuple(parts)


def by_degree(words, degree_of, max_degree):
    out = {n: [] for n in range(max_degree + 1)}
    for w in words:
        out[degree_of(w)].append(w)
    return {n: tuple(sorted(ws, key=repr)) for n, ws in out.items()}


def sorted_bases(bases, max_degree):
    """{degree: repr-sorted basis} of a stored window, as by_degree gives."""
    return {n: tuple(sorted(bases(n), key=repr)) for n in range(max_degree + 1)}


# --- models ---

def benchmark_models():
    s2s2s3 = wedge_models(
        wedge_models(sphere_model(2), sphere_model(2)), sphere_model(3)
    )
    return [
        collapsed_simplex(5, 2),
        collapsed_simplex(4, 1),
        s2s2s3,
        simplicial_model("rp2"),
    ]


def random_models():
    rng = random.Random(20261018)
    return [random_reduced_model(rng) for _ in range(6)]


MODELS = benchmark_models() + random_models()


def flat_degree(space, word):
    return sum(space.dim_of(c) - 1 for c in word)


def signed_degree(space, cell):
    return sum(space.dim_of(c) - 1 for c, _ in cell)


def flat(word):
    """An alternating word (g0, x1, g1, ..., xk, gk) of the old extended
    cobar, written flat as the localized words are stored now."""
    parts = list(word[0])
    for j in range(1, len(word), 2):
        parts.append((word[j], 1))
        parts.extend(word[j + 1])
    return tuple(parts)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_plain_windows_match_the_old_enumerators(index):
    space = MODELS[index]
    lengths = (1, 2, 3) if space.nondegenerate(1) else (None, 1, 2, 3)

    def deg(word):
        return flat_degree(space, word)

    for max_degree in range(4):
        for length in lengths:
            algebra = cobar(space, max_degree, max_length=length)
            want = by_degree(
                old_cobar_words(space, max_degree, length), deg, max_degree
            )
            got = sorted_bases(algebra.complex.basis_in, max_degree)
            assert got == want, (space.name, max_degree, length)
            omega = CubicalCobar(space, max_degree, max_length=length)
            want = by_degree(
                old_cube_words(space, max_degree, length), deg, max_degree
            )
            got = sorted_bases(omega.cubes.nondegenerate, max_degree)
            assert got == want, (space.name, max_degree, length)
            # the cobar on the cube model's sliding window, as the
            # certificate of Adams' map builds it
            algebra = CobarComplex(space, max_degree, budget=omega.budget)
            got = sorted_bases(algebra.complex.basis_in, max_degree)
            assert got == want, (space.name, max_degree, length)


ORDER_MODELS = MODELS + [sphere_model(2), sphere_model(3)]


def uncapped_size(space, alphabet, max_degree):
    """Words of degree <= max_degree in letters of degree >= 1, by the
    recurrence N(d) = sum over letters x of N(d - |x|)."""
    steps = [space.dim_of(cell) - 1 for cell in alphabet]
    counts = [1]
    for d in range(1, max_degree + 1):
        counts.append(sum(counts[d - s] for s in steps if s <= d))
    return sum(counts)


@pytest.mark.parametrize("index", range(len(ORDER_MODELS)))
def test_plain_words_match_the_breadth_first_oracle(index):
    # list for list, so the order is pinned too: shortest first, then
    # lexicographic in the letter order
    space = ORDER_MODELS[index]
    edges, heavies = letters(space)
    alphabet = edges + heavies
    for max_degree in range(7):
        budgets = [lambda d, c=c: c for c in range(5)]
        budgets += [lambda d, c=c, top=max_degree: c + top - d for c in range(4)]
        # the uncapped window of Delta^4 over its 1-skeleton holds 1.4
        # million words at degree 6, too many to build twice here
        if not edges and uncapped_size(space, alphabet, max_degree) <= 200_000:
            budgets.append(lambda d: None)
        for budget in budgets:
            want = words_oracle.plain_words(space, alphabet, max_degree, budget)
            got = plain_words(space, alphabet, max_degree, budget)
            assert got == want, (space.name, max_degree, budget(0))


@pytest.mark.parametrize("index", range(len(ORDER_MODELS)))
def test_plain_windows_count_their_words_before_listing_them(index):
    # a plain window knows its sizes from the bucket recurrence before it
    # lists a word; once listed, each degree holds exactly its size
    space = ORDER_MODELS[index]
    edges, heavies = letters(space)
    alphabet = edges + heavies
    for max_degree in range(7):
        budgets = [lambda d, c=c: c for c in range(5)]
        budgets += [lambda d, c=c, top=max_degree: c + top - d for c in range(4)]
        if not edges and uncapped_size(space, alphabet, max_degree) <= 200_000:
            budgets.append(lambda d: None)
        for budget in budgets:
            window = plain_words(space, alphabet, max_degree, budget)
            sizes = dict(window.sizes)
            assert list(window) == list(range(max_degree + 1))
            assert {d: len(ws) for d, ws in window.items()} == sizes, (
                space.name,
                max_degree,
                budget(0),
            )


def assert_index_is_the_listing(space, alphabet, max_degree, budget):
    """A plain window's `degree_of`, which answers by the cap rule, against
    the index of its listed words: each member with its degree, and none
    of the near misses."""
    window = plain_words(space, alphabet, max_degree, budget)
    stored = window.degree_of
    listed = {word: d for d, words in window.items() for word in words}
    where = (space.name, max_degree, [budget(d) for d in range(max_degree + 1)])
    for word, degree in listed.items():
        assert stored.get(word) == stored[word] == degree and word in stored, where
    unknown = object()
    # a letter that is not the window's, str and list keys, and words
    # above max_degree
    misses = [(unknown,), [], list(alphabet[:1]), "".join(map(str, alphabet))]
    misses += [str(cell) for cell in alphabet]
    for cell in alphabet:
        step = space.dim_of(cell) - 1
        if step:
            misses.append((cell,) * (max_degree // step + 1))
    for miss in misses:
        assert stored.get(miss) is None and miss not in stored, (where, miss)
        with pytest.raises(KeyError):
            stored[miss]
    for word, degree in listed.items():
        near = [word + (unknown,), (unknown,) + word, list(word)]
        cap = budget(degree)
        if cap is not None and len(word) == cap:
            # one letter over its cap, in its degree or in a higher one
            near += [word + (cell,) for cell in alphabet]
        for miss in near:
            assert stored.get(miss) is None and miss not in stored, (where, miss)
    # every word of at most three letters, stored or not, as the listing says
    if len(alphabet) <= 8:
        for length in range(4):
            for word in itertools.product(alphabet, repeat=length):
                assert stored.get(word) == listed.get(word), (where, word)
    # iteration and len go through the listed words
    assert dict(stored) == listed and len(stored) == len(listed), where


@pytest.mark.parametrize("index", range(len(ORDER_MODELS)))
def test_the_cap_index_of_every_window_is_its_listing(index):
    # the windows of the tests above, and negative budgets, which keep
    # no word of their degree
    space = ORDER_MODELS[index]
    edges, heavies = letters(space)
    alphabet = edges + heavies
    for max_degree in range(-1, 7):
        budgets = [lambda d, c=c: c for c in range(-1, 5)]
        budgets += [lambda d, c=c, top=max_degree: c + top - d for c in range(-2, 4)]
        if not edges and uncapped_size(space, alphabet, max_degree) <= 200_000:
            budgets.append(lambda d: None)
        for budget in budgets:
            assert_index_is_the_listing(space, alphabet, max_degree, budget)
        if edges:
            # the uncapped window of the heavy letters, as `localized_words`
            # builds its skeletons
            assert_index_is_the_listing(space, heavies, max_degree, lambda d: None)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    max_dim=st.integers(2, 4),
    max_degree=st.integers(-1, 4),
    kind=st.sampled_from(["fixed", "sliding", "uncapped"]),
    cap=st.integers(-3, 3),
)
def test_the_cap_index_is_the_listing_on_drawn_windows(seed, max_dim, max_degree, kind, cap):
    space = random_reduced_model(random.Random(seed), max_dim=max_dim)
    edges, heavies = letters(space)
    if kind == "uncapped":
        # without edges an uncapped window is finite
        alphabet, budget = heavies, lambda d: None
    elif kind == "fixed":
        alphabet, budget = edges + heavies, lambda d: cap
    else:
        alphabet, budget = edges + heavies, sliding_budget(cap, max_degree)
    assert_index_is_the_listing(space, alphabet, max_degree, budget)


def test_only_the_typeddict_deprecation_is_not_an_error():
    # hypothesis raises this one while it prints a falsifying example, and
    # as an error it would hide the example; every other warning still fails
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed", DeprecationWarning)
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)
    with pytest.raises(UserWarning):
        warnings.warn("mypy_extensions.TypedDict is deprecated", UserWarning)


def test_a_negative_budget_stores_no_word():
    # budget(0) < 0 leaves degree 0 empty, the empty word too, as in
    # `localized_words`; the budget never rises, so every degree is empty
    rp2 = simplicial_model("rp2")
    for algebra in (cobar(rp2, 1, max_length=-1), cubical_cobar(rp2, 1, max_length=-2).words):
        chains = algebra.complex
        assert chains.window.sizes == {0: 0, 1: 0} and chains.degrees() == []
        assert chains.window.nonempty() == {} and () not in chains._degree_of
    assert cubical_cobar(rp2, 1, max_length=-2).chains().degrees() == []


def test_a_miscounted_bucket_raises_at_the_first_key_read(monkeypatch):
    # a count one too high in a single bucket is kept while only sizes
    # are read, and raises as soon as the words are listed
    from chaintop import words as words_module

    real = words_module._count
    s2 = sphere_model(2)
    (x,) = s2.nondegenerate(2)

    def miscounted(pairs, bucket):
        # the bucket of length 2 and degree 2: x in front of the one
        # word of length 1 and degree 1 of the uncapped window of S2
        return real(pairs, bucket) + (list(pairs) == [(x, 1)] and bucket[1] == 1)

    monkeypatch.setattr(words_module, "_count", miscounted)
    message = "^window degree 2 lists 1 keys where its size is 2$"
    window = plain_words(s2, (x,), 2, lambda d: None)
    assert window.sizes == {0: 1, 1: 1, 2: 2} and 2 in window
    with pytest.raises(ValueError, match=message):
        window[0]
    algebra = cobar(s2, 2)
    assert algebra.complex.rank(2) == 2
    # a lookup goes by the cap rule and lists no word, so it answers;
    # the listing behind it raises, for each caller that lists
    assert algebra.complex.degree_of((x,)) == 1
    with pytest.raises(ValueError, match=message):
        algebra.complex.basis_in(1)
    with pytest.raises(ValueError, match=message):
        algebra.complex.window[2]
    with pytest.raises(ValueError, match=message):
        dict(algebra.complex._degree_of)


def test_a_budget_that_rises_with_degree_is_refused():
    # on RP2 with budget(0) = 0 and budget(1) = 2 the breadth-first
    # enumerator keeps (U, a) and a bucketed one (a, U); the window
    # "length <= budget(degree)" holds both, so neither is it
    rp2 = simplicial_model("rp2")
    edges, heavies = letters(rp2)
    rising = lambda d: 2 * d
    with pytest.raises(
        ValueError, match=r"budget rises with degree: budget\(0\) = 0, budget\(1\) = 2"
    ):
        plain_words(rp2, edges + heavies, 1, rising)
    with pytest.raises(ValueError, match="rises with degree"):
        CobarComplex(rp2, 2, budget=rising)
    s2 = sphere_model(2)
    with pytest.raises(
        ValueError, match=r"budget rises with degree: budget\(1\) = 1, budget\(2\) = None"
    ):
        plain_words(s2, s2.nondegenerate(2), 2, lambda d: 1 if d < 2 else None)
    # a rise above max_degree is never read; None before a number is a fall
    (x,) = s2.nondegenerate(2)
    assert plain_words(s2, (x,), 1, lambda d: 1 if d < 2 else 5) == {
        0: ((),),
        1: ((x,),),
    }
    assert plain_words(s2, (x,), 2, lambda d: None if d < 2 else 1) == {
        0: ((),),
        1: ((x,),),
        2: (),
    }


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_localized_windows_match_the_old_enumerators(index):
    space = MODELS[index]
    for max_degree in range(4):
        for cutoff in range(5):
            algebra = ExtendedCobarComplex(space, max_degree, cutoff)
            want = by_degree(
                map(flat, old_extended_words(space, max_degree, cutoff)),
                lambda w: signed_degree(space, w),
                max_degree,
            )
            got = sorted_bases(algebra.complex.basis_in, max_degree)
            assert got == want, (space.name, max_degree, cutoff)
            omega = CubicalCobar(space, max_degree, cutoff=cutoff)
            want = by_degree(
                old_signed_cube_words(space, max_degree, cutoff),
                lambda c: signed_degree(space, c),
                max_degree,
            )
            got = sorted_bases(omega.cubes.nondegenerate, max_degree)
            assert got == want, (space.name, max_degree, cutoff)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_windows_store_the_enumerators_order(index):
    # basis order is decided in chaintop.words alone: every window keeps
    # each degree exactly as plain_words or localized_words returns it
    space = MODELS[index]
    edges, heavies = letters(space)
    max_degree, length, cutoff = 3, 2, 3
    degrees = range(max_degree + 1)

    fixed = plain_words(space, edges + heavies, max_degree, lambda d: length)
    algebra = cobar(space, max_degree, max_length=length)
    for n in degrees:
        assert algebra.complex.basis_in(n) == tuple(fixed[n]), (space.name, n)

    sliding = plain_words(
        space, edges + heavies, max_degree, lambda d: length + max_degree - d
    )
    omega = CubicalCobar(space, max_degree, max_length=length)
    algebra = CobarComplex(space, max_degree, budget=omega.budget)
    for n in degrees:
        assert algebra.complex.basis_in(n) == tuple(sliding[n]), (space.name, n)
        assert omega.cubes.nondegenerate(n) == tuple(sliding[n]), (space.name, n)

    g = growth(space)
    localized = localized_words(
        space, edges, heavies, max_degree, lambda d: cutoff - g * d
    )
    algebra = ExtendedCobarComplex(space, max_degree, cutoff)
    omega = CubicalCobar(space, max_degree, cutoff=cutoff)
    for n in degrees:
        assert algebra.complex.basis_in(n) == tuple(localized[n]), (space.name, n)
        assert omega.cubes.nondegenerate(n) == tuple(localized[n]), (space.name, n)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_no_window_repeats_a_word(index):
    # a window is stored unchecked: the enumerators check only that their
    # letters are distinct, so each window is held here to distinct words
    space = MODELS[index]
    edges, heavies = letters(space)
    g = growth(space)
    for max_degree in range(4):
        for length in (1, 2, 3):
            windows = {
                "fixed": plain_words(space, edges + heavies, max_degree, lambda d: length),
                "sliding": plain_words(
                    space, edges + heavies, max_degree, sliding_budget(length, max_degree)
                ),
                "localized": localized_words(
                    space, edges, heavies, max_degree, localized_budget(length, g)
                ),
            }
            if not edges:
                windows["uncapped"] = plain_words(
                    space, heavies, max_degree, lambda d: None
                )
            for kind, window in windows.items():
                listed = [word for words in window.values() for word in words]
                assert len(set(listed)) == len(listed), (space.name, max_degree, kind)
                sizes = {d: len(words) for d, words in window.items()}
                assert window.sizes == sizes, (space.name, max_degree, kind)


def test_a_letter_given_twice_is_refused():
    rp2 = simplicial_model("rp2")
    edges, heavies = letters(rp2)
    a, U = edges[0], heavies[0]
    with pytest.raises(ValueError, match=f"^letter listed twice: {a!r}$"):
        plain_words(rp2, edges + (a,) + heavies, 2, lambda d: 2)
    with pytest.raises(ValueError, match=f"^letter listed twice: {U!r}$"):
        plain_words(rp2, (U,) + edges + heavies, 2, lambda d: 2)
    with pytest.raises(ValueError, match=f"^letter listed twice: {a!r}$"):
        localized_words(rp2, edges + (a,), heavies, 1, lambda d: 1 - d)
    # an edge that is also a heavy letter would make a flat word split two ways
    with pytest.raises(ValueError, match=f"^letter listed twice: {a!r}$"):
        localized_words(rp2, edges, heavies + (a,), 1, lambda d: 1 - d)


def test_letters_split_and_growth_rule():
    rp2 = simplicial_model("rp2")
    edges, heavies = letters(rp2)
    assert len(edges) == 2 and len(heavies) == 2
    assert growth(rp2) == 2
    # edges but no 2-cells: one boundary term adds at most one group letter
    s1s3 = wedge_models(sphere_model(1), sphere_model(3))
    assert growth(s1s3) == 1 == old_growth(s1s3)
    assert growth(sphere_model(3)) == 0
    assert letters(sphere_model(3)) == ((), tuple(sphere_model(3).nondegenerate(3)))
    with pytest.raises(ValueError, match="not reduced"):
        letters(standard_simplex(2))


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_stored_top_counts_only_degrees_the_cap_leaves_whole(index):
    # a degree above the top nonempty one is whole when the capped window
    # holds every word the uncapped one has there; with edges no degree
    # is, since the uncapped window is infinite
    space = MODELS[index]
    edges, heavies = letters(space)
    for max_degree in range(5):
        every = None if edges else plain_words(space, heavies, max_degree, lambda d: None)
        for length in (1, 2, 3) if edges else (None, 1, 2, 3):
            fixed = lambda d: length
            sliding = lambda d: None if length is None else length + max_degree - d
            tops = []
            for budget in (fixed, sliding):
                words = plain_words(space, edges + heavies, max_degree, budget)
                whole = max((d for d, ws in words.items() if ws), default=-1)
                while every and whole < max_degree and len(words[whole + 1]) == len(every[whole + 1]):
                    whole += 1
                top = stored_top(words.sizes, edges, budget)
                assert top <= whole, (space.name, max_degree, length)
                if length is None:
                    assert top == max_degree
                tops.append(top)
            assert cobar(space, max_degree, max_length=length).complex.max_degree == tops[0]
            omega = CubicalCobar(space, max_degree, max_length=length)
            assert omega.chains().max_degree == tops[1]


def test_budget_bounds_each_degree():
    s2 = sphere_model(2)
    (x,) = s2.nondegenerate(2)
    assert plain_words(s2, (x,), 3, lambda d: None) == {
        0: ((),),
        1: ((x,),),
        2: ((x, x),),
        3: ((x, x, x),),
    }
    # a cap of one word letter keeps only the degree-1 letter
    assert plain_words(s2, (x,), 3, lambda d: 1) == {0: ((),), 1: ((x,),), 2: (), 3: ()}
    rp2 = simplicial_model("rp2")
    edges, heavies = letters(rp2)
    words = localized_words(rp2, edges, heavies, 1, lambda d: 2 - 2 * d)
    # degree 0: the 17 reduced words in two letters of length <= 2;
    # degree 1: budget 0, so one bare heavy letter each
    assert len(words[0]) == 17
    assert sorted(words[1], key=repr) == sorted(
        [((cell, 1),) for cell in heavies], key=repr
    )
    assert localized_words(rp2, edges, heavies, 1, lambda d: -1) == {0: (), 1: ()}


@pytest.mark.parametrize(
    "max_degree, max_length, degrees",
    [
        (4, 2, {0: 127, 1: 258, 2: 124, 3: 8}),
        (2, 3, {0: 63, 1: 98, 2: 28}),
        (3, 2, {0: 63, 1: 98, 2: 28}),
        (1, 4, {0: 63, 1: 98}),
        (2, 4, {0: 127, 1: 258, 2: 124}),
        (5, 1, {0: 127, 1: 258, 2: 124, 3: 8}),
    ],
)
def test_certificate_windows_have_the_recurrence_counts(
    max_degree, max_length, degrees
):
    # counts from N(d, l) = sum over letters x of N(d - |x|, l - 1) with the
    # sliding cap max_length + max_degree - d, computed independently; the
    # cobar of the same window counts them before it lists a word
    rp2 = simplicial_model("rp2")
    result = phi_certificate(rp2, max_degree, max_length)
    assert result["degrees"] == degrees
    budget = sliding_budget(max_length, max_degree)
    window = CobarComplex(rp2, max_degree, budget=budget).complex.window
    assert {d: window.sizes[d] for d in degrees} == degrees
