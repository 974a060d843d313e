"""Weyl group combinatorics: words, cosets, Bruhat order, cocharacter data."""

import itertools
import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipstrata import cache_stats, weyl
from zipstrata.rootsys import (
    dot,
    neg,
    pairing,
    root_system,
    unit,
    vec,
)
from zipstrata.weyl import (
    CocharacterDatum,
    WeylGroup,
    cocharacter_datum,
    compose,
    identity_perm,
    inverse,
    weyl_group,
)

from helpers import (
    clear_caches,
    compose_all,
    eo_same_stratum,
    in_min_coset_reps,
    is_reduced,
    left_descents,
    min_double_coset_reps,
    reference_longest_in,
    reference_min_in_double_coset,
    reference_reduced_word,
    right_descents,
    subgroup_elements,
)

GROUPS = [("A", 3), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("D", 5)]


def wg(cartan_type: str, rank: int) -> WeylGroup:
    return WeylGroup(root_system(cartan_type, rank))


# -- generators and relations ----------------------------------------------


@pytest.mark.parametrize("cartan_type,rank", GROUPS)
def test_simple_reflections_are_involutions(cartan_type: str, rank: int) -> None:
    g = wg(cartan_type, rank)
    for i in range(1, rank + 1):
        s = g.simple_reflection(i)
        assert compose(s, s) == g.identity()
        assert g.length(s) == 1


_WORD_GROUPS = (
    [("A", r) for r in range(1, 7)]
    + [(t, r) for t in "BC" for r in range(1, 6)]
    + [("D", r) for r in range(2, 6)]
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_words_and_reflections_are_their_slot_swaps(data) -> None:
    """Each simple reflection is the transposition of its ``simple_swaps``,
    and ``from_word`` is the fold of ``compose`` over the word's simple
    reflections; the first letter outside 1..rank raises the message it
    always has."""
    cartan_type, rank = data.draw(st.sampled_from(_WORD_GROUPS))
    g = weyl_group(cartan_type, rank)
    for i, swaps in enumerate(g.system.simple_swaps, start=1):
        expected = list(range(1, g.slots + 1))
        for a, b in swaps:
            expected[a], expected[b] = b + 1, a + 1
        assert g.simple_reflection(i) == tuple(expected)
    word = data.draw(st.lists(st.integers(1, rank), max_size=16))
    bad = data.draw(st.one_of(st.none(), st.sampled_from((0, -1, rank + 1, rank + 7))))
    if bad is None:
        fold = compose_all([g.simple_reflection(i) for i in word], g.slots)
        assert g.from_word(word) == fold
        return
    word.insert(data.draw(st.integers(0, len(word))), bad)
    message = re.escape(f"simple reflection index {bad} out of range")
    with pytest.raises(ValueError, match=message):
        g.from_word(word)
    with pytest.raises(ValueError, match=message):
        g.simple_reflection(bad)


@pytest.mark.parametrize("cartan_type,rank", GROUPS)
def test_coxeter_orders_match_cartan_matrix(cartan_type: str, rank: int) -> None:
    """(s_i s_j) has order 2, 3, 4 or 6 depending on the Cartan entry product."""
    g = wg(cartan_type, rank)
    system = g.system
    order_of_product = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            a_ij = pairing(system.simple(j), system.simple(i))
            a_ji = pairing(system.simple(i), system.simple(j))
            expected = order_of_product[int(a_ij * a_ji)]
            prod = compose(g.simple_reflection(i), g.simple_reflection(j))
            power = g.identity()
            order = 0
            while True:
                power = compose(power, prod)
                order += 1
                if power == g.identity():
                    break
                assert order <= 6
            assert order == expected


# -- lengths and the longest element ---------------------------------------


@pytest.mark.parametrize("cartan_type,rank", GROUPS)
def test_longest_element_properties(cartan_type: str, rank: int) -> None:
    g = wg(cartan_type, rank)
    w0 = g.longest_element()
    assert g.length(w0) == len(g.system.positive_roots)
    assert compose(w0, w0) == g.identity()
    assert right_descents(g, w0) == tuple(range(1, rank + 1))


def test_longest_element_minus_one_cases() -> None:
    """For B, C and even D the longest element is the slot reversal."""
    for cartan_type, rank in [("B", 3), ("C", 3), ("D", 4)]:
        g = wg(cartan_type, rank)
        n = g.slots
        assert g.longest_element() == tuple(range(n, 0, -1))
        for i in range(1, rank + 1):
            e_i = unit(g.system.ambient_dim, i)
            assert g.act(g.longest_element(), e_i) == vec(*(-c for c in e_i))


@pytest.mark.parametrize("cartan_type", "ABCD")
def test_longest_element_and_order_keep_their_former_closed_forms(
    cartan_type: str,
) -> None:
    """At every rank up to the ceiling, ``longest_element`` (stripped from
    the identity) is the slot reversal, with D's middle pair kept at odd
    rank, and ``group_order`` (read off the Cartan matrix) is (r+1)! in type
    A, 2^r r! in B and C and 2^(r-1) r! in D."""
    orders = {
        "A": lambda r: factorial(r + 1),
        "B": lambda r: 2**r * factorial(r),
        "C": lambda r: 2**r * factorial(r),
        "D": lambda r: 2 ** (r - 1) * factorial(r),
    }
    try:
        for rank in range(2 if cartan_type == "D" else 1, 65):
            g = weyl_group(cartan_type, rank)
            expected = list(range(g.slots, 0, -1))
            if cartan_type == "D" and rank % 2:
                expected[rank - 1], expected[rank] = rank, rank + 1
            assert g.longest_element() == tuple(expected), rank
            assert g.group_order() == orders[cartan_type](rank), rank
    finally:
        clear_caches()


def test_longest_element_d_odd_fixes_last_axis() -> None:
    g = wg("D", 3)
    w0 = g.longest_element()
    e3 = unit(3, 3)
    assert g.act(w0, e3) == e3
    assert g.act(w0, unit(3, 1)) == vec(-1, 0, 0)


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 2), ("D", 4)])
def test_length_symmetries(cartan_type: str, rank: int) -> None:
    g = wg(cartan_type, rank)
    w0 = g.longest_element()
    rng = random.Random(11)
    for _ in range(40):
        word = [rng.randrange(1, rank + 1) for _ in range(rng.randrange(0, 9))]
        w = g.from_word(word)
        assert g.length(w) == g.length(inverse(w))
        assert g.length(compose(w0, w)) == g.length(w0) - g.length(w)


@pytest.mark.parametrize("cartan_type,rank", GROUPS)
def test_reduced_word_round_trip(cartan_type: str, rank: int) -> None:
    g = wg(cartan_type, rank)
    rng = random.Random(5)
    for _ in range(30):
        word = [rng.randrange(1, rank + 1) for _ in range(rng.randrange(0, 10))]
        w = g.from_word(word)
        rw = g.reduced_word(w)
        assert len(rw) == g.length(w)
        assert g.from_word(rw) == w
        assert is_reduced(g, rw)


@pytest.mark.parametrize(
    "cartan_type,rank,perm",
    [
        ("C", 2, (2, 1, 3, 4)),  # one transposition: not a signed permutation
        ("C", 2, (1, 2, 3, 4, 5)),  # five slots for a group acting on four
        ("B", 2, (2, 1, 3, 4, 5)),
        ("B", 2, (1, 3, 2, 4, 5)),  # stripping this one cycles without end
        ("D", 3, (1, 2, 4, 3, 5, 6)),  # a single sign change lies outside W(D3)
        ("A", 2, (1, 1, 3)),
    ],
)
def test_reduced_word_rejects_a_permutation_outside_the_group(
    cartan_type: str, rank: int, perm: tuple
) -> None:
    """None of these is a group element. Stripping descents would stall away
    from the identity, cycle, or index past the slots; each must raise
    instead of returning a word."""
    with pytest.raises(ValueError, match="not an element"):
        weyl_group(cartan_type, rank).reduced_word(perm)


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=8))
@settings(max_examples=60, deadline=None)
def test_word_length_parity_and_bound(word: list) -> None:
    """Multiplying by a generator changes length by exactly one."""
    g = wg("B", 3)
    w = g.from_word(word)
    assert g.length(w) <= len(word)
    assert (g.length(w) - len(word)) % 2 == 0


# The root-theoretic definitions that slot order replaces, kept as references:
# an element's length and descents counted by pushing roots through ``act``.
SMALL_GROUPS = (
    [("A", r) for r in range(1, 5)]
    + [("B", r) for r in range(1, 5)]
    + [("C", r) for r in range(1, 5)]
    + [("D", r) for r in range(2, 6)]
)


def first_nonzero_sign(v) -> int:
    """A root is positive exactly when its first nonzero coordinate is."""
    for a in v:
        if a != 0:
            return 1 if a > 0 else -1
    return 0


def _negative(g: WeylGroup, w, root) -> bool:
    return first_nonzero_sign(g.act(w, root)) < 0


@pytest.mark.parametrize("cartan_type,rank", SMALL_GROUPS)
def test_slot_order_matches_the_action_on_roots(cartan_type: str, rank: int) -> None:
    """D2 has the fork pair (1, 3) as its second simple root, so a wrong last
    simple pair shows there first."""
    g = wg(cartan_type, rank)
    simple = [g.system.simple(i) for i in range(1, rank + 1)]
    for w in g.elements():
        length = sum(1 for a in g.system.positive_roots if _negative(g, w, a))
        right = tuple(i for i, a in enumerate(simple, start=1) if _negative(g, w, a))
        left = tuple(
            i for i, a in enumerate(simple, start=1) if _negative(g, inverse(w), a)
        )
        assert g.length(w) == length, w
        assert right_descents(g, w) == right, w
        assert left_descents(g, w) == left, w


# -- enumeration and orders -------------------------------------------------


@pytest.mark.parametrize(
    "cartan_type,rank,order",
    [("A", 3, 24), ("B", 3, 48), ("C", 2, 8), ("D", 3, 24), ("D", 4, 192)],
)
def test_group_order_matches_enumeration(cartan_type: str, rank: int, order: int) -> None:
    """``elements`` lists each element once, the same ones as a breadth-first
    search over the simple reflections."""
    g = wg(cartan_type, rank)
    assert g.group_order() == order
    assert len(g.elements()) == order
    assert set(g.elements()) == set(subgroup_elements(g, range(1, rank + 1)))


def test_enumeration_cap_is_enforced(monkeypatch) -> None:
    """W is the cosets of no letter, so a group above ``ENUMERATION_CAP`` is
    refused before the identity, its first element, is built."""
    def refuse(*args):
        raise AssertionError("started enumerating")

    monkeypatch.setattr(WeylGroup, "identity", refuse)
    with pytest.raises(ValueError, match=f"refusing to enumerate {factorial(9)} cosets"):
        wg("A", 8).elements()


_PARABOLIC_GROUPS = (
    [(t, r) for t in "AC" for r in range(1, 6)]
    + [(t, r) for t in "BD" for r in range(2, 6)]
)


@pytest.mark.parametrize("cartan_type,rank", _PARABOLIC_GROUPS)
def test_parabolic_order_counts_the_subgroup_and_its_cosets(
    cartan_type: str, rank: int
) -> None:
    """For every letter set I, |W_I| read off I's Dynkin components is the
    number of elements of W_I, and |W| / |W_I| the number of minimal coset
    representatives."""
    g = weyl_group(cartan_type, rank)
    for k in range(rank + 1):
        for I in itertools.combinations(range(1, rank + 1), k):
            order = g.parabolic_order(I)
            assert order == len(subgroup_elements(g, I)), I
            assert g.group_order() // order == len(g.min_coset_reps(I)), I


@pytest.mark.parametrize("cartan_type,rank,I,count", [
    ("A", 8, (), factorial(9)),
    ("D", 9, (1,), 2**8 * factorial(9) // 2),
    ("C", 64, tuple(range(1, 63)), 2**64 * 64),
])
def test_min_coset_reps_above_the_cap_are_refused_before_enumerating(
    cartan_type: str, rank: int, I: tuple, count: int, monkeypatch
) -> None:
    """More than ``ENUMERATION_CAP`` representatives are refused before the
    identity, the first of them, is built."""
    def refuse(*args):
        raise AssertionError("started enumerating")

    monkeypatch.setattr(WeylGroup, "identity", refuse)
    with pytest.raises(ValueError, match=f"refusing to enumerate {count} cosets"):
        weyl_group(cartan_type, rank).min_coset_reps(I)


# -- minimal coset representatives ------------------------------------------


def chain_label_word(cartan_type: str, m: int, d: int) -> tuple:
    """Reduced word of the d-th minimal coset representative for I = {2..m}.

    The chain starts at the identity (d = 0), walks down the simple string
    to the last node, and for types B and C turns around and walks back;
    type D branches at the fork and has two words of length m - 1.
    """
    if cartan_type in ("B", "C"):
        if d <= m:
            return tuple(range(1, d + 1))
        return tuple(range(1, m + 1)) + tuple(range(m - 1, 2 * m - d - 1, -1))
    if d <= m - 2:
        return tuple(range(1, d + 1))
    return tuple(range(1, m - 1)) + (m,) + tuple(range(m - 1, 2 * m - d - 2, -1))


@pytest.mark.parametrize("cartan_type,m", [("B", 3), ("B", 4), ("C", 3), ("D", 4), ("D", 5)])
def test_min_coset_reps_chain_cases(cartan_type: str, m: int) -> None:
    g = wg(cartan_type, m)
    I = tuple(range(2, m + 1))
    reps = g.min_coset_reps(I)
    assert len(reps) == g.group_order() // len(subgroup_elements(g, I))
    assert len(reps) == 2 * m
    expected = {g.identity()}
    top = 2 * m - 1 if cartan_type in ("B", "C") else 2 * m - 2
    for d in range(1, top + 1):
        expected.add(g.from_word(chain_label_word(cartan_type, m, d)))
    if cartan_type == "D":
        expected.add(g.from_word(tuple(range(1, m - 1)) + (m - 1,)))
        expected.add(g.from_word(tuple(range(1, m - 1)) + (m,)))
    assert set(reps) == expected
    assert next(iter(reps)) == g.identity()
    for u in reps:
        assert in_min_coset_reps(g, u, I)


def test_min_coset_reps_siegel_count() -> None:
    for n in (2, 3, 4):
        g = wg("C", n)
        reps = g.min_coset_reps(tuple(range(1, n)))
        assert len(reps) == 2**n


def test_min_coset_reps_sorted_by_length() -> None:
    g = wg("B", 3)
    reps = g.min_coset_reps((2, 3))
    lengths = [g.length(u) for u in reps]
    assert lengths == sorted(lengths)


def test_unique_parabolic_factorization() -> None:
    """Every element is w_I * u with w_I in W_I and u a minimal coset rep."""
    g = wg("B", 2)
    I = (2,)
    reps = g.min_coset_reps(I)
    seen = set()
    for w_i in subgroup_elements(g, I):
        for u in reps:
            w = compose(w_i, u)
            assert w not in seen
            seen.add(w)
            assert g.length(w) == g.length(w_i) + g.length(u)
    assert len(seen) == g.group_order()


# -- double cosets -----------------------------------------------------------


def test_min_double_coset_reps_orthogonal_case() -> None:
    """The standard orthogonal datum has exactly three two-sided classes."""
    g = wg("B", 3)
    datum = cocharacter_datum(g, (1, 0, 0))
    reps = min_double_coset_reps(g, datum.I, datum.J)
    assert set(reps) == {g.identity(), g.simple_reflection(1), datum.z}


def test_min_double_coset_reps_siegel_count() -> None:
    for n in (2, 3):
        g = wg("C", n)
        I = tuple(range(1, n))
        assert len(min_double_coset_reps(g, I, I)) == n + 1


@pytest.mark.parametrize("cartan_type,rank,I,J", [("B", 2, (2,), (2,)), ("B", 3, (2, 3), (2, 3))])
def test_min_in_double_coset_matches_brute_force(
    cartan_type: str, rank: int, I: tuple, J: tuple
) -> None:
    g = wg(cartan_type, rank)
    left = subgroup_elements(g, I)
    right = subgroup_elements(g, J)
    for w in g.elements():
        coset = {compose_all([a, w, b], g.slots) for a in left for b in right}
        shortest = min(coset, key=g.length)
        assert g.min_in_double_coset(w, I, J) == shortest


# -- descent stripping against recompute-everything references ----------------
# Each reference step recomputes all left or right descents and takes the first
# usable one; the library tests only the letters it may strip.


def _reference_reduced_word(g: WeylGroup, w) -> tuple:
    word = []
    while w != g.identity():
        i = left_descents(g, w)[0]
        word.append(i)
        w = compose(g.simple_reflection(i), w)
    return tuple(word)


def _reference_min_coset_reps(g: WeylGroup, I) -> tuple:
    seen = {g.identity()}
    frontier = [g.identity()]
    while frontier:
        nxt = []
        for u in frontier:
            descents = right_descents(g, u)
            for j in range(1, g.rank + 1):
                if j not in descents:
                    v = compose(u, g.simple_reflection(j))
                    if v not in seen and set(I).isdisjoint(left_descents(g, v)):
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return tuple(sorted(seen, key=lambda u: (g.length(u), _reference_reduced_word(g, u))))


def _reference_min_in_double_coset(g: WeylGroup, w, I, J):
    while True:
        descents = left_descents(g, w)
        left = [i for i in I if i in descents]
        if left:
            w = compose(g.simple_reflection(left[0]), w)
            continue
        descents = right_descents(g, w)
        right = [j for j in J if j in descents]
        if right:
            w = compose(w, g.simple_reflection(right[0]))
            continue
        return w


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_descent_kernels_match_the_references(data) -> None:
    """Random elements of types A-D up to rank 5, and random letter lists
    I and J (order and repeats kept, since the first usable letter wins)."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=3 if cartan_type == "D" else 1, max_value=5))
    g = weyl_group(cartan_type, rank)
    letter = st.integers(min_value=1, max_value=rank)
    w = g.from_word(data.draw(st.lists(letter, max_size=3 * rank * rank)))
    I = tuple(data.draw(st.lists(letter, max_size=rank)))
    J = tuple(data.draw(st.lists(letter, max_size=rank)))
    assert g.reduced_word(w) == _reference_reduced_word(g, w)
    assert in_min_coset_reps(g, w, I) == set(I).isdisjoint(left_descents(g, w))
    assert g.min_in_double_coset(w, I, J) == _reference_min_in_double_coset(g, w, I, J)
    if g.group_order() <= 400:
        assert tuple(g.min_coset_reps(I)) == _reference_min_coset_reps(g, sorted(set(I)))


_COSET_GROUPS = (
    [("A", r) for r in range(1, 6)]
    + [(t, r) for t in "BC" for r in range(2, 5)]
    + [("D", r) for r in range(3, 6)]
)


@pytest.mark.parametrize("cartan_type,rank", _COSET_GROUPS)
def test_min_coset_reps_match_the_reference_for_every_letter_set(
    cartan_type: str, rank: int
) -> None:
    """Every subset I, the empty set and all letters included. Type A has no
    mirrored slot pairs: blocking them as in types B-D drops
    representatives."""
    g = weyl_group(cartan_type, rank)
    letters = range(1, rank + 1)
    for k in range(rank + 1):
        for I in itertools.combinations(letters, k):
            assert tuple(g.min_coset_reps(I)) == _reference_min_coset_reps(g, I), I



_WORD_GROUPS = (
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(1, 6)]
    + [("D", r) for r in range(2, 6)]
)


@pytest.mark.parametrize("cartan_type,rank", _WORD_GROUPS)
def test_coset_words_are_the_stripped_reduced_words(cartan_type: str, rank: int) -> None:
    """The word the enumeration hands out with each representative is the
    one ``reduced_word`` strips, on every letter set of the group (244 sets
    and 71438 representatives over all the groups); the map is read-only."""
    g = weyl_group(cartan_type, rank)
    for k in range(rank + 1):
        for I in itertools.combinations(range(1, rank + 1), k):
            for u, word in g.min_coset_reps(I).items():
                assert word == g.reduced_word(u), (I, u)
    with pytest.raises(TypeError):
        g.min_coset_reps(())[g.identity()] = ()


# -- the in-place kernels against the one-tuple-per-step references ----------

_KERNEL_GROUPS = (
    [("A", r) for r in range(1, 5)]
    + [(t, r) for t in "BC" for r in range(2, 5)]
    + [("D", 3), ("D", 4)]
)


def _letter_sets(rank: int) -> list:
    """Every letter set of size at most two, and every set of all letters
    but one."""
    letters = range(1, rank + 1)
    sets = [()] + [tuple(c) for k in (1, 2) for c in itertools.combinations(letters, k)]
    sets += [tuple(j for j in letters if j != i) for i in letters]
    return list(dict.fromkeys(sets))


@pytest.mark.parametrize("cartan_type,rank", _KERNEL_GROUPS)
def test_in_place_kernels_equal_the_tuple_references(cartan_type: str, rank: int) -> None:
    """``reduced_word``, ``longest_in`` and ``min_in_double_coset`` on every
    element, against copies of the kernels that build one tuple per step;
    every pair of letter sets at rank three and below, and at rank four every
    set against the empty set, itself and each set of all letters but one."""
    g = wg(cartan_type, rank)
    sets = _letter_sets(rank)
    if rank <= 3:
        pairs = [(I, J) for I in sets for J in sets]
    else:
        ends = [()] + sets[-rank:]
        pairs = list(dict.fromkeys(
            [(I, J) for I in sets for J in ends + [I]]
            + [(I, J) for I in ends for J in sets]
        ))
    for I in sets:
        assert g.longest_in(I) == reference_longest_in(g, I)
    for w in g.elements():
        assert g.reduced_word(w) == reference_reduced_word(g, w)
        for I, J in pairs:
            assert g.min_in_double_coset(w, I, J) == reference_min_in_double_coset(
                g, w, I, J
            )


def _sign_change(m: int, k: int) -> tuple:
    """The signed permutation of D_m's 2m slots that swaps e_k with -e_k."""
    n = 2 * m
    return tuple(n + 1 - x if x in (k, n + 1 - k) else x for x in range(1, n + 1))


# Every single sign change of D2-D6: a signed permutation, so it passes the
# mirror check, but outside W(D), so stripping ends away from the identity.
SINGLE_SIGN_CHANGES = [
    ("D", m, _sign_change(m, k)) for m in range(2, 7) for k in range(1, m + 1)
]


@pytest.mark.parametrize(
    "cartan_type,rank,perm",
    [
        ("C", 2, (2, 1, 3, 4)),
        ("C", 2, (1, 2, 3, 4, 5)),
        ("B", 2, (1, 3, 2, 4, 5)),
        ("D", 3, (1, 2, 4, 3, 5, 6)),
        ("A", 2, (1, 1, 3)),
        ("A", 2, (1, 2, 4)),
    ] + SINGLE_SIGN_CHANGES,
)
def test_kernels_refuse_a_tuple_outside_the_group(
    cartan_type: str, rank: int, perm: tuple
) -> None:
    """``reduced_word`` raises as the reference does; ``min_in_double_coset``
    now checks its element too, where the reference strips a non-element
    as if it were one."""
    g = weyl_group(cartan_type, rank)
    with pytest.raises(ValueError, match="not an element") as reference:
        reference_reduced_word(g, perm)
    with pytest.raises(ValueError, match="not an element") as raised:
        g.reduced_word(perm)
    assert str(raised.value) == str(reference.value)
    with pytest.raises(ValueError, match="not an element"):
        g.min_in_double_coset(perm, (1,), (2,))


@pytest.mark.parametrize("cartan_type,rank,perm", [
    ("B", 2, (1, 3, 2, 4, 5)),
    ("B", 3, (1, 2, 4, 3, 5, 6, 7)),
    ("C", 2, (1, 2, 4, 3)),
    ("D", 3, (2, 1, 3, 4, 5, 6)),
])
def test_a_tuple_off_the_mirror_is_refused_before_any_stripping(
    monkeypatch, cartan_type: str, rank: int, perm: tuple
) -> None:
    """A slot permutation that does not commute with the mirror raises
    without reading a single slot swap: in type B stripping such a tuple
    would never end."""
    g = weyl_group(cartan_type, rank)
    monkeypatch.setattr(g.system, "simple_swaps", None)
    with pytest.raises(ValueError, match="not an element"):
        g.reduced_word(perm)


@pytest.mark.parametrize("I,J", [((0,), ()), ((1, 5), ()), ((), (2, 4)), ((4,), (0,))])
def test_kernels_refuse_letters_out_of_range_as_the_references_do(I, J) -> None:
    g = weyl_group("B", 3)
    w = g.longest_element()
    calls = [
        (lambda: g.min_in_double_coset(w, I, J),
         lambda: reference_min_in_double_coset(g, w, I, J)),
        (lambda: g.longest_in(I + J), lambda: reference_longest_in(g, I + J)),
    ]
    for new, old in calls:
        with pytest.raises(ValueError, match="out of range") as reference:
            old()
        with pytest.raises(ValueError, match="out of range") as raised:
            new()
        assert str(raised.value) == str(reference.value)


def test_coset_letters_out_of_range_are_rejected() -> None:
    g = weyl_group("B", 3)
    for I in [(0,), (4,), (1, 2, 4)]:
        with pytest.raises(ValueError, match="out of range"):
            g.min_coset_reps(I)


# -- Bruhat order -------------------------------------------------------------


def bruhat_leq(g: WeylGroup, u, w) -> bool:
    """Bruhat order by the left-descent recursion: strip the first left
    descent s of w, and of u too when it is one of u's."""
    if u == g.identity():
        return True
    if g.length(u) > g.length(w):
        return False
    i = left_descents(g, w)[0]
    sw = compose(g.simple_reflection(i), w)
    if i in left_descents(g, u):
        return bruhat_leq(g, compose(g.simple_reflection(i), u), sw)
    return bruhat_leq(g, u, sw)


def bruhat_leq_by_subwords(g: WeylGroup, u, w) -> bool:
    """Subword characterization: u is below w when some subsequence of a
    reduced word for w multiplies to u."""
    rw = g.reduced_word(w)
    for r in range(len(rw) + 1):
        for positions in itertools.combinations(range(len(rw)), r):
            if g.from_word([rw[p] for p in positions]) == u:
                return True
    return False


def test_bruhat_order_exhaustive_rank_two() -> None:
    g = wg("B", 2)
    for u in g.elements():
        for w in g.elements():
            assert bruhat_leq(g, u, w) == bruhat_leq_by_subwords(g, u, w)


def test_bruhat_order_sampled_rank_three() -> None:
    g = wg("B", 3)
    rng = random.Random(23)
    elements = g.elements()
    for _ in range(120):
        u = rng.choice(elements)
        w = rng.choice(elements)
        assert bruhat_leq(g, u, w) == bruhat_leq_by_subwords(g, u, w)


def test_bruhat_order_basic_facts() -> None:
    g = wg("C", 3)
    w0 = g.longest_element()
    for w in (g.identity(), g.from_word((1, 2)), g.from_word((3, 2, 3))):
        assert bruhat_leq(g, g.identity(), w)
        assert bruhat_leq(g, w, w0)
        assert bruhat_leq(g, w, w)


def test_bruhat_incomparable_fork_pair() -> None:
    """In D_4 the two branch representatives of length m - 1 are incomparable."""
    g = wg("D", 4)
    a = g.from_word((1, 2, 3))
    b = g.from_word((1, 2, 4))
    assert not bruhat_leq(g, a, b)
    assert not bruhat_leq(g, b, a)


# -- cocharacter data ----------------------------------------------------------


def test_cocharacter_datum_orthogonal_odd() -> None:
    g = wg("B", 3)
    datum = cocharacter_datum(g, (1, 0, 0))
    assert datum.I == (2, 3)
    assert datum.J == (2, 3)
    assert datum.z == (7, 2, 3, 4, 5, 6, 1)
    assert compose(datum.z, datum.z) == g.identity()


def test_cocharacter_datum_siegel() -> None:
    g = wg("C", 2)
    datum = cocharacter_datum(g, (1, 1))
    assert datum.I == (1,)
    assert datum.J == (1,)
    assert datum.z == (3, 4, 1, 2)
    assert datum.z == g.from_word((2, 1, 2))


def test_cocharacter_datum_unitary_dual_pair() -> None:
    """Signature (3, 1) on four coordinates swaps the two parabolic types."""
    g = wg("A", 3)
    datum = cocharacter_datum(g, (1, 1, 1, 0))
    assert datum.I == (1, 2)
    assert datum.J == (2, 3)
    assert datum.z == (4, 1, 2, 3)


def test_cocharacter_datum_exterior_square() -> None:
    g = wg("A", 3)
    datum = cocharacter_datum(g, (1, 1, 0, 0))
    assert datum.I == (1, 3)
    assert datum.J == (1, 3)
    assert datum.z == (3, 4, 1, 2)


def test_cocharacter_datum_even_orthogonal() -> None:
    g = wg("D", 4)
    datum = cocharacter_datum(g, (1, 0, 0, 0))
    assert datum.I == (2, 3, 4)
    assert datum.J == (2, 3, 4)
    assert compose(datum.z, datum.z) == g.identity()
    assert g.length(datum.z) == 2 * 4 - 2


def test_central_cocharacter_gives_identity_twist() -> None:
    g = wg("B", 2)
    datum = cocharacter_datum(g, (0, 0))
    assert datum.I == (1, 2)
    assert datum.z == g.identity()


def test_element_z_recomputes_the_stored_twist() -> None:
    for cartan_type, rank, mu in [("B", 3, (1, 0, 0)), ("C", 2, (1, 1)), ("A", 3, (1, 1, 0, 0))]:
        g = wg(cartan_type, rank)
        datum = cocharacter_datum(g, mu)
        assert compose(g.longest_element(), g.longest_in(datum.J)) == datum.z
        assert datum.w0_I == g.longest_in(datum.I)


def test_z_is_longest_minimal_coset_representative() -> None:
    g = wg("B", 3)
    datum = cocharacter_datum(g, (1, 0, 0))
    reps = g.min_coset_reps(datum.I)
    assert datum.z == max(reps, key=g.length)
    assert g.length(datum.z) == max(g.length(u) for u in reps)


# -- zip-stack equivalence ------------------------------------------------------


def test_eo_same_stratum_reflexive_on_labels() -> None:
    g = wg("B", 2)
    datum = cocharacter_datum(g, (1, 0))
    for w in g.min_coset_reps(datum.I):
        assert eo_same_stratum(w, w, datum)


def test_eo_distinct_labels_are_inequivalent() -> None:
    """Distinct minimal coset representatives map to distinct strata."""
    g = wg("B", 2)
    datum = cocharacter_datum(g, (1, 0))
    labels = g.min_coset_reps(datum.I)
    for a in labels:
        for b in labels:
            assert eo_same_stratum(a, b, datum) == (a == b)


def test_eo_orbit_membership() -> None:
    g = wg("C", 2)
    datum = cocharacter_datum(g, (1, 1))
    rng = random.Random(7)
    labels = list(g.min_coset_reps(datum.I))
    twists = subgroup_elements(g, datum.I)
    for _ in range(20):
        w = rng.choice(labels)
        y = rng.choice(twists)
        w_prime = compose_all([inverse(y), w, datum.z, y, datum.z], g.slots)
        assert eo_same_stratum(w, w_prime, datum)


# -- assorted small checks -------------------------------------------------------


def test_identity_perm_and_inverse() -> None:
    assert identity_perm(4) == (1, 2, 3, 4)
    p = (3, 1, 2)
    assert inverse(p) == (2, 3, 1)
    assert compose(p, inverse(p)) == (1, 2, 3)


def test_act_on_weights_type_b() -> None:
    g = wg("B", 2)
    s2 = g.simple_reflection(2)
    assert g.act(s2, unit(2, 2)) == vec(0, -1)
    assert g.act(s2, unit(2, 1)) == unit(2, 1)
    s1 = g.simple_reflection(1)
    assert g.act(s1, unit(2, 1)) == unit(2, 2)


def test_length_counts_inversions_of_positive_roots() -> None:
    g = wg("D", 3)
    z = g.from_word((1, 2, 3, 1))
    assert g.length(z) == 4
    assert g.length(g.identity()) == 0


# -- shared groups, memos and the key action ----------------------------------


@pytest.mark.parametrize("cartan_type,rank", SMALL_GROUPS)
def test_weyl_group_is_shared(cartan_type: str, rank: int) -> None:
    g = weyl_group(cartan_type, rank)
    again = weyl_group(cartan_type, rank)
    assert g == again and hash(g) == hash(again)
    assert g.min_coset_reps((1,)) is again.min_coset_reps((1,))
    assert g.system is root_system(cartan_type, rank)
    built = WeylGroup(root_system(cartan_type, rank))
    assert built == g and hash(built) == hash(g)
    assert built != weyl_group(cartan_type, rank + 1)


def test_shared_group_keeps_the_shared_system_after_evictions() -> None:
    """More root systems than ``root_system`` caches push B3's out; the
    shared group is still the one of the system ``root_system`` hands out,
    not a group over an evicted, second copy of it."""
    try:
        weyl_group("B", 3)
        for cartan_type in "ABC":
            for rank in range(1, 40):
                root_system(cartan_type, rank)
        assert weyl_group("B", 3).system is root_system("B", 3)
    finally:
        clear_caches()


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_memoized_words_and_cosets_match_a_fresh_group(cartan_type: str, rank: int) -> None:
    """Cached cosets and their words equal the uncached function behind
    them, and the words of W (the cosets of no letter) are the stripped
    ones of a fresh group, on the elements a breadth-first search finds."""
    shared = weyl_group(cartan_type, rank)
    fresh_reps = weyl._min_coset_reps.__wrapped__
    for _ in range(2):  # the second pass reads the caches
        fresh = wg(cartan_type, rank)
        words = shared.min_coset_reps(())
        assert set(words) == set(subgroup_elements(fresh, range(1, rank + 1)))
        for w, word in words.items():
            assert word == fresh.reduced_word(w)
        for size in range(rank + 1):
            for I in itertools.combinations(range(1, rank + 1), size):
                expected = list(fresh_reps(fresh, I).items())
                assert list(shared.min_coset_reps(I).items()) == expected
                assert list(shared.min_coset_reps(I[::-1] + I).items()) == expected


def test_words_round_trip_and_every_cache_is_bounded() -> None:
    """Five caches: words are stored only with their cosets, and groups,
    which hold nothing but their system, are not cached."""
    g = wg("B", 3)
    elements = g.elements()
    words = [g.reduced_word(w) for w in elements]
    stats = cache_stats()
    assert sorted(stats) == [
        "cases._case_data", "cli.build_parser", "reps._slot_table",
        "rootsys.root_system", "weyl._min_coset_reps",
    ]
    for info in stats.values():
        assert info.maxsize is not None and 0 <= info.currsize <= info.maxsize
    for w, word in zip(elements, words):
        assert g.from_word(word) == w and len(word) == g.length(w)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_act_on_ints_matches_act_on_fractions(data) -> None:
    """The action is one signed permutation whatever the entries: an int
    vector and its Fraction copy have equal images, each of its own type."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if cartan_type == "D" else 1, max_value=6))
    g = weyl_group(cartan_type, rank)
    word = data.draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=12))
    w = g.from_word(word)
    dim = g.system.ambient_dim
    ints = tuple(data.draw(st.lists(
        st.integers(min_value=-5, max_value=5), min_size=dim, max_size=dim
    )))
    fractions = tuple(Fraction(c) for c in ints)
    image = g.act(w, ints)
    assert image == g.act(w, fractions)
    assert all(type(c) is int for c in image)
    assert all(type(c) is Fraction for c in g.act(w, fractions))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_cocharacter_datum_matches_the_root_definitions(data) -> None:
    """I: simple roots orthogonal to mu; J: the indices of -w0(alpha_i)."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if cartan_type == "D" else 1, max_value=6))
    g = weyl_group(cartan_type, rank)
    system = g.system
    dim = system.ambient_dim
    mu = data.draw(st.lists(
        st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim
    ))
    datum = cocharacter_datum(g, mu)
    simple = system.simple_roots
    I = tuple(i for i, a in enumerate(simple, start=1) if dot(a, vec(*mu)) == 0)
    w0 = g.longest_element()
    J = sorted(simple.index(neg(g.act(w0, simple[i - 1]))) + 1 for i in I)
    assert datum.I == I
    assert datum.J == tuple(J)
