"""Order formula: closedness guard, the mirrored word shape, stratum tables."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipstrata.rootsys import add, neg, reflect, root_system, smul, unit, vec
from zipstrata.oracle import gl_cell_order
from zipstrata import vanishing
from zipstrata.vanishing import (
    ClosednessWitness,
    condition_closed,
    d_w0,
    family_word_typeB,
    family_word_typeD,
    mirror_orders,
    ord_for_word,
    ord_mirrored,
    root_sequence,
    strata_ord_table,
)
from zipstrata.weyl import WeylGroup, cocharacter_datum, weyl_group

from helpers import find_nonclosed_word, is_reduced, reference_ord_table


def wg(cartan_type: str, rank: int) -> WeylGroup:
    return WeylGroup(root_system(cartan_type, rank))


def e1(dim: int):
    return unit(dim, 1)


def is_closed(system, subset) -> bool:
    """Whether every root of the form a*alpha + b*beta (a, b natural, alpha
    and beta in the subset) again lies in the subset."""
    return vanishing._closure_violation(system, subset) is None


def table_by_length(group: WeylGroup, table) -> list:
    """Order values sorted by stratum label length (word as tie break)."""
    rows = sorted(
        table.items(), key=lambda kv: (group.length(kv[0]), group.reduced_word(kv[0]))
    )
    return [value for _, value in rows]


# -- closedness of root subsets ---------------------------------------------


@pytest.mark.parametrize("cartan_type,rank", [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_positive_roots_are_closed(cartan_type: str, rank: int) -> None:
    system = root_system(cartan_type, rank)
    assert is_closed(system, system.positive_roots)


def test_two_simple_roots_of_a2_are_not_closed() -> None:
    """alpha_1 + alpha_2 = e1 - e3 is a root missing from the pair."""
    system = root_system("A", 2)
    assert not is_closed(system, (system.simple(1), system.simple(2)))


def test_empty_and_singleton_subsets_are_closed() -> None:
    system = root_system("B", 3)
    assert is_closed(system, ())
    assert is_closed(system, (system.simple(2),))


@pytest.mark.parametrize("m,j,l", [(3, 1, 2), (4, 2, 1), (5, 1, 4), (6, 3, 3)])
def test_family_word_complement_is_closed(m: int, j: int, l: int) -> None:
    """The positive roots not swept by a family word form a closed subset."""
    system = root_system("B", m)
    swept = set(root_sequence(system, family_word_typeB(m, j, l)))
    complement = [root for root in system.positive_roots if root not in swept]
    assert is_closed(system, complement)


def test_root_sequence_of_reduced_word_is_distinct_and_positive() -> None:
    system = root_system("A", 2)
    swept = root_sequence(system, (1, 2))
    assert swept == (vec(1, -1, 0), vec(1, 0, -1))


def test_root_sequence_of_square_revisits_the_root_line() -> None:
    system = root_system("A", 2)
    alpha = system.simple(1)
    assert root_sequence(system, (1, 1)) == (alpha, neg(alpha))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_root_sequence_matches_iterated_reflections(data) -> None:
    """Reference definition: each letter's simple root reflected in the
    simple roots of the letters before it, nearest letter first. Random
    words include non-reduced ones."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if cartan_type == "D" else 1, max_value=5))
    system = root_system(cartan_type, rank)
    word = data.draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=10))
    expected = []
    for pos, letter in enumerate(word):
        image = system.simple(letter)
        for j in range(pos - 1, -1, -1):
            image = reflect(image, system.simple(word[j]))
        expected.append(image)
    assert root_sequence(system, word) == tuple(expected)


# -- the suffix condition ----------------------------------------------------


@pytest.mark.parametrize("m", range(2, 7))
def test_family_words_typeB_satisfy_condition(m: int) -> None:
    system = root_system("B", m)
    for j in range(1, m + 1):
        for l in range(0, m - j + 1):
            ok, witness = condition_closed(system, family_word_typeB(m, j, l))
            assert ok, (m, j, l, witness)


@pytest.mark.parametrize("m", range(3, 7))
def test_family_words_typeD_satisfy_condition(m: int) -> None:
    system = root_system("D", m)
    for j in range(1, m + 1):
        for l in range(0, m - j + 1):
            ok, witness = condition_closed(system, family_word_typeD(m, j, l))
            assert ok, (m, j, l, witness)


def test_all_reduced_words_of_b3_satisfy_condition() -> None:
    group = wg("B", 3)
    for w in group.elements():
        ok, _ = condition_closed(group.system, group.reduced_word(w))
        assert ok


def test_condition_fails_with_witness_on_a_squared_letter() -> None:
    """(1, 1, 2) sweeps {a1, -a1, a2}, which misses the root a1 + a2."""
    system = root_system("A", 2)
    ok, witness = condition_closed(system, (1, 1, 2))
    assert not ok
    assert isinstance(witness, ClosednessWitness)
    assert witness.stage == 0
    swept = set(root_sequence(system, (1, 1, 2)))
    assert witness.alpha in swept and witness.beta in swept
    assert witness.combination in set(system.roots) - swept


@pytest.mark.parametrize("cartan_type,rank", [("A", 2), ("A", 3), ("B", 3), ("B", 4), ("D", 4)])
def test_nonclosed_words_exist_in_every_rank(cartan_type: str, rank: int) -> None:
    word = find_nonclosed_word(root_system(cartan_type, rank), max_length=3)
    assert word is not None
    assert len(word) == 3


def test_shortest_nonclosed_word_in_a2() -> None:
    assert find_nonclosed_word(root_system("A", 2)) == (1, 1, 2)


def _reference_violation(system, subset):
    """Closedness on Fraction vectors: add and smul, then plain membership."""
    roots = {vec(*a) for a in system.roots}
    members = list(dict.fromkeys(vec(*a) for a in subset))
    chosen = set(members)
    for alpha, beta in itertools.combinations(members, 2):
        total = add(alpha, beta)
        if total not in roots:
            continue
        if total not in chosen:
            return alpha, beta, total
        for a, b in ((2, 1), (1, 2)):
            combo = add(smul(a, alpha), smul(b, beta))
            if combo in roots and combo not in chosen:
                return alpha, beta, combo
    return None


def _reference_condition(system, word):
    """The suffix condition with each suffix swept by the reflect chain."""
    for start in range(len(word)):
        suffix = word[start:]
        swept = []
        for pos, letter in enumerate(suffix):
            image = vec(*system.simple(letter))
            for j in range(pos - 1, -1, -1):
                image = reflect(image, system.simple(suffix[j]))
            swept.append(image)
        violation = _reference_violation(system, swept)
        if violation is not None:
            return (start,) + violation
    return None


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_closedness_matches_the_fraction_reference(data) -> None:
    """Random root subsets (repeats and both signs allowed) and random words,
    non-reduced ones included: same verdict, same witness."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if cartan_type == "D" else 1, max_value=6))
    system = root_system(cartan_type, rank)
    subset = data.draw(st.lists(st.sampled_from(system.roots), max_size=16))
    expected = _reference_violation(system, subset)
    assert vanishing._closure_violation(system, subset) == expected
    assert is_closed(system, subset) == (expected is None)

    word = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=8)))
    ok, witness = condition_closed(system, word)
    expected = _reference_condition(system, word)
    assert ok == (expected is None)
    if witness is not None:
        assert (witness.stage, witness.alpha, witness.beta, witness.combination) == expected
        assert all(type(c) is int for c in witness.combination)


def _per_suffix_condition(system, word):
    """The suffix condition with a fresh root sequence for every suffix."""
    for start in range(len(word)):
        swept = root_sequence(system, word[start:])
        violation = vanishing._closure_violation(system, swept)
        if violation is not None:
            return False, ClosednessWitness(start, *violation)
    return True, None


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_root_sequence_matches_one_per_suffix(data) -> None:
    """Sweeping the suffixes off one root sequence gives the verdict and
    the witness of computing each suffix's sequence on its own."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if cartan_type == "D" else 1, max_value=6))
    system = root_system(cartan_type, rank)
    word = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=12)))
    assert condition_closed(system, word) == _per_suffix_condition(system, word)


@pytest.mark.parametrize(
    "cartan_type,rank,word,expected",
    [
        # The full root set and the first suffix are closed; the suffix from
        # stage 2 misses 2*alpha + beta, named in that suffix's coordinates
        # (s_3 s_2 and s_2 s_3 map the tail's witness differently).
        ("B", 3, (3, 2, 3, 2, 3, 2, 3, 2, 3),
         ClosednessWitness(2, (0, 0, 1), (0, -1, -1), (0, -1, 1))),
        # alpha + beta = (1, 1) is swept, alpha + 2*beta = (2, 0) is not.
        ("C", 2, (2, 2, 1, 1, 2, 1),
         ClosednessWitness(0, (0, 2), (1, -1), (2, 0))),
    ],
)
def test_fixed_violations_match_one_per_suffix(
    cartan_type: str, rank: int, word: tuple, expected: ClosednessWitness
) -> None:
    system = root_system(cartan_type, rank)
    assert condition_closed(system, word) == (False, expected)
    assert _per_suffix_condition(system, word) == (False, expected)


@pytest.mark.parametrize(
    "cartan_type,ranks",
    [("A", (2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (3, 4))],
)
def test_every_reduced_word_is_closed(cartan_type: str, ranks: tuple) -> None:
    """Each suffix of a reduced word sweeps an inversion set, which is closed;
    checked on the reduced word of every element."""
    for rank in ranks:
        group = weyl_group(cartan_type, rank)
        for w in group.elements():
            word = group.reduced_word(w)
            assert condition_closed(group.system, word) == (True, None), word


def test_empty_word_is_closed_without_a_root_sequence(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("swept roots for the empty word")

    monkeypatch.setattr(vanishing, "root_sequence", refuse)
    assert vanishing._condition_closed.__wrapped__(root_system("B", 3), ()) == (
        True, None, True
    )


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_reducedness_read_off_the_roots_equals_is_reduced(
    cartan_type: str, rank: int
) -> None:
    """Every word of at most five letters: the order formula's word check
    passes exactly on reduced words, and on the others it names
    reducedness, not closedness, as the failure."""
    group = weyl_group(cartan_type, rank)
    for length in range(6):
        for word in itertools.product(range(1, rank + 1), repeat=length):
            try:
                vanishing._require_reduced_and_closed(group.system, word)
            except ValueError as err:
                assert str(err) == f"word {word} is not reduced"
                passed = False
            else:
                passed = True
            assert passed == is_reduced(group, word), word


# -- distinct-letter words ---------------------------------------------------


def test_ord_distinct_empty_word_is_zero() -> None:
    assert ord_mirrored(root_system("B", 3), e1(3), (), (), ()) == 0


def test_ord_distinct_single_reflection() -> None:
    assert ord_mirrored(root_system("B", 4), e1(4), (1,), (), ()) == 1


def test_ord_distinct_rho_on_a2() -> None:
    assert ord_mirrored(root_system("A", 2), vec(1, 0, -1), (1, 2), (), ()) == 2


def test_ord_distinct_rejects_repeated_letters() -> None:
    with pytest.raises(ValueError, match="distinct"):
        ord_mirrored(root_system("A", 3), vec(1, 0, 0, -1), (1, 2, 1), (), ())


def test_ord_distinct_rejects_a_non_integral_pairing() -> None:
    """A dominant weight whose pairing with a letter is 1/2."""
    lam = vec(Fraction(1, 2), 0, Fraction(-1, 2))
    with pytest.raises(ValueError, match="not integral"):
        ord_mirrored(root_system("A", 2), lam, (1,), (), ())


def test_e_and_f_orders_reject_letters_out_of_range() -> None:
    with pytest.raises(ValueError, match="out of range"):
        mirror_orders(root_system("B", 3), (0,), (3,))
    with pytest.raises(ValueError, match="out of range"):
        mirror_orders(root_system("D", 4), (1,), (3, 5))


def test_empty_word_rejects_nondominant_weight() -> None:
    """The open stratum's empty cell word still passes the dominance check."""
    with pytest.raises(ValueError, match="not dominant"):
        ord_for_word(root_system("A", 2), vec(-1, 0, 1), ())


def test_ord_distinct_rejects_nondominant_weight() -> None:
    with pytest.raises(ValueError, match="dominant"):
        ord_mirrored(root_system("A", 2), vec(-1, 0, 1), (1,), (), ())


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_ord_distinct_ignores_letter_order(data) -> None:
    system = root_system("B", 4)
    letters = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4, unique=True)
    )
    shuffled = data.draw(st.permutations(letters))
    coords = sorted(
        data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4)),
        reverse=True,
    )
    lam = vec(*coords)
    words = [tuple(letters), tuple(shuffled)]
    orders = []
    for word in words:
        group = wg("B", 4)
        if not is_reduced(group, word):
            return
        orders.append(ord_mirrored(system, lam, word, (), ()))
    assert orders[0] == orders[1]


# -- the three-letter pattern s_a s_b s_a ------------------------------------
# The word a b a is the mirrored shape with no prefix, alphas = (a,) and the
# one-letter center (b,).


def test_ord_aba_rho_on_a2() -> None:
    assert ord_for_word(root_system("A", 2), vec(1, 0, -1), (1, 2, 1)) == 2


def test_ord_aba_standard_weight_on_b2() -> None:
    """The doubled Cartan pairing of B2 makes the outer letter count twice."""
    assert ord_for_word(root_system("B", 2), vec(1, 0), (1, 2, 1)) == 2


def test_ord_aba_degenerate_outer_pairing() -> None:
    """With the outer letter orthogonal to the weight only gamma contributes."""
    assert ord_mirrored(root_system("A", 2), vec(1, 1, 0), (), (1,), (2,)) == 1


def test_ord_aba_rejects_orthogonal_letters() -> None:
    with pytest.raises(ValueError, match="not reduced"):
        ord_mirrored(root_system("A", 3), vec(1, 0, 0, -1), (), (1,), (3,))


def test_ord_aba_rejects_equal_letters() -> None:
    with pytest.raises(ValueError, match="distinct"):
        ord_mirrored(root_system("A", 2), vec(1, 0, -1), (), (2,), (2,))


# -- coordinate order recursions ---------------------------------------------


def test_e_orders_saturate_on_the_odd_orthogonal_chain() -> None:
    """Down the B chain toward the short root every pairing drop is at least
    two, so each order caps at two."""
    assert mirror_orders(root_system("B", 4), (3, 2, 1), (4,)) == (2, 2, 2)
    assert mirror_orders(root_system("B", 3), (2,), (3,)) == (2,)


def test_e_orders_stay_at_one_on_the_symplectic_chain() -> None:
    """The long root of C pairs to -1 against its neighbour, halving every
    drop along the chain."""
    assert mirror_orders(root_system("C", 3), (2, 1), (3,)) == (1, 1)
    assert mirror_orders(root_system("C", 4), (3, 2, 1), (4,)) == (1, 1, 1)


def test_e_orders_simply_laced_first_step() -> None:
    assert mirror_orders(root_system("A", 2), (1,), (2,)) == (1,)


def test_f_orders_saturate_on_the_even_orthogonal_fork() -> None:
    assert mirror_orders(root_system("D", 4), (2, 1), (3, 4)) == (2, 2)
    assert mirror_orders(root_system("D", 5), (3, 2, 1), (4, 5)) == (2, 2, 2)


def test_mirror_orders_cap_a_drop_of_three() -> None:
    """In B3 the center (1, 3) straddles alpha_2, whose drop is 1 + 2."""
    assert mirror_orders(root_system("B", 3), (2,), (1, 3)) == (2,)


def test_f_orders_reject_shared_letters() -> None:
    with pytest.raises(ValueError, match="distinct"):
        mirror_orders(root_system("D", 4), (2, 1), (2, 4))
    with pytest.raises(ValueError, match="distinct"):
        ord_mirrored(root_system("D", 4), e1(4), (2,), (2, 1), (3, 4))


# -- mirrored-shape orders ----------------------------------------------------


def test_ord_typeB_hasse_word_without_prefix() -> None:
    assert ord_mirrored(root_system("B", 4), e1(4), (), (3, 2, 1), (4,)) == 2


def test_ord_typeB_hasse_word_with_prefix() -> None:
    """A leading beta chain moves the weight pairing to the prefix, dropping
    the order to one."""
    assert ord_mirrored(root_system("B", 4), e1(4), (1,), (3, 2), (4,)) == 1


def test_ord_typeB_empty_alphas_reduces_to_distinct() -> None:
    system = root_system("B", 3)
    lam = vec(2, 1, 0)
    assert ord_mirrored(system, lam, (1, 2), (), (3,)) == ord_mirrored(
        system, lam, (1, 2, 3), (), ()
    )


def test_ord_typeD_hasse_word_without_prefix() -> None:
    assert ord_mirrored(root_system("D", 4), e1(4), (), (2, 1), (3, 4)) == 2


def test_ord_typeD_hasse_word_with_prefix() -> None:
    assert ord_mirrored(root_system("D", 5), e1(5), (1,), (3, 2), (4, 5)) == 1


def test_ord_typeB_rejects_nonreduced_assembled_word() -> None:
    """The assembled word (2, 1, 3, 1) shortens to s2 s3, so the guard trips
    even though the letter groups are pairwise distinct; dominance of the
    weight is checked before it."""
    system = root_system("B", 3)
    with pytest.raises(ValueError, match="not reduced"):
        ord_mirrored(system, e1(3), (2,), (1,), (3,))
    with pytest.raises(ValueError, match="not dominant"):
        ord_mirrored(system, vec(0, 0, -1), (2,), (1,), (3,))


# -- weight linearity ---------------------------------------------------------


@given(
    a=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    b=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_order_is_additive_in_the_weight(a, b) -> None:
    system = root_system("B", 3)
    lam = vec(*sorted(a, reverse=True))
    mu = vec(*sorted(b, reverse=True))
    for word in [(1, 2), (1, 2, 3, 2, 1), (2, 3, 2)]:
        total = ord_for_word(system, add(lam, mu), word)
        assert total == ord_for_word(system, lam, word) + ord_for_word(system, mu, word)


def test_order_scales_with_the_weight() -> None:
    system = root_system("D", 4)
    word = family_word_typeD(4, 1, 0)
    assert ord_for_word(system, smul(3, e1(4)), word) == 3 * ord_for_word(
        system, e1(4), word
    )


# -- word-shape dispatch ------------------------------------------------------


def test_dispatch_picks_the_mirrored_single_shape() -> None:
    system = root_system("B", 4)
    word = family_word_typeB(4, 1, 2)
    assert word == (1, 2, 3, 4, 3, 2)
    assert ord_for_word(system, e1(4), word) == ord_mirrored(
        system, e1(4), (1,), (3, 2), (4,)
    )


def test_dispatch_picks_the_mirrored_double_shape() -> None:
    system = root_system("D", 4)
    word = family_word_typeD(4, 1, 2)
    assert ord_for_word(system, e1(4), word) == ord_mirrored(
        system, e1(4), (1,), (2,), (3, 4)
    )


def test_dispatch_rejects_unsupported_shapes() -> None:
    with pytest.raises(ValueError, match="no supported shape"):
        ord_for_word(root_system("B", 2), vec(1, 0), (1, 2, 1, 2))


def test_dispatch_refuses_a_long_word_without_searching() -> None:
    """32000 letters of A2: more than twice the distinct letters, so no split
    fits, and the refusal does not wait on the quadratic search (seconds
    per word of this length)."""
    with pytest.raises(ValueError, match="no supported shape"):
        ord_for_word(root_system("A", 2), vec(1, 0, 0), (1, 2) * 16000)


def _has_mirrored_split(word) -> bool:
    """Whether some prefix + reversed(alphas) + center + alphas with pairwise
    distinct letters and a center of 0 (no alphas), 1 or 2 letters spells
    the word, trying every cut."""
    n = len(word)
    for size, k in itertools.product((0, 1, 2), range(n // 2 + 1)):
        start = n - 2 * k - size
        if start < 0 or (size == 0) != (k == 0):
            continue
        alphas = word[n - k :]
        letters = word[:start] + alphas + word[start + k : n - k]
        if word[start : start + k] == alphas[::-1] and len(set(letters)) == len(letters):
            return True
    return False


def test_dispatch_finds_a_split_exactly_when_one_exists() -> None:
    """Every word of up to 7 letters from 1..3: the early refusal of words
    longer than twice their distinct letters drops no split."""
    for length in range(8):
        for word in itertools.product((1, 2, 3), repeat=length):
            parsed = vanishing._parse_mirrored(word)
            assert (parsed is not None) == _has_mirrored_split(word)


def _reduced_words(cartan_type: str, rank: int):
    """Every reduced word of the Weyl group, grown one letter at a time
    (each prefix of a reduced word is reduced)."""
    group = weyl_group(cartan_type, rank)
    layer = [()]
    while layer:
        yield from layer
        layer = [
            word + (letter,)
            for word in layer
            for letter in range(1, rank + 1)
            if is_reduced(group, word + (letter,))
        ]


@pytest.mark.parametrize(
    "cartan_type,rank,lam",
    [
        ("A", 3, vec(3, 2, 1, 0)),
        ("B", 3, vec(3, 2, 1)),
        ("C", 3, vec(3, 2, 1)),
        ("D", 4, vec(3, 2, 1, 0)),
    ],
)
def test_dispatch_on_every_reduced_word(cartan_type: str, rank: int, lam) -> None:
    """Each reduced word either splits into mirrored pieces that reassemble
    it, and its order is the mirrored formula on them, or it is rejected."""
    system = root_system(cartan_type, rank)
    parsed_count = 0
    for word in _reduced_words(cartan_type, rank):
        parsed = vanishing._parse_mirrored(word)
        if parsed is None:
            with pytest.raises(ValueError, match="no supported shape"):
                ord_for_word(system, lam, word)
            continue
        prefix, alphas, center = parsed
        assert prefix + alphas[::-1] + center + alphas == word
        assert len(center) in ((1, 2) if alphas else (0,))
        assert ord_for_word(system, lam, word) == ord_mirrored(system, lam, *parsed)
        parsed_count += 1
    assert parsed_count > 0


def test_dispatch_on_wedge_square_cell_word() -> None:
    """The length-four cell of the wedge-square datum parses as a mirrored
    double shape with a one-letter mirror."""
    system = root_system("A", 3)
    lam = vec(0, 0, -1, -1)
    assert ord_for_word(system, lam, (2, 1, 3, 2)) == 2


# -- agreement with the matrix oracle -----------------------------------------


@pytest.mark.parametrize(
    "lam", [(1, 0, -1), (2, 1, 0), (1, 0, 0), (2, 2, 0), (3, 1, 1)]
)
def test_formula_matches_oracle_on_gl3(lam) -> None:
    system = root_system("A", 2)
    group = wg("A", 2)
    words = [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)]
    for word in words:
        expected = gl_cell_order(3, lam, group.from_word(word))
        assert ord_for_word(system, vec(*lam), word) == expected, (lam, word)


@pytest.mark.parametrize("lam", [(1, 0, 0, -1), (2, 1, 1, 0), (1, 1, 0, 0)])
def test_formula_matches_oracle_on_gl4(lam) -> None:
    system = root_system("A", 3)
    group = wg("A", 3)
    words = [
        (1,),
        (2, 3),
        (1, 3),
        (1, 2, 3),
        (3, 2, 1),
        (1, 2, 1),
        (2, 3, 2),
        (2, 1, 3, 2),
    ]
    for word in words:
        expected = gl_cell_order(4, lam, group.from_word(word))
        assert ord_for_word(system, vec(*lam), word) == expected, (lam, word)


# -- the twisted character difference -----------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_d_w0_on_the_standard_orthogonal_weight(p: int) -> None:
    for cartan_type, m in [("B", 3), ("D", 4)]:
        group = wg(cartan_type, m)
        datum = cocharacter_datum(group, e1(m))
        assert d_w0(e1(m), p, datum) == smul(1 - p, e1(m))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_d_w0_on_the_dual_sum_weight(p: int) -> None:
    """For the general linear datum the twist sends -eta to (p-1) eta."""
    group = wg("A", 3)
    datum = cocharacter_datum(group, vec(1, 1, 1, 0))
    eta = vec(-2, -2, -2, 0)
    assert d_w0(neg(eta), p, datum) == smul(p - 1, eta)


def test_d_w0_kills_zero() -> None:
    group = wg("C", 2)
    datum = cocharacter_datum(group, vec(1, 1))
    assert d_w0(vec(0, 0), 5, datum) == vec(0, 0)


# -- stratum order tables ------------------------------------------------------


def test_table_odd_orthogonal_standard() -> None:
    for m in (3, 4):
        group = wg("B", m)
        datum = cocharacter_datum(group, e1(m))
        values = table_by_length(group, strata_ord_table(datum, e1(m)))
        assert values == [2] + [1] * (2 * m - 2) + [0]


def test_table_even_orthogonal_standard() -> None:
    group = wg("D", 4)
    datum = cocharacter_datum(group, e1(4))
    values = table_by_length(group, strata_ord_table(datum, e1(4)))
    assert values == [2, 1, 1, 1, 1, 1, 1, 0]


def test_table_symplectic_standard_has_no_order_two() -> None:
    """The long symplectic root halves every drop, so the identity stratum
    only reaches order one."""
    group = wg("C", 3)
    datum = cocharacter_datum(group, e1(3))
    values = table_by_length(group, strata_ord_table(datum, e1(3)))
    assert values == [1, 1, 1, 1, 1, 0]


def test_table_siegel_rank_two() -> None:
    group = wg("C", 2)
    datum = cocharacter_datum(group, vec(1, 1))
    values = table_by_length(group, strata_ord_table(datum, vec(1, 1)))
    assert values == [2, 1, 1, 0]


def test_table_siegel_rank_three_is_out_of_scope() -> None:
    """The open-stratum cell word of the rank-three Siegel datum needs four
    distinct letters in a rank-three system, so no shape matches and the
    table construction refuses it; the dedicated Siegel closed form covers
    the case instead."""
    group = wg("C", 3)
    datum = cocharacter_datum(group, vec(1, 1, 1))
    with pytest.raises(ValueError, match="no supported shape"):
        strata_ord_table(datum, vec(1, 1, 1))


def test_table_wedge_square() -> None:
    group = wg("A", 3)
    datum = cocharacter_datum(group, vec(1, 1, 0, 0))
    values = table_by_length(group, strata_ord_table(datum, vec(0, 0, -1, -1)))
    assert values == [2, 1, 1, 1, 1, 0]


def test_table_spin_weight_scales_the_standard_table() -> None:
    """Spin orders are the standard ones scaled by the weight multiple, a
    direct consequence of weight linearity."""
    group = wg("B", 4)
    datum = cocharacter_datum(group, e1(4))
    std = strata_ord_table(datum, e1(4))
    spin = strata_ord_table(datum, smul(4, e1(4)))
    assert spin == {w: 4 * v for w, v in std.items()}
    group_d = wg("D", 4)
    datum_d = cocharacter_datum(group_d, e1(4))
    std_d = strata_ord_table(datum_d, e1(4))
    spin_d = strata_ord_table(datum_d, smul(2, e1(4)))
    assert spin_d == {w: 2 * v for w, v in std_d.items()}


def test_table_keys_are_the_minimal_coset_representatives() -> None:
    group = wg("B", 3)
    datum = cocharacter_datum(group, e1(3))
    table = strata_ord_table(datum, e1(3))
    assert set(table) == set(group.min_coset_reps(datum.I))


@pytest.mark.parametrize("cartan_type,mu,lam", [
    ("B", e1(2), e1(2)), ("B", e1(3), smul(3, e1(3))), ("B", e1(5), e1(5)),
    ("C", e1(3), e1(3)), ("C", e1(5), smul(2, e1(5))), ("C", vec(1, 1), vec(2, 2)),
    ("D", e1(4), e1(4)), ("D", e1(5), smul(2, e1(5))),
    ("A", vec(1, 1, 0, 0), vec(0, 0, -1, -1)), ("A", vec(1, 1, 1, 1, 0), vec(1, 1, 1, 1, 0)),
])
def test_table_equals_ord_for_word_on_each_cell(cartan_type, mu, lam) -> None:
    """Pairing the weight once per table gives the orders that
    ``ord_for_word`` gives cell word by cell word."""
    datum = cocharacter_datum(wg(cartan_type, len(mu) - (cartan_type == "A")), mu)
    assert strata_ord_table(datum, lam) == reference_ord_table(datum, lam)


def test_table_rejects_a_non_dominant_weight() -> None:
    datum = cocharacter_datum(wg("B", 3), e1(3))
    with pytest.raises(ValueError, match="not dominant"):
        strata_ord_table(datum, vec(-1, 0, 0))


# -- family word builders ------------------------------------------------------


def test_family_word_shapes() -> None:
    assert family_word_typeB(3, 1, 2) == (1, 2, 3, 2, 1)
    assert family_word_typeB(4, 2, 0) == (2, 3, 4)
    assert family_word_typeD(4, 1, 2) == (1, 2, 3, 4, 2)
    assert family_word_typeD(5, 2, 0) == (2, 3, 4, 5)
    assert family_word_typeD(5, 2, 1) == (2, 3, 4, 5)


def test_family_words_are_reduced() -> None:
    group_b = wg("B", 5)
    group_d = wg("D", 5)
    for j in range(1, 6):
        for l in range(0, 6 - j):
            assert is_reduced(group_b, family_word_typeB(5, j, l))
            assert is_reduced(group_d, family_word_typeD(5, j, l))


def test_family_word_rejects_bad_parameters() -> None:
    with pytest.raises(ValueError):
        family_word_typeB(3, 2, 2)
    with pytest.raises(ValueError):
        family_word_typeB(3, 0, 1)
    with pytest.raises(ValueError):
        family_word_typeD(2, 1, 0)
