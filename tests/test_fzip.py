"""Standard zips: slot order, induced permutations, line positions."""

import itertools
import re
from fractions import Fraction

import pytest

from zipstrata import fzip
from zipstrata.fzip import (
    StandardZip,
    build_standard,
    clp,
    clp_exterior_top,
    standard_zips,
)
from zipstrata.reps import (
    WeightMultiset,
    hodge_character,
    spin_weights,
    std_weights,
    wedge,
)
from zipstrata.rootsys import neg, root_system, unit, vec
from zipstrata.vanishing import strata_ord_table
from zipstrata.weyl import WeylGroup, cocharacter_datum, compose, weyl_group

from helpers import (
    dsum,
    hasse_nonzero,
    is_cy,
    mu_profile,
    reference_slot_perm,
    right_descents,
    w0ij_perm,
)


def e1(dim: int):
    return unit(dim, 1)


def datum_for(cartan_type: str, rank: int, mu):
    return cocharacter_datum(WeylGroup(root_system(cartan_type, rank)), mu)


def ordinary_slot_perm(datum, module: WeightMultiset):
    """Slot permutation of the element w0 w_{0,I}, the frame of the ordinary
    zip: it reverses the order of the slices while fixing each slice's
    internal order."""
    group = datum.group
    frame = compose(group.longest_element(), group.longest_in(datum.I))
    return build_standard(datum, module, frame).sigma


def labels_by_length(datum):
    group = datum.group
    return sorted(
        group.min_coset_reps(datum.I),
        key=lambda w: (group.length(w), group.reduced_word(w)),
    )


# -- types and slots -----------------------------------------------------------


def test_zip_type_of_the_wedge_square() -> None:
    """A zip's type is its slice dimensions, the dimensions of the profile."""
    module, mu = wedge(std_weights("A", 3), 2), vec(1, 1, 0, 0)
    z = build_standard(datum_for("A", 3, mu), module, (1, 2, 3, 4))
    assert z.dims == (1, 4, 1)
    assert mu_profile(module, mu) == ((2, 1), (1, 4), (0, 1))
    assert is_cy(module, mu)


def test_zip_type_of_the_siegel_module_is_two_step() -> None:
    module, mu = std_weights("C", 3), vec(1, 1, 1)
    z = build_standard(datum_for("C", 3, mu), module, (1, 2, 3, 4, 5, 6))
    assert z.dims == (3, 3)
    assert not is_cy(module, mu)


def test_slots_sort_by_slice_then_weight() -> None:
    datum = datum_for("B", 2, e1(2))
    z = build_standard(datum, std_weights("B", 2), datum.group.identity())
    assert z.slots == (
        vec(1, 0),
        vec(0, 1),
        vec(0, 0),
        vec(0, -1),
        vec(-1, 0),
    )
    assert z.sigma == (1, 2, 3, 4, 5)


def test_build_rejects_repeated_weights() -> None:
    datum = datum_for("B", 2, e1(2))
    doubled = dsum(std_weights("B", 2), std_weights("B", 2))
    with pytest.raises(ValueError, match="multiplicity-free"):
        build_standard(datum, doubled, datum.group.identity())


def test_build_names_the_weight_that_leaves_the_slots() -> None:
    """s2 of B2 sends (1/2, 1/2) to (1/2, -1/2), which is not a weight of the
    module; the error names that image in the module's own coordinates."""
    datum = datum_for("B", 2, e1(2))
    half = Fraction(1, 2)
    module = WeightMultiset.from_weights([vec(half, half)])
    with pytest.raises(ValueError, match=re.escape("(1/2, -1/2) is not a slot")):
        build_standard(datum, module, datum.group.simple_reflection(2))


def test_an_unstable_module_is_refused_from_every_element() -> None:
    """Stability is checked on the simple reflections, whatever the element:
    the identity, which moves no weight, is refused too, with the same
    message."""
    datum = datum_for("B", 2, e1(2))
    half = Fraction(1, 2)
    module = WeightMultiset.from_weights([vec(half, half), vec(-half, -half)])
    message = re.escape("weights are not stable: (1/2, -1/2) is not a slot")
    for w in datum.group.elements():
        with pytest.raises(ValueError, match=message):
            build_standard(datum, module, w)


def test_the_reference_refuses_an_unstable_module_with_the_same_message() -> None:
    """On B2 with the one weight (1/2, 1/2), which s2 sends to (1/2, -1/2),
    ``standard_zips`` and the reference slot permutation name the moved
    weight alike."""
    datum = datum_for("B", 2, e1(2))
    half = Fraction(1, 2)
    module = WeightMultiset.from_weights([vec(half, half)])
    with pytest.raises(ValueError) as ours:
        standard_zips(datum, module, [(2,)])
    with pytest.raises(ValueError) as reference:
        reference_slot_perm(datum, module, datum.group.simple_reflection(2))
    assert str(ours.value) == str(reference.value)
    assert str(ours.value) == "weights are not stable: (1/2, -1/2) is not a slot"


@pytest.mark.parametrize("w", [(2, 1, 3, 4, 5), (1, 2, 3, 4), (1, 1, 3, 4, 5)])
def test_a_tuple_outside_the_group_is_refused(w) -> None:
    datum = datum_for("B", 2, e1(2))
    with pytest.raises(ValueError, match="not an element"):
        build_standard(datum, std_weights("B", 2), w)


_ZIP_MODULES = [
    ("A", 3, (1, 0, 0, 0), lambda: std_weights("A", 3)),
    ("A", 3, (1, 1, 0, 0), lambda: wedge(std_weights("A", 3), 2)),
    ("B", 3, (1, 0, 0), lambda: std_weights("B", 3)),
    ("C", 3, (1, 1, 1), lambda: std_weights("C", 3)),
    ("D", 4, (1, 0, 0, 0), lambda: std_weights("D", 4)),
    ("B", 3, (1, 0, 0), lambda: spin_weights("B", 3)),
    ("D", 4, (1, 0, 0, 0), lambda: spin_weights("D", 4)),
    ("A", 4, (1, 1, 0, 0, 0), lambda: wedge(std_weights("A", 4), 2)),
]


@pytest.mark.parametrize("cartan_type,rank,mu,module", _ZIP_MODULES)
def test_composed_slot_perms_equal_the_per_key_action(
    cartan_type, rank, mu, module
) -> None:
    """On every element, one at a time and all in one call (which reuses the
    words met before), the slot permutation equals the one read off the
    action on each integer key."""
    datum = datum_for(cartan_type, rank, vec(*mu))
    module = module()
    words = datum.group.min_coset_reps(())
    expected = [reference_slot_perm(datum, module, w) for w in words]
    assert [build_standard(datum, module, w).sigma for w in words] == expected
    assert [z.sigma for z in standard_zips(datum, module, words.values())] == expected


def largest_descent_word(group, w) -> tuple:
    """A reduced word of w, read off by stripping its largest right descent
    until none is left."""
    u, letters = w, []
    while descents := right_descents(group, u):
        letters.append(descents[-1])
        u = compose(u, group.simple_reflection(descents[-1]))
    assert u == group.identity()
    return tuple(reversed(letters))


@pytest.mark.parametrize("cartan_type,rank,mu,module", _ZIP_MODULES)
def test_a_zip_depends_only_on_its_element(cartan_type, rank, mu, module) -> None:
    """Each element's slot permutation is the same from its stored word, from
    the reduced word that strips the largest descent first, and from a
    non-reduced word that appends some (i, i)."""
    datum = datum_for(cartan_type, rank, vec(*mu))
    group, module = datum.group, module()
    words = group.min_coset_reps(())
    expected = [reference_slot_perm(datum, module, w) for w in words]
    second = [largest_descent_word(group, w) for w in words]
    assert any(a != b for a, b in zip(second, words.values()))
    padded = [
        word + (i, i)
        for i, word in zip(itertools.cycle(range(1, rank + 1)), words.values())
    ]
    for other in (second, padded):
        assert [z.sigma for z in standard_zips(datum, module, other)] == expected


@pytest.mark.parametrize("words", [[(0,)], [(4,)], [(1, 2), (1, 2, 4)], [(1,), (1, 0)]])
def test_a_letter_out_of_range_is_refused(words) -> None:
    """A letter outside 1..rank raises, also as the one new letter of a
    word whose prefix is known; 0 does not wrap round to the last letter."""
    datum = datum_for("B", 3, e1(3))
    with pytest.raises(ValueError, match="out of range"):
        standard_zips(datum, std_weights("B", 3), words)


def test_the_strata_of_a_case_cost_one_composition_each(monkeypatch) -> None:
    """The words of B_4's labels in the order of ``min_coset_reps``: each
    word's prefix without its last letter comes before it, so each label
    but the identity costs one composition of slot permutations."""
    datum = datum_for("B", 4, e1(4))
    table = datum.group.min_coset_reps(datum.I)
    labels = list(table)
    calls = []
    compose_once = fzip.compose

    def counted(a, b):
        calls.append(1)
        return compose_once(a, b)

    monkeypatch.setattr(fzip, "compose", counted)
    zips = standard_zips(datum, std_weights("B", 4), table.values())
    assert len(calls) == len(labels) - 1
    assert [z.sigma for z in zips] == [
        reference_slot_perm(datum, std_weights("B", 4), w) for w in labels
    ]


def test_the_longest_element_of_b64_needs_no_recursion() -> None:
    """w0 of B_64 has a reduced word of 4096 letters, stripped and then
    folded into one slot permutation without recursion."""
    group = weyl_group("B", 64)
    datum = cocharacter_datum(group, e1(64))
    module = std_weights("B", 64)
    w0 = group.longest_element()
    sigma = build_standard(datum, module, w0).sigma
    assert sigma == tuple(range(129, 0, -1))
    assert sigma == reference_slot_perm(datum, module, w0)


def test_sigma_of_the_open_label_swaps_the_extreme_slots() -> None:
    datum = datum_for("B", 2, e1(2))
    z = build_standard(datum, std_weights("B", 2), datum.z)
    assert z.sigma == (5, 2, 3, 4, 1)


# -- the ordinary frame ---------------------------------------------------------


def test_w0ij_reverses_slices_blockwise() -> None:
    assert w0ij_perm((1, 5, 1)) == (7, 2, 3, 4, 5, 6, 1)
    assert w0ij_perm((2, 2)) == (3, 4, 1, 2)
    assert w0ij_perm((1, 4, 1)) == (6, 2, 3, 4, 5, 1)


def test_w0ij_zip_has_invertible_hasse_section() -> None:
    """A zip framed by the formula permutation is ordinary by construction."""
    datum = datum_for("B", 3, e1(3))
    module = std_weights("B", 3)
    framed = build_standard(datum, module, datum.group.identity())
    assert hasse_nonzero(
        StandardZip(dims=framed.dims, slots=framed.slots, sigma=w0ij_perm(framed.dims))
    )


@pytest.mark.parametrize(
    "cartan_type,rank,mu_coords",
    [("B", 2, (1, 0)), ("B", 3, (1, 0, 0)), ("C", 3, (1, 0, 0))],
)
def test_ordinary_frame_realizes_w0ij_outside_type_D(
    cartan_type, rank, mu_coords
) -> None:
    datum = datum_for(cartan_type, rank, vec(*mu_coords))
    module = std_weights(cartan_type, rank)
    sigma = ordinary_slot_perm(datum, module)
    dims = build_standard(datum, module, datum.group.identity()).dims
    assert sigma == w0ij_perm(dims)


def test_ordinary_frame_in_type_D_twists_inside_the_middle_slice() -> None:
    """The middle-slice longest element of the even orthogonal type is not
    minus one, so the Weyl frame deviates from the formula permutation by an
    internal twist; the slice each slot lands in is still the same."""
    datum = datum_for("D", 4, e1(4))
    module = std_weights("D", 4)
    sigma = ordinary_slot_perm(datum, module)
    dims = build_standard(datum, module, datum.group.identity()).dims
    formula = w0ij_perm(dims)
    assert sigma != formula
    cumulative = (0, 1, 7, 8)

    def slice_of(slot: int) -> int:
        return next(j for j in range(1, 4) if slot <= cumulative[j])

    for got, wanted in zip(sigma, formula):
        assert slice_of(got) == slice_of(wanted)


def test_ordinary_frame_zip_has_invertible_hasse_section() -> None:
    datum = datum_for("B", 3, e1(3))
    module = std_weights("B", 3)
    group = datum.group
    frame = compose(group.longest_element(), group.longest_in(datum.I))
    assert hasse_nonzero(build_standard(datum, module, frame))
    assert not hasse_nonzero(build_standard(datum, module, group.identity()))


# -- conjugate line positions ----------------------------------------------------


def test_clp_requires_a_line_on_top() -> None:
    datum = datum_for("C", 2, vec(1, 1))
    z = build_standard(datum, std_weights("C", 2), datum.group.identity())
    with pytest.raises(ValueError, match="not a line"):
        clp(z)


def test_clp_table_of_the_odd_orthogonal_standard_case() -> None:
    datum = datum_for("B", 3, e1(3))
    module = std_weights("B", 3)
    values = [
        clp(build_standard(datum, module, label)) for label in labels_by_length(datum)
    ]
    assert values == [2, 1, 1, 1, 1, 0]


def test_clp_table_of_the_even_orthogonal_standard_case() -> None:
    datum = datum_for("D", 4, e1(4))
    module = std_weights("D", 4)
    values = [
        clp(build_standard(datum, module, label)) for label in labels_by_length(datum)
    ]
    assert values == [2, 1, 1, 1, 1, 1, 1, 0]


def test_clp_table_of_the_symplectic_standard_case_tops_at_two() -> None:
    """The identity label keeps the Hodge line in the deepest conjugate step,
    two steps up, although the order formula only reaches one there."""
    datum = datum_for("C", 3, e1(3))
    module = std_weights("C", 3)
    values = [
        clp(build_standard(datum, module, label)) for label in labels_by_length(datum)
    ]
    assert values == [2, 1, 1, 1, 1, 0]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_dimensional_p_divisible_groups_have_order_and_clp_one(n) -> None:
    """The triple (A_{n-1}, e1, std) is that of the p-divisible groups of
    dimension one and height n, whose Hasse divisor is smooth: order and
    line position are 1 on each of the n - 1 non-ordinary strata and 0 on
    the open one. The profile (1, n - 1) is not palindromic; counting the
    conjugate steps from the top slice gave 0 on all but the identity."""
    mu = e1(n)
    module = std_weights("A", n - 1)
    datum = datum_for("A", n - 1, mu)
    group = datum.group
    labels = group.min_coset_reps(datum.I)
    orders = strata_ord_table(datum, neg(hodge_character(module, mu)))
    positions = [clp(z) for z in standard_zips(datum, module, labels.values())]
    open_label = max(labels, key=group.length)
    assert len(labels) == n
    for label, position in zip(labels, positions):
        expected = 0 if label == open_label else 1
        assert (orders[label], position) == (expected, expected)


def test_clp_table_of_the_wedge_square_case() -> None:
    datum = datum_for("A", 3, vec(1, 1, 0, 0))
    module = wedge(std_weights("A", 3), 2)
    values = [
        clp(build_standard(datum, module, label)) for label in labels_by_length(datum)
    ]
    assert values == [2, 1, 1, 1, 1, 0]


# -- exterior-top positions -------------------------------------------------------


def test_exterior_top_needs_two_steps() -> None:
    datum = datum_for("B", 2, e1(2))
    z = build_standard(datum, std_weights("B", 2), datum.group.identity())
    with pytest.raises(ValueError, match="two-step"):
        clp_exterior_top(z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_top_of_the_siegel_case_counts_sign_flips(n: int) -> None:
    """Each label keeps some subset of the n upper slots in place; the line
    position of the top wedge is the size of that subset."""
    datum = datum_for("C", n, vec(*([1] * n)))
    module = std_weights("C", n)
    group = datum.group
    values = sorted(
        clp_exterior_top(build_standard(datum, module, label))
        for label in group.min_coset_reps(datum.I)
    )
    expected = sorted(
        n - bin(mask).count("1") for mask in range(2**n)
    )
    assert values == expected


def test_exterior_top_of_the_spin_cases() -> None:
    datum_b = datum_for("B", 3, e1(3))
    module_b = spin_weights("B", 3)
    values_b = [
        clp_exterior_top(build_standard(datum_b, module_b, label))
        for label in labels_by_length(datum_b)
    ]
    assert values_b == [4, 2, 2, 2, 2, 0]
    datum_d = datum_for("D", 4, e1(4))
    module_d = spin_weights("D", 4)
    values_d = [
        clp_exterior_top(build_standard(datum_d, module_d, label))
        for label in labels_by_length(datum_d)
    ]
    assert values_d == [4, 2, 2, 2, 2, 2, 2, 0]
