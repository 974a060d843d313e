"""Weight multisets: constructors, tensor operations, mu-slices."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipstrata.fzip import ZipType, _slot_table
from zipstrata.reps import (
    WeightMultiset,
    dual,
    hodge_character,
    is_cy,
    mu_profile,
    spin_weights,
    std_weights,
    wedge,
)
from zipstrata.rootsys import _to_ints, root_system, unit, vec
from zipstrata.weyl import WeylGroup

from helpers import dsum, reference_entries


def e1(dim: int):
    return unit(dim, 1)


# -- constructors -------------------------------------------------------------


@pytest.mark.parametrize(
    "cartan_type,rank,dim",
    [("A", 3, 4), ("B", 3, 7), ("C", 3, 6), ("D", 4, 8)],
)
def test_standard_module_dimensions(cartan_type: str, rank: int, dim: int) -> None:
    assert std_weights(cartan_type, rank).dimension == dim


def test_standard_module_of_b3_has_a_zero_weight() -> None:
    module = std_weights("B", 3)
    assert module.multiplicity(vec(0, 0, 0)) == 1
    assert module.multiplicity(e1(3)) == 1


@pytest.mark.parametrize("cartan_type,rank,dim", [("B", 3, 8), ("B", 4, 16), ("D", 4, 8), ("D", 5, 16)])
def test_spin_module_dimensions(cartan_type: str, rank: int, dim: int) -> None:
    assert spin_weights(cartan_type, rank).dimension == dim


def test_half_spin_weights_have_even_sign_parity() -> None:
    for weight, mult in spin_weights("D", 4).entries:
        assert mult == 1
        assert sum(coord < 0 for coord in weight) % 2 == 0
        assert all(abs(coord) == Fraction(1, 2) for coord in weight)


@pytest.mark.parametrize(
    "cartan_type,rank",
    [("A", 2), ("B", 3), ("C", 3), ("D", 4)],
)
def test_standard_module_is_weyl_stable(cartan_type: str, rank: int) -> None:
    group = WeylGroup(root_system(cartan_type, rank))
    module = std_weights(cartan_type, rank)
    for i in range(1, rank + 1):
        s = group.simple_reflection(i)
        reflected = WeightMultiset.from_weights(
            group.act(s, weight) for weight in module.expanded()
        )
        assert reflected == module


def test_spin_module_is_weyl_stable() -> None:
    for cartan_type, rank in [("B", 3), ("D", 4)]:
        group = WeylGroup(root_system(cartan_type, rank))
        module = spin_weights(cartan_type, rank)
        for i in range(1, rank + 1):
            s = group.simple_reflection(i)
            reflected = WeightMultiset.from_weights(
                group.act(s, weight) for weight in module.expanded()
            )
            assert reflected == module


# -- tensor operations ---------------------------------------------------------


def test_wedge_dimensions_are_binomial() -> None:
    module = std_weights("A", 3)
    assert wedge(module, 2).dimension == 6
    assert wedge(module, 4).dimension == 1
    assert wedge(module, 0).dimension == 1


def test_wedge_square_of_gl4_weights() -> None:
    module = wedge(std_weights("A", 3), 2)
    assert module.multiplicity(vec(1, 1, 0, 0)) == 1
    assert module.multiplicity(vec(1, 0, 1, 0)) == 1
    assert module.multiplicity(vec(2, 0, 0, 0)) == 0


def test_wedge_collects_multiplicities() -> None:
    """In the second exterior power of the B2 module the zero weight comes
    from both e1 wedge -e1 and e2 wedge -e2."""
    module = wedge(std_weights("D", 2), 2)
    assert module.multiplicity(vec(0, 0)) == 2


def test_wedge_rejects_out_of_range_power() -> None:
    with pytest.raises(ValueError, match="exterior power"):
        wedge(std_weights("A", 2), 5)


def test_dual_negates_weights() -> None:
    module = std_weights("A", 2)
    assert dual(module).multiplicity(vec(-1, 0, 0)) == 1
    assert dual(dual(module)) == module


def test_dsum_adds_dimensions_and_multiplicities() -> None:
    module = std_weights("D", 3)
    doubled = dsum(module, module)
    assert doubled.dimension == 12
    assert doubled.multiplicity(e1(3)) == 2


def test_self_dual_types_have_self_dual_standard_modules() -> None:
    for cartan_type in ("B", "C", "D"):
        module = std_weights(cartan_type, 3)
        assert dual(module) == module


# -- mu-slices -----------------------------------------------------------------


def test_mu_profile_of_the_wedge_square() -> None:
    module = wedge(std_weights("A", 3), 2)
    profile = mu_profile(module, vec(1, 1, 0, 0))
    assert profile == ((2, 1), (1, 4), (0, 1))


def test_mu_profile_of_the_symplectic_module() -> None:
    module = std_weights("C", 3)
    assert mu_profile(module, e1(3)) == ((1, 1), (0, 4), (-1, 1))
    assert mu_profile(module, vec(1, 1, 1)) == ((1, 3), (-1, 3))


def test_is_cy_recognizes_line_topped_profiles() -> None:
    assert is_cy(wedge(std_weights("A", 3), 2), vec(1, 1, 0, 0))
    assert is_cy(std_weights("B", 3), e1(3))
    assert not is_cy(std_weights("C", 3), vec(1, 1, 1))
    assert not is_cy(spin_weights("B", 4), e1(4))


def test_dualsum_profile_is_cy() -> None:
    cube = wedge(std_weights("A", 3), 3)
    module = dsum(cube, dual(cube))
    profile = mu_profile(module, vec(1, 1, 1, 0))
    assert profile == ((3, 1), (2, 3), (-2, 3), (-3, 1))
    assert is_cy(module, vec(1, 1, 1, 0))


# -- the Hodge character -------------------------------------------------------


def test_hodge_character_of_the_siegel_module() -> None:
    module = std_weights("C", 3)
    assert hodge_character(module, vec(1, 1, 1)) == vec(-1, -1, -1)


def test_hodge_character_of_the_spin_modules() -> None:
    assert hodge_character(spin_weights("B", 4), e1(4)) == vec(-4, 0, 0, 0)
    assert hodge_character(spin_weights("D", 4), e1(4)) == vec(-2, 0, 0, 0)
    assert hodge_character(spin_weights("B", 3), e1(3)) == vec(-2, 0, 0)
    assert hodge_character(spin_weights("D", 5), e1(5)) == vec(-4, 0, 0, 0, 0)


def test_hodge_character_of_three_slice_profiles() -> None:
    assert hodge_character(std_weights("B", 3), e1(3)) == vec(-1, 0, 0)
    square = wedge(std_weights("A", 3), 2)
    assert hodge_character(square, vec(1, 1, 0, 0)) == vec(-1, -1, 0, 0)


# -- integer pairings against an exact reference ------------------------------


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v, strict=True)), Fraction(0))


def _ref_profile(module, mu):
    slices = {}
    for weight, mult in module.entries:
        value = _dot(weight, mu)
        slices[value] = slices.get(value, 0) + mult
    return tuple(sorted(slices.items(), reverse=True))


def _ref_hodge(module, mu):
    top = max(_dot(weight, mu) for weight, _ in module.entries)
    total = [Fraction(0)] * len(mu)
    for weight, mult in module.entries:
        if _dot(weight, mu) == top:
            total = [t - mult * c for t, c in zip(total, weight)]
    return tuple(total)


def _ref_slot_table(module, mu):
    slots = tuple(sorted(module.expanded(), key=lambda w: (_dot(w, mu), w), reverse=True))
    scale = lcm(*(c.denominator for weight in slots for c in weight))
    keys = tuple(tuple(int(c * scale) for c in weight) for weight in slots)
    profile = _ref_profile(module, mu)
    ztype = ZipType(
        supports=tuple(value for value, _ in profile),
        dims=tuple(dim for _, dim in profile),
    )
    return slots, keys, {k: slot for slot, k in enumerate(keys, start=1)}, ztype


def _pairing_modules(cartan_type: str, rank: int):
    """Standard, wedge and dual modules of every type; spin (B), half-spin
    (D), their duals and their sums with the standard module, which mix
    denominators 1 and 2."""
    std = std_weights(cartan_type, rank)
    modules = [std, wedge(std, 2), dual(wedge(std, 2))]
    if cartan_type in ("B", "D"):
        spin = spin_weights(cartan_type, rank)
        modules += [spin, dual(spin), dsum(std, spin)]
    return modules


_coords = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3))
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_integer_pairings_match_the_exact_pairing(data) -> None:
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(2, 4))
    module = data.draw(st.sampled_from(_pairing_modules(cartan_type, rank)))
    width = len(module.entries[0][0])
    mu = data.draw(st.one_of(
        st.lists(_coords, min_size=width, max_size=width).map(tuple),
        st.builds(
            lambda c, i: tuple(c if k == i else Fraction(0) for k in range(width)),
            _coords.filter(bool), st.integers(0, width - 1),
        ),
    ))
    profile = mu_profile(module, mu)
    assert profile == _ref_profile(module, mu)
    assert all(type(value) is Fraction for value, _ in profile)
    assert hodge_character(module, mu) == _ref_hodge(module, mu)
    assert _slot_table(module, mu) == _ref_slot_table(module, mu)


@pytest.mark.parametrize("module", [std_weights("B", 3), spin_weights("D", 4)])
def test_a_cocharacter_of_the_wrong_length_is_rejected(module) -> None:
    width = len(module.entries[0][0])
    for mu in (e1(width - 1), e1(width + 1)):
        for pairing in (mu_profile, hodge_character, _slot_table):
            with pytest.raises(ValueError):
                pairing(module, mu)


@given(
    width=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_from_weights_equals_counting_the_fraction_weights(width, data) -> None:
    """Counting and sorting on the integer image gives the entries that
    counting and sorting the Fraction weights gives, with mixed
    denominators, negative coordinates and repeats."""
    weight = st.lists(_coords, min_size=width, max_size=width).map(tuple)
    pool = data.draw(st.lists(weight, min_size=1, max_size=6))
    weights = data.draw(st.lists(st.sampled_from(pool), max_size=20))
    assert WeightMultiset.from_weights(weights).entries == reference_entries(weights)


@given(
    width=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_from_weights_seeds_the_integer_image(width, data) -> None:
    """The image kept by ``from_weights`` is the one the entries give."""
    weight = st.lists(_coords, min_size=width, max_size=width).map(tuple)
    multiset = WeightMultiset.from_weights(data.draw(st.lists(weight, max_size=12)))
    seeded = multiset.__dict__["_int_image"]
    assert seeded == _to_ints(entry for entry, _ in multiset.entries)
