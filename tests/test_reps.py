"""Weight multisets: constructors, tensor operations, mu-slices."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipstrata import reps
from zipstrata.reps import (
    MODULE_DIM_CAP,
    WeightMultiset,
    _slot_table,
    dual,
    hodge_character,
    spin_weights,
    std_weights,
    wedge,
)
from zipstrata.rootsys import root_system, sum_vectors, unit, vec
from zipstrata.weyl import WeylGroup

from helpers import dsum, expanded, is_cy, mu_profile, multiplicity, reference_entries


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
    assert multiplicity(module, vec(0, 0, 0)) == 1
    assert multiplicity(module, e1(3)) == 1


@pytest.mark.parametrize("cartan_type,rank,dim", [("B", 3, 8), ("B", 4, 16), ("D", 4, 8), ("D", 5, 16)])
def test_spin_module_dimensions(cartan_type: str, rank: int, dim: int) -> None:
    assert spin_weights(cartan_type, rank).dimension == dim


@pytest.mark.parametrize("cartan_type,rank", [("B", 13), ("D", 14)])
def test_spin_module_above_the_dimension_ceiling_is_refused_before_building(
    monkeypatch, cartan_type: str, rank: int
) -> None:
    """2^13 is the first power of two above the ceiling of 4096: the rank
    alone refuses it, and no multiset is constructed."""
    def refuse(*args):
        raise AssertionError("a spin module was built")

    assert MODULE_DIM_CAP == 4096
    monkeypatch.setattr(reps, "WeightMultiset", refuse)
    with pytest.raises(ValueError, match="above the ceiling of 4096"):
        spin_weights(cartan_type, rank)


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
            group.act(s, weight) for weight in expanded(module)
        )
        assert reflected == module


def test_spin_module_is_weyl_stable() -> None:
    for cartan_type, rank in [("B", 3), ("D", 4)]:
        group = WeylGroup(root_system(cartan_type, rank))
        module = spin_weights(cartan_type, rank)
        for i in range(1, rank + 1):
            s = group.simple_reflection(i)
            reflected = WeightMultiset.from_weights(
                group.act(s, weight) for weight in expanded(module)
            )
            assert reflected == module


# -- tensor operations ---------------------------------------------------------


def test_every_constructor_stores_the_reduced_integer_image() -> None:
    """Whichever constructor builds a multiset, it stores only integers: its
    scale is the lcm of its exact weights' denominators and its keys are
    those weights times the scale, sorted; and equal multisets built along
    different paths compare and hash equally."""
    half = Fraction(1, 2)
    spin, even = spin_weights("B", 3), spin_weights("D", 4)
    modules = {
        "from_weights": WeightMultiset.from_weights(
            [vec(half, 0), vec(1, Fraction(1, 3)), vec(half, 0), vec(-2, 0)]
        ),
        "from_weights of integral Fractions": WeightMultiset.from_weights(
            [vec(1, 0), vec(0, -1)]
        ),
        "empty": WeightMultiset.from_weights(()),
        **{f"std {t}": std_weights(t, 3) for t in "ABCD"},
        "spin B": spin,
        "half-spin D": even,
        "wedge std": wedge(std_weights("A", 3), 2),
        "wedge spin": wedge(spin, 1),
        "wedge^2 spin": wedge(spin, 2),
        "wedge^2 half-spin": wedge(even, 2),
        "dual": dual(wedge(std_weights("A", 3), 3)),
        "dual dual spin": dual(dual(spin)),
    }
    for name, module in modules.items():
        entries = module.entries
        scale = lcm(*(c.denominator for weight, _ in entries for c in weight))
        assert module.scale == scale, name
        assert module.keys == tuple(
            tuple(int(c * scale) for c in weight) for weight, _ in entries
        ), name
        assert module.mults == tuple(mult for _, mult in entries), name
        assert list(module.keys) == sorted(set(module.keys)), name
        stored = (module.scale, *module.mults, *itertools.chain.from_iterable(module.keys))
        assert all(type(c) is int for c in stored), name
        for twin in (WeightMultiset.from_weights(expanded(module)), dual(dual(module))):
            assert twin == module and hash(twin) == hash(module), name
    assert modules["wedge^2 spin"].scale == 1
    assert modules["wedge spin"] == spin
    assert WeightMultiset(4, {(4, -8): 2}) == WeightMultiset(1, {(1, -2): 2})
    assert WeightMultiset(4, {(2, -4): 1}).entries == ((vec(half, -1), 1),)


def test_multisets_compare_and_hash_by_their_entries() -> None:
    """However a multiset is built, equal entries give equal multisets with
    one hash, that of the integer image; the entries tuple itself is not
    equal to it."""
    module = std_weights("B", 3)
    rebuilt = WeightMultiset.from_weights(expanded(module))
    assert rebuilt == module and hash(rebuilt) == hash(module)
    assert hash(module) == hash((module.scale, module.keys, module.mults))
    assert module != std_weights("C", 3)
    assert module != module.entries


def test_wedge_dimensions_are_binomial() -> None:
    module = std_weights("A", 3)
    assert wedge(module, 2).dimension == 6
    assert wedge(module, 4).dimension == 1
    assert wedge(module, 0).dimension == 1


def test_wedge_square_of_gl4_weights() -> None:
    module = wedge(std_weights("A", 3), 2)
    assert multiplicity(module, vec(1, 1, 0, 0)) == 1
    assert multiplicity(module, vec(1, 0, 1, 0)) == 1
    assert multiplicity(module, vec(2, 0, 0, 0)) == 0


def test_wedge_collects_multiplicities() -> None:
    """In the second exterior power of the B2 module the zero weight comes
    from both e1 wedge -e1 and e2 wedge -e2."""
    module = wedge(std_weights("D", 2), 2)
    assert multiplicity(module, vec(0, 0)) == 2


@pytest.mark.parametrize("module", [
    spin_weights("B", 3),
    spin_weights("D", 4),
    dsum(std_weights("B", 2), spin_weights("B", 2)),
    dual(std_weights("A", 3)),
])
def test_wedge_equals_summing_the_fraction_weights(module) -> None:
    """Sums taken on the integer image and divided back by its scale give
    the sums of the Fraction weights, also where the scale is 2 and the
    sums are integral."""
    width = len(module.entries[0][0])
    for k in range(module.dimension + 1):
        reference = WeightMultiset.from_weights(
            sum_vectors(subset, width)
            for subset in itertools.combinations(expanded(module), k)
        )
        assert wedge(module, k) == reference


def test_wedge_rejects_out_of_range_power() -> None:
    with pytest.raises(ValueError, match="exterior power"):
        wedge(std_weights("A", 2), 5)


def test_dual_negates_weights() -> None:
    module = std_weights("A", 2)
    assert multiplicity(dual(module), vec(-1, 0, 0)) == 1
    assert dual(dual(module)) == module


def test_dsum_adds_dimensions_and_multiplicities() -> None:
    module = std_weights("D", 3)
    doubled = dsum(module, module)
    assert doubled.dimension == 12
    assert multiplicity(doubled, e1(3)) == 2


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


def test_hodge_character_of_an_empty_module_names_the_missing_weights() -> None:
    with pytest.raises(ValueError, match="no weights"):
        hodge_character(WeightMultiset.from_weights(()), e1(3))


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
    slots = tuple(sorted(expanded(module), key=lambda w: (_dot(w, mu), w), reverse=True))
    scale = lcm(*(c.denominator for weight in slots for c in weight))
    keys = tuple(tuple(int(c * scale) for c in weight) for weight in slots)
    dims = tuple(dim for _, dim in _ref_profile(module, mu))
    return slots, keys, {k: slot for slot, k in enumerate(keys, start=1)}, dims


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


@pytest.mark.parametrize("cartan_type", "ABCD")
def test_the_dual_of_the_dual_is_the_module(cartan_type) -> None:
    for module in _pairing_modules(cartan_type, 3):
        twice = dual(dual(module))
        assert twice == module and hash(twice) == hash(module)


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


@pytest.mark.parametrize("build", [
    lambda: WeightMultiset.from_weights([(Fraction(1),), (Fraction(1), Fraction(5))]),
    lambda: WeightMultiset(1, {(1, 0): 1, (1,): 2}),
])
def test_weights_of_different_lengths_are_rejected(build) -> None:
    """A multiset has one ambient dimension; otherwise the pairing would
    silently drop the extra coordinates."""
    with pytest.raises(ValueError, match="one length"):
        build()


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
    """The image kept by ``from_weights`` is the one the entries give: the
    lcm of their denominators, each weight times it, and the counts."""
    weight = st.lists(_coords, min_size=width, max_size=width).map(tuple)
    multiset = WeightMultiset.from_weights(data.draw(st.lists(weight, max_size=12)))
    scale = lcm(*(c.denominator for entry, _ in multiset.entries for c in entry))
    assert multiset.scale == scale
    assert multiset.keys == tuple(
        tuple(int(c * scale) for c in entry) for entry, _ in multiset.entries
    )
    assert multiset.mults == tuple(mult for _, mult in multiset.entries)


@pytest.mark.parametrize(
    "cartan_type,rank",
    [("B", rank) for rank in range(1, 9)] + [("D", rank) for rank in range(2, 9)],
)
def test_spin_weights_are_the_fraction_sign_vectors(cartan_type, rank) -> None:
    """The sign vectors counted over scale 2 are the multiset of the exact
    vectors (+-1/2, ..., +-1/2), with an even number of minus signs in
    type D."""
    half = Fraction(1, 2)
    signs = [
        s for s in itertools.product((half, -half), repeat=rank)
        if cartan_type == "B" or sum(c < 0 for c in s) % 2 == 0
    ]
    module = spin_weights(cartan_type, rank)
    reference = WeightMultiset.from_weights(signs)
    assert module == reference and hash(module) == hash(reference)
    assert module.entries == reference_entries(signs)
