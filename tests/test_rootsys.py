"""Exact arithmetic and classical root system tables."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipstrata import rootsys
from zipstrata.cases import CASE_BY_FLAG, CaseSpec, run_case
from zipstrata.reps import hodge_character, spin_weights, std_weights
from zipstrata.rootsys import (
    ROOT_RANK_CAP,
    add,
    dot,
    neg,
    pairing,
    parse_weight,
    reflect,
    root_system,
    simple_pairings,
    smul,
    sub,
    sum_vectors,
    unit,
    vec,
)
from zipstrata.vanishing import condition_closed, d_w0
from zipstrata.weyl import cocharacter_datum, compose, weyl_group

from helpers import (
    clear_caches,
    expanded,
    fraction_act,
    fraction_hodge_character,
    fraction_pairing,
    fractions_of,
    in_one_form,
    int_reflect,
    is_exact,
)


def is_dominant(system, lam) -> bool:
    """True when lam pairs non-negatively with every simple coroot."""
    return all(value >= 0 for value in simple_pairings(system, lam))


def first_nonzero_sign(v) -> int:
    """Reference: in these coordinate realizations a root is positive
    exactly when its first nonzero coordinate is."""
    for a in v:
        if a != 0:
            return 1 if a > 0 else -1
    return 0


def test_vec_builds_fractions() -> None:
    """A coordinate is an int where it is integral and a Fraction only
    where it is not, whichever form it came in."""
    v = vec(1, Fraction(1, 2), -3)
    assert v == (1, Fraction(1, 2), -3)
    assert [type(c) for c in v] == [int, Fraction, int]
    assert [type(c) for c in vec(Fraction(4, 2), True, Fraction(-3, 6))] == [int, int, Fraction]


def test_unit_is_one_indexed() -> None:
    assert unit(3, 1) == vec(1, 0, 0)
    assert unit(3, 3) == vec(0, 0, 1)
    with pytest.raises(ValueError):
        unit(3, 0)
    with pytest.raises(ValueError):
        unit(3, 4)


def test_vector_arithmetic() -> None:
    u, v = vec(1, 2), vec(3, -1)
    assert add(u, v) == vec(4, 1)
    assert sub(u, v) == vec(-2, 3)
    assert neg(u) == vec(-1, -2)
    assert smul(Fraction(1, 2), u) == vec(Fraction(1, 2), 1)
    assert dot(u, v) == 1


def test_first_nonzero_sign() -> None:
    assert first_nonzero_sign(vec(0, 0, 3)) == 1
    assert first_nonzero_sign(vec(0, -1, 5)) == -1
    assert first_nonzero_sign(vec(0, 0)) == 0


@pytest.mark.parametrize(
    "cartan_type, rank, count",
    [
        ("A", 1, 1),
        ("A", 3, 6),
        ("B", 2, 4),
        ("B", 3, 9),
        ("C", 3, 9),
        ("C", 4, 16),
        ("D", 3, 6),
        ("D", 4, 12),
    ],
)
def test_positive_root_counts(cartan_type: str, rank: int, count: int) -> None:
    # |R+| is m(m+1)/2 for A_m, m^2 for B_m and C_m, m(m-1) for D_m.
    system = root_system(cartan_type, rank)
    assert len(system.positive_roots) == count
    assert len(system.roots) == 2 * count


def test_simple_roots_are_positive_and_independent() -> None:
    for t, m in [("A", 2), ("B", 3), ("C", 2), ("D", 4)]:
        system = root_system(t, m)
        assert len(system.simple_roots) == m
        for alpha in system.simple_roots:
            assert first_nonzero_sign(alpha) == 1
            assert alpha in system.positive_roots


def test_every_positive_root_is_a_nonneg_simple_combination() -> None:
    system = root_system("B", 3)
    simples = system.simple_roots
    for alpha in system.positive_roots:
        # solve alpha = sum c_i alpha_i by back substitution on coordinates;
        # for B_m in standard coordinates alpha_i = e_i - e_{i+1}, alpha_m = e_m,
        # so c_i is the partial sum of the first i coordinates.
        coeffs = []
        running = Fraction(0)
        for i in range(3):
            running += alpha[i]
            coeffs.append(running)
        assert all(c >= 0 for c in coeffs)
        rebuilt = sum_vectors(
            (smul(c, s) for c, s in zip(coeffs, simples)), system.ambient_dim
        )
        assert rebuilt == alpha


@pytest.mark.parametrize(
    "cartan_type, rank, expected",
    [
        ("A", 2, ((2, -1), (-1, 2))),
        ("B", 2, ((2, -1), (-2, 2))),
        ("C", 2, ((2, -2), (-1, 2))),
        ("B", 3, ((2, -1, 0), (-1, 2, -1), (0, -2, 2))),
        ("C", 3, ((2, -1, 0), (-1, 2, -2), (0, -1, 2))),
        ("D", 4, ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))),
    ],
)
def test_cartan_matrices(cartan_type: str, rank: int, expected) -> None:
    system = root_system(cartan_type, rank)
    assert system.cartan == expected


def test_b2_short_and_long_roots() -> None:
    system = root_system("B", 2)
    short = vec(0, 1)
    long_ = vec(1, -1)
    assert short in system.positive_roots
    assert long_ in system.positive_roots
    assert dot(short, short) == 1
    assert dot(long_, long_) == 2


def test_c_last_simple_root_is_long() -> None:
    system = root_system("C", 3)
    assert system.simple(3) == vec(0, 0, 2)
    assert dot(system.simple(3), system.simple(3)) == 4


def test_d_fork_root() -> None:
    system = root_system("D", 4)
    assert system.simple(4) == vec(0, 0, 1, 1)


def test_pairing_and_reflection() -> None:
    alpha = vec(1, -1)
    lam = vec(3, 1)
    assert pairing(lam, alpha) == 2
    assert reflect(lam, alpha) == vec(1, 3)
    # reflecting twice is the identity
    assert reflect(reflect(lam, alpha), alpha) == lam


def test_pairing_short_root_doubles() -> None:
    # against a short root of B, the coroot is twice the root
    alpha = vec(0, 1)
    assert pairing(vec(0, 3), alpha) == 6


def test_pairing_of_int_vectors_is_exact() -> None:
    """Two int vectors pair to a Fraction, never a float, also where the
    value is not integral."""
    for lam, alpha, expected in [((3, 1), (1, -1), 2), ((1, 0), (2, 2), Fraction(1, 2))]:
        value = pairing(lam, alpha)
        assert type(value) is Fraction and value == expected


def test_is_dominant() -> None:
    b2 = root_system("B", 2)
    assert is_dominant(b2, vec(2, 1))
    assert is_dominant(b2, vec(1, 1))
    assert not is_dominant(b2, vec(1, 2))
    assert not is_dominant(b2, vec(1, -1))

    a2 = root_system("A", 2)
    assert is_dominant(a2, vec(2, 1, 0))
    assert not is_dominant(a2, vec(0, 1, 2))


def test_parse_weight_checks_dimension() -> None:
    b2 = root_system("B", 2)
    assert parse_weight(b2, [1, 0]) == vec(1, 0)
    with pytest.raises(ValueError):
        parse_weight(b2, [1, 0, 0])


def test_sum_vectors_empty_is_zero() -> None:
    assert sum_vectors([], 3) == vec(0, 0, 0)


def test_rejects_unknown_type_and_bad_rank() -> None:
    with pytest.raises(ValueError):
        root_system("E", 8)
    with pytest.raises(ValueError):
        root_system("D", 1)


@pytest.mark.parametrize("cartan_type", "ABCD")
def test_ranks_above_the_ceiling_are_rejected_before_anything_is_built(
    monkeypatch, cartan_type: str
) -> None:
    def refuse(*args):
        raise AssertionError("built roots above the rank ceiling")

    monkeypatch.setattr(rootsys, "add", refuse)
    monkeypatch.setattr(rootsys, "sub", refuse)
    before = root_system.cache_info()
    for rank in (ROOT_RANK_CAP + 1, 1500, 10**30):
        with pytest.raises(ValueError, match="above the ceiling of 64"):
            root_system(cartan_type, rank)
    assert root_system.cache_info().currsize == before.currsize


def test_the_rank_ceiling_admits_every_case() -> None:
    """GLn_wedge_dualsum at rank 64 needs A_63; the standard cases stop at
    rank 32 and the spin cases at 13."""
    assert len(root_system("A", 63).positive_roots) == 63 * 64 // 2
    assert root_system("D", ROOT_RANK_CAP).rank == ROOT_RANK_CAP


# -- shared systems and their integer data ---------------------------------

ALL_TYPES = [(t, r) for t in "ABC" for r in range(1, 7)] + [("D", r) for r in range(2, 7)]


@pytest.mark.parametrize("cartan_type,rank", ALL_TYPES)
def test_root_system_is_shared(cartan_type: str, rank: int) -> None:
    assert root_system(cartan_type, rank) is root_system(cartan_type, rank)


@pytest.mark.parametrize("cartan_type,rank", ALL_TYPES)
def test_integer_data_matches_the_fraction_formulas(cartan_type: str, rank: int) -> None:
    system = root_system(cartan_type, rank)
    simple = system.simple_roots
    assert system.cartan == tuple(
        tuple(pairing(a_j, a_i) for a_j in simple) for a_i in simple
    )
    for alpha, coroot in zip(simple, system.simple_coroots):
        dense = [Fraction(0)] * system.ambient_dim
        for k, c in coroot:
            dense[k] = Fraction(c)
        assert tuple(dense) == smul(Fraction(2) / dot(alpha, alpha), alpha)
    dim = system.ambient_dim
    e = [unit(dim, i) for i in range(1, dim + 1)]
    if cartan_type == "A":
        simple_formulas = [sub(e[i], e[i + 1]) for i in range(rank)]
        positive_formulas = [sub(e[i], e[j]) for i in range(dim) for j in range(i + 1, dim)]
    else:
        simple_formulas = [sub(e[i], e[i + 1]) for i in range(rank - 1)]
        if cartan_type == "B":
            simple_formulas.append(e[-1])
        elif cartan_type == "C":
            simple_formulas.append(smul(2, e[-1]))
        else:
            simple_formulas.append(add(e[-2], e[-1]))
        positive_formulas = [
            root
            for i in range(rank)
            for j in range(i + 1, rank)
            for root in (sub(e[i], e[j]), add(e[i], e[j]))
        ]
        if cartan_type == "B":
            positive_formulas += e
        elif cartan_type == "C":
            positive_formulas += [smul(2, u) for u in e]
    assert system.simple_roots == tuple(simple_formulas)
    assert system.positive_roots == tuple(positive_formulas)
    assert all(type(c) is int for root in system.roots for c in root)
    assert system.root_keys == frozenset(positive_formulas + [neg(a) for a in positive_formulas])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_simple_pairings_match_pairing(data) -> None:
    """Random weights with denominators 1, 2 and 3, negative entries too."""
    cartan_type = data.draw(st.sampled_from("ABCD"))
    rank = data.draw(st.integers(min_value=2 if cartan_type == "D" else 1, max_value=6))
    system = root_system(cartan_type, rank)
    entry = st.builds(
        Fraction,
        st.integers(min_value=-7, max_value=7),
        st.sampled_from((1, 2, 3)),
    )
    lam = tuple(data.draw(st.lists(
        entry, min_size=system.ambient_dim, max_size=system.ambient_dim
    )))
    expected = tuple(pairing(lam, alpha) for alpha in system.simple_roots)
    assert simple_pairings(system, lam) == expected
    assert is_dominant(system, lam) == all(value >= 0 for value in expected)


def test_simple_pairings_check_dimension() -> None:
    with pytest.raises(ValueError):
        simple_pairings(root_system("B", 2), vec(1, 0, 0))


# Integral coordinates as int or as Fraction, and half-integral ones.
MIXED_COORDINATE = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.integers(min_value=-12, max_value=12).map(lambda n: Fraction(n, 2)),
)
EXACT_SYSTEMS = [(t, r) for t in "ABC" for r in range(1, 4)] + [("D", r) for r in range(2, 5)]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_coordinates_stay_exact_in_either_form(data) -> None:
    """On mixed int and Fraction inputs, the builders and kernels return
    only int and Fraction coordinates and the values of the same
    computation done on Fractions throughout; the builders return each
    coordinate in its one form, an int where it is integral."""
    cartan_type, rank = data.draw(st.sampled_from(EXACT_SYSTEMS))
    group = weyl_group(cartan_type, rank)
    system = group.system
    dim = system.ambient_dim
    coords = st.lists(MIXED_COORDINATE, min_size=dim, max_size=dim).map(tuple)
    lam, mu = data.draw(coords), data.draw(coords)
    c = data.draw(MIXED_COORDINATE)
    i = data.draw(st.integers(min_value=1, max_value=dim))
    w = data.draw(st.sampled_from(group.elements()))
    p = data.draw(st.sampled_from((2, 3, 5)))

    built = {
        "vec": (vec(*lam), fractions_of(lam)),
        "unit": (unit(dim, i), fractions_of(int(j == i) for j in range(1, dim + 1))),
        "simple_pairings": (
            simple_pairings(system, lam),
            tuple(fraction_pairing(lam, alpha) for alpha in system.simple_roots),
        ),
    }
    modules = [std_weights(cartan_type, rank)]
    if cartan_type in "BD":
        modules.append(spin_weights(cartan_type, rank))
    for k, module in enumerate(modules):
        built[f"hodge_character {k}"] = (
            hodge_character(module, mu), fraction_hodge_character(module, mu)
        )
    for name, (got, expected) in built.items():
        assert in_one_form(got) and got == expected, name

    datum = cocharacter_datum(group, mu)
    twisted = fraction_act(group, compose(datum.z, datum.w0), lam)
    computed = {
        "smul": (smul(c, lam), tuple(Fraction(c) * a for a in fractions_of(lam))),
        "neg": (neg(lam), tuple(-a for a in fractions_of(lam))),
        "act": (group.act(w, lam), fraction_act(group, w, lam)),
        "d_w0": (
            d_w0(lam, p, datum),
            tuple(a - p * b for a, b in zip(fractions_of(lam), twisted)),
        ),
    }
    for name, (got, expected) in computed.items():
        assert is_exact(got) and got == expected, name
    for alpha in system.simple_roots:
        value = pairing(lam, alpha)
        assert is_exact((value,)) and value == fraction_pairing(lam, alpha)


# -- the slot layout -----------------------------------------------------------

SLOT_LAYOUTS = (
    [(t, r) for t in "ABC" for r in range(1, 9)]
    + [("D", r) for r in range(2, 9)]
    + [(t, ROOT_RANK_CAP) for t in "ABCD"]
)


@pytest.mark.parametrize("cartan_type,rank", SLOT_LAYOUTS)
def test_slot_tables_match_the_reflection_formula(cartan_type: str, rank: int) -> None:
    """The slot pairs give the simple roots in index order and then every
    other positive root once; each simple reflection's slot swaps move the
    slot weights as ``reflect`` does; and the slot weights are the standard
    module's, written out here as e_i, then 0 in type B, then -e_i. The
    swaps are checked against the formula on integers, and up to rank 8
    against ``reflect`` too."""
    system = root_system(cartan_type, rank)
    weights = system.slot_weights
    differences = [sub(weights[a], weights[b]) for a, b in system.root_pairs]
    assert differences[:rank] == list(system.simple_roots)
    assert sorted(differences) == sorted(system.positive_roots)
    assert len(set(differences)) == len(differences)
    assert all(a < b for a, b in system.root_pairs)
    assert len(system.simple_swaps) == rank
    for alpha, swaps in zip(system.simple_roots, system.simple_swaps):
        swapped = list(weights)
        for a, b in swaps:
            swapped[a], swapped[b] = swapped[b], swapped[a]
        assert swapped == [int_reflect(weight, alpha) for weight in weights]
        if rank <= 8:
            assert swapped == [reflect(weight, alpha) for weight in weights]
    dim = system.ambient_dim
    expected = [unit(dim, i) for i in range(1, dim + 1)]
    if cartan_type == "B":
        expected.append(vec(*[0] * dim))
    if cartan_type != "A":
        expected += [neg(unit(dim, i)) for i in range(1, dim + 1)]
    assert sorted(weights) == sorted(expected)
    assert sorted(weights) == sorted(expanded(std_weights(cartan_type, rank)))


@pytest.mark.parametrize("cartan_type,rank,expected", [
    ("A", 1, {}),
    ("A", 3, {}),
    ("B", 1, {0: 2, 1: 1, 2: 0}),
    ("B", 2, {0: 4, 1: 3, 2: 2, 3: 1, 4: 0}),
    ("C", 1, {0: 1, 1: 0}),
    ("C", 2, {0: 3, 1: 2, 2: 1, 3: 0}),
    ("D", 2, {0: 3, 1: 2, 2: 1, 3: 0}),
    ("D", 3, {0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0}),
])
def test_mirror_tables(cartan_type: str, rank: int, expected) -> None:
    """No slot of type A has a mirror; type B's zero slot is its own."""
    assert root_system(cartan_type, rank).mirror == expected


@pytest.mark.parametrize("cartan_type,rank", SLOT_LAYOUTS)
def test_the_mirror_holds_each_negated_slot_weight(cartan_type: str, rank: int) -> None:
    """``mirror`` sends a slot to the slot of its negated weight, for every
    slot whose negated weight is a slot, and is an involution."""
    system = root_system(cartan_type, rank)
    weights = system.slot_weights
    negated = {k for k, weight in enumerate(weights) if neg(weight) in weights}
    assert set(system.mirror) == negated
    for k, j in system.mirror.items():
        assert weights[j] == neg(weights[k])
        assert system.mirror[j] == k


@pytest.mark.parametrize("flag,rank", [("so-odd", 3), ("so-even", 4), ("sp-cn", 3), ("gl-dualsum", 4)])
def test_positive_roots_are_built_only_for_the_closedness_diagnostic(flag: str, rank: int) -> None:
    """A case table never reads the positive roots. ``condition_closed``
    builds them on demand and gives the verdicts and witnesses of a system
    whose roots were built up front, on every word of up to four letters,
    some of them not closed."""
    clear_caches()
    system = run_case(CaseSpec(CASE_BY_FLAG[flag], rank, 3)).datum.group.system
    assert system is root_system(system.cartan_type, system.rank)
    assert "positive_roots" not in system.__dict__
    eager = rootsys.RootSystem(system.cartan_type, system.rank)
    assert eager.positive_roots
    verdicts = []
    for length in range(1, 5):
        for word in itertools.product(range(1, system.rank + 1), repeat=length):
            verdict = condition_closed(system, word)
            assert verdict == condition_closed(eager, word), word
            verdicts.append(verdict[0])
    assert "positive_roots" in system.__dict__
    assert system.positive_roots == eager.positive_roots
    assert True in verdicts and False in verdicts
