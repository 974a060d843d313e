"""Tests for the per-case comparison of orders and line positions."""

import pytest

from zipstrata import cache_stats
from zipstrata import cases, fzip, vanishing, weyl
from zipstrata.cases import (
    CASE_BY_FLAG,
    CASE_IDENTIFIERS,
    MODULE_DIM_CAP,
    PRESETS,
    PRIME_MAX,
    STRATA_CAP,
    CaseSpec,
    check_spec,
    functoriality_check_A3_D3,
    is_prime,
    run_case,
)
from zipstrata.fzip import build_standard, clp, clp_exterior_top
from zipstrata.oracle import gl_plucker_order
from zipstrata.reps import dual, hodge_character, spin_weights, std_weights, wedge
from zipstrata.rootsys import vec
from zipstrata.vanishing import strata_ord_table
from zipstrata.weyl import WeylGroup, cocharacter_datum, compose, weyl_group

from helpers import (
    TABLE_CASES,
    bruhat_leq,
    clear_caches,
    dsum,
    hand_eta,
    reference_min_in_double_coset,
    reference_reports,
)


def ords(result):
    return [r.ord for r in result.reports]


def clps(result):
    return [r.clp for r in result.reports]


class TestSpecValidation:
    def test_unknown_identifier_is_rejected(self):
        with pytest.raises(ValueError, match="unknown case"):
            run_case(CaseSpec("GL_everything", 4, 3))

    def test_rank_below_the_minimum_is_rejected(self):
        with pytest.raises(ValueError, match="rank at least"):
            run_case(CaseSpec("SO_even_std", 2, 3))

    def test_wedge_square_case_pins_the_rank(self):
        with pytest.raises(ValueError, match="rank 4"):
            run_case(CaseSpec("GL4_wedge2", 5, 3))

    @pytest.mark.parametrize("rank", [5, 10**6])
    def test_fixed_rank_is_checked_before_anything_is_built(self, rank):
        before = cache_stats()["cases._case_data"]
        with pytest.raises(ValueError, match="above its largest rank 4"):
            check_spec(CaseSpec("GL4_wedge2", rank, 3))
        assert cache_stats()["cases._case_data"] == before

    def test_only_fixed_rank_presets_have_a_largest_rank(self):
        for preset in PRESETS.values():
            assert preset.max_rank in (None, preset.min_rank)
        assert PRESETS["GL4_wedge2"].max_rank == 4

    def test_silly_prime_is_rejected(self):
        with pytest.raises(ValueError, match="not a prime"):
            run_case(CaseSpec("SO_odd_std", 3, 1))

    @pytest.mark.parametrize("prime", [10**400, 1000000000000000003])
    def test_prime_above_the_ceiling_is_rejected_before_trial_division(self, prime):
        with pytest.raises(ValueError, match="at most"):
            run_case(CaseSpec("SO_odd_std", 3, prime))

    def test_check_spec_builds_nothing(self):
        before = cache_stats()["cases._case_data"]
        check_spec(CaseSpec("GSp2n_wedge_dual", 6, 999999999989))
        with pytest.raises(ValueError, match="above the ceiling"):
            check_spec(CaseSpec("GSp2n_wedge_dual", 7, 3))
        assert cache_stats()["cases._case_data"] == before

    def test_largest_prime_below_the_ceiling_is_accepted(self):
        assert 999999999989 <= PRIME_MAX
        assert is_prime(999999999989)
        assert not is_prime(PRIME_MAX)

    def test_every_identifier_runs_at_its_minimal_rank(self):
        for identifier in CASE_IDENTIFIERS:
            rank = {"SO_even_std": 3, "GSpin_spin_even": 3, "GL4_wedge2": 4,
                    "GLn_wedge_dualsum": 2, "GSpin_spin_odd": 2,
                    "SO_odd_std": 2}.get(identifier, 1)
            result = run_case(CaseSpec(identifier, rank, 2))
            assert result.reports


def _case_module(identifier, rank):
    """The module each case pairs with its cocharacter, built in full."""
    if identifier == "SO_odd_std":
        return std_weights("B", rank)
    if identifier == "SO_even_std":
        return std_weights("D", rank)
    if identifier in ("Sp2n_std_Cn", "GSp2n_wedge_dual"):
        return std_weights("C", rank)
    if identifier == "GLn_wedge_dualsum":
        return wedge(std_weights("A", rank - 1), rank - 1)
    if identifier == "GL4_wedge2":
        return wedge(std_weights("A", 3), 2)
    return spin_weights("B" if identifier == "GSpin_spin_odd" else "D", rank)


class TestSizeCeilings:
    @pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
    def test_closed_forms_match_the_built_case(self, identifier):
        low = PRESETS[identifier].min_rank
        for rank in ([4] if identifier == "GL4_wedge2" else range(low, low + 3)):
            dim, strata = PRESETS[identifier].size(rank)
            assert dim == _case_module(identifier, rank).dimension
            assert strata == len(run_case(CaseSpec(identifier, rank, 3)).reports)

    @pytest.mark.parametrize("identifier,rank", [
        ("SO_odd_std", 7), ("SO_even_std", 7), ("Sp2n_std_Cn", 7),
        ("GSp2n_wedge_dual", 6), ("GLn_wedge_dualsum", 11), ("GL4_wedge2", 4),
        ("GSpin_spin_odd", 7), ("GSpin_spin_even", 7),
        ("SO_odd_std", 32), ("GLn_wedge_dualsum", 64),
        ("GSpin_spin_odd", 12), ("GSpin_spin_even", 13),
    ])
    def test_used_and_largest_ranks_are_within_the_ceilings(self, identifier, rank):
        dim, strata = PRESETS[identifier].size(rank)
        assert dim <= MODULE_DIM_CAP and strata <= STRATA_CAP

    def test_the_largest_siegel_table_runs(self):
        assert len(run_case(CaseSpec("GSp2n_wedge_dual", 6, 3)).reports) == 64

    @pytest.mark.parametrize("identifier,rank,reason", [
        ("GSpin_spin_odd", 13, "module of dimension 8192"),
        ("GSpin_spin_even", 14, "module of dimension 8192"),
        ("GSpin_spin_odd", 40, "80 strata"),
        ("GSp2n_wedge_dual", 7, "128 strata"),
        ("SO_odd_std", 33, "66 strata"),
        ("SO_even_std", 33, "66 strata"),
        ("Sp2n_std_Cn", 33, "66 strata"),
        ("GLn_wedge_dualsum", 65, "65 strata"),
        ("GSpin_spin_even", 10**30, "130 strata"),
    ])
    def test_oversized_cases_are_rejected_before_anything_is_built(
        self, monkeypatch, identifier, rank, reason
    ):
        def refuse(*args):
            raise AssertionError("built something for an oversized case")

        for name in ("weyl_group", "cocharacter_datum", "std_weights", "spin_weights"):
            monkeypatch.setattr(cases, name, refuse)
        with pytest.raises(ValueError, match=f"{reason}, above the ceiling"):
            run_case(CaseSpec(identifier, rank, 3))


def _accepted_ranks(identifier):
    """Every rank ``check_spec`` accepts for the case, from its minimum up."""
    ranks = []
    rank = PRESETS[identifier].min_rank
    while True:
        try:
            check_spec(CaseSpec(identifier, rank, 3))
        except ValueError:
            return ranks
        ranks.append(rank)
        rank += 1


class TestPresets:
    def test_flags_name_the_eight_cases(self):
        assert CASE_BY_FLAG == {
            "so-odd": "SO_odd_std",
            "so-even": "SO_even_std",
            "sp-cn": "Sp2n_std_Cn",
            "siegel": "GSp2n_wedge_dual",
            "gl-dualsum": "GLn_wedge_dualsum",
            "gl4-wedge2": "GL4_wedge2",
            "gspin-odd": "GSpin_spin_odd",
            "gspin-even": "GSpin_spin_even",
        }

    def test_the_presets_have_185_accepted_ranks(self):
        """122 ranks of the single-power presets and the dual-sum ranks 2 to
        64."""
        assert sum(len(_accepted_ranks(i)) for i in CASE_IDENTIFIERS) == 185
        assert _accepted_ranks("GLn_wedge_dualsum") == list(range(2, 65))

    @pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
    def test_the_rule_gives_the_hand_eta_at_every_accepted_rank(self, identifier):
        """All accepted ranks, with the preset's power: every rank up to 8,
        and the ceiling."""
        preset = PRESETS[identifier]
        for rank in _accepted_ranks(identifier):
            _, _, mu, module = preset.triple(rank)
            eta = tuple(preset.power * c for c in hodge_character(module, mu))
            assert eta == hand_eta(identifier, rank)

    @pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
    def test_the_datum_keeps_the_longest_element(self, identifier, sweep_caches):
        """At the smallest and largest accepted rank, the datum's w0 is the
        group's longest element, as in the case data that ``run_case``
        reads."""
        ranks = _accepted_ranks(identifier)
        for rank in (ranks[0], ranks[-1]):
            cartan_type, group_rank, mu, _ = PRESETS[identifier].triple(rank)
            group = weyl_group(cartan_type, group_rank)
            assert cocharacter_datum(group, mu).w0 == group.longest_element()
        datum = run_case(CaseSpec(identifier, ranks[0], 3)).datum
        assert datum.w0 == datum.group.longest_element()

    @pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
    def test_each_case_carries_its_hand_eta(self, identifier):
        for rank in _accepted_ranks(identifier)[:3]:
            result = run_case(CaseSpec(identifier, rank, 3))
            assert result.eta == hand_eta(identifier, rank)

    @pytest.mark.parametrize("rank", range(2, 9))
    def test_the_rule_gives_half_the_dual_sum_eta(self, rank):
        """The rule on the sum module gives the eta of the last wedge alone,
        half the hand Hodge character: why the case is the square of the
        last wedge's Hasse invariant."""
        top = wedge(std_weights("A", rank - 1), rank - 1)
        rule = hodge_character(dsum(top, dual(top)), vec(*([1] * (rank - 1) + [0])))
        assert tuple(2 * c for c in rule) == hand_eta("GLn_wedge_dualsum", rank)


def _refuse_rebuilding_columns(monkeypatch):
    """Make building a zip or a Bruhat class fail the test."""
    def refuse(*args):
        raise AssertionError("rebuilt a column of a cached case")

    monkeypatch.setattr(cases, "standard_zips", refuse)
    monkeypatch.setattr(fzip, "standard_zips", refuse)
    monkeypatch.setattr(fzip, "build_standard", refuse)
    monkeypatch.setattr(WeylGroup, "min_in_double_coset", refuse)


def test_rerunning_a_case_builds_no_zip_and_no_bruhat_class(monkeypatch):
    """A second run of a case reads the line positions and Bruhat classes
    cached with the case data."""
    spec = CaseSpec("GSpin_spin_odd", 4, 3)
    first = run_case(spec)
    _refuse_rebuilding_columns(monkeypatch)
    assert run_case(spec).reports == first.reports


@pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
def test_order_tables_sweep_no_roots(identifier, monkeypatch):
    """At each preset's two smallest ranks, ``run_case`` gives the same
    reports with the root sweep and the closedness check made to fail: the
    stratum table checks no word that the coset enumeration built."""
    def refuse(*args):
        raise AssertionError("swept roots on the table path")

    specs = [CaseSpec(identifier, rank, 3) for rank in _accepted_ranks(identifier)[:2]]
    before = [run_case(spec).reports for spec in specs]
    monkeypatch.setattr(vanishing, "root_sequence", refuse)
    monkeypatch.setattr(vanishing, "condition_closed", refuse)
    assert [run_case(spec).reports for spec in specs] == before


def test_a_failed_twist_identity_prints_the_exact_weight(monkeypatch):
    monkeypatch.setattr(cases, "d_w0", lambda lam, p, datum: lam)
    with pytest.raises(ValueError) as err:
        run_case(CaseSpec("GSpin_spin_odd", 4, 3))
    assert str(err.value) == (
        "case GSpin_spin_odd: the Hodge character (-4, 0, 0, 0) does not "
        "satisfy the twist identity"
    )


def _falls(pairs, values):
    """The Bruhat pairs (a, b), labels[a] <= labels[b], on which the values
    fall from a to b."""
    return [(a, b) for a, b in pairs if values[a] < values[b]]


@pytest.mark.parametrize("identifier,rank", [
    (identifier, rank)
    for identifier in CASE_IDENTIFIERS
    for rank in _accepted_ranks(identifier)
    if rank <= 4
])
def test_orders_and_line_positions_rise_down_the_bruhat_order(identifier, rank):
    """For labels w' <= w in the Bruhat order, stratum w' lies in the
    closure of stratum w, so ord(w') >= ord(w) and clp(w') >= clp(w).
    Control: every label lies below the open stratum's, so swapping its
    value with that of a stratum whose value differs must be caught."""
    result = run_case(CaseSpec(identifier, rank, 3))
    labels = [report.w for report in result.reports]
    group = result.datum.group
    pairs = [
        (a, b)
        for a, u in enumerate(labels)
        for b, w in enumerate(labels)
        if a != b and bruhat_leq(group, u, w)
    ]
    for column in (ords(result), clps(result)):
        assert _falls(pairs, column) == []
        other = next(k for k, value in enumerate(column) if value != column[0])
        swapped = list(column)
        swapped[0], swapped[other] = column[other], column[0]
        assert (other, 0) in _falls(pairs, swapped)


class TestCaseDataCache:
    @pytest.mark.parametrize("identifier,rank", [
        ("SO_odd_std", 4), ("GSp2n_wedge_dual", 3), ("GSpin_spin_even", 4),
    ])
    def test_later_primes_reuse_the_datum(self, identifier, rank):
        first, *later = [
            run_case(CaseSpec(identifier, rank, p)) for p in (3, 5, 7)
        ]
        for result in later:
            assert result.datum is first.datum
            assert result.reports == first.reports
            assert result.eta == first.eta

    @pytest.mark.parametrize("identifier,rank,tables", [
        ("SO_even_std", 4, 1), ("GL4_wedge2", 4, 1), ("GSpin_spin_odd", 3, 1),
        ("GSp2n_wedge_dual", 3, 0), ("GLn_wedge_dualsum", 5, 0),
    ])
    def test_a_rerun_builds_only_the_order_table(
        self, monkeypatch, identifier, rank, tables
    ):
        first = run_case(CaseSpec(identifier, rank, 3))

        def refuse(*args):
            raise AssertionError("rebuilt the data of a cached case")

        for name in ("weyl_group", "cocharacter_datum", "std_weights", "spin_weights"):
            monkeypatch.setattr(cases, name, refuse)
        _refuse_rebuilding_columns(monkeypatch)
        calls = []
        table = cases.strata_ord_table

        def counted(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(cases, "strata_ord_table", counted)
        for prime in (5, 7):
            assert run_case(CaseSpec(identifier, rank, prime)).reports == first.reports
        assert len(calls) == 2 * tables

    def test_a_non_prime_on_a_cached_case_is_rejected(self):
        run_case(CaseSpec("SO_odd_std", 3, 3))
        with pytest.raises(ValueError, match="not a prime"):
            run_case(CaseSpec("SO_odd_std", 3, 9))

    @pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
    def test_a_fresh_case_slices_its_module_once(self, identifier):
        """The Hodge character builds the module's slot table, and the zips
        read that entry instead of slicing the module again."""
        clear_caches()
        run_case(CaseSpec(identifier, PRESETS[identifier].min_rank, 3))
        info = cache_stats()["reps._slot_table"]
        assert info.misses == 1
        assert info.hits >= 1

    def test_a_rejected_case_adds_no_entry(self):
        before = cache_stats()["cases._case_data"]
        with pytest.raises(ValueError, match="above the ceiling"):
            run_case(CaseSpec("GSpin_spin_odd", 13, 3))
        assert cache_stats()["cases._case_data"] == before


def _reference_invariants(identifier, rank, datum):
    """The closed-form orders (None where the word formulas give them) and
    the line positions of a case: for the dual-sum case the closed forms of
    its former hand-coded builder, for the others the zip model on the
    module built in full."""
    if identifier == "GLn_wedge_dualsum":
        return (lambda label: 0 if label[0] == rank else 2,
                lambda label: 2 if label[0] == 1 else 0)
    module = _case_module(identifier, rank)
    exterior = identifier in ("GSp2n_wedge_dual", "GSpin_spin_odd", "GSpin_spin_even")
    position = clp_exterior_top if exterior else clp
    ord_of = None
    if identifier == "GSp2n_wedge_dual":
        def ord_of(label):  # n minus the number of sign flips
            return rank - sum(1 for k in label[:rank] if k > rank)
    return ord_of, lambda label: position(build_standard(datum, module, label))


_TOP_RANK = {"GSp2n_wedge_dual": 4, "GLn_wedge_dualsum": 8, "GL4_wedge2": 4}


@pytest.mark.parametrize("identifier,rank", [
    (identifier, rank)
    for identifier in CASE_IDENTIFIERS
    for rank in range(PRESETS[identifier].min_rank, _TOP_RANK.get(identifier, 5) + 1)
])
def test_reports_equal_the_label_by_label_reference(identifier, rank):
    """The cached columns and the pairing-once order table give the reports
    that the per-label loop builds, at every prime of the benchmark."""
    for prime in (2, 3, 5, 7):
        result = run_case(CaseSpec(identifier, rank, prime))
        ord_of, clp_of = _reference_invariants(identifier, rank, result.datum)
        expected = reference_reports(result.datum, result.hodge_weight, ord_of, clp_of)
        assert result.reports == expected



@pytest.mark.parametrize("identifier", CASE_IDENTIFIERS)
def test_cells_and_bruhat_classes_are_labels(identifier):
    """At every rank up to 5, each label's cell w_{0,I} w w_0 and its Bruhat
    class, the minimum of its double coset, are keys of the case's
    ``min_coset_reps``, which holds their words."""
    for rank in [r for r in _accepted_ranks(identifier) if r <= 5]:
        data = cases._case_data(identifier, rank)
        datum = data.datum
        group = datum.group
        table = group.min_coset_reps(datum.I)
        for label, bruhat_class in zip(data.labels, data.bruhat_classes):
            assert compose(datum.w0_I, compose(label, datum.w0)) in table
            assert bruhat_class == group.min_in_double_coset(label, datum.I, datum.J)
            assert bruhat_class in table


@pytest.mark.parametrize("flag,rank", TABLE_CASES)
def test_cold_bruhat_classes_are_the_double_coset_minima(flag, rank):
    """With the case data and the coset tables uncached, as in a fresh
    interpreter, each label's Bruhat class is the minimum of its double coset
    by the reference's alternating stripping."""
    for cached in (cases._case_data, weyl._min_coset_reps):
        cached.cache_clear()
    data = cases._case_data(CASE_BY_FLAG[flag], rank)
    group, datum = data.datum.group, data.datum
    assert data.bruhat_classes == tuple(
        reference_min_in_double_coset(group, label, datum.I, datum.J) for label in data.labels
    )


class TestReportShape:
    def test_reports_come_open_stratum_first(self):
        result = run_case(CaseSpec("SO_odd_std", 4, 3))
        lengths = [len(r.word) for r in result.reports]
        assert lengths == sorted(lengths, reverse=True)

    def test_words_are_reduced_words_of_the_labels(self):
        result = run_case(CaseSpec("GL4_wedge2", 4, 3))
        group = result.datum.group
        for report in result.reports:
            assert group.from_word(report.word) == report.w
            assert len(report.word) == group.length(report.w)

    def test_flags_restate_the_comparison(self):
        result = run_case(CaseSpec("Sp2n_std_Cn", 3, 3))
        for report in result.reports:
            assert report.ogus_holds == (report.ord == report.clp)
            assert report.ineq_holds == (report.ord <= report.clp)

    def test_hodge_weight_is_minus_eta(self):
        result = run_case(CaseSpec("GSp2n_wedge_dual", 3, 3))
        assert result.eta == vec(-1, -1, -1)
        assert result.hodge_weight == vec(1, 1, 1)


class TestOrthogonalStandard:
    def test_odd_rank_three_table(self):
        result = run_case(CaseSpec("SO_odd_std", 3, 3))
        assert ords(result) == [0, 1, 1, 1, 1, 2]
        assert clps(result) == [0, 1, 1, 1, 1, 2]

    def test_even_rank_three_table(self):
        result = run_case(CaseSpec("SO_even_std", 3, 3))
        assert ords(result) == [0, 1, 1, 1, 1, 2]

    @pytest.mark.parametrize("identifier,rank", [
        ("SO_odd_std", 2), ("SO_odd_std", 4), ("SO_odd_std", 5),
        ("SO_even_std", 3), ("SO_even_std", 4), ("SO_even_std", 5),
    ])
    def test_principle_holds_on_every_stratum(self, identifier, rank):
        result = run_case(CaseSpec(identifier, rank, 3))
        assert result.ogus_everywhere
        assert set(ords(result)) == {0, 1, 2}

    def test_orders_sort_into_three_bruhat_classes(self):
        result = run_case(CaseSpec("SO_odd_std", 4, 5))
        by_class = {}
        for report in result.reports:
            by_class.setdefault(report.bruhat_class, set()).add(report.ord)
        assert sorted(values.pop() for values in by_class.values()) == [0, 1, 2]

    def test_eta_is_minus_the_first_coordinate(self):
        result = run_case(CaseSpec("SO_odd_std", 3, 3))
        assert result.eta == vec(-1, 0, 0)

    def test_the_k3_case_follows_the_principle(self):
        """so-odd at m = 10 is (B10, e1, std), the primitive H^2 of a
        polarized K3 surface: Ogus' original setting, with orders 0 on the
        open stratum, 1 on the 18 middle ones and 2 on the closed one."""
        result = run_case(CaseSpec("SO_odd_std", 10, 3))
        expected = [0] + [1] * 18 + [2]
        assert ords(result) == expected
        assert clps(result) == expected
        assert result.ogus_everywhere


class TestSymplecticStandard:
    def test_rank_two_table(self):
        result = run_case(CaseSpec("Sp2n_std_Cn", 2, 3))
        assert ords(result) == [0, 1, 1, 1]
        assert clps(result) == [0, 1, 1, 2]

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_principle_fails_exactly_on_the_minimal_stratum(self, rank):
        result = run_case(CaseSpec("Sp2n_std_Cn", rank, 3))
        assert not result.reports[-1].ogus_holds
        assert all(r.ogus_holds for r in result.reports[:-1])
        assert result.reports[-1].word == ()
        assert (result.reports[-1].ord, result.reports[-1].clp) == (1, 2)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_inequality_still_holds_everywhere(self, rank):
        result = run_case(CaseSpec("Sp2n_std_Cn", rank, 3))
        assert all(r.ineq_holds for r in result.reports)
        assert max(ords(result)) <= 1

    def test_rank_one_has_no_failure(self):
        result = run_case(CaseSpec("Sp2n_std_Cn", 1, 3))
        assert result.ogus_everywhere
        assert ords(result) == [0, 1]


class TestSiegel:
    def test_rank_two_table(self):
        result = run_case(CaseSpec("GSp2n_wedge_dual", 2, 3))
        assert ords(result) == [0, 1, 1, 2]
        assert clps(result) == [0, 1, 1, 2]

    def test_rank_three_table(self):
        result = run_case(CaseSpec("GSp2n_wedge_dual", 3, 3))
        assert ords(result) == [0, 1, 1, 2, 1, 2, 2, 3]
        assert result.ogus_everywhere

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_bruhat_classes_carry_binomial_counts(self, rank):
        from math import comb

        result = run_case(CaseSpec("GSp2n_wedge_dual", rank, 3))
        sizes = {}
        for report in result.reports:
            sizes[report.bruhat_class] = sizes.get(report.bruhat_class, 0) + 1
            order = report.ord
            assert 0 <= order <= rank
        counted = sorted(sizes.values())
        assert counted == sorted(comb(rank, i) for i in range(rank + 1))

    @pytest.mark.parametrize("rank,prime", [
        (1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (3, 5),
    ])
    def test_cross_check_against_the_matrix_oracle(self, rank, prime):
        spec = CaseSpec("GSp2n_wedge_dual", rank, prime)
        assert PRESETS[spec.identifier].oracle(spec)(run_case(spec)) is None

    @pytest.mark.parametrize("rank", [1, 2])
    def test_the_closed_form_equals_the_word_formulas(self, rank):
        """The word formulas refuse rank 3, whose open cell needs more
        distinct letters than the rank provides."""
        result = run_case(CaseSpec("GSp2n_wedge_dual", rank, 3))
        table = strata_ord_table(result.datum, result.hodge_weight)
        assert [table[r.w] for r in result.reports] == ords(result)

    def test_rank_four_needs_the_closed_form_but_still_matches(self):
        result = run_case(CaseSpec("GSp2n_wedge_dual", 4, 3))
        assert result.ogus_everywhere
        assert sorted(ords(result)) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4]


@pytest.fixture
def sweep_caches():
    """A sweep over every rank fills the package caches with groups, root
    systems and case data up to rank 64; empty them all afterwards, so that
    later tests start from the caches of a fresh interpreter and do not keep
    the sweep's largest tables alive."""
    yield
    clear_caches()


class TestDualSum:
    def test_the_squared_triple_gives_the_hand_closed_forms(self, sweep_caches):
        """At every accepted rank, 2 to 64, the orders, line positions and
        eta equal the closed forms of the former hand-coded case, and the
        orders equal the word formulas' table too."""
        for rank in _accepted_ranks("GLn_wedge_dualsum"):
            result = run_case(CaseSpec("GLn_wedge_dualsum", rank, 3))
            ord_of, clp_of = _reference_invariants("GLn_wedge_dualsum", rank, None)
            assert ords(result) == [ord_of(r.w) for r in result.reports]
            table = strata_ord_table(result.datum, result.hodge_weight)
            assert ords(result) == [table[r.w] for r in result.reports], rank
            assert clps(result) == [clp_of(r.w) for r in result.reports]
            assert result.eta == hand_eta("GLn_wedge_dualsum", rank)

    @pytest.mark.parametrize("rank,expected", [
        (2, [0, 2]),
        (3, [0, 2, 2]),
        (4, [0, 2, 2, 2]),
        (6, [0, 2, 2, 2, 2, 2]),
    ])
    def test_tables(self, rank, expected):
        result = run_case(CaseSpec("GLn_wedge_dualsum", rank, 3))
        assert ords(result) == expected
        assert clps(result) == expected

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_orders_match_the_plucker_oracle(self, rank):
        result = run_case(CaseSpec("GLn_wedge_dualsum", rank, 3))
        for report in result.reports:
            assert gl_plucker_order(rank, report.w) == report.ord

    def test_exactly_two_bruhat_classes(self):
        result = run_case(CaseSpec("GLn_wedge_dualsum", 5, 3))
        classes = {report.bruhat_class for report in result.reports}
        assert len(classes) == 2

    def test_zero_locus_is_the_class_moving_the_top_line(self):
        result = run_case(CaseSpec("GLn_wedge_dualsum", 5, 3))
        group = result.datum.group
        vanishing = {
            r.bruhat_class for r in result.reports if r.ord > 0
        }
        assert len(vanishing) == 1
        w0_s1 = compose(group.longest_element(), group.simple_reflection(1))
        datum = result.datum
        projected = group.min_in_double_coset(w0_s1, datum.I, datum.J)
        assert projected in vanishing

    def test_eta_doubles_the_truncated_sum(self):
        result = run_case(CaseSpec("GLn_wedge_dualsum", 4, 3))
        assert result.eta == vec(-2, -2, -2, 0)


class TestWedgeSquare:
    def test_table(self):
        result = run_case(CaseSpec("GL4_wedge2", 4, 3))
        assert ords(result) == [0, 1, 1, 1, 1, 2]
        assert clps(result) == [0, 1, 1, 1, 1, 2]
        assert result.eta == vec(-1, -1, 0, 0)

    def test_holds_for_several_primes(self):
        for prime in (2, 3, 5, 7):
            assert run_case(CaseSpec("GL4_wedge2", 4, prime)).ogus_everywhere


class TestSpin:
    def test_odd_rank_three_table(self):
        result = run_case(CaseSpec("GSpin_spin_odd", 3, 3))
        assert ords(result) == [0, 2, 2, 2, 2, 4]
        assert clps(result) == [0, 2, 2, 2, 2, 4]

    def test_even_rank_four_table(self):
        result = run_case(CaseSpec("GSpin_spin_even", 4, 3))
        assert ords(result) == [0, 2, 2, 2, 2, 2, 2, 4]

    @pytest.mark.parametrize("identifier,rank,scale", [
        ("GSpin_spin_odd", 2, 1),
        ("GSpin_spin_odd", 4, 4),
        ("GSpin_spin_even", 3, 1),
        ("GSpin_spin_even", 5, 4),
    ])
    def test_orders_scale_the_standard_table(self, identifier, rank, scale):
        spun = run_case(CaseSpec(identifier, rank, 3))
        plain = run_case(CaseSpec(
            "SO_odd_std" if identifier.endswith("odd") else "SO_even_std",
            rank, 3,
        ))
        assert ords(spun) == [scale * o for o in ords(plain)]
        assert spun.ogus_everywhere

    def test_eta_carries_the_spin_multiplicity(self):
        result = run_case(CaseSpec("GSpin_spin_odd", 4, 3))
        assert result.eta == vec(-4, 0, 0, 0)
        even = run_case(CaseSpec("GSpin_spin_even", 4, 3))
        assert even.eta == vec(-2, 0, 0, 0)


class TestOrdersAreClassFunctions:
    @pytest.mark.parametrize("identifier,rank", [
        ("SO_odd_std", 4),
        ("SO_even_std", 4),
        ("Sp2n_std_Cn", 3),
        ("GSp2n_wedge_dual", 3),
        ("GLn_wedge_dualsum", 5),
        ("GL4_wedge2", 4),
        ("GSpin_spin_odd", 3),
    ])
    def test_ord_and_clp_are_constant_on_bruhat_classes(self, identifier, rank):
        result = run_case(CaseSpec(identifier, rank, 3))
        seen = {}
        for report in result.reports:
            pair = (report.ord, report.clp)
            assert seen.setdefault(report.bruhat_class, pair) == pair

    @pytest.mark.parametrize("identifier,rank", [
        ("SO_odd_std", 3),
        ("GSp2n_wedge_dual", 3),
        ("GLn_wedge_dualsum", 4),
        ("GSpin_spin_even", 4),
    ])
    def test_open_stratum_has_order_zero(self, identifier, rank):
        result = run_case(CaseSpec(identifier, rank, 3))
        assert result.reports[0].ord == 0
        assert result.reports[0].clp == 0


class TestFunctoriality:
    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_the_diagram_isomorphism_matches_the_tables(self, prime):
        ok, detail = functoriality_check_A3_D3(prime)
        assert ok, detail

    def test_scrambling_the_letters_is_detected(self):
        ok, detail = functoriality_check_A3_D3(3, scramble=True)
        assert not ok
        assert "labels no" in detail or "versus" in detail

    def test_both_sides_share_the_order_multiset(self):
        linear = run_case(CaseSpec("GL4_wedge2", 4, 3))
        orthogonal = run_case(CaseSpec("SO_even_std", 3, 3))
        assert sorted(ords(linear)) == sorted(ords(orthogonal))
