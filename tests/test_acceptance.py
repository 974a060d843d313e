"""Acceptance gate: one test per primary criterion, each printing a verdict.

Every test here restates one end-to-end promise of the package and enforces
its runtime budget where one is stated. Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import itertools
import random
import time
from math import comb, factorial

from zipstrata.cases import (
    PRESETS,
    CaseSpec,
    functoriality_check_A3_D3,
    run_case,
)
from zipstrata.fzip import build_standard, clp, clp_exterior_top
from zipstrata.oracle import gl_cell_order, gl_plucker_order
from zipstrata.reps import std_weights, wedge
from zipstrata.rootsys import neg, pairing, root_system, smul, unit, vec
from zipstrata.vanishing import (
    condition_closed,
    d_w0,
    family_word_typeB,
    family_word_typeD,
    ord_for_word,
)
from zipstrata.weyl import (
    WeylGroup,
    cocharacter_datum,
    compose,
    inverse,
)

from helpers import (
    eo_same_stratum,
    find_nonclosed_word,
    min_double_coset_reps,
    subgroup_elements,
)


def _class_map(result):
    """bruhat class -> the set of (ord, clp) pairs seen on it."""
    seen = {}
    for report in result.reports:
        seen.setdefault(report.bruhat_class, set()).add(
            (report.ord, report.clp)
        )
    return seen


def test_criterion_1_orthogonal_and_spin_tables():
    start = time.perf_counter()
    checked = 0
    for cartan_type, first in (("B", 2), ("D", 3)):
        identifier = "SO_odd_std" if cartan_type == "B" else "SO_even_std"
        spin_id = "GSpin_spin_odd" if cartan_type == "B" else "GSpin_spin_even"
        for m in range(first, 11):
            result = run_case(CaseSpec(identifier, m, 3))
            datum = result.datum
            group = datum.group
            expected_by_class = {
                datum.z: 0,
                group.simple_reflection(1): 1,
                group.identity(): 2,
            }
            assert set(_class_map(result)) == set(expected_by_class)
            for report in result.reports:
                target = expected_by_class[report.bruhat_class]
                assert report.ord == target
                assert report.clp == target
            m_prime = m if cartan_type == "B" else m - 1
            scale = 2 ** (m_prime - 2) if m_prime >= 2 else 1
            spun = run_case(CaseSpec(spin_id, m, 3))
            for report, plain in zip(spun.reports, result.reports):
                assert report.w == plain.w
                assert report.ord == scale * plain.ord
                assert report.clp == report.ord
            checked += len(result.reports)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: {checked} orthogonal strata plus spin "
          f"variants in {elapsed:.1f}s")


def test_criterion_2_siegel_tables_and_oracle():
    start = time.perf_counter()
    for n in range(1, 7):
        result = run_case(CaseSpec("GSp2n_wedge_dual", n, 3))
        classes = _class_map(result)
        assert len(classes) == n + 1
        values = sorted(pairs.pop()[0] for pairs in classes.values())
        assert values == list(range(n + 1))
        for report in result.reports:
            assert report.ord == report.clp
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            spec = CaseSpec("GSp2n_wedge_dual", n, p)
            complaint = PRESETS[spec.identifier].oracle(spec)(run_case(spec))
            assert complaint is None, complaint
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: ranks 1..6 plus oracle ranks 1..3 "
          f"in {elapsed:.1f}s")


def test_criterion_3_unitary_tables_and_plucker():
    start = time.perf_counter()
    for n in range(2, 9):
        result = run_case(CaseSpec("GLn_wedge_dualsum", n, 3))
        group = result.datum.group
        datum = result.datum
        w0_s1 = compose(group.longest_element(), group.simple_reflection(1))
        vanishing_class = group.min_in_double_coset(w0_s1, datum.I, datum.J)
        for report in result.reports:
            assert report.ord in (0, 2)
            assert report.clp == report.ord
            on_vanishing = report.bruhat_class == vanishing_class
            assert (report.ord == 2) == on_vanishing
        if n <= 4:
            for report in result.reports:
                assert gl_plucker_order(n, report.w) == report.ord
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 3 PASS: ranks 2..8, polynomial oracle through rank 4 "
          f"in {elapsed:.1f}s")


def test_criterion_4_controlled_symplectic_failure():
    for n in range(2, 7):
        result = run_case(CaseSpec("Sp2n_std_Cn", n, 3))
        minimal = result.reports[-1]
        assert minimal.word == ()
        assert (minimal.ord, minimal.clp) == (1, 2)
        for report in result.reports[:-1]:
            assert report.ogus_holds
        assert max(r.ord for r in result.reports) <= 1
        assert all(r.ineq_holds for r in result.reports)
        assert not result.ogus_everywhere
    print("criterion 4 PASS: ranks 2..6 fail exactly on the minimal stratum")


def _in_scope_words(rank):
    letters = range(1, rank + 1)
    words = []
    for k in range(rank + 1):
        words.extend(itertools.permutations(letters, k))
    for a in letters:
        for b in letters:
            if a != b:
                words.append((a, b, a))
    return words


def test_criterion_5_formula_engine_versus_oracle():
    start = time.perf_counter()
    compared = 0
    for n in (2, 3, 4):
        system = root_system("A", n - 1)
        group = WeylGroup(system)
        lambdas = [
            lam
            for lam in itertools.product((2, 1, 0), repeat=n)
            if all(lam[i] >= lam[i + 1] for i in range(n - 1))
        ]
        for word in _in_scope_words(n - 1):
            w = group.from_word(word)
            for lam in lambdas:
                try:
                    expected = ord_for_word(system, vec(*lam), word)
                except ValueError:
                    break
                assert gl_cell_order(n, lam, w) == expected
                compared += 1
    elapsed = time.perf_counter() - start
    assert compared > 300
    assert elapsed < 60.0
    print(f"criterion 5 PASS: {compared} exhaustive comparisons "
          f"in {elapsed:.1f}s")


def test_criterion_6_closedness_families_and_witnesses():
    swept = 0
    for cartan_type, first, builder in (
        ("B", 2, family_word_typeB),
        ("D", 3, family_word_typeD),
    ):
        for m in range(first, 9):
            system = root_system(cartan_type, m)
            for j in range(1, m + 1):
                for l in range(m + 1):
                    try:
                        word = builder(m, j, l)
                    except ValueError:
                        continue
                    ok, witness = condition_closed(system, word)
                    assert ok, (cartan_type, m, word, witness)
                    swept += 1
    witnesses = 0
    for cartan_type, rank in (
        ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3),
        ("A", 4), ("B", 4), ("C", 4), ("D", 4),
    ):
        system = root_system(cartan_type, rank)
        word = find_nonclosed_word(system)
        assert word is not None
        ok, _ = condition_closed(system, word)
        assert not ok
        witnesses += 1
    print(f"criterion 6 PASS: {swept} family words closed, "
          f"{witnesses} non-closed witnesses found")


def test_criterion_7_functoriality_across_the_isomorphism():
    for p in (2, 3, 5):
        ok, detail = functoriality_check_A3_D3(p)
        assert ok, detail
    assert not functoriality_check_A3_D3(3, scramble=True)[0]
    print("criterion 7 PASS: wedge-square and rank-3 orthogonal tables "
          "coincide, scramble caught")


def _coxeter_order(group, a, b):
    product = compose(a, b)
    power = product
    for order in range(1, 7):
        if power == group.identity():
            return order
        power = compose(power, product)
    return None


def test_criterion_8_property_suites():
    # Coxeter axioms and the three order counts, up to rank six.
    for cartan_type, first in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for m in range(first, 7):
            system = root_system(cartan_type, m)
            group = WeylGroup(system)
            for i in range(1, m + 1):
                s_i = group.simple_reflection(i)
                assert compose(s_i, s_i) == group.identity()
                for j in range(i + 1, m + 1):
                    n_ij = pairing(system.simple(i), system.simple(j)) * pairing(
                        system.simple(j), system.simple(i)
                    )
                    expected = {0: 2, 1: 3, 2: 4}[n_ij]
                    got = _coxeter_order(
                        group, s_i, group.simple_reflection(j)
                    )
                    assert got == expected
            assert len(group.elements()) == group.group_order()
            if cartan_type != "A":
                datum = cocharacter_datum(group, unit(m, 1))
                assert len(group.min_coset_reps(datum.I)) == 2 * m
                assert len(
                    min_double_coset_reps(group, datum.I, datum.J)
                ) == 3
    # Twisted-difference identities for the orthogonal and unitary weights.
    for p in (2, 3, 5, 7):
        for cartan_type, m in (("B", 3), ("D", 4)):
            group = WeylGroup(root_system(cartan_type, m))
            datum = cocharacter_datum(group, unit(m, 1))
            assert d_w0(unit(m, 1), p, datum) == smul(1 - p, unit(m, 1))
        for n in (3, 4):
            group = WeylGroup(root_system("A", n - 1))
            datum = cocharacter_datum(group, vec(*([1] * (n - 1) + [0])))
            eta = smul(-2, vec(*([1] * (n - 1) + [0])))
            assert d_w0(neg(eta), p, datum) == smul(p - 1, eta)
    # Line positions are constant along the zip equivalence, by sampling.
    rng = random.Random(20260816)
    samples = 0
    cases = [
        ("B", 3, unit(3, 1), std_weights("B", 3), clp),
        ("C", 3, unit(3, 1), std_weights("C", 3), clp),
        ("D", 4, unit(4, 1), std_weights("D", 4), clp),
        ("A", 3, vec(1, 1, 0, 0), wedge(std_weights("A", 3), 2), clp),
        ("B", 3, unit(3, 1), None, clp_exterior_top),
    ]
    for cartan_type, m, mu, module, position in cases:
        if module is None:
            from zipstrata.reps import spin_weights

            module = spin_weights(cartan_type, m)
        group = WeylGroup(root_system(cartan_type, m))
        datum = cocharacter_datum(group, mu)
        labels = group.min_coset_reps(datum.I)
        subgroup = subgroup_elements(group, datum.I)
        for _ in range(20):
            u = rng.choice(list(labels))
            y = rng.choice(list(subgroup))
            twisted = compose(
                compose(y, u),
                compose(datum.z, compose(inverse(y), datum.z)),
            )
            assert eo_same_stratum(twisted, u, datum)
            assert position(build_standard(datum, module, twisted)) == position(
                build_standard(datum, module, u)
            )
            samples += 1
    print(f"criterion 8 PASS: axioms, counts, twist identities, "
          f"{samples} equivalence samples")
