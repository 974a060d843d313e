"""Helpers shared by several test modules."""

import itertools
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from zipstrata.cases import StratumReport
from zipstrata.fzip import _slot_table
from zipstrata.reps import WeightMultiset
from zipstrata.rootsys import RootSystem, Vector
from zipstrata.vanishing import condition_closed, ord_for_word
from zipstrata.weyl import CocharacterDatum, Perm, WeylGroup, compose, inverse


def is_reduced(group: WeylGroup, word: Sequence[int]) -> bool:
    """Whether the word is reduced: its product has as many inversions as
    the word has letters."""
    return group.length(group.from_word(word)) == len(word)


# -- reference copies of the one-tuple-per-step Weyl kernels -------------------


def reference_reduced_word(group: WeylGroup, w: Perm) -> Tuple[int, ...]:
    """Strip the smallest left descent, rebuilding the inverse as a tuple
    each step; a w that is not a signed slot permutation, or that runs out
    of descents away from the identity, raises."""
    n, ident, t = group.slots, group.identity(), group.system.cartan_type
    signed = t == "A" or all(x + y == n + 1 for x, y in zip(w, w[::-1]))
    inv = inverse(w) if signed and sorted(w) == list(ident) else None
    word: List[int] = []
    while inv != ident:
        i = None if inv is None else group._first_descent(inv, range(1, group.rank + 1))
        if i is None:
            raise ValueError(f"{w} is not an element of W({t}{group.rank})")
        word.append(i)
        inv = compose(inv, group.simple_reflection(i))
    return tuple(word)


def reference_min_in_double_coset(
    group: WeylGroup, w: Perm, I: Sequence[int], J: Sequence[int]
) -> Perm:
    """Alternate left stripping in I (on a recomputed inverse) and right
    stripping in J, one new tuple per step."""
    while True:
        if (i := group._first_descent(inverse(w), I)) is not None:
            w = compose(group.simple_reflection(i), w)
        elif (j := group._first_descent(w, J)) is not None:
            w = compose(w, group.simple_reflection(j))
        else:
            return w


def reference_longest_in(group: WeylGroup, I: Sequence[int]) -> Perm:
    """Multiply by the first ascent in I, recomputing every right descent
    each step, until there is none."""
    u = group.identity()
    while True:
        descents = group.right_descents(u)
        ascent = next((i for i in I if i not in descents), None)
        if ascent is None:
            return u
        u = compose(u, group.simple_reflection(ascent))


def reference_slot_perm(
    datum: CocharacterDatum, module: WeightMultiset, w: Perm
) -> Perm:
    """The slot permutation of w on the module, one integer key at a time:
    slot k goes to the slot of w applied to its key."""
    if any(mult != 1 for _, mult in module.entries):
        raise ValueError("the permutation model needs multiplicity-free weights")
    slots, keys, index_of, _ = _slot_table(module, datum.mu)
    images = []
    for weight, key in zip(slots, keys):
        slot = index_of.get(datum.group.act(w, key))
        if slot is None:
            moved = datum.group.act(w, weight)
            raise ValueError(f"weights are not stable: {moved} is not a slot")
        images.append(slot)
    return tuple(images)


def reference_entries(weights: Iterable[Vector]) -> Tuple[Tuple[Vector, int], ...]:
    """The entries of a weight multiset, counted and sorted on the weights
    themselves."""
    return tuple(sorted(Counter(weights).items()))


def min_double_coset_reps(
    group: WeylGroup, I: Sequence[int], J: Sequence[int]
) -> Tuple[Perm, ...]:
    """Minimal-length representatives of W_I \\ W / W_J: the minimal
    representatives of W_I \\ W without a right descent in J."""
    return tuple(
        u for u in group.min_coset_reps(I) if set(J).isdisjoint(group.right_descents(u))
    )


def find_nonclosed_word(
    system: RootSystem, max_length: int = 6
) -> Optional[Tuple[int, ...]]:
    """Shortest word failing the closedness condition, scanning exhaustively.

    Serves as the negative control for ``condition_closed``: reduced words
    cannot fail, so the scan has to wander through non-reduced territory.
    """
    letters = range(1, system.rank + 1)
    for length in range(1, max_length + 1):
        for word in itertools.product(letters, repeat=length):
            ok, _ = condition_closed(system, word)
            if not ok:
                return word
    return None


def reference_ord_table(datum: CocharacterDatum, lam: Vector) -> Dict[Perm, int]:
    """The order table label by label: ``ord_for_word`` on the reduced word
    of each cell w_{0,I} w w_0, with w_{0,I} recomputed from I."""
    group = datum.group
    w0 = group.longest_element()
    w0_I = group.longest_in(datum.I)
    return {
        label: ord_for_word(
            group.system, lam, group.reduced_word(compose(w0_I, compose(label, w0)))
        )
        for label in group.min_coset_reps(datum.I)
    }


def reference_reports(
    datum: CocharacterDatum,
    lam: Vector,
    ord_of: Optional[Callable[[Perm], int]],
    clp_of: Callable[[Perm], int],
) -> Tuple[StratumReport, ...]:
    """The stratum reports of a case, computed label by label: sort the
    minimal coset representatives open first, then compute each label's
    word, Bruhat class, order (from ``ord_of``, or from
    ``reference_ord_table`` when it is None) and line position (from
    ``clp_of``)."""
    group = datum.group
    ord_of = ord_of or reference_ord_table(datum, lam).__getitem__
    labels = sorted(
        group.min_coset_reps(datum.I),
        key=lambda w: (-group.length(w), group.reduced_word(w)),
    )
    reports: List[StratumReport] = []
    for label in labels:
        order = ord_of(label)
        position = clp_of(label)
        reports.append(
            StratumReport(
                w=label,
                word=group.reduced_word(label),
                bruhat_class=group.min_in_double_coset(label, datum.I, datum.J),
                ord=order,
                clp=position,
                ogus_holds=order == position,
                ineq_holds=order <= position,
            )
        )
    return tuple(reports)


# -- reference case facts -------------------------------------------------------


def dsum(left: WeightMultiset, right: WeightMultiset) -> WeightMultiset:
    """Direct sum: the weights of both modules together."""
    return WeightMultiset.from_weights(left.expanded() + right.expanded())


def hand_eta(identifier: str, rank: int) -> Vector:
    """The Hodge character of each case as its hand builder gave it: written
    out for the standard, wedge-square and dual-sum cases, and from the
    lower slice of the two-slice profile for Siegel and the spin cases,
    here in closed form."""
    def first(c: int) -> Vector:
        return (Fraction(c),) + (Fraction(0),) * (rank - 1)

    if identifier in ("SO_odd_std", "SO_even_std", "Sp2n_std_Cn"):
        return first(-1)
    if identifier == "GSp2n_wedge_dual":
        return (Fraction(-1),) * rank
    if identifier == "GLn_wedge_dualsum":
        return (Fraction(-2),) * (rank - 1) + (Fraction(0),)
    if identifier == "GL4_wedge2":
        return tuple(map(Fraction, (-1, -1, 0, 0)))
    if identifier == "GSpin_spin_odd":
        return first(-(2 ** (rank - 2)))
    if identifier == "GSpin_spin_even":
        return first(-(2 ** (rank - 3)))
    raise ValueError(f"unknown case {identifier!r}")
