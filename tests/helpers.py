"""Helpers shared by several test modules."""

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from zipstrata.cases import StratumReport
from zipstrata.rootsys import RootSystem, Vector
from zipstrata.vanishing import condition_closed, ord_for_word
from zipstrata.weyl import CocharacterDatum, Perm, WeylGroup, compose


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
