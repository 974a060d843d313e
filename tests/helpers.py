"""Helpers shared by several test modules."""

import itertools
from typing import Optional, Sequence, Tuple

from zipstrata.rootsys import RootSystem
from zipstrata.vanishing import condition_closed
from zipstrata.weyl import Perm, WeylGroup


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
