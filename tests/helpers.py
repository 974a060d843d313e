"""Helpers shared by several test modules."""

import itertools
from typing import Optional, Tuple

from zipstrata.rootsys import RootSystem
from zipstrata.vanishing import condition_closed


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
