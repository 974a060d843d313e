"""Vanishing orders of highest-weight sections on translated Bruhat cells.

One closed-form order formula covers every supported word: the mirrored
shape prefix + reversed(alphas) + center + alphas with pairwise distinct
letters and a center of one or two letters. A word of distinct letters is
the shape with no alphas, s_a s_b s_a is the one-letter center with no
prefix, and the two centers cover the odd and even orthogonal stratum
families. The formula is guarded by the closedness condition on the root
sets swept out by the word's suffixes, by a reduced-word check read off the
same root sequence (a word is reduced exactly when every root it sweeps is
positive), and by dominance of the weight. ``strata_ord_table`` drives it
over a full set of stratum representatives, and ``d_w0`` is the twisted
character difference that ties the Hasse weight to its section.

The formula reads the weight's pairings from ``simple_pairings``, once per
call and once per table in ``strata_ord_table``, and Cartan entries from
the system's cached matrix.
Roots are integer tuples: ``root_sequence`` pushes the integer simple roots
through the Weyl action, and the closedness test adds them in one backward
pass (closedness is W-invariant) and looks the sums up in the root set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .rootsys import Root, RootSystem, Vector, simple_pairings
from .weyl import CocharacterDatum, Perm, compose, weyl_group

Word = Tuple[int, ...]

# With two roots a, b and a + b not a root, no m*a + n*b (m, n >= 1) is a
# root either, so only these coefficient pairs can ever produce one in the
# classical types (triple multiples need G_2).
_EXTRA_COEFFS = ((2, 1), (1, 2))


@dataclass(frozen=True)
class ClosednessWitness:
    """A violation of closedness: alpha, beta in the stage-th suffix set but
    combination = a*alpha + b*beta is a root outside it."""

    stage: int
    alpha: Root
    beta: Root
    combination: Root


def _closure_violation(
    system: RootSystem, subset: Iterable[Root]
) -> Optional[Tuple[Root, Root, Root]]:
    """First pair in the subset whose natural combination escapes it."""
    members = tuple(dict.fromkeys(subset))
    chosen = set(members)
    all_roots = system.root_keys
    for alpha, beta in itertools.combinations(members, 2):
        total = tuple(x + y for x, y in zip(alpha, beta))
        if total not in all_roots:
            continue
        if total not in chosen:
            return alpha, beta, total
        for a, b in _EXTRA_COEFFS:
            combo = tuple(a * x + b * y for x, y in zip(alpha, beta))
            if combo in all_roots and combo not in chosen:
                return alpha, beta, combo
    return None


def root_sequence(system: RootSystem, word: Sequence[int]) -> Tuple[Root, ...]:
    """Roots swept out by the word: alpha_{i_1}, s_{i_1} alpha_{i_2}, and so
    on, each letter's simple root pushed once through the product of the
    letters before it, which is then extended by that letter.

    For a reduced word these are exactly the inversions of the product, all
    positive and pairwise distinct; a non-reduced word revisits a root line
    and the sequence picks up repeats or negatives.
    """
    group = weyl_group(system.cartan_type, system.rank)
    prefix = group.identity()
    swept = []
    for letter in word:
        swept.append(group.act(prefix, system.simple(letter)))
        prefix = compose(prefix, group.simple_reflection(letter))
    return tuple(swept)


def condition_closed(
    system: RootSystem, word: Sequence[int]
) -> Tuple[bool, Optional[ClosednessWitness]]:
    """Check the root sets swept by every suffix of the word for closedness.

    Reduced words always pass (each suffix sweeps an inversion set). The
    witness names the first failing suffix start, two of its roots and the
    escaping combination. The suffix from t sweeps w_t^-1 (w_t the first t
    letters) applied to the tail from t of the word's root sequence, and W
    permutes roots linearly, so it is closed exactly when that tail is. One
    backward pass adds the tail's roots and keeps the root sums still
    missing; a stage fails while one is. Sums decide: 2a + b is the sum of
    a + b and a. Only the first failing stage's witness is searched for.
    Verdicts come from an ``lru_cache`` keyed by the system and the word,
    which also keeps the order formula's reducedness verdict, read off the
    same root sequence.
    """
    ok, witness, _ = _condition_closed(system, tuple(word))
    return ok, witness


@lru_cache(maxsize=50_000)
def _condition_closed(
    system: RootSystem, word: Word
) -> Tuple[bool, Optional[ClosednessWitness], bool]:
    """The verdict and witness of ``condition_closed``, and whether the word
    is reduced: exactly when every root it sweeps is positive, that is has a
    positive first nonzero coordinate and so sorts above the zero vector."""
    if not word:
        return True, None, True
    swept = root_sequence(system, word)
    reduced = min(swept) > (0,) * system.ambient_dim
    present: set = set()
    missing: set = set()  # roots summing two present roots, not present
    stage = None
    for t in range(len(word) - 1, -1, -1):
        gamma = swept[t]
        if gamma not in present:
            present.add(gamma)
            missing.discard(gamma)
            for beta in present:
                total = tuple(map(add, gamma, beta))
                if total in system.root_keys and total not in present:
                    missing.add(total)
        if missing:
            stage = t
    if stage is None:
        return True, None, reduced
    group = weyl_group(system.cartan_type, system.rank)
    back = group.from_word(word[:stage][::-1])
    found = _closure_violation(system, swept[stage:])
    return False, ClosednessWitness(stage, *group._act_all(back, found)), reduced


# -- validation helpers ------------------------------------------------------


def _dominant_pairings(system: RootSystem, lam: Vector) -> Tuple[Fraction, ...]:
    """The simple pairings of lam, which must all be non-negative."""
    values = simple_pairings(system, lam)
    if any(value < 0 for value in values):
        raise ValueError(f"weight {lam} is not dominant")
    return values


def _int_pairing(pairings: Sequence[Fraction], lam: Vector, i: int) -> int:
    """The pairing of lam with the i-th simple coroot, which must be an
    integer."""
    value = pairings[i - 1]
    if value.denominator != 1:
        raise ValueError(
            f"pairing {value} of {lam} against alpha_{i} is not integral"
        )
    return value.numerator


def _require_letters(system: RootSystem, letters: Iterable[int]) -> None:
    for i in letters:
        if not 1 <= i <= system.rank:
            raise ValueError(
                f"simple root index {i} out of range for rank {system.rank}"
            )


def _require_reduced_and_closed(system: RootSystem, word: Word) -> None:
    """Raise unless the word is reduced and passes the closedness condition,
    the reducedness error first. ``condition_closed`` runs first: it sweeps
    the word's roots and caches the reducedness verdict read off them."""
    ok, witness = condition_closed(system, word)
    if not _condition_closed(system, word)[2]:
        raise ValueError(f"word {word} is not reduced")
    if not ok:
        raise ValueError(
            f"word {word} fails the closedness condition at suffix "
            f"{witness.stage}: {witness.combination} escapes"
        )


def _require_distinct(groups: Sequence[Sequence[int]]) -> None:
    letters = [letter for group in groups for letter in group]
    if len(set(letters)) != len(letters):
        raise ValueError(f"letters {letters} are not pairwise distinct")


# -- the mirrored order formula ---------------------------------------------


def mirror_orders(
    system: RootSystem, alphas: Sequence[int], center: Sequence[int]
) -> Tuple[int, ...]:
    """Orders of the coordinate functions attached to alphas in the mirrored
    shape with the given center: the E orders for a one-letter center, the
    F orders for a two-letter one."""
    alphas, center = tuple(alphas), tuple(center)
    _require_distinct([alphas, center])
    _require_letters(system, alphas + center)
    cartan = system.cartan
    orders: list[int] = []
    for i, letter in enumerate(alphas):
        drop = -sum(cartan[c - 1][letter - 1] for c in center)
        for j in range(i):
            drop -= cartan[alphas[j] - 1][letter - 1] * orders[j]
        orders.append(min(2, drop))
    return tuple(orders)


def ord_mirrored(
    system: RootSystem,
    lam: Vector,
    prefix: Sequence[int],
    alphas: Sequence[int],
    center: Sequence[int],
) -> int:
    """Order of f_lam on the cell of prefix + reversed(alphas) + center + alphas,
    all letters pairwise distinct: the pairings of lam with the prefix and
    center letters, plus each alpha's pairing times its ``mirror_orders``
    value. A word of distinct letters is the shape with no alphas.
    """
    return _ord_mirrored(system, lam, tuple(prefix), tuple(alphas), tuple(center))


def _ord_mirrored(
    system: RootSystem,
    lam: Vector,
    prefix: Word,
    alphas: Word,
    center: Word,
    pairings: Optional[Tuple[Fraction, ...]] = None,
) -> int:
    """``ord_mirrored`` on tuples. ``pairings``, when given, are the simple
    pairings of lam already checked dominant, so a table pairs its weight
    once; every word is still checked for distinct letters, reducedness and
    closedness."""
    word = prefix + alphas[::-1] + center + alphas
    _require_distinct([prefix, alphas, center])
    if pairings is None:
        pairings = _dominant_pairings(system, lam)
    _require_reduced_and_closed(system, word)
    orders = mirror_orders(system, alphas, center)
    total = sum(_int_pairing(pairings, lam, i) for i in prefix + center)
    total += sum(_int_pairing(pairings, lam, a) * o for a, o in zip(alphas, orders))
    return total


# -- stratum family words ----------------------------------------------------


def family_word_typeB(m: int, j: int, l: int) -> Word:
    """The word s_j .. s_{m-1} s_m s_{m-1} .. s_{m-l} (empty tail for l = 0).

    Valid whenever 1 <= j and j + l <= m; outside that range the swept roots
    would collide.
    """
    if not 1 <= j <= m or l < 0 or j + l > m:
        raise ValueError(f"no such family word: m={m}, j={j}, l={l}")
    return tuple(range(j, m + 1)) + tuple(range(m - 1, m - l - 1, -1))


def family_word_typeD(m: int, j: int, l: int) -> Word:
    """The word s_j .. s_{m-1} s_m s_{m-2} .. s_{m-l}, the forked analogue of
    the single-tail family (the tail skips m-1 and is empty for l <= 1)."""
    if m < 3 or not 1 <= j <= m or l < 0 or j + l > m:
        raise ValueError(f"no such family word: m={m}, j={j}, l={l}")
    return tuple(range(j, m + 1)) + tuple(range(m - 2, m - l - 1, -1))


# -- word-shape dispatch -----------------------------------------------------


def _parse_mirrored(word: Word) -> Optional[Tuple[Word, Word, Word]]:
    """Split as (prefix, alphas, center) with pairwise distinct letters: a
    word of distinct letters is its own prefix, otherwise a one-letter
    center is tried before a two-letter one, each with the longest alphas
    first; None when no split fits, at once for a word longer than twice
    its number of distinct letters, since a split uses each letter at most
    twice."""
    distinct, length = len(set(word)), len(word)
    if distinct == length:
        return word, (), ()
    if length > 2 * distinct:
        return None
    for size in (1, 2):
        for k in range((length - size) // 2, 0, -1):
            alphas = word[length - k :]
            start = length - 2 * k - size
            if word[start : start + k] != alphas[::-1]:
                continue
            prefix, center = word[:start], word[start + k : length - k]
            letters = prefix + alphas + center
            if len(set(letters)) == len(letters):
                return prefix, alphas, center
    return None


def ord_for_word(system: RootSystem, lam: Vector, word: Sequence[int]) -> int:
    """Order of f_lam on the cell of the given reduced word, through
    ``ord_mirrored``; words with no mirrored split are an error."""
    return _ord_for_word(system, lam, tuple(word))


def _ord_for_word(
    system: RootSystem,
    lam: Vector,
    word: Word,
    pairings: Optional[Tuple[Fraction, ...]] = None,
) -> int:
    """``ord_for_word`` on a tuple, with ``pairings`` as in ``_ord_mirrored``."""
    parsed = _parse_mirrored(word)
    if parsed is None:
        raise ValueError(f"word {word} matches no supported shape")
    return _ord_mirrored(system, lam, *parsed, pairings=pairings)


# -- stratum tables and the twisted character --------------------------------


def d_w0(lam: Vector, p: int, datum: CocharacterDatum) -> Vector:
    """The difference lam - p * (z w0)(lam) attached to the cocharacter datum.

    Applied to the Hasse weight it recovers (p - 1) times the Hodge character,
    which is the standard consistency check on a case's lambda.
    """
    group = datum.group
    twisted = group.act(compose(datum.z, group.longest_element()), lam)
    return tuple(a - p * b for a, b in zip(lam, twisted, strict=True))


def strata_ord_table(datum: CocharacterDatum, lam: Vector) -> Dict[Perm, int]:
    """Vanishing order of f_lam on every stratum of the datum, keyed by the
    minimal coset representative labeling the stratum.

    Each label is first turned into the cell actually carrying the section:
    the label w is paired with w_{0,I} w w_0, the unique twist under which
    the open stratum gets the empty word and orders grow toward the identity
    label. The twist happens here and nowhere else. The weight is checked
    dominant and paired once for the whole table; each cell word goes
    through the ``ord_for_word`` formula with its own word checks.
    """
    group = datum.group
    system = group.system
    w0 = group.longest_element()
    pairings = _dominant_pairings(system, lam)
    table: Dict[Perm, int] = {}
    for label in group.min_coset_reps(datum.I):
        cell = compose(datum.w0_I, compose(label, w0))
        word = group.reduced_word(cell)
        try:
            table[label] = _ord_for_word(system, lam, word, pairings)
        except ValueError as err:
            raise ValueError(
                f"stratum {label} has cell word {word}: {err}"
            ) from err
    return table
