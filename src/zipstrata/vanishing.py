"""Vanishing orders of highest-weight sections on translated Bruhat cells.

One closed-form order formula covers every supported word: the mirrored
shape prefix + reversed(alphas) + center + alphas with pairwise distinct
letters and a center of one or two letters. A word of distinct letters is
the shape with no alphas, s_a s_b s_a is the one-letter center with no
prefix, and the two centers cover the odd and even orthogonal stratum
families. The formula assumes that the root sets swept by the word's
suffixes are closed, which every reduced word satisfies (each suffix sweeps
an inversion set), so its one word guard is reducedness. It has one entry
point, ``ord_for_word``, which splits the word into the shape (``_split``,
which keeps the letters distinct), checks dominance of the weight and then
reducedness, and runs the unchecked kernel ``_order``.
``strata_ord_table`` drives the same kernel over a full set of stratum
representatives, checking no word, since the coset enumeration built each
one; ``d_w0`` is the twisted character difference that ties the Hasse
weight to its section. The weight's pairings come from ``simple_pairings``,
once per call or per table, and Cartan entries from the system's matrix.

``condition_closed`` is a diagnostic off the order path, with a witness
when it fails: ``root_sequence`` pushes the integer simple roots through
the Weyl action, and one backward pass adds them (closedness is
W-invariant) and looks the sums up in the root set.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .rootsys import Root, RootSystem, Vector, simple_pairings, weight_str
from .weyl import CocharacterDatum, Perm, WeylGroup, compose

Word = Tuple[int, ...]

# With two roots a, b and a + b not a root, no m*a + n*b (m, n >= 1) is a
# root either, so only these coefficient pairs can ever produce one in the
# classical types (triple multiples need G_2).
_EXTRA_COEFFS = ((2, 1), (1, 2))


class ClosednessWitness(NamedTuple):
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
    letters before it, which that letter's slot swaps then extend in place.

    For a reduced word these are exactly the inversions of the product, all
    positive and pairwise distinct; a non-reduced word revisits a root line
    and the sequence picks up repeats or negatives.
    """
    group = WeylGroup(system)
    swaps = system.simple_swaps
    prefix = list(group.identity())
    swept = []
    for letter in word:
        swept.append(group.act(prefix, system.simple(letter)))
        for x, y in swaps[letter - 1]:
            prefix[x], prefix[y] = prefix[y], prefix[x]
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
    """
    if not word:
        return True, None
    swept = root_sequence(system, word)
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
        return True, None
    group = WeylGroup(system)
    back = group.from_word(word[:stage][::-1])
    found = _closure_violation(system, swept[stage:])
    return False, ClosednessWitness(stage, *group._act_all(back, found))


# -- validation helpers ------------------------------------------------------


def _dominant_pairings(system: RootSystem, lam: Vector) -> Vector:
    """The simple pairings of lam, which must all be non-negative."""
    values = simple_pairings(system, lam)
    if any(value < 0 for value in values):
        raise ValueError(f"weight {weight_str(lam)} is not dominant")
    return values


def _int_pairing(pairings: Vector, lam: Vector, i: int) -> int:
    """The pairing of lam with the i-th simple coroot, which must be an
    integer."""
    value = pairings[i - 1]
    if value.denominator != 1:
        raise ValueError(
            f"pairing {value} of {weight_str(lam)} against alpha_{i} is not integral"
        )
    return value.numerator


def _require_reduced(system: RootSystem, word: Word) -> None:
    """Raise unless the word is reduced; a letter outside 1..rank raises
    through ``from_word``."""
    group = WeylGroup(system)
    if group.length(group.from_word(word)) != len(word):
        raise ValueError(f"word {word} is not reduced")


# -- the order formula -------------------------------------------------------


def _order(
    system: RootSystem, lam: Vector, pairings: Vector, shape: Sequence[Word]
) -> int:
    """The order formula on a reduced word split as (prefix, alphas, center),
    given lam's simple pairings checked dominant; checks no word. It is the
    pairings of lam with the prefix and center letters, plus each alpha's
    pairing times the order of its coordinate function: the drop of the
    Cartan pairings of the center and of the earlier alphas (weighted by
    their orders) against that alpha, capped at two. A one-letter center
    gives the E orders, a two-letter one the F orders."""
    prefix, alphas, center = shape
    cartan, orders = system.cartan, []
    total = sum(_int_pairing(pairings, lam, i) for i in prefix + center)
    for i, letter in enumerate(alphas):
        drop = -sum(cartan[c - 1][letter - 1] for c in center)
        for j in range(i):
            drop -= cartan[alphas[j] - 1][letter - 1] * orders[j]
        orders.append(min(2, drop))
        total += _int_pairing(pairings, lam, letter) * orders[i]
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


def _split(word: Word) -> Tuple[Word, Word, Word]:
    """Split as (prefix, alphas, center) with pairwise distinct letters: a
    word of distinct letters is its own prefix, otherwise a one-letter
    center is tried before a two-letter one, each with the longest alphas
    first. Raises when no split fits, at once for a word longer than twice
    its number of distinct letters, since a split uses each letter at most
    twice."""
    distinct, length = len(set(word)), len(word)
    if distinct == length:
        return word, (), ()
    if length <= 2 * distinct:
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
    raise ValueError(f"word {word} matches no supported shape")


def ord_for_word(system: RootSystem, lam: Vector, word: Sequence[int]) -> int:
    """Order of f_lam on the cell of the given reduced word: the order
    formula on its mirrored split. Checks the shape (a word with no split
    is an error), then dominance of lam, then that the word is reduced."""
    word = tuple(word)
    shape = _split(word)
    pairings = _dominant_pairings(system, lam)
    _require_reduced(system, word)
    return _order(system, lam, pairings, shape)


# -- stratum tables and the twisted character --------------------------------


def d_w0(lam: Vector, p: int, datum: CocharacterDatum) -> Vector:
    """The difference lam - p * (z w0)(lam) attached to the cocharacter datum,
    where z w0 is the datum's ``w0_I``, as z = w_{0,I} w0 and w0 w0 = 1.

    Applied to the Hasse weight it recovers (p - 1) times the Hodge character,
    which is the standard consistency check on a case's lambda.
    """
    twisted = datum.group.act(datum.w0_I, lam)
    return tuple(a - p * b for a, b in zip(lam, twisted, strict=True))


def strata_ord_table(datum: CocharacterDatum, lam: Vector) -> Dict[Perm, int]:
    """Vanishing order of f_lam on every stratum of the datum, keyed by the
    minimal coset representative labeling the stratum.

    Each label is first turned into the cell actually carrying the section:
    the label w is paired with w_{0,I} w w_0, the unique twist under which
    the open stratum gets the empty word and orders grow toward the identity
    label. The twist happens here and nowhere else. The weight is checked
    dominant and paired once for the whole table. The cell is a label too:
    its word, read off ``min_coset_reps``, is split by ``_split`` and goes
    through ``_order``, the kernel ``ord_for_word`` runs, unchecked; a cell
    word with no split raises with its stratum named.
    """
    group = datum.group
    system = group.system
    pairings = _dominant_pairings(system, lam)
    words = group.min_coset_reps(datum.I)
    table: Dict[Perm, int] = {}
    for label in words:
        cell = compose(datum.w0_I, compose(label, datum.w0))
        word = words[cell]
        try:
            table[label] = _order(system, lam, pairings, _split(word))
        except ValueError as err:
            raise ValueError(
                f"stratum {label} has cell word {word}: {err}"
            ) from err
    return table
