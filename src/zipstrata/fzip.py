"""Standard zips in the permutation model and the conjugate line position.

A zip here is a vector space with two filtrations: the descending one cut out
by the cocharacter slices of a weight multiset, and the ascending conjugate
one obtained by pushing coordinate lines through a Weyl element. Both are
encoded combinatorially: the slots are the weights sorted by slice, and the
element acts as a permutation of slots. The type of a zip is just its slice
dimensions, top slice first. ``clp`` locates the top Hodge line inside the
conjugate filtration, whose steps grow from the bottom slice up; on the
open stratum the line lands in the bottom step and the Hasse section is
invertible.

Slot permutations are found by moving integer keys, not Fraction weights:
the slot keys are the module's stored keys (each weight times the lcm,
``scale``, of the module's denominators), and the Weyl action, a signed
permutation of coordinates, moves keys and weights alike. Only the simple
reflections are applied to keys, once per ``standard_zips`` call: W acts on
the slots of a W-stable module, so every other element's permutation is the
composition of theirs along a word of it (the slot action of the zip data
of Pink, Wedhorn and Ziegler). A case builds its zips along the words that
``min_coset_reps`` stores for its strata. The slots, their keys and the
slice dimensions are the module's one mu-slicing, ``reps._slot_table``,
which a case's Hodge character has already built: slots sorted by the
integer pairing of their keys with the scaled cocharacter, which orders
them as the exact pairing does, and slices counted off the same sorted
pairings.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Sequence, Tuple

from .reps import WeightMultiset, _slot_table
from .rootsys import IntVector, Vector, weight_str
from .weyl import CocharacterDatum, Perm, WeylGroup, compose, identity_perm


class StandardZip(NamedTuple):
    """A zip with the dimensions of its slices, top slice first, its slot
    weights, and the slot permutation induced by a Weyl element."""

    dims: Tuple[int, ...]
    slots: Tuple[Vector, ...]
    sigma: Perm


def standard_zips(
    datum: CocharacterDatum, module: WeightMultiset, words: Iterable[Sequence[int]]
) -> Tuple[StandardZip, ...]:
    """Standard zips of the module at the cocharacter of the datum, one per
    word, with the conjugate lines permuted by the word's element.

    The weights must be multiplicity free, otherwise slots and weights do not
    determine each other and the permutation model breaks down. Each simple
    reflection is mapped once to the slot permutation of its action on the
    integer slot keys; a module that is not W-stable fails there, naming a
    weight that leaves the slots, whatever the words. Since W acts on the
    slots of a W-stable module, a word's permutation is the product of its
    letters', so it depends only on the element, reduced word or not. Each
    word's permutation is remembered for the rest of the call: a word whose
    prefix without its last letter came before costs one composition, so
    the words of a ``min_coset_reps`` table, in its order, cost one each.
    Any other word is folded from the identity. A letter outside 1..rank
    raises.
    """
    if any(mult != 1 for mult in module.mults):
        raise ValueError("the permutation model needs multiplicity-free weights")
    slots, keys, index_of, dims = _slot_table(module, datum.mu)
    group = datum.group
    steps = [
        _reflection_slot_perm(group, group.simple_reflection(i), slots, keys, index_of)
        for i in range(1, group.rank + 1)
    ]
    known: Dict[Tuple[int, ...], Perm] = {(): identity_perm(len(slots))}
    zips = []
    for word in map(tuple, words):
        if word not in known:
            prefix = known.get(word[:-1])
            sigma, letters = (known[()], word) if prefix is None else (prefix, word[-1:])
            for i in group._letter_indices(letters):
                sigma = compose(sigma, steps[i])
            known[word] = sigma
        zips.append(StandardZip(dims=dims, slots=slots, sigma=known[word]))
    return tuple(zips)


def _reflection_slot_perm(
    group: WeylGroup,
    s: Perm,
    slots: Tuple[Vector, ...],
    keys: Tuple[IntVector, ...],
    index_of: Dict[IntVector, int],
) -> Perm:
    """Slot permutation of one simple reflection; a key it moves off the
    slots raises, naming the moved weight."""
    images = []
    for weight, image in zip(slots, group._act_all(s, keys)):
        slot = index_of.get(image)
        if slot is None:
            moved = group.act(s, weight)
            raise ValueError(f"weights are not stable: {weight_str(moved)} is not a slot")
        images.append(slot)
    return tuple(images)


def build_standard(
    datum: CocharacterDatum, module: WeightMultiset, w: Perm
) -> StandardZip:
    """The standard zip of ``standard_zips`` for the one element w, by its
    ``reduced_word``, which refuses a w outside the group."""
    return standard_zips(datum, module, (datum.group.reduced_word(w),))[0]


def clp(z: StandardZip) -> int:
    """Conjugate line position: the deepest conjugate step containing the
    Hodge line, between 0 (ordinary) and steps - 1.

    The conjugate steps are counted from the bottom slice: with s the slot
    that sigma sends to slot 1, the line lies in step ``steps - k`` for the
    least k such that the k bottom slices hold at least s slots. Read from
    the top slice instead, the steps agree only on palindromic profiles."""
    dims = z.dims
    if not dims or dims[0] != 1:
        raise ValueError("the Hodge slice is not a line")
    source = z.sigma.index(1) + 1
    span = 0
    for position, dim in zip(range(len(dims) - 1, 0, -1), reversed(dims)):
        span += dim
        if source <= span:
            return position
    return 0


def clp_exterior_top(z: StandardZip) -> int:
    """Line position for the top exterior power of a two-step zip: the number
    of top-slice slots kept inside the top slice."""
    if len(z.dims) != 2:
        raise ValueError("the exterior-top position needs a two-step zip")
    top = z.dims[0]
    return sum(1 for k in range(top) if z.sigma[k] <= top)
