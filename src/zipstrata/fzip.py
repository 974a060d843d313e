"""Standard zips in the permutation model and the conjugate line position.

A zip here is a vector space with two filtrations: the descending one cut out
by the cocharacter slices of a weight multiset, and the ascending conjugate
one obtained by pushing coordinate lines through a Weyl element. Both are
encoded combinatorially: the slots are the weights sorted by slice, and the
element acts as a permutation of slots. ``clp`` locates the top Hodge line
inside the conjugate filtration; on the open stratum it lands in the bottom
step and the Hasse section is invertible, which is what ``hasse_nonzero``
reports.

Slot permutations are found by moving integer keys, not Fraction weights:
the keys are the rows of the module's integer image (each weight times the
lcm of the module's denominators), and the Weyl action, a signed
permutation of coordinates, moves keys and weights alike. Only the simple
reflections are applied to keys, once per ``standard_zips`` call: W acts on
the slots of a W-stable module, so every other element's permutation is a
composition of theirs (the slot action of the zip data of Pink, Wedhorn
and Ziegler). Slots are sorted by the integer pairing of their keys with
the scaled cocharacter, which orders them as the exact pairing does. The
slot weights, keys and zip type of a (module, cocharacter) pair come from an
``lru_cache`` keyed by content, so equal modules built by separate calls
share one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .reps import WeightMultiset, mu_profile
from .rootsys import IntVector, Vector
from .weyl import (
    CocharacterDatum,
    Perm,
    WeylGroup,
    _reduced_word,
    compose,
    identity_perm,
)


@dataclass(frozen=True)
class ZipType:
    """Slice values of a weight multiset along the cocharacter, highest
    first, with the dimension of each slice."""

    supports: Tuple[Fraction, ...]
    dims: Tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def cumulative(self) -> Tuple[int, ...]:
        sums = []
        running = 0
        for dim in self.dims:
            running += dim
            sums.append(running)
        return tuple(sums)

    @property
    def is_cy(self) -> bool:
        """Whether the top slice is a line."""
        return bool(self.dims) and self.dims[0] == 1


def zip_type(module: WeightMultiset, mu: Vector) -> ZipType:
    profile = mu_profile(module, mu)
    return ZipType(
        supports=tuple(value for value, _ in profile),
        dims=tuple(dim for _, dim in profile),
    )


@dataclass(frozen=True)
class StandardZip:
    """A zip of the given type together with the slot permutation induced by
    a Weyl element."""

    ztype: ZipType
    slots: Tuple[Vector, ...]
    sigma: Perm

    @property
    def w0ij(self) -> Perm:
        """The frame permutation of this zip's type."""
        return w0ij_perm(self.ztype)


def w0ij_perm(ztype: ZipType) -> Perm:
    """Frame permutation of a zip type: slot i of slice j moves to slot
    i - m_{j-1} + (N - m_j), reversing the slice order while keeping each
    slice's internal order.

    On the open stratum the conjugate filtration is opposed to the Hodge one,
    and this is the permutation realizing that relative position.
    """
    cumulative = (0,) + ztype.cumulative
    total = ztype.total
    images = []
    for i in range(1, total + 1):
        j = next(b for b in range(1, ztype.steps + 1) if i <= cumulative[b])
        images.append(i - cumulative[j - 1] + total - cumulative[j])
    return tuple(images)


@lru_cache(maxsize=64)
def _slot_table(
    module: WeightMultiset, mu: Vector
) -> Tuple[Tuple[Vector, ...], Tuple[IntVector, ...], Dict[IntVector, int], ZipType]:
    """Slot weights, their integer keys, slot number by key, and the zip
    type. Slots run through the weights by pairing with mu and then by the
    weight, highest first; both orders are read off the integer image."""
    values, _ = module._pairings(mu)
    _, image = module._int_image
    order = [
        k
        for k in sorted(range(len(image)), key=lambda k: (values[k], image[k]), reverse=True)
        for _ in range(module.entries[k][1])
    ]
    keys = tuple(image[k] for k in order)
    index_of = {k: slot for slot, k in enumerate(keys, start=1)}
    slots = tuple(module.entries[k][0] for k in order)
    return slots, keys, index_of, zip_type(module, mu)


def standard_zips(
    datum: CocharacterDatum, module: WeightMultiset, elements: Sequence[Perm]
) -> Tuple[StandardZip, ...]:
    """Standard zips of the module at the cocharacter of the datum, one per
    element, with the conjugate lines permuted by that element.

    The weights must be multiplicity free, otherwise slots and weights do not
    determine each other and the permutation model breaks down. Each simple
    reflection is mapped once to the slot permutation of its action on the
    integer slot keys; a module that is not W-stable fails there, naming a
    weight that leaves the slots, whatever the elements. Since W acts on the
    slots of a W-stable module, w = (w s_j) s_j for the last letter j of
    w's reduced word gives w's permutation as w s_j's composed with s_j's.
    The walk down to an element already known (the identity at the latest)
    is iterative, and every element on it is remembered for the rest of the
    call, so the strata of a case, whose labels are closed under dropping a
    right descent, cost one composition each.
    """
    if any(mult != 1 for _, mult in module.entries):
        raise ValueError("the permutation model needs multiplicity-free weights")
    slots, keys, index_of, ztype = _slot_table(module, datum.mu)
    group = datum.group
    reflections = [group.simple_reflection(i) for i in range(1, group.rank + 1)]
    steps = [
        _reflection_slot_perm(group, s, slots, keys, index_of) for s in reflections
    ]
    known: Dict[Perm, Perm] = {group.identity(): identity_perm(len(slots))}
    zips = []
    for w in map(tuple, elements):
        word = _reduced_word(group, w)
        path = []
        key = w
        while key not in known:
            letter = word[len(word) - 1 - len(path)] - 1
            path.append((key, letter))
            key = compose(key, reflections[letter])
        sigma = known[key]
        for key, letter in reversed(path):
            sigma = compose(sigma, steps[letter])
            known[key] = sigma
        zips.append(StandardZip(ztype=ztype, slots=slots, sigma=sigma))
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
            raise ValueError(f"weights are not stable: {moved} is not a slot")
        images.append(slot)
    return tuple(images)


def build_standard(
    datum: CocharacterDatum, module: WeightMultiset, w: Perm
) -> StandardZip:
    """The standard zip of ``standard_zips`` for the one element w."""
    return standard_zips(datum, module, (w,))[0]


def clp(z: StandardZip) -> int:
    """Conjugate line position: the deepest conjugate step containing the
    Hodge line, between 0 (ordinary) and steps - 1."""
    if not z.ztype.is_cy:
        raise ValueError("the Hodge slice is not a line")
    source = z.sigma.index(1) + 1
    cumulative = z.ztype.cumulative
    steps = z.ztype.steps
    position = 0
    for j in range(1, steps):
        if source <= cumulative[steps - 1 - j]:
            position = j
    return position


def clp_exterior_top(z: StandardZip) -> int:
    """Line position for the top exterior power of a two-step zip: the number
    of top-slice slots kept inside the top slice."""
    if z.ztype.steps != 2:
        raise ValueError("the exterior-top position needs a two-step zip")
    top = z.ztype.dims[0]
    return sum(1 for k in range(top) if z.sigma[k] <= top)


def hasse_nonzero(z: StandardZip) -> bool:
    """Whether the Hasse section is invertible on the zip: the Hodge line
    already lies in the bottom conjugate step."""
    return clp(z) == 0
