"""Weight multisets of the representations feeding the zip-stack models.

A representation enters the computation only through its multiset of torus
weights. The constructors here cover the standard and (half-)spin modules of
the classical types plus exterior powers and duals; the standard module's
weights are the root system's slot weights, laid out in ``rootsys``.

Counting and pairing run on integers. Every multiset is built by
``from_weights``, which counts and sorts the weights by their integer image,
the weights times the lcm of their denominators, which keeps equality and
order, and keeps that image with the multiset: the lcm L of its coordinate
denominators (2 for the spin modules, 1 otherwise) and each entry's weight
times L. Scaling mu by the lcm M of its own denominators, the integer
pairing is the exact one times L * M > 0, so it groups and orders the
weights identically. A multiset hashes its integer image, which equal
multisets share, and exterior powers add integer rows.

The slicing of a module by a cocharacter mu has one owner, ``_slot_table``:
the weights sorted by pairing with mu, highest first, as slots, with the
slice dimensions. ``hodge_character``, the one rule for a case's Hodge
character, sums the top slice's slots, and the zips of ``fzip`` are built
on the same table. It is an ``lru_cache`` keyed by content, so a case's
Hodge character builds the entry and its zips read it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, Iterable, List, Tuple

from .rootsys import IntVector, Vector, _to_ints, neg, root_system

# Ceiling on the subset enumeration behind exterior powers.
WEDGE_CAP = 10_000_000


class WeightMultiset:
    """Torus weights of a representation, with multiplicities, canonically
    sorted so that equal multisets compare equal. Built by ``from_weights``,
    which hands over the integer image it counted on; the hash is that of
    the image rather than of the Fraction entries, computed once, since
    multisets key the slot-table cache."""

    def __init__(
        self,
        entries: Tuple[Tuple[Vector, int], ...],
        int_image: Tuple[int, Tuple[IntVector, ...]],
    ) -> None:
        self.entries = entries
        self._int_image = int_image
        self._hash = hash(int_image)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_weights(weights: Iterable[Vector]) -> "WeightMultiset":
        """Count and sort the weights on their integer image: times the lcm
        L of their denominators, equal weights stay equal and the order stays
        the same, and integer tuples hash and compare faster than Fraction
        ones. Each entry keeps the first weight seen of its kind; the
        multiset keeps L and each entry's weight times L."""
        weights = tuple(weights)
        scale, image = _to_ints(weights)
        counts: Dict[IntVector, int] = {}
        first: Dict[IntVector, Vector] = {}
        for weight, key in zip(weights, image):
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = 1
                first[key] = weight
        keys = tuple(sorted(counts))
        return WeightMultiset(
            tuple((first[key], counts[key]) for key in keys), (scale, keys)
        )

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    def _pairings(self, mu: Vector) -> Tuple[List[int], int]:
        """Each entry's pairing with mu times a positive integer d, and d:
        entry k pairs to ``values[k] / d`` exactly."""
        scale, image = self._int_image
        mu_scale, (mu_ints,) = _to_ints((mu,))
        if image and len(image[0]) != len(mu_ints):
            raise ValueError(
                f"a cocharacter of length {len(mu_ints)} does not pair with "
                f"weights of length {len(image[0])}"
            )
        return [sum(map(mul, key, mu_ints)) for key in image], scale * mu_scale


def std_weights(cartan_type: str, rank: int) -> WeightMultiset:
    """Weights of the defining module: the slot weights of
    ``root_system(cartan_type, rank)``, e_i for type A (dimension rank + 1),
    plus-minus e_i for C and D, and the same with an extra zero weight for
    the odd orthogonal type B."""
    return WeightMultiset.from_weights(root_system(cartan_type, rank).slot_weights)


def spin_weights(cartan_type: str, rank: int) -> WeightMultiset:
    """Weights of the spin module (type B, dimension 2^m) or of one half-spin
    module (type D, dimension 2^(m-1), even number of minus signs)."""
    half = Fraction(1, 2)
    if cartan_type == "B":
        signs = itertools.product((half, -half), repeat=rank)
        return WeightMultiset.from_weights(tuple(s) for s in signs)
    if cartan_type == "D":
        weights = [
            tuple(s)
            for s in itertools.product((half, -half), repeat=rank)
            if sum(coord < 0 for coord in s) % 2 == 0
        ]
        return WeightMultiset.from_weights(weights)
    raise ValueError(f"no spin module for type {cartan_type}")


def wedge(module: WeightMultiset, k: int) -> WeightMultiset:
    """Exterior power: sums of the weights over k-element sub-multisets,
    added as rows of the integer image and then divided by its scale."""
    if not module.entries:
        raise ValueError("empty module has no ambient dimension")
    dim = module.dimension
    if not 0 <= k <= dim:
        raise ValueError(f"exterior power {k} of a {dim}-dimensional module")
    if math.comb(dim, k) > WEDGE_CAP:
        raise ValueError(
            f"exterior power would enumerate {math.comb(dim, k)} subsets"
        )
    scale, image = module._int_image
    flat = [key for key, (_, mult) in zip(image, module.entries) for _ in range(mult)]
    zero = (0,) * len(image[0])
    sums = [
        tuple(map(sum, zip(zero, *subset)))
        for subset in itertools.combinations(flat, k)
    ]
    # One Fraction per distinct coordinate value, shared by every sum.
    exact = {
        t: Fraction(t, scale) for t in set(itertools.chain.from_iterable(sums))
    }
    return WeightMultiset.from_weights(
        tuple(map(exact.__getitem__, row)) for row in sums
    )


def dual(module: WeightMultiset) -> WeightMultiset:
    return WeightMultiset.from_weights(
        neg(weight) for weight, mult in module.entries for _ in range(mult)
    )


@lru_cache(maxsize=64)
def _slot_table(
    module: WeightMultiset, mu: Vector
) -> Tuple[
    Tuple[Vector, ...], Tuple[IntVector, ...], Dict[IntVector, int], Tuple[int, ...]
]:
    """Slot weights, their integer keys, slot number by key, and the slice
    dimensions, top slice first. Slots run through the weights by pairing
    with mu and then by the weight, highest first, each repeated by its
    multiplicity; both orders are read off the integer image, and each run
    of equal pairings in that order is one slice."""
    values, _ = module._pairings(mu)
    _, image = module._int_image
    ranked = sorted(
        range(len(image)), key=lambda k: (values[k], image[k]), reverse=True
    )
    order = [k for k in ranked for _ in range(module.entries[k][1])]
    keys = tuple(image[k] for k in order)
    index_of = {k: slot for slot, k in enumerate(keys, start=1)}
    slots = tuple(module.entries[k][0] for k in order)
    dims = tuple(
        len(list(run)) for _, run in itertools.groupby(order, key=values.__getitem__)
    )
    return slots, keys, index_of, dims


def hodge_character(module: WeightMultiset, mu: Vector) -> Vector:
    """Minus the sum of the weights in the top mu-slice, with their
    multiplicities: the Hodge character eta, for any profile. The slice is
    the first ``dims[0]`` slots of the module's slot table, whose keys
    repeat by multiplicity."""
    if not module.entries:
        raise ValueError("the module has no weights, so no Hodge character")
    _, keys, _, dims = _slot_table(module, mu)
    scale, _ = module._int_image
    return tuple(Fraction(-t, scale) for t in map(sum, zip(*keys[: dims[0]])))
