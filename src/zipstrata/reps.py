"""Weight multisets of the representations feeding the zip-stack models.

A representation enters the computation only through its multiset of torus
weights. The constructors here cover the standard and (half-)spin modules of
the classical types plus exterior powers and duals; the standard module's
weights are the root system's slot weights, laid out in ``rootsys``.
``hodge_character`` is the one rule for the Hodge character of a case:
minus the sum of the weights in the top mu-slice.

Counting and pairing run on integers. ``from_weights`` counts and sorts
the weights by their integer image, the weights times the lcm of their
denominators, which keeps equality and order, and keeps that image with
the multiset: the lcm L of its coordinate denominators (2 for the spin
modules, 1 otherwise) and each entry's weight times L, computed on first
use for a multiset built otherwise. Scaling mu by the lcm M of its own
denominators, the integer pairing is the exact one times L * M > 0, so it
groups and orders the weights identically. A multiset hashes its integer
image, which equal multisets share, and exterior powers add integer rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, Iterable, List, Tuple

from .rootsys import IntVector, Vector, _to_ints, neg, root_system

# Ceiling on the subset enumeration behind exterior powers.
WEDGE_CAP = 10_000_000


class WeightMultiset:
    """Torus weights of a representation, with multiplicities, canonically
    sorted so that equal multisets compare equal. The hash is computed once
    per instance, on the integer image rather than the Fraction entries,
    since multisets key the slot-table cache."""

    def __init__(self, entries: Tuple[Tuple[Vector, int], ...]) -> None:
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._int_image)

    @staticmethod
    def from_weights(weights: Iterable[Vector]) -> "WeightMultiset":
        """Count and sort the weights on their integer image: times the lcm
        of their denominators, equal weights stay equal and the order stays
        the same, and integer tuples hash and compare faster than Fraction
        ones. Each entry keeps the first weight seen of its kind."""
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
        multiset = WeightMultiset(tuple((first[key], counts[key]) for key in keys))
        multiset.__dict__["_int_image"] = (scale, keys)  # seeds the cached property
        return multiset

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    @cached_property
    def _int_image(self) -> Tuple[int, Tuple[IntVector, ...]]:
        """L and each entry's weight times L, for L the lcm of the
        coordinate denominators."""
        return _to_ints(weight for weight, _ in self.entries)

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
    return WeightMultiset(
        tuple(sorted((neg(weight), mult) for weight, mult in module.entries))
    )


def hodge_character(module: WeightMultiset, mu: Vector) -> Vector:
    """Minus the sum of the weights in the top mu-slice, with their
    multiplicities: the Hodge character eta, for any profile."""
    if not module.entries:
        raise ValueError("the module has no weights, so no Hodge character")
    values, _ = module._pairings(mu)
    top = max(values)
    scale, image = module._int_image
    total = [0] * len(mu)
    for value, key, (_, mult) in zip(values, image, module.entries):
        if value == top:
            total = [t - mult * c for t, c in zip(total, key)]
    return tuple(Fraction(t, scale) for t in total)
