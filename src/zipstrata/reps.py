"""Weight multisets of the representations feeding the zip-stack models.

A representation enters the computation only through its multiset of torus
weights. The constructors here cover the standard and (half-)spin modules of
the classical types plus the tensor operations needed to assemble the case
list: exterior powers, duals and direct sums. ``mu_profile`` slices a multiset
along a cocharacter, ``is_cy`` recognizes the profiles whose top slice is a
line, and ``hodge_character`` extracts the weight eta of the Hodge line from
a two-slice profile.

Counting and pairing run on integers. ``from_weights`` counts and sorts
the weights by their integer image, the weights times the lcm of their
denominators, which keeps equality and order. A multiset keeps, computed
once, its integer image: the lcm L of its coordinate denominators (2 for
the spin modules, 1 otherwise) and each entry's weight times L. Scaling mu
by the lcm M of its own denominators, the integer pairing is the exact one
times L * M > 0, so it groups and orders the weights identically; each
exact slice value is built as one ``Fraction`` per slice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, Iterable, List, Tuple

from .rootsys import IntVector, Vector, _to_ints, neg, sum_vectors, vec

# Ceiling on the subset enumeration behind exterior powers.
WEDGE_CAP = 10_000_000


@dataclass(frozen=True)
class WeightMultiset:
    """Torus weights of a representation, with multiplicities, canonically
    sorted so that equal multisets compare equal. The hash is computed once
    per instance, since multisets key the slot-table cache."""

    entries: Tuple[Tuple[Vector, int], ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.entries)

    @staticmethod
    def from_weights(weights: Iterable[Vector]) -> "WeightMultiset":
        """Count and sort the weights on their integer image: times the lcm
        of their denominators, equal weights stay equal and the order stays
        the same, and integer tuples hash and compare faster than Fraction
        ones. Each entry keeps the first weight seen of its kind."""
        weights = tuple(weights)
        _, image = _to_ints(weights)
        counts: Dict[IntVector, int] = {}
        first: Dict[IntVector, Vector] = {}
        for weight, key in zip(weights, image):
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = 1
                first[key] = weight
        return WeightMultiset(
            tuple((first[key], counts[key]) for key in sorted(counts))
        )

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    def expanded(self) -> Tuple[Vector, ...]:
        """Every weight repeated by its multiplicity."""
        return tuple(
            weight for weight, mult in self.entries for _ in range(mult)
        )

    def multiplicity(self, weight: Vector) -> int:
        return dict(self.entries).get(weight, 0)

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
    """Weights of the defining module: e_i for type A (dimension rank + 1),
    plus-minus e_i for C and D, and the same with an extra zero weight for
    the odd orthogonal type B."""
    if cartan_type == "A":
        dim = rank + 1
        return WeightMultiset.from_weights(_unit(dim, i) for i in range(dim))
    if cartan_type in ("C", "D"):
        units = [_unit(rank, i) for i in range(rank)]
        return WeightMultiset.from_weights(units + [neg(u) for u in units])
    if cartan_type == "B":
        units = [_unit(rank, i) for i in range(rank)]
        zero = vec(*([0] * rank))
        return WeightMultiset.from_weights(units + [neg(u) for u in units] + [zero])
    raise ValueError(f"no standard module for type {cartan_type}")


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
    """Exterior power: sums of the weights over k-element sub-multisets."""
    dim = module.dimension
    if not 0 <= k <= dim:
        raise ValueError(f"exterior power {k} of a {dim}-dimensional module")
    if math.comb(dim, k) > WEDGE_CAP:
        raise ValueError(
            f"exterior power would enumerate {math.comb(dim, k)} subsets"
        )
    flat = module.expanded()
    width = _width(module)
    return WeightMultiset.from_weights(
        sum_vectors(subset, width) for subset in itertools.combinations(flat, k)
    )


def dual(module: WeightMultiset) -> WeightMultiset:
    return WeightMultiset(
        tuple(sorted((neg(weight), mult) for weight, mult in module.entries))
    )


def dsum(left: WeightMultiset, right: WeightMultiset) -> WeightMultiset:
    return WeightMultiset.from_weights(left.expanded() + right.expanded())


def mu_profile(
    module: WeightMultiset, mu: Vector
) -> Tuple[Tuple[Fraction, int], ...]:
    """Pairings of the weights against the cocharacter mu, highest first,
    each with the dimension of its slice."""
    values, denominator = module._pairings(mu)
    slices: Dict[int, int] = {}
    for value, (_, mult) in zip(values, module.entries):
        slices[value] = slices.get(value, 0) + mult
    return tuple(
        (Fraction(value, denominator), dim)
        for value, dim in sorted(slices.items(), reverse=True)
    )


def is_cy(module: WeightMultiset, mu: Vector) -> bool:
    """Whether the highest mu-slice of the module is one dimensional."""
    profile = mu_profile(module, mu)
    return bool(profile) and profile[0][1] == 1


def hodge_character(module: WeightMultiset, mu: Vector) -> Vector:
    """Sum of the weights in the lower slice of a two-slice profile.

    Modules whose weights spread over three or more pairing values have no
    single Hodge line in this sense and are rejected.
    """
    values, _ = module._pairings(mu)
    slices = set(values)
    if len(slices) != 2:
        raise ValueError(f"expected exactly two mu-slices, found {len(slices)}")
    low = min(slices)
    scale, image = module._int_image
    total = [0] * len(mu)
    for value, key, (_, mult) in zip(values, image, module.entries):
        if value == low:
            total = [t + mult * c for t, c in zip(total, key)]
    return tuple(Fraction(t, scale) for t in total)


def _unit(dim: int, index: int) -> Vector:
    return tuple(Fraction(1) if j == index else Fraction(0) for j in range(dim))


def _width(module: WeightMultiset) -> int:
    if not module.entries:
        raise ValueError("empty module has no ambient dimension")
    return len(module.entries[0][0])
