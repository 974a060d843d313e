"""Weight multisets of the representations feeding the zip-stack models.

A representation enters the computation only through its multiset of torus
weights. The constructors here cover the standard and (half-)spin modules of
the classical types plus exterior powers and duals; the standard module's
weights are the root system's slot weights, laid out in ``rootsys``.

A multiset is stored as its integer image only: the lcm L of its coordinate
denominators (2 for the spin modules, 1 otherwise), its distinct weights
times L as sorted integer keys, and their multiplicities. The one
constructor reduces L and the keys by their gcd, so equal multisets have
equal images however they were built, and compare and hash by them. Every
builder hands it counted integer keys: sign vectors over L = 2 for the spin
modules, the slot weights over L = 1 for the standard ones, integer row
sums for exterior powers, negated keys for duals. Scaling mu by the lcm M
of its own denominators, the integer pairing is the exact one times
L * M > 0, so it groups and orders the weights identically. Fractions are
built only where a weight leaves the module, by ``_weights``: the derived
``entries``, the slots of the slot table and the Hodge character.

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
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .rootsys import IntVector, Vector, _to_ints, neg, root_system

# Ceiling on a module's dimension, checked before its weights are built: by
# ``spin_weights`` and ``wedge`` here and by ``cases.check_spec`` for every
# case.
MODULE_DIM_CAP = 4096


class WeightMultiset:
    """Torus weights of a representation, with multiplicities, as their
    integer image: ``scale`` L, the sorted distinct ``keys`` (each weight
    times L) and their ``mults``. The constructor takes L and a count per
    integer key, and divides L and the keys by their gcd, so L is the lcm of
    the weights' denominators and equal multisets have one image; the hash
    is that of the image, computed once, since multisets key the slot-table
    cache."""

    def __init__(self, scale: int, counts: Mapping[IntVector, int]) -> None:
        keys = sorted(counts)
        if len(set(map(len, keys))) > 1:
            raise ValueError("the weights of a module must all have one length")
        self.mults = tuple(map(counts.__getitem__, keys))
        common = math.gcd(scale, *itertools.chain.from_iterable(keys))
        if common > 1:
            keys = [tuple(c // common for c in key) for key in keys]
        self.scale = scale // common
        self.keys = tuple(keys)
        self._hash = hash((self.scale, self.keys, self.mults))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return (self.scale, self.keys, self.mults) == (
            other.scale, other.keys, other.mults
        )

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_weights(weights: Iterable[Vector]) -> "WeightMultiset":
        """Count exact weights on their integer image: times the lcm L of
        their denominators, equal weights stay equal and the order stays the
        same."""
        scale, image = _to_ints(weights)
        return WeightMultiset(scale, Counter(image))

    def _weights(self, keys: Sequence[IntVector]) -> Tuple[Vector, ...]:
        """The exact weights of integer keys: each key over the scale, with
        one Fraction per distinct coordinate value."""
        exact = {
            c: Fraction(c, self.scale) for c in set(itertools.chain.from_iterable(keys))
        }
        return tuple(tuple(map(exact.__getitem__, key)) for key in keys)

    @property
    def entries(self) -> Tuple[Tuple[Vector, int], ...]:
        """Each distinct weight, exact, with its multiplicity, in key order."""
        return tuple(zip(self._weights(self.keys), self.mults))

    @property
    def dimension(self) -> int:
        return sum(self.mults)

    def _pairings(self, mu: Vector) -> Tuple[List[int], int]:
        """Each key's pairing with mu times a positive integer d, and d:
        key k pairs to ``values[k] / d`` exactly."""
        mu_scale, (mu_ints,) = _to_ints((mu,))
        if self.keys and len(self.keys[0]) != len(mu_ints):
            raise ValueError(
                f"a cocharacter of length {len(mu_ints)} does not pair with "
                f"weights of length {len(self.keys[0])}"
            )
        return [sum(map(mul, key, mu_ints)) for key in self.keys], self.scale * mu_scale


def std_weights(cartan_type: str, rank: int) -> WeightMultiset:
    """Weights of the defining module: the slot weights of
    ``root_system(cartan_type, rank)``, e_i for type A (dimension rank + 1),
    plus-minus e_i for C and D, and the same with an extra zero weight for
    the odd orthogonal type B."""
    return WeightMultiset(1, Counter(root_system(cartan_type, rank).slot_weights))


def spin_weights(cartan_type: str, rank: int) -> WeightMultiset:
    """Weights of the spin module (type B, dimension 2^m) or of one half-spin
    module (type D, dimension 2^(m-1), even number of minus signs): the sign
    vectors (+-1/2, ..., +-1/2), counted as the +-1 vectors over scale 2.
    A dimension above ``MODULE_DIM_CAP`` raises before any vector is built."""
    if cartan_type not in ("B", "D"):
        raise ValueError(f"no spin module for type {cartan_type}")
    exponent = rank - (cartan_type == "D")
    # 2^exponent exceeds the ceiling exactly when exponent reaches its bit length.
    if exponent >= MODULE_DIM_CAP.bit_length():
        raise ValueError(
            f"the spin module of {cartan_type}{rank} has dimension 2^{exponent}, "
            f"above the ceiling of {MODULE_DIM_CAP}"
        )
    signs = itertools.product((1, -1), repeat=rank)
    if cartan_type == "D":
        signs = (s for s in signs if s.count(-1) % 2 == 0)
    return WeightMultiset(2, Counter(signs))


def wedge(module: WeightMultiset, k: int) -> WeightMultiset:
    """Exterior power: sums of the weights over k-element sub-multisets,
    added as rows of the integer image at the module's scale; the
    constructor reduces the scale where every sum is integral. A power of
    dimension above ``MODULE_DIM_CAP`` raises before any subset is built."""
    if not module.keys:
        raise ValueError("empty module has no ambient dimension")
    dim = module.dimension
    if not 0 <= k <= dim:
        raise ValueError(f"exterior power {k} of a {dim}-dimensional module")
    if math.comb(dim, k) > MODULE_DIM_CAP:
        raise ValueError(
            f"exterior power {k} of a {dim}-dimensional module has dimension "
            f"{math.comb(dim, k)}, above the ceiling of {MODULE_DIM_CAP}"
        )
    flat = [key for key, mult in zip(module.keys, module.mults) for _ in range(mult)]
    zero = (0,) * len(flat[0])
    return WeightMultiset(module.scale, Counter(
        tuple(map(sum, zip(zero, *subset))) for subset in itertools.combinations(flat, k)
    ))


def dual(module: WeightMultiset) -> WeightMultiset:
    return WeightMultiset(module.scale, dict(zip(map(neg, module.keys), module.mults)))


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
    image = module.keys
    ranked = sorted(
        range(len(image)), key=lambda k: (values[k], image[k]), reverse=True
    )
    order = [k for k in ranked for _ in range(module.mults[k])]
    keys = tuple(image[k] for k in order)
    index_of = {k: slot for slot, k in enumerate(keys, start=1)}
    dims = tuple(
        len(list(run)) for _, run in itertools.groupby(order, key=values.__getitem__)
    )
    return module._weights(keys), keys, index_of, dims


def hodge_character(module: WeightMultiset, mu: Vector) -> Vector:
    """Minus the sum of the weights in the top mu-slice, with their
    multiplicities: the Hodge character eta, for any profile. The slice is
    the first ``dims[0]`` slots of the module's slot table, whose keys
    repeat by multiplicity."""
    if not module.keys:
        raise ValueError("the module has no weights, so no Hodge character")
    _, keys, _, dims = _slot_table(module, mu)
    eta = tuple(-t for t in map(sum, zip(*keys[: dims[0]])))
    return module._weights([eta])[0]
