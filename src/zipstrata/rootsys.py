"""Classical root systems in their standard coordinate realizations.

Everything is exact and no float ever appears. A weight coordinate is an
``int`` where it is integral and a ``Fraction`` only where it is not; the
two forms compare and hash alike. The builders (``vec``, ``unit``,
``parse_weight``) normalize through ``_exact``, and arithmetic results are
not normalized again. Roots (``Root``) and slot weights (0 or plus-minus
e_i) are int tuples. Types A, B, C, D are
supported; type A_{rank} lives in rank+1 coordinates (the GL weight lattice),
the others in ``rank`` coordinates.

Each system owns its type's slot layout (``slot_weights``, ``root_pairs``,
``simple_swaps``, ``mirror``): the Weyl group (``weyl``) permutes
these slots, the standard module (``reps.std_weights``) is their weights,
and the roots are read off the slot pairs.

``root_system`` is an ``lru_cache`` and the only constructor: it builds each
system once per type and rank and hands out the same instance
afterwards. A system compares and hashes by identity, so it is a cheap cache
key downstream; the derived integer data (simple coroots, Cartan matrix,
the positive roots and the root set) is computed on first use and kept on
it. Every simple coroot is an integer vector too, so ``simple_pairings``
scales a weight to integer numerators over the lcm of its denominators,
pairs on machine integers and keeps a ``Fraction`` only for a pairing that
is not integral. ``pairing`` and ``reflect`` remain the general formulas
and accept any exact vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import lcm
from typing import FrozenSet, Iterable, Sequence, Tuple

Vector = Tuple[int | Fraction, ...]
Root = Tuple[int, ...]
IntVector = Tuple[int, ...]

CLASSICAL_TYPES = ("A", "B", "C", "D")


def _exact(c: int | Fraction) -> int | Fraction:
    """The coordinate as an int when it is integral, else as it is."""
    return c.numerator if c.denominator == 1 else c


def vec(*entries: int | Fraction) -> Vector:
    """Build an exact vector from ints or Fractions."""
    return tuple(map(_exact, entries))


def unit(dim: int, i: int) -> Vector:
    """Standard basis vector e_i, 1-indexed."""
    if not 1 <= i <= dim:
        raise ValueError(f"unit index {i} out of range for dimension {dim}")
    return vec(*(j == i for j in range(1, dim + 1)))


def weight_str(v: Vector) -> str:
    """A weight for messages, coordinates as ``str`` prints them: (3/2, 0)."""
    return f"({', '.join(map(str, v))})"


def add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def smul(c: int | Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def dot(u: Vector, v: Vector) -> int | Fraction:
    return sum(a * b for a, b in zip(u, v, strict=True))


def _to_ints(vectors: Iterable[Vector]) -> Tuple[int, Tuple[IntVector, ...]]:
    """The lcm L of the denominators of every coordinate, and each vector
    times L as integers."""
    vectors = tuple(vectors)
    scale = lcm(*(c.denominator for v in vectors for c in v))
    return scale, tuple(
        tuple(c.numerator * (scale // c.denominator) for c in v) for v in vectors
    )


class RootSystem:
    """A root system with its chosen simple roots and its slot layout.

    ``positive_roots`` is the full set of positive roots, built on first
    read (only ``roots`` and ``root_keys``, the closedness diagnostic's
    tables, read it); ``roots`` adds the negatives. ``ambient_dim`` is the
    number of coordinates (rank+1 for A).
    ``slot_weights`` are the standard module's weights in slot order, as
    int tuples (see ``root_system``); ``root_pairs`` holds the zero-based
    slot pair (a, b), a < b, of each positive root slot_weights[a] -
    slot_weights[b], simple roots first, and ``simple_swaps`` the one or two
    slot pairs each simple reflection swaps. ``mirror`` maps a slot to the
    slot of its negated weight, read off the layout: none in type A, and
    slot n - 1 - k for slot k of n otherwise (type B's zero slot is its
    own). Built only by ``root_system``, which checks the type and rank
    first; compares and hashes by identity.
    """

    def __init__(self, cartan_type: str, rank: int) -> None:
        dim = rank + 1 if cartan_type == "A" else rank
        e = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
        simple = [(i, i + 1) for i in range(rank)]
        if cartan_type == "A":
            slots, mirror = e, {}
            pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
            swaps = [((i, i + 1),) for i in range(rank)]
        else:
            m = rank
            zero = [(0,) * m] if cartan_type == "B" else []
            slots = e + zero + [(0,) * (m - 1 - i) + (-1,) + (0,) * i for i in range(m)]
            n = len(slots)
            mirror = {k: n - 1 - k for k in range(n)}
            # e_a - e_b and e_a + e_b = e_a - (-e_b) for each a < b.
            pairs = [
                p for a in range(m) for b in range(a + 1, m) for p in ((a, b), (a, n - 1 - b))
            ]
            swaps = [((i, i + 1), (n - 2 - i, n - 1 - i)) for i in range(m - 1)]
            if cartan_type == "B":
                pairs += [(a, m) for a in range(m)]
                swaps.append(((m - 1, m + 1),))
            elif cartan_type == "C":
                pairs += [(a, n - 1 - a) for a in range(m)]
                swaps.append(((m - 1, m),))
            else:
                simple[-1] = (m - 2, m)
                swaps.append(((m - 2, m), (m - 1, m + 1)))

        simple_set = set(simple)
        self.cartan_type = cartan_type
        self.rank = rank
        self.ambient_dim = dim
        self.slot_weights = tuple(slots)
        self.root_pairs = tuple(simple) + tuple(p for p in pairs if p not in simple_set)
        self.simple_swaps = tuple(swaps)
        self.mirror = mirror
        self.simple_roots = tuple(sub(slots[a], slots[b]) for a, b in simple)
        self._positive_pairs = pairs

    @cached_property
    def positive_roots(self) -> Tuple[Root, ...]:
        slots = self.slot_weights
        return tuple(sub(slots[a], slots[b]) for a, b in self._positive_pairs)

    @property
    def roots(self) -> Tuple[Root, ...]:
        return self.positive_roots + tuple(neg(a) for a in self.positive_roots)

    def simple(self, i: int) -> Root:
        """The i-th simple root, 1-indexed."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range for rank {self.rank}")
        return self.simple_roots[i - 1]

    @cached_property
    def simple_coroots(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Each simple coroot 2 alpha / (alpha, alpha) as its nonzero
        entries (zero-based coordinate, integer coefficient)."""
        coroots = []
        for alpha in self.simple_roots:
            norm = sum(a * a for a in alpha)
            entries = tuple((k, 2 * a) for k, a in enumerate(alpha) if a)
            if any(c % norm for _, c in entries):
                raise ValueError(f"simple coroot of {alpha} is not integral")
            coroots.append(tuple((k, c // norm) for k, c in entries))
        return tuple(coroots)

    @cached_property
    def cartan(self) -> Tuple[Tuple[int, ...], ...]:
        """Entry [i][j] = <alpha_j, alpha_i_vee>, 0-indexed rows."""
        return tuple(
            tuple(sum(c * alpha[k] for k, c in coroot) for alpha in self.simple_roots)
            for coroot in self.simple_coroots
        )

    @cached_property
    def root_keys(self) -> FrozenSet[Root]:
        """Every root, positive and negative, for membership tests."""
        return frozenset(self.roots)


# Largest rank accepted by ``root_system``, checked before anything is
# built: every case fits (GLn_wedge_dualsum at rank 64 is A_63), and the
# longest word the order formulas accept at rank 64 (127 letters in B_64)
# takes about 0.2 s from the command line on a 2-vCPU Xeon.
ROOT_RANK_CAP = 64


@lru_cache(maxsize=64)
def root_system(cartan_type: str, rank: int, /) -> RootSystem:
    """The classical root system of the given type and rank, shared: every
    call returns the same instance while it is cached.

    A: rank >= 1, slots e_1, ..., e_{rank+1}; simple roots e_i - e_{i+1}.
    B: rank >= 1, slots e_1, ..., e_m, 0, -e_m, ..., -e_1; short root e_m
       at the end.
    C: rank >= 1, slots e_1, ..., e_n, -e_n, ..., -e_1; long root 2 e_n at
       the end.
    D: rank >= 2, slots as for C; fork e_{m-1} + e_m at the end.

    The positive roots come in the order e_i - e_j (i < j) in type A, and
    otherwise e_i - e_j, e_i + e_j for each i < j, then e_i in type B and
    2 e_i in type C. A rank above ``ROOT_RANK_CAP`` raises ``ValueError``.
    """
    if cartan_type not in CLASSICAL_TYPES:
        raise ValueError(f"unknown Cartan type {cartan_type!r}")
    if rank < 1:
        raise ValueError("rank must be positive")
    if rank > ROOT_RANK_CAP:
        raise ValueError(f"rank {rank} is above the ceiling of {ROOT_RANK_CAP}")
    if cartan_type == "D" and rank < 2:
        raise ValueError("type D needs rank >= 2")

    return RootSystem(cartan_type, rank)


def pairing(lam: Vector, alpha: Vector | Root) -> Fraction:
    """<lam, alpha_vee> = 2 (lam, alpha) / (alpha, alpha), a Fraction."""
    denom = dot(alpha, alpha)
    if denom == 0:
        raise ValueError("pairing against the zero vector")
    return Fraction(2 * dot(lam, alpha), denom)


def reflect(lam: Vector, alpha: Vector | Root) -> Vector:
    """Reflection of lam in the hyperplane orthogonal to alpha."""
    return sub(lam, smul(pairing(lam, alpha), alpha))


def simple_pairings(system: RootSystem, lam: Vector) -> Vector:
    """<lam, alpha_i_vee> for every simple root, in index order.

    lam is scaled once by the lcm of its denominators; the integer
    numerators are paired with the integer coroots and each result is put
    back over the common denominator, as an int where it divides, so the
    values equal ``pairing``.
    """
    if len(lam) != system.ambient_dim:
        raise ValueError(
            f"weight has {len(lam)} coordinates, expected {system.ambient_dim}"
        )
    scale, (nums,) = _to_ints((lam,))
    sums = [sum(c * nums[k] for k, c in coroot) for coroot in system.simple_coroots]
    return tuple(Fraction(s, scale) if s % scale else s // scale for s in sums)


def parse_weight(system: RootSystem, coords: Sequence[int | Fraction]) -> Vector:
    """Validate a coordinate sequence as a weight of this system."""
    v = tuple(map(_exact, coords))
    if len(v) != system.ambient_dim:
        raise ValueError(
            f"weight has {len(v)} coordinates, expected {system.ambient_dim}"
        )
    return v


def sum_vectors(vs: Iterable[Vector], dim: int) -> Vector:
    return reduce(add, vs, (0,) * dim)
