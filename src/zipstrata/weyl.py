"""Weyl groups of classical type as explicit slot permutations.

An element is a tuple ``perm`` with ``perm[i-1]`` the image of slot i
(one-line notation, 1-indexed). The slot count N and the slot/weight
dictionary depend on the type:

  A_{r}   N = r+1      slot i <-> e_i
  B_m     N = 2m+1     slot i <-> e_i (i <= m), slot m+1 <-> 0,
                       slot N+1-i <-> -e_i
  C_n     N = 2n       slot i <-> e_i (i <= n), slot N+1-i <-> -e_i
  D_m     N = 2m       as for C

Outside type A every group element sigma satisfies
sigma(i) + sigma(N+1-i) = N+1.

The slot order e_1 > ... > e_m > (0) > -e_m > ... > -e_1 refines
positivity: w sends the root weight(a) - weight(b), a < b, to a negative
root exactly when w(a) > w(b). Each group therefore keeps one integer table
with a slot pair per positive root, the simple roots first, and reads
lengths and descents off it; every other combinatorial method goes through
those two, and descent stripping tests only the letters it may strip (left
ones on the inverse). The action on coordinate vectors (``act``) is a signed
permutation of coordinates; it serves Fraction weights and integer roots
alike and keeps the entry type.

``weyl_group`` hands out one shared group per type and rank. A group builds
its simple reflections on first use. ``reduced_word`` per element and
``min_coset_reps`` per parabolic type are served by module-level
``lru_cache`` functions keyed by the group, which hashes on its type and
rank, so every group of the same type and rank shares their entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import factorial
from typing import Iterable, List, Optional, Sequence, Tuple, TypeVar

from .rootsys import (
    RootSystem,
    Vector,
    neg,
    parse_weight,
    root_system,
    simple_pairings,
)

Perm = Tuple[int, ...]
T = TypeVar("T")

ENUMERATION_CAP = 200_000


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(i) = a(b(i))."""
    return tuple([a[x - 1] for x in b])


def compose_all(perms: Sequence[Perm], n: int) -> Perm:
    return reduce(compose, perms, identity_perm(n))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a, start=1):
        out[x - 1] = i
    return tuple(out)


def transpositions(n: int, *pairs: Tuple[int, int]) -> Perm:
    out = list(range(1, n + 1))
    for i, j in pairs:
        out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


@dataclass(frozen=True)
class WeylGroup:
    """Weyl group of a classical root system, acting by slot permutations."""

    system: RootSystem

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def slots(self) -> int:
        t, m = self.system.cartan_type, self.system.rank
        if t == "A":
            return m + 1
        if t == "B":
            return 2 * m + 1
        return 2 * m

    def identity(self) -> Perm:
        return identity_perm(self.slots)

    @cached_property
    def _root_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Zero-based slot pairs (a, b), one per positive root
        weight(a) - weight(b), the simple roots first in index order."""
        t, m, n = self.system.cartan_type, self.rank, self.slots
        simple = [(i, i + 1) for i in range(1, m + 1)]
        if t == "D":
            simple[-1] = (m - 1, m + 1)
        if t == "A":
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        else:
            pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, n + 1 - a)]
            if t == "C":
                pairs += [(a, n + 1 - a) for a in range(1, m + 1)]
        rest = [pair for pair in pairs if pair not in simple]
        return tuple((a - 1, b - 1) for a, b in simple + rest)

    @cached_property
    def _simple_reflections(self) -> Tuple[Perm, ...]:
        t, m, n = self.system.cartan_type, self.rank, self.slots
        if t == "A":
            return tuple(transpositions(n, (i, i + 1)) for i in range(1, m + 1))
        out = [transpositions(n, (i, i + 1), (n + 1 - i, n - i)) for i in range(1, m)]
        if t == "B":
            out.append(transpositions(n, (m, m + 2)))
        elif t == "C":
            out.append(transpositions(n, (m, m + 1)))
        else:
            out.append(transpositions(n, (m - 1, m + 1), (m, m + 2)))
        return tuple(out)

    # -- the action on coordinate vectors ---------------------------------

    def act(self, w: Perm, v: Sequence[T]) -> Tuple[T, ...]:
        """Image of a coordinate vector under the reflection action.

        The action is a signed permutation of the coordinates, so the image
        keeps the entry type: Fraction weights stay Fraction and integer
        roots stay integer.
        """
        return self._act_all(w, (v,))[0]

    def _act_all(
        self, w: Perm, vectors: Iterable[Sequence[T]]
    ) -> Tuple[Tuple[T, ...], ...]:
        """``act`` of one element on many vectors, which share the table of
        where each coordinate lands. Coordinate i goes to coordinate w(i),
        or, when w(i) lies past the coordinate slots, to coordinate
        N + 1 - w(i) with its sign flipped."""
        dim, n = self.system.ambient_dim, self.slots
        sources = [(0, False)] * dim
        for i, k in enumerate(w[:dim]):
            if k <= dim:
                sources[k - 1] = (i, False)
            else:
                sources[n - k] = (i, True)
        return tuple(
            tuple(-v[i] if flip else v[i] for i, flip in sources) for v in vectors
        )

    # -- generators and words ---------------------------------------------

    def simple_reflection(self, i: int) -> Perm:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        return self._simple_reflections[i - 1]

    def from_word(self, word: Sequence[int]) -> Perm:
        return compose_all([self.simple_reflection(i) for i in word], self.slots)

    def length(self, w: Perm) -> int:
        """Number of positive roots w sends negative."""
        return sum(1 for a, b in self._root_pairs if w[a] > w[b])

    def right_descents(self, w: Perm) -> Tuple[int, ...]:
        """Indices i with w(alpha_i) negative."""
        return tuple(
            i
            for i, (a, b) in zip(range(1, self.rank + 1), self._root_pairs)
            if w[a] > w[b]
        )

    def left_descents(self, w: Perm) -> Tuple[int, ...]:
        return self.right_descents(inverse(w))

    def _first_descent(self, w: Perm, letters: Iterable[int]) -> Optional[int]:
        """The first of the letters that is a right descent of w, or None."""
        pairs, rank = self._root_pairs, self.rank
        for i in letters:
            if not 1 <= i <= rank:
                raise ValueError(f"simple reflection index {i} out of range")
            a, b = pairs[i - 1]
            if w[a] > w[b]:
                return i
        return None

    def reduced_word(self, w: Perm) -> Tuple[int, ...]:
        """Reduced word by stripping the smallest left descent; w not in W raises."""
        return _reduced_word(self, w)

    def is_reduced(self, word: Sequence[int]) -> bool:
        return self.length(self.from_word(word)) == len(word)

    # -- distinguished elements -------------------------------------------

    def longest_element(self) -> Perm:
        t, m, n = self.system.cartan_type, self.system.rank, self.slots
        rev = tuple(range(n, 0, -1))
        if t == "D" and m % 2 == 1:
            out = list(rev)
            out[m - 1], out[m] = m, m + 1
            return tuple(out)
        return rev

    def longest_in(self, I: Sequence[int]) -> Perm:
        """Longest element of the parabolic subgroup generated by I."""
        u = self.identity()
        while True:
            descents = self.right_descents(u)
            ascent = next((i for i in I if i not in descents), None)
            if ascent is None:
                return u
            u = compose(u, self.simple_reflection(ascent))

    def group_order(self) -> int:
        t, m = self.system.cartan_type, self.system.rank
        if t == "A":
            return factorial(m + 1)
        if t in ("B", "C"):
            return 2**m * factorial(m)
        return 2 ** (m - 1) * factorial(m)

    # -- coset combinatorics ----------------------------------------------

    def in_min_coset_reps(self, w: Perm, I: Sequence[int]) -> bool:
        """True when w is the minimal-length element of W_I * w."""
        return self._first_descent(inverse(w), I) is None

    def min_coset_reps(self, I: Sequence[int]) -> Tuple[Perm, ...]:
        """All minimal-length representatives of W_I \\ W, sorted by length
        and then by reduced word."""
        return _min_coset_reps(self, tuple(sorted(set(I))))

    def min_in_double_coset(self, w: Perm, I: Sequence[int], J: Sequence[int]) -> Perm:
        """Minimum of W_I * w * W_J by alternating descent stripping.

        An element with no left descent in I and no right descent in J is the
        unique minimal-length element of its double coset, so the greedy loop
        cannot stall on a non-minimal element.
        """
        while True:
            if (i := self._first_descent(inverse(w), I)) is not None:
                w = compose(self._simple_reflections[i - 1], w)
            elif (j := self._first_descent(w, J)) is not None:
                w = compose(w, self._simple_reflections[j - 1])
            else:
                return w

    # -- enumeration (guarded, small ranks only) --------------------------

    def elements(self, cap: int = ENUMERATION_CAP) -> Tuple[Perm, ...]:
        if self.group_order() > cap:
            raise ValueError(
                f"refusing to enumerate {self.group_order()} elements (cap {cap})"
            )
        return self._closure(range(1, self.rank + 1))

    def subgroup_elements(
        self, I: Sequence[int], cap: int = ENUMERATION_CAP
    ) -> Tuple[Perm, ...]:
        """All elements of the parabolic subgroup W_I."""
        return self._closure(I, cap=cap)

    def _closure(self, gens: Iterable[int], cap: int = ENUMERATION_CAP) -> Tuple[Perm, ...]:
        gen_perms = [self.simple_reflection(i) for i in gens]
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            nxt: List[Perm] = []
            for u in frontier:
                for s in gen_perms:
                    v = compose(u, s)
                    if v not in seen:
                        if len(seen) >= cap:
                            raise ValueError(f"subgroup enumeration exceeded cap {cap}")
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return tuple(seen)


@lru_cache(maxsize=4096)
def _reduced_word(group: WeylGroup, w: Perm) -> Tuple[int, ...]:
    """Strips the smallest left descent on the inverse: s_i w has inverse
    w^-1 s_i. Only signed slot permutations are stripped (on others it can
    cycle), and one that runs out of descents away from the identity, as in
    type D with an odd number of sign changes, is not in W either."""
    n, ident, t = group.slots, group.identity(), group.system.cartan_type
    signed = t == "A" or all(x + y == n + 1 for x, y in zip(w, w[::-1]))
    inv = inverse(w) if signed and sorted(w) == list(ident) else None
    word: List[int] = []
    while inv != ident:
        i = None if inv is None else group._first_descent(inv, range(1, group.rank + 1))
        if i is None:
            raise ValueError(f"{w} is not an element of W({t}{group.rank})")
        word.append(i)
        inv = compose(inv, group._simple_reflections[i - 1])
    return tuple(word)


@lru_cache(maxsize=64)
def _min_coset_reps(group: WeylGroup, I: Tuple[int, ...]) -> Tuple[Perm, ...]:
    """Minimal coset representatives by BFS over the sorted letter set I.

    Every right descent step out of a minimal representative lands on a
    minimal representative, so the upward search from the identity is
    complete and never leaves the set.
    """
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt: List[Perm] = []
        for u in frontier:
            descents = group.right_descents(u)
            for j in range(1, group.rank + 1):
                if j not in descents:
                    v = compose(u, group.simple_reflection(j))
                    if v not in seen and group.in_min_coset_reps(v, I):
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return tuple(sorted(seen, key=lambda u: (group.length(u), group.reduced_word(u))))


@lru_cache(maxsize=64)
def weyl_group(cartan_type: str, rank: int) -> WeylGroup:
    """The Weyl group of ``root_system(cartan_type, rank)``, shared like the
    root system: every call with the same positional arguments returns the
    same instance."""
    return WeylGroup(root_system(cartan_type, rank))


@dataclass(frozen=True)
class CocharacterDatum:
    """A group with cocharacter: parabolic types I, J and the twist z.

    I is the set of simple indices orthogonal to mu, J its image under the
    -w0 diagram involution, and z = w0 * w_{0,J}, the longest element of the
    minimal coset representatives W^J. ``w0_I`` is the longest element of
    W_I, which twists stratum labels into cells.
    """

    group: WeylGroup
    mu: Vector
    I: Tuple[int, ...]
    J: Tuple[int, ...]
    z: Perm
    w0_I: Perm


def cocharacter_datum(group: WeylGroup, mu: Sequence[int | Fraction]) -> CocharacterDatum:
    system = group.system
    mu_v = parse_weight(system, mu)
    pairings = simple_pairings(system, mu_v)
    I = tuple(i for i, value in enumerate(pairings, start=1) if value == 0)
    w0 = group.longest_element()
    negated_simple = {neg(alpha): j for j, alpha in enumerate(system.simple_roots, start=1)}
    images = group._act_all(w0, [system.simple(i) for i in I])
    J: List[int] = []
    for i, image in zip(I, images):
        j = negated_simple.get(image)
        if j is None:
            raise ValueError(f"-w0(alpha_{i}) is not a simple root")
        J.append(j)
    z = compose(w0, group.longest_in(J))
    return CocharacterDatum(group, mu_v, I, tuple(sorted(J)), z, group.longest_in(I))


def eo_same_stratum(
    w: Perm,
    w_prime: Perm,
    datum: CocharacterDatum,
    cap: int = ENUMERATION_CAP,
) -> bool:
    """Whether w and w_prime are related by y . w' . z . y^-1 . z over y in W_I.

    This is the zip-stack equivalence in a frame where z is an involution
    (all the orthogonal, symplectic and spin data here). The Frobenius twist
    on the Weyl group is trivial for these split groups.
    """
    g = datum.group
    z = datum.z
    for y in g.subgroup_elements(datum.I, cap=cap):
        candidate = compose_all([y, w_prime, z, inverse(y), z], g.slots)
        if candidate == w:
            return True
    return False
