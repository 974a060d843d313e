"""Weyl groups of classical type as explicit slot permutations.

An element is a tuple ``perm`` with ``perm[i-1]`` the image of slot i
(one-line notation, 1-indexed). The slots and their weights are the root
system's (``RootSystem.slot_weights``, laid out in ``rootsys``): N = r+1
slots e_1, ..., e_N in type A_r, and outside type A the slots e_1, ...,
e_m, then 0 in type B, then -e_m, ..., -e_1, so that every group element
sigma satisfies sigma(i) + sigma(N+1-i) = N+1.

The slot order e_1 > ... > e_m > (0) > -e_m > ... > -e_1 refines
positivity: w sends the root weight(a) - weight(b), a < b, to a negative
root exactly when w(a) > w(b). Each group therefore reads lengths and
descents off the system's integer table of slot pairs, one per positive
root, the simple roots first; every other combinatorial method goes
through those two, and descent stripping tests only the letters it may
strip (left ones on the inverse). A simple reflection is its one or two
slot swaps (``RootSystem.simple_swaps``) and has no other form: every
product by one, in ``from_word``, the stripping kernels (``reduced_word``,
``min_in_double_coset``, ``longest_in``) and the enumerations, swaps slots
of a list in place, and ``simple_reflection`` builds a tuple only for a
caller that asks for one. Left descents are stripped on the inverse, which
is built once. Coset enumeration (``min_coset_reps``) climbs W^I a length
at a time by the same swaps, keeping an ascent u s_j exactly when
Deodhar's test passes: u sends alpha_j to no simple root of I, read off
u's values on alpha_j's slot pair.
The action on coordinate vectors (``act``) is a signed permutation of
coordinates; it serves Fraction weights and integer roots alike and keeps
the entry type.

``weyl_group`` hands out one shared group per root system, and so per type
and rank. ``reduced_word`` per element and ``min_coset_reps`` per parabolic
type are served by module-level ``lru_cache`` functions keyed by the group,
which hashes on its system, so every group of the same system shares their
entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, List, NamedTuple, Sequence, Tuple, TypeVar

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


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a, start=1):
        out[x - 1] = i
    return tuple(out)


class WeylGroup:
    """Weyl group of a classical root system, acting by slot permutations.
    Groups compare and hash by their system."""

    def __init__(self, system: RootSystem) -> None:
        self.system = system

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylGroup):
            return NotImplemented
        return self.system is other.system

    def __hash__(self) -> int:
        return hash(self.system)

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def slots(self) -> int:
        return len(self.system.slot_weights)

    def identity(self) -> Perm:
        return identity_perm(self.slots)

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
        N + 1 - w(i) with its sign flipped. Each image picks its coordinates
        by index and then negates the flipped ones."""
        dim, n = self.system.ambient_dim, self.slots
        sources = [0] * dim
        flipped = []
        for i, k in enumerate(w[:dim]):
            if k <= dim:
                sources[k - 1] = i
            else:
                sources[n - k] = i
                flipped.append(n - k)
        images = []
        for v in vectors:
            image = list(map(v.__getitem__, sources))
            for k in flipped:
                image[k] = -image[k]
            images.append(tuple(image))
        return tuple(images)

    # -- generators and words ---------------------------------------------

    def simple_reflection(self, i: int) -> Perm:
        """s_i: the identity with the slots of ``simple_swaps[i-1]`` swapped."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        u = list(range(1, self.slots + 1))
        for x, y in self.system.simple_swaps[i - 1]:
            u[x], u[y] = u[y], u[x]
        return tuple(u)

    def from_word(self, word: Sequence[int]) -> Perm:
        """The product of the word's simple reflections, left to right: each
        letter swaps its slots of the product so far, in place. The first
        letter outside 1..rank raises."""
        swaps = self.system.simple_swaps
        u = list(range(1, self.slots + 1))
        for i in self._letter_indices(word):
            for x, y in swaps[i]:
                u[x], u[y] = u[y], u[x]
        return tuple(u)

    def length(self, w: Perm) -> int:
        """Number of positive roots w sends negative."""
        return sum(1 for a, b in self.system.root_pairs if w[a] > w[b])

    def _letter_indices(self, letters: Iterable[int]) -> List[int]:
        """Zero-based indices of the letters; the first one outside 1..rank
        raises."""
        indices = [i - 1 for i in letters]
        for k in indices:
            if not 0 <= k < self.rank:
                raise ValueError(f"simple reflection index {k + 1} out of range")
        return indices

    def _check_element(self, w: Perm) -> None:
        """Raise unless w is an element: a permutation of the slots, outside
        type A a signed one, and in type D one with an even number of sign
        changes."""
        t, m, n = self.system.cartan_type, self.rank, self.slots
        ok = sorted(w) == list(range(1, n + 1)) and (
            t == "A" or tuple(w[::-1]) == tuple(map((n + 1).__sub__, w))
        )
        if ok and t == "D":
            ok = sum(map(m.__lt__, w[:m])) % 2 == 0
        if not ok:
            raise ValueError(f"{w} is not an element of W({t}{m})")

    def reduced_word(self, w: Perm) -> Tuple[int, ...]:
        """Reduced word by stripping the smallest left descent; w not in W raises."""
        return _reduced_word(self, w)

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
        """Longest element of the parabolic subgroup generated by I: from the
        identity, multiply on the right by the first ascent in I, in place,
        until every letter of I is a descent."""
        letters = self._letter_indices(I)
        pairs, swaps = self.system.root_pairs, self.system.simple_swaps
        u = list(range(1, self.slots + 1))
        while True:
            for i in letters:
                a, b = pairs[i]
                if u[a] < u[b]:
                    for x, y in swaps[i]:
                        u[x], u[y] = u[y], u[x]
                    break
            else:
                return tuple(u)

    def group_order(self) -> int:
        t, m = self.system.cartan_type, self.system.rank
        if t == "A":
            return factorial(m + 1)
        if t in ("B", "C"):
            return 2**m * factorial(m)
        return 2 ** (m - 1) * factorial(m)

    # -- coset combinatorics ----------------------------------------------

    def min_coset_reps(self, I: Sequence[int]) -> Tuple[Perm, ...]:
        """All minimal-length representatives of W_I \\ W, sorted by length
        and then by reduced word; a letter outside 1..rank raises."""
        self._letter_indices(I)
        return _min_coset_reps(self, tuple(sorted(set(I))))

    def min_in_double_coset(self, w: Perm, I: Sequence[int], J: Sequence[int]) -> Perm:
        """Minimum of W_I * w * W_J by descent stripping: left descents in I
        first, on the inverse (s w has inverse w^-1 s), then right descents
        in J on the element, both in place on a list.

        An element with no left descent in I and no right descent in J is the
        unique minimal-length element of its double coset, so the greedy loop
        cannot stall on a non-minimal element. Once no left descent in I is
        left, stripping a right descent brings none back (the minimal
        representatives of W_I \\ W are closed under dropping a right
        descent), so the two phases need not alternate. A w that is not an
        element raises.
        """
        left, right = self._letter_indices(I), self._letter_indices(J)
        self._check_element(w)
        inv = list(inverse(w))
        self._strip(inv, left)
        u = list(inverse(inv))
        self._strip(u, right)
        return tuple(u)

    def _strip(self, u: List[int], letters: List[int]) -> None:
        """Multiply u on the right, in place, by the first of the (zero-based)
        letters that is a right descent, until none of them is."""
        pairs, swaps = self.system.root_pairs, self.system.simple_swaps
        while True:
            for i in letters:
                a, b = pairs[i]
                if u[a] > u[b]:
                    for x, y in swaps[i]:
                        u[x], u[y] = u[y], u[x]
                    break
            else:
                return

    # -- enumeration (guarded, small ranks only) --------------------------

    def elements(self, cap: int = ENUMERATION_CAP) -> Tuple[Perm, ...]:
        """Every element, by breadth-first search from the identity over
        right multiplication by the simple reflections, as slot swaps; a
        group of more than cap elements raises before any is built."""
        if self.group_order() > cap:
            raise ValueError(
                f"refusing to enumerate {self.group_order()} elements (cap {cap})"
            )
        swaps = self.system.simple_swaps
        seen = {self.identity()}
        frontier = list(seen)
        while frontier:
            nxt: List[Perm] = []
            for u in frontier:
                for swap in swaps:
                    step = list(u)
                    for x, y in swap:
                        step[x], step[y] = step[y], step[x]
                    v = tuple(step)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return tuple(seen)


@lru_cache(maxsize=4096)
def _reduced_word(group: WeylGroup, w: Perm) -> Tuple[int, ...]:
    """Strips the smallest left descent on the inverse, kept as a list: s_i w
    has inverse w^-1 s_i, which swaps slots of the list in place. A w that is
    not an element raises before any stripping. Stripping s_i can change
    only the letters whose simple root's slot pair meets a slot it swaps,
    and those below i are at most two below it (two in type D, one
    otherwise); every letter below i was an ascent, so the next scan starts
    two letters below i."""
    group._check_element(w)
    inv = list(inverse(w))
    pairs, swaps, rank = group.system.root_pairs, group.system.simple_swaps, group.rank
    word: List[int] = []
    start = 0
    while True:
        for i in range(start, rank):
            a, b = pairs[i]
            if inv[a] > inv[b]:
                break
        else:
            return tuple(word)
        word.append(i + 1)
        for x, y in swaps[i]:
            inv[x], inv[y] = inv[y], inv[x]
        start = max(0, i - 2)


@lru_cache(maxsize=64)
def _min_coset_reps(group: WeylGroup, I: Tuple[int, ...]) -> Tuple[Perm, ...]:
    """Minimal coset representatives W^I, level by level in length, over the
    sorted letter set I.

    Every element of W^I of length k + 1 is u s_j for some u in W^I of
    length k and an ascent s_j of u (W^I is closed under dropping a right
    descent). By Deodhar's lemma, u s_j is in W^I unless u(alpha_j) is a
    simple root alpha_i with i in I. In slot terms u(alpha_j) is the root of
    the slot pair (u[a], u[b]) for alpha_j's pair (a, b), so the test is
    that this pair is not one of I's simple pairs; outside type A a root has
    a second, mirrored pair (N + 1 - y, N + 1 - x) for (x, y), which is
    blocked too. Each level is built by slot swaps on a list, freed of
    duplicates and sorted by reduced word.
    """
    pairs, swaps = group.system.root_pairs, group.system.simple_swaps
    n = group.slots
    blocked = {(a + 1, b + 1) for a, b in (pairs[i - 1] for i in I)}
    if group.system.cartan_type != "A":
        blocked |= {(n + 1 - y, n + 1 - x) for x, y in blocked}
    steps = list(zip(pairs, swaps))
    level = [group.identity()]
    reps = list(level)
    while level:
        found = set()
        for u in level:
            for (a, b), swap in steps:
                x, y = u[a], u[b]
                if x < y and (x, y) not in blocked:
                    v = list(u)
                    for p, q in swap:
                        v[p], v[q] = v[q], v[p]
                    found.add(tuple(v))
        level = sorted(found, key=group.reduced_word)
        reps += level
    return tuple(reps)


def weyl_group(cartan_type: str, rank: int) -> WeylGroup:
    """The Weyl group of ``root_system(cartan_type, rank)``, shared per
    system: its ``system`` is always the one ``root_system`` hands out."""
    return _group_of(root_system(cartan_type, rank))


@lru_cache(maxsize=64)
def _group_of(system: RootSystem) -> WeylGroup:
    return WeylGroup(system)


class CocharacterDatum(NamedTuple):
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
