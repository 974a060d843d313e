"""Weyl groups of classical type as explicit slot permutations.

An element is a tuple ``perm`` with ``perm[i-1]`` the image of slot i
(one-line notation, 1-indexed). The slots and their weights are the root
system's (``RootSystem.slot_weights``, laid out in ``rootsys``), as is
the mirror table (the slot of each slot's negated weight, none in type A).
An element is a permutation of the slots that commutes with the mirror and
that descent stripping takes to the identity (in type D an odd number of
sign changes strips down to one, which has no descent). |W_I|, and so |W|,
is read off the Dynkin components of I in the Cartan matrix.

The slot order e_1 > ... > e_m > (0) > -e_m > ... > -e_1 refines
positivity: w sends the root weight(a) - weight(b), a < b, to a negative
root exactly when w(a) > w(b). Each group therefore reads lengths and
descents off the system's integer table of slot pairs, one per positive
root, the simple roots first; every other combinatorial method goes
through those two, and descent stripping tests only the letters it may
strip (left ones on the inverse). A simple reflection is its one or two
slot swaps (``RootSystem.simple_swaps``) and has no other form: every
product by one, in ``from_word``, the one stripping kernel (``_strip``,
called only by ``reduced_word``, ``min_in_double_coset`` and ``longest_in``)
and the coset enumeration, swaps slots of a list in place, and
``simple_reflection`` builds a tuple only for a caller that asks for one.
The kernel takes the least letter it may strip, restarting its scan of the
sorted distinct letters two positions back after each; left descents are
stripped on the inverse, which is built once. ``longest_element`` strips
nothing: w0 is the slot reversal. Coset enumeration (``min_coset_reps``)
climbs W^I a length at a time by the same swaps, keeping an ascent u s_j
exactly when Deodhar's test passes: u sends alpha_j to no simple root of
I, read off u's values on alpha_j's slot pair. It hands out each element's
least word, the one ``reduced_word`` strips: every v s_j with s_j a right
descent of v in W^I is in W^I and reaches v by Deodhar's step. For w in
W^I, the cell w_{0,I} w w_0 = w_0 w_{0,J} (w_0 w w_0) is the minimum of a
coset W_I x, and a Bruhat class of a double coset, so both are in W^I.
The action on coordinate vectors (``act``) is a signed permutation of
coordinates, the sign flipped where a coordinate lands on a mirror slot; it
serves weights and integer roots alike and keeps each entry's type.
Both slot kernels, the action and ``compose``, pick their entries with one
``operator.itemgetter`` call per image, so the per-entry work runs in C;
only the flipped coordinates are touched again in Python.

``weyl_group`` builds the group of the shared ``root_system``; groups hold
no state but their system. ``min_coset_reps`` (with the words) per
parabolic type is served by a module-level ``lru_cache`` function keyed by
the group, which hashes on its system, so every group of the same system
shares its entries. It is the one enumeration of W and the one store of
words: ``elements`` reads ``min_coset_reps(())``, and ``reduced_word``
strips afresh on every call. A table of more than ``CACHED_REPS_CAP``
representatives is enumerated on every call and never kept, so the cache
is bounded in size as well as in entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, List, Mapping, NamedTuple, Sequence, Tuple, TypeVar

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

# min_coset_reps((1,)) of A8, 181440 representatives with their words, takes
# 1.0 s and 81 MB peak RSS fresh on a 2-vCPU Xeon (5.2 s, 42 MB without words).
ENUMERATION_CAP = 200_000

# Largest coset table ``min_coset_reps`` keeps in its cache. A case table has
# at most 64 representatives and W(A6) has 5040, so both stay cached; the
# 181440 of A8 above are enumerated afresh on every call instead of holding
# 81 MB in the cache.
CACHED_REPS_CAP = 10_000


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(i) = a(b(i)), one ``itemgetter`` over b's values
    picking from a shifted to 1-indexed slots (entry by entry below two
    slots, where ``itemgetter`` would not return a tuple)."""
    if len(b) < 2:
        return tuple([a[x - 1] for x in b])
    return itemgetter(*b)((0,) + a)


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
        keeps each entry's type: an int stays int and a Fraction stays
        Fraction. It is ``_act_all`` on the one vector.
        """
        return self._act_all(w, (v,))[0]

    def _act_all(
        self, w: Perm, vectors: Iterable[Sequence[T]]
    ) -> Tuple[Tuple[T, ...], ...]:
        """``act`` of one element on many vectors, which share the table of
        where each coordinate lands. Coordinate i goes to coordinate w(i),
        or, when w(i) lies past the coordinate slots, to the coordinate of
        its mirror slot with its sign flipped. Each image is one
        ``itemgetter`` call over the sources (on one coordinate, where
        ``itemgetter`` returns the entry itself, a one-entry tuple); only
        when some coordinate lands on a mirror slot is it copied to a list
        to negate the flipped ones."""
        dim, mirror = self.system.ambient_dim, self.system.mirror
        sources = [0] * dim
        flipped = []
        for i, k in enumerate(w[:dim]):
            if k <= dim:
                sources[k - 1] = i
            else:
                j = mirror[k - 1]
                sources[j] = i
                flipped.append(j)
        if dim == 1:
            (source,) = sources
            images = [(v[source],) for v in vectors]
        else:
            images = list(map(itemgetter(*sources), vectors))
        if flipped:
            for n, image in enumerate(images):
                image = list(image)
                for k in flipped:
                    image[k] = -image[k]
                images[n] = tuple(image)
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

    def reduced_word(self, w: Perm) -> Tuple[int, ...]:
        """Reduced word by stripping the smallest left descent, on the
        inverse (s_i w has inverse w^-1 s_i), through ``_strip``. A w that
        is not an element raises: before any stripping unless it is a slot
        permutation commuting with the mirror (stripping one that is not
        may never end), and otherwise once stripping runs out of descents
        away from the identity, as a lone sign change of D does. Nothing is
        cached: the tables read their words from ``min_coset_reps``, which
        hands out the same words."""
        system = self.system
        ident, mirror = list(range(1, self.slots + 1)), system.mirror
        if sorted(w) == ident and all(
            w[j] - 1 == mirror[w[k] - 1] for k, j in mirror.items()
        ):
            inv = list(inverse(w))
            word = self._strip(inv, range(self.rank))
            if inv == ident:
                return word
        raise ValueError(f"{w} is not an element of W({system.cartan_type}{self.rank})")

    # -- distinguished elements -------------------------------------------

    def longest_element(self) -> Perm:
        """w0 of a simple group: the slot reversal k -> n + 1 - k, except in
        type D at odd rank, where -1 is not in W and slots e_m and -e_m stay
        fixed."""
        w0, m = list(range(self.slots, 0, -1)), self.rank
        if self.system.cartan_type == "D" and m % 2:
            w0[m - 1], w0[m] = m, m + 1
        return tuple(w0)

    def longest_in(self, I: Sequence[int]) -> Perm:
        """Longest element of the parabolic subgroup generated by I: the
        identity, with ascents in I stripped until every letter of I is a
        descent."""
        u = list(range(1, self.slots + 1))
        self._strip(u, self._letter_indices(I), descent=False)
        return tuple(u)

    def group_order(self) -> int:
        """|W|, the order of the parabolic subgroup of every letter."""
        return self.parabolic_order(range(1, self.rank + 1))

    def parabolic_order(self, I: Iterable[int]) -> int:
        """|W_I|: the product over the Dynkin components of I, read off the
        Cartan matrix, of 2^(k-1) k! for a component with a node of degree
        three (D_k), 2^k k! for one with a double bond (B_k or C_k), and
        (k+1)! for any other (A_k); a letter outside 1..rank raises."""
        cartan = self.system.cartan
        left, order = set(self._letter_indices(I)), 1
        while left:
            component = [left.pop()]
            for i in component:  # grows to the component of its first letter
                near = {j for j in left if cartan[i][j]}
                left -= near
                component += near
            k = len(component)
            # A node of degree three has four nonzero entries in its row.
            if any(sum(1 for j in component if cartan[i][j]) == 4 for i in component):
                order *= 2 ** (k - 1) * factorial(k)
            elif any(cartan[i][j] == -2 for i in component for j in component):
                order *= 2**k * factorial(k)
            else:
                order *= factorial(k + 1)
        return order

    # -- coset combinatorics ----------------------------------------------

    def min_coset_reps(self, I: Sequence[int]) -> Mapping[Perm, Tuple[int, ...]]:
        """Each minimal-length representative of W_I \\ W mapped to its
        ``reduced_word``, read-only, by length and then word; a letter
        outside 1..rank raises, and so do over ``ENUMERATION_CAP`` of them.
        A table above ``CACHED_REPS_CAP`` comes back uncached (see
        ``_min_coset_reps``)."""
        self._letter_indices(I)
        try:
            return _min_coset_reps(self, tuple(sorted(set(I))))
        except _Uncached as large:
            return large.args[0]

    def elements(self) -> Tuple[Perm, ...]:
        """Every element: W is the cosets of no letter, so this is
        ``min_coset_reps(())``, which refuses a group above
        ``ENUMERATION_CAP``."""
        return tuple(self.min_coset_reps(()))

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
        element raises, through ``reduced_word``.
        """
        left, right = self._letter_indices(I), self._letter_indices(J)
        self.reduced_word(w)
        inv = list(inverse(w))
        self._strip(inv, left)
        u = list(inverse(inv))
        self._strip(u, right)
        return tuple(u)

    def _strip(self, u: List[int], letters: Iterable[int], descent: bool = True) -> Tuple[int, ...]:
        """Multiply u on the right, in place, by the least of the (zero-based)
        letters that is a right descent (an ascent if ``descent`` is false),
        until none of them is, and return the word of the letters taken.
        Taking s_i can change only the letters whose slot pair meets a slot
        it swaps, and those below i are at most two below it (two in type
        D, one otherwise). Every letter below i was passed over, so after
        each one the scan of the sorted distinct letters restarts two
        positions back, which holds every letter at most two below i."""
        pairs, swaps = self.system.root_pairs, self.system.simple_swaps
        letters = sorted(set(letters))
        taken: List[int] = []
        start = 0
        while True:
            for k in range(start, len(letters)):
                i = letters[k]
                a, b = pairs[i]
                if (u[a] > u[b]) == descent:
                    for x, y in swaps[i]:
                        u[x], u[y] = u[y], u[x]
                    taken.append(i + 1)
                    start = k - 2 if k > 2 else 0
                    break
            else:
                return tuple(taken)


class _Uncached(Exception):
    """Carries a coset table, its one argument, out of ``_min_coset_reps``
    past its cache."""


@lru_cache(maxsize=64)
def _min_coset_reps(group: WeylGroup, I: Tuple[int, ...]) -> Mapping[Perm, Tuple[int, ...]]:
    """Minimal coset representatives W^I with their reduced words, level by
    level in length, over the sorted letter set I.

    Every element of W^I of length k + 1 is u s_j for some u in W^I of
    length k and an ascent s_j of u (W^I is closed under dropping a right
    descent). By Deodhar's lemma, u s_j is in W^I unless u(alpha_j) is a
    simple root alpha_i with i in I. In slot terms u(alpha_j) is the root of
    the slot pair (u[a], u[b]) for alpha_j's pair (a, b), so the test is
    that this pair is not one of I's simple pairs; a root on mirrored slots
    has a second pair, the mirrors of (b, a) for (a, b), which is blocked
    too. Each level is built by slot swaps on a list, its elements in order
    of word trying their letters j in order, so a new element's first word
    word(u) + (j,) is its least, and the level comes out sorted. First
    |W^I| = |W| / |W_I| is checked against ``ENUMERATION_CAP``. A table of
    more than ``CACHED_REPS_CAP`` is raised in an ``_Uncached``, which
    ``lru_cache`` does not store (the call still counts as a miss), so the
    size is decided once per miss and a hit pays nothing for it.
    """
    count = group.group_order() // group.parabolic_order(I)
    if count > ENUMERATION_CAP:
        raise ValueError(f"refusing to enumerate {count} cosets (cap {ENUMERATION_CAP})")
    system = group.system
    pairs, swaps, mirror = system.root_pairs, system.simple_swaps, system.mirror
    simple = [pairs[i - 1] for i in I]
    blocked = {(a + 1, b + 1) for a, b in simple}
    blocked |= {(mirror[b] + 1, mirror[a] + 1) for a, b in simple if a in mirror}
    steps = list(enumerate(zip(pairs, swaps), start=1))
    words = {group.identity(): ()}
    level = list(words.items())
    while level:
        found = {}
        for u, word in level:
            for j, ((a, b), swap) in steps:
                x, y = u[a], u[b]
                if x < y and (x, y) not in blocked:
                    v = list(u)
                    for p, q in swap:
                        v[p], v[q] = v[q], v[p]
                    found.setdefault(tuple(v), word + (j,))
        words.update(found)
        level = list(found.items())
    if count > CACHED_REPS_CAP:
        raise _Uncached(MappingProxyType(words))
    return MappingProxyType(words)


def weyl_group(cartan_type: str, rank: int) -> WeylGroup:
    """The Weyl group of ``root_system(cartan_type, rank)``."""
    return WeylGroup(root_system(cartan_type, rank))


class CocharacterDatum(NamedTuple):
    """A group with cocharacter: parabolic types I, J and the twist z.

    I is the set of simple indices orthogonal to mu, J its image under the
    -w0 diagram involution, and z = w0 * w_{0,J}, the longest element of the
    minimal coset representatives W^J. ``w0`` is the longest element of
    W, the slot reversal of ``longest_element``, and ``w0_I`` the
    longest element of W_I, which twists stratum labels into cells. As
    w0 s_i w0 = s_j for j = -w0(i), z = w_{0,I} * w0, built from those two.
    """

    group: WeylGroup
    mu: Vector
    I: Tuple[int, ...]
    J: Tuple[int, ...]
    w0: Perm
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
    w0_I = group.longest_in(I)
    return CocharacterDatum(group, mu_v, I, tuple(sorted(J)), w0, compose(w0_I, w0), w0_I)
