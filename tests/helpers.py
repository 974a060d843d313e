"""Helpers shared by several test modules."""

import importlib
import itertools
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from zipstrata import cache_stats
from zipstrata.cases import PRESETS, StratumReport
from zipstrata.fzip import StandardZip, clp
from zipstrata.oracle import Matrix, SparsePoly, _bottom_minor, gl_cell_point, order_at_zero
from zipstrata.reps import WeightMultiset, _slot_table
from zipstrata.rootsys import RootSystem, Vector, weight_str
from zipstrata.vanishing import condition_closed, ord_for_word
from zipstrata.weyl import (
    ENUMERATION_CAP,
    CocharacterDatum,
    Perm,
    WeylGroup,
    compose,
    identity_perm,
    inverse,
)


# Each preset's tables from its least rank to rank 7 (siegel to 6, gl-dualsum
# to 11, gl4-wedge2 only at 4), as (flag, rank): the strata-cold pool.
_TOP_TABLE_RANK = {"siegel": 6, "gl-dualsum": 11, "gl4-wedge2": 4}
TABLE_CASES = [
    (preset.flag, rank)
    for preset in PRESETS.values()
    for rank in range(preset.min_rank, _TOP_TABLE_RANK.get(preset.flag, 7) + 1)
]


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, as in a fresh interpreter."""
    for name in cache_stats():
        module, function = name.split(".")
        getattr(importlib.import_module(f"zipstrata.{module}"), function).cache_clear()


def compose_all(perms: Sequence[Perm], n: int) -> Perm:
    """The product of the permutations of n slots, left to right."""
    out = identity_perm(n)
    for perm in perms:
        out = compose(out, perm)
    return out


def subgroup_elements(
    group: WeylGroup, I: Sequence[int], cap: int = ENUMERATION_CAP
) -> Tuple[Perm, ...]:
    """All elements of the parabolic subgroup W_I, by breadth-first search
    over right multiplication by its simple reflections; more than cap
    elements raise."""
    gens = [group.simple_reflection(i) for i in I]
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt: List[Perm] = []
        for u in frontier:
            for s in gens:
                v = compose(u, s)
                if v not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"subgroup enumeration exceeded cap {cap}")
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return tuple(seen)


def is_reduced(group: WeylGroup, word: Sequence[int]) -> bool:
    """Whether the word is reduced: its product has as many inversions as
    the word has letters."""
    return group.length(group.from_word(word)) == len(word)


def int_reflect(v: Sequence[int], alpha: Sequence[int]) -> Tuple[int, ...]:
    """``reflect`` on integer vectors: v - <v, alpha^vee> alpha, with the
    pairing 2 (v, alpha) / (alpha, alpha) asserted to divide exactly."""
    twice = 2 * sum(a * b for a, b in zip(v, alpha, strict=True))
    norm = sum(a * a for a in alpha)
    assert twice % norm == 0, (v, alpha)
    c = twice // norm
    return tuple(a - c * b for a, b in zip(v, alpha))


# -- descent tests read off the system's slot pairs ------------------------------


def first_descent(group: WeylGroup, w: Perm, letters: Iterable[int]) -> Optional[int]:
    """The first of the letters that is a right descent of w, or None; a
    letter outside 1..rank raises."""
    pairs, rank = group.system.root_pairs, group.rank
    for i in letters:
        if not 1 <= i <= rank:
            raise ValueError(f"simple reflection index {i} out of range")
        a, b = pairs[i - 1]
        if w[a] > w[b]:
            return i
    return None


def right_descents(group: WeylGroup, w: Perm) -> Tuple[int, ...]:
    """Indices i with w(alpha_i) negative."""
    return tuple(
        i
        for i, (a, b) in zip(range(1, group.rank + 1), group.system.root_pairs)
        if w[a] > w[b]
    )


def left_descents(group: WeylGroup, w: Perm) -> Tuple[int, ...]:
    return right_descents(group, inverse(w))


def in_min_coset_reps(group: WeylGroup, w: Perm, I: Sequence[int]) -> bool:
    """True when w is the minimal-length element of W_I * w."""
    return first_descent(group, inverse(w), I) is None


def bruhat_leq(group: WeylGroup, u: Perm, w: Perm) -> bool:
    """Bruhat order by the left-descent recursion: strip the first left
    descent s of w, and of u too when it is one of u's."""
    if u == group.identity():
        return True
    if group.length(u) > group.length(w):
        return False
    i = left_descents(group, w)[0]
    sw = compose(group.simple_reflection(i), w)
    if i in left_descents(group, u):
        return bruhat_leq(group, compose(group.simple_reflection(i), u), sw)
    return bruhat_leq(group, u, sw)


# -- all-Fraction references for exact coordinates ------------------------------


def fractions_of(v: Iterable) -> Tuple[Fraction, ...]:
    """The coordinates of v, each as a Fraction."""
    return tuple(map(Fraction, v))


def is_exact(v: Iterable) -> bool:
    """Every coordinate is an int or a Fraction: no float and no bool."""
    return all(type(c) in (int, Fraction) for c in v)


def in_one_form(v: Iterable) -> bool:
    """Every coordinate is an int where integral and a Fraction where not."""
    return all(type(c) is (int if c.denominator == 1 else Fraction) for c in v)


def fraction_pairing(lam: Vector, alpha: Vector) -> Fraction:
    """2 (lam, alpha) / (alpha, alpha), on Fractions throughout."""
    lam, alpha = fractions_of(lam), fractions_of(alpha)
    return 2 * sum(map(mul, lam, alpha)) / sum(map(mul, alpha, alpha))


def fraction_act(group: WeylGroup, w: Perm, v: Vector) -> Tuple[Fraction, ...]:
    """w applied to v as the simple reflections of its reduced word, the
    last letter first, on Fractions throughout."""
    out = fractions_of(v)
    for letter in reversed(group.reduced_word(w)):
        alpha = group.system.simple(letter)
        c = fraction_pairing(out, alpha)
        out = tuple(a - c * b for a, b in zip(out, alpha))
    return out


def fraction_hodge_character(module: WeightMultiset, mu: Vector) -> Tuple[Fraction, ...]:
    """Minus the sum, with multiplicities, of the weights that pair highest
    with mu, each weight its key over the scale, on Fractions throughout."""
    weights = [tuple(Fraction(c, module.scale) for c in key) for key in module.keys]
    values = [sum(map(mul, weight, fractions_of(mu))) for weight in weights]
    top = [
        tuple(mult * c for c in weight)
        for weight, value, mult in zip(weights, values, module.mults)
        if value == max(values)
    ]
    return tuple(-sum(column) for column in zip(*top))


# -- reference copies of the one-tuple-per-step Weyl kernels -------------------


def reference_reduced_word(group: WeylGroup, w: Perm) -> Tuple[int, ...]:
    """Strip the smallest left descent, rebuilding the inverse as a tuple
    each step; a w that is not a signed slot permutation, or that runs out
    of descents away from the identity, raises."""
    n, ident, t = group.slots, group.identity(), group.system.cartan_type
    signed = t == "A" or all(x + y == n + 1 for x, y in zip(w, w[::-1]))
    inv = inverse(w) if signed and sorted(w) == list(ident) else None
    word: List[int] = []
    while inv != ident:
        i = None if inv is None else first_descent(group, inv, range(1, group.rank + 1))
        if i is None:
            raise ValueError(f"{w} is not an element of W({t}{group.rank})")
        word.append(i)
        inv = compose(inv, group.simple_reflection(i))
    return tuple(word)


def reference_min_in_double_coset(
    group: WeylGroup, w: Perm, I: Sequence[int], J: Sequence[int]
) -> Perm:
    """Alternate left stripping in I (on a recomputed inverse) and right
    stripping in J, one new tuple per step."""
    while True:
        if (i := first_descent(group, inverse(w), I)) is not None:
            w = compose(group.simple_reflection(i), w)
        elif (j := first_descent(group, w, J)) is not None:
            w = compose(w, group.simple_reflection(j))
        else:
            return w


def reference_longest_in(group: WeylGroup, I: Sequence[int]) -> Perm:
    """Multiply by the first ascent in I, recomputing every right descent
    each step, until there is none."""
    u = group.identity()
    while True:
        descents = right_descents(group, u)
        ascent = next((i for i in I if i not in descents), None)
        if ascent is None:
            return u
        u = compose(u, group.simple_reflection(ascent))


def reference_slot_perm(
    datum: CocharacterDatum, module: WeightMultiset, w: Perm
) -> Perm:
    """The slot permutation of w on the module, one integer key at a time:
    slot k goes to the slot of w applied to its key."""
    if any(mult != 1 for mult in module.mults):
        raise ValueError("the permutation model needs multiplicity-free weights")
    slots, keys, index_of, _ = _slot_table(module, datum.mu)
    images = []
    for weight, key in zip(slots, keys):
        slot = index_of.get(datum.group.act(w, key))
        if slot is None:
            moved = datum.group.act(w, weight)
            raise ValueError(f"weights are not stable: {weight_str(moved)} is not a slot")
        images.append(slot)
    return tuple(images)


def reference_entries(weights: Iterable[Vector]) -> Tuple[Tuple[Vector, int], ...]:
    """The entries of a weight multiset, counted and sorted on the weights
    themselves."""
    return tuple(sorted(Counter(weights).items()))


def min_double_coset_reps(
    group: WeylGroup, I: Sequence[int], J: Sequence[int]
) -> Tuple[Perm, ...]:
    """Minimal-length representatives of W_I \\ W / W_J: the minimal
    representatives of W_I \\ W without a right descent in J."""
    return tuple(
        u for u in group.min_coset_reps(I) if set(J).isdisjoint(right_descents(group, u))
    )


def find_nonclosed_word(
    system: RootSystem, max_length: int = 6
) -> Optional[Tuple[int, ...]]:
    """Shortest word failing the closedness condition, scanning exhaustively.

    Serves as the negative control for ``condition_closed``: reduced words
    cannot fail, so the scan has to wander through non-reduced territory.
    """
    letters = range(1, system.rank + 1)
    for length in range(1, max_length + 1):
        for word in itertools.product(letters, repeat=length):
            ok, _ = condition_closed(system, word)
            if not ok:
                return word
    return None


def reference_ord_table(datum: CocharacterDatum, lam: Vector) -> Dict[Perm, int]:
    """The order table label by label: ``ord_for_word`` on the reduced word
    of each cell w_{0,I} w w_0, with w_{0,I} recomputed from I."""
    group = datum.group
    w0 = group.longest_element()
    w0_I = group.longest_in(datum.I)
    return {
        label: ord_for_word(
            group.system, lam, group.reduced_word(compose(w0_I, compose(label, w0)))
        )
        for label in group.min_coset_reps(datum.I)
    }


def reference_reports(
    datum: CocharacterDatum,
    lam: Vector,
    ord_of: Optional[Callable[[Perm], int]],
    clp_of: Callable[[Perm], int],
) -> Tuple[StratumReport, ...]:
    """The stratum reports of a case, computed label by label: sort the
    minimal coset representatives open first, then compute each label's
    word, Bruhat class, order (from ``ord_of``, or from
    ``reference_ord_table`` when it is None) and line position (from
    ``clp_of``)."""
    group = datum.group
    ord_of = ord_of or reference_ord_table(datum, lam).__getitem__
    labels = sorted(
        group.min_coset_reps(datum.I),
        key=lambda w: (-group.length(w), group.reduced_word(w)),
    )
    reports: List[StratumReport] = []
    for label in labels:
        order = ord_of(label)
        position = clp_of(label)
        reports.append(
            StratumReport(
                w=label,
                word=group.reduced_word(label),
                bruhat_class=group.min_in_double_coset(label, datum.I, datum.J),
                ord=order,
                clp=position,
                ogus_holds=order == position,
                ineq_holds=order <= position,
            )
        )
    return tuple(reports)


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
    for y in subgroup_elements(g, datum.I, cap=cap):
        candidate = compose_all([y, w_prime, z, inverse(y), z], g.slots)
        if candidate == w:
            return True
    return False


# -- reference slicings and zip frames -------------------------------------------


def mu_profile(
    module: WeightMultiset, mu: Vector
) -> Tuple[Tuple[Fraction, int], ...]:
    """Pairings of the weights against the cocharacter mu, highest first,
    each with the dimension of its slice."""
    values, denominator = module._pairings(mu)
    slices: Dict[int, int] = {}
    for value, mult in zip(values, module.mults):
        slices[value] = slices.get(value, 0) + mult
    return tuple(
        (Fraction(value, denominator), dim)
        for value, dim in sorted(slices.items(), reverse=True)
    )


def is_cy(module: WeightMultiset, mu: Vector) -> bool:
    """Whether the highest mu-slice of the module is one dimensional."""
    profile = mu_profile(module, mu)
    return bool(profile) and profile[0][1] == 1


def w0ij_perm(dims: Sequence[int]) -> Perm:
    """Frame permutation of a zip type, given by its slice dimensions: slot i
    of slice j moves to slot i - m_{j-1} + (N - m_j), reversing the slice
    order while keeping each slice's internal order.

    On the open stratum the conjugate filtration is opposed to the Hodge one,
    and this is the permutation realizing that relative position.
    """
    cumulative = list(itertools.accumulate(dims, initial=0))
    total = cumulative[-1]
    images = []
    for i in range(1, total + 1):
        j = next(b for b in range(1, len(dims) + 1) if i <= cumulative[b])
        images.append(i - cumulative[j - 1] + total - cumulative[j])
    return tuple(images)


def hasse_nonzero(z: StandardZip) -> bool:
    """Whether the Hasse section is invertible on the zip: the Hodge line
    already lies in the bottom conjugate step."""
    return clp(z) == 0


# -- reference case facts -------------------------------------------------------


def expanded(module: WeightMultiset) -> Tuple[Vector, ...]:
    """Every weight of the module repeated by its multiplicity."""
    return tuple(weight for weight, mult in module.entries for _ in range(mult))


def multiplicity(module: WeightMultiset, weight: Vector) -> int:
    return dict(module.entries).get(weight, 0)


def dsum(left: WeightMultiset, right: WeightMultiset) -> WeightMultiset:
    """Direct sum: the weights of both modules together."""
    return WeightMultiset.from_weights(expanded(left) + expanded(right))


def hand_eta(identifier: str, rank: int) -> Vector:
    """The Hodge character of each case as its hand builder gave it: written
    out for the standard, wedge-square and dual-sum cases, and from the
    lower slice of the two-slice profile for Siegel and the spin cases,
    here in closed form."""
    def first(c: int) -> Vector:
        return (Fraction(c),) + (Fraction(0),) * (rank - 1)

    if identifier in ("SO_odd_std", "SO_even_std", "Sp2n_std_Cn"):
        return first(-1)
    if identifier == "GSp2n_wedge_dual":
        return (Fraction(-1),) * rank
    if identifier == "GLn_wedge_dualsum":
        return (Fraction(-2),) * (rank - 1) + (Fraction(0),)
    if identifier == "GL4_wedge2":
        return tuple(map(Fraction, (-1, -1, 0, 0)))
    if identifier == "GSpin_spin_odd":
        return first(-(2 ** (rank - 2)))
    if identifier == "GSpin_spin_even":
        return first(-(2 ** (rank - 3)))
    raise ValueError(f"unknown case {identifier!r}")


# -- the GSp(2n) form ------------------------------------------------------------


def gsp_form(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Antidiagonal symplectic form of GSp(2n): -J in the upper right, J
    lower left, with J the n x n antidiagonal identity."""
    j = [[1 if r + c == n - 1 else 0 for c in range(n)] for r in range(n)]
    top = [[0] * n + [-x for x in row] for row in j]
    bottom = [row + [0] * n for row in j]
    return tuple(tuple(r) for r in top + bottom)


# -- polynomial constructors -------------------------------------------------------


def const(nvars: int, c: int) -> SparsePoly:
    """The constant c in nvars variables."""
    return SparsePoly.build(nvars, {(0,) * nvars: c})


def variable(nvars: int, index: int) -> SparsePoly:
    """Variable number index of nvars; an index out of range raises."""
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range")
    expo = tuple(1 if k == index else 0 for k in range(nvars))
    return SparsePoly.build(nvars, {expo: 1})


# -- the GL(n) weight section as a full product ----------------------------------


def gl_flambda(n: int, lam: Sequence[int]) -> "MinorProduct":
    """Highest-weight section of weight lambda on GL(n), as a product of
    principal minors anchored at the lower-right corner.

    lambda must be dominant (weakly decreasing). The k-th trailing minor
    appears with exponent lambda_{n-k} - lambda_{n-k+1}, and det appears
    with exponent lambda_n; negative det exponents are tracked separately
    so integral weights with negative entries work.
    """
    lam = list(lam)
    if len(lam) != n:
        raise ValueError("weight length must equal n")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("weight must be dominant (weakly decreasing)")
    exponents = {k: lam[n - k - 1] - lam[n - k] for k in range(1, n)}
    return MinorProduct(n=n, trailing_exponents=exponents, det_exponent=lam[n - 1])


class MinorProduct(NamedTuple):
    """Product of trailing principal minors with integer exponents."""

    n: int
    trailing_exponents: Dict[int, int]
    det_exponent: int

    def evaluate(self, m: Matrix) -> SparsePoly:
        """The product on m, multiplied out in full. Each trailing k-minor is
        the minor of the bottom k rows on the last k columns, so one table of
        bottom-row minors serves every factor and the determinant."""
        nvars = m[0][0].nvars
        acc = const(nvars, 1)
        minors: Dict[Tuple[int, ...], SparsePoly] = {}
        for k, e in sorted(self.trailing_exponents.items()):
            if e < 0:
                raise ValueError("negative exponent on a non-det minor")
            if e == 0:
                continue
            mk = _bottom_minor(m, tuple(range(self.n - k, self.n)), minors)
            for _ in range(e):
                acc = acc * mk
        if self.det_exponent < 0:
            raise ValueError("cannot evaluate a negative det power on a polynomial point")
        if self.det_exponent:
            d = _bottom_minor(m, tuple(range(self.n)), minors)
            for _ in range(self.det_exponent):
                acc = acc * d
        return acc


def full_product_cell_order(n: int, lam: Sequence[int], w: Sequence[int]) -> int:
    """Order of the weight-lambda section along the cell of w, read off the
    section multiplied out in full: the reference for ``gl_cell_order``.
    lambda is first shifted to end in zero, since det is a unit on the
    cell."""
    shifted = [x - lam[-1] for x in lam]
    point, matrix = gl_cell_point(n, w)
    section = gl_flambda(n, shifted).evaluate(matrix)
    return order_at_zero(section, point.distinguished_vars)
