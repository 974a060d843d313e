"""Case-by-case comparison of vanishing orders and conjugate line positions.

A case is a triple (G, mu, r): a split reductive group, a cocharacter and a
representation, given at each rank by one entry of ``PRESETS``, and the
power of the triple's Hasse section it tabulates (the square for the
dual-sum case, the section itself otherwise). Every preset takes the same
path. Per stratum it runs two independent computations: the vanishing
order of the Hasse section through the word formulas (or a closed form
where the cell words leave the supported shapes or the table is slow) and
the conjugate line position through the zip permutation model. Ogus'
principle is the assertion that the two agree; the symplectic standard
case is the known exception, failing exactly on the minimal stratum while
the inequality still holds. A preset with a matrix model carries it as
its ``oracle``, which reads the spec, refusing a rank above the model's
ceiling before anything is built, and returns a check of the computed
case: the GSp(2n) point orders for Siegel, the squared Pluecker
coordinate for the dual-sum case.

A case's datum, Hodge character and report columns (each stratum's label,
reduced word, Bruhat class, line position and closed-form order) do not
depend on the working prime, which only enters the twist check ``d_w0``.
They are built once per (identifier, rank) by ``_case_data``, an
``lru_cache`` reported by ``cache_stats()``, after ``check_spec`` has
accepted the spec, so a rejected spec adds no entry; the labels and words
come from ``min_coset_reps``, which strips no word. The order table from
the word formulas is still computed on every call: caching it too pushed
the benchmark's peak memory past its bound, through the one latency sample
the benchmark keeps per operation, and waits until it keeps a fixed-size
sample.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .fzip import clp, clp_exterior_top, standard_zips
from .oracle import (
    ORACLE_N_CAP,
    PRIME_MAX,
    gl_plucker_order,
    gsp_point_order,
    gsp_psi_curve_point,
    gsp_witness,
    is_prime,
)
from .reps import (
    MODULE_DIM_CAP,
    WeightMultiset,
    hodge_character,
    spin_weights,
    std_weights,
    wedge,
)
from .rootsys import Vector, neg, smul, unit, vec, weight_str
from .vanishing import Word, d_w0, strata_ord_table
from .weyl import CocharacterDatum, Perm, cocharacter_datum, weyl_group


class CaseSpec(NamedTuple):
    """A case identifier with its rank and the working prime."""

    identifier: str
    rank: int
    prime: int


class StratumReport(NamedTuple):
    """Both invariants of one stratum, with the comparison verdicts."""

    w: Perm
    word: Word
    bruhat_class: Perm
    ord: int
    clp: int
    ogus_holds: bool
    ineq_holds: bool


class CaseResult(NamedTuple):
    spec: CaseSpec
    datum: CocharacterDatum
    eta: Vector
    hodge_weight: Vector
    reports: Tuple[StratumReport, ...]

    @property
    def ogus_everywhere(self) -> bool:
        return all(r.ogus_holds for r in self.reports)


class _CaseData(NamedTuple):
    """The prime-independent part of a case, shared by every ``run_case`` of
    its (identifier, rank): the datum, the Hodge character and one column
    per report field, each listing the strata open first.

    ``orders`` is None when the orders come from the order table of the
    Hasse weight -eta, which ``run_case`` computes on every call.
    """

    datum: CocharacterDatum
    eta: Vector
    labels: Tuple[Perm, ...]
    words: Tuple[Word, ...]
    bruhat_classes: Tuple[Perm, ...]
    clps: Tuple[int, ...]
    orders: Optional[Tuple[int, ...]]


class Preset(NamedTuple):
    """A case's command-line flag and ranks (a ``max_rank`` only if fixed),
    its closed-form (module dimension, |W^I|) at a rank for ``check_spec``,
    and its triple at a rank: the Cartan type and rank of G, mu and the
    weights of r. The case tabulates the ``power``-th power of the triple's
    Hasse invariant, so its eta and line positions are ``power`` times the
    triple's; ``order`` maps (rank, label) to a closed-form order of that
    power. ``oracle``, for a preset with a matrix model, takes the spec
    before the case is built and raises ``ValueError`` above the model's own
    ceiling; otherwise it returns the check of the computed case, which
    gives a complaint, or None when the case agrees. A named tuple, as
    the package's other records are (classes with cached properties or
    their own equality are plain classes): the
    package never imports ``dataclasses``, and ``import zipstrata.cli,
    zipstrata.oracle`` takes 5.8 ms from cached bytecode, against 15.6 ms
    with thirteen frozen dataclasses (median of 41 fresh interpreters,
    2-vCPU Xeon)."""

    flag: str
    min_rank: int
    size: Callable[[int], Tuple[int, int]]
    triple: Callable[[int], Tuple[str, int, Vector, WeightMultiset]]
    order: Optional[Callable[[int, Perm], int]] = None
    max_rank: Optional[int] = None
    power: int = 1
    oracle: Optional[Callable[[CaseSpec], Callable[[CaseResult], Optional[str]]]] = None


# -- matrix oracles of the presets -----------------------------------------------


def _siegel_check(case: CaseResult) -> Optional[str]:
    """Three-way check of the Siegel-type case at rank n.

    The closed-form order table must agree with the zip line positions
    stratum by stratum, be constant on Bruhat classes with each value
    0..n taken by exactly one class, and match the matrix oracle on rank
    witnesses and on the coordinate test curve.
    """
    n, p = case.spec.rank, case.spec.prime
    for report in case.reports:
        if not report.ogus_holds:
            return (
                f"stratum {report.word}: order {report.ord} but line "
                f"position {report.clp}"
            )
    by_class: Dict[Perm, set] = {}
    for report in case.reports:
        by_class.setdefault(report.bruhat_class, set()).add(report.ord)
    if any(len(values) != 1 for values in by_class.values()):
        return "some Bruhat class carries two different orders"
    class_values = sorted(next(iter(v)) for v in by_class.values())
    if class_values != list(range(n + 1)):
        return f"class orders {class_values} are not 0..{n}"
    for i in range(n + 1):
        got = gsp_point_order(n, p, gsp_witness(n, i))
        if got != n - i:
            return f"oracle order {got} at the rank-{i} witness"
    for mask in range(2**n):
        a = [1 if mask & (1 << k) else 0 for k in range(n)]
        got = gsp_point_order(n, p, gsp_psi_curve_point(n, a))
        if got != a.count(0):
            return f"oracle order {got} on the test curve at {a}"
    return None


def _plucker_check(case: CaseResult) -> Optional[str]:
    """Every stratum's order against the squared top Pluecker coordinate of
    ``gl_plucker_order``."""
    for report in case.reports:
        got = gl_plucker_order(case.spec.rank, report.w)
        if got != report.ord:
            return f"stratum {report.word}: oracle order {got}, formula {report.ord}"
    return None


def _plucker_oracle(spec: CaseSpec) -> Callable[[CaseResult], Optional[str]]:
    """``_plucker_check``, with n above ``ORACLE_N_CAP`` refused up front."""
    if spec.rank > ORACLE_N_CAP:
        raise ValueError(
            f"GL(n) oracle needs 1 <= n <= {ORACLE_N_CAP}, got n = {spec.rank}"
        )
    return _plucker_check


PRESETS: Dict[str, Preset] = {
    "SO_odd_std": Preset(
        "so-odd", 2, lambda r: (2 * r + 1, 2 * r),
        lambda r: ("B", r, unit(r, 1), std_weights("B", r)),
    ),
    "SO_even_std": Preset(
        "so-even", 3, lambda r: (2 * r, 2 * r),
        lambda r: ("D", r, unit(r, 1), std_weights("D", r)),
    ),
    "Sp2n_std_Cn": Preset(
        "sp-cn", 1, lambda r: (2 * r, 2 * r),
        lambda r: ("C", r, unit(r, 1), std_weights("C", r)),
    ),
    # Order n - |S| on the stratum flipping the signs of S (the slots 1..n
    # holding a slot beyond n). Once n reaches three the open cell would need
    # more distinct letters than the rank provides, so the word formulas
    # cannot split it; the preset's oracle checks the closed form.
    "GSp2n_wedge_dual": Preset(
        "siegel", 1, lambda r: (2 * r, 2**r),
        lambda r: ("C", r, vec(*([1] * r)), std_weights("C", r)),
        order=lambda n, label: n - sum(1 for k in label[:n] if k > n),
        # Every accepted rank (up to 6) is far below GSP_N_CAP.
        oracle=lambda spec: _siegel_check,
    ),
    # The last wedge of the standard module plus its dual: the square of the
    # Hasse invariant of the last wedge (the squared Pluecker coordinate of
    # ``gl_plucker_order``). Its order is 0 on the strata moving the top line
    # and 2 elsewhere. ``run_case`` rebuilds a word-formula table on every
    # warm call, so the closed form stays: at n = 8 to 11 a warm call takes
    # 0.10-0.15 ms with it and 0.27-0.36 ms without (in-process medians on a
    # 2-vCPU Xeon); a cold table at rank 64 takes 0.2 s.
    "GLn_wedge_dualsum": Preset(
        "gl-dualsum", 2, lambda r: (r, r),
        lambda r: ("A", r - 1, vec(*([1] * (r - 1) + [0])),
                   wedge(std_weights("A", r - 1), r - 1)),
        order=lambda n, label: 0 if label[0] == n else 2,
        power=2,
        oracle=_plucker_oracle,
    ),
    "GL4_wedge2": Preset(
        "gl4-wedge2", 4, lambda r: (6, 6),
        lambda r: ("A", 3, vec(1, 1, 0, 0), wedge(std_weights("A", 3), 2)),
        max_rank=4,
    ),
    "GSpin_spin_odd": Preset(
        "gspin-odd", 2, lambda r: (2**r, 2 * r),
        lambda r: ("B", r, unit(r, 1), spin_weights("B", r)),
    ),
    "GSpin_spin_even": Preset(
        "gspin-even", 3, lambda r: (2 ** (r - 1), 2 * r),
        lambda r: ("D", r, unit(r, 1), spin_weights("D", r)),
    ),
}

CASE_IDENTIFIERS = tuple(PRESETS)
CASE_BY_FLAG = {preset.flag: identifier for identifier, preset in PRESETS.items()}


# Ceilings on the module dimension (``reps.MODULE_DIM_CAP``) and on the
# number of strata |W^I|, checked before a case builds anything. At the
# ceilings a cold table takes well under 1 s from the command line on a
# 2-vCPU Xeon (min of 3 runs): 0.23 to 0.24 s for the standard cases at
# rank 32 (64 strata), 0.40 s for the spin modules of dimension 4096
# (GSpin_spin_odd at rank 12, GSpin_spin_even at 13), 0.25 s for
# GLn_wedge_dualsum at rank 64 and 0.15 s for Siegel, which stops at rank 6
# (2^6 strata).
STRATA_CAP = 64


def check_spec(spec: CaseSpec) -> None:
    """Raise ``ValueError`` unless ``run_case`` accepts the spec: a known
    identifier, a rank in its preset's range, within ``STRATA_CAP`` and
    ``MODULE_DIM_CAP``, and a prime. Builds nothing."""
    if spec.identifier not in CASE_IDENTIFIERS:
        raise ValueError(f"unknown case {spec.identifier!r}")
    preset = PRESETS[spec.identifier]
    if spec.rank < preset.min_rank:
        raise ValueError(
            f"case {spec.identifier} needs rank at least {preset.min_rank}"
        )
    if preset.max_rank is not None and spec.rank > preset.max_rank:
        raise ValueError(
            f"case {spec.identifier} at rank {spec.rank} is above its "
            f"largest rank {preset.max_rank}"
        )
    # Both sizes grow with the rank and every case has at least rank strata,
    # so clamping the rank keeps the verdict and bounds the powers of two.
    dim, strata = preset.size(min(spec.rank, STRATA_CAP + 1))
    if strata > STRATA_CAP:
        raise ValueError(
            f"case {spec.identifier} at rank {spec.rank} has at least {strata} "
            f"strata, above the ceiling of {STRATA_CAP}"
        )
    if dim > MODULE_DIM_CAP:
        raise ValueError(
            f"case {spec.identifier} at rank {spec.rank} needs a module of "
            f"dimension {dim}, above the ceiling of {MODULE_DIM_CAP}"
        )
    if not is_prime(spec.prime):
        raise ValueError(f"{spec.prime} is not a prime")


@lru_cache(maxsize=64)
def _case_data(identifier: str, rank: int) -> _CaseData:
    """The datum, Hodge character and report columns of a validated case,
    built once per (identifier, rank). The datum comes from the preset's
    (type, rank, mu), the Hodge character from ``hodge_character``, the
    line positions from one ``standard_zips`` call on the words (``clp``
    where the Hodge slice is a line, ``clp_exterior_top`` of its top
    exterior power otherwise), and the orders from the closed form, if the
    preset has one; eta and the line positions are scaled by the preset's
    power. Labels and words are ``min_coset_reps``, sorted stably by
    descending word length: open first, then by word. Reversed, each word
    follows the word it extends by one letter, so each zip costs one
    composition. Shortest first, a label u takes the Bruhat class of u s_j
    for its first right descent j in J, a shorter label (W^I is closed under
    dropping a right descent), and a label with none is its own class."""
    preset = PRESETS[identifier]
    cartan_type, group_rank, mu, module = preset.triple(rank)
    group = weyl_group(cartan_type, group_rank)
    datum = cocharacter_datum(group, mu)
    table = group.min_coset_reps(datum.I)
    labels, words = zip(*sorted(table.items(), key=lambda item: len(item[1]), reverse=True))
    system = group.system
    right = [(system.root_pairs[j - 1], system.simple_swaps[j - 1]) for j in datum.J]
    class_of: Dict[Perm, Perm] = {}
    for u in reversed(labels):
        for (a, b), swaps in right:
            if u[a] > u[b]:
                v = list(u)
                for x, y in swaps:
                    v[x], v[y] = v[y], v[x]
                class_of[u] = class_of[tuple(v)]
                break
        else:
            class_of[u] = u
    power, order = preset.power, preset.order
    return _CaseData(
        datum=datum,
        eta=smul(power, hodge_character(module, mu)),
        labels=labels,
        words=words,
        bruhat_classes=tuple(map(class_of.__getitem__, labels)),
        clps=tuple(
            power * (clp(z) if z.dims[0] == 1 else clp_exterior_top(z))
            for z in standard_zips(datum, module, words[::-1])
        )[::-1],
        orders=None if order is None else tuple(order(rank, w) for w in labels),
    )


def run_case(spec: CaseSpec) -> CaseResult:
    """Compute both invariants on every stratum of the case, open first.

    Before anything else the case's Hodge character is checked against the
    twisted difference identity d_w0(-eta) = (p - 1) eta, which ties the
    stored weight to the datum. The strata, words, Bruhat classes, line
    positions and closed-form orders come from the cached case data; only
    the twist check and the order table of the word formulas run per call.
    """
    check_spec(spec)
    data = _case_data(spec.identifier, spec.rank)
    datum = data.datum
    lam = neg(data.eta)
    expected = smul(spec.prime - 1, data.eta)
    if d_w0(lam, spec.prime, datum) != expected:
        raise ValueError(
            f"case {spec.identifier}: the Hodge character {weight_str(data.eta)} does "
            f"not satisfy the twist identity"
        )
    orders = data.orders
    if orders is None:
        table = strata_ord_table(datum, lam)
        orders = tuple(table[label] for label in data.labels)
    reports = tuple(
        StratumReport(
            w=label,
            word=word,
            bruhat_class=bruhat_class,
            ord=order,
            clp=position,
            ogus_holds=order == position,
            ineq_holds=order <= position,
        )
        for label, word, bruhat_class, order, position in zip(
            data.labels, data.words, data.bruhat_classes, orders, data.clps
        )
    )
    return CaseResult(
        spec=spec,
        datum=datum,
        eta=data.eta,
        hodge_weight=lam,
        reports=reports,
    )


# -- cross checks --------------------------------------------------------------


_A3_TO_D3 = {1: 2, 2: 1, 3: 3}


def functoriality_check_A3_D3(
    p: int, scramble: bool = False
) -> Tuple[bool, str]:
    """Match the wedge-square table of the rank-four linear case against the
    rank-three even orthogonal table along the diagram isomorphism.

    The isomorphism swaps the first two letters (the linear diagram is a path
    centered at letter two, the orthogonal one a fork centered at letter one)
    and must carry every stratum to a stratum with the same pair of
    invariants. ``scramble`` replaces it with the identity relabeling, which
    is wrong on purpose and must be caught.
    """
    letter_map = {1: 1, 2: 2, 3: 3} if scramble else _A3_TO_D3
    linear = run_case(CaseSpec("GL4_wedge2", 4, p))
    orthogonal = run_case(CaseSpec("SO_even_std", 3, p))
    group_d = orthogonal.datum.group
    by_label: Dict[Perm, StratumReport] = {
        r.w: r for r in orthogonal.reports
    }
    matched = set()
    for report in linear.reports:
        image_word = tuple(letter_map[letter] for letter in report.word)
        image = group_d.from_word(image_word)
        partner = by_label.get(image)
        if partner is None:
            return False, (
                f"word {report.word} maps to {image_word}, which labels no "
                f"orthogonal stratum"
            )
        if (report.ord, report.clp) != (partner.ord, partner.clp):
            return False, (
                f"stratum {report.word}: ({report.ord}, {report.clp}) versus "
                f"({partner.ord}, {partner.clp}) on the orthogonal side"
            )
        matched.add(image)
    if len(matched) != len(orthogonal.reports):
        return False, "the relabeling is not a bijection on strata"
    return True, ""
