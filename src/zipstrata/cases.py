"""Case-by-case comparison of vanishing orders and conjugate line positions.

A case is a triple (G, mu, r): a split reductive group, a cocharacter and a
representation, given at each rank by one entry of ``PRESETS``. Per stratum
it runs two independent computations: the vanishing order of the Hasse
section through the word formulas (or a closed form where the cell words
leave the supported shapes) and the conjugate line position through the zip
permutation model. Ogus' principle is the assertion that the two agree; the
symplectic standard case is the known exception, failing exactly on the
minimal stratum while the inequality still holds.

A case's datum, Hodge character and report columns (each stratum's label,
reduced word, Bruhat class, line position and closed-form order) do not
depend on the working prime, which only enters the twist check ``d_w0``.
They are built once per (identifier, rank) by ``_case_data``, an
``lru_cache`` reported by ``cache_stats()``, after ``check_spec`` has
accepted the spec, so a rejected spec adds no entry. The order table from
the word formulas is still computed on every call: caching it too pushed
the benchmark's peak memory past its bound, through the one latency sample
the benchmark keeps per operation, and waits until it keeps a fixed-size
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .fzip import clp, clp_exterior_top, standard_zips
from .oracle import (
    PRIME_MAX,
    gsp_point_order,
    gsp_psi_curve_point,
    gsp_witness,
    is_prime,
)
from .reps import WeightMultiset, hodge_character, spin_weights, std_weights, wedge
from .rootsys import Vector, neg, smul, unit, vec
from .vanishing import Word, d_w0, strata_ord_table
from .weyl import CocharacterDatum, Perm, cocharacter_datum, weyl_group


@dataclass(frozen=True)
class CaseSpec:
    """A case identifier with its rank and the working prime."""

    identifier: str
    rank: int
    prime: int


@dataclass(frozen=True)
class StratumReport:
    """Both invariants of one stratum, with the comparison verdicts."""

    w: Perm
    word: Word
    bruhat_class: Perm
    ord: int
    clp: int
    ogus_holds: bool
    ineq_holds: bool


@dataclass(frozen=True)
class CaseResult:
    spec: CaseSpec
    datum: CocharacterDatum
    eta: Vector
    hodge_weight: Vector
    reports: Tuple[StratumReport, ...]

    @property
    def ogus_everywhere(self) -> bool:
        return all(r.ogus_holds for r in self.reports)

    @property
    def inequality_everywhere(self) -> bool:
        return all(r.ineq_holds for r in self.reports)

    @property
    def open_report(self) -> StratumReport:
        return self.reports[0]


class _CaseData(NamedTuple):
    """The prime-independent part of a case, shared by every ``run_case`` of
    its (identifier, rank): the datum, the Hodge character and one column
    per report field, each listing the strata open first.

    ``orders`` is None when the orders come from the order table of the
    Hasse weight -eta, which ``run_case`` computes on every call. A named
    tuple, as ``Preset`` is, to keep the import of the command line fast.
    """

    datum: CocharacterDatum
    eta: Vector
    labels: Tuple[Perm, ...]
    words: Tuple[Word, ...]
    bruhat_classes: Tuple[Perm, ...]
    clps: Tuple[int, ...]
    orders: Optional[Tuple[int, ...]]


def _tabulate(
    datum: CocharacterDatum,
    eta: Vector,
    ord_of: Optional[Callable[[Perm], int]],
    clps_of: Callable[[Tuple[Perm, ...]], Tuple[int, ...]],
) -> _CaseData:
    """Sort the strata open first (longest label first, then by reduced
    word) and evaluate every prime-independent column on them; ``ord_of``
    is a closed form, or None for the word formulas, and ``clps_of`` gives
    the line positions of all the labels at once."""
    group, I, J = datum.group, datum.I, datum.J
    labels = tuple(sorted(
        group.min_coset_reps(I),
        key=lambda w: (-group.length(w), group.reduced_word(w)),
    ))
    return _CaseData(
        datum=datum,
        eta=eta,
        labels=labels,
        words=tuple(map(group.reduced_word, labels)),
        bruhat_classes=tuple(group.min_in_double_coset(w, I, J) for w in labels),
        clps=clps_of(labels),
        orders=None if ord_of is None else tuple(map(ord_of, labels)),
    )


def _case_gl_dualsum(n: int) -> _CaseData:
    """General linear case of signature (n-1, 1) on the last wedge plus its
    dual: orders are 0 on the strata moving the top line and 2 elsewhere.

    The one hand-coded case: no zip model is known that gives its line
    positions (``clp`` on the sum module gives other values), and the
    Hodge-character rule gives half its Hodge character. The Pluecker
    oracle pins the order values for small n in the tests.
    """
    mu = vec(*([1] * (n - 1) + [0]))
    datum = cocharacter_datum(weyl_group("A", n - 1), mu)
    return _tabulate(
        datum,
        smul(-2, mu),
        lambda label: 0 if label[0] == n else 2,
        lambda labels: tuple(2 if label[0] == 1 else 0 for label in labels),
    )


class Preset(NamedTuple):
    """A case's command-line flag and ranks (a ``max_rank`` only if fixed),
    its closed-form (module dimension, |W^I|) at a rank for ``check_spec``,
    and its triple at a rank: the Cartan type and rank of G, mu and the
    weights of r (None for the one hand-coded case). The line position is
    ``clp_exterior_top`` where ``exterior_top`` is set, ``clp`` otherwise;
    ``order`` maps (rank, label) to a closed-form order. A named tuple, not
    a dataclass: built on every import of the command line, its class takes
    0.6 ms against a frozen dataclass's 1.7 ms (2-vCPU Xeon)."""

    flag: str
    min_rank: int
    size: Callable[[int], Tuple[int, int]]
    triple: Optional[Callable[[int], Tuple[str, int, Vector, WeightMultiset]]]
    exterior_top: bool = False
    order: Optional[Callable[[int, Perm], int]] = None
    max_rank: Optional[int] = None


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
    # cannot split it; ``siegel_cross_check`` checks the closed form.
    "GSp2n_wedge_dual": Preset(
        "siegel", 1, lambda r: (2 * r, 2**r),
        lambda r: ("C", r, vec(*([1] * r)), std_weights("C", r)),
        exterior_top=True,
        order=lambda n, label: n - sum(1 for k in label[:n] if k > n),
    ),
    "GLn_wedge_dualsum": Preset("gl-dualsum", 2, lambda r: (2 * r, r), None),
    "GL4_wedge2": Preset(
        "gl4-wedge2", 4, lambda r: (6, 6),
        lambda r: ("A", 3, vec(1, 1, 0, 0), wedge(std_weights("A", 3), 2)),
        max_rank=4,
    ),
    "GSpin_spin_odd": Preset(
        "gspin-odd", 2, lambda r: (2**r, 2 * r),
        lambda r: ("B", r, unit(r, 1), spin_weights("B", r)),
        exterior_top=True,
    ),
    "GSpin_spin_even": Preset(
        "gspin-even", 3, lambda r: (2 ** (r - 1), 2 * r),
        lambda r: ("D", r, unit(r, 1), spin_weights("D", r)),
        exterior_top=True,
    ),
}

CASE_IDENTIFIERS = tuple(PRESETS)
CASE_BY_FLAG = {preset.flag: identifier for identifier, preset in PRESETS.items()}


# Ceilings on the module dimension and on the number of strata |W^I|,
# checked before a case builds anything. At the ceilings a cold table takes
# well under 1 s from the command line on a 2-vCPU Xeon (min of 3 runs):
# 0.23 to 0.24 s for the standard cases at rank 32 (64 strata), 0.40 s for
# the spin modules of dimension 4096 (GSpin_spin_odd at rank 12,
# GSpin_spin_even at 13), 0.25 s for GLn_wedge_dualsum at rank 64 and
# 0.15 s for Siegel, which stops at rank 6 (2^6 strata).
MODULE_DIM_CAP = 4096
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
    built once per (identifier, rank). A triple preset takes its datum from
    (type, rank, mu), its Hodge character from ``hodge_character``, its line
    positions from one ``standard_zips`` call, and its orders from its
    closed form or, when it has none, the word formulas."""
    preset = PRESETS[identifier]
    if preset.triple is None:
        return _case_gl_dualsum(rank)
    cartan_type, group_rank, mu, module = preset.triple(rank)
    datum = cocharacter_datum(weyl_group(cartan_type, group_rank), mu)
    position = clp_exterior_top if preset.exterior_top else clp
    order = preset.order
    return _tabulate(
        datum,
        hodge_character(module, mu),
        None if order is None else lambda label: order(rank, label),
        lambda labels: tuple(map(position, standard_zips(datum, module, labels))),
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
            f"case {spec.identifier}: the Hodge character {data.eta} does "
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


def siegel_cross_check(n: int, p: int) -> Tuple[bool, str]:
    """Three-way check of the Siegel-type case at rank n.

    The closed-form order table must agree with the zip line positions
    stratum by stratum, be constant on Bruhat classes with each value
    0..n taken by exactly one class, and match the matrix oracle on rank
    witnesses and on the coordinate test curve.
    """
    case = run_case(CaseSpec("GSp2n_wedge_dual", n, p))
    for report in case.reports:
        if not report.ogus_holds:
            return False, (
                f"stratum {report.word}: order {report.ord} but line "
                f"position {report.clp}"
            )
    by_class: Dict[Perm, set] = {}
    for report in case.reports:
        by_class.setdefault(report.bruhat_class, set()).add(report.ord)
    if any(len(values) != 1 for values in by_class.values()):
        return False, "some Bruhat class carries two different orders"
    class_values = sorted(next(iter(v)) for v in by_class.values())
    if class_values != list(range(n + 1)):
        return False, f"class orders {class_values} are not 0..{n}"
    for i in range(n + 1):
        got = gsp_point_order(n, p, gsp_witness(n, i))
        if got != n - i:
            return False, f"oracle order {got} at the rank-{i} witness"
    for mask in range(2**n):
        a = [1 if mask & (1 << k) else 0 for k in range(n)]
        got = gsp_point_order(n, p, gsp_psi_curve_point(n, a))
        if got != a.count(0):
            return False, f"oracle order {got} on the test curve at {a}"
    return True, ""
