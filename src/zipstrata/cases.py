"""Case-by-case comparison of vanishing orders and conjugate line positions.

Every case couples a cocharacter datum with a representation and runs two
independent computations per stratum: the vanishing order of the Hasse
section through the word formulas (or a dedicated closed form where the cell
words leave the supported shapes) and the conjugate line position through the
zip permutation model. Ogus' principle is the assertion that the two agree;
the symplectic standard case is the known exception, failing exactly on the
minimal stratum while the inequality still holds.

A case's datum, Hodge character and strata do not depend on the working
prime, which only enters the twist check ``d_w0``. Neither do the columns
of its report: each stratum's label, reduced word, Bruhat class, line
position and, for the closed forms, order. They are built once per
(identifier, rank) by ``_case_data``, an ``lru_cache`` reported by
``cache_stats()``; ``run_case`` checks the spec and the prime with
``check_spec`` on every call before the lookup, so a rejected spec adds no
entry. The order table from the word formulas is still computed on every
call. Caching it too was measured: the library's memory barely grew, but
the benchmark keeps one latency sample per operation, and at the higher
rate those samples pushed its peak memory past the bound. So it waits until
the benchmark keeps a fixed-size sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from .fzip import StandardZip, clp, clp_exterior_top, standard_zips
from .oracle import (
    PRIME_MAX,
    gsp_point_order,
    gsp_psi_curve_point,
    gsp_witness,
    is_prime,
)
from .reps import (
    WeightMultiset,
    hodge_character,
    spin_weights,
    std_weights,
    wedge,
)
from .rootsys import Vector, neg, smul, unit, vec
from .vanishing import Word, d_w0, strata_ord_table
from .weyl import CocharacterDatum, Perm, cocharacter_datum, weyl_group

CASE_IDENTIFIERS = (
    "SO_odd_std",
    "SO_even_std",
    "Sp2n_std_Cn",
    "GSp2n_wedge_dual",
    "GLn_wedge_dualsum",
    "GL4_wedge2",
    "GSpin_spin_odd",
    "GSpin_spin_even",
)


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


@dataclass(frozen=True)
class _CaseData:
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


def _e1(dim: int) -> Vector:
    return unit(dim, 1)


def _zip_clps(
    datum: CocharacterDatum,
    module: WeightMultiset,
    position: Callable[[StandardZip], int],
) -> Callable[[Tuple[Perm, ...]], Tuple[int, ...]]:
    """Line positions of the labels, from one ``standard_zips`` call."""
    return lambda labels: tuple(map(position, standard_zips(datum, module, labels)))


def _sign_flips(datum: CocharacterDatum, label: Perm) -> int:
    """Number of coordinate lines the signed permutation sends negative:
    the slots 1..rank holding a slot beyond rank."""
    rank = datum.group.system.rank
    return sum(1 for k in label[:rank] if k > rank)


def _case_standard(cartan_type: str, m: int) -> _CaseData:
    """Standard module of type B, C or D with the cocharacter e_1."""
    datum = cocharacter_datum(weyl_group(cartan_type, m), _e1(m))
    module = std_weights(cartan_type, m)
    return _tabulate(datum, neg(_e1(m)), None, _zip_clps(datum, module, clp))


def _case_siegel(n: int) -> _CaseData:
    """Siegel-type case: order n - |S| on the stratum flipping the signs of
    the subset S.

    The word formulas cannot express these cells once n reaches three (the
    open cell would need more distinct letters than the rank provides), so
    the order comes from the closed form; the oracle cross-check in
    ``siegel_cross_check`` keeps it honest.
    """
    mu = vec(*([1] * n))
    datum = cocharacter_datum(weyl_group("C", n), mu)
    module = std_weights("C", n)
    return _tabulate(
        datum,
        hodge_character(module, mu),
        lambda label: n - _sign_flips(datum, label),
        _zip_clps(datum, module, clp_exterior_top),
    )


def _case_gl_dualsum(n: int) -> _CaseData:
    """General linear case of signature (n-1, 1) on the last wedge plus its
    dual: orders are 0 on the strata moving the top line and 2 elsewhere.

    Both closed forms come from the two-block structure of the module; the
    Pluecker oracle pins the order values for small n in the tests.
    """
    mu = vec(*([1] * (n - 1) + [0]))
    datum = cocharacter_datum(weyl_group("A", n - 1), mu)
    return _tabulate(
        datum,
        smul(-2, vec(*([1] * (n - 1) + [0]))),
        lambda label: 0 if label[0] == n else 2,
        lambda labels: tuple(2 if label[0] == 1 else 0 for label in labels),
    )


def _case_gl4_wedge2(rank: int) -> _CaseData:
    if rank != 4:
        raise ValueError("the wedge-square case is specific to rank 4")
    mu = vec(1, 1, 0, 0)
    datum = cocharacter_datum(weyl_group("A", 3), mu)
    module = wedge(std_weights("A", 3), 2)
    return _tabulate(datum, vec(-1, -1, 0, 0), None, _zip_clps(datum, module, clp))


def _case_gspin(cartan_type: str, m: int) -> _CaseData:
    datum = cocharacter_datum(weyl_group(cartan_type, m), _e1(m))
    module = spin_weights(cartan_type, m)
    return _tabulate(
        datum,
        hodge_character(module, datum.mu),
        None,
        _zip_clps(datum, module, clp_exterior_top),
    )


_BUILDERS: Dict[str, Callable[[int], _CaseData]] = {
    "SO_odd_std": lambda r: _case_standard("B", r),
    "SO_even_std": lambda r: _case_standard("D", r),
    "Sp2n_std_Cn": lambda r: _case_standard("C", r),
    "GSp2n_wedge_dual": _case_siegel,
    "GLn_wedge_dualsum": _case_gl_dualsum,
    "GL4_wedge2": _case_gl4_wedge2,
    "GSpin_spin_odd": lambda r: _case_gspin("B", r),
    "GSpin_spin_even": lambda r: _case_gspin("D", r),
}


_MIN_RANK = {
    "SO_odd_std": 2,
    "SO_even_std": 3,
    "Sp2n_std_Cn": 1,
    "GSp2n_wedge_dual": 1,
    "GLn_wedge_dualsum": 2,
    "GL4_wedge2": 4,
    "GSpin_spin_odd": 2,
    "GSpin_spin_even": 3,
}


# Ceilings on the module dimension and on the number of strata |W^I|,
# checked before a case builds anything. At the ceilings a cold table takes
# well under 1 s from the command line on a 2-vCPU Xeon (min of 3 runs):
# 0.23 to 0.24 s for the standard cases at rank 32 (64 strata), 0.40 s for
# the spin modules of dimension 4096 (GSpin_spin_odd at rank 12,
# GSpin_spin_even at 13), 0.25 s for GLn_wedge_dualsum at rank 64 and
# 0.15 s for Siegel, which stops at rank 6 (2^6 strata).
MODULE_DIM_CAP = 4096
STRATA_CAP = 64


# Module dimension and |W^I| of each case at rank r, from closed forms.
_CASE_SIZE: Dict[str, Callable[[int], Tuple[int, int]]] = {
    "SO_odd_std": lambda r: (2 * r + 1, 2 * r),
    "SO_even_std": lambda r: (2 * r, 2 * r),
    "Sp2n_std_Cn": lambda r: (2 * r, 2 * r),
    "GSp2n_wedge_dual": lambda r: (2 * r, 2**r),
    "GLn_wedge_dualsum": lambda r: (2 * r, r),
    "GL4_wedge2": lambda r: (6, 6),
    "GSpin_spin_odd": lambda r: (2**r, 2 * r),
    "GSpin_spin_even": lambda r: (2 ** (r - 1), 2 * r),
}


def check_spec(spec: CaseSpec) -> None:
    """Raise ``ValueError`` unless ``run_case`` accepts the spec: a known
    identifier, at least its minimum rank, within ``STRATA_CAP`` and
    ``MODULE_DIM_CAP``, and a prime. Builds nothing."""
    if spec.identifier not in CASE_IDENTIFIERS:
        raise ValueError(f"unknown case {spec.identifier!r}")
    if spec.rank < _MIN_RANK[spec.identifier]:
        raise ValueError(
            f"case {spec.identifier} needs rank at least "
            f"{_MIN_RANK[spec.identifier]}"
        )
    # Both sizes grow with the rank and every case has at least rank strata,
    # so clamping the rank keeps the verdict and bounds the powers of two.
    dim, strata = _CASE_SIZE[spec.identifier](min(spec.rank, STRATA_CAP + 1))
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
    built once per (identifier, rank)."""
    return _BUILDERS[identifier](rank)


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
