"""Request pools, seeded request generation and output checks for the
zipstrata benchmark.

Everything here is benchmark-side: it decides which calls to make and how to
judge their results, and it touches the library only through the module
functions that ``execute`` and ``run_cli_op`` call. Reference values live in
``reference/`` next to this file and were produced by ``make_reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

MODULES = (
    "zipstrata",
    "zipstrata.rootsys",
    "zipstrata.weyl",
    "zipstrata.reps",
    "zipstrata.vanishing",
    "zipstrata.fzip",
    "zipstrata.oracle",
    "zipstrata.cases",
    "zipstrata.cli",
)

PRIMES = (2, 3, 5, 7)

# The command-line spelling of each case identifier.
CASE_FLAG = {
    "SO_odd_std": "so-odd",
    "SO_even_std": "so-even",
    "Sp2n_std_Cn": "sp-cn",
    "GSp2n_wedge_dual": "siegel",
    "GLn_wedge_dualsum": "gl-dualsum",
    "GL4_wedge2": "gl4-wedge2",
    "GSpin_spin_odd": "gspin-odd",
    "GSpin_spin_even": "gspin-even",
}

# strata-warm tables, most popular first. Ranks keep one warm table between
# about 5 and 120 ms; popularity falls as tables grow, so the Zipf head is
# made of the small tables a service would see most.
WARM_POOL: Tuple[Tuple[str, int], ...] = (
    ("GL4_wedge2", 4),
    ("SO_odd_std", 4),
    ("GSpin_spin_even", 4),
    ("Sp2n_std_Cn", 4),
    ("GSpin_spin_odd", 4),
    ("SO_even_std", 4),
    ("GSp2n_wedge_dual", 4),
    ("GLn_wedge_dualsum", 8),
    ("GSpin_spin_even", 5),
    ("SO_odd_std", 5),
    ("Sp2n_std_Cn", 5),
    ("GLn_wedge_dualsum", 9),
    ("GSpin_spin_odd", 5),
    ("SO_even_std", 5),
    ("GSpin_spin_even", 6),
    ("SO_odd_std", 6),
    ("GSp2n_wedge_dual", 5),
    ("Sp2n_std_Cn", 6),
    ("GLn_wedge_dualsum", 10),
    ("GSpin_spin_odd", 6),
    ("SO_even_std", 6),
    ("GLn_wedge_dualsum", 11),
    ("SO_odd_std", 7),
    ("Sp2n_std_Cn", 7),
)

# Copies of the k-th most popular table in one strata-warm window:
# max(1, round(ZIPF_HEAD / k)), a Zipf law with exponent 1 that still keeps
# every table in every window.
ZIPF_HEAD = 12

# Ranks of the point queries on the orthogonal family words.
POINT_RANKS = {"B": (4, 5, 6), "D": (4, 5, 6)}

# strata-cold visits each of these once per sweep: every case from its
# smallest rank up to a rank whose cold table stays under about 0.5 s.
COLD_POOL: Tuple[Tuple[str, int], ...] = (
    tuple(("SO_odd_std", r) for r in range(2, 8))
    + tuple(("SO_even_std", r) for r in range(3, 8))
    + tuple(("Sp2n_std_Cn", r) for r in range(1, 8))
    + tuple(("GSp2n_wedge_dual", r) for r in range(1, 7))
    + tuple(("GLn_wedge_dualsum", r) for r in range(2, 12))
    + (("GL4_wedge2", 4),)
    + tuple(("GSpin_spin_odd", r) for r in range(2, 8))
    + tuple(("GSpin_spin_even", r) for r in range(3, 8))
)

# oracle-check window: per GL(n) cells, then Pluecker and symplectic ops.
ORACLE_CELL_NS = (5, 6, 7)
ORACLE_CELLS_PER_N = 12
ORACLE_PLUCKER_NS = range(2, 8)
ORACLE_GSP_NS = range(1, 7)
ORACLE_REPEATS = 2
ORACLE_LAMBDA_MAX = 3


def expected_strata(case: str, rank: int) -> int:
    """|W^I| for the case's parabolic, from the closed forms of each type."""
    if case == "GSp2n_wedge_dual":
        return 2**rank
    if case == "GLn_wedge_dualsum":
        return rank
    if case == "GL4_wedge2":
        return 6
    return 2 * rank


def word_str(word: Sequence[int]) -> str:
    return " ".join(f"s{letter}" for letter in word) if word else "e"


def fundamental_weight(cartan_type: str, m: int, i: int) -> Tuple[Fraction, ...]:
    """The i-th fundamental weight of type A (rank m, integral GL form), B or
    D, in the ambient coordinates of ``zipstrata.rootsys``."""
    half = Fraction(1, 2)
    if cartan_type == "A":
        return tuple(Fraction(1 if k < i else 0) for k in range(m + 1))
    if cartan_type == "B" and i == m:
        return (half,) * m
    if cartan_type == "D" and i >= m - 1:
        last = half if i == m else -half
        return (half,) * (m - 1) + (last,)
    return tuple(Fraction(1 if k < i else 0) for k in range(m))


def combine(coeffs: Sequence[int], cartan_type: str, m: int) -> Tuple[Fraction, ...]:
    """The weight sum_i coeffs[i-1] * omega_i."""
    total = [Fraction(0)] * (m + 1 if cartan_type == "A" else m)
    for i, c in enumerate(coeffs, start=1):
        for k, x in enumerate(fundamental_weight(cartan_type, m, i)):
            total[k] += c * x
    return tuple(total)


# -- references -------------------------------------------------------------


def load_references() -> Dict[str, dict]:
    refs = {}
    for name in ("strata", "family", "gl_cells"):
        with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
            refs[name] = json.load(handle)
    return refs


def table_reference(refs: Dict[str, dict], case: str, rank: int) -> List[dict]:
    return refs["strata"][case][str(rank)]


# -- request generation -----------------------------------------------------


def warm_window(rng: random.Random, refs: Dict[str, dict]) -> List[tuple]:
    """One window of strata-warm traffic: every pool table with its Zipf
    count, each at a seeded prime, plus one point query per three tables on
    a seeded family word and a seeded dominant weight; seeded order."""
    ops: List[tuple] = []
    for k, (case, rank) in enumerate(WARM_POOL, start=1):
        for _ in range(max(1, round(ZIPF_HEAD / k))):
            ops.append(("table", case, rank, rng.choice(PRIMES)))
    for _ in range(round(len(ops) / 3)):
        cartan_type = rng.choice(sorted(POINT_RANKS))
        m = rng.choice(POINT_RANKS[cartan_type])
        entry = rng.choice(refs["family"][cartan_type][str(m)])
        coeffs = [rng.randrange(0, 4) for _ in range(m)]
        lam = combine(coeffs, cartan_type, m)
        expected = sum(c * a for c, a in zip(entry["coeffs"], coeffs))
        ops.append(("point", cartan_type, m, tuple(entry["word"]), lam, expected))
    rng.shuffle(ops)
    return ops


def cold_window(rng: random.Random) -> List[tuple]:
    """One strata-cold sweep: each pool (case, rank) once, seeded order and
    prime."""
    ops = [("cli", case, rank, rng.choice(PRIMES)) for case, rank in COLD_POOL]
    rng.shuffle(ops)
    return ops


def _dominant(rng: random.Random, n: int) -> Tuple[int, ...]:
    return tuple(
        sorted((rng.randrange(0, ORACLE_LAMBDA_MAX + 1) for _ in range(n)), reverse=True)
    )


def oracle_window(rng: random.Random, refs: Dict[str, dict]) -> List[tuple]:
    """One window of oracle-check traffic: seeded covered GL(n) cells with
    seeded dominant weights, Pluecker orders of seeded permutations and
    symplectic point orders at seeded witnesses and curve points."""
    ops: List[tuple] = []
    for _ in range(ORACLE_REPEATS):
        for n in ORACLE_CELL_NS:
            for _ in range(ORACLE_CELLS_PER_N):
                entry = rng.choice(refs["gl_cells"][str(n)])
                lam = _dominant(rng, n)
                expected = sum(
                    c * (lam[i] - lam[i + 1]) for i, c in enumerate(entry["coeffs"])
                )
                ops.append(("cell", n, tuple(entry["w"]), tuple(entry["word"]), lam, expected))
        for n in ORACLE_PLUCKER_NS:
            w = list(range(1, n + 1))
            rng.shuffle(w)
            ops.append(("plucker", n, tuple(w), 2 if w[0] != n else 0))
        for n in ORACLE_GSP_NS:
            p = rng.choice(PRIMES)
            if rng.random() < 0.5:
                i = rng.randrange(0, n + 1)
                ops.append(("witness", n, p, i, n - i))
            else:
                a = tuple(rng.randrange(0, p) for _ in range(n))
                ops.append(("curve", n, p, a, sum(1 for x in a if x % p == 0)))
    rng.shuffle(ops)
    return ops


def warm_up_ops(refs: Dict[str, dict]) -> List[tuple]:
    """strata-warm warm-up: every pool table once and every point-query word
    once, so the timed phase finds each closedness check cached."""
    ops: List[tuple] = [("table", case, rank, 3) for case, rank in WARM_POOL]
    for cartan_type in sorted(POINT_RANKS):
        for m in POINT_RANKS[cartan_type]:
            for entry in refs["family"][cartan_type][str(m)]:
                lam = combine([1] * m, cartan_type, m)
                expected = sum(entry["coeffs"])
                ops.append(("point", cartan_type, m, tuple(entry["word"]), lam, expected))
    return ops


# -- execution and checks ---------------------------------------------------


def table_rows_from_result(result) -> List[dict]:
    """The reference row fields readable from a CaseResult without calling
    back into the library."""
    return [
        {
            "w": list(r.w),
            "word": word_str(r.word),
            "bruhat_w": list(r.bruhat_class),
            "ord": r.ord,
            "clp": r.clp,
            "ogus": r.ogus_holds,
        }
        for r in result.reports
    ]


TABLE_KEYS = ("w", "word", "bruhat_w", "ord", "clp", "ogus")
CLI_KEYS = ("word", "length", "bruhat", "ord", "clp", "ogus")


def check_table(case: str, rank: int, rows: List[dict], reference: List[dict],
                keys: Sequence[str], mutate: bool) -> str:
    """Empty string when the table matches the reference on ``keys`` and
    satisfies the stratum invariants; otherwise the first problem found."""
    got = [{k: row.get(k) for k in keys} for row in rows]
    expected = [{k: row[k] for k in keys} for row in reference]
    if mutate:
        expected[0]["ord"] += 1
    if got != expected:
        return f"{case} rank {rank}: table differs from the reference"
    if len(rows) != expected_strata(case, rank):
        return f"{case} rank {rank}: {len(rows)} strata, expected {expected_strata(case, rank)}"
    for k, row in enumerate(got):
        if row["ord"] > row["clp"]:
            return f"{case} rank {rank}: ord > clp on {row['word']}"
        minimal = k == len(got) - 1
        if row["ord"] != row["clp"] and not (case == "Sp2n_std_Cn" and minimal):
            return f"{case} rank {rank}: ord != clp on {row['word']}"
    return ""


def execute(op: tuple, lib, refs: Dict[str, dict], mutate: bool) -> Tuple[float, str]:
    """Run one in-process operation; return its latency in seconds and an
    empty string, or a failure description."""
    kind = op[0]
    start = time.perf_counter()
    try:
        if kind == "table":
            _, case, rank, prime = op
            result = lib.cases.run_case(lib.cases.CaseSpec(case, rank, prime))
        elif kind == "point":
            _, cartan_type, m, word, lam, expected = op
            value = lib.vanishing.ord_for_word(
                lib.rootsys.root_system(cartan_type, m), lam, word
            )
        elif kind == "cell":
            _, n, w, word, lam, expected = op
            oracle_value = lib.oracle.gl_cell_order(n, lam, w)
            value = lib.vanishing.ord_for_word(
                lib.rootsys.root_system("A", n - 1), lib.rootsys.vec(*lam), word
            )
        elif kind == "plucker":
            _, n, w, expected = op
            value = lib.oracle.gl_plucker_order(n, w)
        elif kind == "witness":
            _, n, p, i, expected = op
            value = lib.oracle.gsp_point_order(n, p, lib.oracle.gsp_witness(n, i))
        else:
            _, n, p, a, expected = op
            value = lib.oracle.gsp_point_order(n, p, lib.oracle.gsp_psi_curve_point(n, a))
    except Exception as err:  # an operation that raises is a failed operation
        return time.perf_counter() - start, f"{op[:3]} raised {err!r}"
    latency = time.perf_counter() - start
    if kind == "table":
        rows = table_rows_from_result(result)
        reference = table_reference(refs, case, rank)
        return latency, check_table(case, rank, rows, reference, TABLE_KEYS, mutate)
    if mutate:
        expected += 1
    if kind == "cell" and oracle_value != value:
        return latency, f"GL({n}) cell {w} at {lam}: oracle {oracle_value}, formula {value}"
    if value != expected:
        return latency, f"{op[:3]}: got {value}, reference {expected}"
    return latency, ""


def run_cli_op(op: tuple, cli, refs: Dict[str, dict], mutate: bool) -> Tuple[float, str]:
    """Run one strata-cold operation through ``cli.main`` with stdout
    captured, then parse and check the JSON table."""
    _, case, rank, prime = op
    argv = ["strata", "--case", CASE_FLAG[case], "--n", str(rank),
            "--prime", str(prime), "--format", "json"]
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as err:  # argparse rejects the arguments this way
        code = err.code
    except Exception as err:  # an operation that raises is a failed operation
        return time.perf_counter() - start, f"{argv} raised {err!r}"
    latency = time.perf_counter() - start
    if code != 0:
        return latency, f"{argv} exited {code}"
    try:
        payload = json.loads(buffer.getvalue())
    except ValueError:
        return latency, f"{argv} printed no JSON"
    header = (payload.get("schema_version"), payload.get("case"),
              payload.get("rank"), payload.get("prime"))
    if header != (1, CASE_FLAG[case], rank, prime):
        return latency, f"{argv}: header {header}"
    reference = table_reference(refs, case, rank)
    rows = payload.get("strata", [])
    return latency, check_table(case, rank, rows, reference, CLI_KEYS, mutate)
