"""Command-line front end: stratum tables, verification sweeps, single queries.

Four subcommands. ``strata`` prints one row per stratum of a case (word,
length, Bruhat class, vanishing order, line position, agreement flag) in
text, JSON, or CSV. ``verify`` runs the consistency suites and exits nonzero
on the first counterexample. ``ord`` and ``clp`` answer one-off questions
about a single word or stratum.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cases import (
    CASE_BY_FLAG,
    PRESETS,
    PRIME_MAX,
    CaseSpec,
    StratumReport,
    check_spec,
    functoriality_check_A3_D3,
    is_prime,
    run_case,
    siegel_cross_check,
)
from .oracle import gl_cell_order, gl_plucker_order
from .rootsys import RootSystem, Vector, root_system, sum_vectors, unit, vec
from .vanishing import (
    condition_closed,
    family_word_typeB,
    family_word_typeD,
    ord_for_word,
)
from .weyl import WeylGroup, weyl_group

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs to know about one invocation."""

    case: str
    rank: int
    prime: int
    fmt: str
    oracle: bool


def _word_str(word: Sequence[int]) -> str:
    if not word:
        return "e"
    return " ".join(f"s{letter}" for letter in word)


def _parse_word(text: str) -> Tuple[int, ...]:
    if text.strip() in ("", "e"):
        return ()
    letters = []
    for token in text.split():
        raw = token[1:] if token.startswith("s") else token
        if not raw.isdigit() or int(raw) < 1:
            raise ValueError(f"cannot read {token!r} as a simple reflection")
        letters.append(int(raw))
    return tuple(letters)


def fundamental_weights(system: RootSystem) -> Tuple[Vector, ...]:
    """Fundamental weights in ambient coordinates, dual to the coroots.

    Linear types use the trace-free representatives; pairings against the
    simple coroots do not see the central shift either way.
    """
    m = system.rank
    dim = system.ambient_dim
    ones: Callable[[int], Vector] = lambda k: sum_vectors(
        [unit(dim, i) for i in range(1, k + 1)], dim
    )
    half = Fraction(1, 2)
    weights: List[Vector] = []
    for i in range(1, m + 1):
        if system.cartan_type == "A":
            shift = Fraction(i, dim)
            weights.append(vec(*(
                (1 - shift if k <= i else -shift) for k in range(1, dim + 1)
            )))
        elif system.cartan_type == "B":
            weights.append(
                vec(*(half,) * m) if i == m else ones(i)
            )
        elif system.cartan_type == "C":
            weights.append(ones(i))
        else:
            if i <= m - 2:
                weights.append(ones(i))
            else:
                last = half if i == m else -half
                weights.append(vec(*((half,) * (m - 1) + (last,))))
    return tuple(weights)


def _parse_lambda(spec: str, system: RootSystem, basis: str) -> Vector:
    spec = spec.strip()
    if basis == "fundamental":
        coeffs = [Fraction(part) for part in spec.split(",")]
        if len(coeffs) != system.rank:
            raise ValueError(
                f"expected {system.rank} fundamental coefficients, "
                f"got {len(coeffs)}"
            )
        weights = fundamental_weights(system)
        return sum_vectors(
            [vec(*(c * x for x in w)) for c, w in zip(coeffs, weights)],
            system.ambient_dim,
        )
    if spec.startswith("e") and spec[1:].isdigit():
        return unit(system.ambient_dim, int(spec[1:]))
    coords = [Fraction(part) for part in spec.split(",")]
    if len(coords) != system.ambient_dim:
        raise ValueError(
            f"expected {system.ambient_dim} coordinates, got {len(coords)}"
        )
    return vec(*coords)


# -- strata ---------------------------------------------------------------------


def _stratum_row(report: StratumReport, group: WeylGroup) -> Dict[str, object]:
    return {
        "word": _word_str(report.word),
        "length": len(report.word),
        "bruhat": _word_str(group.reduced_word(report.bruhat_class)),
        "ord": report.ord,
        "clp": report.clp,
        "ogus": report.ogus_holds,
    }


def _render_text(config: RunConfig, rows: List[Dict[str, object]]) -> str:
    headers = ["word", "length", "bruhat", "ord", "clp", "ogus"]
    table = [[str(row[h]) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(line[k]) for line in table))
        for k, h in enumerate(headers)
    ]
    out = [
        f"case {config.case}  rank {config.rank}  prime {config.prime}",
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
    ]
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    agreeing = sum(1 for row in rows if row["ogus"])
    out.append(f"ogus principle holds on {agreeing}/{len(rows)} strata")
    return "\n".join(out) + "\n"


def _render_json(config: RunConfig, rows: List[Dict[str, object]]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "case": config.case,
        "rank": config.rank,
        "prime": config.prime,
        "strata": rows,
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(config: RunConfig, rows: List[Dict[str, object]]) -> str:
    headers = ["word", "length", "bruhat", "ord", "clp", "ogus"]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow([row[h] for h in headers])
    return buffer.getvalue()


def _oracle_recheck(config: RunConfig, result) -> Optional[str]:
    """Re-derive the order column from matrix models where one exists."""
    if config.case == "siegel":
        ok, detail = siegel_cross_check(config.rank, config.prime)
        return None if ok else detail
    if config.case == "gl-dualsum" and config.rank <= 6:
        for report in result.reports:
            got = gl_plucker_order(config.rank, report.w)
            if got != report.ord:
                return (
                    f"stratum {_word_str(report.word)}: oracle order {got}, "
                    f"formula {report.ord}"
                )
        return None
    return None


def cmd_strata(config: RunConfig, output: Optional[str]) -> int:
    result = run_case(
        CaseSpec(CASE_BY_FLAG[config.case], config.rank, config.prime)
    )
    group = result.datum.group
    rows = [_stratum_row(report, group) for report in result.reports]
    if config.oracle:
        complaint = _oracle_recheck(config, result)
        if complaint is not None:
            print(f"oracle disagrees: {complaint}", file=sys.stderr)
            return 1
    renderer = {
        "text": _render_text,
        "json": _render_json,
        "csv": _render_csv,
    }[config.fmt]
    rendered = renderer(config, rows)
    if output is None:
        sys.stdout.write(rendered)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0


# -- verify ---------------------------------------------------------------------


# Largest rank ``verify --closedness`` sweeps, checked before any root system
# is built: the family words of B_24 or D_24 take about 0.5 s on a 2-vCPU Xeon.
CLOSEDNESS_RANK_CAP = 24


def _check_closedness(
    types: Sequence[str], ranks: Optional[Sequence[int]]
) -> Tuple[bool, str]:
    checked = 0
    for cartan_type in types:
        builder = family_word_typeB if cartan_type == "B" else family_word_typeD
        sweep = ranks if ranks is not None else (
            range(2, 7) if cartan_type == "B" else range(3, 7)
        )
        for m in sweep:
            system = root_system(cartan_type, m)
            for j in range(1, m + 1):
                for l in range(0, m + 1):
                    try:
                        word = builder(m, j, l)
                    except ValueError:
                        continue
                    ok, witness = condition_closed(system, word)
                    if not ok:
                        return False, (
                            f"type {cartan_type} m={m}: word {word} fails "
                            f"at {witness}"
                        )
                    checked += 1
    return True, f"{checked} family words closed"


def _check_functoriality(
    primes: Sequence[int], mutate: bool
) -> Tuple[bool, str]:
    for p in primes:
        ok, detail = functoriality_check_A3_D3(p, scramble=mutate)
        if not ok:
            return False, f"p={p}: {detail}"
    return True, f"tables match for p in {list(primes)}"


def _check_siegel(
    ns: Sequence[int], primes: Sequence[int]
) -> Tuple[bool, str]:
    for n in ns:
        for p in primes:
            ok, detail = siegel_cross_check(n, p)
            if not ok:
                return False, f"n={n} p={p}: {detail}"
    return True, f"n in {list(ns)}, p in {list(primes)}"


def _dominant_lambdas(dim: int, seed: int) -> List[Tuple[int, ...]]:
    fixed = [
        tuple([0] * dim),
        tuple([1] + [0] * (dim - 1)),
        tuple([2, 1] + [0] * (dim - 2)),
    ]
    rng = random.Random(seed)
    for _ in range(3):
        fixed.append(tuple(
            sorted((rng.randrange(0, 3) for _ in range(dim)), reverse=True)
        ))
    return fixed


def _check_oracle(seed: int, mutate: bool) -> Tuple[bool, str]:
    """Compare the word formulas against polynomial cell orders on small
    linear groups, for every element whose word the formulas cover.
    """
    checked = 0
    for n in (3, 4):
        system = root_system("A", n - 1)
        group = weyl_group("A", n - 1)
        for lam_ints in _dominant_lambdas(n, seed):
            lam = vec(*lam_ints)
            for w in group.elements():
                word = group.reduced_word(w)
                try:
                    expected = ord_for_word(system, lam, word)
                except ValueError:
                    continue
                if mutate:
                    expected += 1
                got = gl_cell_order(n, lam_ints, w)
                if got != expected:
                    return False, (
                        f"GL_{n}, lambda {lam_ints}, word {_word_str(word)}: "
                        f"formula {expected}, oracle {got}"
                    )
                checked += 1
    return True, f"{checked} cell orders match"


def cmd_verify(args: argparse.Namespace) -> int:
    selected = {
        name
        for name, wanted in (
            ("closedness", args.closedness),
            ("functoriality", args.functoriality),
            ("siegel", args.siegel),
            ("oracle", args.oracle_suite),
        )
        if wanted
    }
    if not selected:
        selected = {"closedness", "functoriality", "siegel", "oracle"}
        if args.no_oracle:
            selected.discard("oracle")
    primes = args.prime or [2, 3, 5]
    types = [args.cartan_type] if args.cartan_type else ["B", "D"]
    ranks = [args.rank] if args.rank is not None else None
    ns = [args.rank] if args.rank is not None else [1, 2, 3]
    # Every selected suite's ceiling is checked before the first one runs,
    # so a usage error prints no partial results.
    if "closedness" in selected and ranks is not None and max(ranks) > CLOSEDNESS_RANK_CAP:
        raise ValueError(
            f"closedness rank {max(ranks)} is above the ceiling of "
            f"{CLOSEDNESS_RANK_CAP}"
        )
    if "siegel" in selected:
        for n in ns:
            for p in primes:
                check_spec(CaseSpec("GSp2n_wedge_dual", n, p))
    failures = 0
    for name in ("closedness", "functoriality", "siegel", "oracle"):
        if name not in selected:
            continue
        if name == "closedness":
            ok, detail = _check_closedness(types, ranks)
        elif name == "functoriality":
            ok, detail = _check_functoriality(primes, args.mutate)
        elif name == "siegel":
            ok, detail = _check_siegel(ns, primes)
        else:
            ok, detail = _check_oracle(args.seed, args.mutate)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


# -- single queries -------------------------------------------------------------


def cmd_ord(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    word = _parse_word(args.word)
    if not word:
        parser.error("the word must contain at least one letter")
    cartan_type = args.cartan_type or "A"
    rank = args.rank if args.rank is not None else max(word)
    system = root_system(cartan_type, rank)
    lam = _parse_lambda(args.lam, system, args.basis)
    try:
        print(ord_for_word(system, lam, word))
    except ValueError as err:
        print(f"cannot evaluate: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_clp(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _config_from(args, parser)
    result = run_case(
        CaseSpec(CASE_BY_FLAG[config.case], config.rank, config.prime)
    )
    if args.word is not None:
        wanted = _parse_word(args.word)
        matches = [r for r in result.reports if r.word == wanted]
    elif args.w_length is not None:
        matches = [r for r in result.reports if len(r.word) == args.w_length]
    else:
        matches = list(result.reports)
    if not matches:
        print("no stratum matches the filter", file=sys.stderr)
        return 1
    if len(matches) == 1:
        print(matches[0].clp)
    else:
        for report in matches:
            print(f"{_word_str(report.word)}: {report.clp}")
    return 0


# -- wiring ---------------------------------------------------------------------


def _prime(text: str) -> int:
    """argparse type of ``--prime``: a prime at most ``PRIME_MAX``."""
    try:
        p = int(text)
        if is_prime(p):
            return p
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err
    raise argparse.ArgumentTypeError(f"{p} is not a prime")


def _add_case_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--case", required=True, choices=sorted(CASE_BY_FLAG),
        help="which case to run",
    )
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--m", dest="rank", type=int, help="rank (orthogonal/spin naming)")
    group.add_argument("--n", dest="rank", type=int, help="rank (linear/symplectic naming)")
    sub.add_argument(
        "--prime", type=_prime, default=3,
        help=f"working prime, at most {PRIME_MAX} (default 3)",
    )


def _config_from(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> RunConfig:
    rank = args.rank
    if rank is None:
        preset = PRESETS[CASE_BY_FLAG[args.case]]
        if preset.max_rank != preset.min_rank:
            parser.error(f"case {args.case} needs --m or --n")
        rank = preset.min_rank
    return RunConfig(
        case=args.case,
        rank=rank,
        prime=args.prime,
        fmt=getattr(args, "format", "text"),
        oracle=getattr(args, "oracle", False),
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` in the process. argparse keeps no state between parses:
    each parse fills a fresh namespace and copies ``append`` defaults."""
    parser = argparse.ArgumentParser(
        prog="zipstrata",
        description=(
            "Vanishing orders of Hasse sections versus conjugate line "
            "positions, stratum by stratum."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    strata = commands.add_parser(
        "strata", help="tabulate ord and clp on every stratum of a case"
    )
    _add_case_flags(strata)
    strata.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    strata.add_argument("--output", help="write the table to a file")
    strata.add_argument(
        "--oracle", action="store_true",
        help="re-derive the order column from the matrix oracle where possible",
    )

    verify = commands.add_parser(
        "verify", help="run the consistency suites, exit nonzero on failure"
    )
    verify.add_argument("--closedness", action="store_true")
    verify.add_argument("--functoriality", action="store_true")
    verify.add_argument("--siegel", action="store_true")
    verify.add_argument("--oracle-suite", action="store_true")
    verify.add_argument("--no-oracle", action="store_true",
                        help="drop the oracle suite from the default set")
    verify.add_argument("--mutate", action="store_true",
                        help="negative control: inject a wrong constant and a "
                             "scrambled relabeling; the suite must fail")
    verify.add_argument("--type", dest="cartan_type", choices=("B", "D"))
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--m", dest="rank", type=int)
    group.add_argument("--n", dest="rank", type=int)
    verify.add_argument(
        "--prime", type=_prime, action="append",
        help=f"prime to verify at, at most {PRIME_MAX}; repeatable (default 2, 3, 5)",
    )
    verify.add_argument("--seed", type=int, default=0)

    order = commands.add_parser(
        "ord", help="vanishing order of one word against one weight"
    )
    order.add_argument("--type", dest="cartan_type",
                       choices=("A", "B", "C", "D"))
    group = order.add_mutually_exclusive_group()
    group.add_argument("--m", dest="rank", type=int)
    group.add_argument("--n", dest="rank", type=int)
    order.add_argument("--lambda", dest="lam", default="e1",
                       help="weight: e<k>, or comma-separated coordinates")
    order.add_argument("--basis", choices=("e", "fundamental"), default="e",
                       help="how to read a comma-separated --lambda")
    order.add_argument("--word", required=True,
                       help="whitespace-separated letters, e.g. 's1 s2 s1'")

    clp_cmd = commands.add_parser(
        "clp", help="conjugate line position of one stratum"
    )
    _add_case_flags(clp_cmd)
    clp_cmd.add_argument("--w-length", type=int,
                         help="select strata whose label has this length")
    clp_cmd.add_argument("--word", help="select one stratum by its word")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "strata":
            return cmd_strata(_config_from(args, parser), args.output)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "ord":
            return cmd_ord(args, parser)
        return cmd_clp(args, parser)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
