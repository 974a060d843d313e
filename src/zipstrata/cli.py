"""Command-line front end: stratum tables, verification sweeps, single queries.

Four subcommands, each a ``cmd_*`` function of the parsed arguments and
the parser, set as its subparser's ``run`` default. ``strata`` prints one
row per stratum of a case, in the columns of ``COLUMNS`` (word, length,
Bruhat class, vanishing order, line position, agreement flag), in a format
of ``RENDERERS``: text, JSON or CSV. ``verify`` runs the consistency suites
of ``SUITES``, each up to its first counterexample, and exits nonzero if
any fails. ``ord`` and ``clp`` answer one-off questions about a single word
or stratum; ``strata`` and ``clp`` read their case from the same flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
)
from .oracle import gl_cell_order
from .rootsys import RootSystem, Vector, root_system, sum_vectors, unit, vec
from .vanishing import (
    condition_closed,
    family_word_typeB,
    family_word_typeD,
    ord_for_word,
)
from .weyl import Perm, weyl_group

SCHEMA_VERSION = 1


def _word_str(word: Sequence[int]) -> str:
    if not word:
        return "e"
    return "s" + " s".join(map(str, word))


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
        elif system.cartan_type == "B" and i == m:
            weights.append(vec(*(half,) * m))
        elif system.cartan_type != "D" or i <= m - 2:
            weights.append(ones(i))
        else:
            weights.append(vec(*(half,) * (m - 1), half if i == m else -half))
    return tuple(weights)


# An integer, a decimal or p/q with q nonzero: ``Fraction`` also reads an
# exponent, and 1e10000000 would build a ten-million-digit integer.
_COORDINATE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+|\d+/0*[1-9]\d*)")


def _coordinates(spec: str) -> List[Fraction]:
    """The comma-separated numbers of ``--lambda``, each checked first."""
    parts = [part.strip() for part in spec.split(",")]
    for part in parts:
        if not _COORDINATE.fullmatch(part):
            raise ValueError(f"cannot read {part!r} as an integer, a decimal or p/q, q != 0")
    return [Fraction(part) for part in parts]


def _parse_lambda(spec: str, system: RootSystem, basis: str) -> Vector:
    spec, dim = spec.strip(), system.ambient_dim
    if basis == "e" and spec.startswith("e") and spec[1:].isdigit():
        return unit(dim, int(spec[1:]))
    coords = _coordinates(spec)
    fundamental = basis == "fundamental"
    size = system.rank if fundamental else dim
    if len(coords) != size:
        kind = "fundamental coefficients" if fundamental else "coordinates"
        raise ValueError(f"expected {size} {kind}, got {len(coords)}")
    if not fundamental:
        return vec(*coords)
    weights = fundamental_weights(system)
    return sum_vectors([vec(*(c * x for x in w)) for c, w in zip(coords, weights)], dim)


# -- strata ---------------------------------------------------------------------


# The columns of a stratum row, in the order every format prints them.
COLUMNS = ("word", "length", "bruhat", "ord", "clp", "ogus")
Row = Tuple[str, int, str, int, int, bool]


def _stratum_row(report: StratumReport, texts: Mapping[Perm, str]) -> Row:
    """The report's row in ``COLUMNS`` order; ``texts`` prints each label."""
    return (texts[report.w], len(report.word), texts[report.bruhat_class],
            report.ord, report.clp, report.ogus_holds)


def _render_text(header: Dict[str, object], rows: List[Row]) -> str:
    table = [list(map(str, row)) for row in rows]
    widths = [
        max(len(h), *(len(line[k]) for line in table))
        for k, h in enumerate(COLUMNS)
    ]
    out = ["  ".join(f"{key} {value}" for key, value in header.items())]
    for line in [COLUMNS] + table:
        # The last column is not padded, so no line ends in a space.
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    agreeing = sum(1 for row in rows if row[-1])
    out.append(f"ogus principle holds on {agreeing}/{len(rows)} strata")
    return "\n".join(out) + "\n"


# The item separators of ``indent=2`` at the header's depth, for the C encoder
# (``indent`` itself runs the pure-Python one), and a row laid out at its depth:
# the words are letters, digits and spaces, which need no escaping.
_HEAD_JSON = json.JSONEncoder(separators=(",\n  ", ": "))
_ROW_JSON = ('{{\n      "word": "{}",\n      "length": {},\n      "bruhat": "{}",'
             '\n      "ord": {},\n      "clp": {},\n      "ogus": {}\n    }}')
_JSON_FLAG = {False: "false", True: "true"}


def _render_json(header: Dict[str, object], rows: List[Row]) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` byte for byte, with each row
    the object of its ``COLUMNS``: the C-encoded header with its braces
    opened onto lines, and each row one format call."""
    head = _HEAD_JSON.encode({"schema_version": SCHEMA_VERSION, **header})
    body = ",\n    ".join(_ROW_JSON.format(*row[:-1], _JSON_FLAG[row[-1]]) for row in rows)
    return "{\n  " + head[1:-1] + ',\n  "strata": [\n    ' + body + "\n  ]\n}\n"


def _render_csv(header: Dict[str, object], rows: List[Row]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue()


# ``strata --format`` choices, each a renderer of the header and the rows.
RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def cmd_strata(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Print the case's table; with ``--oracle``, first check it against the
    preset's matrix oracle, refusing a preset that has none, or a rank above
    the oracle's ceiling, before anything is built."""
    spec = _case_spec(args, parser)
    check = None
    if args.oracle:
        oracle = PRESETS[spec.identifier].oracle
        if oracle is None:
            raise ValueError(f"case {args.case} has no matrix oracle for --oracle")
        check = oracle(spec)
    result = run_case(spec)
    texts = {report.w: _word_str(report.word) for report in result.reports}
    rows = [_stratum_row(report, texts) for report in result.reports]
    if check is not None:
        complaint = check(result)
        if complaint is not None:
            print(f"oracle disagrees: {complaint}", file=sys.stderr)
            return 1
    header = {"case": args.case, "rank": spec.rank, "prime": spec.prime}
    rendered = RENDERERS[args.format](header, rows)
    if args.output is None:
        sys.stdout.write(rendered)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    except OSError as err:
        raise ValueError(f"cannot write the table: {err}") from err
    return 0


# -- verify ---------------------------------------------------------------------


# The verify suites in the order they run. ``verify --<name>`` selects one;
# with none selected all run, less ``oracle`` under ``--no-oracle``. Each is
# ``_check_<name>(args)``, looked up in the module when it runs, and returns
# whether it passed with a one-line detail.
SUITES = ("closedness", "functoriality", "siegel", "oracle")

# Largest rank ``verify --closedness`` sweeps, checked before any root system
# is built: the family words of B_24 or D_24 take about 0.5 s on a 2-vCPU Xeon.
CLOSEDNESS_RANK_CAP = 24


def _primes(args: argparse.Namespace) -> List[int]:
    """``--prime``, 2, 3 and 5 by default (``append`` would add to a default)."""
    return args.prime or [2, 3, 5]


def _siegel_ranks(args: argparse.Namespace) -> List[int]:
    return [args.rank] if args.rank is not None else [1, 2, 3]


def _check_closedness(args: argparse.Namespace) -> Tuple[bool, str]:
    """Every family word of B (ranks 2 to 6) and D (3 to 6), or of ``--type``
    at ``--m``, meets the closedness condition."""
    checked = 0
    for cartan_type in (args.cartan_type,) if args.cartan_type else ("B", "D"):
        builder = family_word_typeB if cartan_type == "B" else family_word_typeD
        sweep = [args.rank] if args.rank is not None else (
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


def _check_functoriality(args: argparse.Namespace) -> Tuple[bool, str]:
    primes = _primes(args)
    for p in primes:
        ok, detail = functoriality_check_A3_D3(p, scramble=args.mutate)
        if not ok:
            return False, f"p={p}: {detail}"
    return True, f"tables match for p in {primes}"


def _check_siegel(args: argparse.Namespace) -> Tuple[bool, str]:
    """The Siegel preset's oracle on its case at every rank and prime, the
    check ``strata --oracle`` runs."""
    identifier = CASE_BY_FLAG["siegel"]
    ns, primes = _siegel_ranks(args), _primes(args)
    for n in ns:
        for p in primes:
            spec = CaseSpec(identifier, n, p)
            complaint = PRESETS[identifier].oracle(spec)(run_case(spec))
            if complaint is not None:
                return False, f"n={n} p={p}: {complaint}"
    return True, f"n in {ns}, p in {primes}"


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


def _check_oracle(args: argparse.Namespace) -> Tuple[bool, str]:
    """Compare the word formulas against polynomial cell orders on small
    linear groups, for every element whose word the formulas cover; the
    elements and their words are ``min_coset_reps(())``: W^I with I empty
    is W.
    """
    checked = 0
    for n in (3, 4):
        system = root_system("A", n - 1)
        words = weyl_group("A", n - 1).min_coset_reps(())
        for lam_ints in _dominant_lambdas(n, args.seed):
            lam = vec(*lam_ints)
            for w, word in words.items():
                try:
                    expected = ord_for_word(system, lam, word)
                except ValueError:
                    continue
                if args.mutate:
                    expected += 1
                got = gl_cell_order(n, lam_ints, w)
                if got != expected:
                    return False, (
                        f"GL_{n}, lambda {lam_ints}, word {_word_str(word)}: "
                        f"formula {expected}, oracle {got}"
                    )
                checked += 1
    return True, f"{checked} cell orders match"


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    selected = [name for name in SUITES if getattr(args, name)] or [
        name for name in SUITES if not (args.no_oracle and name == "oracle")
    ]
    # Every selected suite's ceiling is checked before the first one runs,
    # so a usage error prints no partial results.
    if "closedness" in selected and args.rank is not None and args.rank > CLOSEDNESS_RANK_CAP:
        raise ValueError(
            f"closedness rank {args.rank} is above the ceiling of "
            f"{CLOSEDNESS_RANK_CAP}"
        )
    if "siegel" in selected:
        for n in _siegel_ranks(args):
            for p in _primes(args):
                check_spec(CaseSpec(CASE_BY_FLAG["siegel"], n, p))
    failed = False
    for name in selected:
        ok, detail = globals()[f"_check_{name}"](args)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


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
    result = run_case(_case_spec(args, parser))
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


def _add_rank_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--m", dest="rank", type=int, help="rank (orthogonal/spin naming)")
    group.add_argument("--n", dest="rank", type=int, help="rank (linear/symplectic naming)")


def _add_case_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--case", required=True, choices=sorted(CASE_BY_FLAG),
        help="which case to run",
    )
    _add_rank_flags(sub)
    sub.add_argument(
        "--prime", type=_prime, default=3,
        help=f"working prime, at most {PRIME_MAX} (default 3)",
    )


def _case_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CaseSpec:
    """The spec of ``--case``, ``--m``/``--n`` and ``--prime``; a preset of
    one rank needs no rank flag."""
    identifier = CASE_BY_FLAG[args.case]
    rank = args.rank
    if rank is None:
        preset = PRESETS[identifier]
        if preset.max_rank != preset.min_rank:
            parser.error(f"case {args.case} needs --m or --n")
        rank = preset.min_rank
    return CaseSpec(identifier, rank, args.prime)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` in the process. argparse keeps no state between parses:
    each parse fills a fresh namespace and copies ``append`` defaults. Each
    subcommand's ``run`` default is its ``cmd_*`` function."""
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
    strata.set_defaults(run=cmd_strata)
    _add_case_flags(strata)
    strata.add_argument("--format", choices=tuple(RENDERERS), default="text")
    strata.add_argument("--output", help="write the table to a file")
    strata.add_argument(
        "--oracle", action="store_true",
        help="check the table against the case's matrix oracle, where it has one",
    )

    verify = commands.add_parser(
        "verify", help="run the consistency suites, exit nonzero on failure"
    )
    verify.set_defaults(run=cmd_verify)
    for name in SUITES:
        verify.add_argument(f"--{name}", action="store_true")
    verify.add_argument("--no-oracle", action="store_true",
                        help="drop the oracle suite from the default set")
    verify.add_argument("--mutate", action="store_true",
                        help="negative control: inject a wrong constant and a "
                             "scrambled relabeling; the suite must fail")
    verify.add_argument("--type", dest="cartan_type", choices=("B", "D"))
    _add_rank_flags(verify)
    verify.add_argument(
        "--prime", type=_prime, action="append",
        help=f"prime to verify at, at most {PRIME_MAX}; repeatable (default 2, 3, 5)",
    )
    verify.add_argument("--seed", type=int, default=0)

    order = commands.add_parser(
        "ord", help="vanishing order of one word against one weight"
    )
    order.set_defaults(run=cmd_ord)
    order.add_argument("--type", dest="cartan_type",
                       choices=("A", "B", "C", "D"))
    _add_rank_flags(order)
    order.add_argument("--lambda", dest="lam", default="e1",
                       help="weight: e<k>, or comma-separated coordinates; "
                       "write one starting with a minus sign as --lambda=-1,-2")
    order.add_argument("--basis", choices=("e", "fundamental"), default="e",
                       help="how to read a comma-separated --lambda")
    order.add_argument("--word", required=True,
                       help="whitespace-separated letters, e.g. 's1 s2 s1'")

    clp_cmd = commands.add_parser(
        "clp", help="conjugate line position of one stratum"
    )
    clp_cmd.set_defaults(run=cmd_clp)
    _add_case_flags(clp_cmd)
    clp_cmd.add_argument("--w-length", type=int,
                         help="select strata whose label has this length")
    clp_cmd.add_argument("--word", help="select one stratum by its word")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
