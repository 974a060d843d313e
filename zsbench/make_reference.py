"""Regenerate the benchmark's reference outputs from the library.

    python3 zsbench/make_reference.py

Writes ``reference/strata.json`` (the table of every (case, rank) in the
strata pools, as the command line prints it plus the stratum labels),
``reference/family.json`` (for every point-query family word, the order
against each fundamental weight) and ``reference/gl_cells.json`` (the GL(n)
cells the word formulas cover, with the same per-weight orders, confirmed
against the polynomial oracle). Orders are linear in the weight, so these
coefficients give the reference order for any dominant weight.

The committed files were produced from a version of the library whose test
suite passed. Regenerating them from a changed library would make the
benchmark accept whatever that library computes; do so only when the
expected values themselves are meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads

ROOT = workloads.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from zipstrata import cli  # noqa: E402
from zipstrata.cases import CaseSpec, run_case  # noqa: E402
from zipstrata.oracle import gl_cell_order  # noqa: E402
from zipstrata.rootsys import pairing, root_system  # noqa: E402
from zipstrata.vanishing import (  # noqa: E402
    family_word_typeB,
    family_word_typeD,
    ord_for_word,
)
from zipstrata.weyl import WeylGroup  # noqa: E402


def _weights(cartan_type: str, m: int):
    """Fundamental weights, checked to be dual to the simple coroots."""
    system = root_system(cartan_type, m)
    weights = [workloads.fundamental_weight(cartan_type, m, i) for i in range(1, m + 1)]
    for i, lam in enumerate(weights):
        for j, alpha in enumerate(system.simple_roots):
            if pairing(lam, alpha) != (1 if i == j else 0):
                raise SystemExit(f"omega_{i + 1} of {cartan_type}{m} is not fundamental")
    return system, weights


def strata_tables() -> dict:
    out: dict = {}
    for case, rank in sorted(set(workloads.WARM_POOL) | set(workloads.COLD_POOL)):
        result = run_case(CaseSpec(case, rank, 3))
        argv = ["strata", "--case", workloads.CASE_FLAG[case], "--n", str(rank),
                "--format", "json"]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if cli.main(argv) != 0:
                raise SystemExit(f"{argv} failed")
        printed = json.loads(buffer.getvalue())["strata"]
        rows = []
        for report, row in zip(result.reports, printed, strict=True):
            if row["word"] != workloads.word_str(report.word):
                raise SystemExit(f"{case} {rank}: command line and library disagree")
            rows.append(dict(row, w=list(report.w), bruhat_w=list(report.bruhat_class)))
        out.setdefault(case, {})[str(rank)] = rows
    return out


def family_words() -> dict:
    out: dict = {}
    word_of = {"B": family_word_typeB, "D": family_word_typeD}
    for cartan_type, ranks in sorted(workloads.POINT_RANKS.items()):
        for m in ranks:
            system, weights = _weights(cartan_type, m)
            entries = []
            for j in range(1, m + 1):
                for l in range(0, m + 1):
                    try:
                        word = word_of[cartan_type](m, j, l)
                    except ValueError:
                        continue
                    coeffs = [ord_for_word(system, lam, word) for lam in weights]
                    entries.append({"word": list(word), "coeffs": coeffs})
            out.setdefault(cartan_type, {})[str(m)] = entries
    return out


def gl_cells() -> dict:
    out: dict = {}
    for n in workloads.ORACLE_CELL_NS:
        system, weights = _weights("A", n - 1)
        group = WeylGroup(system)
        entries = []
        for w in sorted(group.elements()):
            word = group.reduced_word(w)
            try:
                coeffs = [ord_for_word(system, lam, word) for lam in weights]
            except ValueError:
                continue
            for i, (lam, c) in enumerate(zip(weights, coeffs), start=1):
                if gl_cell_order(n, [int(x) for x in lam], w) != c:
                    raise SystemExit(f"GL({n}) cell {w}: oracle disagrees at omega_{i}")
            entries.append({"w": list(w), "word": list(word), "coeffs": coeffs})
        out[str(n)] = entries
    return out


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, build in (("strata", strata_tables), ("family", family_words),
                        ("gl_cells", gl_cells)):
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(build(), sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
