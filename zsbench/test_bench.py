"""Checks on the benchmark itself: the negative control, the output gate,
the tracer, and the refusal to run without the library sources.

    python3 -m pytest zsbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


def _bench(*argv: str, root: Path = run.ROOT) -> subprocess.CompletedProcess:
    script = root / run.HERE.name / "run.py"
    return subprocess.run([sys.executable, str(script), *argv], cwd=root,
                          capture_output=True, text=True, timeout=170, check=False)


def _result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_clean_run_passes_the_gate():
    done = _bench("--workload", "oracle-check", "--seed", "1", "--seconds", "0.1")
    result = _result(done)
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb",
    }


def test_mutate_drives_failed_frac_above_zero():
    done = _bench("--workload", "oracle-check", "--seed", "1", "--seconds", "0.1", "--mutate")
    result = _result(done)
    assert done.returncode == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_mutated_table_expectation_is_caught():
    refs = workloads.load_references()
    reference = workloads.table_reference(refs, "Sp2n_std_Cn", 3)
    rows = [dict(row) for row in reference]
    keys = workloads.CLI_KEYS
    assert workloads.check_table("Sp2n_std_Cn", 3, rows, reference, keys, False) == ""
    assert workloads.check_table("Sp2n_std_Cn", 3, rows, reference, keys, True) != ""


def test_invariants_catch_a_consistent_but_wrong_table():
    refs = workloads.load_references()
    reference = [dict(row) for row in workloads.table_reference(refs, "SO_odd_std", 3)]
    reference[1]["ord"] = reference[1]["clp"] + 1
    problem = workloads.check_table(
        "SO_odd_std", 3, reference, reference, workloads.CLI_KEYS, False
    )
    assert "ord > clp" in problem


def test_tracer_wraps_rebound_names_and_restores_them():
    lib = run.import_library()
    original = lib.cases.strata_ord_table
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.cases.strata_ord_table is not original
        assert lib.cases.strata_ord_table.__wrapped__ is original
        tracer.op_id = 7
        lib.cases.run_case(lib.cases.CaseSpec("SO_odd_std", 3, 3))
        tracer.op_id = 8
        lib.cases.run_case(lib.cases.CaseSpec("SO_odd_std", 3, 3))
    finally:
        tracer.uninstall()
    assert lib.cases.strata_ord_table is original
    calls = tracer.calls()
    assert calls["cases.run_case"] == 2
    assert calls["vanishing.strata_ord_table"] == 2
    assert "rootsys.add" not in calls and "weyl.WeylGroup.act" not in calls
    assert set(tracer.span_op) == {7, 8}
    top = [p for p, i in zip(tracer.parent_id, tracer.span_name)
           if tracer.names[i] == "cases.run_case"]
    assert top == [0, 0]
    assert all(p in set(tracer.span_id) for p in tracer.parent_id if p)
    plain = tracer.layer_self_seconds({})
    assert plain["weyl"] > 0 and plain["vanishing"] > 0
    doubled = tracer.layer_self_seconds({7: 2.0, 8: 2.0})
    assert abs(doubled["weyl"] - 2 * plain["weyl"]) < 1e-9


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "strata-warm", "--seed", "1", "--seconds", "1",
                  "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
