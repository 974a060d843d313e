"""Tests for the command-line front end."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zipstrata import cache_stats, cases, cli, rootsys, weyl
from zipstrata.cases import PRESETS, CaseSpec, run_case
from zipstrata.cli import (
    CASE_BY_FLAG,
    CLOSEDNESS_RANK_CAP,
    COLUMNS,
    SCHEMA_VERSION,
    _parse_lambda,
    _parse_word,
    _render_json,
    _stratum_row,
    _word_str,
    fundamental_weights,
    main,
)
from zipstrata.rootsys import pairing, root_system, vec

from helpers import (
    TABLE_CASES,
    clear_caches,
    reference_min_in_double_coset,
    reference_reduced_word,
)

# The benchmark's reference tables: every strata-pool table at p = 3, each row
# with its label ``w`` and class label ``bruhat_w``.
_REFERENCE_STRATA = Path(__file__).resolve().parents[1] / "zsbench" / "reference" / "strata.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStrataText:
    @pytest.mark.parametrize("preset", PRESETS.values(), ids=lambda p: p.flag)
    def test_no_line_ends_in_a_space(self, capsys, preset):
        """At the least rank and the next (sp-cn's first False, a last
        column wider than True)."""
        for rank in {preset.min_rank, min(preset.min_rank + 1, preset.max_rank or 64)}:
            code, out, _ = run_cli(capsys, "strata", "--case", preset.flag, "--n", str(rank))
            assert code == 0
            assert [line for line in out.splitlines() if line.endswith(" ")] == []

    def test_orthogonal_table_lists_every_stratum(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--case", "so-odd", "--m", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 6 + 1
        assert lines[-1] == "ogus principle holds on 6/6 strata"

    def test_symplectic_failure_row_is_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--case", "sp-cn", "--n", "2")
        assert code == 0
        assert "ogus principle holds on 3/4 strata" in out
        assert "False" in out


class TestStrataJson:
    def test_schema_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "strata", "--case", "so-odd", "--m", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "schema_version", "case", "rank", "prime", "strata",
        }
        assert payload["schema_version"] == 1
        assert payload["case"] == "so-odd"
        assert len(payload["strata"]) == 6
        for row in payload["strata"]:
            assert set(row) == {"word", "length", "bruhat", "ord", "clp", "ogus"}
        assert json.loads(json.dumps(payload)) == payload

    def test_spin_orders_come_scaled(self, capsys):
        code, out, _ = run_cli(
            capsys, "strata", "--case", "gspin-odd", "--m", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted({row["ord"] for row in payload["strata"]}) == [0, 4, 8]

    def test_failure_row_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "strata", "--case", "sp-cn", "--n", "2",
            "--format", "json",
        )
        last = json.loads(out)["strata"][-1]
        assert last["word"] == "e"
        assert (last["ord"], last["clp"], last["ogus"]) == (1, 2, False)



# Every preset at its two smallest ranks (gl4-wedge2 has only rank 4).
_SMALL_CASES = [
    (preset.flag, rank)
    for preset in PRESETS.values()
    for rank in range(preset.min_rank, min(preset.min_rank + 1, preset.max_rank or 99) + 1)
]


def _payload(flag, rank, rows):
    return {"schema_version": SCHEMA_VERSION, "case": flag, "rank": rank, "prime": 3,
            "strata": rows}


@pytest.mark.parametrize("flag,rank", TABLE_CASES)
def test_render_json_is_the_indented_dump(flag, rank):
    """The hand-laid JSON is ``json.dumps(payload, indent=2)`` byte for byte,
    on every table of the strata-cold pool."""
    result = run_case(CaseSpec(CASE_BY_FLAG[flag], rank, 3))
    texts = {report.w: _word_str(report.word) for report in result.reports}
    rows = [_stratum_row(report, texts) for report in result.reports]
    rendered = _render_json({"case": flag, "rank": rank, "prime": 3}, rows)
    payload = _payload(flag, rank, [dict(zip(COLUMNS, row)) for row in rows])
    assert rendered == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("flag,rank", TABLE_CASES)
def test_a_cold_table_is_the_reference_table(flag, rank):
    """With every cache cleared, as in a fresh interpreter, each row of a
    strata-cold table, with its label and class label, is the reference's."""
    clear_caches()
    result = run_case(CaseSpec(CASE_BY_FLAG[flag], rank, 3))
    texts = {report.w: _word_str(report.word) for report in result.reports}
    rows = [
        dict(zip(COLUMNS, _stratum_row(report, texts)),
             w=list(report.w), bruhat_w=list(report.bruhat_class))
        for report in result.reports
    ]
    with open(_REFERENCE_STRATA, encoding="utf-8") as handle:
        reference = json.load(handle)
    assert rows == reference[CASE_BY_FLAG[flag]][str(rank)]


def test_a_cold_strata_run_strips_no_word(capsys, monkeypatch):
    """With the case data and the coset tables uncached, ``strata --format
    json`` prints the table of the stripping references and strips no word
    (``reduced_word`` raises if called): the words come from the coset
    enumeration."""
    expected = {}
    for flag, rank in _SMALL_CASES:
        result = run_case(CaseSpec(CASE_BY_FLAG[flag], rank, 3))
        group, datum = result.datum.group, result.datum
        rows = [{
            "word": _word_str(reference_reduced_word(group, r.w)),
            "length": len(reference_reduced_word(group, r.w)),
            "bruhat": _word_str(reference_reduced_word(
                group, reference_min_in_double_coset(group, r.w, datum.I, datum.J))),
            "ord": r.ord,
            "clp": r.clp,
            "ogus": r.ogus_holds,
        } for r in result.reports]
        expected[flag, rank] = json.dumps(_payload(flag, rank, rows), indent=2) + "\n"
    for cached in (cases._case_data, weyl._min_coset_reps):
        cached.cache_clear()

    def no_stripping(self, w):
        raise AssertionError(f"reduced_word({w}) called")

    monkeypatch.setattr(weyl.WeylGroup, "reduced_word", no_stripping)
    for flag, rank in _SMALL_CASES:
        code, out, _ = run_cli(capsys, "strata", "--case", flag, "--n", str(rank),
                               "--format", "json")
        assert (code, out) == (0, expected[flag, rank])


class TestStrataCsv:
    def test_columns_match_the_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "strata", "--case", "so-even", "--m", "3",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["word", "length", "bruhat", "ord", "clp", "ogus"]
        assert len(rows) == 1 + 6
        assert rows[1][0] == "s1 s2 s3 s1"


class TestStrataOptions:
    def test_output_goes_to_a_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "strata", "--case", "siegel", "--n", "2",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert [row["ord"] for row in payload["strata"]] == [0, 1, 1, 2]

    def test_output_into_a_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.json"
        code, out, err = run_cli(
            capsys, "strata", "--case", "siegel", "--n", "2", "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("cannot write the table:") and str(target) in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("case,rank", [("siegel", "3"), ("gl-dualsum", "4")])
    def test_oracle_recheck_passes(self, capsys, case, rank):
        code, _, err = run_cli(
            capsys, "strata", "--case", case, "--n", rank, "--oracle",
        )
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("flag", sorted(CASE_BY_FLAG))
    def test_oracle_runs_where_the_preset_has_one(self, capsys, flag):
        """A preset with a matrix oracle passes it at its minimum rank; any
        other preset is refused before its case is built."""
        preset = cli.PRESETS[CASE_BY_FLAG[flag]]
        before = cache_stats()["cases._case_data"]
        code, out, err = run_cli(
            capsys, "strata", "--case", flag, "--n", str(preset.min_rank), "--oracle",
        )
        if preset.oracle is None:
            assert (code, out) == (2, "")
            assert f"case {flag} has no matrix oracle" in err
            assert cache_stats()["cases._case_data"] == before
        else:
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("rank,code", [("7", 0), ("8", 2)])
    def test_dual_sum_oracle_stops_at_its_ceiling(self, capsys, rank, code):
        got, out, err = run_cli(
            capsys, "strata", "--case", "gl-dualsum", "--n", rank, "--oracle",
        )
        assert got == code
        if code == 2:
            assert out == ""
            assert "oracle needs 1 <= n <= 7" in err

    @pytest.mark.parametrize("rank", ["8", "64"])
    def test_dual_sum_oracle_refuses_before_building(self, capsys, monkeypatch, rank):
        """Above the Pluecker oracle's ceiling, ``--oracle`` is refused from
        the spec alone: no case is run and no case data is cached."""
        def refuse(spec):
            raise AssertionError(f"run_case called on {spec}")

        monkeypatch.setattr(cli, "run_case", refuse)
        before = cache_stats()["cases._case_data"]
        code, out, err = run_cli(
            capsys, "strata", "--case", "gl-dualsum", "--n", rank, "--oracle",
        )
        assert (code, out) == (2, "")
        assert "oracle needs 1 <= n <= 7" in err
        assert cache_stats()["cases._case_data"] == before

    def test_fixed_rank_case_needs_no_rank_flag(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--case", "gl4-wedge2")
        assert code == 0
        assert "rank 4" in out

    def test_rank_below_minimum_exits_with_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "strata", "--case", "so-even", "--m", "2")
        assert code == 2
        assert "rank at least" in err

    @pytest.mark.parametrize("flag", sorted(CASE_BY_FLAG))
    def test_rank_below_each_preset_exits_with_usage_error(self, capsys, flag):
        low = cli.PRESETS[CASE_BY_FLAG[flag]].min_rank
        code, out, err = run_cli(capsys, "strata", "--case", flag, "--n", str(low - 1))
        assert code == 2
        assert out == ""
        assert f"rank at least {low}" in err

    def test_rank_above_the_fixed_rank_exits_with_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "strata", "--case", "gl4-wedge2", "--n", "5")
        assert code == 2
        assert out == ""
        assert "above its largest rank 4" in err

    def test_oversized_case_exits_with_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "strata", "--case", "gspin-odd", "--m", "40")
        assert code == 2
        assert out == ""
        assert "above the ceiling" in err

    def test_unknown_case_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strata", "--case", "nonsense", "--m", "3"])
        assert exc.value.code == 2

    def test_missing_rank_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strata", "--case", "so-odd"])
        assert exc.value.code == 2

    def test_composite_prime_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strata", "--case", "so-odd", "--m", "3", "--prime", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("prime", [str(10**400), "1000000000000000003"])
    def test_prime_above_the_ceiling_is_a_usage_error(self, capsys, prime):
        with pytest.raises(SystemExit) as exc:
            main(["strata", "--case", "so-odd", "--m", "3", "--prime", prime])
        assert exc.value.code == 2
        assert "at most 1000000000000" in capsys.readouterr().err


class TestSharedParser:
    def test_repeated_calls_share_one_stateless_parser(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--siegel", "--prime", "2")
        assert code == 0
        assert "p in [2]" in out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--siegel", "--prime", "4"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", "--siegel")
        assert code == 0
        assert "p in [2, 3, 5]" in out
        assert cache_stats()["cli.build_parser"].currsize == 1


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        passes = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(passes) == 4

    @pytest.mark.parametrize("name", cli.SUITES)
    def test_each_suite_runs_alone(self, capsys, name):
        code, out, _ = run_cli(capsys, "verify", f"--{name}")
        assert code == 0
        assert len(out.splitlines()) == 1
        assert out.startswith(f"PASS {name}: ")

    def test_closedness_sweep_alone(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--closedness", "--type", "B", "--m", "8",
        )
        assert code == 0
        assert out.startswith("PASS closedness")
        assert len(out.strip().splitlines()) == 1

    def test_mutation_is_caught(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mutate")
        assert code == 1
        assert "FAIL functoriality" in out
        assert "FAIL oracle" in out

    def test_no_oracle_trims_the_default_set(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--no-oracle")
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        assert "oracle" not in out

    def test_siegel_subset_with_explicit_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--siegel", "--n", "2", "--prime", "3",
        )
        assert code == 0
        assert "n in [2], p in [3]" in out

    def test_composite_prime_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--siegel", "--prime", "6"])
        assert exc.value.code == 2

    def test_oversized_siegel_rank_exits_with_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--siegel", "--n", "7")
        assert code == 2
        assert "above the ceiling" in err

    @pytest.mark.parametrize(
        "suites, rank",
        [
            (("--functoriality", "--siegel"), "40"),
            (("--closedness", "--siegel"), "8"),
            (("--closedness", "--siegel"), "0"),
            (("--functoriality", "--closedness"), str(CLOSEDNESS_RANK_CAP + 1)),
        ],
    )
    def test_every_selected_rank_is_checked_before_any_suite_runs(
        self, capsys, monkeypatch, suites, rank
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran before the rank was checked")

        for suite in ("_check_closedness", "_check_functoriality", "_check_siegel"):
            monkeypatch.setattr(cli, suite, refuse)
        code, out, err = run_cli(capsys, "verify", *suites, "--m", rank)
        assert code == 2
        assert out == ""
        assert "ceiling" in err or "rank at least" in err

    @pytest.mark.parametrize("rank", [CLOSEDNESS_RANK_CAP + 1, 40, 10**6])
    def test_closedness_rank_above_the_ceiling_exits_with_usage_error(
        self, capsys, monkeypatch, rank
    ):
        def refuse(*args):
            raise AssertionError("built a root system above the ceiling")

        monkeypatch.setattr(cli, "root_system", refuse)
        code, out, err = run_cli(
            capsys, "verify", "--closedness", "--type", "B", "--m", str(rank),
        )
        assert code == 2
        assert out == ""
        assert f"closedness rank {rank} is above the ceiling of 24" in err

    def test_closedness_at_the_ceiling_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "condition_closed", lambda system, word: (True, None))
        code, out, _ = run_cli(
            capsys, "verify", "--closedness", "--type", "D",
            "--m", str(CLOSEDNESS_RANK_CAP),
        )
        assert code == 0
        assert out == "PASS closedness: 300 family words closed\n"


class TestOrd:
    def test_mirrored_word_with_unit_weight(self, capsys):
        code, out, _ = run_cli(
            capsys, "ord", "--type", "B", "--m", "5",
            "--lambda", "e1", "--word", "s1 s2 s3 s4 s5 s4 s3",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_single_letter_uses_the_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "ord", "--word", "s1")
        assert code == 0
        assert out.strip() == "1"

    def test_fundamental_basis(self, capsys):
        code, out, _ = run_cli(
            capsys, "ord", "--type", "A", "--m", "2",
            "--basis", "fundamental", "--lambda", "1,1",
            "--word", "s1 s2 s1",
        )
        assert code == 0
        assert out.strip() == "2"

    def test_coordinate_weight(self, capsys):
        code, out, _ = run_cli(
            capsys, "ord", "--type", "B", "--m", "2",
            "--lambda", "1,0", "--word", "s2 s1 s2",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_unsupported_word_reports_and_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "ord", "--type", "B", "--m", "2",
            "--lambda", "e1", "--word", "s1 s1 s2",
        )
        assert code == 1
        assert "no supported shape" in err

    @pytest.mark.parametrize("argv,message", [
        (("--word", "s1", "--lambda=-1,0"), "weight (-1, 0) is not dominant"),
        (
            ("--type", "C", "--m", "2", "--word", "s1 s2 s1", "--lambda=1/2,0"),
            "pairing 1/2 of (1/2, 0) against alpha_1 is not integral",
        ),
    ])
    def test_weights_in_messages_print_exact_coordinates(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "ord", *argv)
        assert code == 1
        assert out == ""
        assert err == f"cannot evaluate: {message}\n"

    def test_garbled_letters_are_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ord", "--word", "sx 2")
        assert code == 2
        assert "simple reflection" in err

    @pytest.mark.parametrize("argv", [
        ("--type", "A", "--n", "1500", "--word", "s1"),
        ("--type", "B", "--m", "65", "--word", "s1"),
        ("--word", "s65"),
    ])
    def test_rank_above_the_ceiling_exits_with_usage_error(
        self, capsys, monkeypatch, argv
    ):
        def refuse(*args):
            raise AssertionError("built roots above the rank ceiling")

        monkeypatch.setattr(rootsys, "add", refuse)
        monkeypatch.setattr(rootsys, "sub", refuse)
        monkeypatch.setattr(cli, "ord_for_word", refuse)
        code, out, err = run_cli(capsys, "ord", *argv)
        assert code == 2
        assert out == ""
        assert "above the ceiling of 64" in err

    @pytest.mark.parametrize("basis", ["e", "fundamental"])
    @pytest.mark.parametrize("argv,coordinate", [
        (("--type", "A", "--n", "2", "--lambda", "1/0,0,0"), "1/0"),
        (("--type", "B", "--m", "2", "--lambda", "1e10000000,0"), "1e10000000"),
    ])
    def test_unreadable_coordinates_are_refused_before_they_are_read(
        self, capsys, argv, coordinate, basis
    ):
        """A zero denominator, or an exponent that would build a
        ten-million-digit integer, exits 2 naming the coordinate."""
        code, out, err = run_cli(
            capsys, "ord", *argv, "--basis", basis, "--word", "s1",
        )
        assert code == 2
        assert out == ""
        assert f"cannot read {coordinate!r}" in err

    def test_coordinates_may_be_integers_decimals_or_fractions(self) -> None:
        system = root_system("B", 3)
        half = Fraction(1, 2)
        assert _parse_lambda(" +2, -1/2 ,.5", system, "e") == vec(2, -half, half)
        assert _parse_lambda("1.,0/3,2/04", system, "e") == vec(1, 0, Fraction(1, 2))
        for spec in ("1_0,0,0", "1/00,0,0", "1/-2,0,0", "inf,0,0", "1,,0"):
            with pytest.raises(ValueError, match="cannot read"):
                _parse_lambda(spec, system, "e")

    def test_a_negative_first_coordinate_is_written_with_an_equals_sign(
        self, capsys
    ):
        argv = ("ord", "--type", "A", "--n", "1")
        code, out, _ = run_cli(capsys, *argv, "--lambda=-1,-2", "--word", "s1")
        assert code == 0
        assert out.strip() == "1"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lambda", "-1,-2", "--word", "s1"])
        assert exc.value.code == 2
        assert "--lambda: expected one argument" in capsys.readouterr().err

    def test_wrong_coordinate_count_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "ord", "--type", "B", "--m", "3",
            "--lambda", "1,0", "--word", "s1",
        )
        assert code == 2
        assert "expected 3 coordinates" in err


class TestClp:
    def test_minimal_stratum_of_the_odd_orthogonal_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "clp", "--case", "so-odd", "--m", "3",
            "--w-length", "0",
        )
        assert code == 0
        assert out.strip() == "2"

    def test_word_filter_picks_one_stratum(self, capsys):
        code, out, _ = run_cli(
            capsys, "clp", "--case", "sp-cn", "--n", "2", "--word", "e",
        )
        assert code == 0
        assert out.strip() == "2"

    def test_no_filter_lists_everything(self, capsys):
        code, out, _ = run_cli(capsys, "clp", "--case", "so-odd", "--m", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(":" in line for line in lines)

    def test_empty_match_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "clp", "--case", "so-odd", "--m", "3",
            "--w-length", "9",
        )
        assert code == 1
        assert "no stratum" in err


class TestWordParsing:
    def test_identity_spellings(self):
        assert _parse_word("e") == ()
        assert _parse_word("  ") == ()

    def test_prefixed_and_bare_letters_mix(self):
        assert _parse_word("s1 2 s3") == (1, 2, 3)

    def test_zero_is_not_a_letter(self):
        with pytest.raises(ValueError):
            _parse_word("s0")


class TestFundamentalWeights:
    @pytest.mark.parametrize("cartan_type,rank", [
        ("A", 3), ("B", 3), ("C", 4), ("D", 4),
    ])
    def test_duality_with_the_simple_coroots(self, cartan_type, rank):
        system = root_system(cartan_type, rank)
        weights = fundamental_weights(system)
        for i, weight in enumerate(weights, start=1):
            for j in range(1, rank + 1):
                expected = 1 if i == j else 0
                assert pairing(weight, system.simple(j)) == expected


class TestEntryPoint:
    def test_module_invocation_round_trips_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zipstrata.cli", "strata",
             "--case", "so-even", "--m", "3", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["case"] == "so-even"
        assert len(payload["strata"]) == 6

    def test_import_leaves_dataclasses_unloaded(self):
        """The command line and the oracles import no ``dataclasses``: its
        import and class building were half of a fresh run's import time."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, zipstrata.cli, zipstrata.oracle; "
             "print('dataclasses' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_every_advertised_case_runs(self, capsys):
        ranks = {"so-odd": "2", "so-even": "3", "sp-cn": "2", "siegel": "2",
                 "gl-dualsum": "3", "gl4-wedge2": "4", "gspin-odd": "2",
                 "gspin-even": "3"}
        for flag in CASE_BY_FLAG:
            code, out, _ = run_cli(
                capsys, "strata", "--case", flag, "--m", ranks[flag],
            )
            assert code == 0, flag
            assert "strata" in out
