"""The README's examples run as written: each python block without error,
and each ``$ zipstrata ...`` line of a text block through ``cli.main``,
printing exactly the lines that follow it in the block."""

import re
import shlex
from pathlib import Path

import pytest

from zipstrata import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _cli_examples():
    """(argv, expected stdout) of each ``$ zipstrata`` line, its output the
    lines up to the next prompt or the end of the block."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "text":
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ zipstrata "):
                command, _, output = chunk.partition("\n")
                examples.append((shlex.split(command)[2:], output))
    return examples


CLI_EXAMPLES = _cli_examples()
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def test_the_readme_has_examples_of_every_subcommand() -> None:
    assert {argv[0] for argv, _ in CLI_EXAMPLES} == {"strata", "verify", "ord", "clp"}
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize(
    "argv,expected", CLI_EXAMPLES, ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES]
)
def test_cli_example_prints_its_block(argv, expected, capsys) -> None:
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("body", PYTHON_BLOCKS)
def test_python_block_runs(body, capsys) -> None:
    exec(compile(body, str(README), "exec"), {})
    assert capsys.readouterr().out
