"""The README's offline walkthrough runs as written, over the bundled fixture it describes."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from adagate.cli import main
from adagate.synthetic import WorldSpec, generate_world, write_examples

from helpers import builtin_fixture_path

README = Path(__file__).resolve().parent.parent / "README.md"


def _usage_commands() -> list[list[str]]:
    """The ``adagate`` commands of the first sh block under "## Command-line usage", continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Command-line usage\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    text = block.replace("\\\n", " ").replace("$DATA", shlex.quote(str(builtin_fixture_path())))
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("adagate ")]


def test_readme_command_line_usage_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _usage_commands()
    assert [argv[0] for argv in commands] == ["ingest", "index", "perturb", "perturb", "run", "report"]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "report.csv").exists()


def test_bundled_fixture_is_the_seed_1234_world(tmp_path):
    # The README names this seed; regenerating the fixture must give the same bytes.
    path = tmp_path / "fixture.jsonl"
    write_examples(path, generate_world(WorldSpec(n_questions=2, seed=1234)))
    assert path.read_bytes() == builtin_fixture_path().read_bytes()
