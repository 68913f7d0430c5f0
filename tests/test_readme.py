"""The README's examples run as written: its Python block, and every
``chibound`` line of its command-line block through ``main``."""

import re
import shlex
from pathlib import Path

from chibound.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


def test_every_command_line_example_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write their files here
    assert main(["construct", "power", "--k", "4", "--p", "5", "--out", "labeled.edges"]) == 0
    lines = [shlex.split(line, comments=True) for line in _block("Command line", "sh").splitlines()]
    assert len(lines) >= 10 and all(argv[0] == "chibound" for argv in lines)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
