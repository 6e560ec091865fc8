"""The README's examples run as written: its `Library` python block, and
its `Command line` sh block through `cli.main`."""

import os
import re
import shlex

from odmts.cli import EXIT_OK, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _block(section, lang):
    """The first ```lang code block under the README heading `## section`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    part = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", part, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), README, "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(v) > 0 for v in printed), printed


def test_readme_command_line_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _block("Command line", "sh").splitlines() if line and not line.startswith("#")]
    assert lines
    for argv in map(shlex.split, lines):
        assert argv[0] == "odmts", argv
        assert main(argv[1:]) == EXIT_OK, argv
    assert (tmp_path / "run" / "report.json").exists()
