"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from locsym.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str, after: str = "") -> str:
    """The first ``language`` code block of the README after heading ``after``."""
    start = README.index(after)
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def test_python_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("python", "## Library quick start"), "README.md",
                 "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench.json").write_text(_block("json"))
    commands = [shlex.split(line)[1:]
                for line in _block("sh", "## Command line").splitlines()
                if line.startswith("locsym ")]
    assert len(commands) == 8
    for argv in commands:
        code = main(argv)
        assert code == 0, f"{shlex.join(argv)} exited {code}: {capsys.readouterr().err}"
    assert (tmp_path / "report" / "report.txt").exists()
