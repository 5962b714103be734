"""The README's examples run as written.

Every ``isolect ...`` line of its shell blocks runs in order in a scratch
directory holding a copy of ``data/`` (a ``| dot ...`` pipe is dropped), and
its library snippet runs as a script; each must exit 0.
"""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

from isolect import cli

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


COMMANDS = [
    line.split(" | ")[0]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("isolect ")
]


def test_examples_found():
    assert len(COMMANDS) >= 8
    assert len(_blocks("python")) == 1


def test_commands_exit_zero(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SVODESH_MODE", raising=False)
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(shlex.split(command)[1:]) == 0, command
    assert (tmp_path / "merged" / "merged.json").exists()


def test_library_snippet_runs(capsys):
    (snippet,) = _blocks("python")
    exec(compile(snippet, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["14.0 34.0 resolved", "19.0 34.0 resolved", "19.0 36.0 resolved"]
