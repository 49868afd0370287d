"""The README's Python quickstart and command lines run as written.

Every ```python block of README.md runs, in order and in one namespace,
inside a temporary directory (the last block writes ``diagram.svg``).
Each ``print(...)`` line carries the expected output as a trailing
``# ...`` comment; ``...`` inside it stands for any run of characters, so
``2.0000000049...`` is a prefix and ``2.04...e-14`` fixes the exponent.
Each command of the ```sh block under "Command line" runs through
``cli.main`` in a temporary directory and must exit 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lorentz2d.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def _expected_lines(block):
    return [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(")]


def _command_lines(text):
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


COMMANDS = _command_lines(README.read_text(encoding="utf-8"))


def test_readme_quickstart_runs_and_prints_its_comments(tmp_path, monkeypatch):
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    expected = [e for block in blocks for e in _expected_lines(block)]
    printed = out.getvalue().splitlines()
    assert expected and len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        pattern = ".*".join(re.escape(part) for part in comment.split("..."))
        assert re.fullmatch(pattern, line), (line, comment)
    assert (tmp_path / "diagram.svg").read_text().startswith("<svg")


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 4
    assert all(argv[0] == "lorentz2d" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[1])
def test_readme_command_line_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(argv[1:])
    assert rc == 0, capsys.readouterr().err
