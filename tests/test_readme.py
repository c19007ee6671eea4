"""The README's code runs as written, and its CLI usage block names exactly
the options of ``cli.build_parser()``: a change that renames or deletes a
public name or an option fails here instead of leaving the docs stale."""
import argparse
import re
import shlex
from pathlib import Path

import pytest

from csdc import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    """The bodies of the README's fenced blocks of one language."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def usage():
    """The sh block that lists the commands, one ``csdc <command>`` line each
    with its continuation lines, as {command: flags named}."""
    (block,) = [b for b in blocks("sh") if b.startswith("csdc compile")]
    out = {}
    for entry in re.split(r"\n(?=csdc )", block.strip()):
        command = entry.split()[1]
        out[command] = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", entry))
    return out


@pytest.mark.parametrize("index", range(len(blocks("python"))))
def test_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks("python")[index], f"README.md python block {index}", "exec"), {})


def test_worked_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in blocks("sh") if 'python -c "' in b]
    body, commands = re.fullmatch(r'python -c "(.*?)"\n(.*)', block, re.S).groups()
    monkeypatch.chdir(tmp_path)
    exec(compile(body, "README.md worked example", "exec"), {})
    ran = 0
    for line in commands.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "csdc":
            assert cli.main(words[1:]) == 0, line
            ran += 1
    assert ran == 2   # compile, then verify
    assert "distance" in capsys.readouterr().out


def test_usage_block_names_every_option():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    named = usage()
    assert set(named) == set(sub.choices)
    for command, p in sub.choices.items():
        options = [a.option_strings for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        assert named[command] <= {s for strings in options for s in strings}, command
        assert all(named[command] & set(strings) for strings in options), command
