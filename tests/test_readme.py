"""The README's `pairq` commands parse with the CLI's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from pairq.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every `pairq ...` command in the README's fenced blocks, with its
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pairq ")]


def test_readme_shows_every_subcommand():
    used = {shlex.split(c)[1] for c in readme_commands()}
    assert used == {"synth", "train", "encode", "eval", "bench"}


@pytest.mark.parametrize("command", readme_commands(),
                         ids=lambda c: shlex.split(c)[1])
def test_readme_command_parses(command):
    words = shlex.split(command)
    assert build_parser().parse_args(words[1:]).command == words[1]
