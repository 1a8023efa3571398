"""The README's `pairq` commands parse with the CLI's own parser, and its
Python quick start compiles against the package's public names."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import pairq
from pairq.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang=""):
    """The bodies of the README's fenced blocks tagged ``lang``."""
    text = README.read_text(encoding="utf-8")
    pattern = rf"^```{lang}[^\n]*\n(.*?)^```"
    return re.findall(pattern, text, flags=re.M | re.S)


def readme_commands():
    """Every `pairq ...` command in the README's fenced blocks, with its
    backslash continuations joined."""
    return [line for block in readme_blocks()
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


def test_readme_python_imports_public_names():
    (block,) = readme_blocks("python")
    tree = ast.parse(block)
    compile(tree, "README.md", "exec")
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "pairq"
                for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(pairq.__all__)) == []
