"""The README's examples run as written and print what it shows."""

import re
import shlex
from pathlib import Path

from shirshov.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, re.M | re.S)


def shell_examples():
    """(argv, expected output) for every ``$ shirshov ...`` line."""
    out = []
    for block in fenced_blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ shirshov "):
                expected = []
                for rest in lines[i + 1 :]:
                    if rest.startswith("$ "):
                        break
                    expected.append(rest)
                out.append((shlex.split(line[len("$ shirshov ") :]), expected))
    return out


def test_readme_shell_examples_print_what_they_show(capsys):
    examples = shell_examples()
    assert examples, "the README shows no command-line example"
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


def test_readme_python_blocks_run(capsys):
    blocks = fenced_blocks("python")
    assert blocks, "the README has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    # The library example computes the command-line nf example.
    nf = [exp for argv, exp in shell_examples() if argv[0] == "nf"]
    assert capsys.readouterr().out.splitlines() == nf[0]
