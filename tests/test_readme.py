import doctest
import os
import re
import shlex

import pytest

from axoball.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_runs():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _shell_examples():
    """Each ``$ axoball ...`` line of the README's sh blocks, with the
    lines that follow it up to the next ``$`` line or the closing fence."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ axoball "):
                examples.append((command[2:], output))
    return examples


EXAMPLES = _shell_examples()


def test_readme_has_shell_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_shell_example_prints_what_it_shows(capsys, command, output):
    assert main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (output, "")
