"""The README's library example runs as written, and its commands use existing flags."""

import os
import re
import shlex

import pytest

from robusthcn import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def _fenced_block_after(text, marker):
    start = text.index(marker)
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, "no python block after %r" % marker
    return match.group(1)


def test_minimal_end_to_end_snippet_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        code = _fenced_block_after(fh.read(), "Minimal end-to-end use")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["history"].epochs) == 3
    assert "ood_f1" in capsys.readouterr().out


def _commands_in_block_after(text, marker):
    """Each ``robusthcn`` command line of the bash block after ``marker``, as argv."""
    start = text.index(marker)
    match = re.compile(r"```bash\n(.*?)```", re.S).search(text, start)
    assert match is not None, "no bash block after %r" % marker
    commands = []
    for line in match.group(1).replace("\\\n", " ").split("\n"):
        words = shlex.split(line, comments=True)
        while words and "=" in words[0]:  # environment assignments, as in OPENBLAS_NUM_THREADS=1
            words = words[1:]
        if words:
            assert words[0] == "robusthcn", line
            commands.append(words[1:])
    return commands


def test_command_line_block_uses_only_existing_flags():
    # every flag the README shows is one its subcommand's parser accepts; nothing runs
    with open(README, encoding="utf-8") as fh:
        commands = _commands_in_block_after(fh.read(), "## Command line")
    assert len(commands) == 8
    for argv in commands:
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail("README command rejected by its parser: robusthcn %s" % " ".join(argv))
        assert args.version or args.command == argv[0]
