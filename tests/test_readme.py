"""The README's library example runs as written."""

import os
import re

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
