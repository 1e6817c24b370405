"""Runs the README's "Library example" code block, so that the example keeps
working as the library changes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(25, 20) 500"
    assert float(lines[1]) >= -1e-9  # a policy loss is never negative
    assert lines[2] == "(3, 48) (3, 48, 4)"
