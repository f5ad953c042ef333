"""The README's library sketch runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library sketch", "exec"), {})
    assert "[ True False]" in capsys.readouterr().out
