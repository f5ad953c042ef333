"""The README's library sketch runs against the current API, and its
table of descriptor keys is the catalog's."""

import re
from pathlib import Path

from finvar.metrics import _KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library sketch", "exec"), {})
    assert "[ True False]" in capsys.readouterr().out


def test_descriptor_key_table_matches_the_catalog():
    # README's table of descriptor keys names each kind and the keys it
    # takes; the catalog's table is _KINDS
    text = README.read_text(encoding="utf-8")
    section = text.split("A descriptor takes only the keys of its kind", 1)[1]
    table = re.search(r"\| kind +\| keys +\|\n\|[-|]+\|\n((?:\|.*\|\n)+)",
                      section).group(1)
    documented = {}
    for row in table.splitlines():
        kinds, keys = row.strip("|").split("|")
        for kind in re.findall(r"`(\w+)`", kinds):
            documented[kind] = set(re.findall(r"`(\w+)`", keys))
    assert documented == {kind: keys | {"kind"}
                          for kind, (keys, _) in _KINDS.items()}
