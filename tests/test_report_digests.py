"""Golden digests of whole CLI reports: byte identity with a recorded run.

Each case runs one command in-process on one config and format, and hashes
its exit code, stdout and stderr. ``report_digests.json`` holds the hashes
of a recorded run. A change that alters report bytes on purpose records
them again with

    PYTHONPATH=src python tests/test_report_digests.py

and says so in its change notes. The reports carry floats from numpy's
linear algebra, so the table holds for one numpy and BLAS build (it was
recorded with numpy 2.4.6); another build may need it recorded again.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from finvar.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = ("evaluate", "geodesic", "verify", "oracle")
FORMATS = ("json", "csv")


def _ball_config(base: str, comparison: str, n: int) -> dict:
    return {
        "schema_version": 1,
        "pair": {"base": {"kind": base, "dim": n},
                 "comparison": {"kind": comparison, "dim": n}},
        "samples": {"count": 4, "trajectories": 1},
        "integrator": {"t_end": 0.2},
        "seed": 7,
    }


def configs() -> dict[str, dict]:
    """Every config by name: the shipped ones and small ball-metric pairs."""
    out = {path.name: json.loads(path.read_text())
           for path in sorted((ROOT / "configs").glob("*.json"))}
    for base, comparison in (("klein", "funk"), ("funk", "klein")):
        for n in (2, 3, 5, 8):
            out[f"{base}_{comparison}_n{n}"] = _ball_config(base, comparison,
                                                            n)
    return out


CONFIGS = configs()
CASES = [(name, command, fmt) for name in CONFIGS
         for command in COMMANDS for fmt in FORMATS]


def digest(config: dict, command: str, fmt: str, workdir: Path) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--format", fmt])
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def _key(name: str, command: str, fmt: str) -> str:
    return f"{name} {command} {fmt}"


@pytest.fixture(scope="module")
def table() -> dict[str, str]:
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("name,command,fmt", CASES)
def test_report_bytes_match_the_recorded_digest(table, tmp_path, name,
                                                command, fmt):
    assert digest(CONFIGS[name], command, fmt, tmp_path) == \
        table[_key(name, command, fmt)]


def record() -> None:
    """Write the digest of every case to ``report_digests.json``."""
    with tempfile.TemporaryDirectory() as workdir:
        table = {_key(name, command, fmt):
                 digest(CONFIGS[name], command, fmt, Path(workdir))
                 for name, command, fmt in CASES}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
