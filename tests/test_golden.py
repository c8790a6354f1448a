"""Golden outputs: every command on three small inputs, pinned in both formats.

The files under ``tests/golden/`` were written by the CLI itself.  A JSON
run must reproduce its ``.json`` file with integers, booleans, strings and
nulls exact and floats to 1e-12 relative.  A ``--format csv`` run must
reproduce its ``.csv`` file byte for byte, and the ``diagnostic:`` and
``report:`` lines it prints on stderr must equal its ``.err`` file.
Regenerate them, after a deliberate change of results only, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import pytest

from manakov_spectra.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
STDERR_PREFIXES = ("diagnostic: ", "report: ")

INPUTS = {
    "const": '{"kind":"constant","value":[0.9,0.0],"resolution":64}',
    "step": (
        '{"kind":"piecewise","breakpoints":[0.0,0.25,0.75,1.0],'
        '"values":[[[0.3,0.1],[0.0,0.2]],[[0.1,0.0],[0.4,0.0]],'
        '[[0.0,0.0],[0.2,-0.1]]],"resolution":64}'
    ),
    "fourier": (
        '{"kind":"fourier","modes":{"1":[[0.25,0.0],[0.1,0.0]],'
        '"-1":[[0.0,0.0],[0.2,0.0]]},"resolution":64}'
    ),
}

COMMANDS = {
    "scan": ["--interval", "-4", "4", "--step", "0.05"],
    "eigen": ["--window", "1", "2"],
    "verify": [],
    "qmomentum": ["--interval", "-16", "16", "--step", "0.05"],
    "sheets": ["--interval", "-4", "4", "--step", "0.05"],
}

CASES = [(name, cmd) for name in INPUTS for cmd in COMMANDS]


def _run(name: str, cmd: str, out: Path, *extra: str) -> int:
    return main([cmd, "--potential", INPUTS[name], *COMMANDS[cmd], *extra, "--out", str(out)])


def _run_csv(name: str, cmd: str, out: Path) -> tuple[int, str]:
    """Exit code and the ``diagnostic:``/``report:`` stderr lines of a CSV run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = _run(name, cmd, out, "--format", "csv")
    lines = err.getvalue().splitlines(keepends=True)
    return rc, "".join(line for line in lines if line.startswith(STDERR_PREFIXES))


def _mismatches(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            yield f"{path}: keys {list(got)} != {list(want)}"
            return
        for key in want:
            yield from _mismatches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{path}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name,cmd", CASES)
def test_golden_output(name, cmd, tmp_path):
    out = tmp_path / "out.json"
    assert _run(name, cmd, out) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}-{cmd}.json").read_text())
    bad = list(_mismatches(got, want))
    assert bad == [], bad[:10]


@pytest.mark.parametrize("name,cmd", CASES)
def test_golden_csv_output(name, cmd, tmp_path):
    out = tmp_path / "out.csv"
    rc, err = _run_csv(name, cmd, out)
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}-{cmd}.csv").read_bytes()
    assert err == (GOLDEN / f"{name}-{cmd}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cmd in CASES:
        if _run(name, cmd, GOLDEN / f"{name}-{cmd}.json") != 0:
            sys.exit(f"{name} {cmd}: nonzero exit")
        rc, err = _run_csv(name, cmd, GOLDEN / f"{name}-{cmd}.csv")
        if rc != 0:
            sys.exit(f"{name} {cmd} csv: nonzero exit")
        (GOLDEN / f"{name}-{cmd}.err").write_text(err, encoding="utf-8")
