"""Golden outputs: every command on three small inputs, pinned in both formats.

The files under ``tests/golden/`` were written by the CLI itself.  A JSON
run must reproduce its ``.json`` file with integers, booleans, strings and
nulls exact and floats to 1e-12 relative.  A ``--format csv`` run must
reproduce its ``.csv`` file byte for byte, and the ``diagnostic:`` and
``report:`` lines it prints on stderr must equal its ``.err`` file.
Regenerate them, after a deliberate change of results only, with
``PYTHONPATH=src python tests/test_golden.py``.  Before it rewrites a file it
prints what moved: for each JSON number path (list indices written ``[]``)
the largest absolute and relative change, any other JSON difference, and the
number of CSV and stderr lines that differ.  It rewrites only the files whose
bytes changed.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from itertools import zip_longest
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
    with contextlib.redirect_stderr(err):
        rc = _run(name, cmd, out, "--format", "csv")
    lines = err.getvalue().splitlines(keepends=True)
    return rc, "".join(line for line in lines if line.startswith(STDERR_PREFIXES))


def _leaf_changes(got, want, path="$"):
    """``(path, got, want)`` for every leaf that differs.

    A dict whose keys differ, or a list whose length differs, is one leaf.
    """
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        for key in want:
            yield from _leaf_changes(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _leaf_changes(g, w, f"{path}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield path, got, want


def _mismatches(got, want):
    for path, g, w in _leaf_changes(got, want):
        if isinstance(w, float) and isinstance(g, float):
            if not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0):
                yield f"{path}: {g!r} != {w!r}"
        elif isinstance(w, dict) and isinstance(g, dict):
            yield f"{path}: keys {list(g)} != {list(w)}"
        elif isinstance(w, list) and isinstance(g, list):
            yield f"{path}: length {len(g)} != {len(w)}"
        else:
            yield f"{path}: {g!r} != {w!r}"


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _changes(new: Path, old: Path) -> list[str]:
    """What moved from the golden file *old* to the fresh output *new*."""
    if not old.exists():
        return [f"{old.name}: new file"]
    if new.read_bytes() == old.read_bytes():
        return []
    if new.suffix != ".json":
        a, b = (f.read_text(encoding="utf-8").splitlines() for f in (new, old))
        n = sum(1 for x, y in zip_longest(a, b) if x != y)
        return [f"{old.name}: {n} of {len(b)} lines differ"]
    moved, other = {}, []
    for path, g, w in _leaf_changes(json.loads(new.read_text()), json.loads(old.read_text())):
        path = re.sub(r"\[\d+\]", "[]", path)
        if _is_number(g) and _is_number(w):
            d = abs(g - w)
            rel = d / abs(w) if w else math.inf
            d0, rel0 = moved.get(path, (0.0, 0.0))
            moved[path] = (max(d0, d), max(rel0, rel))
        else:
            other.append(f"{old.name} {path}: {w!r} -> {g!r}")
    lines = [f"{old.name} {path}: abs {d:.3g}, rel {rel:.3g}" for path, (d, rel) in moved.items()]
    return lines + other or [f"{old.name}: bytes differ, values equal"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        for name, cmd in CASES:
            stem = f"{name}-{cmd}"
            if _run(name, cmd, fresh / f"{stem}.json") != 0:
                sys.exit(f"{name} {cmd}: nonzero exit")
            rc, err = _run_csv(name, cmd, fresh / f"{stem}.csv")
            if rc != 0:
                sys.exit(f"{name} {cmd} csv: nonzero exit")
            (fresh / f"{stem}.err").write_text(err, encoding="utf-8")
        changed = []
        for new in sorted(fresh.iterdir()):
            lines = _changes(new, GOLDEN / new.name)
            for line in lines:
                print(line)
            if lines:
                changed.append(new)
        for new in changed:
            (GOLDEN / new.name).write_bytes(new.read_bytes())
        print(f"rewrote {len(changed)} file(s)")
