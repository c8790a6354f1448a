"""Print one digest line per CLI output of the benchmark's seed-0 invocations.

Runs every seed-0 invocation of the ``line-sweep``, ``eigen-window`` and
``many-small`` workloads (``perfbench/workloads.py``, read only) through
``manakov_spectra.cli.main``: in JSON for all three workloads, and in CSV as
well for ``many-small``.  Each line names the invocation and gives the
SHA-256 of the output file, the exit code and a hash of stderr.  Python
warnings are recorded as ``category: message`` rather than through the
default formatter, whose text carries the file path and line number of the
warning site.

To check that a change leaves every output byte alone, run the script at
both commits and compare::

    PYTHONPATH=src python tests/output_digest.py > after.txt
    diff before.txt after.txt

Compare digests taken on one machine only.  numpy's ``matmul`` calls a BLAS
``zgemm`` kernel that is chosen by CPU at run time, and numpy's own SIMD
loops are too, so the same commit may print different bits on another
machine.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from manakov_spectra import cli  # noqa: E402

FORMATS = {"line-sweep": ("json",), "eigen-window": ("json",), "many-small": ("json", "csv")}


def _digest(argv: list[str], out: Path) -> str:
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main([*argv, "--out", str(out)])
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    body = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    stderr = hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()[:16]
    return f"sha256={hashlib.sha256(body).hexdigest()} rc={rc} stderr={stderr}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "output"
        for name in workloads.NAMES:
            spec = workloads.build(name, 0)
            for i, inv in enumerate(spec["invocations"]):
                text = spec["inputs"][inv["input"]]["text"]
                argv = [inv["command"], "--potential", text, *inv["args"]]
                for fmt in FORMATS[name]:
                    line = _digest([*argv, "--format", fmt], out)
                    print(f"{name} {i:02d} {inv['command']} {fmt} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
