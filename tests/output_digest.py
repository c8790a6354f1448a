"""Print one digest line per CLI output of the benchmark's seed-0 invocations.

Runs every seed-0 invocation of the ``line-sweep``, ``eigen-window`` and
``many-small`` workloads (``perfbench/workloads.py``, read only) through
``manakov_spectra.cli.main``: in JSON for all three workloads, and in CSV as
well for ``many-small``.  Each line names the invocation and gives the
SHA-256 of the output file, the exit code and a hash of stderr.  Python
warnings are recorded as ``category: message`` rather than through the
default formatter, whose text carries the file path and line number of the
warning site.

After each workload, one ``engine`` line gives three SHA-256 digests of the
``monodromy_grid`` results, the number of calls, the number of
``monodromy._eval_chunk`` calls (``chunks=``) and the number of rows they
evaluated.  ``sha256=`` hashes the bytes of every
call's ``trace`` and ``trace_conj``, in call order, so it changes when the
same points are grouped into other calls.  ``rows_sha256=`` does not: it
hashes one record per requested point, the bytes of its ``lam``, ``trace``
and ``trace_conj``, with the records sorted by those bytes.
``psi_sha256=`` hashes such records of ``lam`` and the nine entries of
``psi``.  Outputs are rounded and reduced, so they can hide a changed bit of
the propagator; these digests do not.  The rows are the points the engine
propagated: the points callers request, plus the conjugate of each with
``|Im lam| > 6``, which ``monodromy_grid`` propagates again for its
``trace_conj``.

To check that a change leaves every output byte and every engine bit alone,
run the script at both commits and compare::

    PYTHONPATH=src python tests/output_digest.py > after.txt
    diff before.txt after.txt

Compare digests taken on one machine only.  The engine's tree product calls
BLAS ``dgemm`` through numpy's ``matmul``, and the kernel is chosen by CPU
at run time, as numpy's own SIMD loops are, so the same commit may print
different bits on another machine.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pkgutil
import sys
import tempfile
import warnings
from importlib import import_module
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

import manakov_spectra  # noqa: E402
from manakov_spectra import cli, monodromy  # noqa: E402

FORMATS = {"line-sweep": ("json",), "eigen-window": ("json",), "many-small": ("json", "csv")}


def _engine_users() -> list:
    """Every module of the package that binds the name ``monodromy_grid``."""
    names = (info.name for info in pkgutil.iter_modules(manakov_spectra.__path__))
    modules = (import_module(f"manakov_spectra.{name}") for name in names)
    return [module for module in modules if hasattr(module, "monodromy_grid")]


def _records(rows) -> list:
    """The bytes of each row of a complex 2-D array, one bytes-like record a row."""
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    return rows.view(f"V{16 * rows.shape[1]}").ravel().tolist()


@contextlib.contextmanager
def _engine_digest():
    """Hash every ``monodromy_grid`` result and count chunks and rows while the block runs."""
    modules = _engine_users()
    propagate = monodromy.monodromy_grid
    eval_chunk = monodromy._eval_chunk
    state = {"hash": hashlib.sha256(), "records": [], "psi": [], "calls": 0, "chunks": 0, "rows": 0}

    def recording(p, lam, **kwargs):
        g = propagate(p, lam, **kwargs)
        state["calls"] += 1
        for key in ("trace", "trace_conj"):
            state["hash"].update(np.ascontiguousarray(g[key]).tobytes())
        fields = [g[key] for key in ("lam", "trace", "trace_conj")]
        state["records"].extend(_records(np.stack(fields, axis=1)))
        psi = np.reshape(g["psi"], (-1, 9))
        state["psi"].extend(_records(np.concatenate([g["lam"][:, None], psi], axis=1)))
        return g

    def evaluating(lam, *args):
        state["chunks"] += 1
        state["rows"] += len(lam)
        return eval_chunk(lam, *args)

    for module in modules:
        module.monodromy_grid = recording
    monodromy._eval_chunk = evaluating
    try:
        yield state
    finally:
        monodromy._eval_chunk = eval_chunk
        for module in modules:
            module.monodromy_grid = propagate


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
            with _engine_digest() as engine:
                for i, inv in enumerate(spec["invocations"]):
                    text = spec["inputs"][inv["input"]]["text"]
                    argv = [inv["command"], "--potential", text, *inv["args"]]
                    for fmt in FORMATS[name]:
                        line = _digest([*argv, "--format", fmt], out)
                        print(f"{name} {i:02d} {inv['command']} {fmt} {line}", flush=True)
            digest = engine["hash"].hexdigest()
            rows_digest = hashlib.sha256(b"".join(sorted(engine["records"]))).hexdigest()
            psi_digest = hashlib.sha256(b"".join(sorted(engine["psi"]))).hexdigest()
            calls, chunks, rows = engine["calls"], engine["chunks"], engine["rows"]
            print(
                f"{name} engine sha256={digest} rows_sha256={rows_digest} "
                f"psi_sha256={psi_digest} calls={calls} chunks={chunks} rows={rows}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
