"""Child process that runs one workload in a closed loop.

Usage: ``python3 perfbench/worker.py RUN_DIR [--setup]``.  ``RUN_DIR`` holds
``spec.json``, written by ``run.py``.  With ``--setup`` the worker only times
its set-up (import the package, load and canonicalise every input), prints
``{"setup_s": ...}`` and exits.  Otherwise one caller calls
``manakov_spectra.cli.main`` in-process, one invocation after another, and
checks every output.  Each finished invocation appends a line to
``progress.jsonl``; the full result goes to ``result.json`` at the end.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402


def load_package(root: Path):
    """Import the package from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import manakov_spectra
    import manakov_spectra.cli

    origin = Path(manakov_spectra.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"manakov_spectra imported from {origin}, not from {src}")
    return manakov_spectra


def set_up(spec: dict):
    """Import, then load and canonicalise every input; returns (package, table)."""
    package = load_package(Path(spec["root"]))
    table = []
    for item in spec["inputs"]:
        p = package.cli.load_potential(item["text"])
        grid = p.canonical()
        table.append(
            {
                "label": item["label"],
                "declared": p.resolution,
                "cells": grid.resolution,
                "runs": len(grid.runs()[1]),
                "exact": grid.exact,
            }
        )
    return package, table


class Loop:
    """Runs passes over the invocation list and checks what they produce."""

    def __init__(self, spec: dict, package, run_dir: Path, references: dict | None):
        self.spec = spec
        self.cli = package.cli
        self.run_dir = run_dir
        self.references = references
        self.first_bytes: list[bytes | None] = [None] * len(spec["invocations"])
        self.summaries: list[dict | None] = [None] * len(spec["invocations"])
        self.metadata_resolution: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.progress = open(run_dir / "progress.jsonl", "a", encoding="utf-8")

    def close(self):
        self.progress.close()

    def _argv(self, inv: dict, out: Path) -> list[str]:
        text = self.spec["inputs"][inv["input"]]["text"]
        return [inv["command"], "--potential", text, *inv["args"], "--out", str(out)]

    def run_pass(self, invoke=None) -> list[float]:
        """One pass; returns the wall time of each invocation."""
        times = []
        for i, inv in enumerate(self.spec["invocations"]):
            out = self.run_dir / f"out-{i}.json"
            argv = self._argv(inv, out)
            error = rc = None
            t0 = time.perf_counter()
            try:
                # looked up per call, so a traced pass calls the wrapped main
                rc = invoke(self.cli.main, argv) if invoke else self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # one bad call must not stop the loop
                error = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            data = out.read_bytes() if out.exists() else None
            if out.exists():
                out.unlink()
            self._check(i, inv, rc, error, data)
        return times

    def _check(self, i: int, inv: dict, rc, error, data) -> None:
        item = self.spec["inputs"][inv["input"]]
        ref = None
        if self.references is not None:
            ref = self.references["invocations"][i]["summary"]
        found, summary = checks.problems(inv, item["rank_one"], rc, error, data, ref)
        if data is not None and summary is not None:
            if self.first_bytes[i] is None:
                self.first_bytes[i] = data
                self.summaries[i] = summary
                meta = json.loads(data).get("metadata", {})
                if "resolution" in meta:
                    self.metadata_resolution.setdefault(inv["input"], meta["resolution"])
            elif data != self.first_bytes[i]:
                found.append("output differs from the first invocation's bytes")
        self.attempted += 1
        if found:
            self.failed += 1
            label = f"{inv['command']} on input {inv['input']} ({item['label']})"
            self.problems.extend(f"{label}: {p}" for p in found)
        self.progress.write(json.dumps({"i": i, "ok": not found}) + "\n")
        self.progress.flush()


def pass_wall(passes: list[list[float]]) -> float:
    """Time of one pass: each invocation's median over the passes, summed.

    Per-invocation medians keep one slow invocation, such as a neighbour's
    burst of load, from moving the figure the way a whole slow pass would.
    """
    return sum(statistics.median(column) for column in zip(*passes))


def _trace_metrics(tr: tracer.Tracer, untraced_wall: float, table: list[dict], mismatches: int) -> dict:
    c = tr.counts
    totals = tracer.bucket_totals(tr.spans)
    wall = tracer.root_wall(tr.spans)
    points = c["monodromy.points"]
    point_runs = c["monodromy.point_runs"]
    mono_incl = sum(end - start for name, start, end, _ in tr.spans if name == "monodromy.monodromy_grid")
    m = {
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.spans": (len(tr.spans), "count"),
        "potential.cells": (sum(r["cells"] for r in table), "count"),
        "potential.runs": (sum(r["runs"] for r in table), "count"),
        "potential.resolution_mismatch": (mismatches, "count"),
        "monodromy.calls": (c["monodromy.calls"], "count"),
        "monodromy.points": (points, "count"),
        "monodromy.point_runs": (point_runs, "count"),
        "monodromy.ns_per_point_run": (1e9 * mono_incl / point_runs if point_runs else 0.0, "ns"),
        "monodromy.points_per_call": (points / c["monodromy.calls"] if c["monodromy.calls"] else 0.0, "count"),
        "monodromy.repeat_share": (c["monodromy.repeat_points"] / points if points else 0.0, "ratio"),
        "scan.grid_points": (c["scan.grid_points"], "count"),
        "scan.refine_calls": (c["scan.refine_calls"], "count"),
        "scan.refine_points": (c["scan.refine_points"], "count"),
        "cubic.calls": (c["cubic.calls"], "count"),
        "cubic.roots": (c["cubic.roots"], "count"),
        "cubic.errors": (c["cubic.errors"], "count"),
        "winding.calls": (c["winding.calls"], "count"),
        "winding.samples": (c["winding.samples"], "count"),
        "winding.through_zero": (c["winding.through_zero"], "count"),
        "winding.undersampled": (c["winding.undersampled"], "count"),
        "winding.ok_ratio": (c["winding.ok"] / c["winding.calls"] if c["winding.calls"] else 0.0, "ratio"),
        "eigen.d_calls": (c["eigen.d_calls"], "count"),
        "eigen.d_points": (c["eigen.d_points"], "count"),
        "eigen.disk_points": (c["eigen.disk_points"], "count"),
        "eigen.scalar_d_calls": (c["eigen.scalar_d_calls"], "count"),
        "eigen.disks": (c["eigen.disks"], "count"),
        "eigen.roots": (c["eigen.roots"], "count"),
        "eigen.root_yield": (c["eigen.roots"] / (3 * c["eigen.disks"]) if c["eigen.disks"] else 0.0, "ratio"),
        "eigen.d_points_per_root": (c["eigen.d_points"] / c["eigen.roots"] if c["eigen.roots"] else 0.0, "count"),
        "eigen.failures": (c["eigen.failures"], "count"),
        "qprofile.points": (c["qprofile.points"], "count"),
        "quad.rounds": (c["quad.rounds"], "count"),
        "quad.points": (c["quad.points"], "count"),
        "zs.calls": (tr.zs_calls(), "count"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
    }
    for name, value in totals.items():
        m[name] = (value, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(spec: dict, run_dir: Path, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop for ``seconds`` and return the result."""
    package, table = set_up(spec)
    references = spec.get("references")
    loop = Loop(spec, package, run_dir, references)
    passes = []
    # Two passes at least, so every run compares repeated outputs byte for
    # byte; in a traced run the traced pass is the repeat.
    min_passes = 1 if trace else 2
    tr = tracer.Tracer() if trace else None
    durations = []
    try:
        # a further pass starts only if a typical pass still fits in the time
        while len(passes) < min_passes or sum(durations) + statistics.median(durations) <= seconds:
            t0 = time.perf_counter()
            passes.append(loop.run_pass())
            durations.append(time.perf_counter() - t0)
        if tr is not None:
            tr.install(package)
            try:
                loop.run_pass(invoke=tr.invoke)
            finally:
                tr.restore()
    finally:
        loop.close()
    for k, row in enumerate(table):
        row["metadata_resolution"] = loop.metadata_resolution.get(k)
    result = {
        "passes": passes,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems[:50],
        "inputs": table,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tr is not None:
        mismatches = sum(1 for row in table if row["metadata_resolution"] not in (None, row["cells"]))
        result["per_layer"] = _trace_metrics(tr, pass_wall(passes), table, mismatches)
        with open(run_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tr.spans}, fh)
    return result


def main(argv: list[str]) -> int:
    run_dir = Path(argv[0])
    spec = json.loads((run_dir / "spec.json").read_text(encoding="utf-8"))
    if "--setup" in argv[1:]:
        t0 = time.perf_counter()
        set_up(spec)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    result = measure(spec, run_dir, spec["seconds"], spec["trace"])
    tmp = run_dir / "result.json.tmp"
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, run_dir / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
