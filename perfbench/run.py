"""Benchmark entry point: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload line-sweep --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/manakov_spectra``.  The
parent process generates the workload from the seed, times several fresh
set-up processes, then runs the workload in its own child process under a
wall-clock limit, so a hung invocation becomes failed operations instead of a
stalled run.  It prints every metric by name and unit, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh set-up processes per run, before and after the workload, so that the
# median samples the machine at both ends of the run.
SETUP_PROBES = (3, 4)
REFERENCE_SEED = 0
# Everything, set-up included, must finish inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
COMMANDS = ("scan", "sheets", "qmomentum", "verify", "eigen")


def pinned_env() -> dict:
    """One BLAS/OpenMP thread; no bytecode cache, so set-up always compiles."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit(root: Path) -> str:
    """HEAD of a plain git checkout, read from files; 'none' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: Path) -> str:
    """Content hash of the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    env = pinned_env()
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned": {v: env[v] for v in (*THREAD_VARS, "PYTHONDONTWRITEBYTECODE")},
        "seed": seed,
    }


def load_references(name: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED:
        return None
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    return refs["workloads"].get(name)


def check_reference_shape(spec: dict, ref: dict | None) -> None:
    """References must describe exactly the invocations being run."""
    if ref is None:
        return
    got = [(i["command"], i["input"], i["args"]) for i in spec["invocations"]]
    want = [(i["command"], i["input"], i["args"]) for i in ref["invocations"]]
    texts = [item["text"] for item in spec["inputs"]]
    if got != want or texts != ref["inputs"]:
        raise SystemExit("perfbench: references.json does not match the workload; re-record it")


def setup_probes(run_dir: Path, env: dict, deadline: float, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(run_dir), "--setup"],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_worker(run_dir: Path, env: dict, deadline: float) -> tuple[dict | None, str]:
    """Run the workload child; on a timeout it is killed and waited for."""
    with open(run_dir / "worker.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(run_dir)],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, "killed at the wall-clock limit"
    if proc.returncode != 0:
        return None, f"worker exited with code {proc.returncode}"
    return json.loads((run_dir / "result.json").read_text(encoding="utf-8")), ""


def partial_result(run_dir: Path, reason: str, elapsed: float) -> dict:
    """What a killed or crashed worker managed, plus its in-flight invocation.

    With no pass finished, the time the worker ran stands in for ``wall_s``
    and the parent's view of its children gives ``peak_rss_mb``.
    """
    done = []
    progress = run_dir / "progress.jsonl"
    if progress.exists():
        done = [json.loads(line) for line in progress.read_text().splitlines() if line.strip()]
    return {
        "attempted": len(done) + 1,
        "failed": sum(1 for d in done if not d["ok"]) + 1,
        "problems": [f"workload process: {reason}"],
        "passes": [],
        "elapsed_s": elapsed,
        "inputs": [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(spec: dict, result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, plus printed lines for per-command times."""
    lines = []
    per_command: dict[str, list[float]] = {}
    for times in result["passes"]:
        for inv, t in zip(spec["invocations"], times):
            per_command.setdefault(inv["command"], []).append(t)
    for cmd in COMMANDS:
        if cmd in per_command:
            ts = per_command[cmd]
            lines.append(f"{cmd}_s {_median(ts):.6f} s (median of {len(ts)} invocations)")
    passes = result["passes"]
    wall = worker.pass_wall(passes) if passes else result["elapsed_s"]
    lines.append(f"wall_s {wall:.6f} s (per-invocation medians over {len(passes)} passes, summed)")
    lines.append(f"setup_s {_median(setup):.6f} s (median of {len(setup)} fresh processes)")
    lines.append(f"peak_rss_mb {result['peak_rss_mb']:.3f} MiB")
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": _median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }
    return metrics, lines


def run(spec: dict, run_dir: Path, probes: bool, limit: float = RUN_LIMIT_S) -> tuple[dict, list[str]]:
    """Measure one spec within ``limit`` seconds; returns the JSON object and the printed lines."""
    deadline = time.monotonic() + limit
    env = pinned_env()
    (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    before, after = SETUP_PROBES if probes else (0, 0)
    setup = setup_probes(run_dir, env, deadline, before)
    started = time.monotonic()
    result, reason = run_worker(run_dir, env, deadline)
    if result is None:
        result = partial_result(run_dir, reason, time.monotonic() - started)
    else:
        setup += setup_probes(run_dir, env, deadline, after)
    lines = [f"workload {spec['workload']} seed {spec['seed']} trace {int(spec['trace'])}"]
    lines.append("environment " + json.dumps({**environment(spec["seed"]), "numpy": result.get("numpy")}))
    for k, row in enumerate(result["inputs"]):
        flag = " MISMATCH" if row["metadata_resolution"] not in (None, row["cells"]) else ""
        lines.append(
            f"input {k} {row['label']}: declared {row['declared']}, canonical {row['cells']} cells, "
            f"{row['runs']} runs, exact {row['exact']}, metadata.resolution {row['metadata_resolution']}{flag}"
        )
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} invocations failed)")
    lines.extend(f"problem: {p}" for p in result["problems"])
    if spec["trace"]:
        metrics = result.get("per_layer", {})
        lines.extend(f"{k} {v['value']!r} {v['unit']}" for k, v in metrics.items())
    else:
        metrics, more = end_to_end(spec, result, setup)
        lines.extend(more)
    correct = failed == 0
    lines.append(f"correct {str(correct).lower()}")
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return final, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "manakov_spectra" / "cli.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = workloads.build(args.workload, args.seed)
    ref = load_references(args.workload, args.seed)
    check_reference_shape(spec, ref)
    spec.update(
        {"root": str(ROOT), "seconds": args.seconds, "trace": bool(args.trace), "references": ref}
    )
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        final, lines = run(spec, run_dir, probes=not args.trace)
        if args.trace and (run_dir / "spans.json").exists():
            keep = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            os.replace(run_dir / "spans.json", keep)
            lines.append(f"spans written to {keep.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
