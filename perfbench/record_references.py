"""Record the reference summaries that seed-0 runs are compared against.

    python3 perfbench/record_references.py

Runs every workload once at seed 0 with the package in ``src`` and writes
``perfbench/references.json``: the exact potential texts, the invocation list
and the checked summary of each output (see ``checks.summarise``).  Record
again only when a workload's definition changes, never to make a failing
comparison pass.  An invocation that fails its reference-free checks stops
the recording.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def record(name: str) -> dict:
    spec = workloads.build(name, run.REFERENCE_SEED)
    spec["root"] = str(run.ROOT)
    package, _ = worker.set_up(spec)
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        loop = worker.Loop(spec, package, run_dir, references=None)
        loop.run_pass()
        loop.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if loop.failed:
        raise SystemExit(f"{name}: " + "; ".join(loop.problems))
    return {
        "inputs": [item["text"] for item in spec["inputs"]],
        "invocations": [
            {**inv, "summary": summary} for inv, summary in zip(spec["invocations"], loop.summaries)
        ],
    }


def main() -> int:
    out = {
        "seed": run.REFERENCE_SEED,
        "environment": run.environment(run.REFERENCE_SEED),
        "workloads": {name: record(name) for name in workloads.NAMES},
    }
    (HERE / "references.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
