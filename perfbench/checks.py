"""Correctness checks on CLI outputs, with and without recorded references.

``summarise`` reduces one output document to the numbers that matter:
gap endpoints, the gap-mass integral, the sheet verdict, per-check ``verify``
status, and the eigenvalue roots with the table's failures.  ``problems``
returns what is wrong with one invocation, as a list of strings (empty when
correct).  Checks that need no reference run on every seed; comparisons
against ``references.json`` run when the seed is the recorded one.

The tolerances are the ones the package and its tests enforce; none is wider
than the guarantee it rests on.
"""

from __future__ import annotations

import json
import math

# spectrum.ENDPOINT_ACCURACY: each bisected endpoint lies within it of the
# discriminant zero, so two independent computations may differ by twice it.
ENDPOINT_ACCURACY = 1e-9
# periodic_eigen.RESIDUAL_TOL, applied as the package does: scaled by e^|Im z|.
RESIDUAL_TOL = 1e-9
# root-position tolerance of the closed-form eigenvalue test
# (tests/test_periodic_eigen.py::test_constant_closed_form_eigenvalues).
ROOT_TOL = 1e-6
# quasimomentum.QUAD_REL_TOL: per-gap convergence of the gap-mass quadrature.
QUAD_REL_TOL = 1e-6


def summarise(command: str, doc: dict) -> dict:
    """The checked content of one output document."""
    if command in ("scan", "sheets"):
        out = {"gaps": doc["gaps"]}
        if command == "sheets":
            out["sheets"] = doc["sheets"]
        return out
    if command == "qmomentum":
        return {"integral": doc["report"]["integral"]}
    if command == "verify":
        return {"ok": doc["ok"], "status": {c["name"]: c["status"] for c in doc["checks"]}}
    if command == "eigen":
        return {
            "window": doc["window"],
            "roots": [[e["n"], e["j"], e["z"][0], e["z"][1], e["residual"]] for e in doc["entries"]],
            # the table's notes are the only diagnostics that are not failures
            "failures": [d for d in doc["diagnostics"] if not d.startswith("cell near")],
        }
    raise ValueError(f"unknown command {command!r}")


def _gap_problems(gaps, interval) -> list[str]:
    out = []
    lo, hi = interval
    for a, b in gaps:
        if not (lo <= a < b <= hi):
            out.append(f"gap [{a}, {b}] is empty or outside [{lo}, {hi}]")
    for (_, b), (a, _) in zip(gaps, gaps[1:]):
        if not b < a:
            out.append(f"gaps overlap or are out of order at {b} / {a}")
    return out


def _flag_pair(args: list[str], flag: str, kind):
    k = args.index(flag)
    return kind(args[k + 1]), kind(args[k + 2])


def reference_free(inv: dict, rank_one: bool, summary: dict) -> list[str]:
    """Checks that hold on every seed."""
    cmd = inv["command"]
    if cmd in ("scan", "sheets"):
        out = _gap_problems(summary["gaps"], _flag_pair(inv["args"], "--interval", float))
        if cmd == "sheets":
            want = 2 if rank_one else 3
            if summary["sheets"] != want:
                out.append(f"sheet verdict {summary['sheets']}, expected {want}")
        return out
    if cmd == "qmomentum":
        value = summary["integral"]
        if not (math.isfinite(value) and value >= 0.0):
            return [f"gap-mass integral {value} is not a finite nonnegative number"]
        return []
    if cmd == "verify":
        out = [] if summary["ok"] else ["verify reports ok=false"]
        for name, status in summary["status"].items():
            want = "PASS" if rank_one or name != "rank-one-reduction" else "SKIP"
            if status != want:
                out.append(f"verify check {name}: {status}, expected {want}")
        return out
    if cmd == "eigen":
        out = [f"eigen failure: {f}" for f in summary["failures"]]
        n_min, n_max = _flag_pair(inv["args"], "--window", int)
        for n in range(n_min, n_max + 1):
            roots = [r for r in summary["roots"] if r[0] == n]
            good = [r for r in roots if r[4] <= RESIDUAL_TOL * math.exp(abs(r[3]))]
            if len(roots) != 3 or len(good) != 3:
                out.append(f"disk n={n}: {len(good)} of {len(roots)} roots under the residual tolerance, expected 3 of 3")
        return out
    raise ValueError(f"unknown command {cmd!r}")


def _gaps_match(got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} gaps, reference has {len(want)}"]
    tol = 2.0 * ENDPOINT_ACCURACY
    out = []
    for g, w in zip(got, want):
        if max(abs(g[0] - w[0]), abs(g[1] - w[1])) > tol:
            out.append(f"gap {g} differs from reference {w} by more than {tol:g}")
    return out


def against_reference(cmd: str, summary: dict, ref: dict) -> list[str]:
    """Comparison with the recorded summary of the same invocation."""
    if cmd in ("scan", "sheets"):
        out = _gaps_match(summary["gaps"], ref["gaps"])
        if cmd == "sheets" and summary["sheets"] != ref["sheets"]:
            out.append(f"sheet verdict {summary['sheets']}, reference {ref['sheets']}")
        return out
    if cmd == "qmomentum":
        tol = QUAD_REL_TOL * max(1.0, abs(ref["integral"]))
        if abs(summary["integral"] - ref["integral"]) > tol:
            return [f"gap-mass integral {summary['integral']!r}, reference {ref['integral']!r}"]
        return []
    if cmd == "verify":
        if summary["status"] != ref["status"]:
            return [f"verify statuses {summary['status']}, reference {ref['status']}"]
        return []
    if cmd == "eigen":
        out = []
        if summary["failures"] != ref["failures"]:
            out.append(f"eigen failures {summary['failures']}, reference {ref['failures']}")
        got = {(r[0], r[1]): complex(r[2], r[3]) for r in summary["roots"]}
        want = {(r[0], r[1]): complex(r[2], r[3]) for r in ref["roots"]}
        if set(got) != set(want):
            return out + [f"root labels {sorted(got)}, reference {sorted(want)}"]
        for key, z in sorted(want.items()):
            if abs(got[key] - z) > ROOT_TOL:
                out.append(f"root n={key[0]} j={key[1]} at {got[key]}, reference {z}")
        return out
    raise ValueError(f"unknown command {cmd!r}")


def problems(inv: dict, rank_one: bool, rc, error: str | None, data: bytes | None, ref: dict | None):
    """Everything wrong with one invocation, and its summary when readable."""
    if error is not None:
        return [error], None
    found = [] if rc == 0 else [f"exit code {rc}"]
    if data is None:
        return found or ["no output written"], None
    # verify writes its report before exiting with 3, so a nonzero code can
    # still come with an output that says which check failed
    try:
        summary = summarise(inv["command"], json.loads(data))
    except (ValueError, KeyError) as exc:
        return found + [f"unreadable output: {exc!r}"], None
    found += reference_free(inv, rank_one, summary)
    if ref is not None:
        found += against_reference(inv["command"], summary, ref)
    return found, summary
