"""Tests of the benchmark itself: tracer arithmetic, metric coverage,
restoration of wrapped functions, the correctness checker and the workload
generators.  Run with ``python -m pytest perfbench/tests``.
"""

import copy
import json
import math
from pathlib import Path

import pytest

import checks
import run
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
CONST = '{"kind":"constant","value":[[0.6,0.0],[0.3,0.0]],"resolution":32}'


def smoke_spec(trace: bool) -> dict:
    """A rank-one constant through all five commands on tiny grids."""
    sweep = ["--interval", "-2", "2", "--step", "0.05"]
    calls = [
        ("scan", sweep),
        ("sheets", sweep),
        ("qmomentum", ["--interval", "-7", "7", "--step", "0.05"]),
        ("verify", []),
        ("eigen", ["--window", "1", "1"]),
    ]
    return {
        "workload": "smoke",
        "seed": 0,
        "root": str(ROOT),
        "seconds": 0.0,
        "trace": trace,
        "references": None,
        "inputs": [{"label": "rank-one-constant", "rank_one": True, "text": CONST}],
        "invocations": [{"command": c, "input": 0, "args": a} for c, a in calls],
    }


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        ["invocation", 0.0, 10.0, -1],
        ["cli.main", 1.0, 9.0, 0],
        ["monodromy.monodromy_grid", 2.0, 5.0, 1],
        ["algebra.winding_count", 6.0, 8.0, 1],
        ["invocation", 20.0, 21.5, -1],
        ["cli._json_text", 20.5, 21.0, 4],
    ]
    assert tracer.self_times(spans) == [2.0, 3.0, 3.0, 2.0, 1.0, 0.5]
    totals = tracer.bucket_totals(spans)
    assert totals["other.self_s"] == 3.0
    assert totals["cli.self_s"] == 3.0
    assert totals["monodromy.self_s"] == 3.0
    assert totals["winding.self_s"] == 2.0
    assert totals["cli.serialise_s"] == 0.5
    assert sum(totals.values()) == tracer.root_wall(spans) == 11.5


def test_bucket_fallbacks():
    assert tracer.bucket_of("spectrum.scan") == "scan.self_s"
    assert tracer.bucket_of("spectrum.sheet_count") == "sheets.self_s"
    assert tracer.bucket_of("zs_oracle.zs_gaps") == "zs.self_s"
    assert tracer.bucket_of("errors.anything") == "other.self_s"


def _declared(kind: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace, kind):
    final, lines = run.run(smoke_spec(trace), tmp_path, probes=not trace)
    assert final["correct"], lines
    assert final["attempted"] >= 5 and final["failed"] == 0
    got = {name: m["unit"] for name, m in final["metrics"].items()}
    assert got == _declared(kind)
    for name, m in final["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert any(line.startswith(name + " ") for line in lines), name
    assert any(line.startswith("error_rate ") for line in lines)


def _snapshot(package):
    owners = [package, *(getattr(package, m) for m in tracer.MODULES), package.potential.Potential]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _assert_same(after, before):
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_run_restores_every_wrapped_function(tmp_path):
    package, _ = worker.set_up(smoke_spec(True))
    before = _snapshot(package)
    tr = tracer.Tracer()
    assert tr.install(package) > 50
    # a name imported with ``from .monodromy import monodromy_grid`` is wrapped too
    assert package.spectrum.monodromy_grid is not before[(id(package.spectrum), "monodromy_grid")]
    assert package.spectrum.monodromy_grid.__wrapped__ is package.monodromy.monodromy_grid.__wrapped__
    tr.restore()
    _assert_same(_snapshot(package), before)
    result = worker.measure(smoke_spec(True), tmp_path, 0.0, True)
    assert result["failed"] == 0, result["problems"]
    assert result["per_layer"]["monodromy.calls"]["value"] > 0
    _assert_same(_snapshot(package), before)


def _reference(name: str) -> dict:
    refs = json.loads((Path(run.HERE) / "references.json").read_text())
    return refs["workloads"][name]


def _summary(ref: dict, command: str) -> tuple[dict, dict]:
    inv = next(i for i in ref["invocations"] if i["command"] == command)
    return inv, inv["summary"]


def test_checker_accepts_the_reference_itself():
    for name in workloads.NAMES:
        ref = _reference(name)
        spec = workloads.build(name, 0)
        for inv in ref["invocations"]:
            rank_one = spec["inputs"][inv["input"]]["rank_one"]
            s = inv["summary"]
            assert checks.reference_free(inv, rank_one, s) == []
            assert checks.against_reference(inv["command"], s, s) == []


def test_checker_rejects_perturbed_results():
    ls = _reference("line-sweep")
    inv, ref = _summary(ls, "scan")
    bad = copy.deepcopy(ref)
    bad["gaps"][0][1] += 1e-8
    assert checks.against_reference("scan", bad, ref)

    inv, ref = _summary(ls, "sheets")
    bad = dict(ref, sheets=2)
    assert checks.against_reference("sheets", bad, ref)
    assert checks.reference_free(inv, False, bad)

    inv, ref = _summary(ls, "qmomentum")
    bad = dict(ref, integral=ref["integral"] * (1 + 1e-4))
    assert checks.against_reference("qmomentum", bad, ref)

    inv, ref = _summary(ls, "verify")
    bad = copy.deepcopy(ref)
    bad["status"]["wronskian"] = "FAIL"
    bad["ok"] = False
    assert checks.against_reference("verify", bad, ref)
    assert checks.reference_free(inv, False, bad)

    inv, ref = _summary(_reference("eigen-window"), "eigen")
    bad = copy.deepcopy(ref)
    bad["roots"][4][2] += 1e-5
    assert checks.against_reference("eigen", bad, ref)
    bad = copy.deepcopy(ref)
    bad["roots"][7][4] = 1e-6
    assert checks.reference_free(inv, False, bad)
    bad = copy.deepcopy(ref)
    del bad["roots"][0]
    assert checks.reference_free(inv, False, bad)
    assert checks.against_reference("eigen", bad, ref)


def test_checker_rejects_bad_invocations():
    inv = {"command": "scan", "input": 0, "args": []}
    assert checks.problems(inv, False, 3, None, None, None)[0] == ["exit code 3"]
    assert checks.problems(inv, False, 0, None, None, None)[0] == ["no output written"]
    assert checks.problems(inv, False, None, "ValueError: boom", None, None)[0]
    assert checks.problems(inv, False, 0, None, b"{not json", None)[0]


def test_workloads_are_seeded_and_keep_moduli():
    assert workloads.build("many-small", 7) == workloads.build("many-small", 7)
    assert workloads.build("many-small", 7) != workloads.build("many-small", 8)
    base = json.loads(workloads.build("line-sweep", 0)["inputs"][0]["text"])
    assert base["modes"] == {"1": [[0.25, 0.0], [0.1, 0.0]], "-1": [[0.0, 0.0], [0.2, 0.0]]}
    turned = json.loads(workloads.build("line-sweep", 5)["inputs"][0]["text"])
    for n, pair in base["modes"].items():
        for (a, b), (c, d) in zip(pair, turned["modes"][n]):
            assert math.isclose(math.hypot(a, b), math.hypot(c, d), abs_tol=1e-15)
    assert turned["modes"] != base["modes"]


def test_many_small_seeds_are_symmetric_copies_of_one_batch():
    batch = workloads.build("many-small", 0)
    for seed in (1, 797528027):
        spec = workloads.build("many-small", seed)
        assert spec["invocations"] == batch["invocations"]
        for base, item in zip(batch["inputs"], spec["inputs"]):
            assert (item["label"], item["rank_one"]) == (base["label"], base["rank_one"])
            a, b = json.loads(base["text"]), json.loads(item["text"])
            assert a != b and a.get("breakpoints") == b.get("breakpoints")
            for key in ("value", "values", "modes"):
                if key in a:
                    moduli = [abs(complex(*c)) for c in _pairs(a[key])]
                    assert moduli == pytest.approx([abs(complex(*c)) for c in _pairs(b[key])], abs=1e-15)


def _pairs(tree):
    """The [re, im] leaves of a nested potential document."""
    if isinstance(tree, dict):
        tree = [tree[k] for k in sorted(tree)]
    if len(tree) == 2 and all(isinstance(x, float) for x in tree):
        return [tree]
    return [leaf for sub in tree for leaf in _pairs(sub)]


@pytest.mark.parametrize("batch_seed,index,command,what", workloads.KNOWN_FAILURES)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known program failure; see workloads.KNOWN_FAILURES")
def test_known_failure_inputs(tmp_path, batch_seed, index, command, what):
    item = workloads.many_small_inputs(0, batch_seed)[index]
    text = json.dumps(item["doc"], separators=(",", ":"))
    inv = {"command": command, "input": index, "args": workloads.SWEEP if command == "sheets" else []}
    out = tmp_path / "out.json"
    package, _ = worker.set_up({"root": str(ROOT), "inputs": []})
    rc = package.cli.main([command, "--potential", text, *inv["args"], "--out", str(out)])
    data = out.read_bytes() if out.exists() else None
    found, _ = checks.problems(inv, item["rank_one"], rc, None, data, None)
    assert found == [], f"{what}: {found}"


def test_hung_invocation_becomes_a_failed_operation(tmp_path):
    # an interval where ulp(lam) exceeds the bisection target never converges
    spec = smoke_spec(False)
    spec["invocations"].insert(
        1, {"command": "scan", "input": 0, "args": ["--interval", "1e8", "100000000.5"]}
    )
    final, lines = run.run(spec, tmp_path, probes=False, limit=15.0)
    assert final["correct"] is False
    assert final["attempted"] == 2 and final["failed"] == 1
    assert any("killed at the wall-clock limit" in line for line in lines)
    assert final["metrics"]["wall_s"]["value"] >= 10.0
