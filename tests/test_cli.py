"""Command-line surface: exit codes, formats, determinism, diagnostics."""

import importlib
import json
import math
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import manakov_spectra
from manakov_spectra import NumericalError, cli, monodromy
from manakov_spectra.cli import _csv_text, _json_text, main
from test_golden import INPUTS

CONST = '{"kind":"constant","value":[0.9,0.0],"resolution":64}'
ZERO = '{"kind":"zero","resolution":64}'
FOURIER = (
    '{"kind":"fourier","modes":{"1":[[0.25,0.0],[0.1,0.0]],'
    '"-1":[[0.0,0.0],[0.2,0.0]]},"resolution":64}'
)
RANK1_FOURIER = (
    '{"kind":"fourier","modes":{"0":[[0.35,0.0],[0.0,0.0]],'
    '"1":[[0.2,0.0],[0.0,0.0]]},"resolution":128}'
)


def run_main(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_scan_json_zero(capsys):
    rc, out, err = run_main(
        ["scan", "--potential", ZERO, "--interval", "-3", "3", "--step", "0.01"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["gaps"] == []
    meta = doc["metadata"]
    assert meta["resolution"] == 64
    assert len(meta["potential_hash"]) == 16
    assert len(doc["samples"]["lam"]) == 601
    assert len(doc["samples"]["multiplicity"]) == 601


def test_scan_csv_const(capsys):
    rc, out, err = run_main(
        [
            "scan",
            "--potential",
            CONST,
            "--interval",
            "-2",
            "2",
            "--step",
            "0.01",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lam,disc,phi,multiplicity"
    assert len(lines) == 402
    # diagnostics ride on stderr, never in the data stream
    assert "diagnostic" not in out


def test_output_file_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        rc, _, _ = run_main(
            [
                "scan",
                "--potential",
                CONST,
                "--interval",
                "-2",
                "2",
                "--out",
                str(target),
            ],
            capsys,
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_eigen_csv_columns(capsys):
    rc, out, _ = run_main(
        [
            "eigen",
            "--potential",
            CONST,
            "--window",
            "1",
            "2",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,j,re_z,im_z,parity,residual,dev_first_order"
    assert len(lines) == 7  # two triples
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[2]) - 3.141592653589793) <= 1e-9


def test_verify_clean_pass(capsys):
    rc, out, _ = run_main(["verify", "--potential", CONST], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"]
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert set(statuses.values()) <= {"PASS", "SKIP"}
    assert statuses["determinant"] == "PASS"
    assert statuses["rank-one-reduction"] == "PASS"


def _verify_statuses(capsys) -> dict:
    rc, out, _ = run_main(["verify", "--potential", CONST], capsys)
    assert rc == 3
    doc = json.loads(out)
    assert not doc["ok"]
    return {c["name"]: c["status"] for c in doc["checks"]}


def test_verify_perturbed_propagator_fails_the_matrix_checks(monkeypatch, capsys):
    # psi off by 2e-6 in one entry, its traces untouched: the checks on the
    # whole matrix fail, and those on the traces alone still hold
    propagate = cli.monodromy_grid

    def perturbed(p, lam, **kwargs):
        g = propagate(p, lam, **kwargs)
        g["psi"][..., 0, 0] *= 1.0 + 2e-6
        return g

    monkeypatch.setattr(cli, "monodromy_grid", perturbed)
    statuses = _verify_statuses(capsys)
    assert statuses.pop("determinant") == "FAIL"
    assert statuses.pop("wronskian") == "FAIL"
    assert set(statuses.values()) == {"PASS"}


def test_verify_perturbed_trace_recovery_fails(monkeypatch, capsys):
    recover = cli.recover_traces
    monkeypatch.setattr(
        cli, "recover_traces", lambda *args: tuple(x * (1.0 + 1e-6) for x in recover(*args))
    )
    statuses = _verify_statuses(capsys)
    assert statuses.pop("trace-recovery") == "FAIL"
    assert set(statuses.values()) == {"PASS"}


# two runs of amplitude 6: a graded propagator, whose determinant by
# cofactors is off by 2.2e-10, against 1.5e-11 by pivoted LU
GRADED_STEP = (
    '{"kind":"piecewise","breakpoints":[0,0.5,1],'
    '"values":[[[6,0],[0,3]],[[0,3],[6,0]]]}'
)


@pytest.mark.parametrize(
    "potential", ['{"kind":"constant","value":[5.0,3.0]}', GRADED_STEP], ids=["const-5-3", "graded-step"]
)
def test_verify_passes_on_graded_propagators(potential, capsys):
    # det psi from a pivoted LU of the whole propagator loses no more to the
    # grading of its entries than the Wronskian check does
    rc, out, _ = run_main(["verify", "--potential", potential], capsys)
    assert rc == 0
    assert all(c["status"] != "FAIL" for c in json.loads(out)["checks"])


def test_verify_determinant_sees_a_dropped_step(monkeypatch, capsys):
    # a propagator that misses its last step still keeps the Wronskian and
    # every trace identity; only det psi = e^{i lam} tells
    tree = monodromy._tree_product
    monkeypatch.setattr(monodromy, "_tree_product", lambda steps: tree(steps[:, :-1]))
    rc, out, _ = run_main(["verify", "--potential", INPUTS["step"]], capsys)
    assert rc == 3
    failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "FAIL"]
    assert failed == ["determinant"]


def test_sheets_verdicts(capsys):
    rc, out, _ = run_main(
        ["sheets", "--potential", CONST, "--interval", "-7", "7"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["sheets"] == 2
    rc, out, _ = run_main(
        ["sheets", "--potential", RANK1_FOURIER, "--interval", "-5", "5"], capsys
    )
    assert rc == 0
    assert json.loads(out)["sheets"] == 2


def test_qmomentum_report(capsys):
    rc, out, _ = run_main(
        ["qmomentum", "--potential", CONST, "--interval", "-7", "7"], capsys
    )
    assert rc == 0
    rep = json.loads(out)["report"]
    assert abs(rep["integral"] - 0.27) <= 1e-3
    assert abs(rep["herglotz_fit"] - rep["integral"]) <= 0.1 * rep["integral"]
    assert rep["zs_reference"]["ratio"] == pytest.approx(1.0, abs=1e-6)
    assert rep["ratio_to_norm_sq"] > 0.0


def test_qmomentum_narrow_window_holding_the_gap_exits_zero(capsys):
    # the constant's one gap lies inside [-2, 2], so nothing is missing
    rc, out, _ = run_main(
        ["qmomentum", "--potential", CONST, "--interval", "-2", "2"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["tail_estimate"] <= 1e-15
    assert doc["diagnostics"] == []


def test_config_errors_exit_two(capsys):
    rc, _, err = run_main(["scan", "--potential", "{not json"], capsys)
    assert rc == 2
    rc, _, err = run_main(
        ["scan", "--potential", '{"kind":"cubic","resolution":64}'], capsys
    )
    assert rc == 2
    rc, _, err = run_main(
        ["scan", "--potential", "/nonexistent/potential.json"], capsys
    )
    assert rc == 2
    rc, _, err = run_main(
        [
            "scan",
            "--potential",
            CONST,
            "--interval",
            "5",
            "-5",
        ],
        capsys,
    )
    assert rc == 2
    # malformed fields of a well-formed JSON document
    for doc in (
        '{"kind":"zero","resolution":"abc"}',
        '{"kind":"zero","resolution":[64]}',
        '{"kind":"zero","resolution":64.7}',
        '{"kind":"piecewise","breakpoints":[0,1],"values":5}',
        '{"kind":"piecewise","breakpoints":[0,"x",1],"values":[[0,0],[0,0]]}',
    ):
        rc, out, err = run_main(["verify", "--potential", doc], capsys)
        assert rc == 2, doc
        assert out == "" and err.startswith("configuration error:"), doc


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "--interval", "0", "inf"],
        ["scan", "--interval", "0", "nan"],
        ["scan", "--interval", "0", "1e9", "--step", "0.05"],
        ["scan", "--interval", "1e300", "1.0000001e300"],
        ["sheets", "--interval", "0", "inf"],
        ["qmomentum", "--interval", "0", "1e9"],
    ],
)
def test_unbounded_scan_grid_exits_two(capsys, args):
    # checked before the grid is built: no overflow, no huge allocation
    rc, out, err = run_main([*args, "--potential", CONST], capsys)
    assert rc == 2
    assert out == "" and err.startswith("configuration error: scan"), err


@pytest.mark.parametrize("command", ["scan", "sheets", "qmomentum"])
def test_interval_takes_negative_exponent_notation(command, capsys):
    # a bound like -1e1 is a number, not an unknown option
    args = [command, "--potential", CONST, "--format", "csv", "--step", "0.05"]
    plain = run_main([*args, "--interval", "-10", "10"], capsys)
    assert plain[0] == 0
    for lo in ("-1e1", "-1E+1", "-10.0e0"):
        assert run_main([*args, "--interval", lo, "10"], capsys) == plain


@pytest.mark.parametrize("lo", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_bound_reaches_scan(lo, capsys):
    rc, out, err = run_main(["scan", "--potential", CONST, "--interval", lo, "0"], capsys)
    assert rc == 2
    assert out == "" and err.startswith("configuration error: scan interval"), err


def test_non_finite_nu_exits_two(capsys):
    args = ["--interval", "-2", "2", "--nu", "nan", "12"]
    rc, out, err = run_main(["qmomentum", "--potential", FOURIER, *args], capsys)
    assert rc == 2
    assert out == "" and "nu samples must be finite" in err


def test_nu_above_230_exits_two(capsys):
    # the decay fit's cubic overflows a double near nu = 236.5
    args = ["qmomentum", "--potential", CONST, "--interval", "-16", "16"]
    rc, out, err = run_main([*args, "--nu", "240", "250"], capsys)
    assert rc == 2
    assert out == "" and "nu samples must be finite and in [10, 230]" in err
    rc, out, _ = run_main([*args, "--nu", "200", "230"], capsys)
    assert rc == 0
    rep = json.loads(out)["report"]
    assert rep["fit_error"] is None
    assert abs(rep["herglotz_fit"] - rep["integral"]) <= 0.1 * rep["integral"]


def test_reversed_eigen_window_exit_two(capsys):
    rc, out, err = run_main(
        ["eigen", "--potential", CONST, "--window", "10", "5"], capsys
    )
    assert rc == 2
    assert out == ""
    assert "configuration error: empty index window" in err


def test_eigen_window_over_1024_disks_exits_two(capsys):
    rc, out, err = run_main(["eigen", "--potential", CONST, "--window", "0", "1024"], capsys)
    assert rc == 2
    assert out == "" and err.startswith("configuration error: index window"), err


def test_csv_rejects_non_finite_cells():
    assert _csv_text([["lam", "q"], ["0.5", "1.25"]]) == "lam,q\n0.5,1.25\n"
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(NumericalError, match=r"csv\[1\]\[1\]"):
            _csv_text([["lam", "q"], ["0.5", bad]])


def test_json_rejects_non_finite_values():
    doc = {"command": "scan", "gaps": [[0.5, 1.25], {"mass": np.float64(2.0)}]}
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalError, match=r"non-finite value at \$\.x$"):
            _json_text({"command": "scan", "x": bad})
    doc["gaps"][1]["mass"] = np.float64("nan")
    with pytest.raises(NumericalError, match=r"non-finite value at \$\.gaps\[1\]\.mass$"):
        _json_text(doc)


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "manakov_spectra.cli",
            "scan",
            "--potential",
            ZERO,
            "--interval",
            "-1",
            "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["gaps"] == []


@pytest.mark.parametrize(
    "command,args",
    [("qmomentum", ["--interval", "-16", "16", "--step", "0.05"]), ("verify", [])],
)
def test_each_real_point_propagated_once(command, args, monkeypatch, capsys):
    # every later stage reuses the samples an earlier stage propagated
    real_points = []
    propagate = monodromy.monodromy_grid

    def recording(p, lam, **kwargs):
        g = propagate(p, lam, **kwargs)
        real_points.extend(float(x.real) for x in g["lam"] if x.imag == 0.0)
        return g

    # every package module that binds the name, so that none escapes the check
    for info in pkgutil.iter_modules(manakov_spectra.__path__):
        module = importlib.import_module(f"manakov_spectra.{info.name}")
        if hasattr(module, "monodromy_grid"):
            monkeypatch.setattr(module, "monodromy_grid", recording)
    rc, _, _ = run_main([command, "--potential", FOURIER, *args], capsys)
    assert rc == 0
    assert real_points
    assert len(set(real_points)) == len(real_points)


def test_verify_solves_the_multiplier_cubic_once(monkeypatch, capsys):
    # the unimodular pattern reads the triples the symmetric-function check solved
    calls = []
    solve = cli.multipliers_from_traces

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(cli, "multipliers_from_traces", counting)
    rc, _, _ = run_main(["verify", "--potential", FOURIER], capsys)
    assert rc == 0
    assert len(calls) == 1
