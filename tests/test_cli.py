"""Command-line surface: exit codes, formats, determinism, diagnostics."""

import importlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from manakov_spectra import NumericalError, cli, monodromy
from manakov_spectra.cli import _csv_text, _json_text, main

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


def test_verify_corrupt_fails_named_checks(capsys):
    rc, out, _ = run_main(["verify", "--potential", CONST, "--corrupt"], capsys)
    assert rc == 3
    doc = json.loads(out)
    assert not doc["ok"]
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    # a propagator perturbation trips exactly the cross-route comparisons;
    # trace-level algebraic identities still hold by construction
    assert statuses["determinant"] == "FAIL"
    assert statuses["wronskian"] == "FAIL"
    assert statuses["trace-recovery"] == "FAIL"
    assert statuses["multiplier-symmetric-functions"] == "PASS"
    assert statuses["derived-identities"] == "PASS"


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


def test_qmomentum_window_too_small_exit(capsys):
    rc, _, err = run_main(
        ["qmomentum", "--potential", CONST, "--interval", "-2", "2"], capsys
    )
    assert rc == 3
    assert "widen the window" in err


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


def test_reversed_eigen_window_exit_two(capsys):
    rc, out, err = run_main(
        ["eigen", "--potential", CONST, "--window", "10", "5"], capsys
    )
    assert rc == 2
    assert out == ""
    assert "configuration error: empty index window" in err


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


@pytest.mark.filterwarnings("ignore::UserWarning")
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

    for name in ("cli", "periodic_eigen", "quasimomentum", "spectrum", "zs_oracle"):
        module = importlib.import_module(f"manakov_spectra.{name}")
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
