"""Command-line surface: exit codes, formats, determinism, diagnostics."""

import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import manakov_spectra
from manakov_spectra import NumericalError, cli, monodromy
from manakov_spectra.cli import _csv_text, _json_text, main
from test_golden import GOLDEN, INPUTS

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
    # whole matrix fail, and so do the multipliers' symmetric functions and
    # the rank-one reduction, whose near-collision points take psi's
    # eigenvalues; the checks on the traces alone still hold
    propagate = cli.monodromy_grid

    def perturbed(p, lam, **kwargs):
        g = propagate(p, lam, **kwargs)
        g["psi"][..., 0, 0] *= 1.0 + 2e-6
        return g

    monkeypatch.setattr(cli, "monodromy_grid", perturbed)
    statuses = _verify_statuses(capsys)
    assert statuses.pop("determinant") == "FAIL"
    assert statuses.pop("wronskian") == "FAIL"
    assert statuses.pop("multiplier-symmetric-functions") == "FAIL"
    assert statuses.pop("rank-one-reduction") == "FAIL"
    assert set(statuses.values()) == {"PASS"}


def test_verify_non_finite_propagator_exits_three(monkeypatch, capsys):
    # an inf off the diagonal leaves the traces finite; the near-collision
    # points hand psi to eigvals, which must see a typed error, not LAPACK's
    propagate = cli.monodromy_grid

    def broken(p, lam, **kwargs):
        g = propagate(p, lam, **kwargs)
        g["psi"][..., 0, 1] = np.inf
        return g

    monkeypatch.setattr(cli, "monodromy_grid", broken)
    # the determinant and Wronskian checks meet the inf first, and numpy
    # flags the nan they make; those checks fail, which is not at issue here
    with np.errstate(invalid="ignore"):
        rc, _, err = run_main(["verify", "--potential", CONST], capsys)
    assert rc == 3
    assert "numerical failure: non-finite entries in propagator" in err


def test_verify_passes_on_the_zero_potential(capsys):
    # its three multipliers meet at lam = 2 pi n, where the trace cubic's
    # roots missed the reduction's tolerance
    rc, out, _ = run_main(["verify", "--potential", '{"kind":"zero"}'], capsys)
    assert rc == 0
    worst = {c["name"]: c["worst"] for c in json.loads(out)["checks"]}
    assert worst["rank-one-reduction"] <= 1e-13


def test_verify_perturbed_trace_recovery_fails(monkeypatch, capsys):
    recover = cli.recover_traces
    monkeypatch.setattr(
        cli, "recover_traces", lambda *args: tuple(x * (1.0 + 1e-6) for x in recover(*args))
    )
    statuses = _verify_statuses(capsys)
    assert statuses.pop("trace-recovery") == "FAIL"
    assert set(statuses.values()) == {"PASS"}


def test_verify_trace_identities_pass_on_traces_of_no_propagator(monkeypatch, capsys, rng):
    # derived-identities and trace-recovery are algebra in (T, S, lam): traces
    # drawn at random, which no propagator has, pass both at rounding level
    propagate = cli.monodromy_grid

    def random_traces(p, lam, **kwargs):
        g = propagate(p, lam, **kwargs)
        n = len(g["lam"])
        for key in ("trace", "trace_conj"):
            g[key] = 3.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        return g

    monkeypatch.setattr(cli, "monodromy_grid", random_traces)
    _, out, _ = run_main(["verify", "--potential", CONST], capsys)
    worst = {c["name"]: c["worst"] for c in json.loads(out)["checks"]}
    assert worst["derived-identities"] <= 1e-13
    assert worst["trace-recovery"] <= 1e-13


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


def test_verify_strong_constant_fails_without_warnings(capsys):
    # the traces reach 1.5e71 and the trace polynomials overflow on three of
    # the four non-real points: the NaN they leave fails derived-identities,
    # with no numpy RuntimeWarning (an error under this suite's filterwarnings)
    strong = '{"kind":"constant","value":[100,0]}'
    rc, out, _ = run_main(["verify", "--potential", strong, "--format", "csv"], capsys)
    assert rc == 3
    assert "FAIL derived-identities  worst=nan  tol=1e-08" in out.splitlines()
    rc, out, err = run_main(["verify", "--potential", strong], capsys)
    assert rc == 3
    assert out == ""
    assert "numerical failure: non-finite value at $.checks[3].worst" in err


def _statuses_with_nan(monkeypatch, name, put_nan) -> dict:
    """``verify``'s statuses on CONST with ``cli.<name>``'s result passed through ``put_nan``."""
    compute = getattr(cli, name)

    def with_nan(*args):
        out = compute(*args)
        put_nan(out)
        return out

    monkeypatch.setattr(cli, name, with_nan)
    return {c["name"]: c["status"] for c in cli._verify_checks(cli.load_potential(CONST))}


def test_verify_nan_identity_residual_fails(monkeypatch):
    def put_nan(ids):
        ids["dd2"][7] = np.nan

    statuses = _statuses_with_nan(monkeypatch, "identity_suite", put_nan)
    assert statuses.pop("derived-identities") == "FAIL"
    assert set(statuses.values()) == {"PASS"}


def test_verify_nan_in_the_last_reduction_error_fails(monkeypatch):
    def put_nan(rep):
        rep.err_dminus[-1] = np.nan

    statuses = _statuses_with_nan(monkeypatch, "reduction_check", put_nan)
    assert statuses.pop("rank-one-reduction") == "FAIL"
    assert set(statuses.values()) == {"PASS"}


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


def test_nu_above_the_engine_limit_exits_two(capsys):
    # the fit reaches as far up the axis as the engine propagates
    args = ["qmomentum", "--potential", CONST, "--interval", "-16", "16"]
    rc, out, err = run_main([*args, "--nu", "200", "701"], capsys)
    assert rc == 2
    assert out == "" and "nu samples must be finite and in [10, 700]" in err
    rc, out, _ = run_main([*args, "--nu", "690", "700"], capsys)
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
        # a list of scalars goes through the C encoder, a nested list does not
        with pytest.raises(NumericalError, match=r"non-finite value at \$\.x\[2\]$"):
            _json_text({"x": [0.5, None, np.float64(bad), True]})
        with pytest.raises(NumericalError, match=r"non-finite value at \$\.x\[1\]\[0\]$"):
            _json_text({"x": [[0.5], (bad, 1)]})
    doc["gaps"][1]["mass"] = np.float64("nan")
    with pytest.raises(NumericalError, match=r"non-finite value at \$\.gaps\[1\]\.mass$"):
        _json_text(doc)


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7]),
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.text(),
)
_JSON_KEYS = st.one_of(st.text(), st.sampled_from(["é", "tab\t", 'q"\\', "\u2028", "\U0001f600"]))
_JSON_DOCS = st.dictionaries(
    _JSON_KEYS,
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=6),
            st.lists(inner, max_size=6).map(tuple),
            st.dictionaries(_JSON_KEYS, inner, max_size=4),
        ),
        max_leaves=30,
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
@example({"a": {}, "b": [], "c": (), "d": [1.0, True, None, 2**64, -0.0, 5e-324, 1e16, 1e-7]})
@example({"k": {1: [0.5], "1": (np.float64(0.1),)}, "e": [[], {}, [[]], "x\u00e9"]})
def test_json_text_is_indent_2_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


def test_import_loads_no_openssl():
    # hashlib imports _hashlib, and with it OpenSSL, only to hash the potential
    script = (
        "import sys\n"
        "import manakov_spectra, manakov_spectra.cli\n"
        "assert '_hashlib' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", INPUTS)
def test_potential_hash_is_sha256(name):
    p = cli.load_potential(INPUTS[name])
    payload = np.ascontiguousarray(p.canonical().values, dtype=np.complex128).tobytes()
    digest = cli.potential_hash(p)
    assert digest == hashlib.sha256(payload).hexdigest()[:16]
    golden = json.loads((GOLDEN / f"{name}-scan.json").read_text())
    assert golden["metadata"]["potential_hash"] == digest


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
    [
        ("qmomentum", ["--interval", "-16", "16", "--step", "0.05"]),
        ("verify", []),
        # the later --potential wins: a rank-one input, whose reduction
        # check reads the real propagators the other checks read
        pytest.param("verify", ["--potential", CONST], id="verify-rank-one"),
    ],
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
    solve = cli.multipliers

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(cli, "multipliers", counting)
    rc, _, _ = run_main(["verify", "--potential", FOURIER], capsys)
    assert rc == 0
    assert len(calls) == 1
