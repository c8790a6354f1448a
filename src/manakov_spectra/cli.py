"""Command-line driver: scan, eigen, verify, qmomentum, sheets.

Output is deterministic for a fixed configuration: grids are fixed by the
flags, every pipeline is seedless, and JSON field order is fixed by
construction.  Each ``cmd_*`` returns its JSON body, CSV rows and exit
code; only ``main`` loads the potential, reads ``--format`` and writes.  CSV
carries exactly the documented columns (see ``docs/output-schema.md``;
``verify`` writes a text report instead).  JSON adds the command name and a
metadata block (library version, potential kind, declared resolution,
potential hash).  Every command but ``verify`` carries a ``diagnostics``
array in its body, the one way its warnings and notes leave the program; in
CSV mode ``main`` prints them on stderr as ``diagnostic:`` lines, followed by
``report:`` lines for ``qmomentum``'s report.  The JSON text is, byte for
byte, what ``json.dumps(doc, indent=2)`` writes, plus a newline; lists of
scalars go through ``json``'s C encoder, which ``indent`` would switch off.
Exit codes: 0 success, 2 configuration problem, 3 numerical failure or a
failed ``verify`` check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from itertools import chain

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .monodromy import J3, monodromy_grid
from .multipliers import (
    identity_suite,
    multipliers,
    unimodular_count,
)
from .periodic_eigen import (
    asymptotic_residuals,
    d_pm_from_traces,
    eigenvalues_in_window,
    recover_traces,
)
from .potential import Potential, is_rank_one, moments
from .quasimomentum import herglotz_asymptotic, q0_integral, q_profile
from .spectrum import scan, sheet_count
from .zs_oracle import reduction_check, scalar_reduction, zs_q0_integral

try:
    # hashlib loads OpenSSL (3.5 MiB resident); try the interpreter's lean
    # builtin module first
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

DEFAULT_NU = (12.0, 16.0, 20.0, 26.0, 34.0)


# ----------------------------------------------------------------------------
# configuration ingestion
# ----------------------------------------------------------------------------


def _as_float(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"expected a number, got {x!r}") from exc


def _as_complex(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x, 0.0)
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(_as_float(x[0]), _as_float(x[1]))
    raise ConfigError(f"expected a number or [re, im] pair, got {x!r}")


def _as_pair(x) -> tuple[complex, complex]:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise ConfigError(f"expected a two-component value, got {x!r}")
    return _as_complex(x[0]), _as_complex(x[1])


def _as_resolution(x) -> int:
    if isinstance(x, (int, float, str)) and _as_float(x).is_integer():
        return int(float(x))
    raise ConfigError(f"resolution must be an integer, got {x!r}")


def _as_list(doc: dict, key: str) -> list:
    x = doc.get(key, [])
    if not isinstance(x, list):
        raise ConfigError(f"{key!r} must be an array, got {x!r}")
    return x


def potential_from_doc(doc: dict) -> Potential:
    """Build a potential from its JSON description.

    ``kind`` selects the constructor: ``zero``, ``constant`` (``value``),
    ``fourier`` (``modes`` keyed by integer frequency index), ``piecewise``
    (``breakpoints`` + ``values``), or ``samples`` (``values`` on a uniform
    grid).  Complex scalars are numbers or ``[re, im]`` pairs.
    """
    if not isinstance(doc, dict):
        raise ConfigError("potential description must be a JSON object")
    kind = doc.get("kind")
    res = doc.get("resolution")
    kw = {} if res is None else {"resolution": _as_resolution(res)}
    if kind == "zero":
        return Potential.zero(**kw)
    if kind == "constant":
        return Potential.from_constant(_as_pair(doc.get("value")), **kw)
    if kind == "fourier":
        modes = doc.get("modes")
        if not isinstance(modes, dict):
            raise ConfigError("fourier potential needs a 'modes' object")
        try:
            clean = {int(k): _as_pair(v) for k, v in modes.items()}
        except ValueError as exc:
            raise ConfigError(f"mode keys must be integers: {exc}") from exc
        return Potential.from_fourier(clean, **kw)
    if kind == "piecewise":
        values = [_as_pair(v) for v in _as_list(doc, "values")]
        breakpoints = [_as_float(b) for b in _as_list(doc, "breakpoints")]
        return Potential.from_piecewise(breakpoints, values, **kw)
    if kind == "samples":
        values = [_as_pair(v) for v in _as_list(doc, "values")]
        return Potential.from_samples(values)
    raise ConfigError(f"unknown potential kind {kind!r}")


def load_potential(spec: str) -> Potential:
    """Accept inline JSON (leading ``{``) or a path to a JSON file."""
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read potential file {spec!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed potential JSON: {exc}") from exc
    return potential_from_doc(doc)


def potential_hash(p: Potential) -> str:
    grid = p.canonical()
    payload = np.ascontiguousarray(grid.values, dtype=np.complex128).tobytes()
    return _sha256(payload).hexdigest()[:16]


def _metadata(p: Potential) -> dict:
    return {
        "version": __version__,
        "potential_kind": p.kind,
        "resolution": p.resolution,
        "potential_hash": potential_hash(p),
    }


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------


def _check_finite(node, path="$"):
    if isinstance(node, dict):
        for k, v in node.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _check_finite(v, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise NumericalError(f"non-finite value at {path}")


def _as_number(cell):
    """A CSV cell as the float it spells, or unchanged when it spells none."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        return cell


def _csv_text(rows) -> str:
    rows = list(rows)
    _check_finite([[_as_number(c) for c in row] for row in rows], "csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


_SCALARS = (str, int, float, type(None))


def _indented(node, pad: str) -> str:
    """``node`` as ``json.dumps(node, indent=2)`` writes it after ``pad``.

    ``pad`` is a newline and the enclosing indent.  Dicts with str keys and
    lists are walked here; a list of scalars is one C-encoder call whose
    separator carries the newline and indent, and any other node is
    ``json.dumps`` with ``indent=2``, re-indented (a JSON string holds no
    raw newline).
    """
    inner = pad + "  "
    if isinstance(node, dict) and node and all(isinstance(k, str) for k in node):
        items = [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in node.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(node, (list, tuple)) and node:
        if all(issubclass(t, _SCALARS) for t in set(map(type, node))):
            flat = json.dumps(node, separators=("," + inner, ": "), allow_nan=False)
            return "[" + inner + flat[1:-1] + pad + "]"
        return "[" + inner + ("," + inner).join(_indented(v, inner) for v in node) + pad + "]"
    return json.dumps(node, indent=2, allow_nan=False).replace("\n", pad)


def _json_text(doc: dict) -> str:
    try:
        return _indented(doc, "\n") + "\n"
    except ValueError:
        _check_finite(doc)  # names the first non-finite value's path
        raise


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------------------
# commands (long CSV row lists are lazy, so a JSON run formats none of them)
# ----------------------------------------------------------------------------


def cmd_scan(p: Potential, args):
    lo, hi = args.interval
    sc = scan(p, lo, hi, step=args.step)
    body = {
        "interval": [sc.interval[0], sc.interval[1]],
        "grid_step": sc.grid_step,
        "gaps": [[a, b] for a, b in sc.gaps],
        "kissing_points": list(sc.kissing_points),
        "conflicts": sc.conflicts,
        "warnings": list(sc.warnings),
        "notes": list(sc.notes),
        "samples": {
            "lam": sc.lam.tolist(),
            "disc": sc.disc.tolist(),
            "phi": sc.phi.tolist(),
            "multiplicity": sc.multiplicity.tolist(),
        },
        "diagnostics": sc.warnings + sc.notes,
    }
    rows = chain(
        [["lam", "disc", "phi", "multiplicity"]],
        (
            [f"{x:.12g}", f"{d:.12g}", f"{f:.12g}", str(int(m))]
            for x, d, f, m in zip(sc.lam, sc.disc, sc.phi, sc.multiplicity)
        ),
    )
    return body, rows, 0


def cmd_eigen(p: Potential, args):
    n_min, n_max = args.window
    table = eigenvalues_in_window(p, n_min, n_max)
    res = asymptotic_residuals(table, p)
    devs = res["deviations"]
    dev = [float(devs[e.n][e.j - 1]) if e.n in devs else None for e in table.entries]
    body = {
        "window": [n_min, n_max],
        "entries": [
            {
                "n": e.n,
                "j": e.j,
                "z": [e.z.real, e.z.imag],
                "parity": e.parity,
                "residual": e.residual,
                "dev_first_order": d,
            }
            for e, d in zip(table.entries, dev)
        ],
        "asymptotics": {
            "deviations": {str(n): arr.tolist() for n, arr in devs.items()},
            "partial_sums": res["partial_sums"].tolist(),
            "summability_exponent": res["delta"],
            "decay_exponent": res["decay_exponent"],
        },
        "diagnostics": table.failures + table.notes,
    }
    rows = chain(
        [["n", "j", "re_z", "im_z", "parity", "residual", "dev_first_order"]],
        (
            [
                str(e.n),
                str(e.j),
                f"{e.z.real:.15g}",
                f"{e.z.imag:.15g}",
                e.parity,
                f"{e.residual:.6g}",
                "" if d is None else f"{d:.12g}",
            ]
            for e, d in zip(table.entries, dev)
        ),
    )
    return body, rows, 0


def _verify_checks(p: Potential) -> list[dict]:
    lam_re = np.linspace(-12.0, 12.0, 241)
    lam_cx = np.array([1.3 + 0.8j, -2.2 + 1.7j, 0.4 - 1.1j, 3.7 + 2.5j])
    lam = np.concatenate([lam_re.astype(np.complex128), lam_cx])
    # a real point is its own conjugate: only the non-real ones propagate
    # again, in the same call (a conjugate pair shares its split counts)
    both = monodromy_grid(p, np.concatenate([lam, np.conj(lam_cx)]))
    g = {key: value[: len(lam)] for key, value in both.items()}
    psi = g["psi"]
    psi_c = np.concatenate([psi[: len(lam_re)], both["psi"][len(lam) :]])
    t, s = g["trace"], g["trace_conj"]

    grow = np.exp(np.abs(lam.imag))
    ep = np.exp(1j * lam)
    checks = []

    # the generator has trace i lam: a pivoted LU of the whole propagator
    # against the closed form
    resid = np.abs(np.linalg.det(psi) - ep) / grow
    checks.append(("determinant", float(resid.max()), 1e-10))

    w = np.conj(np.swapaxes(psi_c, -1, -2)) @ J3 @ psi - J3
    wres = np.abs(w).max(axis=(-2, -1)) / grow**2
    checks.append(("wronskian", float(wres.max()), 1e-10))

    taus = multipliers(g)
    scale = np.maximum(1.0, np.abs(t))
    e_sum = np.abs(taus.sum(axis=-1) - t) / scale
    pairs = (
        taus[:, 0] * taus[:, 1] + taus[:, 0] * taus[:, 2] + taus[:, 1] * taus[:, 2]
    )
    e_pair = np.abs(pairs - ep * s) / np.maximum(1.0, np.abs(ep * s))
    e_prod = np.abs(taus.prod(axis=-1) - ep) / np.abs(ep)
    checks.append(
        ("multiplier-symmetric-functions", float(max(e_sum.max(), e_pair.max(), e_prod.max())), 1e-9)
    )

    ids = identity_suite(t, s, lam)
    checks.append(
        ("derived-identities", float(max(np.max(ids["dd1"]), np.max(ids["dd2"]))), 1e-8)
    )

    dp = d_pm_from_traces(t, s, lam, +1)
    dm = d_pm_from_traces(t, s, lam, -1)
    t_r, s_r = recover_traces(dp, dm, lam)
    e_rec = np.maximum(np.abs(t_r - t), np.abs(s_r - s)) / grow
    checks.append(("trace-recovery", float(e_rec.max()), 1e-10))

    counts = unimodular_count(taus[: len(lam_re)])
    ok_counts = np.all((counts == 1) | (counts == 3))
    checks.append(("unimodular-pattern", 0.0 if ok_counts else 1.0, 0.5))

    out = [
        {"name": name, "worst": worst, "tol": tol, "status": "PASS" if worst <= tol else "FAIL"}
        for name, worst, tol in checks
    ]
    if is_rank_one(p):
        rep = reduction_check(p, lam_re)
        errors = (rep.err_multiplier, rep.err_average, rep.err_disc, rep.err_dplus, rep.err_dminus)
        worst = max(float(e.max()) for e in errors)
        status = "PASS" if rep.ok else "FAIL"
        out.append({"name": "rank-one-reduction", "worst": worst, "tol": rep.tol, "status": status})
    else:
        out.append({"name": "rank-one-reduction", "worst": None, "tol": None, "status": "SKIP"})
    return out


def cmd_verify(p: Potential, args):
    checks = _verify_checks(p)
    ok = all(c["status"] != "FAIL" for c in checks)
    lines = [
        f"SKIP {c['name']}"
        if c["status"] == "SKIP"
        else f"{c['status']} {c['name']}  worst={c['worst']:.3g}  tol={c['tol']:.3g}"
        for c in checks
    ]
    lines.append("all checks passed" if ok else "FAILURES present")
    return {"checks": checks, "ok": ok}, lines, 0 if ok else 3


def cmd_qmomentum(p: Potential, args):
    lo, hi = args.interval
    sc = scan(p, lo, hi, step=args.step)
    prof = q_profile(p, sc)
    mass = q0_integral(p, sc.gaps)
    norm_sq = moments(p).b3
    fit = None
    fit_error = None
    try:
        fit = herglotz_asymptotic(p, list(args.nu))
    except NumericalError as exc:
        fit_error = str(exc)
    report = {
        "integral": mass.value,
        "tail_estimate": mass.tail_estimate,
        "per_gap": mass.per_gap,
        "herglotz_fit": None if fit is None else fit.q0,
        "fit_residual_rms": None if fit is None else fit.residual_rms,
        "fit_error": fit_error,
        "norm_sq": norm_sq,
        "ratio_to_norm_sq": (mass.value / norm_sq) if norm_sq > 0 else None,
    }
    if is_rank_one(p) and norm_sq > 0:
        u, _ = scalar_reduction(p)
        qzs = zs_q0_integral(u, lo, hi)
        report["zs_reference"] = {
            "gap_mass_2x2": qzs,
            "two_thirds_2x2": 2.0 * qzs / 3.0,
            "ratio": (mass.value / (2.0 * qzs / 3.0)) if qzs > 0 else None,
        }
    body = {
        "interval": [lo, hi],
        "grid_step": args.step,
        "profile": {
            "lam": prof.grid.tolist(),
            "q1": prof.q_branches[:, 0].tolist(),
            "q2": prof.q_branches[:, 1].tolist(),
            "q3": prof.q_branches[:, 2].tolist(),
            "q_avg": prof.q_avg.tolist(),
            "gap_attribution": prof.gap_attribution.tolist(),
        },
        "report": report,
        "diagnostics": sc.warnings + sc.notes + mass.notes,
    }
    rows = chain(
        [["lam", "q1", "q2", "q3", "q_avg"]],
        (
            [f"{x:.12g}", f"{q1:.12g}", f"{q2:.12g}", f"{q3:.12g}", f"{a:.12g}"]
            for x, (q1, q2, q3), a in zip(prof.grid, prof.q_branches, prof.q_avg)
        ),
    )
    return body, rows, 0


def cmd_sheets(p: Potential, args):
    lo, hi = args.interval
    sc = scan(p, lo, hi, step=args.step)
    verdict = sheet_count(p, sc)
    m = moments(p)
    phi_sup = verdict.evidence["sup_phi"]
    body = {
        "interval": [lo, hi],
        "sheets": verdict.sheets,
        "evidence": verdict.evidence,
        "moments": {"b1": m.b1, "b2": m.b2, "b3": m.b3},
        "phi_sup": phi_sup,
        "gaps": [[a, b] for a, b in sc.gaps],
        "diagnostics": sc.warnings + sc.notes,
    }
    rows = [
        ["key", "value"],
        ["sheets", str(verdict.sheets)],
        ["b1", f"{m.b1:.12g}"],
        ["b3", f"{m.b3:.12g}"],
        ["phi_sup", f"{phi_sup:.12g}"],
        ["n_gaps", str(len(sc.gaps))],
    ]
    return body, rows, 0


# ----------------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------------


# a negative float() literal: a decimal with an optional exponent, -inf or -nan
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number as a value.

    argparse takes an argument that starts with '-' for an option unless it
    is a plain negative decimal, so ``--interval -1e1 2`` failed with
    "expected 2 arguments".  Here exponent notation, ``-inf`` and ``-nan``
    are numbers too, and reach the commands' own checks.  Subparsers are
    made with the parent's class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="manakov-spectra",
        description="Floquet spectral pipelines for the periodic two-component transfer problem",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--potential", required=True, help="inline JSON or path to a JSON file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="json")

    sp = sub.add_parser("scan", help="band/gap scan of a real interval")
    common(sp)
    sp.add_argument("--interval", type=float, nargs=2, default=(-10.0, 10.0), metavar=("LO", "HI"))
    sp.add_argument("--step", type=float, default=0.01)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("eigen", help="period-2 eigenvalue clusters in an index window")
    common(sp)
    sp.add_argument("--window", type=int, nargs=2, default=(5, 10), metavar=("NMIN", "NMAX"))
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("verify", help="identity suite with a pass/fail matrix")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("qmomentum", help="gap magnitude profile and its integral")
    common(sp)
    sp.add_argument("--interval", type=float, nargs=2, default=(-10.0, 10.0), metavar=("LO", "HI"))
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--nu", type=float, nargs="+", default=list(DEFAULT_NU))
    sp.set_defaults(func=cmd_qmomentum)

    sp = sub.add_parser("sheets", help="covering-sheet verdict with evidence")
    common(sp)
    sp.add_argument("--interval", type=float, nargs=2, default=(-10.0, 10.0), metavar=("LO", "HI"))
    sp.add_argument("--step", type=float, default=0.01)
    sp.set_defaults(func=cmd_sheets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p = load_potential(args.potential)
        body, rows, code = args.func(p, args)
        if args.format == "json":
            doc = {"command": args.command, "metadata": _metadata(p), **body}
            _write(_json_text(doc), args.out)
            return code
        if args.command == "verify":
            # verify's CSV mode is its plain-text check report
            _write("".join(f"{line}\n" for line in rows), args.out)
        else:
            _write(_csv_text(rows), args.out)
        for d in body.get("diagnostics", []):
            print(f"diagnostic: {d}", file=sys.stderr)
        for k, v in body.get("report", {}).items():
            print(f"report: {k} = {v}", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
