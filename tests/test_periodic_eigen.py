"""Periodic/antiperiodic eigenvalue tables and the restored-product route.

The constant rank-one potential is the workhorse: its eigenvalues have the
closed forms pi n (simple) and sqrt((pi n)^2 + |u|^2) (double), so counting,
refinement accuracy, and the first-order deviation trend can all be checked
against paper-and-pencil values.
"""

import re

import numpy as np
import pytest

from manakov_spectra import (
    ConfigError,
    EigenvalueTable,
    asymptotic_residuals,
    count_in_disk,
    d_pm_grid,
    eigenvalues_in_window,
    monodromy_grid,
    recover_traces,
)
from manakov_spectra import monodromy, periodic_eigen
from manakov_spectra.cli import load_potential
from conftest import CONST_JSON, cli_csv_rows
from test_golden import INPUTS
import oracles


C = 0.9  # amplitude of the constant fixture, shared by the closed forms


def test_free_window_triples(pot_zero):
    tab = eigenvalues_in_window(pot_zero, 1, 3)
    assert tab.failures == []
    assert len(tab.entries) == 9
    for e in tab.entries:
        want_parity = "periodic" if e.n % 2 == 0 else "antiperiodic"
        assert e.parity == want_parity
        # triple roots: location accuracy is limited to eps^(1/3)
        assert abs(e.z - np.pi * e.n) <= 1e-4
        assert e.residual <= 1e-12


def test_constant_closed_form_eigenvalues(pot_const):
    tab = eigenvalues_in_window(pot_const, 1, 3)
    assert tab.failures == []
    by_n = {}
    for e in tab.entries:
        by_n.setdefault(e.n, []).append(e.z)
    for n, zs in by_n.items():
        assert len(zs) == 3
        zs = sorted(zs, key=lambda z: z.real)
        # one simple eigenvalue pinned at pi n, one double shifted by |u|
        assert abs(zs[0] - np.pi * n) <= 1e-11
        double = np.sqrt((np.pi * n) ** 2 + C**2)
        assert abs(zs[1] - double) <= 1e-6
        assert abs(zs[2] - double) <= 1e-6


def test_negative_window_mirror(pot_const):
    tab = eigenvalues_in_window(pot_const, -3, -1)
    assert tab.failures == []
    assert len(tab.entries) == 9
    for e in tab.entries:
        assert e.z.real < 0
        assert e.residual <= 1e-12


def test_count_in_disk_parity(pot_zero):
    # three disks, each with its own sign, in one count
    counts = count_in_disk(pot_zero, [np.pi, 2 * np.pi, np.pi], 0.5, [-1, +1, +1])
    assert counts[0] == 3
    assert counts[1] == 3
    # wrong parity sees no roots there
    assert counts[2] == 0


def test_escalated_contour_propagates_only_its_new_points(pot_const, monkeypatch):
    # 4 samples of a circle around three zeros are undersampled, so the
    # circle escalates to 16 and counts there: its 4 values are kept, the
    # engine is asked for the 12 new points only, and the samples are those
    # of a fresh evaluation, bit for bit.  A circle that counts at once
    # shares the first round.
    around = periodic_eigen._circle(2.0 * np.pi, 0.5)
    at_once = periodic_eigen._circle(3.0 * np.pi, 0.5)
    asked = []
    grid = periodic_eigen.monodromy_grid

    def recording(p, lam):
        asked.append(np.array(lam))
        return grid(p, lam)

    monkeypatch.setattr(periodic_eigen, "monodromy_grid", recording)
    samples = [None, None]
    contours = [(around, (4, 16, 64), 1), (at_once, (64,), -1)]
    assert periodic_eigen._windings(pot_const, contours, samples) == [3, 3]
    monkeypatch.undo()

    def bits(z):
        return np.ascontiguousarray(z, dtype=np.complex128).view(np.int64).tolist()

    new = np.ones(16, dtype=bool)
    new[::4] = False
    assert [bits(a) for a in asked] == [
        bits(np.concatenate([around(4), at_once(64)])),
        bits(around(16)[new]),
    ]
    assert bits(around(16)[::4]) == bits(around(4))
    assert bits(samples[0]) == bits(d_pm_grid(pot_const, around(16), 1))
    assert bits(samples[1]) == bits(d_pm_grid(pot_const, at_once(64), -1))


def test_free_counting_function_closed_forms(pot_zero):
    lam = np.array([0.3 + 0.2j, 2.0, -1.3 + 1.0j])
    em, ep = np.exp(-1j * lam), np.exp(1j * lam)
    for sign, mark in ((+1, -1.0), (-1, +1.0)):
        got = d_pm_grid(pot_zero, lam, sign)
        want = (em + mark) * (ep + mark) ** 2
        assert np.abs(got - want).max() <= 1e-13


def test_trace_recovery_round_trip(rng, pot_two_mode):
    lam = rng.uniform(-8, 8, size=25) + 1j * rng.uniform(-2, 2, size=25)
    g = monodromy_grid(pot_two_mode, lam)
    dps, dms = d_pm_grid(pot_two_mode, lam, +1), d_pm_grid(pot_two_mode, lam, -1)
    for k in range(len(lam)):
        lam0 = complex(lam[k])
        t, s = recover_traces(complex(dps[k]), complex(dms[k]), lam0)
        scale = max(1.0, abs(g["trace"][k]))
        assert abs(t - g["trace"][k]) <= 1e-11 * scale
        assert abs(s - g["trace_conj"][k]) <= 1e-11 * scale


def test_deviations_decrease_constant(pot_const):
    # the transform of a constant vanishes at pi n, so the deviation is the
    # pure second-order drift, falling off like 1/n
    tab = eigenvalues_in_window(pot_const, 2, 8)
    out = asymptotic_residuals(tab, pot_const)
    devs = out["deviations"]
    maxima = [max(devs[n]) for n in sorted(devs)]
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    # log-log slope of the deviation against n: ~ -1 for the 1/n falloff
    assert out["decay_exponent"] < -0.5


def test_restored_product_converges(pot_const):
    lam0 = 0.6 + 0.3j
    direct, d0 = (complex(d) for d in d_pm_grid(pot_const, np.array([lam0, 0.0]), -1))
    errs = []
    for n_max in (4, 8):
        pos = eigenvalues_in_window(pot_const, 1, n_max)
        neg = eigenvalues_in_window(pot_const, -n_max, -1)
        merged = EigenvalueTable(
            entries=pos.entries + neg.entries,
            window=(-n_max, n_max),
            failures=[],
            notes=[],
        )
        val, indicator = oracles.hadamard_eval(merged, d0, lam0, -1)
        errs.append(abs(val - direct) / abs(direct))
        assert indicator >= 0.0
    assert errs[1] < errs[0]
    assert errs[1] < 0.2


def test_restored_product_guards(pot_const):
    pos = eigenvalues_in_window(pot_const, 1, 2)
    with pytest.raises(ValueError, match="anchored at zero"):
        oracles.hadamard_eval(pos, 0.0, 0.5, -1)
    with pytest.raises(ValueError, match="table covers"):
        oracles.hadamard_eval(pos, 8.0, 40.0, -1)  # table covers far too little
    solo = eigenvalues_in_window(pot_const, 1, 1)  # antiperiodic shell only
    with pytest.raises(ValueError, match="no entries of this parity"):
        oracles.hadamard_eval(solo, 8.0, 0.5, +1)


def test_table_serialization(pot_const, capsys):
    tab = eigenvalues_in_window(pot_const, 1, 2)
    rows = cli_csv_rows(["eigen", "--potential", CONST_JSON, "--window", "1", "2"], capsys)
    assert rows[0] == ["n", "j", "re_z", "im_z", "parity", "residual", "dev_first_order"]
    assert len(rows) == 1 + len(tab.entries)


def _table_bits(tab):
    entries = [
        (e.n, e.j, e.parity, e.z.real.hex(), e.z.imag.hex(), e.residual.hex())
        for e in tab.entries
    ]
    return entries, tab.failures, tab.notes


def _reject_all(p, circles):
    """A ``_moment_roots`` that certifies no disk: every disk is subdivided."""
    return {}


def _evaluated_rows(monkeypatch) -> list:
    """The bits of every lam ``monodromy._eval_chunk`` evaluates from now on."""
    evaluated = []
    eval_chunk = monodromy._eval_chunk

    def evaluating(lam, runs, psis):
        evaluated.extend(map(tuple, lam.view(np.int64).reshape(-1, 2).tolist()))
        return eval_chunk(lam, runs, psis)

    monkeypatch.setattr(monodromy, "_eval_chunk", evaluating)
    return evaluated


def _subdivided_tops(monkeypatch) -> list:
    """The top cells ``periodic_eigen._subdivide`` receives from now on."""
    tops = []
    subdivide = periodic_eigen._subdivide

    def recording(p, cells, *args):
        tops.extend(cells)
        return subdivide(p, cells, *args)

    monkeypatch.setattr(periodic_eigen, "_subdivide", recording)
    return tops


@pytest.mark.parametrize("name", ["fourier", "const"])
def test_multiplicity_contour_runs_while_roots_are_left(name, monkeypatch):
    # the multiplicity contour runs only while a leaf still has two or more
    # roots to place; every disk takes the subdivision path
    monkeypatch.setattr(periodic_eigen, "_moment_roots", _reject_all)
    p = load_potential(INPUTS[name])
    leaves, contours = [], []
    polish = periodic_eigen._polish_leaves
    multiplicity = periodic_eigen._multiplicity_by_contour

    def polishing(p, cells, *args):
        leaves.extend(cells)
        return polish(p, cells, *args)

    def counting(*args):
        contours.append(args)
        return multiplicity(*args)

    monkeypatch.setattr(periodic_eigen, "_polish_leaves", polishing)
    monkeypatch.setattr(periodic_eigen, "_multiplicity_by_contour", counting)
    assert eigenvalues_in_window(p, 1, 2).failures == []
    # a leaf of count w places a root per contour, the last one without
    assert any(c.wind == 1 for c in leaves)
    assert len(contours) <= sum(c.wind - 1 for c in leaves)


def test_window_of_many_disks_per_parity(pot_const, monkeypatch):
    # nine disks a parity, both parities in one batch, all through the
    # subdivision fallback, give the bits of the two smaller windows
    with monkeypatch.context() as m:
        tops = _subdivided_tops(m)
        whole = _table_bits(eigenvalues_in_window(pot_const, 1, 18))
    assert sorted(c.n for c in tops) == list(range(1, 19))
    low = _table_bits(eigenvalues_in_window(pot_const, 1, 9))
    high = _table_bits(eigenvalues_in_window(pot_const, 10, 18))
    assert whole[0] == low[0] + high[0]
    assert whole[1:] == low[1:] == high[1:] == ([], [])


@pytest.mark.parametrize("name", ["const", "fourier"])
def test_window_is_the_union_of_its_disks(name):
    # the constant's disks go through the subdivision fallback, the Fourier
    # input's through the moment path; both parities share every engine call
    # of the window, and each disk keeps the bits it has on its own
    p = load_potential(INPUTS[name])
    alone = [_table_bits(eigenvalues_in_window(p, n, n)) for n in range(1, 5)]
    whole = _table_bits(eigenvalues_in_window(p, 1, 4))
    assert whole[0] == [e for entries, _, _ in alone for e in entries]
    assert all(bits[1:] == ([], []) for bits in [whole, *alone])


# The messages of the forced failures below, in the order of the locator that
# ran each parity on its own; the residuals (masked) may differ by machine.
_PARITY_ORDER_FAILURES = [
    "disk n=2: contour-through-zero persists near center=6.28319 radius=0.5 after radius nudges",
    "disk n=4: contour-through-zero persists near center=12.5664 radius=0.5 after radius nudges",
    *(f"root n={n} j={j}: residual * above tolerance" for n in (2, 4) for j in (1, 2, 3)),
    "disk n=1: contour-through-zero persists near center=3.14159 radius=0.5 after radius nudges",
    "disk n=3: contour-through-zero persists near center=9.42478 radius=0.5 after radius nudges",
    *(f"root n=1 j={j}: residual * above tolerance" for j in (1, 2, 3)),
    "disk n=3: located 2 of 3 roots",
    *(f"root n=3 j={j}: residual * above tolerance" for j in (1, 2)),
]
_PARITY_ORDER_NOTES = [
    f"cell near {c}+0j (count 3) could not be split cleanly; polishing from the unrefined cell"
    for c in ("6.28319", "12.5664", "3.14159", "9.42478")
]


def test_messages_come_parity_by_parity(monkeypatch):
    # every disk count is undersampled, no cell splits and every residual is
    # above tolerance: each parity has failures from the disks, from the
    # located roots and notes from the cells, and they keep their order
    monkeypatch.setattr(periodic_eigen, "_DISK_SCHEDULE", (8,))
    monkeypatch.setattr(periodic_eigen, "_SPLIT_RATIOS", ())
    monkeypatch.setattr(periodic_eigen, "RESIDUAL_TOL", 0.0)
    tab = eigenvalues_in_window(load_potential(INPUTS["fourier"]), 1, 4)
    masked = [re.sub(r"residual \S+", "residual *", f) for f in tab.failures]
    assert masked == _PARITY_ORDER_FAILURES
    assert tab.notes == _PARITY_ORDER_NOTES


def test_window_width_is_bounded(pot_const, monkeypatch):
    # checked before the window is built
    def unreachable(*args):
        raise AssertionError("_disk_roots reached")

    monkeypatch.setattr(periodic_eigen, "_disk_roots", unreachable)
    with pytest.raises(ConfigError, match="exceeds 1024 disks"):
        eigenvalues_in_window(pot_const, 0, periodic_eigen.MAX_WINDOW_DISKS)
    monkeypatch.setattr(periodic_eigen, "_disk_roots", lambda *args: {})
    tab = eigenvalues_in_window(pot_const, 0, periodic_eigen.MAX_WINDOW_DISKS - 1)
    assert tab.entries == [] and len(tab.failures) == periodic_eigen.MAX_WINDOW_DISKS


def test_unsplit_cell_reports_missing_roots(monkeypatch):
    # with no split ratio every top cell is polished unrefined; the n = 3
    # cluster then yields two roots for its count of three, and the third
    # is reported missing rather than listed as a copy of another
    monkeypatch.setattr(periodic_eigen, "_moment_roots", _reject_all)
    monkeypatch.setattr(periodic_eigen, "_SPLIT_RATIOS", ())
    tab = eigenvalues_in_window(load_potential(INPUTS["fourier"]), 1, 3)
    assert len(tab.notes) == 3
    assert all("could not be split cleanly" in note for note in tab.notes)
    assert tab.failures == ["disk n=3: located 2 of 3 roots"]
    zs = [e.z for e in tab.entries]
    assert len(zs) == 8 and len(set(zs)) == 8


def test_moment_starts_of_a_synthetic_function():
    # (z - a)(z - b)(z - d) e^z on a 64-point circle: three zeros inside, and
    # an entire factor that the power sums must not see
    zeros = np.array([0.1 + 0.05j, -0.2 + 0.1j, 0.05 - 0.25j])
    center, radius = 0.3 - 0.1j, 0.8
    z = center + radius * np.exp(2j * np.pi * np.arange(64) / 64)
    f = np.prod(z[:, None] - zeros, axis=1) * np.exp(z)
    s0, starts = periodic_eigen._moment_starts([f], [center], [radius])
    assert abs(s0[0] - 3.0) <= 1e-10
    got = np.sort_complex(starts[0])
    assert np.abs(got - np.sort_complex(zeros)).max() <= 1e-10


def test_taylor_root_of_a_synthetic_function():
    # one zero inside a 16-point circle, two more just outside it
    zeros = np.array([0.01 - 0.02j, 0.25 + 0.1j, -0.2 - 0.2j])
    center, radius = 0.0, 0.2
    z = center + radius * np.exp(2j * np.pi * np.arange(16) / 16)
    f = np.prod(z[:, None] - zeros, axis=1) * np.exp(z)
    assert abs(periodic_eigen._taylor_root(f, center, radius) - zeros[0]) <= 1e-13


@pytest.mark.parametrize("name", ["const", "fourier", "step"])
def test_only_uncertified_disks_are_subdivided(name, monkeypatch):
    # the constant's double roots fail certification and go through the
    # enclosing squares; the simple roots of the other inputs keep their
    # moment roots
    tops = _subdivided_tops(monkeypatch)
    tab = eigenvalues_in_window(load_potential(INPUTS[name]), 1, 2)
    assert tab.failures == [] and len(tab.entries) == 6
    assert {c.n for c in tops} == ({1, 2} if name == "const" else set())


def _located(name, monkeypatch, subdivide_all):
    """Golden *name*'s table for window 1..2 and the rows the engine evaluated."""
    with monkeypatch.context() as m:
        if subdivide_all:
            m.setattr(periodic_eigen, "_moment_roots", _reject_all)
        evaluated = _evaluated_rows(m)
        tab = eigenvalues_in_window(load_potential(INPUTS[name]), 1, 2)
    assert tab.failures == []
    return tab, len(evaluated)


@pytest.mark.parametrize("name", ["step", "fourier"])
def test_moment_roots_match_subdivision(name, monkeypatch):
    moments, _ = _located(name, monkeypatch, subdivide_all=False)
    squares, _ = _located(name, monkeypatch, subdivide_all=True)
    assert [(e.n, e.j) for e in moments.entries] == [(e.n, e.j) for e in squares.entries]
    assert max(abs(a.z - b.z) for a, b in zip(moments.entries, squares.entries)) <= 1e-8


@pytest.mark.parametrize("name", ["step", "fourier"])
def test_moment_path_evaluates_a_quarter_of_the_rows(name, monkeypatch):
    _, moments = _located(name, monkeypatch, subdivide_all=False)
    _, squares = _located(name, monkeypatch, subdivide_all=True)
    assert 4 * moments <= squares


@pytest.mark.parametrize("name", ["step", "fourier"])
def test_stalled_newton_reports_failures(name, monkeypatch):
    # every disk goes through the subdivision fallback, where a start that
    # Newton leaves unconverged is dropped: a leaf with none converged is a
    # failure of its cell, and the disk reports the roots it misses
    monkeypatch.setattr(periodic_eigen, "_moment_roots", _reject_all)

    def stalled(p, z0, signs):
        z = np.array(z0, dtype=np.complex128)
        return z, np.zeros(z.size, bool), np.zeros(z.size, bool)

    monkeypatch.setattr(periodic_eigen, "_newton_batch", stalled)
    tab = eigenvalues_in_window(load_potential(INPUTS[name]), 1, 3)
    assert tab.entries == []
    cells = [f for f in tab.failures if f.startswith("no converged root for cell near ")]
    disks = sorted(f for f in tab.failures if f not in cells)
    assert cells
    assert disks == [f"disk n={n}: located 0 of 3 roots" for n in (1, 2, 3)]


@pytest.mark.parametrize("name", ["step", "fourier"])
def test_certified_roots_need_no_newton(name, monkeypatch):
    # the moment roots go straight to their certification circles; Newton
    # serves only the subdivision fallback, which here has no leaf to polish
    def unreachable(p, z0, signs):
        if len(z0):
            raise AssertionError(f"_newton_batch started from {len(z0)} points")
        return z0, np.zeros(0, bool), np.zeros(0, bool)

    monkeypatch.setattr(periodic_eigen, "_newton_batch", unreachable)
    tab = eigenvalues_in_window(load_potential(INPUTS[name]), 1, 2)
    assert tab.failures == [] and len(tab.entries) == 6


# Golden step's roots for n = 1 and 2, sorted: mpmath.findroot at 40 digits
# on det(oracles.mp_psi(lam) + I) for n = 1 and det(mp_psi(lam) - I) for
# n = 2, started from the located roots.  Each imaginary part came out below
# 1e-41, and |det| at each root below 1e-42.
STEP_ROOTS_40 = [
    3.06894814114249415056946,
    3.151525404234671409448833,
    3.231847486925335912311609,
    6.213148155169698157409653,
    6.287463859517923328067051,
    6.365893018020717760757077,
]


def test_step_roots_match_their_40_digit_values():
    tab = eigenvalues_in_window(load_potential(INPUTS["step"]), 1, 2)
    assert [(e.n, e.j) for e in tab.entries] == [(n, j) for n in (1, 2) for j in (1, 2, 3)]
    assert max(abs(e.z - z) for e, z in zip(tab.entries, STEP_ROOTS_40)) <= 1e-12
