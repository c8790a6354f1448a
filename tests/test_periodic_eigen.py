"""Periodic/antiperiodic eigenvalue tables and the restored-product route.

The constant rank-one potential is the workhorse: its eigenvalues have the
closed forms pi n (simple) and sqrt((pi n)^2 + |u|^2) (double), so counting,
refinement accuracy, and the first-order deviation trend can all be checked
against paper-and-pencil values.
"""

import numpy as np
import pytest

from manakov_spectra import (
    EigenvalueTable,
    asymptotic_residuals,
    count_in_disk,
    d_pm,
    d_pm_grid,
    eigenvalues_in_window,
    monodromy_grid,
    recover_traces,
)
from conftest import CONST_JSON, cli_csv_rows
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
    assert count_in_disk(pot_zero, np.pi, 0.5, -1) == 3
    assert count_in_disk(pot_zero, 2 * np.pi, 0.5, +1) == 3
    # wrong parity sees no roots there
    assert count_in_disk(pot_zero, np.pi, 0.5, +1) == 0


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
    for k in range(len(lam)):
        lam0 = complex(lam[k])
        dp = d_pm(pot_two_mode, lam0, +1)
        dm = d_pm(pot_two_mode, lam0, -1)
        t, s = recover_traces(dp, dm, lam0)
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
    direct = d_pm(pot_const, lam0, -1)
    d0 = d_pm(pot_const, 0.0, -1)
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
