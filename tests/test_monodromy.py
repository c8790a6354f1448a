"""Propagator checks: closed forms, exact identities, expansion terms.

The rank-one constant case has a fully explicit propagator (2x2 block plus a
plane-wave factor), which pins the trace to machine precision; everything
else is cross-checked between independent code paths (the Pade step
oracle, the series expansion, the conjugate-parameter route).
"""

import numpy as np
import pytest

from manakov_spectra import (
    Potential,
    RangeOverflowError,
    monodromy_grid,
    propagate,
    trace_t2,
)
from manakov_spectra.monodromy import J3
from conftest import random_potential
from oracles import pade_psi, picard_monodromy


def free_trace(lam):
    return np.exp(-1j * lam) + 2.0 * np.exp(1j * lam)


def test_free_closed_form(pot_zero):
    lam = np.array([0.0, 1.3, -4.7, 2.0 + 1.5j, -3.0 - 2.0j])
    g = monodromy_grid(pot_zero, lam, want_psi=True)
    assert np.abs(g["trace"] - free_trace(lam)).max() <= 1e-13 * np.exp(
        np.abs(lam.imag).max()
    )
    want_psi = np.zeros((len(lam), 3, 3), dtype=np.complex128)
    want_psi[:, 0, 0] = np.exp(-1j * lam)
    want_psi[:, 1, 1] = np.exp(1j * lam)
    want_psi[:, 2, 2] = np.exp(1j * lam)
    assert np.abs(g["psi"] - want_psi).max() <= 1e-12 * np.exp(np.abs(lam.imag).max())


def test_constant_rank_one_closed_form():
    # v = (c, 0): the first two components reduce to the 2x2 flow with
    # trace 2 cos sqrt(lam^2 - c^2); the third carries exp(i lam)
    c = 0.9
    p = Potential.from_constant((c, 0.0), resolution=64)
    lam = np.array([0.3, 1.1, -2.6, 0.4 + 0.8j])
    omega = np.sqrt(lam.astype(np.complex128) ** 2 - c**2)
    want = 2.0 * np.cos(omega) + np.exp(1j * lam)
    g = monodromy_grid(p, lam)
    assert np.abs(g["trace"] - want).max() <= 1e-12


def test_determinant_identity_random(rng):
    p = random_potential(rng, max_norm=1.5)
    lam = rng.uniform(-10, 10, size=20) + 1j * rng.uniform(-4, 4, size=20)
    g = monodromy_grid(p, lam)
    bound = 1e-11 * np.exp(np.abs(lam.imag))
    assert np.all(np.abs(g["det"] - np.exp(1j * lam)) <= bound)


def test_wronskian_defect_small(rng):
    p = random_potential(rng, max_norm=1.0)
    # psi(conj lam)^* J psi(lam) = J, entry by entry
    lam = np.array([0.7, -5.3, 2.0 + 1.0j, -1.0 - 2.5j])
    a = monodromy_grid(p, lam, want_psi=True)["psi"]
    b = monodromy_grid(p, np.conj(lam), want_psi=True)["psi"]
    defect = np.abs(np.conj(np.swapaxes(b, -1, -2)) @ J3 @ a - J3).max(axis=(-2, -1))
    assert np.all(defect <= 1e-10 * np.exp(2 * np.abs(lam.imag)))


def test_trace_conj_route_consistency(rng):
    # trace_conj must equal the conjugated trace at the conjugated parameter,
    # on both sides of the internal switch between the adjugate route and
    # direct re-propagation (the switch sits at moderate |Im lam|)
    p = random_potential(rng, max_norm=1.2)
    for im in (0.5, 5.9, 6.1, 9.0):
        lam = np.array([1.3 + im * 1j, -2.2 + im * 1j])
        g = monodromy_grid(p, lam)
        h = monodromy_grid(p, np.conj(lam))
        scale = np.abs(g["trace_conj"]).max()
        assert np.abs(g["trace_conj"] - np.conj(h["trace"])).max() <= 1e-9 * max(
            1.0, scale
        )


def test_two_steppers_agree(rng):
    p = random_potential(rng, max_norm=1.5)
    for lam in (0.9, -3.7, 1.5 + 2.0j):
        a = propagate(p, lam).psi
        b = pade_psi(p, lam)
        assert np.abs(a - b).max() <= 1e-11 * max(1.0, np.abs(a).max())


def test_potential_sign_symmetry(rng):
    # the trace only sees the potential through even powers
    p = random_potential(rng, max_norm=1.5)
    q = p.scaled(-1.0)
    lam = np.linspace(-6, 6, 31)
    ga, gb = monodromy_grid(p, lam), monodromy_grid(q, lam)
    assert np.abs(ga["trace"] - gb["trace"]).max() <= 1e-12


def test_expansion_odd_terms_traceless(rng):
    p = random_potential(rng, max_norm=1.0)
    res = picard_monodromy(p, 1.7, order=8)
    for n in (1, 3, 5, 7):
        assert abs(np.trace(res.orders[n])) <= 1e-13
    # and the truncated series approximates the full propagator
    full = propagate(p, 1.7).psi
    assert np.abs(res.partial - full).max() <= 1e-5


def test_expansion_scaling_in_amplitude(rng):
    # order-n term scales like s^n; checked at n = 2 via the closed form
    p = random_potential(rng, max_norm=0.5)
    lam = np.array([2.3])
    t2a = trace_t2(p, lam)
    t2b = trace_t2(p.scaled(2.0), lam)
    assert np.abs(t2b - 4.0 * t2a).max() <= 1e-10 * max(1.0, np.abs(t2a).max())


def test_trace_t2_matches_expansion(rng):
    p = random_potential(rng, max_norm=1.0)
    for lam in (0.8, -2.9, 4.4):
        series = picard_monodromy(p, lam, order=2)
        closed = trace_t2(p, lam)
        want = np.trace(series.orders[2])
        assert abs(complex(closed) - want) <= 1e-11 * max(1.0, abs(want))


def test_smooth_refinement_order():
    # midpoint staircase of a smooth potential: trace error is O(h^2), so
    # successive halvings against a fine reference give ratio ~ 5
    modes = {1: (0.4, 0.1), -2: (0.0, 0.3)}
    lam = 3.3
    traces = {}
    for m in (128, 256, 512):
        g = monodromy_grid(Potential.from_fourier(modes, m), lam)
        traces[m] = complex(np.ravel(g["trace"])[0])
    e1 = abs(traces[128] - traces[512])
    e2 = abs(traces[256] - traces[512])
    order = np.log2(e1 / e2)
    assert order >= 1.8


def test_imaginary_range_guard(pot_zero):
    with pytest.raises(RangeOverflowError):
        monodromy_grid(pot_zero, np.array([1000.0j]))
