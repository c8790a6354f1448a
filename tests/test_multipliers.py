"""Multiplier triples and the derived scalar family.

The two internal identities (cubic-at-phase and the squared-difference
product) are purely algebraic in the trace pair, so they are exercised on
random trace data as well as on genuine propagator output.
"""

import numpy as np

from manakov_spectra import (
    derived_grid,
    identity_suite,
    lyapunov_triple,
    monodromy_grid,
    multipliers_from_traces,
    unimodular_count,
)
from conftest import multiset_distance, random_potential


def free_traces(lam):
    t = np.exp(-1j * lam) + 2.0 * np.exp(1j * lam)
    s = 2.0 * np.exp(-1j * lam) + np.exp(1j * lam)
    return t, s


def test_free_derived_values():
    lam = np.linspace(-3.0, 3.0, 41)
    t, s = free_traces(lam)
    d = derived_grid(t, s, lam)
    assert np.abs(d["tcal"] - 3.0 * np.cos(lam)).max() <= 1e-13
    assert np.abs(d["t1"] - 3.0 * np.cos(lam) ** 2).max() <= 1e-13
    assert np.abs(d["det_lambda"] - np.cos(lam) ** 3).max() <= 1e-13
    assert np.abs(d["phi"]).max() <= 1e-13
    assert np.abs(d["disc"]).max() <= 1e-12


def test_symmetric_functions_on_propagator_output(rng):
    p = random_potential(rng, max_norm=1.5)
    lam = np.concatenate(
        [
            rng.uniform(-15, 15, size=40),
            rng.uniform(-8, 8, size=20) + 1j * rng.uniform(-3, 3, size=20),
        ]
    )
    g = monodromy_grid(p, lam)
    taus = multipliers_from_traces(g["trace"], g["trace_conj"], g["lam"])
    ep = np.exp(1j * lam)
    e1 = taus.sum(axis=-1)
    e2 = (
        taus[:, 0] * taus[:, 1]
        + taus[:, 0] * taus[:, 2]
        + taus[:, 1] * taus[:, 2]
    )
    e3 = taus.prod(axis=-1)
    scale = np.maximum(1.0, np.abs(g["trace"]))
    assert np.abs(e1 - g["trace"]).max() / scale.max() <= 1e-10
    assert np.all(np.abs(e2 - ep * g["trace_conj"]) <= 1e-10 * np.maximum(1.0, np.abs(ep * g["trace_conj"])))
    assert np.all(np.abs(e3 - ep) <= 1e-10 * np.abs(ep))


def test_multipliers_solve_the_characteristic_cubic(rng):
    t = rng.normal(size=30) + 1j * rng.normal(size=30)
    s = rng.normal(size=30) + 1j * rng.normal(size=30)
    lam = rng.uniform(-10, 10, size=30)
    # tau^3 - T tau^2 + e^{i lam} S tau - e^{i lam}
    c2, c1, c0 = -t, np.exp(1j * lam) * s, -np.exp(1j * lam)
    taus = multipliers_from_traces(t, s, lam)
    for k in range(30):
        vals = ((taus[k] + c2[k]) * taus[k] + c1[k]) * taus[k] + c0[k]
        assert np.abs(vals).max() <= 1e-8 * max(1.0, np.abs(taus[k]).max() ** 3)


def test_identity_suite_on_random_traces(rng):
    # both identities are trace-level algebra: they must hold for arbitrary
    # (t, s) pairs, not only those realized by a potential
    t = 3.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    s = 3.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    lam = rng.uniform(-30, 30, size=200)
    out = identity_suite(t, s, lam)
    assert out["ok"]
    assert out["dd1"].max() <= 1e-10
    assert out["dd2"].max() <= 1e-10


def test_rho_is_product_of_squared_differences(rng):
    p = random_potential(rng, max_norm=1.0)
    lam = rng.uniform(-6, 6, size=12) + 1j * rng.uniform(0.5, 2.5, size=12)
    g = monodromy_grid(p, lam)
    taus = multipliers_from_traces(g["trace"], g["trace_conj"], g["lam"])
    rho = derived_grid(g["trace"], g["trace_conj"], g["lam"])["rho"]
    for k in range(len(lam)):
        de = (taus[k] + 1.0 / taus[k]) / 2.0
        prod = (
            (de[0] - de[1]) ** 2 * (de[0] - de[2]) ** 2 * (de[1] - de[2]) ** 2
        )
        scale = max(1.0, np.abs(de).max() ** 6)
        assert abs(rho[k] - prod) <= 1e-8 * scale


def test_delta_from_multiplier_pairing(rng):
    # each branch average equals (tau + 1/tau) / 2
    p = random_potential(rng, max_norm=1.0)
    lam0 = 1.9 + 1.1j
    g = monodromy_grid(p, np.array([lam0]))
    taus = multipliers_from_traces(g["trace"], g["trace_conj"], g["lam"])[0]
    delta = lyapunov_triple(g["trace"], g["trace_conj"], g["lam"])[0]
    want = (taus + 1.0 / taus) / 2.0
    assert multiset_distance(delta, want) <= 1e-10


def test_lyapunov_triple_matches_pairing(rng):
    # solving the averages' own cubic must reproduce (tau + 1/tau) / 2
    p = random_potential(rng, max_norm=1.2)
    lam = np.concatenate(
        [
            rng.uniform(-8, 8, size=25),
            rng.uniform(-5, 5, size=15) + 1j * rng.uniform(-1.5, 1.5, size=15),
        ]
    )
    g = monodromy_grid(p, lam)
    taus = multipliers_from_traces(g["trace"], g["trace_conj"], g["lam"])
    paired = (taus + 1.0 / taus) / 2.0
    stable = lyapunov_triple(g["trace"], g["trace_conj"], g["lam"])
    for k in range(lam.size):
        scale = max(1.0, np.abs(paired[k]).max())
        assert multiset_distance(stable[k], paired[k]) <= 1e-8 * scale


def test_lyapunov_triple_stays_bounded_off_axis(pot_two_mode):
    # far up the imaginary axis the pairing route drowns in trace rounding,
    # but the averages themselves stay at the cos-lam scale; the free triple
    # root caps accuracy at roughly the cube root of machine precision
    lam = np.array([0.3 + 30j, -1.5 + 25j])
    t = np.exp(-1j * lam) + 2.0 * np.exp(1j * lam)
    s = 2.0 * np.exp(-1j * lam) + np.exp(1j * lam)
    got = lyapunov_triple(t, s, lam)
    rel = np.abs(got - np.cos(lam)[:, None]) / np.abs(np.cos(lam))[:, None]
    assert rel.max() <= 1e-4
    # and on a genuine potential the deviation from cos-lam carries the
    # mode content: finite, cos-scaled, not the e^{+Im lam} blowup
    g = monodromy_grid(pot_two_mode, np.array([20j]))
    vals = lyapunov_triple(g["trace"], g["trace_conj"], g["lam"])[0]
    assert np.all(np.isfinite(vals))
    assert np.abs(vals / np.cos(20j) - 1.0).max() <= 0.1


def test_unimodular_count_band_gap(pot_const):
    # inside the gap of the reduced 2x2 problem one multiplier stays on the
    # circle; in bands all three sit on it
    lam_gap = np.array([0.0, 0.3, -0.5])
    lam_band = np.array([2.0, -3.0, 4.4])
    for lam, want in ((lam_gap, 1), (lam_band, 3)):
        g = monodromy_grid(pot_const, lam)
        taus = multipliers_from_traces(g["trace"], g["trace_conj"], g["lam"])
        counts = unimodular_count(taus)
        assert np.all(counts == want)


def test_disc_real_on_real_axis(rng):
    p = random_potential(rng, max_norm=1.2)
    lam = np.linspace(-10, 10, 201)
    g = monodromy_grid(p, lam)
    d = derived_grid(g["trace"], g["trace_conj"], g["lam"])
    assert np.abs(d["disc"].imag).max() <= 1e-10
    assert np.abs(d["phi"].imag).max() <= 1e-10
