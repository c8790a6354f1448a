"""Multiplier triples and the derived scalar family.

The two internal identities (cubic-at-phase and the squared-difference
product) are purely algebraic in the trace pair, so they are exercised on
random trace data as well as on genuine propagator output.
"""

from itertools import permutations

import mpmath
import numpy as np
import pytest

from manakov_spectra import (
    Potential,
    derived_grid,
    identity_suite,
    monodromy_grid,
    unimodular_count,
)
from manakov_spectra.multipliers import multipliers
from conftest import random_potential
from oracles import MP_DIGITS, mp_psi


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
    taus = multipliers(g)
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
    # random traces, and the free traces at three points where two roots
    # meet; the companion matrix of the cubic stands in for the propagator
    lam = np.concatenate([rng.uniform(-10, 10, size=27), [0.3, 1.7, -2.2]])
    t_free, s_free = free_traces(lam[27:])
    t = np.concatenate([rng.normal(size=27) + 1j * rng.normal(size=27), t_free])
    s = np.concatenate([rng.normal(size=27) + 1j * rng.normal(size=27), s_free])
    # tau^3 - T tau^2 + e^{i lam} S tau - e^{i lam}
    c2, c1, c0 = -t, np.exp(1j * lam) * s, -np.exp(1j * lam)
    psi = np.zeros((30, 3, 3), dtype=np.complex128)
    psi[:, 0] = -np.stack([c2, c1, c0], axis=-1)
    psi[:, 1, 0] = psi[:, 2, 1] = 1.0
    taus = multipliers({"lam": lam, "trace": t, "trace_conj": s, "psi": psi})
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
    assert out["dd1"].max() <= 1e-10
    assert out["dd2"].max() <= 1e-10


def test_rho_is_product_of_squared_differences(rng):
    p = random_potential(rng, max_norm=1.0)
    lam = rng.uniform(-6, 6, size=12) + 1j * rng.uniform(0.5, 2.5, size=12)
    g = monodromy_grid(p, lam)
    taus = multipliers(g)
    rho = derived_grid(g["trace"], g["trace_conj"], g["lam"])["rho"]
    for k in range(len(lam)):
        de = (taus[k] + 1.0 / taus[k]) / 2.0
        prod = (
            (de[0] - de[1]) ** 2 * (de[0] - de[2]) ** 2 * (de[1] - de[2]) ** 2
        )
        scale = max(1.0, np.abs(de).max() ** 6)
        assert abs(rho[k] - prod) <= 1e-8 * scale


def test_unimodular_count_band_gap(pot_const):
    # inside the gap of the reduced 2x2 problem one multiplier stays on the
    # circle; in bands all three sit on it
    lam_gap = np.array([0.0, 0.3, -0.5])
    lam_band = np.array([2.0, -3.0, 4.4])
    for lam, want in ((lam_gap, 1), (lam_band, 3)):
        g = monodromy_grid(pot_const, lam)
        taus = multipliers(g)
        counts = unimodular_count(taus)
        assert np.all(counts == want)


def test_disc_real_on_real_axis(rng):
    p = random_potential(rng, max_norm=1.2)
    lam = np.linspace(-10, 10, 201)
    g = monodromy_grid(p, lam)
    d = derived_grid(g["trace"], g["trace_conj"], g["lam"])
    assert np.abs(d["disc"].imag).max() <= 1e-10
    assert np.abs(d["phi"].imag).max() <= 1e-10


_NEAR = np.array([-1e-2, -1e-4, -1e-6, 0.0, 1e-6, 1e-4, 1e-2])


@pytest.mark.parametrize(
    "p, lam",
    [
        # three multipliers meet at lam = 2 pi n, where the trace cubic's
        # roots are 8.6e-6 off
        (Potential.zero(), np.concatenate([2 * np.pi + _NEAR, -2 * np.pi + _NEAR])),
        # a graded propagator: in the gap the small multiplier falls to
        # 2.6e-4, which the deflated cubic keeps and psi's eigenvalues
        # alone miss by 3.2e-9 of its modulus
        (Potential.from_constant((8.0, 2.0)), np.linspace(-12.0, 12.0, 25)),
    ],
    ids=["zero-near-2pi", "const-8-2"],
)
def test_multipliers_match_40_digit_eigenvalues(p, lam):
    taus = multipliers(monodromy_grid(p, lam))
    for got, x in zip(taus, lam):
        with mpmath.workdps(MP_DIGITS):
            ev = mpmath.eig(mp_psi(p, x), left=False, right=False)
        want = np.array([complex(e) for e in ev])
        err = min(
            np.max(np.abs(got[list(perm)] - want) / np.abs(want)) for perm in permutations(range(3))
        )
        assert err <= 1e-12, x
