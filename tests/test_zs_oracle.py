"""Reduced 2x2 reference flow and the rank-one cross-checks against it.

The 2x2 propagator is exact per constant run (cos/sinc form), so the free
and constant cases must come out at machine precision; everything else is
measured against closed forms or first-order perturbation targets.
"""

import numpy as np
import pytest

from manakov_spectra import (
    ConfigError,
    moments,
    monodromy_grid,
    reduction_check,
    scalar_reduction,
    zs_delta_grid,
    zs_gaps,
    zs_q0_integral,
)
from manakov_spectra.multipliers import derived_grid
from manakov_spectra.zs_oracle import zs_propagator_grid


def test_free_delta_is_cosine():
    u = np.zeros(64, dtype=np.complex128)
    lam = np.linspace(-8, 8, 101)
    d = zs_delta_grid(u, lam)
    assert np.abs(d - np.cos(lam)).max() <= 1e-14


def test_constant_delta_closed_form():
    u = np.full(64, 0.9, dtype=np.complex128)
    lam = np.array([0.0, 0.4, 2.2, -3.7, 1.0 + 0.5j])
    omega = np.sqrt(lam.astype(np.complex128) ** 2 - 0.81)
    want = np.cos(omega)
    assert np.abs(zs_delta_grid(u, lam) - want).max() <= 1e-13


def test_unit_determinant_random(rng):
    u = 0.5 * (rng.normal(size=128) + 1j * rng.normal(size=128))
    y = zs_propagator_grid(u, np.array([0.3, -2.7, 1.1 + 0.8j]))
    det = y[:, 0, 0] * y[:, 1, 1] - y[:, 0, 1] * y[:, 1, 0]
    assert np.abs(det - 1.0).max() <= 1e-11


def test_delta_real_on_real_axis(rng):
    u = 0.4 * (rng.normal(size=128) + 1j * rng.normal(size=128))
    lam = np.linspace(-6, 6, 121)
    d = zs_delta_grid(u, lam)
    assert np.abs(d.imag).max() <= 1e-11


def test_constant_gap_endpoints():
    u = np.full(64, 0.9, dtype=np.complex128)
    gaps = zs_gaps(u, -7.0, 7.0)
    assert len(gaps) == 1
    a, b = gaps[0]
    assert abs(a + 0.9) <= 1e-8
    assert abs(b - 0.9) <= 1e-8
    # multiplier magnitude returns to 1 at the located endpoints
    d = zs_delta_grid(u, np.array([a, b]))
    assert np.abs(np.abs(d) - 1.0).max() <= 1e-8


def test_scalar_reduction_directions(rank_one_family):
    first, second, slanted = rank_one_family
    u1, e1 = scalar_reduction(first)
    assert np.abs(e1 - np.array([1.0, 0.0])).max() <= 1e-12
    u2, e2 = scalar_reduction(second)
    assert np.abs(e2 - np.array([0.0, 1.0])).max() <= 1e-12
    u3, e3 = scalar_reduction(slanted)
    want = np.array([1.0, 3.0]) / np.sqrt(10.0)
    assert np.abs(e3 - want).max() <= 1e-10
    # all three reduce to the same scalar profile
    assert np.abs(u1 - u2).max() <= 1e-10
    assert np.abs(u1 - u3).max() <= 1e-10
    # and the scalar norm matches the two-component norm
    h = 1.0 / len(u1)
    assert abs(h * np.sum(np.abs(u1) ** 2) - moments(first).b3) <= 1e-12


def test_reduction_check_family(rank_one_family):
    lam = np.linspace(-10.0, 10.0, 400)
    for p in rank_one_family:
        for err in reduction_check(p, monodromy_grid(p, lam)):
            assert err.max() <= 1e-7


def test_reduction_check_refuses_generic(pot_two_mode):
    lam = np.linspace(-3, 3, 50)
    with pytest.raises(ConfigError):
        reduction_check(pot_two_mode, monodromy_grid(pot_two_mode, lam))


def test_band_indicator_agreement(pot_const):
    # sign of the full discriminant vs the reduced |Delta| <= 1 test
    lam = np.linspace(-8.0, 8.0, 500)
    g = monodromy_grid(pot_const, lam)
    disc = derived_grid(g["trace"], g["trace_conj"], g["lam"])["disc"].real
    u, _ = scalar_reduction(pot_const)
    inside_zs = np.abs(zs_delta_grid(u, lam).real) <= 1.0
    mismatch = np.count_nonzero((disc >= 0.0) != inside_zs)
    assert mismatch <= 1


def test_reduced_gap_mass_is_half_the_norm(pot_const):
    # the 2x2 trace formula, through a path that shares no code with the
    # 3x3 quadrature: the whole-line gap mass is ||u||^2 / 2
    u, _ = scalar_reduction(pot_const)
    norm_sq = float(np.mean(np.abs(u) ** 2))
    assert abs(zs_q0_integral(u, -7.0, 7.0) - 0.5 * norm_sq) <= 1e-12


def test_reduced_gap_mass_quadrature_stability():
    u = np.full(64, 0.9, dtype=np.complex128)
    coarse = zs_q0_integral(u, -7.0, 7.0, nodes=128)
    fine = zs_q0_integral(u, -7.0, 7.0, nodes=512)
    assert abs(coarse - fine) <= 1e-6 * max(1.0, abs(fine))
