"""Potential representations, canonicalization, moments, transforms."""

import numpy as np
import pytest

from manakov_spectra import (
    ConfigError,
    Potential,
    fourier_hat,
    is_rank_one,
    moments,
)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        Potential.from_constant((1.0, 0.0), resolution=48)  # not a power of two
    with pytest.raises(ConfigError):
        Potential.from_constant((1.0, 0.0), resolution=16)  # below minimum
    with pytest.raises(ConfigError):
        Potential.from_piecewise([0.0, 0.5], [(1.0, 0.0)])  # does not end at 1
    with pytest.raises(ConfigError):
        Potential.from_piecewise([0.0, 0.6, 0.4, 1.0], [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ConfigError):
        Potential.from_samples(np.zeros((100, 2)))  # length not a power of two


def test_canonical_constant_exact():
    p = Potential.from_constant((0.3, -0.1j), resolution=64)
    g = p.canonical()
    assert g.exact
    assert g.values.shape == (64, 2)
    assert np.all(g.values[:, 0] == 0.3)
    assert np.all(g.values[:, 1] == -0.1j)


def test_canonical_fourier_midpoint_sampling():
    p = Potential.from_fourier({1: (1.0, 0.0)}, resolution=64)
    g = p.canonical()
    mid = (np.arange(64) + 0.5) / 64
    assert np.abs(g.values[:, 0] - np.exp(2j * np.pi * mid)).max() <= 1e-14
    assert not g.exact


def test_canonical_piecewise_dyadic_refinement():
    # breakpoint at 3/256 forces refinement beyond the requested 64 cells
    p = Potential.from_piecewise(
        [0.0, 3.0 / 256.0, 1.0], [(1.0, 0.0), (0.0, 0.0)], resolution=64
    )
    g = p.canonical()
    assert g.exact
    assert g.resolution == 256
    h = 1.0 / g.resolution
    width = h * np.sum(g.values[:, 0].real)
    assert abs(width - 3.0 / 256.0) <= 1e-15


def test_moments_two_mode_hand_values(pot_two_mode):
    # v1 = 0.25 e^{2 pi i x}; v2 = 0.1 e^{2 pi i x} + 0.15 e^{-2 pi i x}
    m = moments(pot_two_mode)
    assert abs(m.c1 - 0.0625) <= 1e-6
    assert abs(m.c2 - 0.0325) <= 1e-6
    assert abs(m.c12 - 0.025) <= 1e-6
    assert abs(m.beta_o - ((0.0625 - 0.0325) ** 2 + 4 * 0.025**2)) <= 1e-7
    assert abs(m.b1 + m.b2 - m.b3) <= 1e-15
    assert m.b1 > 0.01  # genuinely not rank one


def test_moments_scaling_quadratic(rng):
    from conftest import random_potential, scaled

    p = random_potential(rng)
    s = 1.7
    m1 = moments(p)
    m2 = moments(scaled(p, s))
    for name in ("c1", "c2", "b1", "b2", "b3"):
        assert abs(getattr(m2, name) - s**2 * getattr(m1, name)) <= 1e-12 * max(
            1.0, abs(getattr(m1, name))
        )
    assert abs(m2.beta_o - s**4 * m1.beta_o) <= 1e-12


def test_rank_one_detection(rank_one_family, pot_two_mode, pot_const):
    for p in rank_one_family:
        assert is_rank_one(p)
        assert moments(p).b1 <= 1e-12
    assert is_rank_one(pot_const)
    assert not is_rank_one(pot_two_mode)


def test_fourier_hat_single_mode():
    # exp(2 i lam x) against exp(2 pi i n x): the transform at lam = -pi n
    # returns the coefficient, up to the midpoint-staircase error O((n/M)^2)
    p = Potential.from_fourier({3: (0.5, 0.0)}, resolution=256)
    at_minus = fourier_hat(p, -3.0 * np.pi)
    assert abs(at_minus[0] - 0.5) <= 5e-4
    assert abs(at_minus[1]) <= 1e-12
    off = fourier_hat(p, 7.0 * np.pi)
    assert abs(off[0]) <= 5e-3


def test_fourier_hat_constant_closed_form():
    p = Potential.from_constant((1.0, 0.0), resolution=64)
    lam = np.array([0.7, -2.3, 1.0 + 0.5j])
    want = (np.exp(2j * lam) - 1.0) / (2j * lam)
    got = fourier_hat(p, lam)
    assert np.abs(got[:, 0] - want).max() <= 1e-13
    assert abs(complex(fourier_hat(p, 0.0)[0]) - 1.0) <= 1e-14


def test_scaled_and_hash_stability(pot_two_mode):
    from conftest import scaled

    q = scaled(pot_two_mode, 2.0)
    assert abs(moments(q).b3 - 4.0 * moments(pot_two_mode).b3) <= 1e-12
    # canonical values are cached and identical across calls
    a = pot_two_mode.canonical().values
    b = pot_two_mode.canonical().values
    assert a is b
