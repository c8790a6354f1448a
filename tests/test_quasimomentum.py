"""Exponent profiles, gap-mass quadrature, Herglotz-type tail fit.

The constant rank-one fixture gives exact targets: branch exponents
(|u|, |u|, 0) at the gap center, average 2|u|/3, and a gap mass equal to
two thirds of the 2x2 reference value.  Every input's whole-line gap mass is
``norm_sq / 3`` (the trace formula), which the tail estimate completes.
"""

from dataclasses import replace

import numpy as np
import pytest

from manakov_spectra import (
    ConfigError,
    eps_map,
    herglotz_asymptotic,
    moments,
    q0_integral,
    q_profile,
    scalar_reduction,
    scan,
    zs_q0_integral,
)
from manakov_spectra.quasimomentum import QUAD_REL_TOL, _magnitudes, branch_magnitudes
from manakov_spectra.cli import DEFAULT_NU, load_potential
from conftest import CONST_JSON, cli_csv_rows
from oracles import mp_herglotz_fit
from test_golden import INPUTS

# many-small step input 4 of the benchmark: two dyadic steps, so exact
STEP_DYADIC = (
    '{"kind":"piecewise","breakpoints":[0.0,0.5625,1.0],"values":'
    "[[[0.20575697966748893,-0.10935731298711066],[0.0494328102324182,-0.15402280511198624]],"
    "[[-0.08227103508011728,0.34119792123628906],[0.02978313414190797,-0.09587832650111391]]]}"
)


def test_eps_map_contracts(rng):
    assert abs(eps_map(2.0) - (2.0 + np.sqrt(3.0))) <= 1e-14
    # on [-1, 1] the image sits on the unit circle
    x = rng.uniform(-1, 1, size=50)
    assert np.abs(np.abs(eps_map(x)) - 1.0).max() <= 1e-12
    assert abs(abs(eps_map(10j)) - (10.0 + np.sqrt(101.0))) <= 1e-12
    # selected branch has modulus >= 1 everywhere ...
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    w = eps_map(z)
    assert np.min(np.abs(w)) >= 1.0 - 1e-12
    # ... and satisfies the branch-independent inverse relation
    assert np.abs(w * (2.0 * z - w) - 1.0).max() <= 1e-10


def test_free_profile_identically_zero(pot_zero):
    sc = scan(pot_zero, -5.0, 5.0, step=0.01)
    prof = q_profile(pot_zero, sc)
    assert np.all(prof.q_avg == 0.0)
    assert np.all(prof.q_branches == 0.0)


@pytest.mark.parametrize("name", ["pot_const", "pot_two_mode"])
def test_profile_reuses_scan_samples_bit_for_bit(name, request):
    # the grid samples come from the scan, the gap samples from their own
    # batch; together they equal one propagation of the whole profile grid
    p = request.getfixturevalue(name)
    sc = scan(p, -7.5, 7.5, step=0.01)
    prof = q_profile(p, sc)
    assert sc.gaps
    assert prof.grid.size > sc.lam.size
    q, q_avg = branch_magnitudes(p, prof.grid)
    assert np.array_equal(prof.q_branches, q)
    assert np.array_equal(prof.q_avg, q_avg)


def test_constant_gap_center_exponents(pot_const):
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    prof = q_profile(pot_const, sc)
    mid = int(np.argmin(np.abs(prof.grid)))
    assert abs(prof.grid[mid]) <= 5e-3
    assert abs(prof.q_avg[mid] - 0.6) <= 1e-6
    branches = np.sort(prof.q_branches[mid])
    assert np.abs(branches - np.array([0.0, 0.9, 0.9])).max() <= 1e-6
    # bands are clamped to exactly zero, gap interior strictly positive
    band = np.abs(prof.grid) > 0.95
    assert np.all(prof.q_avg[band] == 0.0)
    interior = np.abs(prof.grid) < 0.8
    assert np.all(prof.q_avg[interior] > 1e-10)


def test_gap_mass_two_thirds_of_reduced(pot_const):
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    res = q0_integral(pot_const, sc.gaps)
    u, _ = scalar_reduction(pot_const)
    want = (2.0 / 3.0) * zs_q0_integral(u, -7.0, 7.0)
    assert abs(res.value - want) <= 1e-3 * want
    assert res.tail_estimate <= 1e-15 * moments(pot_const).b3
    assert len(res.per_gap) == 1
    assert res.notes == []


def test_narrow_window_holding_the_whole_gap_has_no_tail(pot_const):
    # the window's edges lie in bands: the one gap carries the whole total
    sc = scan(pot_const, -2.0, 2.0, step=0.01)
    res = q0_integral(pot_const, sc.gaps)
    assert abs(res.value - moments(pot_const).b3 / 3.0) <= 1e-15
    assert res.tail_estimate <= 1e-15
    assert res.notes == []


def test_tail_is_the_trace_formula_shortfall():
    # a step potential's gaps shrink like 1/n, so [-16, 16] misses over 5% of
    # the total; the tail is that shortfall, and a note names it
    p = load_potential(STEP_DYADIC)
    sc = scan(p, -16.0, 16.0, step=0.05)
    res = q0_integral(p, sc.gaps)
    total = moments(p).b3 / 3.0
    assert abs(res.value + res.tail_estimate - total) <= QUAD_REL_TOL * total
    assert res.tail_estimate > 0.05 * total
    assert [n.split(":")[0] for n in res.notes] == ["gap-mass-shortfall"]


def test_empty_window_misses_the_whole_total(pot_const):
    sc = scan(pot_const, 2.0, 3.0, step=0.01)
    assert sc.gaps == []
    res = q0_integral(pot_const, sc.gaps)
    assert res.value == 0.0 and res.per_gap == []
    assert res.tail_estimate == moments(pot_const).b3 / 3.0
    assert [n.split(":")[0] for n in res.notes] == ["gap-mass-shortfall"]


def test_integral_above_the_total_is_flagged(pot_const, monkeypatch):
    # no correct quadrature exceeds norm_sq / 3; halve the norm to see the note
    m = moments(pot_const)
    halved = replace(m, b3=0.5 * m.b3)
    monkeypatch.setattr("manakov_spectra.quasimomentum.moments", lambda p: halved)
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    res = q0_integral(pot_const, sc.gaps)
    assert res.tail_estimate == 0.0
    assert [n.split(":")[0] for n in res.notes] == ["gap-mass-excess"]


def test_herglotz_fit_matches_quadrature(pot_const):
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    quad = q0_integral(pot_const, sc.gaps).value
    fit = herglotz_asymptotic(pot_const, (12, 16, 20, 26, 34))
    assert abs(fit.q0 - quad) <= 0.1 * quad
    assert fit.residual_rms <= 1e-3


def test_herglotz_validation(pot_const):
    with pytest.raises(ConfigError):
        herglotz_asymptotic(pot_const, (5, 8))  # below the asymptotic regime
    with pytest.raises(ConfigError):
        herglotz_asymptotic(pot_const, (15,))  # cannot fit two parameters
    for bad in (np.nan, np.inf, -np.inf):
        # the sort puts NaN last, where a check of the smallest sample misses it
        with pytest.raises(ConfigError, match="finite"):
            herglotz_asymptotic(pot_const, (12.0, bad, 16.0))


def test_herglotz_fit_does_not_overflow_up_to_max_nu():
    # the fit reads the averages' symmetric functions only; the discriminant
    # and the squared-difference product, of order e^{4 nu} and e^{6 nu},
    # overflow here
    p = load_potential(INPUTS["const"])
    with np.errstate(over="raise", invalid="raise"):
        fit = herglotz_asymptotic(p, (200.0, 230.0))
    assert np.isfinite(fit.q0)


@pytest.mark.parametrize("name", ["const", "step"])
def test_herglotz_fit_near_its_40_digit_value(name):
    # the near-triple cubic of the branch averages magnifies the traces'
    # rounding; the golden fourier input, left out for its 64 runs' mpmath
    # cost, sits 2.0e-10 from its 40-digit fit
    p = load_potential(INPUTS[name])
    fit = herglotz_asymptotic(p, DEFAULT_NU).q0
    assert abs(fit - mp_herglotz_fit(p, DEFAULT_NU)) <= 3e-10


def test_envelope_bounds_generic(pot_two_mode):
    # on every gap sample of a three-sheeted potential the largest branch
    # magnitude q squeezes |D| between sinh(q)^2 (cosh(q) - 1)^2 / 4 and
    # sinh(2q)^2 / 16 (on bands both sides collapse to zero)
    sc = scan(pot_two_mode, -5.0, 5.0, step=0.01)
    gap = sc.multiplicity == 1
    assert np.count_nonzero(gap) >= 50
    q_branch, _ = _magnitudes(sc.taus[gap], sc.disc[gap], sc.trace[gap])
    q = q_branch.max(axis=-1)
    absd = np.abs(sc.disc[gap])
    lower = 0.25 * np.sinh(q) ** 2 * (np.cosh(q) - 1.0) ** 2
    upper = np.sinh(2.0 * q) ** 2 / 16.0
    assert np.min(absd - lower) >= -1e-8
    assert np.min(upper - absd) >= -1e-8


def test_profile_serialization(pot_const, capsys):
    # the command also integrates the gap mass, which needs the gap well inside
    sc = scan(pot_const, -7.0, 7.0, step=0.01)
    prof = q_profile(pot_const, sc)
    argv = ["qmomentum", "--potential", CONST_JSON, "--interval", "-7", "7", "--step", "0.01"]
    rows = cli_csv_rows(argv, capsys)
    assert rows[0] == ["lam", "q1", "q2", "q3", "q_avg"]
    assert len(rows) == 1 + len(prof.grid)
