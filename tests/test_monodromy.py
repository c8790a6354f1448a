"""Propagator checks: closed forms, exact identities, expansion terms.

The rank-one constant case has a fully explicit propagator (2x2 block plus a
plane-wave factor), which pins the trace to machine precision; everything
else is cross-checked between independent code paths (the Pade step
oracle, the series expansion, the conjugate-parameter route).
"""

import collections
import itertools
import operator
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manakov_spectra import Potential, RangeOverflowError, monodromy_grid
from manakov_spectra import monodromy
from manakov_spectra.monodromy import J3
from manakov_spectra.cli import DEFAULT_NU, load_potential
from conftest import random_potential, scaled
from test_golden import INPUTS
from oracles import (
    mp_psi,
    pade_psi,
    picard_monodromy,
    point_series_lengths,
    reference_steps,
    series_length,
    trace_t2,
    tree_product,
)


def free_trace(lam):
    return np.exp(-1j * lam) + 2.0 * np.exp(1j * lam)


def test_free_closed_form(pot_zero):
    lam = np.array([0.0, 1.3, -4.7, 2.0 + 1.5j, -3.0 - 2.0j])
    g = monodromy_grid(pot_zero, lam)
    assert np.abs(g["trace"] - free_trace(lam)).max() <= 1e-13 * np.exp(
        np.abs(lam.imag).max()
    )
    free_psi = np.zeros((len(lam), 3, 3), dtype=np.complex128)
    free_psi[:, 0, 0] = np.exp(-1j * lam)
    free_psi[:, 1, 1] = np.exp(1j * lam)
    free_psi[:, 2, 2] = np.exp(1j * lam)
    assert np.abs(g["psi"] - free_psi).max() <= 1e-12 * np.exp(np.abs(lam.imag).max())


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
    assert np.all(np.abs(np.linalg.det(g["psi"]) - np.exp(1j * lam)) <= bound)


def test_wronskian_defect_small(rng):
    p = random_potential(rng, max_norm=1.0)
    # psi(conj lam)^* J psi(lam) = J, entry by entry
    lam = np.array([0.7, -5.3, 2.0 + 1.0j, -1.0 - 2.5j])
    a = monodromy_grid(p, lam)["psi"]
    b = monodromy_grid(p, np.conj(lam))["psi"]
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
        a = monodromy_grid(p, [lam])["psi"][0]
        b = pade_psi(p, lam)
        assert np.abs(a - b).max() <= 1e-11 * max(1.0, np.abs(a).max())


def test_potential_sign_symmetry(rng):
    # the trace only sees the potential through even powers
    p = random_potential(rng, max_norm=1.5)
    q = scaled(p, -1.0)
    lam = np.linspace(-6, 6, 31)
    ga, gb = monodromy_grid(p, lam), monodromy_grid(q, lam)
    assert np.abs(ga["trace"] - gb["trace"]).max() <= 1e-12


def test_expansion_odd_terms_traceless(rng):
    p = random_potential(rng, max_norm=1.0)
    res = picard_monodromy(p, 1.7, order=8)
    for n in (1, 3, 5, 7):
        assert abs(np.trace(res.orders[n])) <= 1e-13
    # and the truncated series approximates the full propagator
    full = monodromy_grid(p, [1.7])["psi"][0]
    assert np.abs(res.partial - full).max() <= 1e-5


def test_expansion_scaling_in_amplitude(rng):
    # order-n term scales like s^n; checked at n = 2 via the closed form
    p = random_potential(rng, max_norm=0.5)
    lam = np.array([2.3])
    t2a = trace_t2(p, lam)
    t2b = trace_t2(scaled(p, 2.0), lam)
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


# the non-real points of the verify command's checks
VERIFY_POINTS = (1.3 + 0.8j, -2.2 + 1.7j, 0.4 - 1.1j, 3.7 + 2.5j)


@pytest.mark.parametrize(
    "name, points",
    [
        ("const", VERIFY_POINTS),
        ("step", VERIFY_POINTS),
        ("step", tuple(1j * nu for nu in DEFAULT_NU)),  # qmomentum's decay fit
    ],
    ids=["const-verify", "step-verify", "step-nu"],
)
def test_traces_match_a_40_digit_propagator(name, points):
    # trace from the adjugate below |Im lam| = 6 and from the conjugate
    # propagation above it, against 40-digit arithmetic
    p = load_potential(INPUTS[name])
    g = monodromy_grid(p, points)
    for x, t, s in zip(points, g["trace"], g["trace_conj"]):
        for got, m in ((t, mp_psi(p, x)), (s, mp_psi(p, x, inverse=True))):
            want = complex(m[0, 0] + m[1, 1] + m[2, 2])
            assert abs(got - want) <= 1e-13 * abs(want), (x, got, want)


def test_imaginary_range_guard(pot_zero):
    with pytest.raises(RangeOverflowError):
        monodromy_grid(pot_zero, np.array([1000.0j]))


# ----------------------------------------------------------------------------
# chunk/block evaluation: bits depend on lam only
# ----------------------------------------------------------------------------

M512 = Potential.from_fourier({1: (0.25, 0.1), -1: (0.0, 0.2)}, resolution=512)
# weak enough that the series points near lam = 0 have a small spread: a row
# block of them alone would cut the series much earlier than its chunk does
DYADIC_STEP = Potential.from_piecewise(
    [0.0, 0.25, 0.5, 0.75, 1.0], [(0.2, 0.1j), (0.05, -0.15), (-0.3, 0.03), (0.0, 0.08)]
)
# three runs of three widths, which stay distinct when the runs are split
UNEQUAL_STEP = Potential.from_piecewise(
    [0.0, 0.3, 0.55, 1.0], [(1.2, 0.1j), (0.0, -0.7), (-0.3, 0.0)]
)


SEED_BITS = 4711
GRID_KEYS = ("psi", "trace", "trace_conj")
# a real point and its twin with a negative-zero imaginary part
TWINS = (2.5 + 0.0j, complex(2.5, -0.0))


def _repeats():
    # contour-like: a ring around pi, its every fourth point again (as when a
    # winding count doubles its samples), shared end points, off-axis points
    # that the engine also propagates at the conjugate, and the zero-sign twins
    ring = np.pi + 0.9 * np.exp(2j * np.pi * np.arange(192) / 192)
    far = ring[:16].real + 6.5j
    return np.concatenate([ring, ring[::4], far, TWINS, ring[:3], far, TWINS[:1]])


def _bit_batches():
    rng = np.random.default_rng(SEED_BITS)
    m64 = Potential.from_fourier({0: (0.3, 0.1j), 2: (0.5, -0.2), -3: (0.2, 0.4)}, 64)
    n_split = 600
    n_long = 5000
    return {
        "repeats": (M512, _repeats()),
        # one run, and step matrices with exact zeros, whose signs the
        # kernel's arithmetic must keep as well
        "zero-potential": (Potential.zero(64), np.linspace(-20.0, 20.0, 1 << 16)),
        "real-grid-M512": (M512, np.linspace(-10.0, 10.0, 2001)),
        "split-runs": (
            m64,
            rng.uniform(-20, 20, n_split) + 1j * rng.uniform(-60, 60, n_split),
        ),
        "dyadic-step": (DYADIC_STEP, np.linspace(-80.0, 80.0, 16001) + 0.25j),
        "longer-than-a-chunk": (
            m64,
            rng.uniform(-15, 15, n_long) + 1j * rng.uniform(-3, 3, n_long),
        ),
        "unequal-widths": (
            UNEQUAL_STEP,
            np.concatenate(
                [
                    rng.uniform(-80, 80, 2000) + 1j * rng.uniform(-30, 30, 2000),
                    # one split count per width throughout |Im lam| in
                    # [29, 29.4]: a group big enough for the pool
                    rng.uniform(-80, 80, 1200)
                    + 1j * rng.choice([-1.0, 1.0], 1200) * rng.uniform(29.0, 29.4, 1200),
                ]
            ),
        ),
    }


def _bits(a) -> np.ndarray:
    """The bit patterns of a complex array, as int64 (real, imag) pairs."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.int64).reshape(-1, 2)


def _bit_keys(a) -> list:
    """One hashable bit pattern per complex entry of ``a``."""
    return [tuple(row) for row in _bits(a).tolist()]


def _same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


def _layout(c) -> np.ndarray:
    """Complex (..., 3, 3) matrices in the engine's (imag, real) layout (..., 3, 6)."""
    return np.stack([c.imag, c.real], axis=-1).reshape(c.shape[:-1] + (6,))


def _complex(f) -> np.ndarray:
    """The complex (..., 3, 3) matrices of the (imag, real) layout (..., 3, 6)."""
    c = np.empty(f.shape[:-1] + (3,), dtype=np.complex128)
    c.imag, c.real = f[..., 0::2], f[..., 1::2]
    return c


def _chunk_terms(lam, avsq, widths):
    """``monodromy._chunk_terms`` on all of ``lam`` at once: om, ser and nterms."""
    om = np.empty((len(lam), len(widths)), dtype=np.complex128)
    return (om, *monodromy._chunk_terms(lam, avsq, widths, om))


def _grid_with(monkeypatch, p, lam, block_pairs, workers):
    with monkeypatch.context() as m:
        m.setattr(monodromy, "_BLOCK_PAIRS", block_pairs)
        m.setattr(monodromy, "_workers", lambda: workers)
        m.setattr(monodromy, "_POOLS", {})
        return monodromy_grid(p, lam)


def test_bit_batches_exercise_what_they_name():
    batches = _bit_batches()
    p, lam = batches["split-runs"]
    runs = monodromy._runs_of(p)
    split = monodromy._split_runs(*runs, np.abs(lam.imag).max())
    assert len(split[1]) > len(runs[1])
    p, lam = batches["dyadic-step"]
    vals, widths = monodromy._runs_of(p)[:2]
    _, ser, _ = _chunk_terms(lam.astype(complex), np.abs(vals) ** 2, widths)
    assert ser.any() and not ser.all()
    for name in ("real-grid-M512", "longer-than-a-chunk"):
        p, lam = batches[name]
        assert len(lam) * len(monodromy._runs_of(p)[1]) > monodromy._CHUNK_TARGET
    p, lam = batches["unequal-widths"]
    runs = monodromy._runs_of(p)
    vals, widths, tw, _ = monodromy._split_runs(*runs, np.abs(lam.imag).max())
    assert len(runs[2]) == 3 and len(tw) == 3 and len(widths) > 3
    _, ser, _ = _chunk_terms(lam, np.abs(vals) ** 2, widths)
    assert ser.any() and not ser.all()
    # points with the same split runs are evaluated together: one such group
    # must have more than _BLOCK_PAIRS pairs to go to the pool
    groups = collections.Counter(len(monodromy._split_runs(*runs, abs(x.imag))[1]) for x in lam)
    assert max(r * n for r, n in groups.items() if r > len(runs[1])) > monodromy._BLOCK_PAIRS
    p, lam = batches["repeats"]
    keys = _bit_keys(lam)
    assert len(set(keys)) < len(keys)
    assert len(set(_bit_keys(TWINS))) == 2 and set(_bit_keys(TWINS)) <= set(keys)
    big = np.abs(lam.imag) > monodromy._ADJ_IM_LIMIT
    assert big.any()  # propagated at the conjugate too, and still one chunk
    assert (len(lam) + big.sum()) * len(monodromy._runs_of(p)[1]) <= monodromy._CHUNK_TARGET


@pytest.mark.parametrize("name", sorted(_bit_batches()))
def test_blocks_and_workers_leave_bits_alone(monkeypatch, name):
    # one block per chunk, run inline, against row blocks on a thread pool:
    # every entry of every output must be bit for bit the same, and every
    # point with series pairs must be summed to its own series length, the
    # scalar loop's on its own largest criterion, in every layout (a cutoff
    # taken over a batch drops or adds only terms below 1e-18, which seldom
    # shows in the bits)
    p, lam = _bit_batches()[name]
    steps = monodromy._steps_spectral
    threads, cutoffs, rows = set(), [], []

    def recording(lam_rows, vals, avsq, tw, inv, om, ser, nterms):
        threads.add(threading.current_thread().name)
        has_series = ser.any(axis=1)
        cutoffs.extend(
            (x.real, x.imag, int(n))
            for x, n, s in zip(lam_rows, nterms, has_series)
            if s
        )
        rows.append((lam_rows, om, -tw.imag[inv]))
        return steps(lam_rows, vals, avsq, tw, inv, om, ser, nterms)

    monkeypatch.setattr(monodromy, "_steps_spectral", recording)
    whole = _grid_with(monkeypatch, p, lam, monodromy._CHUNK_TARGET << 10, 1)
    whole_cutoffs = sorted(cutoffs)
    own = [
        (x.real, x.imag, n)
        for lam_rows, om, widths in rows
        for x, n in zip(lam_rows, point_series_lengths(lam_rows, om, widths))
        if n is not None
    ]
    assert whole_cutoffs == sorted(own)
    for block_pairs in (monodromy._BLOCK_PAIRS, 16 * len(monodromy._runs_of(p)[1])):
        threads.clear()
        cutoffs.clear()
        pooled = _grid_with(monkeypatch, p, lam, block_pairs, 3)
        assert any(t.startswith("monodromy") for t in threads)
        assert sorted(cutoffs) == whole_cutoffs
        for key in GRID_KEYS:
            assert np.array_equal(pooled[key], whole[key]), key


@pytest.fixture(scope="module")
def pools():
    """Thread pools of 2 and 3 workers, shared by a property's examples."""
    from concurrent.futures import ThreadPoolExecutor

    made = {w: ThreadPoolExecutor(w, thread_name_prefix="monodromy") for w in (2, 3)}
    yield {1: None, **made}
    for pool in made.values():
        pool.shutdown()


PART_AMPLITUDE = st.floats(-1.5, 1.5)
COMPONENT = st.builds(complex, PART_AMPLITUDE, PART_AMPLITUDE)
VALUE = st.tuples(COMPONENT, COMPONENT)


@st.composite
def _drawn_potentials(draw):
    """A dyadic or non-dyadic step, a few Fourier modes, or a near-rank-one constant."""
    kind = draw(st.sampled_from(["dyadic", "non-dyadic", "fourier", "near-rank-one"]))
    if kind == "fourier":
        modes = draw(st.dictionaries(st.integers(-3, 3), VALUE, min_size=1, max_size=3))
        return Potential.from_fourier(modes, resolution=64)
    if kind == "near-rank-one":
        # a constant, moved off its direction on half the period by 1e-14 to 1e-3
        (a, b), eps = draw(VALUE), draw(st.floats(1e-14, 1e-3))
        return Potential.from_piecewise([0.0, 0.5, 1.0], [(a, b), (a, b + eps)], resolution=64)
    if kind == "dyadic":
        cuts = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3, unique=True))
        inner = [c / 16 for c in sorted(cuts)]
    else:
        inner = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True)))
    values = draw(st.lists(VALUE, min_size=len(inner) + 1, max_size=len(inner) + 1))
    return Potential.from_piecewise([0.0, *inner, 1.0], values, resolution=64)


def _off_axis(lo, hi):
    """lam with a real part in [-30, 30] and lo < |Im lam| <= hi."""
    return st.builds(
        lambda x, y, s: complex(x, s * y),
        st.floats(-30.0, 30.0),
        st.floats(lo, hi, exclude_min=True),
        st.sampled_from([-1.0, 1.0]),
    )


# real points, the adjugate's 0 < |Im lam| <= 6, the conjugate propagation's
# |Im lam| > 6, and |Im lam| > 32, which splits even the runs of width 1/64
DRAWN_LAM = st.lists(
    st.one_of(
        st.floats(-30.0, 30.0).map(complex),
        _off_axis(0.0, 6.0),
        _off_axis(6.0, 32.0),
        _off_axis(32.0, 90.0),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(_drawn_potentials(), DRAWN_LAM, st.integers(1, 1024))
def test_grid_bits_do_not_depend_on_blocks_or_workers(pools, p, lam, block_pairs):
    # one inline block per chunk against row blocks of at most block_pairs
    # pairs, inline or on a pool of 2 or 3 workers: psi, trace and trace_conj
    # keep every bit
    def grid(block_pairs, workers):
        pool = {os.getpid(): pools[workers]}
        with mock.patch.multiple(
            monodromy, _BLOCK_PAIRS=block_pairs, _workers=lambda: workers, _POOLS=pool
        ):
            return monodromy_grid(p, lam)

    whole = grid(monodromy._CHUNK_TARGET << 10, 1)
    for workers in (1, 2, 3):
        got = grid(block_pairs, workers)
        for key in GRID_KEYS:
            assert _same_bits(got[key], whole[key]), (key, workers)


def test_each_repeat_gets_the_rows_of_its_point():
    # every repeat of a point, zero-sign twins apart, gets the rows that the
    # batch of distinct points gives it
    p, lam = _bit_batches()["repeats"]
    keys = _bit_keys(lam)
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    distinct = lam[list(first.values())]
    row = {key: j for j, key in enumerate(first)}
    back = [row[key] for key in keys]
    got = monodromy_grid(p, lam)
    want = monodromy_grid(p, distinct)
    for key in GRID_KEYS:
        assert _same_bits(got[key], want[key][back]), key


# one run of width 1: any point with |Im lam| > _IM_WIDTH_CAP splits it
ONE_RUN = Potential.from_constant((0.7, 0.2j), resolution=64)
REAL_REPEATS = np.array([0.5, 2.5, 4.0, *TWINS, 0.5, 4.0])


def _mixed_batches():
    """Real, unsplit complex and split complex points, with repeats, per potential."""
    rng = np.random.default_rng(SEED_BITS)
    # ONE_RUN's run stays whole at |Im lam| = 0.4 and 0.45; 1.2 cuts it in 3,
    # 2.6, 2.9 and 3.0 in 6, and 6.5, propagated at its conjugate too, in 13
    one_run = [0.7 + 0.4j, 1.5 - 1.2j, 1.0 + 3.0j, 2.0 - 2.6j, 3.0 - 2.9j, 0.2 - 0.45j, 1.0 + 6.5j]
    # the widest run of UNEQUAL_STEP is 0.45: |Im lam| <= 1.11 splits nothing
    unsplit = rng.uniform(-9, 9, 6) + 1j * rng.uniform(-1.1, 1.1, 6)
    split = rng.uniform(-9, 9, 16) + 1j * rng.uniform(-30, 30, 16)
    return {
        "one-run": (ONE_RUN, np.concatenate([REAL_REPEATS, one_run, one_run[:2], REAL_REPEATS[:2]])),
        "unequal-widths": (
            UNEQUAL_STEP,
            np.concatenate([REAL_REPEATS, unsplit, split, split[:3], unsplit[:2], REAL_REPEATS[:3]]),
        ),
    }


def _evaluations(monkeypatch):
    """Patch _eval_chunk to record the bits of each lam it evaluates."""
    evaluated = []
    eval_chunk = monodromy._eval_chunk

    def recording(lam, runs, psis):
        evaluated.extend(_bit_keys(lam))
        return eval_chunk(lam, runs, psis)

    monkeypatch.setattr(monodromy, "_eval_chunk", recording)
    return evaluated


@pytest.mark.parametrize("name", sorted(_mixed_batches()))
def test_point_bits_depend_on_lam_alone(monkeypatch, name):
    # every point of a batch that mixes real, unsplit and split points gets
    # the bits it gets alone, in either order; each call propagates each
    # requested point, and the conjugate of each far one, exactly once, and
    # another potential's call gets its own bits
    p, lam = _mixed_batches()[name]
    runs = monodromy._runs_of(p)
    parts = [len(monodromy._split_runs(*runs, abs(x.imag))[1]) for x in lam]
    assert min(parts) == len(runs[1]) < max(parts)
    assert any(x.imag != 0.0 and n == len(runs[1]) for x, n in zip(lam, parts))
    alone = [monodromy_grid(p, [x]) for x in lam]
    want = {key: np.concatenate([g[key] for g in alone]) for key in GRID_KEYS}
    other = Potential.from_constant((0.3, 0.0), resolution=64)
    want_other = monodromy_grid(other, lam)
    big = np.abs(lam.imag) > monodromy._ADJ_IM_LIMIT
    assert big.any() and len(set(_bit_keys(lam))) < len(lam)
    propagated = collections.Counter(_bit_keys(np.concatenate([lam, np.conj(lam[big])])))
    evaluated = _evaluations(monkeypatch)
    for back in (slice(None), slice(None, None, -1)):
        for q, want_q in ((p, want), (other, want_other)):
            evaluated.clear()
            got = monodromy_grid(q, lam[back])
            for key in GRID_KEYS:
                assert _same_bits(got[key], want_q[key][back]), key
            assert collections.Counter(evaluated) == propagated


def _kernel_blocks(name):
    """Per row block of a bit batch, as the engine cuts it: its run widths and kernel arguments."""
    p, lam = _bit_batches()[name]
    lam = lam.astype(np.complex128)
    runs = monodromy._runs_of(p)
    chunk = max(1, monodromy._CHUNK_TARGET // len(runs[1]))
    for lo in range(0, len(lam), chunk):
        lam_c = lam[lo : lo + chunk]
        vals, widths, tw, inv = monodromy._split_runs(*runs, np.abs(lam_c.imag).max())
        avsq = np.abs(vals) ** 2
        rows = max(1, monodromy._BLOCK_PAIRS // len(widths))
        for b in range(0, len(lam_c), rows):
            lam_b = lam_c[b : b + rows]
            om, ser, nterms = _chunk_terms(lam_b, avsq, widths)
            yield widths, (lam_b, vals, avsq, tw, inv, om, ser, nterms)


@pytest.mark.parametrize("name", sorted(_bit_batches()))
def test_step_kernel_matches_its_bit_oracle(name):
    # the width-only exponentials and the reciprocal factors leave every bit
    # of every step matrix as the plain kernel has them, in the (imag, real)
    # layout
    for widths, args in _kernel_blocks(name):
        lam_rows, vals, avsq, _, _, om, ser, nterms = args
        got = monodromy._steps_spectral(*args)
        want = _layout(reference_steps(lam_rows, vals, widths, avsq, om, ser, nterms))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _random_stack(runs: int) -> np.ndarray:
    """40 rows of random complex 3x3 steps ``D Q D^-1``, with Q unitary.

    Each row has its own diagonal D, with entries from 1e-2 to 1e2, so the
    step entries are graded by up to 1e4 either way, while every product
    stays a similarity of a unitary one and never overflows.
    """
    rng = np.random.default_rng(SEED_BITS + runs)
    shape = (40, runs, 3, 3)
    q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    d = 10.0 ** rng.uniform(-2.0, 2.0, (40, 1, 3))
    return d[..., :, None] * q / d[..., None, :]


@pytest.mark.parametrize(
    "name", [f"random-{r}" for r in (1, 2, 3, 7, 512)] + sorted(_bit_batches())
)
def test_tree_product_matches_its_bit_oracle(name):
    """The real-layout tree product equals the complex ``matmul`` one as floats.

    This holds the BLAS kernels to a per-machine premise, as the reciprocal
    factor's test holds numpy: ``dgemm`` and ``zgemm`` form each entry of a
    product by the same fused multiply-adds in the same order (see
    ``monodromy._tree_product``).  Should a BLAS build order them otherwise,
    this fails before any output moves.  ``np.array_equal`` treats -0 and +0
    alike: multiplying by -1 in the real form may flip the sign of an exact
    zero.
    """
    if name.startswith("random-"):
        stacks = [_random_stack(int(name.split("-")[1]))]
    else:
        stacks = (_complex(monodromy._steps_spectral(*args)) for _, args in _kernel_blocks(name))
    for steps in stacks:
        assert np.array_equal(monodromy._tree_product(_layout(steps)), tree_product(steps))


def test_series_cutoff_belongs_to_the_point():
    # a point near lam = 0 has a short series; batched with a point whose
    # series needs 20 terms, a cutoff taken over the batch used to sum it to
    # 20 terms as well, which moved the last bit of its imaginary part
    lam0 = complex(6.99173720335054e-05, 0.01378522522039639)
    w = 0.01220874133962052
    avsq = np.array([[0.0024244303085281145, 0.0]])
    widths = np.array([w])

    def dd(lam):
        lam = np.asarray(lam, dtype=np.complex128)
        om, ser, nterms = _chunk_terms(lam, avsq, widths)
        t = np.full(om.shape, -1j * w)
        mu1 = np.broadcast_to(-lam[:, None], om.shape)
        etm = np.exp(t * (mu1 * monodromy._THIRD))
        d12 = monodromy._pair_dd(t, mu1, om)
        assert ser.all()
        return monodromy._triple_dd(t, mu1, om, ser, nterms, etm, d12)[0], nterms

    alone, n_alone = dd([lam0])
    batched, n_batched = dd([lam0, 0.9 / (w * 4.0 / 3.0)])
    assert _same_bits(alone, batched)
    assert n_alone.tolist() == [6] and n_batched.tolist() == [6, 20]


def test_block_terms_are_the_chunks_rows():
    # each row block computes its own generator roots, series mask and series
    # lengths into its rows of the chunk's om: for any cut of a chunk into
    # blocks, they are the rows that the whole chunk gives, bit for bit, on
    # real and complex points, split runs, and rows of series pairs, of
    # direct pairs and of both
    rng = np.random.default_rng(SEED_BITS)
    lam = np.concatenate(
        [
            np.linspace(-80.0, 80.0, 801),
            rng.uniform(-80, 80, 60) + 1j * rng.uniform(-6, 6, 60),
            rng.uniform(-80, 80, 40) + 1j * rng.choice([-1.0, 1.0], 40) * rng.uniform(6, 24, 40),
        ]
    )
    rng.shuffle(lam)
    runs = monodromy._runs_of(UNEQUAL_STEP)
    vals, widths = monodromy._split_runs(*runs, np.abs(lam.imag).max())[:2]
    assert len(widths) > len(runs[1])
    avsq = np.abs(vals) ** 2
    om, ser, nterms = _chunk_terms(lam, avsq, widths)
    mixed = ser.any(axis=1) & ~ser.all(axis=1)
    assert mixed.any() and ser.all(axis=1).any() and (~ser).all(axis=1).any()
    for count in (1, 2, 3, 7, len(lam)):
        got = np.empty_like(om)
        cuts = [len(lam) * k // count for k in range(count + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            ser_b, nterms_b = monodromy._chunk_terms(lam[lo:hi], avsq, widths, got[lo:hi])
            assert np.array_equal(ser_b, ser[lo:hi])
            assert np.array_equal(nterms_b, nterms[lo:hi])
        assert _same_bits(got, om)


def _threshold_edges():
    """Every criterion in [0, 1] where the series length steps, and its neighbours."""
    edges = set()
    for t in monodromy._series_thresholds():
        edges.update(float(x) for x in (np.nextafter(t, 0.0), t, np.nextafter(t, 2.0)))
    return sorted(x for x in edges if x <= 1.0)


CRITERIA = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.sampled_from(_threshold_edges())
)


@settings(max_examples=200, deadline=None)
@given(st.lists(CRITERIA, min_size=1, max_size=50))
def test_vectorised_series_length_is_the_scalar_loop(crits):
    got = monodromy._series_terms(np.array(crits))
    assert got.tolist() == [series_length(c) for c in crits]


# the kernel's real divisors: 3 and the series factorials 2!..23!, as the
# kernel multiplies them up (2, 6 and 120 are among them)
KERNEL_DIVISORS = (3.0, *itertools.accumulate(range(3, 24), operator.mul, initial=2.0))
NORMAL = st.floats(min_value=1e-250, max_value=1e250)
PART = st.one_of(NORMAL, NORMAL.map(operator.neg), st.sampled_from([0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.builds(complex, PART, PART), min_size=1, max_size=40),
    st.sampled_from(KERNEL_DIVISORS),
)
def test_reciprocal_factor_divides_bit_for_bit(values, d):
    # the premise of the kernel's reciprocal factors: should numpy change how
    # it divides a complex array by a real, this fails before any output moves
    x = np.array(values, dtype=np.complex128)
    assert _same_bits(x * monodromy._recip(d), x / d)


def test_worker_error_reaches_the_caller(monkeypatch):
    p, lam = M512, np.linspace(-3.0, 3.0, 200)
    want = _grid_with(monkeypatch, p, lam, 1 << 12, 2)
    boom = ArithmeticError("block failure")
    steps = monodromy._steps_spectral
    calls = []

    def failing(lam_rows, *args):
        calls.append(len(lam_rows))
        if len(calls) == 3:
            raise boom
        return steps(lam_rows, *args)

    monkeypatch.setattr(monodromy, "_steps_spectral", failing)
    with pytest.raises(ArithmeticError) as info:
        _grid_with(monkeypatch, p, lam, 1 << 12, 2)
    assert info.value is boom
    # every block ran before the error reached the caller: 25 blocks' worth
    # of pairs, cut into a multiple of the two workers
    assert len(calls) == 26
    monkeypatch.setattr(monodromy, "_steps_spectral", steps)
    again = _grid_with(monkeypatch, p, lam, 1 << 12, 2)
    for key in GRID_KEYS:
        assert np.array_equal(again[key], want[key]), key


def test_workers_keep_the_callers_errstate(monkeypatch):
    steps = monodromy._steps_spectral

    def overflowing(*args):
        np.float64(1e308) * 10.0
        return steps(*args)

    monkeypatch.setattr(monodromy, "_steps_spectral", overflowing)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _grid_with(monkeypatch, M512, np.linspace(-3.0, 3.0, 64), 1 << 12, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool(monkeypatch):
    # a child forked after the parent used the pool inherits the pool object
    # but none of its threads; it must build its own instead of waiting forever
    monkeypatch.setattr(monodromy, "_BLOCK_PAIRS", 1 << 12)
    monkeypatch.setattr(monodromy, "_workers", lambda: 2)
    monkeypatch.setattr(monodromy, "_POOLS", {})
    lam = np.linspace(-4.0, 4.0, 64)
    want = monodromy_grid(M512, lam)
    assert os.getpid() in monodromy._POOLS
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        code = 1
        try:
            signal.alarm(20)
            got = monodromy_grid(M512, lam)
            code = 0 if all(np.array_equal(got[k], want[k]) for k in GRID_KEYS) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish")
        time.sleep(0.05)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


def test_pooled_call_is_cut_into_equal_blocks(monkeypatch):
    # one and a half blocks' worth of points at 512 runs make more than one
    # block's worth of pairs but under two: two blocks at one worker, and one
    # block a worker from two workers up, on the pool
    steps = monodromy._steps_spectral
    rows, threads = [], set()

    def recording(lam_rows, *args):
        rows.append(len(lam_rows))
        threads.add(threading.current_thread().name)
        return steps(lam_rows, *args)

    monkeypatch.setattr(monodromy, "_steps_spectral", recording)
    lam = np.linspace(-3.0, 3.0, 3 * monodromy._BLOCK_PAIRS // (2 * 512))
    assert len(monodromy._runs_of(M512)[1]) == 512
    for workers in (1, 2, 3):
        rows.clear()
        threads.clear()
        _grid_with(monkeypatch, M512, lam, monodromy._BLOCK_PAIRS, workers)
        assert len(rows) == {1: 2, 2: 2, 3: 3}[workers] and sum(rows) == len(lam)
        assert max(rows) - min(rows) <= 1
        assert any(t.startswith("monodromy") for t in threads) == (workers > 1)


def test_import_starts_no_thread():
    # import time is part of every CLI call: the pool, and concurrent.futures
    # with it, only come in with the first chunk of more than _BLOCK_PAIRS
    # pairs; _BLOCK_PAIRS // 64 points at 64 runs make exactly _BLOCK_PAIRS
    points = monodromy._BLOCK_PAIRS // 64
    script = (
        "import sys, threading\n"
        "import numpy as np\n"
        "import manakov_spectra\n"
        "def check():\n"
        "    assert 'concurrent.futures' not in sys.modules\n"
        "    assert threading.active_count() == 1, threading.enumerate()\n"
        "check()\n"
        "p = manakov_spectra.Potential.from_fourier({1: (0.25, 0.1)}, 64)\n"
        f"manakov_spectra.monodromy_grid(p, np.linspace(-3.0, 3.0, {points // 2}))\n"
        "check()\n"
        "assert len(manakov_spectra.monodromy._runs_of(p)[1]) == 64\n"
        f"manakov_spectra.monodromy_grid(p, np.linspace(-3.0, 3.0, {points}))\n"
        "check()\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
