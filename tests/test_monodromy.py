"""Propagator checks: closed forms, exact identities, expansion terms.

The rank-one constant case has a fully explicit propagator (2x2 block plus a
plane-wave factor), which pins the trace to machine precision; everything
else is cross-checked between independent code paths (the Pade step
oracle, the series expansion, the conjugate-parameter route).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from manakov_spectra import (
    Potential,
    RangeOverflowError,
    monodromy_grid,
    trace_t2,
)
from manakov_spectra import monodromy
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
        a = monodromy_grid(p, [lam], want_psi=True)["psi"][0]
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
    full = monodromy_grid(p, [1.7], want_psi=True)["psi"][0]
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


# ----------------------------------------------------------------------------
# chunk/block evaluation: bits depend on the chunk only
# ----------------------------------------------------------------------------

M512 = Potential.from_fourier({1: (0.25, 0.1), -1: (0.0, 0.2)}, resolution=512)
# weak enough that the series points near lam = 0 have a small spread: a row
# block of them alone would cut the series much earlier than its chunk does
DYADIC_STEP = Potential.from_piecewise(
    [0.0, 0.25, 0.5, 0.75, 1.0], [(0.2, 0.1j), (0.05, -0.15), (-0.3, 0.03), (0.0, 0.08)]
)


SEED_BITS = 4711
GRID_KEYS = ("psi", "trace", "trace_conj", "det")


def _bit_batches():
    rng = np.random.default_rng(SEED_BITS)
    m64 = Potential.from_fourier({0: (0.3, 0.1j), 2: (0.5, -0.2), -3: (0.2, 0.4)}, 64)
    n_split = 600
    n_long = 5000
    return {
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
    }


def _grid_with(monkeypatch, p, lam, block_pairs, workers):
    with monkeypatch.context() as m:
        m.setattr(monodromy, "_BLOCK_PAIRS", block_pairs)
        m.setattr(monodromy, "_workers", lambda: workers)
        m.setattr(monodromy, "_POOLS", {})
        return monodromy_grid(p, lam, want_psi=True)


def test_bit_batches_exercise_what_they_name():
    batches = _bit_batches()
    p, lam = batches["split-runs"]
    vals, widths = monodromy._runs_of(p)
    split = monodromy._split_runs(vals, widths, np.abs(lam.imag).max())
    assert len(split[1]) > len(widths)
    p, lam = batches["dyadic-step"]
    vals, widths = monodromy._runs_of(p)
    _, ser, _ = monodromy._chunk_terms(lam.astype(complex), np.abs(vals) ** 2, widths)
    assert ser.any() and not ser.all()
    for name in ("real-grid-M512", "longer-than-a-chunk"):
        p, lam = batches[name]
        assert len(lam) * len(monodromy._runs_of(p)[1]) > monodromy._CHUNK_TARGET


@pytest.mark.parametrize("name", sorted(_bit_batches()))
def test_blocks_and_workers_leave_bits_alone(monkeypatch, name):
    # one block per chunk, run inline, against row blocks on a thread pool:
    # every entry of every output must be bit for bit the same, and every
    # point must be summed with its chunk's series length (a shorter, per-block
    # cutoff drops only terms below 1e-18, which seldom shows in the bits)
    p, lam = _bit_batches()[name]
    steps = monodromy._steps_spectral
    threads, cutoffs = set(), []

    def recording(lam_rows, *args):
        threads.add(threading.current_thread().name)
        cutoffs.extend((x.real, x.imag, args[-1]) for x in lam_rows)
        return steps(lam_rows, *args)

    monkeypatch.setattr(monodromy, "_steps_spectral", recording)
    whole = _grid_with(monkeypatch, p, lam, monodromy._CHUNK_TARGET << 10, 1)
    whole_cutoffs = sorted(cutoffs)
    for block_pairs in (monodromy._BLOCK_PAIRS, 16 * len(monodromy._runs_of(p)[1])):
        threads.clear()
        cutoffs.clear()
        pooled = _grid_with(monkeypatch, p, lam, block_pairs, 3)
        assert any(t.startswith("monodromy") for t in threads)
        assert sorted(cutoffs) == whole_cutoffs
        for key in GRID_KEYS:
            assert np.array_equal(pooled[key], whole[key]), key


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
    # every block ran before the error reached the caller
    assert len(calls) == len(range(0, len(lam), (1 << 12) // 512))
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
    want = monodromy_grid(M512, lam, want_psi=True)
    assert os.getpid() in monodromy._POOLS
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        code = 1
        try:
            signal.alarm(20)
            got = monodromy_grid(M512, lam, want_psi=True)
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


def test_import_starts_no_thread():
    # import time is part of every CLI call: the pool, and concurrent.futures
    # with it, only come in with the first chunk of _POOL_MIN_BLOCKS blocks
    script = (
        "import sys, threading\n"
        "import numpy as np\n"
        "import manakov_spectra\n"
        "def check():\n"
        "    assert 'concurrent.futures' not in sys.modules\n"
        "    assert threading.active_count() == 1, threading.enumerate()\n"
        "check()\n"
        "p = manakov_spectra.Potential.from_fourier({1: (0.25, 0.1)}, 64)\n"
        "manakov_spectra.monodromy_grid(p, np.linspace(-3.0, 3.0, 100))\n"
        "check()\n"
        "manakov_spectra.monodromy_grid(p, np.linspace(-3.0, 3.0, 768))\n"
        "check()\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
