"""Transfer (monodromy) matrices over one period.

The first-order system is ``i J y' + V y = lam y`` with
``J = diag(1, -1, -1)`` and the off-diagonal potential matrix built from the
two components of ``v``; equivalently ``y' = A(x) y`` with
``A = -i J (lam - V)``.  On the canonical step grid the propagator over one
period is an ordered product of matrix exponentials, one per constant run.

Each step exponential is evaluated as the quadratic interpolation polynomial
of exp on the generator's characteristic roots ``{-lam, +w, -w}`` with
``w^2 = lam^2 - |v|^2``, using series-stabilized divided differences.  No
eigenvectors are involved, so conditioning does not degrade for non-normal
generators or coalescing roots.  The test suite cross-validates this kernel
against a Pade-13 scaling-and-squaring oracle and checks the second-order
trace term against the iterated-integral (Picard) expansion; both oracles
live with the tests, not in the package.

The conjugate trace (trace of the inverse propagator) is computed from a
propagation at the conjugated spectral parameter rather than from adjugate
minors: the minors cancel catastrophically once ``|Im lam|`` exceeds ~20,
while the conjugated propagation stays accurate at full scale.

Evaluation is split in two levels.  A *chunk* of about ``_CHUNK_TARGET``
(lam, run) pairs is the numerical batch: it decides the two things that
depend on more than one point, the run refinement by its largest
``|Im lam|`` (``_split_runs``) and the series length of ``_triple_dd``.
Each chunk is evaluated in *row blocks* of about ``_BLOCK_PAIRS`` pairs,
small enough for the step arrays to stay in cache.  A chunk of fewer than
``_POOL_MIN_BLOCKS`` blocks runs inline on the caller's thread.  The blocks
of a larger chunk run on a thread pool, created on first use in each
process, with one worker per usable core and at most
``_CHUNK_TARGET // _BLOCK_PAIRS`` workers, so no more than one chunk's worth
of pairs is in flight.  A point's bits depend on its chunk and never on its
block or on the worker count.  They may differ between machines, since
numpy and BLAS pick their kernels by CPU.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading

import numpy as np

from .algebra import adj3, det3
from .errors import RangeOverflowError
from .potential import Potential, _e1

__all__ = [
    "IM_LIMIT",
    "J3",
    "monodromy_grid",
    "trace_t2",
]

J3 = np.diag([1.0, -1.0, -1.0]).astype(np.complex128)

#: largest tolerated |Im lam|; beyond this the period propagator overflows doubles.
IM_LIMIT = 700.0
_ADJ_IM_LIMIT = 6.0

_CHUNK_TARGET = 1 << 18  # lam-chunk size is chosen so lam*steps ~ this many matrices
_BLOCK_PAIRS = 1 << 14  # (lam, run) pairs per row block: a chunk's arrays fit in cache
# Fewer blocks than this run inline: on two cores a pool gained nothing below
# four blocks, and a process that has once started a thread ran the engine a
# few percent slower from then on.
_POOL_MIN_BLOCKS = 4


# ----------------------------------------------------------------------------
# step kernels
# ----------------------------------------------------------------------------


def _sinch(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z, series-protected near zero."""
    small = np.abs(z) < 1e-4
    if not small.any():
        with np.errstate(invalid="ignore", over="ignore"):
            return np.sinh(z) / z
    zs = np.where(small, 1.0, z)
    with np.errstate(invalid="ignore", over="ignore"):
        direct = np.sinh(zs) / zs
    z2 = z * z
    series = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return np.where(small, series, direct)


def _pair_dd(t, a, b):
    """First divided difference of exp(t x) over nodes (a, b); confluence-safe."""
    # t = -i w has a zero real part, so both operand orders of ``t * (a + b)``
    # round alike (see _steps_spectral) and the sum needs no name
    return np.exp(t * (a + b) / 2.0) * t * _sinch(t * (a - b) / 2.0)


def _chunk_terms(lam: np.ndarray, avsq: np.ndarray, widths: np.ndarray):
    """The batch-wide part of the step kernel for one chunk of parameters.

    ``avsq`` holds ``|v1|^2, |v2|^2`` per run, shape (R, 2).  Returns the
    generator roots ``om = sqrt(lam^2 - |v|^2)`` and the mask ``ser`` of the
    points that ``_triple_dd`` sums as a series (both (L, R)), and the series
    length ``nterms``.  The series terms are bounded by ``cmax^k / (2 k!)``
    with ``cmax`` the largest series criterion of the chunk, so the cutoff is
    a property of the chunk.
    """
    lam2 = lam[:, None]
    r2 = avsq[:, 0] + avsq[:, 1]
    om = np.sqrt(lam2 * lam2 - r2 + 0j)
    # node spread of _triple_dd around the node mean m = mu1 / 3, mu1 = -lam
    mu1 = -lam2
    m = mu1 / 3.0
    spread = np.maximum(np.abs(mu1 - m), np.maximum(np.abs(om - m), np.abs(-om - m)))
    crit = widths * spread  # |t| = |-i w| = w exactly
    ser = crit <= 1.0
    nterms = 1
    if ser.any():
        cmax, bound = float(crit[ser].max()), 0.5
        while bound > 1e-18 and nterms < 22:
            bound *= cmax / nterms
            nterms += 1
    return om, ser, nterms


def _triple_dd(t, mu1, om, ser, nterms):
    """Second divided difference of exp(t x) over nodes (mu1, om, -om).

    Hybrid evaluation: where ``ser`` holds (``|t| * spread <= 1``), a
    complete-homogeneous series around the node mean, summed to ``nterms``
    terms (uniformly accurate through confluences); elsewhere the two-term
    recursive formula with the best-conditioned pairing (largest outer gap).
    """
    t, mu1, om = np.broadcast_arrays(t, mu1, om)
    out = np.empty(om.shape, dtype=np.complex128)

    if np.any(ser):
        ts, mus, oms = t[ser], mu1[ser], om[ser]
        ms = mus / 3.0
        a1s = mus - ms
        a2s = oms - ms
        a3s = -oms - ms
        # S = sum_k t^k h_k(a1, a2, a3) / (k + 2)!  via the recurrences
        # g_k = a2 g_{k-1} + a3^k   (h_k of two variables)
        # H_k = a1 H_{k-1} + g_k    (h_k of three variables)
        g = np.ones_like(ts)
        hh = np.ones_like(ts)
        a3pow = np.ones_like(ts)
        tpow = np.ones_like(ts)
        fact = 2.0
        s = hh / fact
        for k in range(1, nterms):
            a3pow = a3pow * a3s
            g = a2s * g + a3pow
            hh = a1s * hh + g
            tpow = tpow * ts
            fact *= k + 2
            s = s + tpow * hh / fact
        out[ser] = np.exp(ts * ms) * ts * ts * s

    direct = ~ser
    if np.any(direct):
        td, m1, omd = t[direct], mu1[direct], om[direct]
        d12 = _pair_dd(td, m1, omd)
        d13 = _pair_dd(td, m1, -omd)
        d23 = _pair_dd(td, omd, -omd)
        g12 = m1 - omd
        g13 = m1 + omd
        g23 = 2.0 * omd
        c12, c13, c23 = np.abs(g12), np.abs(g13), np.abs(g23)
        with np.errstate(invalid="ignore", divide="ignore"):
            v12 = (d13 - d23) / g12
            v13 = (d12 - d23) / g13
            v23 = (d12 - d13) / g23
        best = np.where(
            (c12 >= c13) & (c12 >= c23), v12, np.where(c13 >= c23, v13, v23)
        )
        out[direct] = best
    return out


def _steps_spectral(lam, vals, widths, avsq, om, ser, nterms):
    """Step propagators exp(w * A) for all (lam, run) pairs, plus their dets.

    Shapes: lam (L,), vals and avsq = |vals|^2 (R, 2), widths (R,), and om,
    ser (L, R) and nterms from ``_chunk_terms`` -> E (L, R, 3, 3), det (L, R).

    A product ``x * (y - z)`` is written with the difference named.  Once a
    temporary reaches 256 KiB, numpy's temporary elision evaluates it in
    place as ``(y - z) * x``, and its complex multiply (a fused multiply-add)
    rounds the two operand orders differently; that would make a point's
    bits depend on the size of its row block.
    """
    lam2 = lam[:, None]
    v1 = vals[None, :, 0]
    v2 = vals[None, :, 1]
    w = widths[None, :]
    av1sq = avsq[None, :, 0]
    av2sq = avsq[None, :, 1]
    r2 = av1sq + av2sq
    t = (-1j * w).astype(np.complex128)
    mu1 = np.broadcast_to(-lam2, om.shape)
    tb = np.broadcast_to(t, om.shape)

    f0 = np.exp(tb * mu1)
    d12 = _pair_dd(tb, mu1, om)
    dd = _triple_dd(tb, mu1, om, ser, nterms)

    alpha = f0 - mu1 * d12 + mu1 * om * dd
    beta = d12 - (mu1 + om) * dd
    gamma = dd

    shape = om.shape + (3, 3)
    e = np.empty(shape, dtype=np.complex128)
    lam_b = np.broadcast_to(lam2, om.shape)
    diag_base = alpha - beta * lam_b
    lamsq = lam_b * lam_b
    q0, q1, q2 = lamsq - r2, lamsq - av1sq, lamsq - av2sq
    e[..., 0, 0] = alpha + beta * lam_b + gamma * q0
    e[..., 0, 1] = -beta * np.conj(v1)
    e[..., 0, 2] = -beta * np.conj(v2)
    e[..., 1, 0] = beta * v1
    e[..., 1, 1] = diag_base + gamma * q1
    e[..., 1, 2] = -gamma * v1 * np.conj(v2)
    e[..., 2, 0] = beta * v2
    e[..., 2, 1] = -gamma * v2 * np.conj(v1)
    e[..., 2, 2] = diag_base + gamma * q2
    return e, det3(e)


def _tree_product(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[:, R-1] @ ... @ steps[:, 0] by pairwise reduction."""
    cur = steps
    while cur.shape[1] > 1:
        n = cur.shape[1]
        even = n - (n % 2)
        paired = np.matmul(cur[:, 1:even:2], cur[:, 0:even:2])
        if n % 2:
            paired = np.concatenate([paired, cur[:, -1:]], axis=1)
        cur = paired
    return cur[:, 0]


# ----------------------------------------------------------------------------
# grid engine
# ----------------------------------------------------------------------------


def _runs_of(p: Potential):
    cache = getattr(p, "_runs_cache", None)
    if cache is None:
        cache = p.canonical().runs()
        p._runs_cache = cache
    return cache


def _check_range(lam: np.ndarray):
    if np.any(np.abs(lam.imag) > IM_LIMIT):
        worst = float(np.abs(lam.imag).max())
        raise RangeOverflowError(
            f"range-overflow: |Im lam| = {worst:.1f} exceeds {IM_LIMIT:.0f}"
        )


# Per-step cap on |Im lam| * width.  Wider steps would grade the step matrix
# by more than e^{2*cap} between its large and small entries, and the small
# ones (hence per-step determinants) would drown in round-off.
_IM_WIDTH_CAP = 0.5


def _split_runs(vals, widths, im_max):
    if im_max * widths.max() <= _IM_WIDTH_CAP:
        return vals, widths
    reps = np.maximum(1, np.ceil(widths * im_max / _IM_WIDTH_CAP).astype(np.int64))
    return np.repeat(vals, reps, axis=0), np.repeat(widths / reps, reps)


def _workers() -> int:
    """Block workers: one per usable core, never more than a chunk has blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _CHUNK_TARGET // _BLOCK_PAIRS)


# pid -> (thread pool, BLAS lock), or None where one worker is all there is.
# Keyed by pid: a forked child inherits the parent's pool object but none of
# its threads, and possibly a lock that a parent worker held at the fork.
_POOLS: dict = {}


def _pool():
    """This process's (thread pool, BLAS lock), or None for one worker."""
    pid = os.getpid()
    if pid not in _POOLS:
        pool = None
        workers = _workers()
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(workers, thread_name_prefix="monodromy")
            pool = (executor, threading.Lock())
        _POOLS.setdefault(pid, pool)
    return _POOLS[pid]


def _eval_chunk(lam, vals, widths, psis, dets):
    """Fill psis (L, 3, 3) and dets (L,) for one chunk, block by block.

    With ``_POOL_MIN_BLOCKS`` blocks or more, the blocks run on the pool,
    each in a copy of the caller's context (so ``np.errstate`` applies in the
    workers as it does inline), and every block finishes before the first
    error, in block order, is raised.  The workers take turns at the tree
    product: its 3x3 ``matmul`` calls BLAS once per matrix, and concurrent
    calls contend inside OpenBLAS (two threads ran a stack of 3x3 products at
    half the speed of one), while one worker's product overlaps the others'
    step kernels.
    """
    avsq = np.abs(vals) ** 2
    om, ser, nterms = _chunk_terms(lam, avsq, widths)

    def block(sl, blas=contextlib.nullcontext()):
        e, sd = _steps_spectral(lam[sl], vals, widths, avsq, om[sl], ser[sl], nterms)
        with blas:
            psis[sl] = _tree_product(e)
        dets[sl] = np.prod(sd, axis=1)

    rows = max(1, _BLOCK_PAIRS // len(widths))
    blocks = [slice(b, b + rows) for b in range(0, len(lam), rows)]
    pool = _pool() if len(blocks) >= _POOL_MIN_BLOCKS else None
    if pool is None:
        for sl in blocks:
            block(sl)
        return
    executor, blas = pool
    futures = [
        executor.submit(contextvars.copy_context().run, block, sl, blas) for sl in blocks
    ]
    for f in futures:
        f.exception()
    for f in futures:
        f.result()


def _raw_grid(p: Potential, lam: np.ndarray):
    """psi, trace, det for a 1-D array of spectral parameters."""
    vals, widths = _runs_of(p)
    chunk = max(1, _CHUNK_TARGET // len(widths))
    psis = np.empty((len(lam), 3, 3), dtype=np.complex128)
    dets = np.empty(len(lam), dtype=np.complex128)
    for lo in range(0, len(lam), chunk):
        sl = slice(lo, lo + chunk)
        im_max = float(np.abs(lam[sl].imag).max())
        v_c, w_c = _split_runs(vals, widths, im_max)
        _eval_chunk(lam[sl], v_c, w_c, psis[sl], dets[sl])
    traces = psis[:, 0, 0] + psis[:, 1, 1] + psis[:, 2, 2]
    return psis, traces, dets


def monodromy_grid(p: Potential, lam, *, want_psi: bool = False) -> dict:
    """Vectorized monodromy data over an array of spectral parameters.

    Returns a dict with keys ``trace`` (T), ``trace_conj`` (the trace of the
    inverse propagator), ``det`` and optionally ``psi``.  For non-real
    parameters the conjugate trace costs a second propagation at the
    conjugated parameters; on the real axis it is free.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.complex128)).ravel()
    _check_range(lam)
    # Moderately off-axis, the inverse trace comes from the adjugate of the
    # same propagator; the graded-entry cancellation only becomes fatal once
    # |Im lam| is large, and those points get a second propagation at the
    # conjugated parameters instead.
    big = np.abs(lam.imag) > _ADJ_IM_LIMIT
    if np.any(big):
        lam_full = np.concatenate([lam, np.conj(lam[big])])
    else:
        lam_full = lam
    psis, traces, dets = _raw_grid(p, lam_full)
    n = len(lam)
    t = traces[:n]
    tt = np.conj(t).copy()
    mid = (lam.imag != 0.0) & ~big
    if np.any(mid):
        adj = adj3(psis[:n][mid])
        tt[mid] = np.trace(adj, axis1=-2, axis2=-1) / dets[:n][mid]
    if np.any(big):
        tt[big] = np.conj(traces[n:])
    out = {"lam": lam, "trace": t, "trace_conj": tt, "det": dets[:n]}
    if want_psi:
        out["psi"] = psis[:n]
    return out


# ----------------------------------------------------------------------------
# closed-form second-order trace term
# ----------------------------------------------------------------------------


def _e2(z):
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct = (np.exp(zs) - 1.0 - zs) / (zs * zs)
    series = 0.5 + z / 6.0 + z * z / 24.0 + z * z * z / 120.0
    return np.where(small, series, direct)


def _t2_plus(p: Potential, lam: np.ndarray) -> np.ndarray:
    """Ordered double integral  int_{s2<s1} e^{2 i lam (s1-s2)} v*(s1).v(s2)."""
    vals, widths = _runs_of(p)
    lefts = np.concatenate(([0.0], np.cumsum(widths)))[:-1]
    lam2 = lam[:, None]  # (L, 1)
    w = widths[None, :]  # (1, R)
    x = lefts[None, :]
    zin = -2j * lam2 * w
    inner = vals[None, :, :] * (np.exp(-2j * lam2 * x) * w * _e1(zin))[:, :, None]
    g = np.cumsum(inner, axis=1) - inner  # exclusive prefix: contributions left of run r
    vbar = np.conj(vals)[None, :, :]
    dot_g = np.sum(vbar * g, axis=2)
    zout = 2j * lam2 * w
    term1 = dot_g * np.exp(2j * lam2 * x) * w * _e1(zout)
    normsq = np.sum(np.abs(vals) ** 2, axis=1)[None, :]
    term2 = normsq * (w * w) * _e2(zout)
    return np.sum(term1 + term2, axis=1)


def trace_t2(p: Potential, lam) -> np.ndarray | complex:
    """Second-order (in the potential) term of the propagator trace, exactly.

    Closed form per run pair; accepts a scalar or an array.  Cross-validated
    against the order-2 iterated-integral block in the tests.
    """
    scalar = np.isscalar(lam) or np.asarray(lam).ndim == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=np.complex128)).ravel()
    _check_range(2.0 * lam_arr)  # the doubled-frequency kernels overflow first
    tp = _t2_plus(p, lam_arr)
    tm = np.conj(_t2_plus(p, np.conj(lam_arr)))
    out = np.exp(-1j * lam_arr) * tp + np.exp(1j * lam_arr) * tm
    if scalar:
        return complex(out[0])
    return out.reshape(np.asarray(lam).shape)
