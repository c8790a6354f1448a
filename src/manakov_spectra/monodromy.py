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
against a Pade-13 scaling-and-squaring oracle, and against its own plain
form bit for bit; both oracles live with the tests, not in the package.

Two exponentials depend only on lam and the run width: ``exp(t mu1)`` and
the series factor ``exp(t m)``, with ``t = -i w``.  They are evaluated once
per distinct width, on (L, U), and gathered to (L, R); the distinct widths
and each run's index into them are cached with the runs.  Since ``t`` has a
zero real part, ``t * x`` rounds alike in any shape or operand order, and
exp is elementwise, so the gathered values are the per-pair ones bit for
bit.  A division of a complex array by a real constant is written as a
product with ``_recip(d)`` = ``1 / d - 0j``: numpy's division computes the
same terms, so the bits stay, signs of zero included (``_recip`` gives the
reason; a test holds numpy to it).

The generator has trace ``i lam``, so ``det psi = e^{i lam}`` in closed form,
and the engine forms the propagator only.  The conjugate trace (trace of
the inverse propagator) is ``conj(T)`` on the real axis.  Off it, for
``0 < |Im lam| <= _ADJ_IM_LIMIT``, it is ``trace(adj psi) e^{-i lam}``, from
the same propagator; past that, it comes from a second propagation at the
conjugated spectral parameter, since the adjugate's minors cancel
catastrophically once ``|Im lam|`` exceeds ~20, while the conjugated
propagation stays accurate at full scale.

A point's bits depend on lam alone: its runs are cut into equal parts of
``|Im lam| * width <= _IM_WIDTH_CAP`` by its own ``|Im lam|``
(``_split_runs``), and ``_triple_dd`` sums its series to the length that its
own largest series criterion needs (``_chunk_terms``).  A call is cut into
*chunks* of about ``_CHUNK_TARGET`` (lam, run) pairs.  The points of a chunk
with the same split counts are evaluated together: inline when they make at
most ``_BLOCK_PAIRS`` pairs, else on a thread pool in equal *row blocks* of at
most ``_BLOCK_PAIRS`` pairs, which keep the step arrays in cache, as few as
can be while every worker gets as many blocks as the others.  The pool is
created on first use in each process, with one worker per usable core and at
most ``_CHUNK_TARGET // _BLOCK_PAIRS`` workers, which share no lock.  On two
cores, a call of 24 points at 512 runs (one and a half blocks' worth) took
9.8 ms inline in two blocks, 7.3-7.8 ms on the pool in two and 8.5-8.7 ms in
four (medians of 120 alternating repeats, two runs): one block a worker beats
two.  Bits never depend on the batch, the block or the worker count, but may
differ between machines: numpy and BLAS pick their kernels by CPU
(``_tree_product`` gives the premise that its bits rest on).

Each split-count group of a chunk is one ``_eval_chunk`` call, with no
cache: a point that a call requests twice is propagated twice.
"""

from __future__ import annotations

import contextvars
import functools
import os

import numpy as np

from .algebra import adj3
from .errors import RangeOverflowError
from .potential import Potential

__all__ = [
    "IM_LIMIT",
    "J3",
    "monodromy_grid",
]

J3 = np.diag([1.0, -1.0, -1.0]).astype(np.complex128)

#: largest tolerated |Im lam|; beyond this the period propagator overflows doubles.
IM_LIMIT = 700.0
_ADJ_IM_LIMIT = 6.0

_CHUNK_TARGET = 1 << 18  # lam-chunk size is chosen so lam*steps ~ this many matrices
_BLOCK_PAIRS = 1 << 13  # (lam, run) pairs per row block: a chunk's arrays fit in cache


# ----------------------------------------------------------------------------
# step kernels
# ----------------------------------------------------------------------------


def _recip(d: float) -> complex:
    """The factor whose product with a complex array is numpy's ``x / d``, d > 0.

    numpy divides by the real ``d`` as by ``d + 0j`` and computes
    ``(xr + xi * 0) * (1 / d)`` and ``(xi - xr * 0) * (1 / d)``.  The product
    with ``1 / d - 0j`` is ``xr * (1 / d) + xi * 0`` and
    ``xi * (1 / d) - xr * 0``: the same bits, signs of zero included, unless
    a part underflows to zero.  It costs a seventh of the division.
    """
    return complex(1.0 / d, -0.0)


_HALF = _recip(2.0)
_THIRD = _recip(3.0)
_SIXTH = _recip(6.0)
_INV120 = _recip(120.0)


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
    series = 1.0 + z2 * _SIXTH + z2 * z2 * _INV120
    return np.where(small, series, direct)


def _pair_dd(t, a, b):
    """First divided difference of exp(t x) over nodes (a, b); confluence-safe."""
    # t = -i w has a zero real part, so both operand orders of ``t * (a + b)``
    # round alike (see _steps_spectral) and the sum needs no name
    return np.exp(t * (a + b) * _HALF) * t * _sinch(t * (a - b) * _HALF)


@functools.cache
def _series_thresholds() -> np.ndarray:
    """For n = 1, ..., 20, the largest c whose rounded ``c^n / n!`` is <= 2e-18.

    The product is taken as ``np.multiply.accumulate(c / n)``.  Correct
    rounding is monotone, so the product does not decrease as c grows, and
    a bisection over the bit patterns of [0, 2], which order like the
    values, finds each threshold exactly.
    """
    n = np.arange(1.0, 21.0)
    lo = np.zeros(len(n), dtype=np.int64)
    hi = np.full(len(n), np.float64(2.0).view(np.int64))
    diag = np.arange(len(n))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        c = mid.view(np.float64)
        above = np.multiply.accumulate(c[:, None] / n, axis=1)[diag, diag] > 2e-18
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo.view(np.float64)


def _series_terms(c: np.ndarray) -> np.ndarray:
    """The series length of ``_triple_dd`` for each largest criterion c in [0, 1].

    The scalar loop ``bound = 0.5; n = 1; while bound > 1e-18 and n < 22:
    bound *= c / n; n += 1``, vectorised.  Halving is exact, so the loop's
    ``bound`` after n steps exceeds 1e-18 exactly when the rounded
    ``c^n / n!`` exceeds 2e-18, that is, when c exceeds the n-th of
    ``_series_thresholds``.  For c <= 1 the bound never grows, so the loop
    ends at 2 plus the number of thresholds below c.
    """
    return 2 + np.searchsorted(_series_thresholds(), c)


def _chunk_terms(lam: np.ndarray, avsq: np.ndarray, widths: np.ndarray):
    """The generator roots, the series mask and each point's series length.

    ``avsq`` holds ``|v1|^2, |v2|^2`` per run, shape (R, 2).  Returns the
    generator roots ``om = sqrt(lam^2 - |v|^2)`` and the mask ``ser`` of the
    pairs that ``_triple_dd`` sums as a series (both (L, R)), and the series
    length ``nterms`` (L,).  The series terms of a point are bounded by
    ``c^k / (2 k!)`` with ``c`` the largest series criterion of its runs, so
    the cutoff is a property of the point, whatever batch it comes in.
    """
    lam2 = lam[:, None]
    r2 = avsq[:, 0] + avsq[:, 1]
    # in place, with the ufuncs and operand orders of ``sqrt(lam^2 - r2 + 0j)``
    om = np.subtract(lam2 * lam2, r2)
    np.add(om, 0j, out=om)
    np.sqrt(om, out=om)
    # node spread of _triple_dd around the node mean m = mu1 / 3, mu1 = -lam:
    # max(|mu1 - m|, |om - m|, |-om - m|), a row half at a time to halve the
    # (L, R) temporaries, which set the peak memory of a large call
    mu1 = -lam2
    m = mu1 * _THIRD
    crit = np.empty(om.shape)
    for rows in (slice(0, len(lam) // 2), slice(len(lam) // 2, None)):
        node = np.subtract(om[rows], m[rows])
        np.abs(node, out=crit[rows])
        np.negative(om[rows], out=node)
        np.subtract(node, m[rows], out=node)
        np.maximum(crit[rows], np.abs(node), out=crit[rows])
        del node
    np.maximum(np.abs(mu1 - m), crit, out=crit)
    crit *= widths  # |t| = |-i w| = w exactly; a real product commutes
    ser = crit <= 1.0
    nterms = _series_terms(np.max(crit, axis=1, initial=0.0, where=ser))
    return om, ser, nterms


def _triple_dd(t, mu1, om, ser, nterms, etm):
    """Second divided difference of exp(t x) over nodes (mu1, om, -om).

    Hybrid evaluation: where ``ser`` holds (``|t| * spread <= 1``), a
    complete-homogeneous series around the node mean ``m = mu1 / 3``, summed
    to the row's ``nterms`` terms (uniformly accurate through confluences),
    with ``etm = exp(t m)`` given; elsewhere the two-term recursive formula
    with the best-conditioned pairing (largest outer gap).

    All series run unmasked to the shortest length among them.  Past it,
    each term is added only to the pairs whose series still runs, so every
    pair's sum is the one its own length gives, bit for bit.
    """
    t, mu1, om = np.broadcast_arrays(t, mu1, om)
    out = np.empty(om.shape, dtype=np.complex128)

    if np.any(ser):
        ts, mus, oms = t[ser], mu1[ser], om[ser]
        nlo, nhi = int(nterms.min()), int(nterms.max())
        if nlo < nhi:
            nts = np.broadcast_to(nterms[:, None], ser.shape)[ser]
            nlo, nhi = int(nts.min()), int(nts.max())
        ms = mus * _THIRD
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
        s = hh * _recip(fact)
        for k in range(1, nhi):
            a3pow = a3pow * a3s
            g = a2s * g + a3pow
            hh = a1s * hh + g
            tpow = tpow * ts
            fact *= k + 2
            if k < nlo:
                s = s + tpow * hh * _recip(fact)
            else:
                np.add(s, tpow * hh * _recip(fact), out=s, where=nts > k)
        out[ser] = etm[ser] * ts * ts * s

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


def _width_exp(tw, inv, x):
    """exp(t x) on (L, R) for x of shape (L, 1), one exp per distinct width."""
    return np.exp(tw * x)[:, inv]


def _steps_spectral(lam, vals, avsq, tw, inv, om, ser, nterms):
    """Step propagators exp(w * A) for all (lam, run) pairs.

    Shapes: lam (L,), vals and avsq = |vals|^2 (R, 2), the distinct
    exponents ``tw = -i w`` (U,) and each run's index ``inv`` (R,) into them,
    and om, ser (L, R) and nterms (L,) from ``_chunk_terms`` -> E (L, R, 3, 6),
    each 3x3 complex step in ``_tree_product``'s (imag, real) layout.

    A product ``x * (y - z)`` is written with the difference named.  Once a
    temporary reaches 256 KiB, numpy's temporary elision evaluates it in
    place as ``(y - z) * x``, and its complex multiply (a fused multiply-add)
    rounds the two operand orders differently; that would make a point's
    bits depend on the size of its row block.
    """
    lam2 = lam[:, None]
    v1 = vals[None, :, 0]
    v2 = vals[None, :, 1]
    av1sq = avsq[None, :, 0]
    av2sq = avsq[None, :, 1]
    r2 = av1sq + av2sq
    mu1c = -lam2
    mu1 = np.broadcast_to(mu1c, om.shape)
    tb = np.broadcast_to(tw[inv], om.shape)

    f0 = _width_exp(tw, inv, mu1c)
    d12 = _pair_dd(tb, mu1, om)
    # exp(t m), m = mu1 / 3, for the series; let go before the step matrices
    etm = _width_exp(tw, inv, mu1c * _THIRD) if ser.any() else None
    dd = _triple_dd(tb, mu1, om, ser, nterms, etm)
    del etm

    alpha = f0 - mu1 * d12 + mu1 * om * dd
    beta = d12 - (mu1 + om) * dd
    gamma = dd

    e = np.empty(om.shape + (3, 6))

    def put(i, j, x):  # entry (i, j) in the (imag, real) layout
        e[..., i, 2 * j] = x.imag
        e[..., i, 2 * j + 1] = x.real

    lam_b = np.broadcast_to(lam2, om.shape)
    diag_base = alpha - beta * lam_b
    lamsq = lam_b * lam_b
    q0, q1, q2 = lamsq - r2, lamsq - av1sq, lamsq - av2sq
    put(0, 0, alpha + beta * lam_b + gamma * q0)
    put(0, 1, -beta * np.conj(v1))
    put(0, 2, -beta * np.conj(v2))
    put(1, 0, beta * v1)
    put(1, 1, diag_base + gamma * q1)
    put(1, 2, -gamma * v1 * np.conj(v2))
    put(2, 0, beta * v2)
    put(2, 1, -gamma * v2 * np.conj(v1))
    put(2, 2, diag_base + gamma * q2)
    return e


# The real (6, 6) form of a 3x3 complex right factor b in the (imag, real)
# layout: entry (2k + r, 2j + c) is b's flat (3, 6) entry _TAKE times _SIGN.
# Row 2k + r meets the imaginary (r = 0) or real (r = 1) part of the left
# factor's a_ik, and column 2j + c makes the imaginary (c = 0) or real (c = 1)
# part of the product's entry (i, j).
_K, _R, _J, _C = np.indices((3, 2, 3, 2)).reshape(4, -1)
_TAKE = 6 * _K + 2 * _J + 1 - (_R ^ _C)  # br_kj where r == c, else bi_kj
_SIGN = np.where((_R == 0) & (_C == 1), -1.0, 1.0)


def _tree_product(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[:, R-1] @ ... @ steps[:, 0] by pairwise reduction.

    ``steps`` (L, R, 3, 6) holds each 3x3 complex step in the (imag, real)
    layout: row i is ``[ai_i0, ar_i0, ai_i1, ar_i1, ai_i2, ar_i2]``.  Each
    pair's product is one real (3, 6) by (6, 6) ``matmul``, whose right
    operand is the earlier step in the real form of ``_TAKE`` and ``_SIGN``
    (a product with 1 or -1 is exact), and it comes back in the same layout.
    Returns psi (L, 3, 3) as complex.

    The premise: BLAS ``dgemm`` forms each entry as one fused multiply-add
    chain in k order, ``im = fma(ar_k, bi_k, fma(ai_k, br_k, im))`` and
    ``re = fma(ar_k, br_k, fma(-ai_k, bi_k, re))``, and so does the complex
    ``zgemm`` that a 3x3 complex ``matmul`` calls.  The two products are then
    equal as floats; only the sign of an exact zero may differ.  A test holds
    the BLAS kernels to it, on the machine that runs the tests.
    """
    cur = steps
    while cur.shape[1] > 1:
        n = cur.shape[1]
        even = n - (n % 2)
        right = cur[:, 0:even:2].reshape(len(cur), n // 2, 18)[..., _TAKE]
        right *= _SIGN
        paired = np.matmul(cur[:, 1:even:2], right.reshape(len(cur), n // 2, 6, 6))
        if n % 2:
            paired = np.concatenate([paired, cur[:, -1:]], axis=1)
        cur = paired
    psi = np.empty((len(cur), 3, 3), dtype=np.complex128)
    psi.imag, psi.real = cur[:, 0, :, 0::2], cur[:, 0, :, 1::2]
    return psi


# ----------------------------------------------------------------------------
# grid engine
# ----------------------------------------------------------------------------


def _runs_of(p: Potential):
    """The canonical runs, cached on the potential: (vals, widths, tw, inv).

    ``tw = -i w`` (U,) holds the distinct widths, and ``inv`` (R,) gives
    each run's index into it.
    """
    cache = getattr(p, "_runs_cache", None)
    if cache is None:
        vals, widths = p.canonical().runs()
        uw, inv = np.unique(widths, return_inverse=True)
        cache = (vals, widths, -1j * uw, inv)
        p._runs_cache = cache
    return cache


def _check_range(lam: np.ndarray):
    if np.any(np.abs(lam.imag) > IM_LIMIT):
        worst = float(np.abs(lam.imag).max())
        raise RangeOverflowError(
            f"range-overflow: |Im lam| = {worst:.1f} exceeds {IM_LIMIT:.0f}"
        )


# Per-step cap on |Im lam| * width.  Wider steps grade the step matrices more
# steeply, and the propagator's rounding grows with them.  On the one-run
# constant (0.9, 0) at |Im lam| = 6, over 201 real parts in [-10, 10]:
# |det psi - e^{i lam}| / e^6 reads at most 3.7e-13 with the split and 9.4e-10
# without; the adjugate's conjugate trace differs from the conjugated
# propagation's by 2e-13 relative with the split and 2.4e-11 without.
_IM_WIDTH_CAP = 0.5


def _split_runs(vals, widths, tw, inv, im_max):
    """The runs of ``_runs_of``, each cut into equal parts of |Im lam| * width <= cap."""
    if im_max * widths.max() <= _IM_WIDTH_CAP:
        return vals, widths, tw, inv
    reps = np.maximum(1, np.ceil(widths * im_max / _IM_WIDTH_CAP).astype(np.int64))
    part = widths / reps
    # runs of one width are cut alike, so each distinct width keeps its index
    part_u = np.empty(len(tw))
    part_u[inv] = part
    return (
        np.repeat(vals, reps, axis=0),
        np.repeat(part, reps),
        -1j * part_u,
        np.repeat(inv, reps),
    )


def _workers() -> int:
    """Block workers: one per usable core, never more than a chunk has blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _CHUNK_TARGET // _BLOCK_PAIRS)


# pid -> thread pool, or None where one worker is all there is.  Keyed by
# pid: a forked child inherits the parent's pool object but none of its threads.
_POOLS: dict = {}


def _pool():
    """This process's thread pool, or None for one worker."""
    pid = os.getpid()
    if pid not in _POOLS:
        pool = None
        workers = _workers()
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(workers, thread_name_prefix="monodromy")
        _POOLS.setdefault(pid, pool)
    return _POOLS[pid]


def _eval_chunk(lam, runs, psis):
    """Fill psis (L, 3, 3) for one chunk, block by block.

    A chunk of more than ``_BLOCK_PAIRS`` (lam, run) pairs is cut into
    ``workers * ceil(pairs / (workers * _BLOCK_PAIRS))`` row blocks, capped
    at its rows, of equal size, give or take a row: the fewest blocks of at
    most ``_BLOCK_PAIRS`` pairs that the workers share evenly, since one
    block a worker beat two on the 24-point call timed in the module notes.
    They run on the pool, each in a copy of the caller's context (so
    ``np.errstate`` applies in the workers as it does inline); every block
    finishes before the first error, in block order, is raised.  The blocks
    share no lock.  The tree product's real ``matmul`` calls ``dgemm`` once
    per matrix, and two threads run those calls side by side: two 16-point
    products at 512 runs took 3.8 ms on two threads and 5.7 ms on one, where
    the complex ``zgemm`` that it replaces contends inside OpenBLAS and
    gained nothing from the second thread (medians of 40 repeats on two
    cores).
    """
    vals, widths, tw, inv = runs
    avsq = np.abs(vals) ** 2
    om, ser, nterms = _chunk_terms(lam, avsq, widths)

    def block(sl):
        e = _steps_spectral(lam[sl], vals, avsq, tw, inv, om[sl], ser[sl], nterms[sl])
        psis[sl] = _tree_product(e)

    pairs = len(lam) * len(widths)
    count = 1
    if pairs > _BLOCK_PAIRS:
        workers = _workers()
        count = min(len(lam), workers * -(-pairs // (workers * _BLOCK_PAIRS)))
    cuts = [len(lam) * k // count for k in range(count + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    pool = _pool() if count > 1 else None
    if pool is None:
        for sl in blocks:
            block(sl)
        return
    futures = [pool.submit(contextvars.copy_context().run, block, sl) for sl in blocks]
    for f in futures:
        f.exception()
    for f in futures:
        f.result()


def _raw_grid(p: Potential, lam: np.ndarray):
    """psi and trace for a 1-D array of spectral parameters.

    The points of a chunk with equal split counts share one ``_eval_chunk``
    call on ``_split_runs`` of their largest |Im lam|, in lam's order; the
    counts grow with |Im lam|, so their sum tells the groups apart.
    """
    runs = _runs_of(p)
    chunk = max(1, _CHUNK_TARGET // len(runs[1]))
    psis = np.empty((len(lam), 3, 3), dtype=np.complex128)
    for lo in range(0, len(lam), chunk):
        part = lam[lo : lo + chunk]
        reps = np.ceil(np.multiply.outer(np.abs(part.imag), -runs[2].imag) / _IM_WIDTH_CAP)
        splits = np.maximum(1.0, reps).sum(axis=1)
        order = np.argsort(splits, kind="stable")
        part, splits = part[order], splits[order]
        psi = np.empty((len(part), 3, 3), dtype=np.complex128)
        start = 0
        while start < len(part):
            end = int(np.searchsorted(splits, splits[start], side="right"))
            rows = slice(start, end)
            im_max = float(np.abs(part[rows].imag).max())
            _eval_chunk(part[rows], _split_runs(*runs, im_max), psi[rows])
            start = end
        psis[lo + order] = psi
    traces = psis[:, 0, 0] + psis[:, 1, 1] + psis[:, 2, 2]
    return psis, traces


def monodromy_grid(p: Potential, lam) -> dict:
    """Vectorized monodromy data over an array of spectral parameters.

    Returns a dict with keys ``lam``, ``trace`` (T), ``trace_conj`` (the
    trace of the inverse propagator) and ``psi``.  On the real axis the
    conjugate trace is free; off it, it is ``trace(adj psi) e^{-i lam}``,
    with ``det psi = e^{i lam}`` in closed form, and where
    ``|Im lam| > _ADJ_IM_LIMIT`` it comes from a second propagation at the
    conjugated parameters.
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
    psis, traces = _raw_grid(p, lam_full)
    n = len(lam)
    t = traces[:n]
    tt = np.conj(t).copy()
    mid = (lam.imag != 0.0) & ~big
    if np.any(mid):
        adj = adj3(psis[:n][mid])
        tt[mid] = np.trace(adj, axis1=-2, axis2=-1) * np.exp(-1j * lam[mid])
    if np.any(big):
        tt[big] = np.conj(traces[n:])
    return {"lam": lam, "trace": t, "trace_conj": tt, "psi": psis[:n]}
