"""Reference implementations that the tests play against the production code.

None of this runs in the package.  Each oracle computes what a production
routine computes by an independent method:

* ``det3`` / ``solve3`` -- determinant and linear solve of (..., 3, 3)
  stacks by cofactors, for the Pade denominators;
* ``expm_stack3`` / ``expm_dense`` -- matrix exponentials by Pade-13 scaling
  and squaring (never eigendecomposition; the generators are non-normal for
  complex spectral parameters), stacked 3x3 and dense n x n;
* ``tree_product`` -- the ordered pairwise product of complex 3x3 steps by
  complex ``matmul``: the bit oracle for the engine's real-layout product,
  and the product that ``pade_psi`` uses;
* ``pade_psi`` -- the period propagator with every step exponential taken by
  Pade instead of the production spectral kernel;
* ``mp_psi`` / ``mp_herglotz_fit`` / ``mp_herglotz_tau1_fit`` -- the period
  propagator, and the decay fit of the averaged map up the imaginary axis
  by two routes, in 40-digit arithmetic (mpmath): the accuracy oracle for
  the engine's traces and the fit;
* ``picard_monodromy`` -- the propagator's expansion in powers of the
  potential, term by term;
* ``trace_t2`` -- the second-order term of the propagator trace in closed
  form, per pair of runs;
* ``reference_steps`` -- the production step kernel in its plain form, the
  bit oracle for the production one: every exponential is taken per
  (lam, run) pair and every division by a real number is a division;
* ``series_length`` / ``point_series_lengths`` -- the step kernel's series
  cutoff by its scalar loop, point by point;
* ``refine_sign_changes`` -- the plain bisection of every bracket on its
  own, one engine call per halving: the bit oracle for the scan's
  speculative one;
* ``scan_bookkeeping`` -- a scan's gaps, edge notes and kissing points by
  per-point loops and a pairing state machine, against the scan's masks;
* ``classify`` -- the multiplicity of one real spectral parameter on its
  own, against the multiplicities of a whole ``scan``;
* ``hadamard_eval`` -- the characteristic function restored as a product
  over an eigenvalue table, against its direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from manakov_spectra.monodromy import _check_range, _runs_of, _split_runs
from manakov_spectra.potential import Potential, _e1, moments
from manakov_spectra.spectrum import (
    DISC_REL_TOL,
    ENDPOINT_ACCURACY,
    ZERO_POTENTIAL_TOL,
    _disc_only,
    _line_data,
    _local_tol,
    _maybe_kiss,
)

# ----------------------------------------------------------------------------
# matrix exponential: Pade-13 scaling and squaring
# ----------------------------------------------------------------------------

# Degree-13 diagonal Pade coefficients for exp, and the matching 1-norm
# threshold for double precision.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def det3(m: np.ndarray) -> np.ndarray:
    """Determinant of a (..., 3, 3) stack via cofactor expansion."""
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def solve3(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Solve ``q @ x = p`` for (..., 3, 3) stacks via the adjugate.

    Intended for well-conditioned systems (Pade denominators); avoids the
    per-matrix LAPACK dispatch cost of ``np.linalg.solve`` on large stacks.
    """
    a, b, c = q[..., 0, 0], q[..., 0, 1], q[..., 0, 2]
    d, e, f = q[..., 1, 0], q[..., 1, 1], q[..., 1, 2]
    g, h, i = q[..., 2, 0], q[..., 2, 1], q[..., 2, 2]
    cofactors = [e * i - f * h, c * h - b * i, b * f - c * e,
                 f * g - d * i, a * i - c * g, c * d - a * f,
                 d * h - e * g, b * g - a * h, a * e - b * d]
    adj = np.stack(cofactors, axis=-1).reshape(q.shape)
    return np.matmul(adj, p) / det3(q)[..., None, None]


def _pade13_stack(a: np.ndarray, a2: np.ndarray | None = None) -> np.ndarray:
    """Unscaled Pade-13 approximant for a (..., 3, 3) stack with ||a|| <= theta."""
    b = _PADE13_B
    eye = np.zeros_like(a)
    eye[..., 0, 0] = 1.0
    eye[..., 1, 1] = 1.0
    eye[..., 2, 2] = 1.0
    if a2 is None:
        a2 = np.matmul(a, a)
    a4 = np.matmul(a2, a2)
    a6 = np.matmul(a2, a4)
    w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
    w2 = b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    u = np.matmul(a, np.matmul(a6, w1) + w2)
    z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
    v = np.matmul(a6, z1) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return solve3(v - u, v + u)


def expm_stack3(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (..., 3, 3) complex stack.

    Scaling and squaring with the degree-13 diagonal Pade approximant.  The
    squaring count is chosen per matrix from its 1-norm; matrices sharing a
    count are processed together.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing (3, 3) shape, got {a.shape}")
    flat = a.reshape(-1, 3, 3)
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    s = np.zeros(flat.shape[0], dtype=np.int64)
    big = norms > _PADE13_THETA
    s[big] = np.ceil(np.log2(norms[big] / _PADE13_THETA)).astype(np.int64)
    out = np.empty_like(flat)
    for sv in np.unique(s):
        idx = np.nonzero(s == sv)[0]
        block = flat[idx] * (0.5**sv)
        e = _pade13_stack(block)
        for _ in range(int(sv)):
            e = np.matmul(e, e)
        out[idx] = e
    return out.reshape(a.shape)


def expm_dense(a: np.ndarray) -> np.ndarray:
    """Pade-13 scaling-and-squaring exponential for one n x n matrix.

    Used for block constructions (the iterated-integral propagator); not
    size-specialized, so it uses ``np.linalg.solve``.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max() if n else 0.0
    s = 0 if norm <= _PADE13_THETA else int(np.ceil(np.log2(norm / _PADE13_THETA)))
    x = a * (0.5**s)
    b = _PADE13_B
    eye = np.eye(n, dtype=np.complex128)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    e = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        e = e @ e
    return e


# ----------------------------------------------------------------------------
# ordered tree product and Pade step kernel
# ----------------------------------------------------------------------------


def tree_product(steps: np.ndarray) -> np.ndarray:
    """Ordered product steps[:, R-1] @ ... @ steps[:, 0] of complex (L, R, 3, 3) steps.

    The pairing of ``monodromy._tree_product``: adjacent pairs, level by
    level, with an odd last step carried up unchanged.
    """
    cur = steps
    while cur.shape[1] > 1:
        n = cur.shape[1]
        even = n - (n % 2)
        paired = np.matmul(cur[:, 1:even:2], cur[:, 0:even:2])
        if n % 2:
            paired = np.concatenate([paired, cur[:, -1:]], axis=1)
        cur = paired
    return cur[:, 0]


def _steps_pade(lam: np.ndarray, vals: np.ndarray, widths: np.ndarray):
    """Step matrices like ``monodromy._steps_spectral``'s, by Pade-13."""
    length, runs = len(lam), len(widths)
    a = np.zeros((length, runs, 3, 3), dtype=np.complex128)
    lam2 = lam[:, None]
    v1 = vals[None, :, 0]
    v2 = vals[None, :, 1]
    w = widths[None, :]
    iw = -1j * w
    a[..., 0, 0] = iw * lam2
    a[..., 0, 1] = -iw * np.conj(v1)
    a[..., 0, 2] = -iw * np.conj(v2)
    a[..., 1, 0] = iw * v1
    a[..., 1, 1] = -iw * lam2
    a[..., 2, 0] = iw * v2
    a[..., 2, 2] = -iw * lam2
    return expm_stack3(a)


def pade_psi(p: Potential, lam: complex) -> np.ndarray:
    """Period propagator at one parameter, every step exponential by Pade.

    Runs, step splitting and the pairing of the ordered tree product are the
    production engine's, so only the step kernel differs from
    ``monodromy_grid(p, [lam])["psi"][0]``.
    """
    lam_arr = np.array([lam], dtype=np.complex128)
    _check_range(lam_arr)
    vals, widths = _split_runs(*_runs_of(p), abs(lam_arr[0].imag))[:2]
    return tree_product(_steps_pade(lam_arr, vals, widths))[0]


# ----------------------------------------------------------------------------
# 40-digit propagator and decay fit
# ----------------------------------------------------------------------------

MP_DIGITS = 40


def mp_psi(p: Potential, lam, inverse: bool = False) -> mpmath.matrix:
    """Period propagator at one parameter, one 40-digit ``mpmath.expm`` per canonical run.

    The runs are not split.  With ``inverse``, the inverse propagator, as the
    product of the runs' ``expm(-w A)`` in reverse order, so that no matrix is
    inverted: a propagator's condition number reaches e^{2 |Im lam|}.
    """
    vals, widths = _runs_of(p)[:2]
    with mpmath.workdps(MP_DIGITS):
        lam = mpmath.mpc(lam)
        out = mpmath.eye(3)
        for (v1, v2), w in zip(vals, widths):
            v1, v2 = mpmath.mpc(v1), mpmath.mpc(v2)
            gen = [[lam, -mpmath.conj(v1), -mpmath.conj(v2)], [v1, -lam, 0], [v2, 0, -lam]]
            # the generator A = -i J (lam - V) over the run's width
            a = mpmath.matrix(gen) * mpmath.mpc(0, -w)
            out = out * mpmath.expm(-a) if inverse else mpmath.expm(a) * out
        return out


def mp_herglotz_fit(p: Potential, nu) -> float:
    """``herglotz_asymptotic``'s coefficient ``c`` with every step in 40 digits.

    The traces come from ``mp_psi``.  The branch averages are the roots of
    their monic cubic, with ``multipliers.derived_grid``'s coefficients, and
    each magnitude is ``log|eps(delta)|`` of one of them: a route independent
    of the production fit, which reads the one multiplier of modulus above
    one.  The fit is the same least squares.  The mean over the three
    branches needs no branch tracking.
    """
    with mpmath.workdps(MP_DIGITS):
        r = []
        for x in nu:
            lam = mpmath.mpc(0, x)
            t, s = (m[0, 0] + m[1, 1] + m[2, 2] for m in (mp_psi(p, lam), mp_psi(p, lam, True)))
            ep, em = mpmath.exp(1j * lam), mpmath.exp(-1j * lam)
            t1 = (em * t + 1) * (ep * s + 1) / 4 - 1
            det8 = 2 * mpmath.cos(lam) + ep * (s * s - 2 * em * t) + em * (t * t - 2 * ep * s)
            cubic = [1, -(t + s) / 2, t1, -det8 / 8]
            mags = []
            for d in mpmath.polyroots(cubic, maxsteps=200, extraprec=200):
                # log |eps(delta)| on the branch with |eps| >= 1
                root = mpmath.sqrt(d * d - 1)
                mags.append(mpmath.log(max(abs(d + root), abs(d - root))))
            r.append(mpmath.fsum(mags) / 3 - x)
        return _mp_decay_fit(nu, r)


def mp_herglotz_tau1_fit(p: Potential, nu) -> float:
    """``herglotz_asymptotic``'s coefficient ``c`` from 40-digit eigenvalues.

    At each ``lam = i nu``, tau_1 is the largest-modulus eigenvalue of
    ``mp_psi`` (``mpmath.eig``), and the mean's excess over nu is
    ``(2/3) log|e^{i lam} tau_1|``, as in production.  Unlike
    ``mp_herglotz_fit``, whose root finder does not converge on the
    averages' near-triple cubic from nu = 150, it reaches nu = 700.
    """
    with mpmath.workdps(MP_DIGITS):
        r = []
        for x in nu:
            lam = mpmath.mpc(0, x)
            tau1 = max(mpmath.eig(mp_psi(p, lam), left=False, right=False), key=abs)
            r.append(2 * mpmath.log(abs(mpmath.exp(1j * lam) * tau1)) / 3)
        return _mp_decay_fit(nu, r)


def _mp_decay_fit(nu, r) -> float:
    """Least-squares ``c`` in ``r(nu) = c / nu``, in the working precision."""
    w = [1 / mpmath.mpf(x) for x in nu]
    return float(mpmath.fsum(ri * wi for ri, wi in zip(r, w)) / mpmath.fsum(wi * wi for wi in w))


# ----------------------------------------------------------------------------
# iterated-integral (power series in the potential) expansion
# ----------------------------------------------------------------------------


@dataclass
class PicardResult:
    """Potential-power-series data for the period propagator.

    ``orders[n]`` is the exact order-n term (a 3x3 matrix); ``partial`` is
    their sum through the requested order.
    """

    lam: complex
    order: int
    orders: list
    partial: np.ndarray


def picard_monodromy(p: Potential, lam: complex, order: int = 6) -> PicardResult:
    """Terms of the propagator's expansion in powers of the potential.

    Exact per step: the order-n term over a constant run is the (0, n) block
    of the exponential of the block-bidiagonal matrix with the free generator
    on the diagonal and the coupling term on the superdiagonal; runs are then
    chained by block multiplication.  Practical through order ~12.
    """
    if not 0 <= order <= 12:
        raise ValueError("order must lie in [0, 12]")
    _check_range(np.asarray([lam], dtype=np.complex128))
    vals, widths = _runs_of(p)[:2]
    nb = order + 1
    dim = 3 * nb
    total = np.eye(dim, dtype=np.complex128)
    for (v1, v2), w in zip(vals, widths):
        a0 = -1j * np.array(
            [[lam, 0, 0], [0, -lam, 0], [0, 0, -lam]], dtype=np.complex128
        )
        a1 = 1j * np.array(
            [
                [0, np.conj(v1), np.conj(v2)],
                [-v1, 0, 0],
                [-v2, 0, 0],
            ],
            dtype=np.complex128,
        )  # i J V, the coupling part of the generator
        g = np.zeros((dim, dim), dtype=np.complex128)
        for b in range(nb):
            g[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = a0
            if b + 1 < nb:
                g[3 * b : 3 * b + 3, 3 * (b + 1) : 3 * (b + 1) + 3] = a1
        total = expm_dense(g * w) @ total
    orders = [total[0:3, 3 * n : 3 * n + 3].copy() for n in range(nb)]
    partial = np.sum(orders, axis=0)
    return PicardResult(lam=complex(lam), order=order, orders=orders, partial=partial)


# ----------------------------------------------------------------------------
# the step kernel in its plain form: the bit oracle
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
    # round alike (see monodromy._steps_spectral) and the sum needs no name
    return np.exp(t * (a + b) / 2.0) * t * _sinch(t * (a - b) / 2.0)


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


def series_length(cmax: float) -> int:
    """The series length of ``_triple_dd`` for a largest series criterion cmax."""
    nterms, bound = 1, 0.5
    while bound > 1e-18 and nterms < 22:
        bound *= cmax / nterms
        nterms += 1
    return nterms


def point_series_lengths(lam, om, widths) -> list:
    """Each point's series length, or None for a point without series pairs.

    The length is the scalar loop's on the largest series criterion of the
    point's own runs.
    """
    lam2 = lam[:, None]
    m = -lam2 / 3.0
    spread = np.maximum(np.abs(-lam2 - m), np.maximum(np.abs(om - m), np.abs(-om - m)))
    crit = widths * spread
    return [
        series_length(float(row[row <= 1.0].max())) if (row <= 1.0).any() else None
        for row in crit
    ]


def reference_steps(lam, vals, widths, avsq, om, ser, nterms):
    """Step matrices like ``monodromy._steps_spectral``'s, bit for bit, as complex.

    Shapes: lam (L,), vals and avsq = |vals|^2 (R, 2), widths (R,), om
    (L, R) as ``monodromy._chunk_terms`` writes it, and the ser (L, R) and
    nterms (L,) that it returns -> E (L, R, 3, 3), where ``_steps_spectral``
    gives the (imag, real) layout.
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
    # each row summed to its own length: the plain loop, once per length
    dd = np.empty(om.shape, dtype=np.complex128)
    for n in np.unique(nterms):
        rows = nterms == n
        dd[rows] = _triple_dd(tb[rows], mu1[rows], om[rows], ser[rows], int(n))

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
    return e


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
    vals, widths = _runs_of(p)[:2]
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


# ----------------------------------------------------------------------------
# plain bisection of the discriminant's sign changes
# ----------------------------------------------------------------------------


def refine_sign_changes(p: Potential, lo, hi, disc_lo) -> np.ndarray:
    """Bisect the discriminant's sign changes in ``(lo, hi)`` in parallel, one call a halving.

    ``disc_lo`` gives the sign at ``lo``.  Each bracket is halved while its
    own width exceeds ``ENDPOINT_ACCURACY``; only those brackets are
    evaluated.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    sign_lo = np.sign(disc_lo)
    while (live := hi - lo > ENDPOINT_ACCURACY).any():
        mid = 0.5 * (lo[live] + hi[live])
        go_right = np.sign(_disc_only(p, mid)) == sign_lo[live]
        lo[live] = np.where(go_right, mid, lo[live])
        hi[live] = np.where(go_right, hi[live], mid)
    return 0.5 * (lo + hi)


def scan_bookkeeping(sc, refined: np.ndarray) -> tuple[list, list, list]:
    """``(gaps, notes, kissing)`` of a scan from its grid, walked point by point.

    ``refined`` holds the scan's refined sign changes in grid order.  Each
    sign change between consecutive strict points takes the next refined
    end; an opening end waits for the next closing one, and a gap that
    reaches past an end of the interval takes that end.  ``notes`` holds
    the edge notes only.
    """
    (a, b), lam, disc = sc.interval, sc.lam, sc.disc
    tol = _local_tol(disc)
    cls = np.where(disc > tol, 3, np.where(disc < -tol, 1, 0))
    strict = [int(k) for k in np.flatnonzero(cls)]
    ends = iter(refined.tolist())
    gaps, notes, pending = [], [], None
    if strict and cls[strict[0]] == 1:
        pending = a
        notes.append("gap continues past the left end of the scan interval")
    for i, j in zip(strict, strict[1:]):
        if cls[i] == 3 and cls[j] == 1:
            pending = next(ends)
        elif cls[i] == 1 and cls[j] == 3:
            gaps.append((pending, next(ends)))
            pending = None
    if pending is not None:
        gaps.append((pending, b))
        notes.append("gap continues past the right end of the scan interval")
    kissing, start = [], None
    for i in range(len(cls)):
        if cls[i] == 0:
            start = i if start is None else start
        elif start is not None:
            _maybe_kiss(lam, disc, cls, start, i - 1, kissing)
            start = None
    return gaps, notes, kissing


# ----------------------------------------------------------------------------
# pointwise classification
# ----------------------------------------------------------------------------

# offset of the two flanking points that resolve a boundary point
_NEIGHBOR_H = 1e-4


@dataclass
class Classification:
    multiplicity: int
    boundary: bool
    unimodular: int


def classify(p: Potential, lam: float) -> Classification:
    """Multiplicity (1 or 3) of one real spectral parameter.

    Points inside the relative boundary band around a discriminant zero are
    resolved by the signs at two flanking offsets; an unresolved boundary
    point counts as multiplicity 3 (band boundaries belong to the closed
    band set).  ``unimodular`` is the point's unimodular-multiplier count.
    """
    if moments(p).b3 < ZERO_POTENTIAL_TOL:
        return Classification(3, True, 3)
    data = _line_data(p, np.array([lam - _NEIGHBOR_H, lam, lam + _NEIGHBOR_H]))
    disc = data["disc"]
    tol = DISC_REL_TOL * max(float(np.max(np.abs(disc))), 1e-300)
    boundary = abs(disc[1]) <= tol
    if not boundary:
        mult = 3 if disc[1] > 0.0 else 1
    elif disc[0] < -tol and disc[2] < -tol:
        mult = 1
    else:
        mult = 3
    return Classification(mult, bool(boundary), int(data["counts"][1]))


# ----------------------------------------------------------------------------
# restored product over the eigenvalue table
# ----------------------------------------------------------------------------


def hadamard_eval(table, d0: complex, lam: complex, parity: int) -> tuple[complex, float]:
    """Symmetric truncation of the restored product d0 e^{i lam/2} prod(1 - lam/k).

    ``table`` is an ``EigenvalueTable`` and ``d0`` the characteristic value
    at the origin.  Returns the value together with a crude truncation
    indicator: the relative change when the outermost index shell is
    dropped.  The product converges only conditionally, hence the symmetric
    (paired) ordering.  Raises ``ValueError`` when the product is anchored at
    a zero, or when the table has no entry of this parity or covers less
    than ``4|lam|``.
    """
    if abs(d0) < 1e-12:
        raise ValueError(f"restored product anchored at zero: |D(0)| = {abs(d0):.3e}")
    pname = "periodic" if parity > 0 else "antiperiodic"
    items = [(e.n, e.z) for e in table.entries if e.parity == pname]
    if not items:
        raise ValueError("eigenvalue table has no entries of this parity")
    cover = max(abs(z.real) for _, z in items)
    if cover < 4.0 * abs(lam):
        raise ValueError(
            f"table covers |Re k| <= {cover:.3g}, need >= 4|lam| = {4.0 * abs(lam):.3g}"
        )
    items.sort(key=lambda nz: (abs(nz[0]), nz[0]))
    ks = np.array([z for _, z in items])
    full = complex(d0 * np.exp(0.5j * lam) * np.prod(1.0 - lam / ks))
    n_out = max(abs(n) for n, _ in items)
    inner = np.array([1.0 - lam / z for n, z in items if abs(n) != n_out])
    trimmed = complex(d0 * np.exp(0.5j * lam) * np.prod(inner))
    return full, abs(full - trimmed) / max(abs(full), 1e-300)
