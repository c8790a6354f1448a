"""Two-periodic eigenvalues: zeros of the characteristic functions D(+1) and D(-1).

The eigenvalues of the doubled-period problem are the zeros of
``D_+ = (T - 1) - e^{i lam}(T~ - 1)`` (periodic side, clusters near even
multiples of pi) and ``D_- = (T + 1) + e^{i lam}(T~ + 1)`` (antiperiodic
side, odd multiples).  Each localization disk of radius 1/2 around ``pi n``
carries exactly three zeros once |n| is large enough, and the resulting
table feeds the first-order asymptotic check.

A disk's zeros come first from the circle that counted them: the FFT of its
samples gives ``D'/D`` there, the trapezoid rule the power sums of the
zeros, and Newton's identities a cubic whose roots, the eigenvalues of its
companion matrix, approximate them (Delves & Lyness, Math. Comp. 21
(1967); Kravanja & Van Barel, LNM 1727 (2000)).  A disk keeps these roots
only if they certify: the moment count is 3, the three roots are distinct
and inside the count circle, and a circle around each one counts exactly
one zero.  The samples of that circle then place its root, below the noise
at which Newton on D stops.  Other disks -- double roots, counts other than
3 -- are located by winding-count subdivision of their enclosing squares
and polished by Newton from the leaves.

Every zero count -- disks, certification circles, enclosing squares,
subdivision cells and the multiplicity circles of polished clusters -- goes
through one driver, ``_windings``: a contour is a sampler, a schedule of
sample counts and a sign, and each round evaluates all pending contours in
one ``d_pm_grid`` call.

All the disks of the window, of both parities, go through one
``_disk_roots`` call.  Each contour and Newton start takes its sign from its
disk's index n, +1 for even n and -1 for odd n, so each round of the
locator is one engine call for the whole window; ``MAX_WINDOW_DISKS``
bounds the window's width and so a call's size.

``S(lam) = conj T(conj lam)`` makes ``D_s(conj lam) = -s e^{i conj lam}
conj D_s(lam)``, so ``d_pm_grid`` propagates only the upper point of each
exact conjugate pair of one call with one sign.  Disk circles and the
squares that enclose disks are symmetric about the axis and cost half
their points.  This is an identity of D within one call, not a cache:
nothing is kept between calls, and a point that two contours share is
still propagated for each, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import winding_count
from .errors import ConfigError, ContourThroughZeroError, UndersampledContourError
from .monodromy import monodromy_grid
from .potential import Potential, fourier_hat

__all__ = [
    "EigenEntry",
    "EigenvalueTable",
    "d_pm_grid",
    "d_pm_from_traces",
    "count_in_disk",
    "eigenvalues_in_window",
    "asymptotic_residuals",
    "recover_traces",
]

CELL_TARGET = 1e-3
NEWTON_TOL = 1e-11
NEWTON_STEP = 1e-6
NEWTON_MAXIT = 64
NEWTON_ACCEPT = 1e-11
RESIDUAL_TOL = 1e-9
_SPLIT_RATIOS = (0.5, 0.53, 0.47, 0.61)
_RADIUS_NUDGES = (1.0, 1.05, 0.95, 1.10, 0.90)
# disk circles double their samples from 64 up to 8192
_DISK_SCHEDULE = tuple(64 << k for k in range(8))
# samples of the circles that certify a moment root
_ROOT_SCHEDULE = (16, 64, 256)
MAX_WINDOW_DISKS = 1024  # a window's largest number of disks, checked before it is built
# exponent of the deviation sums in the asymptotic check
SUMMABILITY_EXPONENT = 1.5


def d_pm_from_traces(t, s, lam, sign) -> np.ndarray:
    """Characteristic function D(sign, lam) from the trace pair at *lam*; one sign per point."""
    e = np.exp(1j * lam)
    return np.where(np.asarray(sign) > 0, (t - 1.0) - e * (s - 1.0), (t + 1.0) + e * (s + 1.0))


def _conjugate_pairs(lam: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(lower, upper)`` with ``lam[lower] == conj(lam[upper])`` and equal signs.

    ``Im lam[upper] > 0``.  Points on the axis, and lower points whose
    conjugate is not requested with their sign, are left out.
    """
    up = np.flatnonzero(lam.imag > 0)
    lo = np.flatnonzero(lam.imag < 0)
    if not (up.size and lo.size):
        return lo[:0], up[:0]
    # an upper point's key is the point, a lower one's its conjugate, and
    # either key is conjugated for a negative sign: a pair shares its key
    ku = lam[up]
    ku = np.where(sign[up] > 0, ku, ku.conj())
    kl = lam[lo]
    kl = np.where(sign[lo] > 0, kl.conj(), kl)
    order = np.argsort(ku)
    j = order[np.searchsorted(ku[order], kl) % up.size]
    hit = ku[j] == kl
    return lo[hit], up[j[hit]]


def d_pm_grid(p: Potential, lam, sign) -> np.ndarray:
    """Characteristic function D(sign, lam) on an array of parameters.

    ``S(lam) = conj T(conj lam)`` (``multipliers`` module notes) gives
    ``D_s(conj lam) = -s e^{i conj lam} conj D_s(lam)``.  Of the requested
    points that come in exact conjugate pairs with the same sign, only the
    upper one is propagated, and the lower one's value follows from it; an
    axis-symmetric contour thus costs half its points.  This is not a
    cache: the pairs are found among the points of this call alone, and
    nothing is kept between calls.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.complex128)).ravel()
    sign = np.broadcast_to(sign, lam.shape)
    lower, upper = _conjugate_pairs(lam, sign)
    asked = np.ones(lam.size, dtype=bool)
    asked[lower] = False
    g = monodromy_grid(p, lam[asked])
    d = np.empty(lam.size, dtype=np.complex128)
    d[asked] = d_pm_from_traces(g["trace"], g["trace_conj"], g["lam"], sign[asked])
    flip = np.where(sign[lower] > 0, -1.0, 1.0)
    d[lower] = flip * np.exp(1j * lam[lower]) * np.conj(d[upper])
    return d


def _envelope(lam: np.ndarray) -> np.ndarray:
    """Positive growth envelope of |D| used to normalize winding samples.

    D grows like e^{|Im lam|} in the upper half plane and e^{2|Im lam|} in
    the lower; dividing samples by a positive function changes no phase, so
    the winding number is untouched while the through-zero guard compares
    against the envelope instead of the raw magnitude range.
    """
    im = np.imag(lam)
    return np.exp(np.abs(im)) + np.exp(2.0 * np.clip(-im, 0.0, None))


def _sign(n):
    """The sign of D whose zeros lie in the disks around pi n: +1 for even n, -1 for odd."""
    return 1 - 2 * (np.asarray(n) % 2)


def _circle(center: complex, r: float):
    """Sampler of the circle ``|lam - center| = r``: n points, counterclockwise.

    Sample ``n - k`` mirrors sample ``k`` about the center's horizontal, and
    samples 0 and ``n / 2`` lie on it, so a circle around a real center is
    made of exact conjugate pairs and two points on the axis.
    """

    def points(n: int) -> np.ndarray:
        u = np.exp(2j * np.pi * np.arange(n) / n)
        if n % 2 == 0:
            u[n // 2] = -1.0
        u[n // 2 + 1 :] = np.conj(u[1 : (n + 1) // 2][::-1])
        return center + r * u

    return points


def _windings(p: Potential, contours: list, samples: list | None = None) -> list[int | None]:
    """Zero count of D(sign) inside each contour, or None.

    A contour is ``(points, schedule, sign)``: ``points(k)`` samples it in
    traversal order at each entry ``k`` of ``schedule`` in turn, and D takes
    its *sign*.  Each round evaluates every pending contour in one
    ``d_pm_grid`` call.  An undersampled contour moves on to the next entry
    of its schedule; one that runs through a zero, or is still undersampled
    at its last entry, gets None.  Samples are divided by the growth
    envelope first, which changes no phase.  With *samples*, a list as long
    as *contours*, each counted contour's values of D go into its entry.

    Each schedule entry is a power-of-two multiple of the one before, and
    ``_circle`` and ``_square`` build their points from ``k / n`` fractions,
    so an escalated contour's points at ``[::ratio]`` are the last entry's,
    bit for bit.  Their values of D are kept (a point's bits depend on lam
    alone), and only the new points are propagated.
    """
    out: list[int | None] = [None] * len(contours)
    kept: dict[int, np.ndarray] = {}  # undersampled contour -> its values of D
    todo = list(range(len(contours)))
    rnd = 0
    while todo:
        pts = [contours[i][0](contours[i][1][rnd]) for i in todo]
        fresh = [np.ones(q.size, dtype=bool) for q in pts]
        for i, q, f in zip(todo, pts, fresh):
            if i in kept:
                f[:: q.size // kept[i].size] = False
        asked = [q[f] for q, f in zip(pts, fresh)]
        sizes = [a.size for a in asked]
        signs = np.repeat([contours[i][2] for i in todo], sizes)
        vals = d_pm_grid(p, np.concatenate(asked), signs)
        again: list[int] = []
        for i, q, f, new in zip(todo, pts, fresh, np.split(vals, np.cumsum(sizes)[:-1])):
            v = new
            if i in kept:
                v = np.empty(q.size, dtype=np.complex128)
                v[f] = new
                v[~f] = kept.pop(i)
            try:
                out[i] = winding_count(v / _envelope(q))
                if samples is not None:
                    samples[i] = v
            except UndersampledContourError:
                if rnd + 1 < len(contours[i][1]):
                    again.append(i)
                    kept[i] = v
            except ContourThroughZeroError:
                pass
        todo = again
        rnd += 1
    return out


def count_in_disk(
    p: Potential, centers, radius: float, signs, samples: list | None = None
) -> list[int | None]:
    """Number of zeros of D(sign) inside |lam - center| < radius, per center and sign.

    Each circle starts with 64 samples, doubling up to 8192 while the phase
    is undersampled.  When that fails, the radius is nudged by +-5% then
    +-10%, one ``_windings`` call per nudge for all the circles left; a disk
    that no nudge counts gets None.  With *samples*, a list as long as
    *centers*, the circle that gave each count goes into its entry as
    ``(r, values)``: D at ``_circle(center, r)(len(values))``.
    """
    out: list[int | None] = [None] * len(centers)
    todo = list(range(len(centers)))
    for factor in _RADIUS_NUDGES:
        r = radius * factor
        vals: list = [None] * len(todo)
        circles = [(_circle(centers[i], r), _DISK_SCHEDULE, signs[i]) for i in todo]
        winds = _windings(p, circles, vals)
        for i, w, v in zip(todo, winds, vals):
            out[i] = w
            if w is not None and samples is not None:
                samples[i] = (r, v)
        todo = [i for i, w in zip(todo, winds) if w is None]
    return out


# ----------------------------------------------------------------------------
# winding-guided subdivision
# ----------------------------------------------------------------------------


@dataclass
class _Cell:
    n: int
    x0: float
    y0: float
    wx: float
    wy: float
    wind: int

    @property
    def size(self) -> float:
        return max(self.wx, self.wy)

    @property
    def center(self) -> complex:
        return complex(self.x0 + 0.5 * self.wx, self.y0 + 0.5 * self.wy)


def _square(c: _Cell):
    """The cell's boundary as a contour for ``_windings``.

    Each edge takes 16, 64, then 256 samples; 8, 32, then 128 once the cell
    is at most 0.25 wide.  D takes the sign of the cell's disk.
    """

    def points(k: int) -> np.ndarray:
        t = np.arange(k) / k
        bottom = c.x0 + c.wx * t + 1j * c.y0
        right = c.x0 + c.wx + 1j * (c.y0 + c.wy * t)
        top = c.x0 + c.wx * (1.0 - t) + 1j * (c.y0 + c.wy)
        left = c.x0 + 1j * (c.y0 + c.wy * (1.0 - t))
        return np.concatenate([bottom, right, top, left])

    return points, (16, 64, 256) if c.size > 0.25 else (8, 32, 128), _sign(c.n)


def _children(c: _Cell, r: float) -> list[_Cell]:
    sx, sy = c.wx * r, c.wy * r
    return [
        _Cell(c.n, c.x0, c.y0, sx, sy, 0),
        _Cell(c.n, c.x0 + sx, c.y0, c.wx - sx, sy, 0),
        _Cell(c.n, c.x0, c.y0 + sy, sx, c.wy - sy, 0),
        _Cell(c.n, c.x0 + sx, c.y0 + sy, c.wx - sx, c.wy - sy, 0),
    ]


_SHRINK = 0.25


def _shrunk(c: _Cell) -> _Cell:
    sx, sy = c.wx * _SHRINK, c.wy * _SHRINK
    return _Cell(
        c.n, c.x0 + 0.5 * (c.wx - sx), c.y0 + 0.5 * (c.wy - sy), sx, sy, 0
    )


def _zoom_rounds(p: Potential, cells: list[_Cell]) -> list[_Cell]:
    """Shrink each cell about its center while its full count stays inside.

    Clusters usually sit near the cell center, so this skips most
    quadrisection levels; a shrink that loses roots (or lands its contour on
    one) simply leaves the cell for the splitting phase.
    """
    frozen: set[int] = set()
    while True:
        idx = [
            i
            for i, c in enumerate(cells)
            if i not in frozen and c.size > CELL_TARGET
        ]
        if not idx:
            return cells
        cands = [_shrunk(cells[i]) for i in idx]
        winds = _windings(p, [_square(c) for c in cands])
        changed = False
        for i, cand, w in zip(idx, cands, winds):
            if w is not None and w == cells[i].wind:
                cand.wind = w
                cells[i] = cand
                changed = True
            else:
                frozen.add(i)
        if not changed:
            return cells


def _subdivide(p: Potential, roots_cells: list[_Cell], notes: list) -> list[_Cell]:
    """Refine nonzero-winding cells until every leaf is below CELL_TARGET; notes are (n, text)."""
    leaves: list[_Cell] = []
    active = [c for c in roots_cells if c.wind > 0]
    while active:
        active = _zoom_rounds(p, active)
        pending = []
        for c in active:
            (leaves if c.size <= CELL_TARGET else pending).append(c)
        if not pending:
            break
        settled: list[_Cell] = []
        for ratio in _SPLIT_RATIOS:
            if not pending:
                break
            kids = [_children(c, ratio) for c in pending]
            flat = [k for group in kids for k in group]
            winds = _windings(p, [_square(c) for c in flat])
            retry: list[_Cell] = []
            for idx, parent in enumerate(pending):
                w4 = winds[4 * idx : 4 * idx + 4]
                if any(w is None for w in w4) or sum(w4) != parent.wind:
                    retry.append(parent)
                    continue
                for child, w in zip(kids[idx], w4):
                    if w > 0:
                        child.wind = w
                        settled.append(child)
            pending = retry
        for parent in pending:
            # no split ratio produced clean child contours; polish from here
            notes.append((parent.n, f"cell near {parent.center:.6g} (count {parent.wind}) could "
                                    f"not be split cleanly; polishing from the unrefined cell"))
            leaves.append(parent)
        active = []
        for c in settled:
            (leaves if c.size <= CELL_TARGET else active).append(c)
    return leaves


# ----------------------------------------------------------------------------
# polishing
# ----------------------------------------------------------------------------


def _newton_batch(p: Potential, z0: np.ndarray, signs: np.ndarray):
    """Vectorized Newton with central-difference derivative, on D(signs[i]) from z0[i].

    Returns (z, ok, strict): ``strict`` marks step-converged iterates
    (|dz| <= NEWTON_TOL).  Tightly clustered roots make the step criterion
    unreachable -- the update random-walks at the evaluation noise floor --
    so the best-residual iterate is accepted instead whenever its residual
    is two orders under the reporting tolerance.
    """
    z = np.array(z0, dtype=np.complex128)
    strict = np.zeros(z.size, dtype=bool)
    active = np.ones(z.size, dtype=bool)
    fbest = np.full(z.size, np.inf)
    zbest = z.copy()
    h = NEWTON_STEP
    for it in range(NEWTON_MAXIT):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        za = z[idx]
        vals = d_pm_grid(p, np.concatenate([za, za + h, za - h]), np.tile(signs[idx], 3))
        f, fp, fm = vals[: idx.size], vals[idx.size : 2 * idx.size], vals[2 * idx.size :]
        better = np.abs(f) < fbest[idx]
        fbest[idx[better]] = np.abs(f)[better]
        zbest[idx[better]] = za[better]
        d = (fp - fm) / (2.0 * h)
        bad = d == 0.0
        dz = np.where(bad, 0.0, f / np.where(bad, 1.0, d))
        z[idx] = za - dz
        done = (np.abs(dz) <= NEWTON_TOL) & ~bad
        strict[idx[done]] = True
        # nothing left to gain once the residual sits under the noise floor
        if it >= 6:
            floor = fbest[idx] <= 0.01 * NEWTON_ACCEPT * np.exp(np.abs(zbest[idx].imag))
            done = done | floor
        active[idx[done | bad]] = False
    accept = fbest <= NEWTON_ACCEPT * np.exp(np.abs(zbest.imag))
    ok = strict | accept
    z = np.where(strict, z, zbest)
    return z, ok, strict


def _cluster(points: np.ndarray, tol: float = 1e-8) -> list[np.ndarray]:
    """Group nearby converged iterates; returns member arrays."""
    groups: list[list[complex]] = []
    for z in points:
        for g in groups:
            if abs(z - g[0]) <= tol:
                g.append(z)
                break
        else:
            groups.append([z])
    return [np.array(g) for g in groups]


def _multiplicity_by_contour(
    p: Potential, center: complex, spread: float, sign: int
) -> int | None:
    contour = (_circle(center, max(3e-7, 5.0 * spread)), (64,), sign)
    return _windings(p, [contour])[0]


def _polish_leaves(
    p: Potential, leaves: list[_Cell], failures: list
) -> dict[int, list[tuple[complex, float]]]:
    """Newton polishing of every leaf; returns roots per disk index.

    A leaf of count w starts from its center and, for w > 1, from
    max(4, 2w) points on a ring around it.  The clusters of its converged
    iterates take the counts of their contours, up to w in all; roots that
    no cluster accounts for stay missing, so the caller reports the disk.
    A start that Newton leaves unconverged is dropped, and a leaf with no
    converged iterate gets a failure ``(n, text)``.  The
    residuals of every leaf's roots take one engine call.
    """
    starts: list[complex] = []
    ends: list[int] = []  # leaf i owns starts[ends[i - 1] : ends[i]]
    for c in leaves:
        starts.append(c.center)
        if c.wind > 1:
            k = max(4, 2 * c.wind)
            ring = c.center + (c.size / 3.0) * np.exp(2j * np.pi * np.arange(k) / k)
            starts.extend(complex(z) for z in ring)
        ends.append(len(starts))
    signs = np.repeat(_sign([c.n for c in leaves]), np.diff([0, *ends]))
    zs, ok, strict = _newton_batch(p, np.array(starts, dtype=np.complex128), signs)

    out: dict[int, list[tuple[complex, float]]] = {}
    found: list[tuple[int, complex, int]] = []  # (disk index, root, multiplicity)
    for c, lo, hi in zip(leaves, [0, *ends], ends):
        z = zs[lo:hi]
        # keep iterates that stayed near the leaf (wild escapes belong elsewhere)
        keep = ok[lo:hi] & (np.abs(z - c.center) <= 4.0 * max(c.size, 1e-3))
        if not keep.any():
            failures.append((c.n, f"no converged root for cell near {c.center:.6g}"))
            continue
        # noise-stalled accepts are only located to their walk radius
        groups = _cluster(z[keep], tol=1e-8 if strict[lo:hi][keep].all() else 1e-5)
        groups.sort(key=lambda g: abs(np.mean(g) - c.center))
        out.setdefault(c.n, [])
        left = c.wind
        for g in groups:
            if left <= 0:
                break
            zc = complex(np.mean(g))
            spread = float(np.max(np.abs(g - zc))) if g.size > 1 else 0.0
            # with one root left, any count is clamped to 1
            m = _multiplicity_by_contour(p, zc, spread, _sign(c.n)) if left > 1 else 1
            if m is None or m < 1:
                m = 1
            m = min(m, left)
            found.append((c.n, zc, m))
            left -= m
    if found:
        ns, zcs, ms = zip(*found)
        ds = d_pm_grid(p, np.array(zcs), _sign(np.array(ns)))
        for n, zc, m, d in zip(ns, zcs, ms, ds):
            out[n].extend([(zc, abs(complex(d)))] * m)
    return out


# ----------------------------------------------------------------------------
# roots from the count circle's moments
# ----------------------------------------------------------------------------


def _moment_starts(samples: list[np.ndarray], centers, radii):
    """Moment count s_0 and three zeros from each sampled circle, as (s_0, zeros).

    ``samples[i]`` holds an analytic f at ``centers[i] + radii[i] u_j`` with
    ``u_j = e^{2 pi i j / N}``.  The FFT gives f's Taylor coefficients in u
    and so ``u f'/f`` on the circle; its trapezoid means against ``u^k``
    are the power sums s_k, k = 0..3, of the zeros' u inside the circle.
    Newton's identities turn s_1..s_3 into the monic cubic of three zeros,
    whose roots are the eigenvalues of its companion matrix.
    """
    sums = []
    for f in samples:
        uf = np.fft.ifft(np.arange(f.size) * np.fft.fft(f))
        sums.append(np.fft.ifft(uf / f)[:4])
    s = np.array(sums).reshape(-1, 4)
    e1 = s[:, 1]
    e2 = (e1 * s[:, 1] - s[:, 2]) / 2.0
    e3 = (e2 * s[:, 1] - e1 * s[:, 2] + s[:, 3]) / 3.0
    companion = np.zeros((len(s), 3, 3), dtype=np.complex128)
    companion[:, 0] = np.stack([e1, -e2, e3], axis=-1)
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    u = np.linalg.eigvals(companion)
    return s[:, 0], np.asarray(centers)[:, None] + np.asarray(radii)[:, None] * u


def _moment_roots(
    p: Potential, circles: dict[int, tuple[float, np.ndarray]]
) -> dict[int, list[tuple[complex, float]]]:
    """Certified roots with their residuals, per disk, from the disks' count circles.

    *circles* maps a disk index n of count 3 to its count circle
    ``(r, values)`` around pi n.  A disk keeps the three roots of its
    moment cubic only if round(s_0) is 3, the roots are distinct and inside
    the circle, and a circle of half the nearest neighbour's distance around
    each root counts exactly one zero; those circles share one ``_windings``
    call, and each one's samples then place its root (``_taylor_root``).
    Other disks are left out.
    """
    ns = list(circles)
    if not ns:
        return {}
    centers = np.pi * np.array(ns, dtype=float)
    radii = np.array([circles[n][0] for n in ns])
    s0, z = _moment_starts([circles[n][1] for n in ns], centers, radii)
    signs = np.repeat(_sign(ns), 3).reshape(-1, 3)
    inside = np.abs(z - centers[:, None]) < radii[:, None]
    gaps = np.abs(z[:, :, None] - z[:, None, :]) + np.diag([np.inf] * 3)
    half = 0.5 * gaps.min(axis=2)
    keep = np.flatnonzero((np.rint(s0.real) == 3) & (inside & (half > 0)).all(axis=1))
    around = list(zip(z[keep].flat, half[keep].flat))
    vals: list = [None] * len(around)
    contours = [(_circle(c, r), _ROOT_SCHEDULE, sg) for (c, r), sg in zip(around, signs[keep].flat)]
    winds = _windings(p, contours, vals)
    cert = np.flatnonzero(np.reshape([w == 1 for w in winds], (-1, 3)).all(axis=1))
    if not len(cert):
        return {}
    roots = np.array([[_taylor_root(vals[j], *around[j]) for j in range(3 * i, 3 * i + 3)]
                      for i in cert])
    res = np.abs(d_pm_grid(p, roots.ravel(), signs[keep[cert]].ravel())).reshape(-1, 3)
    return {
        ns[keep[i]]: [(complex(zk), float(rk)) for zk, rk in zip(zs, r)]
        for i, zs, r in zip(cert, roots, res)
    }


def _taylor_root(f: np.ndarray, center: complex, radius: float) -> complex:
    """The zero inside a circle that holds exactly one, from D's samples on it.

    The FFT of the samples gives D's Taylor coefficients in ``u = (lam -
    center) / radius``, each a mean over the circle; Newton on that
    polynomial from u = 0 places the zero to D's rounding noise over the
    square root of the sample count.  A Newton iterate on D itself stops
    at that noise, which near a cluster, where |D'| is small, is several
    1e-7 in lam.  Returns *center* if u leaves the inner half of the circle.
    """
    b = np.fft.fft(f)[::-1] / f.size
    db = np.polyder(b)
    u = 0j
    for _ in range(8):
        u = u - np.polyval(b, u) / np.polyval(db, u)
    return complex(center + radius * u) if abs(u) < 0.5 else complex(center)


# ----------------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------------


@dataclass
class EigenEntry:
    n: int
    j: int
    z: complex
    parity: str
    residual: float


@dataclass
class EigenvalueTable:
    entries: list[EigenEntry]
    window: tuple[int, int]
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def by_n(self, n: int) -> list[EigenEntry]:
        return [e for e in self.entries if e.n == n]

    def ns(self) -> list[int]:
        return sorted({e.n for e in self.entries})


def _disk_roots(
    p: Potential, ns: list[int], failures: list, notes: list
) -> dict[int, list[tuple[complex, float]]]:
    """Locate the roots of the disks |lam - pi n| <= 1/2 for n in *ns*.

    Disks of count 3 take the certified roots of their count circles'
    moments; every other disk is subdivided from its enclosing square and
    polished.  Failures and notes are appended as ``(n, text)``.
    """
    samples: list = [None] * len(ns)
    counts = count_in_disk(p, [np.pi * n for n in ns], 0.5, _sign(ns), samples)
    out = _moment_roots(p, {n: c for n, w, c in zip(ns, counts, samples) if w == 3})
    rest = [(n, w) for n, w in zip(ns, counts) if n not in out]
    # the enclosing squares of all the other disks share one batch
    squares = [_Cell(n, np.pi * n - 0.5, -0.5, 1.0, 1.0, 0) for n, _ in rest]
    winds = _windings(p, [_square(c) for c in squares])
    tops: list[_Cell] = []
    for (n, cnt), cell, w in zip(rest, squares, winds):
        if cnt is None:
            failures.append((n, f"disk n={n}: contour-through-zero persists near "
                                f"center={np.pi * n:.6g} radius=0.5 after radius nudges"))
        if w is None:
            failures.append((n, f"disk n={n}: enclosing square contour through zero"))
            continue
        if cnt is not None and w != cnt:
            failures.append((n, f"disk n={n}: square count {w} differs from disk count {cnt}"))
        if cnt is not None and cnt != 3:
            failures.append((n, f"disk n={n}: expected 3 zeros in disk, counted {cnt}"))
        cell.wind = w
        tops.append(cell)
    leaves = _subdivide(p, tops, notes)
    out.update(_polish_leaves(p, leaves, failures))
    return out


def _by_parity(messages: list) -> list[str]:
    """The texts of ``(n, text)`` messages: even n first, each parity in its own order."""
    return [text for _, text in sorted(messages, key=lambda m: m[0] % 2)]


def eigenvalues_in_window(p: Potential, n_min: int, n_max: int) -> EigenvalueTable:
    """Locate all three eigenvalues in every disk |lam - pi n| <= 1/2.

    Disks whose zero count is not 3 are reported in ``failures`` and still
    searched; per-root failures never abort the window.  The disks of both
    parities go through one ``_disk_roots`` call; failures and notes still
    come parity by parity, periodic first.  A window of more than
    ``MAX_WINDOW_DISKS`` disks raises ``ConfigError``.
    """
    if n_max < n_min:
        raise ConfigError(f"empty index window [{n_min}, {n_max}]")
    if n_max - n_min + 1 > MAX_WINDOW_DISKS:
        raise ConfigError(f"index window [{n_min}, {n_max}] exceeds {MAX_WINDOW_DISKS} disks")
    failures: list = []
    notes: list = []
    entries: list[EigenEntry] = []
    ns = list(range(n_min, n_max + 1))
    per_disk = _disk_roots(p, ns, failures, notes)
    for n in ns:
        pname = "periodic" if n % 2 == 0 else "antiperiodic"
        got = per_disk.get(n, [])
        got.sort(key=lambda zr: (zr[0].real, zr[0].imag))
        if len(got) != 3:
            failures.append((n, f"disk n={n}: located {len(got)} of 3 roots"))
        for j, (z, res) in enumerate(got, start=1):
            if res > RESIDUAL_TOL * np.exp(abs(z.imag)):
                failures.append((n, f"root n={n} j={j}: residual {res:.3e} above tolerance"))
            entries.append(EigenEntry(n, j, z, pname, res))
    entries.sort(key=lambda e: (e.n, e.j))
    return EigenvalueTable(entries, (n_min, n_max), _by_parity(failures), _by_parity(notes))


# ----------------------------------------------------------------------------
# asymptotics and reconstruction
# ----------------------------------------------------------------------------


def asymptotic_residuals(table: EigenvalueTable, p: Potential) -> dict:
    """Deviation of each cluster from the first-order pattern pi n + zeta |v^(pi n)|.

    zeta runs over (-1, 0, +1) matched to the sorted cluster.  Returns per-n
    deviations, the running partial sums of deviation**SUMMABILITY_EXPONENT
    ordered by |n|, and an empirical decay exponent fitted on log-log scale.
    """
    ns = table.ns()
    devs: dict[int, np.ndarray] = {}
    zeta = np.array([-1.0, 0.0, 1.0])
    for n in ns:
        es = table.by_n(n)
        if len(es) != 3:
            continue
        hat = fourier_hat(p, np.pi * n)
        mag = float(np.linalg.norm(hat))
        pred = np.pi * n + zeta * mag
        zs = np.array([e.z for e in es])
        devs[n] = np.abs(zs - pred)
    order = sorted(devs, key=abs)
    flat = np.concatenate([devs[n] for n in order]) if order else np.empty(0)
    partial = np.cumsum(flat**SUMMABILITY_EXPONENT)
    rate = None
    large = [n for n in order if abs(n) >= 3 and devs[n].max() > 0]
    if len(large) >= 4:
        x = np.log(np.abs([float(n) for n in large]))
        y = np.log([float(devs[n].max()) for n in large])
        rate = float(np.polyfit(x, y, 1)[0])
    return {
        "deviations": devs,
        "partial_sums": partial,
        "delta": SUMMABILITY_EXPONENT,
        "decay_exponent": rate,
    }


def recover_traces(dp: complex, dm: complex, lam: complex):
    """Invert the two characteristic values back to the trace pair."""
    e = np.exp(1j * lam)
    t = (dm + dp) / 2.0 - e
    s = (dm - dp) / (2.0 * e) - 1.0 / e
    return t, s

