"""Reference implementations that the tests play against the production code.

None of this runs in the package.  Each oracle computes what a production
routine computes by an independent method:

* ``expm_stack3`` / ``expm_dense`` -- matrix exponentials by Pade-13 scaling
  and squaring (never eigendecomposition; the generators are non-normal for
  complex spectral parameters), stacked 3x3 and dense n x n;
* ``pade_psi`` -- the period propagator with every step exponential taken by
  Pade instead of the production spectral kernel;
* ``picard_monodromy`` -- the propagator's expansion in powers of the
  potential, term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from manakov_spectra.algebra import adj3, det3
from manakov_spectra.monodromy import _check_range, _runs_of, _split_runs, _tree_product
from manakov_spectra.potential import Potential

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


def solve3(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Solve ``q @ x = p`` for (..., 3, 3) stacks via the adjugate.

    Intended for well-conditioned systems (Pade denominators); avoids the
    per-matrix LAPACK dispatch cost of ``np.linalg.solve`` on large stacks.
    """
    a = adj3(q)
    d = det3(q)
    return np.matmul(a, p) / d[..., None, None]


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
# Pade step kernel
# ----------------------------------------------------------------------------


def _steps_pade(lam: np.ndarray, vals: np.ndarray, widths: np.ndarray):
    """Step matrices and dets like ``monodromy._steps_spectral``'s, by Pade-13."""
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
    e = expm_stack3(a)
    return e, det3(e)


def pade_psi(p: Potential, lam: complex) -> np.ndarray:
    """Period propagator at one parameter, every step exponential by Pade.

    Runs, step splitting and the ordered tree product are the production
    engine's, so only the step kernel differs from
    ``monodromy_grid(p, [lam], want_psi=True)["psi"][0]``.
    """
    lam_arr = np.array([lam], dtype=np.complex128)
    _check_range(lam_arr)
    vals, widths = _runs_of(p)
    vals, widths = _split_runs(vals, widths, abs(lam_arr[0].imag))
    e, _ = _steps_pade(lam_arr, vals, widths)
    return _tree_product(e)[0]


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
    vals, widths = _runs_of(p)
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
