"""Dense integral-operator algebra over radial grids.

Matrices store kernel-times-column-weight, so composition is the plain
matrix product, the trace is the plain matrix trace, and the weighted
Hilbert-Schmidt pairing divides the weights back out.  Shifts are exact
index translations; the multiplicative convolution operator samples its
profile on the integer step lattice so that no interpolation ever happens.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .fields import RadialGrid

log = logging.getLogger("loctrace")


@dataclass
class KernelOperator:
    """Dense operator on a grid; matrix[i, j] = kernel(t_i, t_j) * w[j]."""

    grid: RadialGrid
    matrix: np.ndarray
    picture: str = "additive"  # which measure weights the action
    boundary_clipped: bool = False

    def __post_init__(self) -> None:
        if self.picture not in ("additive", "multiplicative"):
            raise ValueError("picture must be 'additive' or 'multiplicative'")
        if self.matrix.shape != (self.grid.n, self.grid.n):
            raise ValueError("matrix shape must match the grid")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix entries must be finite")

    @property
    def weights(self) -> np.ndarray:
        return self.grid.w_add if self.picture == "additive" else self.grid.w_mult

    def kernel_values(self) -> np.ndarray:
        """Matrix with the column quadrature weight divided back out."""
        return self.matrix / self.weights[None, :]


def _check_compatible(a: KernelOperator, b: KernelOperator) -> None:
    if a.grid is not b.grid and not np.array_equal(a.grid.log_t, b.grid.log_t):
        raise ValueError("operators live on different grids")
    if a.picture != b.picture:
        raise ValueError("operators live in different pictures")


def compose(a: KernelOperator, b: KernelOperator) -> KernelOperator:
    """Operator product a∘b; quadrature weights sit inside the stored matrices."""
    _check_compatible(a, b)
    return KernelOperator(a.grid, a.matrix @ b.matrix, a.picture)


def adjoint(a: KernelOperator) -> KernelOperator:
    """Adjoint in the weighted inner product <phi, psi> = sum w phi* psi."""
    w = a.weights
    mat = (np.conj(a.matrix).T * w[None, :]) / w[:, None]
    return KernelOperator(a.grid, mat, a.picture)


def trace(a: KernelOperator) -> complex:
    """Sum of diagonal kernel values times weights = plain matrix trace.

    Only operators with smooth kernels have measure-stable traces; the
    discrete identity matrix traces to n, not to a continuum quantity.
    """
    return complex(np.trace(a.matrix))


def hs_inner(a: KernelOperator, b: KernelOperator) -> complex:
    """Hilbert-Schmidt pairing of the kernels: sum conj(k_a) k_b w_i w_j.

    Equals trace(compose(adjoint(a), b)) identically.
    """
    _check_compatible(a, b)
    w = a.weights
    ratio = w[:, None] / w[None, :]
    return complex(np.sum(np.conj(a.matrix) * b.matrix * ratio))


def singular_values(a: KernelOperator) -> np.ndarray:
    """Grid-intrinsic singular values via the sqrt-weight symmetrization."""
    w = a.weights
    r = np.sqrt(w)
    sym = (a.matrix * (r[:, None] / r[None, :])).astype(complex)
    return np.linalg.svd(sym, compute_uv=False)


def cutoff_projection(grid: RadialGrid, lam: float, picture: str = "additive") -> KernelOperator:
    """Diagonal 0/1 projection onto {t <= lam}; boundary points included."""
    if lam <= 0:
        raise ValueError("cutoff requires lam > 0")
    mask = grid.t <= lam * (1.0 + 1e-12)
    clipped = bool(mask.all() or not mask.any())
    if clipped:
        log.warning("cutoff %g lies outside the grid range [%g, %g]", lam, grid.t_min, grid.t_max)
    diag = np.where(mask, 1.0, 0.0)
    return KernelOperator(grid, np.diag(diag), picture, boundary_clipped=clipped)


def left_translation(grid: RadialGrid, s: float) -> KernelOperator:
    """Unitary scaled translation (L_s phi)(t) = e^{-s/2} phi(e^{-s} t).

    s must be an integer multiple of the grid step; values shifted off-grid
    are dropped (exact for interior-supported profiles).
    """
    h = grid.step
    m = s / h
    mi = int(round(m))
    if abs(m - mi) > 1e-9:
        raise ValueError(f"shift {s} is not a multiple of the grid step {h}")
    n = grid.n
    mat = np.zeros((n, n))
    scale = math.exp(-s / 2.0)
    # (L_s phi)(t_i) = e^{-s/2} phi(t_{i-m})
    i = np.arange(n)
    valid = (i - mi >= 0) & (i - mi < n)
    mat[i[valid], i[valid] - mi] = scale
    return KernelOperator(grid, mat, "additive")


# ---------------------------------------------------------------------------
# test profiles and the multiplicative convolution operator
# ---------------------------------------------------------------------------


def _smoothstep(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported profile on the log-module axis.

    f(t) = exp(-(log t - center)^2 / (2 width^2)) * plateau-mollifier, where
    the mollifier equals 1 for |log t| <= support_radius/2 and vanishes
    (smoothly) for |log t| >= support_radius.
    """

    __test__ = False  # not a pytest collection target

    center: float = 0.0
    width: float = 0.25
    support_radius: float = 1.5
    kind: str = "log_gauss_bump"

    def __post_init__(self) -> None:
        if self.kind != "log_gauss_bump":
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.width <= 0 or self.support_radius <= 0:
            raise ValueError("width and support_radius must be positive")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        pos = t > 0.0
        x = np.log(t[pos])
        vals = np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))
        vals *= _smoothstep(2.0 * (1.0 - np.abs(x) / self.support_radius))
        out[pos] = vals
        return float(out[0]) if scalar else out

    @property
    def value_at_1(self) -> float:
        """Exact analytic evaluation f(1)."""
        return math.exp(-self.center**2 / (2.0 * self.width**2))

    def l1_mult_norm(self, step: float) -> float:
        """Multiplicative L1 norm, quadratured on the integer step lattice."""
        mmax = int(math.floor(self.support_radius / step)) + 1
        m = np.arange(-mmax, mmax + 1)
        return float(np.sum(np.abs(self(np.exp(m * step)))) * step)

    def check_support(self, grid: RadialGrid) -> None:
        if self.support_radius >= grid.log_t_half_range:
            raise ValueError(
                "test-function support exceeds the grid range "
                f"(radius {self.support_radius} vs half-range {grid.log_t_half_range})"
            )


def u_f(grid: RadialGrid, f: TestFunction) -> KernelOperator:
    """Multiplicative convolution against f: the average of scaled translations.

    (U_f phi)(t_i) = sum_m f(e^{m h}) e^{-m h / 2} phi(t_{i-m}) h, a Toeplitz
    band; equals sum_m f(e^{mh}) h * left_translation(m h) entrywise.
    """
    f.check_support(grid)
    h = grid.step
    n = grid.n
    mmax = int(math.floor(f.support_radius / h)) + 1
    mat = np.zeros((n, n))
    for m in range(-mmax, mmax + 1):
        w = f(math.exp(m * h)) * math.exp(-m * h / 2.0) * h
        if w == 0.0:
            continue
        idx = np.arange(max(0, m), min(n, n + m))
        mat[idx, idx - m] += w
    return KernelOperator(grid, mat, "additive")


def u_f_from_translations(grid: RadialGrid, f: TestFunction) -> KernelOperator:
    """Independent assembly of u_f as an explicit sum of translation matrices."""
    f.check_support(grid)
    h = grid.step
    mmax = int(math.floor(f.support_radius / h)) + 1
    total = np.zeros((grid.n, grid.n))
    for m in range(-mmax, mmax + 1):
        w = f(math.exp(m * h)) * h
        if w == 0.0:
            continue
        total += w * left_translation(grid, m * h).matrix
    return KernelOperator(grid, total, "additive")
