"""Dense oracles and helpers that only the test suite reads.

The production pipeline (grid -> certified transform -> TraceComputation)
never forms these objects; the tests use them to check the pipeline against
independent dense constructions:

- field arithmetic: left multiplication matrices, the module, annulus
  measures, a grid's trapezoid weights in log t and its index reversal,
  sampled radial profiles and their additive/multiplicative pictures,
  multiplicative inversion;
- the sphere-average Monte-Carlo kernel and the closed-form transforms of
  the scaled Gaussians;
- dense integral operators on a radial grid (``KernelOperator``, its
  algebra, cutoffs, translations and two assemblies of U_f);
- the dense n x n matrix of a radial transform, and the transform's
  full-spectrum construction (complex FFTs over every frequency);
- route C's signed grid on the whole real line and its dense complex
  transform (``full_line_grid``);
- the lattice moments (route B, f(1), H(f)(1)) as weighted sums over the
  product lattice with their strips in closed form, and route A's box
  pairing by direct convolution of the cell weights;
- the exact T(lam) and H(f)(1) on R from the sine integral, with no grid;
- the finite-group sandbox built entry by entry: cyclic Cayley tables and
  characters by loops over coordinate tuples, the left and right
  translations as permutation matrices, and the Reynolds projector as a sum
  of Kronecker products with one full eigh;
- the JSON Schema of a sweep config (``CONFIG_SCHEMA``);
- the peak resident-set rise of a step run in a fresh interpreter.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy.special import sici

from loctrace.fields import FieldBackend, RadialGrid
from loctrace.cutoff_trace import TraceComputation
from loctrace.fourier import FourierOperator
from loctrace.kernels import mellin_symbol
from loctrace.operators import TestFunction

log = logging.getLogger("loctrace")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def left_multiplication_matrix(field_id: str, g) -> np.ndarray:
    """Matrix of x -> g*x on the euclidean coordinates of the field."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if field_id == "R":
        if g.shape != (1,):
            raise ValueError("R element must be a single coordinate")
        return g.reshape(1, 1)
    if field_id == "C":
        if g.shape != (2,):
            raise ValueError("C element must have 2 coordinates")
        a, b = g
        return np.array([[a, -b], [b, a]])
    if field_id == "H":
        if g.shape != (4,):
            raise ValueError("H element must have 4 coordinates")
        a, b, c, d = g
        return np.array(
            [
                [a, -b, -c, -d],
                [b, a, -d, c],
                [c, d, a, -b],
                [d, -c, b, a],
            ]
        )
    raise ValueError(f"unknown field id {field_id!r}")


def module_of_matrix(field_id: str, g) -> float:
    """Module m(g) = |det L_g|, the additive-Haar scaling factor of x -> g*x.

    Multiplicative: m(gh) = m(g) m(h).  Raises for g = 0.
    """
    mat = left_multiplication_matrix(field_id, g)
    if not np.any(mat):
        raise ValueError("module of 0 is undefined")
    return float(abs(np.linalg.det(mat)))


def annulus_measure(t1: float, t2: float) -> float:
    """Multiplicative measure of {t1 <= m(y) <= t2}: log(t2/t1)."""
    if t1 <= 0:
        raise ValueError("annulus requires t1 > 0")
    if t2 < t1:
        raise ValueError("annulus requires t2 >= t1")
    return math.log(t2 / t1)


def mult_weights(grid: RadialGrid) -> np.ndarray:
    """The trapezoid weights for d*t in log t on ``grid``: its step, halved at both ends.
    ``make_grid`` forms its w_add as omega t times these."""
    w = np.full(grid.n, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_reversal(grid: RadialGrid) -> np.ndarray:
    """The index reversal i -> n-1-i, which is inversion t -> 1/t on a grid symmetric about 1."""
    return np.arange(grid.n)[::-1]


@dataclass
class RadialFunction:
    """Samples of a radial profile on a RadialGrid (value at module t[i])."""

    grid: RadialGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if self.samples.shape != (self.grid.n,):
            raise ValueError("sample count must match the grid")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def norm_mult(self) -> float:
        return float(np.sqrt(np.sum(mult_weights(self.grid) * np.abs(self.samples) ** 2)))

    def norm_add(self) -> float:
        return float(np.sqrt(np.sum(self.grid.w_add * np.abs(self.samples) ** 2)))


def to_additive(h: RadialFunction) -> RadialFunction:
    """Multiplicative-picture profile -> additive representative h/sqrt(omega*t)."""
    g = h.grid
    return RadialFunction(g, h.samples / np.sqrt(g.backend.omega * g.t))


def to_multiplicative(h_a: RadialFunction) -> RadialFunction:
    """Inverse of to_additive; the round trip is the identity to one ulp."""
    g = h_a.grid
    return RadialFunction(g, h_a.samples * np.sqrt(g.backend.omega * g.t))


def inversion(f: RadialFunction) -> RadialFunction:
    """Multiplicative inversion t -> 1/t: the exact index reversal."""
    g = f.grid
    if not np.allclose(g.log_t + g.log_t[::-1], 0.0, atol=1e-12):
        raise ValueError("inversion needs a grid symmetric about t = 1")
    return RadialFunction(g, f.samples[::-1].copy())


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def sphere_average_mc(backend: FieldBackend, u: float, n_samples: int, seed: int) -> float:
    """Monte-Carlo sphere average of the character at module u (test oracle).

    Samples points uniformly on the unit euclidean sphere and averages
    cos(2 pi * character_scale * reduced_trace(radius * sigma)).
    """
    rng = np.random.default_rng(seed)
    d = backend.euclidean_dim
    radius = u ** (1.0 / d)
    pts = rng.standard_normal((n_samples, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if d == 1:
        tr = pts[:, 0] * radius
    else:
        tr = 2.0 * pts[:, 0] * radius  # reduced trace = twice the real part
    return float(np.mean(np.cos(2.0 * np.pi * backend.character_scale * tr)))


def scaled_gaussian_transform(field_id: str, a: float, t) -> np.ndarray:
    """Closed-form radial Fourier transform of scaled_gaussian."""
    t = np.asarray(t, dtype=float)
    if field_id == "R":
        return a**-0.5 * np.exp(-np.pi * t**2 / a)
    if field_id == "C":
        return (1.0 / a) * np.exp(-2.0 * np.pi * t / a)
    if field_id == "H":
        return a**-2.0 * np.exp(-2.0 * np.pi * np.sqrt(t) / a)
    raise ValueError(f"unknown field id {field_id!r}")


# ---------------------------------------------------------------------------
# dense operator algebra over radial grids
#
# Matrices store kernel-times-column-weight, so composition is the plain
# matrix product, the trace is the plain matrix trace, and the weighted
# Hilbert-Schmidt pairing divides the weights back out.  Shifts are exact
# index translations; the multiplicative convolution operator samples its
# profile on the integer step lattice so that no interpolation ever happens.
# ---------------------------------------------------------------------------


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
        return self.grid.w_add if self.picture == "additive" else mult_weights(self.grid)

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
        log.warning("cutoff %g lies outside the grid range [%g, %g]", lam, grid.t[0], grid.t[-1])
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


# ---------------------------------------------------------------------------
# the dense radial transform
# ---------------------------------------------------------------------------


def dense_symmetrized(grid: RadialGrid) -> np.ndarray:
    """Dense S[i, j] = hankel[(i + j) % n] of the full-spectrum generator on ``grid``: the
    measure-symmetrized transform, a circulant times the index reversal."""
    n = grid.n
    return FullSpectrumFourier(grid).hankel[np.add.outer(np.arange(n), np.arange(n)) % n]


def fourier_matrix(op: FourierOperator) -> np.ndarray:
    """Additive-picture action matrix: (F phi)_i = sum_j matrix[i,j] phi_j.

    matrix[i][j] / w_add[j] depends on t_i * t_j only (exact Hankel
    product-dependence away from the half-weighted endpoints).
    """
    r = np.sqrt(op.grid.backend.omega * op.grid.t)
    return dense_symmetrized(op.grid) * (r[None, :] / r[:, None])


class FullSpectrumFourier:
    """The radial transform built over the whole spectrum, nu < 0 included.

    The symbol is evaluated at every ``fftfreq`` frequency and every step
    is a complex FFT whose real part is kept; the production
    ``FourierOperator`` uses the Hermitian half spectrum and must agree.
    ``hankel`` generates the dense n x n matrix of the transform
    (``dense_symmetrized``), which the production transform never forms.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        n, h, L = grid.n, grid.step, grid.log_t_half_range
        fid = grid.backend.field_id
        nu = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        D = mellin_symbol(fid, -nu) * np.exp(2j * nu * L)
        D[n // 2] = 1.0 if D[n // 2].real >= 0 else -1.0
        self.hankel = np.real(np.fft.fft(D) / n)
        self._Bl = 2 * n
        self._Np = 4 * n
        self._Xi0 = -L - self._Bl * h
        self._nup = 2.0 * np.pi * np.fft.fftfreq(self._Np, d=h)
        self._khp = mellin_symbol(fid, -self._nup)
        self._khp[self._Np // 2] = 0.0
        p = np.arange(2 * n - 1)
        self.product_log_t = -2.0 * L + h * p

    def _padded_spectrum(self, phi: np.ndarray) -> np.ndarray:
        g = self.grid
        omega = g.backend.omega
        kap = 2.0 / g.backend.euclidean_dim
        t0, t1 = g.t[0], g.t[1]
        ph0, ph1 = float(phi[0]), float(phi[1])
        if ph0 == 0.0 and ph1 == 0.0:
            alpha = beta = 0.0
        else:
            beta = (ph1 - ph0) / (t1**kap - t0**kap)
            alpha = ph0 - beta * t0**kap
        up = np.zeros(self._Np)
        tl = np.exp(self._Xi0 + g.step * np.arange(self._Bl))
        up[: self._Bl] = np.sqrt(omega * tl) * (alpha + beta * tl**kap)
        up[self._Bl : self._Bl + g.n] = np.sqrt(omega * g.t) * phi
        return np.fft.fft(up)

    def _evaluate(self, phi, log_t: np.ndarray) -> np.ndarray:
        b = self._padded_spectrum(np.asarray(phi, dtype=float)) * self._khp / self._Np
        shift = np.exp(-1j * self._nup * (log_t[0] + self._Xi0))
        v = np.real(np.fft.fft(b * shift))[: len(log_t)]
        return v / np.sqrt(self.grid.backend.omega * np.exp(log_t))

    def apply(self, phi) -> np.ndarray:
        return self._evaluate(phi, self.grid.log_t)

    def apply_product_lattice(self, phi) -> np.ndarray:
        return self._evaluate(phi, self.product_log_t)

    def spectral_defect(self) -> float:
        """||S^2 - I||_F / sqrt(n) of S = dense_symmetrized(grid), from its spectrum:
        S^2 is circulant with eigenvalues lam_k lam_{-k}, lam = fft(hankel)."""
        lam = np.fft.fft(self.hankel)
        lam_neg = np.roll(lam[::-1], 1)  # lam_{-k mod n}
        return float(np.sqrt(np.mean(np.abs(lam * lam_neg - 1.0) ** 2)))


# ---------------------------------------------------------------------------
# route C's signed grid on the whole real line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullLineGrid:
    """The n-point signed grid of route C on the whole real line, and its dense transform.

    x is the positive half-grid x_j = (j + 1/2) step, step = 1/sqrt(n), mirrored
    onto the negative half: symmetric, with no point at 0.  It is derived here by
    concatenation, not from ``signed_point``, so route C's plan and panels meet
    an independent grid.
    """

    n: int
    step: float
    x: np.ndarray = field(repr=False)

    @property
    def positive(self) -> np.ndarray:
        """The positive half-grid x_0 < ... < x_{n/2-1}, the points of route C's even sector."""
        return self.x[self.n // 2 :]

    @property
    def extent(self) -> float:
        """The largest point x_{n/2-1}."""
        return float(self.x[-1])

    def fourier_matrix(self) -> np.ndarray:
        """Dense F[j, k] = step e^{-2 pi i x_j x_k}: the full-line transform on the grid."""
        return np.exp(-2j * np.pi * np.outer(self.x, self.x)) * self.step


def full_line_grid(n: int) -> FullLineGrid:
    xp = (np.arange(n // 2) + 0.5) * (1.0 / math.sqrt(n))
    return FullLineGrid(n=n, step=1.0 / math.sqrt(n), x=np.concatenate([-xp[::-1], xp]))


# ---------------------------------------------------------------------------
# lattice moments and route A, term by term
# ---------------------------------------------------------------------------


def lattice_moment_by_weighted_sum(
    comp: TraceComputation, weight, strip: float, invert: bool = True
) -> float:
    """sqrt(omega) omega int_0^inf w K G dt as one weighted sum over the product lattice.

    ``weight`` is w at each lattice point, and each cell adds its rectangle
    w K G t h; ``strip`` is int_0^{t_f} w dt in closed form, the weight's
    integral below the lattice floor t_f = e^{mu_0 - h/2}, where K G is its
    first lattice value.
    """
    KG = comp.K_p * comp.transform_of_inverted(invert)
    total = np.sum(weight * KG * comp.t_p * comp.h) + KG[0] * strip
    return float(comp.sqrt_omega * comp.omega * total)


def route_b_by_weighted_sum(comp: TraceComputation, lam: float) -> float:
    """Route B: the annulus weight max(2 log lam - log t, 0), whose strip up to
    u = min(lam^2, t_f) is int_0^u (2 log lam - log t) dt = u (2 log lam - log u + 1)."""
    two_ell = 2.0 * math.log(lam)
    log_u = min(two_ell, float(comp.mu[0]) - comp.h / 2.0)
    weight = np.maximum(two_ell - comp.mu, 0.0)
    return lattice_moment_by_weighted_sum(comp, weight, math.exp(log_u) * (two_ell - log_u + 1.0))


def first_moment_by_weighted_sum(comp: TraceComputation) -> float:
    log_f = float(comp.mu[0]) - comp.h / 2.0
    return lattice_moment_by_weighted_sum(comp, np.ones_like(comp.mu), math.exp(log_f))


def conductor_by_weighted_sum(comp: TraceComputation, invert: bool = True) -> float:
    """The log moment; int_0^{t_f} log t dt = t_f (log t_f - 1)."""
    log_f = float(comp.mu[0]) - comp.h / 2.0
    return lattice_moment_by_weighted_sum(comp, comp.mu, math.exp(log_f) * (log_f - 1.0), invert)


def route_a_by_convolution(comp: TraceComputation, lam: float) -> float:
    """Route A with its box pairing as the direct O(n^2) convolution of the cell weights.

    w_i = omega (e^hi_i - e^lo_i) over the cells [lo_i, hi_i] clipped at
    log(lam); the box is sum_{i, j} w_i w_j (K G)[i + j] / sqrt(omega).  The
    box runs in extended precision (``np.longdouble``): in float64 the cell
    edges x_i +- h/2 are rounded to ulp(x_i), which moves each w_i by up to
    about 1e-12 relative on wide fine grids.  The strips and the corner read
    the shared prefix ``TraceComputation.prefixes``.
    """
    ell = math.log(lam)
    g = comp.grid
    G = comp.transform_of_inverted()
    x = g.log_t.astype(np.longdouble)
    half = np.longdouble(comp.h) / 2
    lo_x, hi_x = x - half, np.minimum(x + half, np.longdouble(ell))
    w_box = comp.omega * np.where(hi_x > lo_x, np.exp(hi_x) - np.exp(lo_x), 0.0)
    conv = np.convolve(w_box, w_box)
    box = float(np.sum(conv * comp.K_p * G) / comp.sqrt_omega)
    P0 = comp.prefixes()[0]
    x_floor = math.exp(g.log_t[0] - comp.h / 2.0)
    # the strip pairs each cell's clipped log-width with the prefix at x_floor t_j
    strip = float(np.sum(np.maximum(np.asarray(hi_x - lo_x, dtype=float), 0.0) * P0[: g.n]))
    corner = float(P0[0]) * min(lam, x_floor) ** 2 / math.exp(comp.log_floor)
    return box + 2.0 * strip + corner


# ---------------------------------------------------------------------------
# the exact cutoff trace on R
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes per panel of exact_trace_r, and its least panel count
EXACT_NODES = 40
EXACT_PANELS = 400


def exact_trace_r(f: TestFunction, lam: float) -> float:
    """T(lam) on R from its closed form, with no grid and no FFT.

    T(lam) = (1/pi) int_0^inf g(s) [Si(a (s+1)) / (s+1) + Si(a (s-1)) / (s-1)] ds,
    g(s) = f(1/s) s^{-1/2}, a = 2 pi lam^2: the continuum route C trace
    int_0^lam dv int dy U_e(v, y) D(y, v), with the cutoff's kernel
    D(y, v) = sin(2 pi lam (y+v)) / (pi (y+v)) + sin(2 pi lam (y-v)) / (pi (y-v)),
    y = v s, and Dirichlet's integral int_0^lam sin(c v)/v dv = Si(c lam) for the v
    integral (Abramowitz & Stegun 5.2.1).  In tau = log s the integrand is
    f.of_log(-tau) e^{tau/2} times the bracket, smooth (the second term is a at s = 1)
    and supported in |tau| < support_radius; composite Gauss-Legendre there.  The
    bracket's phase runs at up to a e^R per unit of tau, so the panels are at least
    EXACT_PANELS and give at least half a node per radian of it: 400 panels alone were
    8.9e-4 off at lam 64 (default profile) and 1.3e-10 at lam 32 (centre 0.4, width 1).
    Doubling the panels moves the value by at most 4e-15 relative over the profiles
    and lams the tests use.
    """
    rho = f.support_radius
    a = 2.0 * math.pi * lam**2
    panels = max(EXACT_PANELS, math.ceil(rho * a * math.exp(rho) / EXACT_NODES))
    x, w = np.polynomial.legendre.leggauss(EXACT_NODES)
    edges = np.linspace(-rho, rho, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    tau = (edges[:-1, None] + half * (x + 1.0)).ravel()
    s_minus = np.expm1(tau)  # s - 1, without cancellation near s = 1
    s_plus = s_minus + 2.0
    bracket = sici(a * s_plus)[0] / s_plus + sici(a * s_minus)[0] / s_minus
    integrand = f.of_log(-tau) * np.exp(0.5 * tau) * bracket
    return float(np.sum((half * w).ravel() * integrand) / math.pi)


def exact_conductor_r(f: TestFunction) -> float:
    """H(f)(1) as 2 log(64) f(1) - T(64): the asymptote's constant, its tail beyond
    lam 64 below rounding (the lam 16 to 128 values agree to 2e-14)."""
    return 2.0 * math.log(64.0) * f(1.0) - exact_trace_r(f, 64.0)


# ---------------------------------------------------------------------------
# finite-group sandbox
# ---------------------------------------------------------------------------


def cyclic_table_by_loops(factors) -> np.ndarray:
    """Cayley table of Z_f1 x ... x Z_fr, entry by entry over coordinate tuples.

    Elements are indexed by their coordinates in ``itertools.product`` order.
    """
    coords = list(itertools.product(*[range(n) for n in factors]))
    index = {x: i for i, x in enumerate(coords)}
    def add(a, b):
        return index[tuple((x + y) % n for x, y, n in zip(a, b, factors))]

    return np.array([[add(a, b) for b in coords] for a in coords], dtype=int)


def characters_by_loops(factors) -> np.ndarray:
    """chi_a(x) = exp(2 pi i sum a_i x_i / f_i), entry by entry, rows and columns as above."""
    coords = list(itertools.product(*[range(n) for n in factors]))
    chars = np.zeros((len(coords), len(coords)), dtype=complex)
    for a_idx, a in enumerate(coords):
        for x_idx, x in enumerate(coords):
            phase = sum(ai * xi / ni for ai, xi, ni in zip(a, x, factors))
            chars[a_idx, x_idx] = np.exp(2j * np.pi * phase)
    return chars


def left_translation_operator(group, g: int) -> np.ndarray:
    """(L_g phi)(x) = phi(g^{-1} x) as a permutation matrix."""
    n = group.order
    mat = np.zeros((n, n))
    mat[group.table[g], np.arange(n)] = 1.0
    return mat


def right_translation_operator(group, g: int) -> np.ndarray:
    """(R_g phi)(x) = phi(x g) as a permutation matrix."""
    n = group.order
    mat = np.zeros((n, n))
    mat[np.arange(n), group.table[:, g]] = 1.0
    return mat


def reynolds_by_kron(operators) -> tuple[np.ndarray, list[np.ndarray]]:
    """K = (1/k) sum A (x) conj(A) as a sum of Kronecker products, and its fixed space.

    One full Hermitian eigh of K; the eigenvalue-1 eigenvectors, reshaped
    row-major to n x n, are an orthonormal basis of the commutant of a
    group image.  No input checks: the caller passes a group image.
    """
    ops = [np.asarray(a, dtype=complex) for a in operators]
    n = ops[0].shape[0]
    reynolds = sum(np.kron(a, a.conj()) for a in ops) / len(ops)
    w, v = np.linalg.eigh(reynolds)
    return reynolds, [col.reshape(n, n) for col in v[:, w > 0.5].T]


# ---------------------------------------------------------------------------
# peak memory
# ---------------------------------------------------------------------------


# peak() is the process's peak resident set in bytes, read from Linux's VmHWM:
# that starts afresh at exec, while ru_maxrss keeps the peak of the process
# that forked the interpreter, so a large test process hides any rise
_PEAK_SOURCE = """
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
"""


@functools.lru_cache(maxsize=None)
def _bytecode_environment() -> tuple[tempfile.TemporaryDirectory, dict]:
    """``peak_rise``'s environment: loctrace compiled once into a private bytecode
    cache (removed at exit), which its interpreters load instead of the sources."""
    cache = tempfile.TemporaryDirectory(prefix="loctrace-pyc-")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONPYCACHEPREFIX": cache.name}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import loctrace.cutoff_trace"], env=env, check=True)
    return cache, env


def peak_rise(script: str, *argv) -> int:
    """What ``script``, run in a fresh interpreter with ``argv``, prints: the
    rise of ``peak()`` over the step it measures.

    The interpreter loads loctrace from cached bytecode.  One that compiles
    the sources itself (no cache, or PYTHONDONTWRITEBYTECODE set) leaves the
    compiler's freed memory resident in the heap, and the step reuses it
    before it raises the peak: the set-up rise at n_signed 4096 then read 0 to
    172 KB as the sizes of the sources changed (a 40-character comment in
    sandbox.py moved it), against 627 KB from the cache on every checkout tried.
    """
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_SOURCE + script, *map(str, argv)],
        env=_bytecode_environment()[1], capture_output=True, text=True, check=True,
    )
    return int(out.stdout)


# ---------------------------------------------------------------------------
# the sweep config
# ---------------------------------------------------------------------------


# the JSON Schema the CLI validated sweep configs with before its key table;
# the key check must refuse what this refuses (and, beyond it, non-finite
# numbers, non-int grid sizes and file names that are not plain)
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["field", "grid", "test_function", "lambdas"],
    "additionalProperties": False,
    "properties": {
        "field": {"enum": ["R", "C", "H"]},
        "grid": {
            "type": "object",
            "required": ["log_t_half_range", "n"],
            "additionalProperties": False,
            "properties": {
                "log_t_half_range": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 2},
            },
        },
        "test_function": {
            "type": "object",
            "required": ["kind", "center", "width", "support_radius"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["log_gauss_bump"]},
                "center": {"type": "number"},
                "width": {"type": "number", "exclusiveMinimum": 0},
                "support_radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "lambdas": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "route_c": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "n_signed": {"type": "integer", "minimum": 2},
                "max_lambda": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "fit_gate_factor": {"type": "number", "exclusiveMinimum": 0},
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string"},
                "json": {"type": "string"},
            },
        },
    },
}
