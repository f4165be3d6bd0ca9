"""Cutoff trace of the averaged-translation operator, by independent routes.

For a smooth compactly supported profile f on the multiplicative module axis,
T(lam) is the trace of (Fourier-conjugated cutoff) * (cutoff) * (U_f).  Route A
evaluates it as a two-dimensional box pairing of the two kernels; route B as a
one-dimensional integral of the transform G of the inverted profile's additive
representative against the annulus weight (2 log lam - log t); route C (real
line only) literally multiplies dense matrices on a signed grid and takes the
matrix trace, in the even sector where the grid's transform is a real DCT-IV.  The asymptote 2 log(lam) f(1) - H(f)(1) and the computable tail
bound complete the picture.

Products of grid points live on the half-offset "product lattice"; all route
sums run there, t = 1 included exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import FieldBackend, RadialFunction, RadialGrid
from .fourier import (
    FourierOperator,
    FullLineFourier,
    SignedGrid,
    build_fourier,
    cutoff_block,
    full_line_fourier,
    make_signed_grid,
)
from .kernels import kernel_values
from .operators import TestFunction

log = logging.getLogger("loctrace")


def inversion(f: RadialFunction) -> RadialFunction:
    """Multiplicative inversion t -> 1/t: the exact index reversal."""
    g = f.grid
    if not np.allclose(g.log_t + g.log_t[::-1], 0.0, atol=1e-12):
        raise ValueError("inversion needs a grid symmetric about t = 1")
    return RadialFunction(g, f.samples[::-1].copy())


class TraceComputation:
    """Shared state for one (backend, grid, profile) trace study.

    Caches the product-lattice transform G and the kernel values so a lambda
    sweep costs one FFT pipeline total.
    """

    def __init__(
        self,
        backend: FieldBackend,
        grid: RadialGrid,
        f: TestFunction,
        fourier: FourierOperator | None = None,
    ):
        f.check_support(grid)
        self.backend = backend
        self.grid = grid
        self.f = f
        self.fourier = fourier if fourier is not None else build_fourier(backend, grid)
        self._G: dict[bool, np.ndarray] = {}
        pl = self.fourier.product_lattice
        self.mu = pl.log_t
        self.t_p = pl.t
        self.h = grid.step
        self.K_p = kernel_values(backend.field_id, self.t_p)
        self.sqrt_omega = math.sqrt(backend.omega)
        self.omega = backend.omega

    def transform_of_inverted(self, invert: bool = True) -> np.ndarray:
        """G on the product lattice, from I(f) (default) or from f itself."""
        if invert not in self._G:
            fv = self.f(self.grid.t)
            samples = fv[::-1] if invert else fv
            arep = samples / np.sqrt(self.omega * self.grid.t)
            self._G[invert] = self.fourier.apply_product_lattice(arep)
        return self._G[invert]

    # -- route B and its relatives -------------------------------------------

    def lattice_moment(self, weight: np.ndarray, G: np.ndarray | None = None) -> float:
        """sqrt(omega) * sum weight * K * G * t * h over the product lattice."""
        G = self.transform_of_inverted() if G is None else G
        return float(
            self.sqrt_omega
            * self.omega
            * np.sum(weight * self.K_p * G * self.t_p * self.h)
        )

    def route_b(self, lam: float, G: np.ndarray | None = None) -> float:
        ell = math.log(lam)
        w = np.maximum(2.0 * ell - self.mu, 0.0)
        return self.lattice_moment(w, G)

    def first_moment(self) -> float:
        """sqrt(omega) * (inverse transform of G at 1); recovers f(1)."""
        return self.lattice_moment(np.ones_like(self.mu))

    def conductor_value(self, invert: bool = True) -> float:
        """log-weighted moment of G: the constant term of the asymptotics.

        invert=True evaluates H(f)(1) from I(f), invert=False from f itself;
        the two agree because log(m(x)) + transform-conjugated log(m(x))
        commutes with inversion, so their difference is a convention check.
        """
        return self.lattice_moment(self.mu, self.transform_of_inverted(invert))

    def error_bound(self, lam: float) -> float:
        """Computable tail bound: sqrt(omega) * int_{t >= lam^2} |log t| |G| dx."""
        G = self.transform_of_inverted()
        mask = self.mu >= 2.0 * math.log(lam)
        return float(
            self.sqrt_omega
            * self.omega
            * np.sum(np.abs(self.mu[mask]) * np.abs(G[mask]) * self.t_p[mask] * self.h)
        )

    # -- route A ---------------------------------------------------------------

    def route_a(self, lam: float) -> float:
        """Two-dimensional box pairing over {m(x), m(y) <= lam}.

        Midpoint-cell weights clipped at log(lam), the below-grid strip
        completed analytically through the cumulative kernel integral, and the
        doubly-subgrid corner removed.
        """
        ell = math.log(lam)
        if 2.0 * ell >= self.mu[-1]:
            raise ValueError("lam^2 exceeds the grid range")
        g = self.grid
        G = self.transform_of_inverted()
        lo = g.log_t - self.h / 2.0
        hi = np.minimum(g.log_t + self.h / 2.0, ell)
        cells = np.where(hi > lo, hi - lo, 0.0)
        w_box = self.omega * np.where(hi > lo, np.exp(hi) - np.exp(lo), 0.0)
        conv = np.convolve(w_box, w_box)
        box = float(np.sum(conv * self.K_p * G) / self.sqrt_omega)
        # strip x in (0, e^{-L - h/2}]: cumulative Phi(v) = int_0^v K G du at v = x_floor * t_j
        KGu = self.K_p * G * self.t_p
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (KGu[1:] + KGu[:-1]) * self.h)])
        Phi = cum + KGu[0]
        Phi_half = np.concatenate(
            [[Phi[0] * math.exp(-0.5 * self.h)], 0.5 * (Phi[:-1] + Phi[1:])]
        )[: g.n]
        pref = self.omega**2 / self.sqrt_omega
        strip = pref * float(np.sum(cells * Phi_half))
        corner = pref * float(G[0]) * (g.t[0] * math.exp(-self.h / 2.0)) ** 2
        return box + 2.0 * strip - corner

    # -- assembled report --------------------------------------------------------

    def report(self, lam: float, route_c: Optional[float] = None) -> "TraceReport":
        b = self.route_b(lam)
        cond = self.conductor_value()
        return TraceReport(
            lam=lam,
            two_log_lambda=2.0 * math.log(lam),
            t_route_a=self.route_a(lam),
            t_route_b=b,
            t_route_c=route_c,
            asymptote=2.0 * math.log(lam) * self.f.value_at_1 - cond,
            error_bound=self.error_bound(lam),
            unitarity_defect=float(self.fourier.unitarity_defect),
        )


@dataclass(frozen=True)
class TraceReport:
    lam: float
    two_log_lambda: float
    t_route_a: float
    t_route_b: float
    t_route_c: Optional[float]
    asymptote: float
    error_bound: float
    unitarity_defect: float


def asymptotic_fit(reports: Sequence[TraceReport]) -> tuple[float, float, float]:
    """Least squares of route-B values against (2 log lam, 1).

    Returns (slope, intercept, max residual): the slope estimates f(1), the
    intercept estimates -H(f)(1).
    """
    if len(reports) < 3:
        raise ValueError("need at least 3 reports for the asymptotic fit")
    lams = {r.lam for r in reports}
    if len(lams) < 2:
        raise ValueError("degenerate design matrix: fewer than 2 distinct lambdas")
    y = np.array([r.t_route_b for r in reports])
    if np.allclose(y, 0.0):
        raise ValueError("all trace values vanish; the fit is degenerate")
    X = np.array([[r.two_log_lambda, 1.0] for r in reports])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return float(coef[0]), float(coef[1]), float(np.abs(resid).max())


def gate_reports(reports: Sequence[TraceReport], factor: float = 0.1) -> list[TraceReport]:
    """Keep reports whose tail bound certifies the asymptotic regime."""
    min_t = min(abs(r.t_route_b) for r in reports)
    return [r for r in reports if r.error_bound < factor * min_t]


# ---------------------------------------------------------------------------
# route C: literal matrix trace on the signed real line
# ---------------------------------------------------------------------------


# float |B|/2 x n/2 arrays alive at once, besides the kept ones, while SignedTraceLab is set up
ROUTE_C_TEMPORARIES = 8


def route_c_bytes(n: int, max_lambda: float) -> int:
    """Peak bytes of SignedTraceLab(f, n, max_lambda), from the geometry alone.

    Counts the even-sector arrays on the positive half b of the block B:
    C[:, b] ((n/2) x |b|), U_e[b, :] (|b| x (n/2)), M_e (|b| x |b|), all real,
    and ROUTE_C_TEMPORARIES float (n/2) x |b| arrays alive while C's phases
    and U_e's ratios are evaluated.  Raises ValueError, before anything is
    allocated, when the signed grid cannot hold the block: n odd or below 2,
    or max_lambda at or beyond half the grid's extent.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("signed grid needs an even n >= 2")
    extent = (n - 1) / 2.0 * (1.0 / math.sqrt(n))  # SignedGrid.extent, bit for bit
    if max_lambda >= extent / 2.0:
        raise ValueError(
            f"lam too close to the signed-grid extent (lam {max_lambda}, n {n}: "
            f"needs lam < {extent / 2.0:.6g})"
        )
    # x_j = (j + 1/2) / sqrt(n) on the positive half: |b| counts the j with x_j <= lam
    b = int(math.floor(max_lambda * math.sqrt(n) * (1.0 + 1e-12) + 0.5))
    return 8 * (2 + ROUTE_C_TEMPORARIES) * (n // 2) * b + 8 * b * b


class SignedTraceLab:
    """Route C on the signed real line (field R): dense cutoffs, transform and U_f.

    The only route that literally traces an operator product,
    Tr(P F^-1 P U_f F) with P the cutoff to B = {|x| <= lam}.  U_f averages
    over both signs: its kernel f(|v/y|) / (2 sqrt|vy|) step is even in v and
    in y, so it sends every odd vector to 0 and the trace lives in the even
    sector.  There F and F^-1 both act as the DCT-IV
    C[j, k] = 2 step cos(2 pi x_j x_k) on the positive half-grid, and U_f as
    U_e[v, y] = f(v/y) / sqrt(vy) step = 2 U_f(|v|, |y|); folding the signs
    gives Tr(P F^-1 P U_f F) = Tr(C[b, b] U_e[b, :] C[:, b]) with b the
    positive half of B.  For the largest block the lab holds C[:, b]
    (certified against the FFT form of the full matrix), U_e[b, :] and, once,
    M_e = U_e[b, :] C[:, b]; each trace slices them to its own block.  Rows
    with x < 0.5 cannot resolve the multiplicative kernel on a uniform grid;
    for those rows the entries of M_e are integrated directly by
    Gauss-Legendre quadrature of U_e's kernel times the cosine kernel.
    """

    BAD_ROW_EXTENT = 0.5
    GL_NODES = 192

    def __init__(self, f: TestFunction, n: int, max_lambda: float):
        route_c_bytes(n, max_lambda)  # geometry check before any allocation
        self.f = f
        self.max_lambda = max_lambda
        self.sgrid: SignedGrid = make_signed_grid(n)
        self.fourier: FullLineFourier = full_line_fourier(self.sgrid, max_lambda)
        step = self.sgrid.step
        xp = self.sgrid.x[n // 2 :]
        self._xb = xb = xp[self.fourier.block]  # a prefix of the positive half-grid
        self.u_even = f(np.outer(xb, 1.0 / xp)) / np.sqrt(np.outer(xb, xp)) * step
        self.m_even = self.u_even @ self.fourier.matrix
        self._gl = np.polynomial.legendre.leggauss(self.GL_NODES)
        bad = xb < self.BAD_ROW_EXTENT
        if bad.any():
            self.m_even[bad, :] = self._ue_cosine_rows(xb[bad], xb)
        log.info(
            "route C set-up: n_signed=%d |B|=%d block_bytes=%d unitarity_defect=%.3e bad_rows=%d",
            n,
            2 * len(xb),
            self.fourier.matrix.nbytes + self.u_even.nbytes + self.m_even.nbytes,
            self.fourier.unitarity_defect,
            2 * int(bad.sum()),
        )

    @property
    def unitarity_defect(self) -> float:
        return self.fourier.unitarity_defect

    def _ue_cosine_rows(self, vs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """(U_e C)(v, u) by direct quadrature: 2 step int f(v/y) (vy)^{-1/2} cos(2 pi y u) dy.

        With y = v s the weight f(1/s) s^{-1/2} ds on [e^-rho, e^rho] does not
        depend on v, so one set of nodes and weights serves every row.
        """
        rho = self.f.support_radius
        nodes, wts = self._gl
        a, b = math.exp(-rho), math.exp(rho)
        s = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        base = self.f(1.0 / s) / np.sqrt(s) * (0.5 * (b - a) * wts)
        out = np.empty((len(vs), len(us)))
        for i, v in enumerate(vs):
            out[i] = np.cos(2.0 * np.pi * np.outer(us, v * s)) @ base
        return out * (2.0 * self.sgrid.step)

    def _sub_block(self, lam: float) -> int:
        """Size k of the positive half of the block {|x| <= lam}: its first k points."""
        if lam > self.max_lambda:
            raise ValueError(f"lam {lam} exceeds this lab's max_lambda {self.max_lambda}")
        return len(cutoff_block(self._xb, lam))

    def trace_route_c(self, lam: float) -> float:
        k = self._sub_block(lam)
        c = self.fourier.matrix[:k, :k]  # cutoff * F^-1 * cutoff
        log.info("route C trace: lam=%g block_rows=%d", lam, 2 * k)
        return float(np.sum(c * self.m_even[:k, :k].T))

    def cyclicity_defect(self, lam: float) -> float:
        """Relative gap between Tr((P F^-1 P U_f) F) and Tr(F (P F^-1 P U_f)), in the even sector."""
        k = self._sub_block(lam)
        cb = self.fourier.matrix[:, :k]
        pu = cb[:k] @ self.u_even[:k]
        t1 = np.trace(pu @ cb)
        t2 = np.einsum("kj,jk->", cb, pu)  # the trace of C[:, b] @ pu, without the n/2 x n/2 product
        return float(abs(t1 - t2) / max(abs(t1), 1e-300))
