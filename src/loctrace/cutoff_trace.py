"""Cutoff trace of the averaged-translation operator, by independent routes.

For a smooth compactly supported profile f on the multiplicative module axis,
T(lam) is the trace of (Fourier-conjugated cutoff) * (cutoff) * (U_f).  Route A
evaluates it as a two-dimensional box pairing of the two kernels; route B as a
one-dimensional integral of the transform G of the inverted profile's additive
representative against the annulus weight (2 log lam - log t); route C (real
line only) traces the operator product on a signed grid, in the even sector
where the grid's transform is a real DCT-IV and its two cutoff factors meet in
the closed-form Dirichlet kernel.
The asymptote 2 log(lam) f(1) - H(f)(1) and the computable tail bound
complete the picture.

Routes A and B share one certified transform: a study is built as
TraceComputation(f, build_fourier(grid)) and reads its grid and field from
the transform.  Route C builds and certifies its own signed-grid transform.
Products of grid points live on the half-offset "product lattice"; all route
sums run there, t = 1 included exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fourier import (
    CHUNK_ENTRIES,
    PANEL_ROWS,
    FourierOperator,
    FullLineFourier,
    check_bytes,
    check_signed_n,
    full_line_fourier,
    kernel_fft_length,
    log,
    log_stage,
    row_chunks,
    signed_point,
)
from .kernels import kernel_values
from .operators import TestFunction


class TraceComputation:
    """Shared state for one trace study: a profile and a certified transform.

    The grid and its field are the transform's.  Caches the product-lattice
    transform G, its prefix table and the kernel values so a lambda sweep
    costs one FFT pipeline total.
    """

    def __init__(self, f: TestFunction, fourier: FourierOperator):
        grid = fourier.grid
        f.check_support(grid)
        self.grid = grid
        self.f = f
        self.fourier = fourier
        self._G: dict[bool, np.ndarray] = {}
        self._prefixes: dict[bool, tuple[np.ndarray, np.ndarray]] = {}
        pl = fourier.product_lattice
        self.mu = pl.log_t
        self.t_p = pl.t
        self.h = grid.step
        self.log_floor = float(self.mu[0]) - self.h / 2.0  # log t_f, the floor of the product lattice
        self.K_p = kernel_values(grid.backend.field_id, self.t_p)
        self.omega = grid.backend.omega
        self.sqrt_omega = math.sqrt(self.omega)

    def transform_of_inverted(self, invert: bool = True) -> np.ndarray:
        """G on the product lattice, from I(f) (default) or from f itself."""
        if invert not in self._G:
            start = time.perf_counter()
            fv = self.f(self.grid.t)
            samples = fv[::-1] if invert else fv
            arep = samples / np.sqrt(self.omega * self.grid.t)
            self._G[invert] = self.fourier.apply_product_lattice(arep)
            log_stage(start, "transform of %s: n=%d", "I(f)" if invert else "f", self.grid.n)
        return self._G[invert]

    def prefixes(self, invert: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(P0, P1): sqrt(omega) omega int_0^v (1, log t) K G dt, cached per ``invert`` as G is.

        v runs over the 2n - 1 cell floors e^{mu_k - h/2} of the product lattice and the top of
        its last cell; each cell adds its rectangle K G t h (times log t).  Below the floor t_f,
        K G is its first lattice value c: entry 0 is the strip, c t_f and c t_f (log t_f - 1).
        """
        if invert not in self._prefixes:
            KG = self.sqrt_omega * self.omega * self.K_p * self.transform_of_inverted(invert)
            pieces = np.concatenate([[KG[0] * math.exp(self.log_floor)], KG * self.t_p * self.h])
            logs = np.concatenate([[self.log_floor - 1.0], self.mu])
            self._prefixes[invert] = (np.cumsum(pieces), np.cumsum(pieces * logs))
        return self._prefixes[invert]

    # -- route B and its relatives -------------------------------------------

    def route_b(self, lam: float) -> float:
        """sqrt(omega) omega int_0^{lam^2} (2 log lam - log t) K G dt, from the prefixes."""
        start = time.perf_counter()
        two_ell = 2.0 * math.log(lam)
        P0, P1 = self.prefixes()
        if two_ell < self.log_floor:  # the strip cut at lam^2: c int_0^{lam^2} (2 log lam - log t) dt
            value = float(P0[0] * math.exp(two_ell - self.log_floor))
        else:  # the m lattice points below lam^2
            m = int(np.searchsorted(self.mu, two_ell))
            value = float(two_ell * P0[m] - P1[m])
        log_stage(start, "route B: lam=%g t_route_b=%.15g", lam, value)
        return value

    def first_moment(self) -> float:
        """sqrt(omega) * (inverse transform of G at 1); recovers f(1)."""
        return float(self.prefixes()[0][-1])

    def conductor_value(self, invert: bool = True) -> float:
        """log-weighted moment of G: the constant term of the asymptotics.

        invert=True evaluates H(f)(1) from I(f), invert=False from f itself;
        the two agree because log(m(x)) + transform-conjugated log(m(x))
        commutes with inversion, so their difference is a convention check.
        """
        return float(self.prefixes(invert)[1][-1])

    def error_bound(self, lam: float) -> float:
        """Computable tail bound: sqrt(omega) * int_{t >= lam^2} max(|log t|, log t - 2 log lam) |G| dx.

        The trace's tail beyond lam^2 carries the annulus weight log t - 2 log lam.
        For lam >= 1 the maximum is |log t|; for lam < 1 it bounds the annulus
        weight, which |log t| alone does not.
        """
        G = self.transform_of_inverted()
        two_log = 2.0 * math.log(lam)
        mask = self.mu >= two_log
        mu = self.mu[mask]
        weight = np.maximum(np.abs(mu), mu - two_log)
        return float(
            self.sqrt_omega * self.omega * np.sum(weight * np.abs(G[mask]) * self.t_p[mask] * self.h)
        )

    # -- route A ---------------------------------------------------------------

    def route_a(self, lam: float) -> float:
        """Two-dimensional box pairing over {m(x), m(y) <= lam}.

        Each full log-cell i < m below log(lam) weighs a t_i (a = omega 2 sinh(h/2)) and
        t_i t_j = t_p[i + j], so the full pairs sum to a^2 sum_k N_m(k) t_p[k] (K G)[k], with
        N_m(k) = min(k, 2m - 2 - k) + 1 pairs of sum k; the one cut cell m adds its cross term
        and its corner.  The strips below the grid floor x_f pair cell j with the prefix P0 at
        x_f t_j, the floor of product-lattice cell j, and the square (0, min(lam, x_f)]^2 adds
        c min(lam, x_f)^2.  O(n) per lam.
        """
        start = time.perf_counter()
        ell = math.log(lam)
        if 2.0 * ell >= self.mu[-1]:
            raise ValueError("lam^2 exceeds the grid range")
        g = self.grid
        KG = self.K_p * self.transform_of_inverted()
        KGu = KG * self.t_p
        lo = g.log_t - self.h / 2.0
        hi = np.minimum(g.log_t + self.h / 2.0, ell)
        # m full cells (hi = the cell's top); cell m, when it starts below ell, is cut
        m = int(np.count_nonzero(g.log_t + self.h / 2.0 <= ell))
        a = self.omega * 2.0 * math.sinh(self.h / 2.0)
        k = np.arange(max(2 * m - 1, 0))
        box = a * a * float(np.sum((np.minimum(k, 2 * m - 2 - k) + 1.0) * KGu[: len(k)]))
        if m < g.n and hi[m] > lo[m]:
            c = self.omega * float(np.exp(hi[m]) - np.exp(lo[m]))
            cross = float(np.sum(g.t[:m] * KG[m : 2 * m]))
            box += 2.0 * a * c * cross + c * c * float(KG[2 * m])
        box /= self.sqrt_omega
        P0 = self.prefixes()[0]
        strip = float(np.sum(np.where(hi > lo, hi - lo, 0.0) * P0[: g.n]))
        corner = float(P0[0]) * math.exp(2.0 * min(ell, lo[0]) - self.log_floor)
        value = box + 2.0 * strip + corner
        log_stage(start, "route A: lam=%g t_route_a=%.15g", lam, value)
        return value

    # -- assembled report --------------------------------------------------------

    def report(self, lam: float, route_c: Optional[float] = None) -> "TraceReport":
        b = self.route_b(lam)  # route B first: its span holds the prefix table's build
        return TraceReport(
            lam=lam,
            two_log_lambda=2.0 * math.log(lam),
            t_route_a=self.route_a(lam),
            t_route_b=b,
            t_route_c=route_c,
            asymptote=2.0 * math.log(lam) * self.f.value_at_1 - self.conductor_value(),
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
    intercept estimates -H(f)(1).  Two parameters have a closed form; it is
    taken about the means (Chan, Golub & LeVeque, Amer. Statist. 37, 1983),
    so the slope is sum(dx dy) / sum(dx^2) with no cancellation in the sums,
    and the fit needs no LAPACK solver: a sweep calls no ``numpy.linalg``.
    """
    if len(reports) < 3:
        raise ValueError("need at least 3 reports for the asymptotic fit")
    if len({r.two_log_lambda for r in reports}) < 2:
        raise ValueError("degenerate design matrix: fewer than 2 distinct lambdas")
    y = [r.t_route_b for r in reports]
    if np.allclose(y, 0.0):
        raise ValueError("all trace values vanish; the fit is degenerate")
    x = [r.two_log_lambda for r in reports]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    residual = max(abs(b - slope * a) for a, b in zip(dx, dy))
    return slope, y_mean - slope * x_mean, residual


def gate_reports(reports: Sequence[TraceReport], factor: float = 0.1) -> list[TraceReport]:
    """Keep reports whose tail bound certifies the asymptotic regime."""
    min_t = min(abs(r.t_route_b) for r in reports)
    return [r for r in reports if r.error_bound < factor * min_t]


# ---------------------------------------------------------------------------
# route C: literal matrix trace on the signed real line
# ---------------------------------------------------------------------------


# chunk-sized float arrays alive at once, by tracemalloc: 2.01-2.08 while one row chunk
# of a U_e panel is filled, over n_signed 1024-65536 and widths 0.05-2; 1.50-4.32 in the
# bad rows' quadrature besides its result, over n_signed 64-65536, rho 0.5-8 and widths
# 0.01-2 that the budget accepts; and 5.2 beyond the panel in a pass of three lams and the
# check at n_signed 8192, max_lambda 8 (the most of ``test_a_pass_holds_one_panel``)
ROUTE_C_TEMPORARIES = 6

# lattice nodes per unit of tau = log s beyond the cosine's, per 1/support_radius
# and per 1/width: within 3e-13 of converged Gauss-Legendre (relative to
# the largest entry) for centres within the support, widths 0.01-2 and
# support radii 0.5-3; without the width term a centre at the support's
# edge with width 0.05 loses 3e-12
LATTICE_EDGE = 128.0
LATTICE_WIDTH = 4.0

# seconds per unit of route C's work, the slowest measured on 2 cores (numpy 2.4.6,
# OpenBLAS 0.3.31), one lab and one pass per fresh process, n_signed 4096 to 2^22
TRANSFORM_SECONDS = 1.4e-6  # per point: the signed transform's tables and checks (1.33e-6 at 2^20)
COSINE_SECONDS = 2e-8  # per entry of the set-up's cosine table (1.92e-8 at rho 5, 1.85e-8 at 6)
CLENSHAW_SECONDS = 1.7e-9  # per step, a bad-row entry per coefficient (1.05e-9 to 1.68e-9)
PASS_SECONDS = 2.8e-8  # per entry a pass reads: band, bad-row terms, Dirichlet tables (1.8e-8 up)
PANEL_SECONDS = 1.5e-6  # per panel and bit of n: panel_bands' bisections (the plan's walk 1.2e-6)
CHECK_SECONDS = 4.2e-10  # per multiply-add of the cyclicity check (2.3e-10 to 4.1e-10)
# the longest predicted route C set-up and pass route_c_plan accepts: above the 3.7 s of the
# largest lab a test builds (n_signed 65536 up to lam 16, rho 3), below rho 7's 10.3 s
RUN_SECONDS_MAX = 8.0


def log_lattice(f: TestFunction, w_max: float) -> tuple[float, float, int]:
    """(lo, dtau, nodes): the uniform lattice in tau = log s of Phi's quadrature, for products up to w_max.

    It spans [-rho, rho] (rho = f.support_radius), the support of s -> f(1/s), at
    ``LATTICE_EDGE / rho + LATTICE_WIDTH / width`` nodes per unit of tau (the mollifier
    edge and the Gaussian) on top of the cosine's top log-frequency w_max e^rho.  Raises
    OverflowError when e^rho or the node count is beyond the float range.
    """
    rho = f.support_radius
    per_unit = w_max * math.exp(rho) + LATTICE_EDGE / rho + LATTICE_WIDTH / f.width
    nodes = math.ceil(per_unit * 2.0 * rho) + 1
    return -rho, 2.0 * rho / (nodes - 1), nodes


def chebyshev_degree(f: TestFunction, w_max: float) -> int:
    """Degree of Phi's Chebyshev series on [0, w_max]: ceil(a + 10 a^(1/3)) + 8, a = pi e^rho w_max.

    On x in [-1, 1], Phi sums cos(a_s (1 + x)), a_s = pi s w_max <= a, of coefficients
    2 J_k(a_s) up to sign: past k = a_s they fall off like exp(-(2 (k - a_s))^(3/2) /
    (3 a_s^(1/2))) (Debye), to 1e-13 at 10 a_s^(1/3) on.  OverflowError past the floats.
    """
    a = math.pi * math.exp(f.support_radius) * w_max
    return math.ceil(a + 10.0 * a ** (1.0 / 3.0)) + 8


def _leading(size: int, holds) -> int:
    """How many of 0..size-1 satisfy ``holds``, a predicate true on a prefix only: by bisection."""
    lo, hi = 0, size
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _points_up_to(n: int, bound: float) -> int:
    """How many x_j of the positive half-grid are <= bound: the grid's own count, by bisection."""
    return _leading(n // 2, lambda j: signed_point(n, j) <= bound)


def block_size(n: int, lam: float) -> int:
    """|b|: the x_j <= lam of the positive half-grid (relative slack 1e-12 for boundary points)."""
    return _points_up_to(n, lam * (1.0 + 1e-12))


def panel_bands(f: TestFunction, n: int, first: int, stop: int):
    """Yield (rows, lo, hi), PANEL_ROWS rows of first..stop-1 at a time: U_e[rows, :] is 0 off [lo, hi).

    t = v * (1/y) falls along each row and rises from row to row (a float product is
    monotone in each factor), so every column before lo has t >= exp(R) and every column
    from hi on t <= exp(-R) in every row, by the comparisons of ``support_band``.  There
    |log v - log y| >= R holds to rounding, and ``ue_panels``' profile on the log axis is
    exactly 0 (``TestFunction.of_log``).  The one derivation of a band: bisection on the
    grid's own floats.
    """
    half = n // 2
    t_lo, t_hi = f.support_band()
    for r0 in range(first, stop, PANEL_ROWS):
        r1 = min(r0 + PANEL_ROWS, stop)
        top, bottom = signed_point(n, r0), signed_point(n, r1 - 1)
        lo = _leading(half, lambda j: top * (1.0 / signed_point(n, j)) >= t_hi)
        hi = max(lo, _leading(half, lambda j: bottom * (1.0 / signed_point(n, j)) > t_lo))
        yield slice(r0, r1), lo, hi


@dataclass(frozen=True)
class RouteCPlan:
    """The geometry and work of a SignedTraceLab and one pass, decided before anything is allocated."""

    block: int  # |b|: the block's positive half b is the first |b| points x_j
    bad_rows: int  # the first bad_rows of them are the bad rows, x < BAD_ROW_EXTENT
    lattice: Optional[tuple[float, float, int]]  # Phi's log_lattice; None without bad rows
    degree: int  # of the bad rows' Chebyshev series in Phi (chebyshev_degree); 0 without them
    cosine_table: int  # entries of the set-up's cosine table, nodes x (degree + 1); 0 without bad rows
    largest_panel: int  # the entries of the largest panel of U_e the pass evaluates
    panels: int  # the panels of U_e the pass evaluates
    band_entries: int  # their entries
    multiply_adds: int  # of the cyclicity check's two GEMMs
    peak_bytes: int  # bounds the peak of the set-up and of one pass
    seconds: float  # the predicted time of the set-up and one pass


def _within_budget(work: list, f: TestFunction) -> float:
    """The seconds of ``work``, (count, what, seconds per unit); past RUN_SECONDS_MAX a ValueError names its largest."""
    seconds = [count * cost for count, _, cost in work]
    if not sum(seconds) <= RUN_SECONDS_MAX:
        count, what, _ = work[seconds.index(max(seconds))]
        raise ValueError(
            f"route C would take at least {sum(seconds):.3g} s, above the {RUN_SECONDS_MAX:g} s budget, "
            f"{max(seconds):.3g} s of it for {count:.4g} {what} (width {f.width}, support_radius {f.support_radius})"
        )
    return sum(seconds)


def route_c_plan(
    f: TestFunction, n: int, max_lambda: float, lambdas: int = 1, check_lambda: Optional[float] = None
) -> RouteCPlan:
    """The plan of SignedTraceLab(f, n, max_lambda) and of one pass over ``lambdas`` lams up
    to max_lambda, the cyclicity check at ``check_lambda`` (None: none), by arithmetic alone.

    ``peak_bytes`` bounds the peak of the set-up and of the pass, term by term below.
    ``seconds`` sums the set-up's work (the transform's n points, the cosine table,
    Clenshaw's bad x |b| x (degree + 1) steps) and the pass's (its panels, the entries it
    reads: bands, one bad x |b| product, Dirichlet tables; the check's multiply-adds), each
    at its measured cost; the pass evaluates the bad rows' panels below the check's block
    and every good row's.  Raises ValueError, and nothing else, when n is odd or below 2,
    when max_lambda reaches half the grid's extent, when ``seconds`` exceeds
    RUN_SECONDS_MAX, naming the largest term, or when ``peak_bytes`` exceeds the byte
    budget (``check_bytes``); the cosine table, Clenshaw's steps and the panels' count are
    judged before the panels are walked, which bounds it.
    """
    check_signed_n(n)
    extent = signed_point(n, n // 2 - 1)  # the grid's largest point, x[-1]
    if max_lambda >= extent / 2.0:
        raise ValueError(
            f"lam too close to the signed-grid extent (lam {max_lambda}, n {n}: "
            f"needs lam < {extent / 2.0:.6g})"
        )
    b = block_size(n, max_lambda)
    kc = 0 if check_lambda is None else block_size(n, check_lambda)
    # x < BAD_ROW_EXTENT is x <= the float just below it
    bad = min(b, _points_up_to(n, math.nextafter(SignedTraceLab.BAD_ROW_EXTENT, 0.0)))
    # the bad rows run up to x_{bad-1}, against columns up to x_{b-1}: products up to w_max
    w_max = signed_point(n, bad - 1) * signed_point(n, b - 1)
    try:
        lattice, degree = (log_lattice(f, w_max), chebyshev_degree(f, w_max)) if bad else (None, 0)
    except OverflowError:  # e^rho, or the nodes for 1/width, beyond the float range
        lattice, degree = (-f.support_radius, 0.0, math.inf), math.inf
    nodes = lattice[2] if bad else 0
    panels = -(-min(bad, kc) // PANEL_ROWS) - (-(b - bad) // PANEL_ROWS)
    work = [  # (count, what, seconds per unit), the counts that may pass the float range as floats
        (float(nodes) * (degree + 1), "entries of the bad rows' cosine table", COSINE_SECONDS),
        (float(bad) * b * (degree + 1), "Clenshaw steps over the bad rows", CLENSHAW_SECONDS),
        (panels, "panels of the pass", PANEL_SECONDS * n.bit_length()),
    ]
    _within_budget(work, f)
    half = n // 2
    # the largest panel and the widest band of the bad rows' panels below the check's block
    # and the good rows' panels; the band entries and the check's multiply-adds of the pass
    largest = widest = band = multiply_adds = 0
    for first, stop in ((0, min(bad, kc)), (bad, b)):
        for rows, lo, hi in panel_bands(f, n, first, stop):
            largest, widest = max(largest, (rows.stop - rows.start) * (hi - lo)), max(widest, hi - lo)
            band += (rows.stop - rows.start) * (hi - lo)
            multiply_adds += 2 * max(0, min(rows.stop, kc) - rows.start) * (hi - lo) * kc
    tables = (lambdas + 1) * (half + 2 * b)  # a pass's Dirichlet tables, one per lam and the check's
    work += [
        (n, "points of the signed transform", TRANSFORM_SECONDS),
        (band + bad * b + tables, "entries read by the pass", PASS_SECONDS),
        (multiply_adds, "multiply-adds of the cyclicity check", CHECK_SECONDS),
    ]
    seconds = _within_budget(work, f)
    # the lab's quadrature rows (bad x |b|), a pass's largest panel and tables, and every
    # temporary: ROUTE_C_TEMPORARIES arrays of one row chunk (``row_chunks``) of a panel, as
    # wide as the widest band, or of the check's cosine rows cb against the block
    chunk = min(half * b, max(CHUNK_ENTRIES, widest, b))
    # the grid, the cosine, sine and two phase tables and the involution probes
    # (13 n measured), and the kernel check's FFTs (6 of its length)
    vectors = 14 * n + (6 * kernel_fft_length(n, b) if b else 0)
    # the set-up's quadrature: its result and the arrays of one lattice chunk against the
    # series' points or of one row chunk of the products, each at least three times the
    # points' length, which makes room for the series' own eight arrays of that length
    quadrature = bad * b + (ROUTE_C_TEMPORARIES * max(CHUNK_ENTRIES, b, 3 * (degree + 1)) if bad else 0)
    # a pass's, once those are freed: its C[b, bad] and their product with the
    # quadrature rows, and the check's c[:, rows] with U_e cb and their product (the
    # gather of c[:, rows] holds its one index array before U_e cb exists)
    passing = 2 * bad * b + 3 * min(PANEL_ROWS, b) * b
    temporaries = ROUTE_C_TEMPORARIES * chunk + vectors + max(quadrature, passing)
    peak = 8 * (bad * b + largest + tables + temporaries)
    check_bytes(peak, f"n_signed {n} up to lambda {max_lambda}")
    return RouteCPlan(
        block=b, bad_rows=bad, lattice=lattice, degree=degree, cosine_table=nodes * (degree + 1),
        largest_panel=largest, panels=panels, band_entries=band, multiply_adds=multiply_adds,
        peak_bytes=peak, seconds=seconds,
    )


def ue_panels(f: TestFunction, n: int, first: int, stop: int, buffer: np.ndarray):
    """Yield (rows, lo, U_e[rows, lo:hi]) for the rows first..stop-1 over their ``panel_bands``,
    on the n-point signed grid.

    U_e[v, y] = f(v/y) / sqrt(vy) step is, on the log axis, a profile of log v - log y
    times two separable factors: x_j = (j + 1/2) step, so step / sqrt(vy) = r_v r_y with
    r_j = 1/sqrt(j + 1/2), taken once with the logs.  Each panel is f.of_log(log v - log y)
    r_v r_y, filled in place one row chunk at a time (``row_chunks``), so a chunk's only
    temporaries are the profile's.  Off the band |log v - log y| >= R holds to rounding, so
    there U_e is exactly 0.  Every panel is a view of the caller's ``buffer``, which must
    hold the largest panel (``RouteCPlan.largest_panel``), valid until the next is requested.
    """
    half = n // 2
    logs = np.log(signed_point(n, np.arange(half)))
    r = 1.0 / np.sqrt(np.arange(half) + 0.5)
    for rows, lo, hi in panel_bands(f, n, first, stop):
        log_v, r_v, log_y, r_y = logs[rows, None], r[rows, None], logs[lo:hi], r[lo:hi]
        panel = buffer[: len(log_v) * (hi - lo)].reshape(len(log_v), hi - lo)
        for chunk in row_chunks(len(log_v), hi - lo):
            fill = np.subtract(log_v[chunk], log_y, out=panel[chunk])
            f.of_log(fill, out=fill)
            fill *= r_v[chunk]
            fill *= r_y
        yield rows, lo, panel


def clenshaw(coef: np.ndarray, two_x: np.ndarray, out: np.ndarray) -> None:
    """out = coef_0 + 2 sum_{k>=1} coef_k T_k(x) = b_0 - b_2, b_k = coef_k + 2x b_{k+1} - b_{k+2}
    (Clenshaw, Math. Comp. 9, 1955), in place: three arrays of two_x's size, freed on return."""
    b1, b2, spare = np.zeros_like(two_x), np.zeros_like(two_x), np.empty_like(two_x)
    for c in coef[::-1]:
        np.multiply(two_x, b1, out=spare)
        spare -= b2
        spare += c
        b1, b2, spare = spare, b1, b2
    np.subtract(b1, spare, out=out)


class SignedTraceLab:
    """Route C on the signed real line (field R): cutoffs, transform and U_f on the signed grid.

    The only route that literally traces an operator product,
    Tr(P F^-1 P U_f F) with P the cutoff to B = {|x| <= lam}.  U_f averages
    over both signs: its kernel f(|v/y|) / (2 sqrt|vy|) step is even in v and
    in y, so it sends every odd vector to 0 and the trace lives in the even
    sector.  There F and F^-1 both act as the DCT-IV
    C[j, k] = 2 step cos(2 pi x_j x_k) on the positive half-grid, and U_f as
    U_e[v, y] = f(v/y) / sqrt(vy) step = 2 U_f(|v|, |y|); folding the signs
    gives Tr(P F^-1 P U_f F) = Tr(C[b, b] U_e[b, :] C[:, b]) with b the
    positive half of B.  The two cosine factors meet over b in the Dirichlet
    kernel of the cutoff, sum_{u in b} C[y, u] C[u, v] = K(y+v+1) + K(y-v)
    (``FullLineFourier.dirichlet``), so the trace is
    sum_{v in b} sum_y U_e[v, y] (K(y+v+1) + K(y-v)) and no cosine block is
    formed.  The lab takes the largest block, its bad rows, their lattice and
    their series' degree from its ``plan`` (``route_c_plan``), made and
    checked before anything is allocated, and certifies the kernel of the
    largest block against the DCT-IV applied by FFT.  Rows with x < 0.5
    cannot resolve the multiplicative kernel on a uniform grid; the set-up
    integrates their rows of U_e C[:, b] directly as one function of v u
    (``_ue_cosine_rows``), and the lab keeps these quadrature rows, the plan
    and the transform, no row of U_e and no grid (the block's points are
    ``signed_point(n, j)``, j < |b|).

    U_e[b, :] is evaluated by ``sweep``, one panel of rows at a time over its
    band (``ue_panels``: f has compact support), and each panel is dropped once
    every lam of the pass and the check have read it.  U_f is a convolution on
    the multiplicative group, which log makes the additive line, so both
    evaluations read the profile on the log axis (``TestFunction.of_log``).
    The set-up's log line carries the bytes held, the largest panel and the
    quadrature's nodes, degree, cosine table and time; the transform's defects
    are on its own ``certification:`` line (``fourier.certify``).
    """

    BAD_ROW_EXTENT = 0.5

    def __init__(self, f: TestFunction, n: int, max_lambda: float):
        start = time.perf_counter()
        self.plan = plan = route_c_plan(f, n, max_lambda)  # every refusal before any allocation
        bad, b = plan.bad_rows, plan.block
        self.f = f
        self.max_lambda = max_lambda
        self.fourier: FullLineFourier = full_line_fourier(n, b)
        xb = signed_point(n, np.arange(b))
        quadrature_start = time.perf_counter()
        self.quadrature_rows = self._ue_cosine_rows(xb[:bad], xb)
        quadrature_ms = 1e3 * (time.perf_counter() - quadrature_start)
        message = ("route C set-up: n_signed=%d |B|=%d held_bytes=%d largest_panel=%d/%d bad_rows=%d "
                   "quadrature_nodes=%d chebyshev_degree=%d cosine_table_entries=%d quadrature_ms=%.3f")
        log_stage(start, message, n, 2 * b, self.quadrature_rows.nbytes, plan.largest_panel, PANEL_ROWS * (n // 2),
                  2 * bad, plan.lattice[2] if plan.lattice else 0, plan.degree, plan.cosine_table, quadrature_ms)

    def _ue_cosine_rows(self, vs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """(U_e C)(v, u) = 2 step Phi(v u), Phi(w) = int f(1/s) s^{-1/2} cos(2 pi w s) ds,
        from one Chebyshev series of Phi on [0, W], W = max v max u.

        With y = v s, 2 step int f(v/y) (vy)^{-1/2} cos(2 pi y u) dy depends on v u alone, and
        Phi is entire, so its series converges geometrically (Trefethen, Approximation Theory
        and Approximation Practice, 2013, ch. 8).  Phi at the m = degree + 1 points
        W (1 + cos theta_k) / 2, theta_k = pi (k + 1/2) / m, is the trapezoid rule on the
        plan's lattice in tau = log s, weight f.of_log(-tau) e^{tau/2} dtau, one lattice
        chunk at a time (Trefethen & Weideman, SIAM Review 56, 2014: the integrand is C^inf
        and 0 at both ends); the coefficients (1/m) sum_k Phi_k cos(j theta_k) are one real
        FFT of their even extension, and the series is summed one row chunk at a time.
        """
        out = np.empty((len(vs), len(us)))
        if not len(vs):
            return out
        lo, dtau, nodes = self.plan.lattice
        m = self.plan.degree + 1
        w_max = vs[-1] * us[-1]
        points = (0.5 * w_max) * (1.0 + np.cos((np.arange(m) + 0.5) * (np.pi / m)))
        phi = np.zeros(m)
        for rows in row_chunks(nodes, m):
            tau = np.arange(rows.start, rows.stop) * dtau + lo
            weights = self.f.of_log(-tau)  # zero on the ends, so trapezoid = plain sum
            weights *= np.exp(0.5 * tau)
            table = np.multiply.outer(2.0 * np.pi * np.exp(tau), points)
            phi += weights @ np.cos(table, out=table)
        spectrum = np.fft.rfft(np.concatenate([phi, phi[::-1]]))[:m]
        spectrum *= np.exp(-0.5j * np.pi / m * np.arange(m))
        # 2 step dtau: the phased FFT is 2 sum_k Phi_k cos(j theta_k); coef is a new array, so
        # the spectrum, the last chunk's table, Phi and its points are freed before the sum
        coef = spectrum.real * (self.fourier.step * dtau / m)
        del table, spectrum, phi, points
        for rows in row_chunks(len(vs), len(us)):
            two_x = np.multiply.outer(vs[rows], us * (4.0 / w_max))
            two_x -= 2.0
            clenshaw(coef, two_x, out[rows])
        return out

    def _sub_block(self, lam: float) -> int:
        """Size k of the positive half of the block {|x| <= lam}: its first k points."""
        if lam > self.max_lambda:
            raise ValueError(f"lam {lam} exceeds this lab's max_lambda {self.max_lambda}")
        return block_size(self.fourier.n, lam)

    @staticmethod
    def _kernel_term(table: np.ndarray, k: int, v0: int, lo: int, u: np.ndarray) -> float:
        """sum over the panel's rows v0 <= v < k of sum_y U_e[v, y] (K_k(y+v+1) + K_k(y-v)).

        Over the panel's band the two kernel terms are a Hankel and a Toeplitz window of
        the table of K_k(m), m = 1-k..n/2+k-1 (entry m + k - 1), contracted with the panel.
        """
        u = u[: k - v0]
        windows = sliding_window_view(table, u.shape[1])
        # column c of row v = v0 + i: K_k(y + v + 1) is entry lo + v + k + c,
        # K_k(y - v) entry lo - v + k - 1 + c
        hankel = windows[lo + v0 + k :][: len(u)]
        toeplitz = windows[lo + k - v0 - len(u) : lo + k - v0][::-1]
        return float(np.einsum("ij,ij->", u, hankel) + np.einsum("ij,ij->", u, toeplitz))

    def _check_terms(self, table: np.ndarray, kc: int, v0: int, lo: int, u: np.ndarray, t1, t2, t3):
        """(t1, t2, t3) with the panel's rows v0 <= v < kc added: the two literal orders of
        the cyclicity check and its kernel trace.

        The band's cosine rows cb are streamed one row chunk at a time; the call's
        temporaries are freed when it returns, before the next panel is filled.
        """
        cos = self.fourier.cosines
        uk = u[: kc - v0]
        c_cols = cos(slice(0, kc), slice(v0, v0 + len(uk)))  # c[:, rows]
        uc = np.zeros((len(uk), kc))  # (U_e cb)[rows]
        for chunk in row_chunks(uk.shape[1], kc):
            cb = cos(slice(lo + chunk.start, lo + chunk.stop), slice(0, kc))  # cb[band rows]
            uc += uk[:, chunk] @ cb
            t2 += float(np.sum(uk[:, chunk] * (cb @ c_cols).T))
        t1 += float(np.sum(c_cols.T * uc))  # Tr(c uc) = sum(c * uc.T)
        t3 += self._kernel_term(table, kc, v0, lo, u)
        return t1, t2, t3

    def sweep(self, lams: Sequence[float], cyclicity_at: Optional[float] = None):
        """(traces, defect): Tr(P F^-1 P U_f F) at each lam, and ``cyclicity_defect``
        at ``cyclicity_at`` (None when it is None), from one pass over the panels of U_e.

        The pass is planned first, at its own largest lam or check (``route_c_plan`` of its
        lams and check, which refuses it as it refuses a lab), then allocates one panel
        buffer, the plan's largest panel, and evaluates each of the plan's panels of U_e
        once into it (``ue_panels``: the bad rows the check reads, from row 0 up to the
        check's block, and the good rows, from the first up to the plan's block).  Each
        panel's terms go to every lam and to the check before the next is filled: the good
        rows' kernel term (``_kernel_term``) to each lam's trace, and below the check's block
        its three traces (``_check_terms``).  The quadrature rows meet C[b, bad] in one
        product at the largest lam, before any panel; a trace adds its leading block's row
        sums last, so each sum runs in the order one lam alone would sum it.  Each trace and
        the check log their own time, the check also the plan's multiply-adds; the pass's
        line has the plan's panels, band entries, peak bytes and seconds, the panel buffer's
        bytes, and the rest of the time, mostly the panels' (``panels_ms``).
        """
        start = time.perf_counter()
        ks = [self._sub_block(lam) for lam in lams]
        kc = 0 if cyclicity_at is None else self._sub_block(cyclicity_at)
        top = max([*lams, 0.0 if cyclicity_at is None else cyclicity_at])  # the pass's largest lam
        plan = route_c_plan(self.f, self.fourier.n, top, len(ks), cyclicity_at)  # refusals first
        half, bad, cos = self.fourier.n // 2, plan.bad_rows, self.fourier.cosines
        spent = [0.0] * (len(ks) + 1)  # each trace's own seconds, then the check's
        tables = {}
        for i, k in enumerate([*ks, kc]):
            mark = time.perf_counter()
            if k and k not in tables:
                tables[k] = self.fourier.dirichlet(k, 1 - k, half + k)
            spent[i] += time.perf_counter() - mark
        # the quadrature rows against C[b, bad], transposed, once; each lam sums its block by rows
        k_top = max(ks, default=0)
        products = self.quadrature_rows[: min(k_top, bad), :k_top] * cos(slice(0, min(k_top, bad)), slice(0, k_top))
        bad_terms = [float(products[: min(k, bad), :k].sum(axis=1).sum()) for k in ks]
        del products
        values = [0.0] * len(ks)
        t1 = t2 = t3 = 0.0
        buffer = np.empty(plan.largest_panel)
        for rows, lo, u in chain(
            ue_panels(self.f, self.fourier.n, 0, min(bad, kc), buffer),
            ue_panels(self.f, self.fourier.n, bad, plan.block, buffer),
        ):
            v0 = rows.start
            for i, k in enumerate(ks):
                if bad <= v0 < k:
                    mark = time.perf_counter()
                    values[i] += self._kernel_term(tables[k], k, v0, lo, u)
                    spent[i] += time.perf_counter() - mark
            if v0 < kc:
                mark = time.perf_counter()
                t1, t2, t3 = self._check_terms(tables[kc], kc, v0, lo, u, t1, t2, t3)
                spent[-1] += time.perf_counter() - mark
        for i, (lam, k) in enumerate(zip(lams, ks)):
            values[i] += bad_terms[i]
            message = "route C trace: lam=%g block_rows=%d bad_rows=%d t_route_c=%.15g duration_s=%.6f"
            log.info(message, lam, 2 * k, 2 * min(k, bad), values[i], spent[i])
        defect = None
        if cyclicity_at is not None:
            defect = (max(t1, t2, t3) - min(t1, t2, t3)) / max(abs(t1), 1e-300)
            message = "route C cyclicity: lam=%g block_rows=%d multiply_adds=%d defect=%.3e duration_s=%.6f"
            log.info(message, cyclicity_at, 2 * kc, plan.multiply_adds, defect, spent[-1])
        rest_ms = 1e3 * (time.perf_counter() - start - sum(spent))
        message = ("route C pass: lambdas=%d panels=%d band_entries=%d/%d panel_buffer_bytes=%d "
                   "peak_bytes_estimate=%d predicted_s=%.6g panels_ms=%.3f")
        log_stage(start, message, len(ks), plan.panels, plan.band_entries, half * plan.block, buffer.nbytes,
                  plan.peak_bytes, plan.seconds, rest_ms)
        return values, defect

    def trace_route_c(self, lam: float) -> float:
        """Tr(P F^-1 P U_f F) at lam: ``sweep`` of this lam alone."""
        return self.sweep([lam])[0][0]

    def cyclicity_defect(self, lam: float) -> float:
        """Largest relative gap of Tr((P F^-1 P U_f) F), Tr(F (P F^-1 P U_f)) and the kernel trace.

        With c = C[b, b] and cb = C[:, b], the first is Tr(c (U_e[b, :] cb)) and the second
        Tr((cb c) U_e[b, :]); the third is the kernel trace over the same rows, bad rows
        included, so the literal products certify the kernel at this lam (``_check_terms``).
        """
        return self.sweep([], cyclicity_at=lam)[1]
