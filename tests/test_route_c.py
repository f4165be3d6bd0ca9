"""Route C in the even sector against the full-matrix oracle.

``DenseSignedTraceLab`` is the full-matrix route C: the complex n x n
transform and the n x n U_f on the signed grid, a fresh product for every
lambda and the n x n product in the cyclicity check, one row block at a time.
``SignedTraceLab`` must give the same traces from the even sector alone: the
panels of U_e's good rows over their bands, traced through the Dirichlet
kernel of the block's two cosine factors, and the bad rows' quadrature rows
against their cosines.
"""

import functools
import logging
import math
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import loctrace.cutoff_trace as cutoff_trace_mod
import loctrace.fourier as fourier_mod
from loctrace.cli import run_trace_sweep
from loctrace.cutoff_trace import (
    ROUTE_C_TEMPORARIES,
    RUN_SECONDS_MAX,
    SignedTraceLab,
    block_size,
    chebyshev_degree,
    log_lattice,
    panel_bands,
    route_c_plan,
    ue_panels,
)
from loctrace.fourier import (
    CHUNK_ENTRIES,
    PANEL_ROWS,
    FourierBuildError,
    SIGNED_DEFECT_THRESHOLD,
    FullLineFourier,
    certify,
    full_line_fourier,
    kernel_fft_length,
)
from loctrace.operators import TestFunction
from oracles import full_line_grid, peak_rise


def _fold(k, size: int):
    """Position of |x_k| on the positive half of a symmetric grid of ``size`` points."""
    return abs(2 * k - (size - 1)) // 2


def whole_panels(f: TestFunction, n: int, first: int, stop: int):
    """``ue_panels`` of the rows first..stop-1 in a buffer of PANEL_ROWS whole rows."""
    return ue_panels(f, n, first, stop, np.empty(PANEL_ROWS * (n // 2)))


def band_sizes(f: TestFunction, n: int, first: int, stop: int) -> list[int]:
    """The entries of each panel ``whole_panels`` yields, from its ``panel_bands``."""
    return [(rows.stop - rows.start) * (hi - lo) for rows, lo, hi in panel_bands(f, n, first, stop)]


def pass_walk(f: TestFunction, n: int, lams, check) -> tuple[int, int, int, int]:
    """(panels, band entries, check multiply-adds, largest panel) of one pass over ``lams``
    and the check at ``check`` (None: none), from a walk of ``ue_panels`` over the pass's
    own rows: the bad rows' panels from row 0 up to the check's block, the good rows' up
    to the pass's largest block, each block counted on the float grid.  The check's two
    GEMMs per panel take 2 x (its rows below the check's block) x band x block."""
    xp = full_line_grid(n).positive
    kc = 0 if check is None else int(np.count_nonzero(xp <= check * (1.0 + 1e-12)))
    top = max([int(np.count_nonzero(xp <= lam * (1.0 + 1e-12))) for lam in lams] + [kc])
    bad = int(np.count_nonzero(xp[:top] < SignedTraceLab.BAD_ROW_EXTENT))
    buffer = np.empty(PANEL_ROWS * (n // 2))
    panels = entries = multiply_adds = largest = 0
    for rows, _, u in chain(ue_panels(f, n, 0, min(bad, kc), buffer), ue_panels(f, n, bad, top, buffer)):
        panels, entries, largest = panels + 1, entries + u.size, max(largest, u.size)
        multiply_adds += 2 * max(0, min(rows.stop, kc) - rows.start) * u.shape[1] * kc
    return panels, entries, multiply_adds, largest


def logged_fields(records) -> dict:
    """The key=value fields of log records, later lines overriding earlier ones."""
    fields = {}
    for message in (r.getMessage() for r in records):
        fields.update(item.split("=", 1) for item in message.split() if "=" in item)
    return fields


def ue_on_the_log_axis(f: TestFunction, grid, rows) -> np.ndarray:
    """U_e[rows, :] over the whole positive half of ``grid`` (a ``full_line_grid``) by the
    per-element log-axis formula f.of_log(log v - log y) r_v r_y, with
    r_j = 1/sqrt(j + 1/2) = sqrt(step / x_j)."""
    logs = np.log(grid.positive)
    r = 1.0 / np.sqrt(np.arange(grid.n // 2) + 0.5)
    return f.of_log(logs[rows, None] - logs) * r[rows, None] * r


@functools.lru_cache(maxsize=None)
def _legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1]; 512 of them take numpy seconds."""
    return np.polynomial.legendre.leggauss(nodes)


def gauss_legendre_rows(f: TestFunction, vs, us, step: float, nodes: int) -> np.ndarray:
    """2 step int f(v/y) (vy)^{-1/2} cos(2 pi y u) dy for v in vs, u in us.

    Gauss-Legendre in y on each row's own support [v e^-rho, v e^rho]: no
    node is shared between rows, unlike the log lattice of the lab.
    """
    rho = f.support_radius
    x, wts = _legendre(nodes)
    out = np.empty((len(vs), len(us)))
    for i, v in enumerate(vs):
        a, b = v * math.exp(-rho), v * math.exp(rho)
        y = 0.5 * (b - a) * x + 0.5 * (b + a)
        base = f(v / y) / np.sqrt(v * y) * (0.5 * (b - a) * wts)
        out[i] = np.cos(2.0 * np.pi * np.outer(us, y)) @ base
    return out * (2.0 * step)


class DenseSignedTraceLab:
    """Full-matrix route C: dense n x n cutoffs, transform and U_f.

    Rows with |x| < 0.5 are integrated by ``gauss_legendre_rows`` at 512
    nodes, converged to about 3e-13 at the parameters below.  Their entries
    depend on (|v|, |u|) only, so each pair is integrated once, the first
    time a block needs it.
    """

    BAD_ROW_EXTENT = 0.5
    GL_NODES = 512
    # rows per block of the n x n arrays the oracle builds or multiplies, so that their
    # temporaries are of a block's size
    BLOCK_ROWS = 256

    def __init__(self, f: TestFunction, n: int):
        self.f = f
        self.grid = full_line_grid(n)
        x = self.grid.x
        self.fourier_matrix = self.grid.fourier_matrix()
        self.uf_matrix = np.empty((n, n))
        for r in range(0, n, self.BLOCK_ROWS):
            xr = x[r : r + self.BLOCK_ROWS]
            ratio = np.abs(np.outer(xr, 1.0 / x))
            uf = f(ratio) / (2.0 * np.sqrt(np.abs(np.outer(xr, x)))) * self.grid.step
            self.uf_matrix[r : r + len(xr)] = uf
        self._xp = self.grid.positive
        # (U_f F)(|v|, |u|) for the bad |v| and the first columns of the positive half
        self._bad_block = np.empty((int((self._xp < self.BAD_ROW_EXTENT).sum()), 0))

    def _uf_fourier_rows(self, rows, cols):
        n = self.grid.n
        pr, pc = _fold(rows, n), _fold(cols, n)
        have = self._bad_block.shape[1]
        if pc.max() >= have:
            vs, us = self._xp[: len(self._bad_block)], self._xp[have : pc.max() + 1]
            new = gauss_legendre_rows(self.f, vs, us, self.grid.step, self.GL_NODES)
            self._bad_block = np.hstack([self._bad_block, new / 2.0])  # U_f is U_e / 2
        return self._bad_block[np.ix_(pr, pc)]

    def trace_route_c(self, lam):
        x = self.grid.x
        if lam >= self.grid.extent / 2.0:
            raise ValueError("lam too close to the signed-grid extent")
        bi = np.where(np.abs(x) <= lam * (1.0 + 1e-12))[0]
        Fm = self.fourier_matrix
        m1 = np.conj(Fm[np.ix_(bi, bi)])
        m2 = self.uf_matrix[bi, :] @ Fm[:, bi]
        bad = np.abs(x[bi]) < self.BAD_ROW_EXTENT
        if bad.any():
            m2[bad, :] = self._uf_fourier_rows(bi[bad], bi)
        return float(np.sum(m1 * m2.T).real)

    def cyclicity_defect(self, lam):
        x = self.grid.x
        bi = np.where(np.abs(x) <= lam * (1.0 + 1e-12))[0]
        Fm = self.fourier_matrix
        pu = np.conj(Fm[np.ix_(bi, bi)]) @ self.uf_matrix[bi, :]
        t1 = np.trace(pu @ Fm[:, bi])
        # the trace of the n x n product Fm[:, bi] @ pu, from the diagonals of its row blocks
        diagonal = np.empty(self.grid.n, dtype=complex)
        for r in range(0, self.grid.n, self.BLOCK_ROWS):
            diagonal[r : r + self.BLOCK_ROWS] = np.diagonal(Fm[r : r + self.BLOCK_ROWS, bi] @ pu, offset=r)
        t2 = diagonal.sum()
        return float(abs(t1 - t2) / max(abs(t1), 1e-300))


@pytest.mark.parametrize("n, max_lambda", [(1024, 6.0), (4096, 8.0)])
@pytest.mark.parametrize("center", [-0.3, 0.0, 0.3])
def test_blocked_route_c_matches_dense_oracle(n, max_lambda, center):
    f = TestFunction(center=center, width=0.25, support_radius=1.5)
    lams = (0.125, 1.0, 2.0, 4.0, max_lambda)
    oracle = DenseSignedTraceLab(f, n)
    want = [oracle.trace_route_c(lam) for lam in lams]
    want_cyc = oracle.cyclicity_defect(2.0)
    del oracle  # the full-matrix lab holds about 0.4 GB at n = 4096
    lab = SignedTraceLab(f, n, max_lambda)
    for lam, w in zip(lams, want):
        got = lab.trace_route_c(lam)
        assert abs(got - w) <= 1e-12 * abs(w), (lam, got, w)
    assert want_cyc < 1e-8
    for lam in (2.0, max_lambda):
        assert lab.cyclicity_defect(lam) < 1e-8


def test_trace_beyond_max_lambda_is_refused(signed_lab):
    with pytest.raises(ValueError, match="exceeds this lab's max_lambda"):
        signed_lab.trace_route_c(8.5)
    with pytest.raises(ValueError, match="exceeds this lab's max_lambda"):
        signed_lab.cyclicity_defect(16.0)


def test_sweep_refuses_a_pass_beyond_the_run_time_budget(standard_bump, monkeypatch):
    # the lab's set-up and a pass of its traces fit the budget; the check over its whole
    # block of 4096 rows would take 2.9e11 multiply-adds, and the pass refuses it from its
    # plan before it builds a table or a panel
    lab = SignedTraceLab(standard_bump, 65536, 16.0)
    assert lab.plan.seconds < RUN_SECONDS_MAX

    def no_work(*args, **kwargs):
        raise AssertionError("the pass started")

    monkeypatch.setattr(cutoff_trace_mod, "ue_panels", no_work)
    monkeypatch.setattr(lab.fourier, "dirichlet", no_work)
    with pytest.raises(ValueError, match="multiply-adds of the cyclicity check"):
        lab.cyclicity_defect(16.0)


@pytest.mark.parametrize(
    "n, max_lambda", [(64, 8.0), (64, 1.96875), (1024, 7.9921875), (4096, 16.0)]
)
def test_lab_refuses_lambda_at_half_extent(standard_bump, n, max_lambda):
    half = full_line_grid(n).extent / 2.0
    assert max_lambda >= half
    with pytest.raises(ValueError, match="lam too close to the signed-grid extent"):
        SignedTraceLab(standard_bump, n, max_lambda)
    assert route_c_plan(standard_bump, n, float(np.nextafter(half, 0.0))).peak_bytes > 0


@pytest.mark.parametrize("n", [0, 1, 63, 4095])
def test_route_c_bytes_refuses_odd_grids(standard_bump, n):
    with pytest.raises(ValueError, match="even n"):
        route_c_plan(standard_bump, n, 0.5)


@pytest.mark.parametrize(
    "n, lam", [(64, 0.0), (64, 0.01), (64, 0.5), (1024, 1.0), (4096, 2.0), (4096, 8.0)]
)
def test_route_c_bytes_counts_the_lab_block(standard_bump, n, lam):
    # the plan's peak, term by term, from the block counted on the float grid
    xp = full_line_grid(n).positive
    half, b = n // 2, int(np.count_nonzero(xp <= lam * (1.0 + 1e-12)))
    bad = int((xp[:b] < SignedTraceLab.BAD_ROW_EXTENT).sum())
    # the largest of the good rows' panels and the widest band: a plan without a check
    # evaluates no bad row's panel
    shapes = [u.shape for _, _, u in whole_panels(standard_bump, n, bad, b)]
    panel = max((rows * cols for rows, cols in shapes), default=0)
    widest = max((cols for _, cols in shapes), default=0)
    tables = 2 * (half + 2 * b)  # a pass of one lam: its table and the cyclicity check's
    chunk = min(half * b, max(CHUNK_ENTRIES, widest, b))
    vectors = 14 * n + (6 * kernel_fft_length(n, b) if b else 0)
    points = chebyshev_degree(standard_bump, xp[bad - 1] * xp[b - 1]) + 1 if bad else 0
    quadrature = bad * b + (ROUTE_C_TEMPORARIES * max(CHUNK_ENTRIES, b, 3 * points) if bad else 0)
    # the bad-row term's arrays and the check's, against the set-up's quadrature
    passing = 2 * bad * b + 3 * min(PANEL_ROWS, b) * b
    temporaries = ROUTE_C_TEMPORARIES * chunk + vectors + max(quadrature, passing)
    plan = route_c_plan(standard_bump, n, lam)
    assert (plan.block, plan.bad_rows, plan.largest_panel) == (b, bad, panel)
    assert plan.peak_bytes == 8 * (bad * b + panel + tables + temporaries)
    # each further lam of a pass adds its table
    assert route_c_plan(standard_bump, n, lam, lambdas=3).peak_bytes == plan.peak_bytes + 16 * (half + 2 * b)
    if b:
        lab = SignedTraceLab(standard_bump, n, lam)
        assert not hasattr(lab.fourier, "matrix") and not hasattr(lab, "m_even")
        # the lab keeps the bad rows' quadrature rows and no row of U_e
        assert lab.quadrature_rows.nbytes == 8 * bad * b < plan.peak_bytes
        # and so is the lattice behind the lab's refusal
        assert lab.plan == plan
        assert (plan.lattice is not None) == (bad > 0) == (plan.degree > 0)


@st.composite
def signed_geometries(draw, max_n: int = 8192):
    """(n, lam): an even n in 64..max_n and a lam in (0, extent/2), often on a cell
    edge (lam sqrt(n) an integer) or on a grid point (a half-integer), the
    latter written both as the grid writes it and as a quotient."""
    n = 2 * draw(st.integers(32, max_n // 2))
    root, limit = math.sqrt(n), full_line_grid(n).extent / 2.0
    kind = draw(st.sampled_from(["anywhere", "cell edge", "point", "point as quotient"]))
    if kind == "anywhere":
        lam = limit * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        k = draw(st.integers(0, int(limit * root)))
        lam = {
            "cell edge": k / root,
            "point": (k + 0.5) * (1.0 / root),
            "point as quotient": (k + 0.5) / root,
        }[kind]
    assume(0.0 < lam < limit)
    return n, lam


@settings(max_examples=400)
@given(geometry=signed_geometries())
@example(geometry=(64, 0.01))  # an empty block
@example(geometry=(64, 0.5))  # a cell edge at the bad-row extent
@example(geometry=(4096, 8.0))
def test_route_c_plan_matches_the_grid_property(geometry):
    n, lam = geometry
    f = TestFunction()
    plan = route_c_plan(f, n, lam)
    # the counts of the dense oracle, on the float grid
    x = full_line_grid(n).x
    block = np.abs(x) <= lam * (1.0 + 1e-12)
    assert 2 * plan.block == np.count_nonzero(block)
    assert 2 * plan.bad_rows == np.count_nonzero(block & (np.abs(x) < SignedTraceLab.BAD_ROW_EXTENT))
    # the lattice and the degree of the lab's own points, bit for bit: the largest
    # product of a bad row and a column of the block's positive half
    xb = x[n // 2 :][: plan.block]
    bad = xb[xb < SignedTraceLab.BAD_ROW_EXTENT]
    w_max = bad.max() * xb.max() if len(bad) else None
    assert plan.lattice == (log_lattice(f, w_max) if len(bad) else None)
    assert plan.degree == (chebyshev_degree(f, w_max) if len(bad) else 0)
    if n <= 512 and plan.block:
        lab = SignedTraceLab(f, n, lam)
        assert lab.quadrature_rows.nbytes + 8 * plan.largest_panel < plan.peak_bytes


@pytest.mark.parametrize("width, rho", [(1e-7, 1.5), (0.25, 8.3), (0.25, 800.0), (1e-160, 1.5)])
def test_lab_refuses_a_lattice_beyond_the_cap(width, rho):
    # the lattice grows as 1/width and e^rho and the series' degree as e^rho, so the
    # set-up's cosine table does: 1.2e10 entries at width 1e-7 and 1.3e10 at rho 8.3,
    # beyond the float range at rho 800.  1e-160 is about the least width whose square
    # TestFunction takes.  Each is refused by the run-time budget before the lab allocates
    f = TestFunction(width=width, support_radius=rho)
    with pytest.raises(ValueError, match=f"above the {RUN_SECONDS_MAX:g} s budget, .* of the bad rows' cosine table"):
        SignedTraceLab(f, 4096, 8.0)


@settings(max_examples=200)
@given(
    geometry=signed_geometries(max_n=1024),
    center=st.floats(-1e100, 1e100),
    width=st.floats(1e-160, 1e160),
    rho=st.floats(1e-300, 1e300),
)
@example(geometry=(64, 0.01), center=0.0, width=0.25, rho=800.0)  # an empty block: e^rho overflowed
@example(geometry=(64, 1.0), center=0.0, width=0.25, rho=709.8)
def test_plan_refuses_any_profile_with_a_value_error_property(geometry, center, width, rho):
    # the plan of any profile TestFunction takes is made or refused with a ValueError:
    # an e^rho, a lattice or a series beyond the float range is an infinite cost
    n, lam = geometry
    try:
        f = TestFunction(center=center, width=width, support_radius=rho)
    except ValueError:
        assume(False)
    try:
        plan = route_c_plan(f, n, lam, 3, lam)
    except ValueError as exc:
        assert "budget" in str(exc), exc
    else:
        assert plan.seconds <= RUN_SECONDS_MAX


_RISE_SCRIPT = """
import sys
from loctrace.cutoff_trace import SignedTraceLab
from loctrace.operators import TestFunction
f = TestFunction()
SignedTraceLab(f, 64, 0.5)  # imports, quadrature nodes and BLAS buffers first
before = peak()
lab = SignedTraceLab(f, int(sys.argv[1]), float(sys.argv[2]))
print(peak() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's VmHWM")
@pytest.mark.parametrize("n, lam", [(4096, 8.0), (1024, 6.0)])
def test_route_c_bytes_bounds_the_setup_peak(n, lam):
    rise = peak_rise(_RISE_SCRIPT, n, lam)
    bound = route_c_plan(TestFunction(), n, lam).peak_bytes
    assert 0 < rise <= bound, (rise, bound)


_PASS_RISE_SCRIPT = """
import sys
from loctrace.cutoff_trace import SignedTraceLab
from loctrace.operators import TestFunction
f = TestFunction()
lab = SignedTraceLab(f, 64, 0.5)  # imports, quadrature nodes and BLAS buffers first
lab.sweep([0.5], cyclicity_at=0.5)
before = peak()
n, lam = int(sys.argv[1]), float(sys.argv[2])
lab = SignedTraceLab(f, n, lam)
lab.sweep([lam / 4.0, lam / 2.0, lam], cyclicity_at=lam / 4.0)
print(peak() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's VmHWM")
@pytest.mark.parametrize("n, lam", [(4096, 8.0), (8192, 8.0)])
def test_route_c_bytes_bounds_the_setup_and_pass_peak(n, lam):
    # the resident peak of the set-up and one pass over three lams, as a sweep runs them
    rise = peak_rise(_PASS_RISE_SCRIPT, n, lam)
    bound = route_c_plan(TestFunction(), n, lam, lambdas=3).peak_bytes
    assert 0 < rise <= bound, (rise, bound)


def test_setup_and_cyclicity_never_form_an_n_half_by_block_array(standard_bump):
    # C[:, b], U_e[b, :] or C[b, b] U_e[b, :] would be an n/2 x |b| array: neither the
    # set-up nor a pass forms one
    n, lam = 4096, 8.0
    tracemalloc.start()
    try:
        lab = SignedTraceLab(standard_bump, n, lam)
        held, setup_peak = tracemalloc.get_traced_memory()
        peaks = {}
        for name, call in [
            ("traces", lambda: lab.sweep([2.0, 4.0, lam])),
            ("cyclicity", lambda: lab.cyclicity_defect(2.0)),
            ("cyclicity at max_lambda", lambda: lab.cyclicity_defect(lam)),
            ("sweep", lambda: lab.sweep([2.0, 4.0, lam], cyclicity_at=lam)),
        ]:
            tracemalloc.reset_peak()
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    wide = 8 * (n // 2) * lab.plan.block
    assert setup_peak - lab.quadrature_rows.nbytes < wide
    assert all(peak < wide for peak in peaks.values()), peaks


@pytest.mark.parametrize("n, lam", [(4096, 8.0), (8192, 8.0)])
def test_a_pass_holds_one_panel(standard_bump, n, lam):
    # a pass over three lams and the check holds one panel buffer, the largest panel's,
    # and the temporaries of one row chunk at a time: its traced peak above what the lab
    # holds stays within them (2224443 bytes at n 4096, 13 chunks above the panel, while
    # each panel was a new array allocated with the one before still alive)
    lab = SignedTraceLab(standard_bump, n, lam)
    tracemalloc.start()
    try:
        lams = [lam / 4.0, lam / 2.0, lam]
        held = tracemalloc.get_traced_memory()[0]
        lab.sweep(lams, cyclicity_at=lams[0])
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert 0 < peak <= 8 * lab.plan.largest_panel + ROUTE_C_TEMPORARIES * 8 * CHUNK_ENTRIES, peak


@pytest.mark.parametrize(
    "n, lams", [(4096, (2.0, 4.0, 8.0)), (1024, (0.3, 1.0, 6.0)), (16384, (8.0,)), (2000, (0.1, 7.3))]
)
def test_lab_holds_no_panel_and_its_plan_bounds_setup_and_pass(standard_bump, n, lams):
    # after set-up the lab holds no array of |b|^2 entries (the bands of U_e[b, :] alone
    # hold about 2.1 |b|^2), and the traced peak of the set-up and one pass over every
    # lam and the cyclicity check stays within the plan of that many lams
    tracemalloc.start()
    try:
        lab = SignedTraceLab(standard_bump, n, max(lams))
        held_by = [lab, lab.fourier, lab.plan]
        arrays = [a for owner in held_by for a in vars(owner).values() if isinstance(a, np.ndarray)]
        assert not [a for owner in held_by for a in vars(owner).values() if isinstance(a, list)]
        lab.sweep(lams, cyclicity_at=min(lams))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    b = lab.plan.block
    assert arrays and max(a.size for a in arrays) < b * b
    bound = route_c_plan(standard_bump, n, max(lams), lambdas=len(lams)).peak_bytes
    assert 0 < peak <= bound, (peak, bound)


def test_plan_bounds_setup_and_pass_with_half_rows_above_a_chunk(standard_bump):
    # n/2 = 32768 > CHUNK_ENTRIES: the chunks are a band's rows (at most 2185 columns
    # here) or the check's cosine rows against the block, not whole half-grid rows
    n, lams = 65536, (0.5, 1.0, 2.0)
    assert n // 2 > CHUNK_ENTRIES
    tracemalloc.start()
    try:
        lab = SignedTraceLab(standard_bump, n, max(lams))
        lab.sweep(lams, cyclicity_at=min(lams))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = route_c_plan(standard_bump, n, max(lams), lambdas=len(lams)).peak_bytes
    assert 0 < peak <= bound, (peak, bound)


@pytest.mark.parametrize(
    "n, lam, chunk_entries",
    [
        # with CHUNK_ENTRIES = 2**14 at n = 4096: a panel's chunks hold 2**14 // (its band) rows
        (4096, 0.1, None),  # |b| = 6, below one panel
        (4096, 7.3, None),  # |b| = 467, not a multiple of 32
        (4096, 8.0, None),  # the default block
        (512, 3.0, 1),  # one row per chunk
        (1000, 5.0, 1500),  # |b| = 158: bands of 141-478 columns, 3- to 10-row chunks
        (2000, 7.3, 5000),  # |b| = 326: bands of 141-957 columns, 5-row chunks to whole panels
    ],
)
def test_chunked_setup_is_bit_identical_to_one_shot(monkeypatch, n, lam, chunk_entries):
    if chunk_entries is None:
        assert CHUNK_ENTRIES == 2**14  # the geometries above are chosen for it
    else:
        monkeypatch.setattr(fourier_mod, "CHUNK_ENTRIES", chunk_entries)
    f = TestFunction(center=0.3, width=0.25, support_radius=1.5)
    lab = SignedTraceLab(f, n, lam)
    step, half, b = lab.fourier.step, n // 2, lab.plan.block
    odd = 2 * np.arange(half) + 1
    phase = np.outer(odd, odd[:b]) % (4 * n)
    matrix = 2.0 * step * np.cos(phase * (2.0 * np.pi / (4 * n)))
    u_even = ue_on_the_log_axis(f, full_line_grid(n), slice(0, b))
    assert np.array_equal(lab.fourier.cosines(slice(0, half), slice(0, b)), matrix)
    # the panels one pass evaluates over their bands, zero elsewhere, are U_e[b, :] of
    # the log-axis formula over the whole half-grid bit for bit, the bad rows' panels first
    # and the good rows' from the first good row; so are those ue_panels yields from row 0.
    # Each panel is a view of the generator's one buffer, valid until the next is asked
    # for, so the recorder keeps a copy of each as it is yielded
    passed = []

    def recording(*args, **kwargs):
        for rows, lo, u in ue_panels(*args, **kwargs):
            passed.append((rows, lo, u.copy()))
            yield rows, lo, u

    monkeypatch.setattr(cutoff_trace_mod, "ue_panels", recording)
    lab.sweep([lam], cyclicity_at=lam)
    starts = [rows.start for rows, _, _ in passed]
    bad = lab.plan.bad_rows
    assert starts == [*range(0, bad, PANEL_ROWS), *range(bad, b, PANEL_ROWS)]
    for panels in (passed, whole_panels(f, n, 0, b)):
        banded = np.zeros_like(u_even)
        for rows, lo, u in panels:
            banded[rows, lo : lo + u.shape[1]] = u
        assert np.array_equal(banded, u_even)
    # the kernel trace against the literal Tr(C[b, b] U_e[b, :] C[:, b]) of the same
    # rows: the two sum in other orders, so they agree to rounding, not bit for bit
    m_even = u_even @ matrix
    m_even[: lab.plan.bad_rows] = lab.quadrature_rows
    want = float(np.sum(matrix[:b] * m_even))
    assert abs(lab.trace_route_c(lam) - want) <= 1e-14 * np.abs(matrix[:b] * m_even).sum()


def test_cosine_block_holds_its_index_and_result_alone():
    # the gather of a 128 x 128 block (128 KiB a side, below numpy's 256 KiB threshold
    # for reusing a temporary in place) holds at most two arrays of its size at once, its
    # int64 index and the result: 265952 bytes traced on numpy 2.4
    fl = FullLineFourier(4096, 128)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        block = fl.cosines(slice(0, 128), slice(0, 128))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert block.nbytes == 2**17
    assert 2 * block.nbytes < peak < 2.5 * block.nbytes, peak


def test_cosine_block_is_exactly_symmetric(signed_lab):
    # the cosines of rows and columns swapped are the transpose bit for bit, as the bad
    # rows' term and the cyclicity check read them
    b = signed_lab.plan.block
    c = signed_lab.fourier.cosines(slice(0, b), slice(0, b))
    assert np.array_equal(c, c.T)
    wide = signed_lab.fourier.cosines(slice(0, 2048), slice(0, 40))
    assert np.array_equal(wide, signed_lab.fourier.cosines(slice(0, 40), slice(0, 2048)).T)


@settings(max_examples=100)
@given(
    geometry=signed_geometries(),
    center_frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(0.01, 2.0),
    rho=st.floats(0.5, 3.0),
)
@example(geometry=(4096, 8.0), center_frac=0.0, width=0.25, rho=1.5)
@example(geometry=(8192, 22.0), center_frac=0.99, width=0.01, rho=3.0)
@example(geometry=(64, 1.9), center_frac=-0.99, width=2.0, rho=0.5)
def test_ue_panels_are_exact_on_the_band_property(geometry, center_frac, width, rho):
    # every row of every panel against the per-element log-axis formula over the whole
    # positive half-grid: the same floats on the band, exact zeros off it
    n, lam = geometry
    f = TestFunction(center=center_frac * rho, width=width, support_radius=rho)
    grid = full_line_grid(n)
    b = block_size(n, lam)
    covered = 0
    for rows, lo, u in whole_panels(f, n, 0, b):
        assert rows.start == covered and len(u) == rows.stop - rows.start <= PANEL_ROWS
        covered = rows.stop
        dense = ue_on_the_log_axis(f, grid, rows)
        hi = lo + u.shape[1]
        assert not dense[:, :lo].any() and not dense[:, hi:].any(), (rows, lo, hi)
        assert np.array_equal(dense[:, lo:hi], u)
    assert covered == b


@settings(max_examples=60)
@given(
    geometry=signed_geometries(),
    center_frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(0.01, 2.0),
    rho=st.floats(0.5, 3.0),
)
@example(geometry=(4096, 8.0), center_frac=0.2, width=0.25, rho=1.5)
@example(geometry=(8192, 22.0), center_frac=0.4, width=0.01, rho=2.8)
@example(geometry=(4096, 7.3), center_frac=0.99, width=0.01, rho=3.0)
def test_log_axis_ue_matches_the_product_form_property(geometry, center_frac, width, rho):
    # the panels, f.of_log(log v - log y) r_v r_y, against the product form
    # f(v (1/y)) / sqrt(vy) step: the two take the log of v/y in other roundings, which the
    # Gaussian's slope multiplies by up to about 1/width.  Over 920 random geometries
    # and profiles (widths down to 0.01) the worst gap was 6.4e-14 of the largest entry
    n, lam = geometry
    f = TestFunction(center=center_frac * rho, width=width, support_radius=rho)
    grid = full_line_grid(n)
    xp = grid.positive
    gap = largest = 0.0
    for rows, lo, u in whole_panels(f, n, 0, block_size(n, lam)):
        xr, y = xp[rows], xp[lo : lo + u.shape[1]]
        product = f(np.outer(xr, 1.0 / y)) / np.sqrt(np.outer(xr, y)) * grid.step
        gap = max(gap, float(np.abs(u - product).max()))
        largest = max(largest, float(np.abs(product).max()))
    assert gap <= 2e-13 * largest, (n, lam, f, gap, largest)


profiles = st.builds(
    lambda frac, width, rho: TestFunction(center=frac * rho, width=width, support_radius=rho),
    frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(0.01, 2.0),
    rho=st.floats(0.5, 3.0),
)


@settings(max_examples=10)
@given(geometry=signed_geometries(max_n=4096), f=profiles)
@example(geometry=(4096, 7.3), f=TestFunction(center=2.97, width=0.01, support_radius=3.0))
@example(geometry=(1000, 5.0), f=TestFunction(center=-0.495, width=2.0, support_radius=0.5))
@example(geometry=(64, 1.9), f=TestFunction(center=0.3, width=0.05, support_radius=1.5))
def test_kernel_trace_matches_dense_oracle_property(geometry, f):
    # the oracle takes the lab's quadrature rows for its bad rows, so every other entry
    # of the trace is the full-matrix product's
    n, lam = geometry
    lab = SignedTraceLab(f, n, lam)
    oracle = DenseSignedTraceLab(f, n)
    rows = lab.quadrature_rows
    oracle._uf_fourier_rows = lambda r, c: rows[np.ix_(_fold(r, n), _fold(c, n))] / 2.0
    for x in (lam, lam / 3.0):
        want = oracle.trace_route_c(x)
        got = lab.trace_route_c(x)
        assert abs(got - want) <= 1e-12 * abs(want), (n, x, f, got, want)


def peak_bytes_before_the_kernel(n: int, b: int, bad: int) -> int:
    """route_c_plan's peak while the lab held C[:, b] and M_e = U_e[b, :] C[:, b]."""
    half = n // 2
    kept = half * b + b * b
    panel = min(PANEL_ROWS, b) * half
    chunk = min(half * b, max(CHUNK_ENTRIES, half))
    quadrature = 2 * bad * b + (ROUTE_C_TEMPORARIES * max(CHUNK_ENTRIES, b) if bad else 0)
    return 8 * (kept + panel + ROUTE_C_TEMPORARIES * chunk + 24 * n + quadrature + b * b)


@settings(max_examples=300)
@given(geometry=signed_geometries(), f=profiles)
@example(geometry=(64, 0.01), f=TestFunction())  # an empty block
@example(geometry=(4096, 8.0), f=TestFunction())
@example(geometry=(8192, 22.0), f=TestFunction(center=0.0, width=0.25, support_radius=3.0))
def test_route_c_plan_never_exceeds_the_cosine_block_plan_property(geometry, f):
    # the panels and bad rows hold at most the n/2 x |b| entries of C[:, b], a panel at
    # most PANEL_ROWS whole rows, and the band counts are exact: the entries ue_panels
    # yields and those of its largest panel
    n, lam = geometry
    plan = route_c_plan(f, n, lam)
    bad, b = plan.bad_rows, plan.block
    sizes = band_sizes(f, n, bad, b)
    band, largest = sum(sizes), max(sizes, default=0)
    assert band + bad * b <= (n // 2) * b
    assert largest <= plan.largest_panel <= PANEL_ROWS * (n // 2)
    assert plan.peak_bytes <= peak_bytes_before_the_kernel(n, b, bad)
    if n <= 1024:
        sizes = [u.size for _, _, u in whole_panels(f, n, bad, b)]
        assert (band, largest) == (sum(sizes), max(sizes, default=0))


def test_block_certification_passes_and_reports_its_defect():
    fl = full_line_fourier(4096, 512)  # the block x <= 8
    assert not hasattr(fl, "matrix")  # no cosine block is formed
    assert set(fl.defects) == {"involution", "kernel"}
    assert all(0.0 < d < 1e-10 for d in fl.defects.values())
    assert fl.unitarity_defect == max(fl.defects.values())


def _perturbed_kernel(fl, at: int, delta):
    """fl.dirichlet with K_k(at) moved by delta."""
    dirichlet = fl.dirichlet

    def perturbed(k, first, stop):
        out = dirichlet(k, first, stop).astype(np.result_type(float, delta))
        if first <= at < stop:
            out[at - first] += delta
        return out

    return perturbed


@pytest.mark.parametrize("row, col", [(0, 0), (517, 3), (1023, 63), (300, 40)])
@pytest.mark.parametrize("delta", [1e-8, 1e-8j])
def test_perturbed_block_entry_fails_certification(row, col, delta):
    # (row, col) is an entry of the signed block (1024 x 64) at |x| <= 1; it folds into
    # (l, j) of the even sector, where (C P_b C)[l, j] = K(l + j + 1) + K(l - j).  The kernel
    # value K(l - j) is perturbed, by a real delta or by an imaginary part the real
    # kernel must not have
    fl = FullLineFourier(1024, 32)
    fl.dirichlet = _perturbed_kernel(fl, _fold(row, 1024) - _fold(col, 64), delta)
    with pytest.raises(FourierBuildError) as exc:
        certify(fl, SIGNED_DEFECT_THRESHOLD, "signed n=1024 cols=32")
    assert exc.value.defect >= 1e-8 * (1.0 - 1e-6)
    assert fl.defects["kernel"] == exc.value.defect


@pytest.mark.parametrize("n, cols", [(1024, 32), (4096, 512), (1000, 5)])
@pytest.mark.parametrize("shift", [1, -1])
def test_kernel_table_shifted_by_one_index_fails_certification(n, cols, shift):
    fl = FullLineFourier(n, cols)
    dirichlet = fl.dirichlet
    fl.dirichlet = lambda k, first, stop: dirichlet(k, first + shift, stop + shift)
    with pytest.raises(FourierBuildError, match="kernel"):
        certify(fl, SIGNED_DEFECT_THRESHOLD, f"signed n={n} cols={cols}")


@pytest.mark.parametrize("index", [1, 9, 4 * 512 - 1])
def test_corrupted_literal_cosine_fails_trace_cyclicity(standard_bump, index):
    # the literal products read C from the cosine table, the kernel trace does not: a
    # corrupted cosine shifts both literal orders alike but not the kernel trace
    lab = SignedTraceLab(standard_bump, 512, 2.0)
    assert lab.cyclicity_defect(2.0) < 1e-8
    lab.fourier.table[index] += 1e-6
    assert lab.cyclicity_defect(2.0) > 1e-8


@pytest.mark.parametrize("n, max_lambda, lam", [(4096, 8.0, 2.0), (4096, 8.0, 0.3), (1000, 5.0, 5.0)])
def test_route_c_sweep_evaluates_each_ue_entry_once(monkeypatch, tmp_path, n, max_lambda, lam):
    # one sweep with route C evaluates the profile on the log axis (outside f(t) itself,
    # which routes A and B call) at exactly the panels' band entries and the bad rows'
    # lattice: each entry of U_e once, none twice.  The cyclicity check at the least lam
    # reads the bad rows' panels up to its block, each over its own rows' band; from lam
    # 0.5 on that is all of them.  The bad rows' quadrature reads the profile once per node
    # of Phi's lattice
    f = TestFunction(center=0.3)
    entries, inside = [], []
    of_log, call = TestFunction.of_log, TestFunction.__call__

    def counting_of_log(self, x, out=None):
        if not inside:
            entries.append(np.size(x))
        return of_log(self, x, out=out)

    def counting_call(self, t):
        inside.append(t)
        try:
            return call(self, t)
        finally:
            inside.pop()

    monkeypatch.setattr(TestFunction, "of_log", counting_of_log)
    monkeypatch.setattr(TestFunction, "__call__", counting_call)
    config = {
        "field": "R",
        "grid": {"log_t_half_range": math.log(1e3), "n": 512},
        "test_function": {"kind": "log_gauss_bump", "center": 0.3, "width": 0.25, "support_radius": 1.5},
        "lambdas": sorted({lam, max_lambda}),
        "route_c": {"enabled": True, "n_signed": n, "max_lambda": max_lambda},
    }
    summary = run_trace_sweep(config, tmp_path, fit_gates=False)
    assert summary["gates"]["trace_cyclicity"]["value"] < 1e-8
    plan = route_c_plan(f, n, max_lambda)
    bad, b, check = plan.bad_rows, plan.block, block_size(n, lam)
    bad_band = sum(band_sizes(f, n, 0, min(bad, check)))
    assert sum(entries) == bad_band + sum(band_sizes(f, n, bad, b)) + plan.lattice[2]


def test_fft_form_matches_dense_matrix():
    # apply is the even sector's DCT-IV, C[j, k] = 2 step cos(2 pi x_j x_k), built here
    # with np.cos of the integer outer product (2j+1)(2k+1) mod 4n, not from the table
    rng = np.random.default_rng(3)
    for n in (256, 1000, 4096):
        sg = full_line_grid(n)
        fl = FullLineFourier(n, 128)
        odd = 2 * np.arange(n // 2) + 1
        C = 2.0 * sg.step * np.cos(np.outer(odd, odd) % (4 * n) * (2.0 * np.pi / (4 * n)))
        x = rng.standard_normal(n // 2)
        assert np.abs(fl.apply(x) - C @ x).max() < 1e-12
        assert np.abs(fl.apply(fl.apply(x)) - x).max() < 1e-12
        if n == 256:
            # the full-line F on x mirrored onto both signs, read on the positive half
            F = sg.fourier_matrix()
            assert np.abs(fl.apply(x) - (F @ np.concatenate([x[::-1], x]))[n // 2 :]).max() < 1e-12


@pytest.mark.parametrize("n", [64, 1024])
def test_uf_is_even_in_both_arguments_bit_for_bit(n):
    uf = DenseSignedTraceLab(TestFunction(center=0.3), n).uf_matrix
    assert np.array_equal(uf, uf[:, ::-1])
    assert np.array_equal(uf, uf[::-1, :])


@pytest.mark.parametrize("lam", [0.25, 1.0, 2.0])
def test_odd_sector_part_of_the_trace_vanishes(lam):
    # R is the reflection x -> -x; U_f kills odd vectors and F commutes with R,
    # so Tr(P F^-1 P U_f F (I - R) / 2) is rounding noise
    oracle = DenseSignedTraceLab(TestFunction(center=-0.2), 512)
    x = oracle.grid.x
    p = (np.abs(x) <= lam * (1.0 + 1e-12)).astype(float)
    Fm = oracle.fourier_matrix
    a = (p[:, None] * np.conj(Fm) * p[None, :]) @ oracle.uf_matrix @ Fm
    odd = (a - a[:, ::-1]) / 2.0  # a @ (I - R) / 2
    even = (a + a[:, ::-1]) / 2.0
    assert abs(np.trace(odd)) < 1e-14 * np.abs(a).sum()
    assert abs(np.trace(odd)) < 1e-13 * abs(np.trace(even))


@settings(max_examples=40)
@given(
    half=st.integers(min_value=32, max_value=512),
    frac=st.floats(min_value=0.05, max_value=0.999),
    center=st.floats(min_value=-0.3, max_value=0.3),
)
def test_even_sector_lab_matches_dense_oracle_property(half, frac, center):
    n = 2 * half
    max_lambda = frac * full_line_grid(n).extent / 2.0
    f = TestFunction(center=center, width=0.25, support_radius=1.5)
    oracle = DenseSignedTraceLab(f, n)
    lab = SignedTraceLab(f, n, max_lambda)
    for lam in (max_lambda / 8.0, max_lambda / 2.0, max_lambda):
        want = oracle.trace_route_c(lam)
        got = lab.trace_route_c(lam)
        assert abs(got - want) <= 1e-12 * abs(want), (n, lam, got, want)
    assert lab.cyclicity_defect(max_lambda) < 1e-8


def composite_gauss_legendre_rows(f: TestFunction, vs, us, step: float, panels: int = 256) -> np.ndarray:
    """The rows of ``gauss_legendre_rows`` by 20-node Gauss-Legendre on ``panels``
    equal panels of s = log(y/v) in [-rho, rho]; 1024 panels move them by at
    most 2.6e-15 (relative to the largest entry) at the corners of the
    property below."""
    rho = f.support_radius
    x, wts = _legendre(20)
    edges = np.linspace(-rho, rho, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s = (mid[:, None] + half[:, None] * x).ravel()
    base = f(np.exp(-s)) * np.exp(0.5 * s) * (half[:, None] * wts).ravel()  # f(v/y) (vy)^-1/2 dy
    out = np.empty((len(vs), len(us)))
    for i, v in enumerate(vs):
        out[i] = np.cos(2.0 * np.pi * np.outer(us, v * np.exp(s))) @ base
    return out * (2.0 * step)


@settings(max_examples=30)
@given(
    half=st.integers(min_value=32, max_value=1024),
    frac=st.floats(min_value=0.05, max_value=0.999),
    center=st.floats(min_value=-0.5, max_value=0.5),
    width=st.floats(min_value=0.01, max_value=2.0),
    rho=st.floats(min_value=0.5, max_value=3.0),
)
@example(half=1024, frac=0.999, center=0.5, width=0.05, rho=3.0)
@example(half=1024, frac=0.999, center=-0.5, width=0.05, rho=0.5)
@example(half=1024, frac=0.999, center=0.0, width=2.0, rho=3.0)
@example(half=32, frac=0.05, center=0.5, width=0.05, rho=0.5)
@example(half=1024, frac=0.999, center=0.5, width=0.01, rho=3.0)
@example(half=1024, frac=0.999, center=-0.5, width=0.01, rho=0.5)
# n_signed 65536 up to lambda 16: the largest product W is 7.97, degree 591 at rho 3
@example(half=32768, frac=0.25, center=0.5, width=0.01, rho=3.0)
@example(half=32768, frac=0.25, center=0.0, width=2.0, rho=3.0)
def test_log_lattice_rows_match_converged_quadrature(half, frac, center, width, rho):
    # the lab's bad rows of U_e C[:, b] against up to 48 columns spread over the block,
    # the last (the fastest cosine) included
    n = 2 * half
    f = TestFunction(center=center, width=width, support_radius=rho)
    grid = full_line_grid(n)
    lab = SignedTraceLab(f, n, frac * grid.extent / 2.0)
    xb = grid.positive[: lab.plan.block]
    cols = np.unique(np.linspace(0, len(xb) - 1, 48).round().astype(int))
    vs = xb[: lab.plan.bad_rows]
    got = lab.quadrature_rows[:, cols]
    want = composite_gauss_legendre_rows(f, vs, xb[cols], grid.step)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n, lab.plan.lattice)


def test_route_c_logs_setup_and_traces(standard_bump, caplog, tmp_path):
    with caplog.at_level(logging.INFO, logger="loctrace"):
        lab = SignedTraceLab(standard_bump, 1024, 2.0)
        values, defect = lab.sweep([0.25, 1.0, 2.0], cyclicity_at=1.0)
    lines = [r.getMessage() for r in caplog.records]
    setup = [m for m in lines if m.startswith("route C set-up")]
    assert len(setup) == 1
    # the signed grid's defects are on its own certification line, with its duration
    (certification,) = [m for m in lines if m.startswith("certification: signed")]
    assert certification.startswith("certification: signed n=1024 cols=64 ")
    for key in (
        f"involution={lab.fourier.defects['involution']:.3e} ",
        f"kernel={lab.fourier.defects['kernel']:.3e} ",
        "threshold=1.0e-10 duration_s=",
    ):
        assert key in certification
    assert "defect" not in setup[0] and "peak_bytes_estimate" not in setup[0]
    # the set-up holds the quadrature rows alone; the largest panel is of PANEL_ROWS whole rows
    bad = lab.plan.bad_rows
    sizes = [u.size for r in ((0, bad), (bad, 64)) for _, _, u in whole_panels(standard_bump, 1024, *r)]
    assert 0 < max(sizes) < PANEL_ROWS * 512
    for key in (
        "n_signed=1024",
        "|B|=128",
        f"held_bytes={lab.quadrature_rows.nbytes} ",
        f"largest_panel={max(sizes)}/{PANEL_ROWS * 512} ",
        "bad_rows=32",
        f"quadrature_nodes={lab.plan.lattice[2]} ",
        f"chebyshev_degree={lab.plan.degree} ",
        f"cosine_table_entries={lab.plan.lattice[2] * (lab.plan.degree + 1)} ",
        "quadrature_ms=",
        "duration_s=",
    ):
        assert key in setup[0]
    assert lab.plan.lattice[2] > 0 and lab.plan.degree > 0
    # the bad rows' quadrature is part of the set-up's duration
    fields = dict(item.split("=") for item in setup[0].split()[3:])
    assert 0.0 < float(fields["quadrature_ms"]) / 1e3 <= float(fields["duration_s"])
    # one line per lam with its value and its own time, one for the check, and the pass's
    # line with the U_e entries it evaluated (of the n/2 x |b| entries of U_e[b, :]), the
    # bytes of its panel buffer (the largest panel's), the time outside the traces and the
    # check (the panels' evaluation) and the whole duration
    traces = [m.split(" duration_s=") for m in lines if m.startswith("route C trace")]
    # bad_rows: the block's signed rows whose terms come from quadrature (x < 0.5), every
    # row of the block at lam 0.25
    assert [t[0] for t in traces] == [
        f"route C trace: lam=0.25 block_rows=16 bad_rows=16 t_route_c={values[0]:.15g}",
        f"route C trace: lam=1 block_rows=64 bad_rows=32 t_route_c={values[1]:.15g}",
        f"route C trace: lam=2 block_rows=128 bad_rows=32 t_route_c={values[2]:.15g}",
    ]
    # the check's two GEMMs per panel, over the rows below its block: 2 rows band kc
    kc = block_size(1024, 1.0)  # the check's block_rows=64
    work = sum(
        2 * (min(rows.stop, kc) - rows.start) * (hi - lo) * kc
        for first, stop in ((0, bad), (bad, 64))
        for rows, lo, hi in panel_bands(standard_bump, 1024, first, stop)
        if rows.start < kc
    )
    cyclicity = [m.split(" duration_s=") for m in lines if m.startswith("route C cyclicity")]
    assert [c[0] for c in cyclicity] == [
        f"route C cyclicity: lam=1 block_rows=64 multiply_adds={work} defect={defect:.3e}"
    ]
    # and the peak bytes and seconds of the plan of its lams and check
    (passed,) = [m.split(" panels_ms=") for m in lines if m.startswith("route C pass")]
    plan = route_c_plan(standard_bump, 1024, 2.0, 3, 1.0)
    assert passed[0] == (
        f"route C pass: lambdas=3 panels={len(sizes)} band_entries={sum(sizes)}/{512 * 64} "
        f"panel_buffer_bytes={8 * max(sizes)} peak_bytes_estimate={plan.peak_bytes} "
        f"predicted_s={plan.seconds:.6g}"
    )
    panels_ms, duration = (float(x) for x in passed[1].split(" duration_s="))
    own = [float(t[1]) for t in traces + cyclicity]
    assert 0.0 < panels_ms / 1e3 <= duration and all(t >= 0.0 for t in own)
    assert sum(own) + panels_ms / 1e3 == pytest.approx(duration, abs=1e-5)
    assert lines[-1].startswith("route C pass")
    # a sweep makes one pass and closes with one line: its field, lambda count and total duration
    config = {
        "field": "R",
        "grid": {"log_t_half_range": math.log(1e3), "n": 512},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [2.0, 4.0, 8.0],
        "route_c": {"enabled": True, "n_signed": 1024, "max_lambda": 2.0},
    }
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="loctrace"):
        run_trace_sweep(config, tmp_path)
    lines = [r.getMessage() for r in caplog.records]
    assert sum(m.startswith("route C set-up") for m in lines) == 1
    assert sum(m.startswith("route C pass: lambdas=1 ") for m in lines) == 1
    assert sum(m.startswith("route C trace") for m in lines) == 1
    assert lines[-1].startswith("sweep: field=R lambdas=3 duration_s=")
    assert sum(m.startswith("sweep:") for m in lines) == 1
    assert float(lines[-1].split("duration_s=")[1]) > 0.0


@pytest.mark.parametrize(
    "n, lams, check",
    [
        (4096, (2.0, 4.0, 8.0), 2.0),  # the default sweep's
        (1024, (0.25, 1.0, 2.0), 0.3),  # the check below the bad rows' extent
        (2000, (0.1, 7.3), None),  # no check
        (8192, (8.0,), 8.0),  # the check over the whole block
    ],
)
def test_plan_predicts_the_work_the_run_logs(standard_bump, caplog, n, lams, check):
    # a lab up to the pass's largest lam: the set-up's cosine table against the lattice
    # and the series' degree of its bad rows, and the pass's panels, band entries and
    # check multiply-adds against a walk of ue_panels over its rows
    with caplog.at_level(logging.INFO, logger="loctrace"):
        lab = SignedTraceLab(standard_bump, n, max(lams))
        lab.sweep(lams, cyclicity_at=check)
    logged = logged_fields(caplog.records)
    xb = full_line_grid(n).positive[: lab.plan.block]
    w_max = xb[xb < SignedTraceLab.BAD_ROW_EXTENT].max() * xb.max()
    table = log_lattice(standard_bump, w_max)[2] * (chebyshev_degree(standard_bump, w_max) + 1)
    assert int(logged["cosine_table_entries"]) == table > 0
    panels, entries, multiply_adds, _ = pass_walk(standard_bump, n, lams, check)
    assert int(logged["panels"]) == panels
    assert int(logged["band_entries"].split("/")[0]) == entries
    assert int(logged.get("multiply_adds", 0)) == multiply_adds
    assert (multiply_adds > 0) == (check is not None)
    plan = route_c_plan(standard_bump, n, max(lams), len(lams), check)
    assert logged["predicted_s"] == f"{plan.seconds:.6g}" and 0.0 < plan.seconds < RUN_SECONDS_MAX


@st.composite
def route_c_passes(draw):
    """(n, max_lambda, lams, check): a lab's geometry (``signed_geometries``, half of them
    up to n_signed 1024, where the dense oracle runs) and one pass: its ascending lams in
    (0, max_lambda], often stopping below max_lambda and falling inside the bad rows
    (x < 0.5), and the check at one of them or anywhere up to lam 4, or none (a check over
    a whole block of n_signed 8192 takes seconds)."""
    n, max_lambda = draw(signed_geometries(max_n=draw(st.sampled_from([1024, 8192]))))
    inside = st.floats(0.0, 1.0, exclude_min=True).map(lambda u: u * max_lambda)
    bad = st.floats(0.0, min(0.5, max_lambda), exclude_min=True)
    lams = sorted(draw(st.sets(inside | bad | st.just(max_lambda), min_size=1, max_size=3)))
    low = min(4.0, max_lambda)
    checks = st.floats(0.0, low, exclude_min=True) | st.sampled_from([x for x in lams if x <= low] or [None])
    return n, max_lambda, lams, draw(st.none() | checks)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(route_c_pass=route_c_passes())
# its own plan reads 3296 entries and does 84744 multiply-adds, the lab's 4448 and 103752
@example(route_c_pass=(1024, 6.0, [0.7, 1.0], 0.7))
@example(route_c_pass=(4096, 8.0, [2.0, 4.0, 8.0], 2.0))  # the default sweep's pass
@example(route_c_pass=(64, 1.9, [0.1, 0.3], 0.3))  # inside the bad rows
@example(route_c_pass=(1000, 5.0, [0.4, 1.3], None))
@example(route_c_pass=(8192, 22.0, [0.2, 7.3], 4.0))
def test_a_pass_walks_and_logs_its_own_panels_property(route_c_pass, caplog):
    # a pass that stops below its lab's max_lambda walks only its own panels, each band
    # cut to its rows, and its line logs their count and entries and the check's
    # multiply-adds, as a walk of ue_panels over the same rows counts them; its traces
    # stay within 1e-12 of the dense oracle's (n_signed up to 1024, where the oracle's
    # n x n arrays are small)
    n, max_lambda, lams, check = route_c_pass
    f = TestFunction(center=0.2)
    lab = SignedTraceLab(f, n, max_lambda)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="loctrace"):
        values, defect = lab.sweep(lams, cyclicity_at=check)
    logged = logged_fields(caplog.records)
    panels, entries, multiply_adds, largest = pass_walk(f, n, lams, check)
    assert int(logged["panels"]) == panels
    assert int(logged["band_entries"].split("/")[0]) == entries
    assert int(logged.get("multiply_adds", 0)) == multiply_adds
    assert 8 * largest <= int(logged["panel_buffer_bytes"])
    assert (defect is None) == (check is None) and (defect is None or defect < 1e-8)
    if n <= 1024:
        oracle = DenseSignedTraceLab(f, n)
        for lam, got in zip(lams, values):
            want = oracle.trace_route_c(lam)
            assert abs(got - want) <= 1e-12 * abs(want), (n, lam, got, want)


@pytest.mark.parametrize(
    "n, max_lambda, lams",
    [
        (1024, 6.0, (0.3, 2.5, 6.0)),  # the first inside the bad rows
        (4096, 8.0, (0.45, 3.1, 7.7)),  # the last below the lab's max_lambda
    ],
)
def test_a_trace_does_not_depend_on_the_lams_sharing_its_pass(asymmetric_bump, n, max_lambda, lams):
    # the pass forms one product of the quadrature rows with their cosines, at its largest
    # lam; each lam sums its leading block row by row, so a trace, check or none, is bit
    # for bit the trace of its lam alone
    lab = SignedTraceLab(asymmetric_bump, n, max_lambda)
    together, _ = lab.sweep(lams, cyclicity_at=lams[1])
    alone = [lab.trace_route_c(lam) for lam in lams]
    assert [v.hex() for v in together] == [v.hex() for v in alone]


@settings(max_examples=30)
@given(geometry=signed_geometries(max_n=4096), f=profiles)
@example(geometry=(4096, 8.0), f=TestFunction())
@example(geometry=(4096, 7.3), f=TestFunction(center=2.97, width=0.01, support_radius=3.0))
def test_quadrature_rows_depend_on_the_product_of_the_points_property(geometry, f):
    # substituting y = v t, (U_e C)(v, u) = 2 step int f(1/t) t^{-1/2} cos(2 pi v u t) dt
    # depends on v u = (2j+1)(2k+1) / 4n alone; entries of equal product, integrated on the
    # one lattice at other rows, agree to the quadrature's accuracy.  Over 40 random
    # geometries and profiles the worst gap was 6.5e-14 of the largest entry
    n, lam = geometry
    lab = SignedTraceLab(f, n, lam)
    rows = lab.quadrature_rows
    assume(rows.size)
    products = np.outer(2 * np.arange(rows.shape[0]) + 1, 2 * np.arange(rows.shape[1]) + 1).ravel()
    order = np.argsort(products, kind="stable")
    keys, values = products[order], rows.ravel()[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    gap = (np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)).max()
    assert gap <= 2e-13 * np.abs(rows).max(), (n, lam, f, gap)
