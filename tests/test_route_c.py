"""Route C in the even sector against the full-matrix oracle.

``DenseSignedTraceLab`` is the full-matrix route C: the complex n x n
transform and the n x n U_f on the signed grid, a fresh product for every
lambda and the n x n product in the cyclicity check.  ``SignedTraceLab`` must
give the same traces from the real even-sector arrays alone: the cosine
columns C[:, b] and the product M_e = U_e[b, :] C[:, b], b the positive half
of the block, built from panels of U_e's rows over their bands.
"""

import functools
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import loctrace.fourier as fourier_mod
from loctrace.cli import run_trace_sweep
from loctrace.cutoff_trace import (
    LATTICE_NODES_MAX,
    ROUTE_C_TEMPORARIES,
    SignedTraceLab,
    block_size,
    log_lattice,
    route_c_plan,
    ue_panels,
)
from loctrace.fourier import (
    CHUNK_ENTRIES,
    PANEL_ROWS,
    FourierBuildError,
    FullLineFourier,
    full_line_fourier,
    make_signed_grid,
)
from loctrace.operators import TestFunction
from oracles import peak_rise


def _fold(k, size: int):
    """Position of |x_k| on the positive half of a symmetric grid of ``size`` points."""
    return abs(2 * k - (size - 1)) // 2


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

    def __init__(self, f: TestFunction, n: int):
        self.f = f
        self.sgrid = make_signed_grid(n)
        x = self.sgrid.x
        self.fourier_matrix = np.exp(-2j * np.pi * np.outer(x, x)) * self.sgrid.step
        ratio = np.abs(np.outer(x, 1.0 / x))
        self.uf_matrix = f(ratio) / (2.0 * np.sqrt(np.abs(np.outer(x, x)))) * self.sgrid.step
        self._xp = x[n // 2 :]
        # (U_f F)(|v|, |u|) for the bad |v| and the first columns of the positive half
        self._bad_block = np.empty((int((self._xp < self.BAD_ROW_EXTENT).sum()), 0))

    def _uf_fourier_rows(self, rows, cols):
        n = len(self.sgrid.x)
        pr, pc = _fold(rows, n), _fold(cols, n)
        have = self._bad_block.shape[1]
        if pc.max() >= have:
            vs, us = self._xp[: len(self._bad_block)], self._xp[have : pc.max() + 1]
            new = gauss_legendre_rows(self.f, vs, us, self.sgrid.step, self.GL_NODES)
            self._bad_block = np.hstack([self._bad_block, new / 2.0])  # U_f is U_e / 2
        return self._bad_block[np.ix_(pr, pc)]

    def trace_route_c(self, lam):
        x = self.sgrid.x
        if lam >= self.sgrid.extent / 2.0:
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
        x = self.sgrid.x
        bi = np.where(np.abs(x) <= lam * (1.0 + 1e-12))[0]
        Fm = self.fourier_matrix
        pu = np.conj(Fm[np.ix_(bi, bi)]) @ self.uf_matrix[bi, :]
        t1 = np.trace(pu @ Fm[:, bi])
        t2 = np.trace(Fm[:, bi] @ pu)
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


@pytest.mark.parametrize(
    "n, max_lambda", [(64, 8.0), (64, 1.96875), (1024, 7.9921875), (4096, 16.0)]
)
def test_lab_refuses_lambda_at_half_extent(standard_bump, n, max_lambda):
    half = make_signed_grid(n).extent / 2.0
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
    xp = make_signed_grid(n).x[n // 2 :]
    half, b = n // 2, int(np.count_nonzero(xp <= lam * (1.0 + 1e-12)))
    bad = int((xp[:b] < SignedTraceLab.BAD_ROW_EXTENT).sum())
    kept = half * b + b * b  # C[:, b] and M_e
    panel = min(PANEL_ROWS, b) * half  # one panel of U_e, never wider than a row
    chunk = min(half * b, max(CHUNK_ENTRIES, half))
    quadrature = 2 * bad * b + (ROUTE_C_TEMPORARIES * max(CHUNK_ENTRIES, b) if bad else 0)
    packing = b * b
    plan = route_c_plan(standard_bump, n, lam)
    assert (plan.block, plan.bad_rows) == (b, bad)
    assert plan.peak_bytes == 8 * (
        kept + panel + ROUTE_C_TEMPORARIES * chunk + 24 * n + quadrature + packing
    )
    if b:
        lab = SignedTraceLab(standard_bump, n, lam)
        assert lab.fourier.matrix.shape == (half, b)
        held = lab.fourier.matrix.nbytes + lab.m_even.nbytes
        assert held < plan.peak_bytes
        # and so is the lattice behind the lab's refusal
        assert lab.plan.lattice == plan.lattice
        assert (plan.lattice is not None) == (bad > 0)


@st.composite
def signed_geometries(draw):
    """(n, lam): an even n in 64..8192 and a lam in (0, extent/2), often on a cell
    edge (lam sqrt(n) an integer) or on a grid point (a half-integer), the
    latter written both as the grid writes it and as a quotient."""
    n = 2 * draw(st.integers(32, 4096))
    root, limit = math.sqrt(n), make_signed_grid(n).extent / 2.0
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
    x = make_signed_grid(n).x
    block = np.abs(x) <= lam * (1.0 + 1e-12)
    assert 2 * plan.block == np.count_nonzero(block)
    assert 2 * plan.bad_rows == np.count_nonzero(block & (np.abs(x) < SignedTraceLab.BAD_ROW_EXTENT))
    # the lattice of the lab's own points, bit for bit: the block's positive half and its bad rows
    xb = x[n // 2 :][: plan.block]
    bad = xb[xb < SignedTraceLab.BAD_ROW_EXTENT]
    want = log_lattice(f, bad.min(), bad.max(), xb.max()) if len(bad) else None
    assert plan.lattice == want
    if n <= 512 and plan.block:
        lab = SignedTraceLab(f, n, lam)
        assert lab.fourier.matrix.shape == (n // 2, plan.block)
        held = lab.fourier.matrix.nbytes + lab.m_even.nbytes
        assert held < plan.peak_bytes


@pytest.mark.parametrize("width, rho", [(1e-7, 1.5), (0.25, 8.2), (0.25, 800.0), (1e-320, 1.5)])
def test_lab_refuses_a_lattice_beyond_the_cap(width, rho):
    # the lattice grows as 1/width and e^rho; 1e-7 would take 2.9e8 nodes
    f = TestFunction(width=width, support_radius=rho)
    with pytest.raises(ValueError, match=f"above the {LATTICE_NODES_MAX} allowed"):
        SignedTraceLab(f, 4096, 8.0)


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


def test_setup_and_cyclicity_never_form_an_n_half_by_block_array(standard_bump):
    # U_e[b, :] or C[b, b] U_e[b, :] would be a second n/2 x |b| array beside C[:, b]
    n, lam = 4096, 8.0
    tracemalloc.start()
    try:
        lab = SignedTraceLab(standard_bump, n, lam)
        _, setup_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        lab.cyclicity_defect(lam)
        _, cyclicity_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    wide = 8 * (n // 2) * lab.plan.block
    assert setup_peak - lab.fourier.matrix.nbytes - lab.m_even.nbytes < wide
    assert cyclicity_peak - held < wide


@pytest.mark.parametrize(
    "n, lam, chunk_entries",
    [
        # with CHUNK_ENTRIES = 2**14 at n = 4096: a panel's chunks hold 2**14 // (its band) rows,
        # C[:, b] is filled in 2**14 // |b| rows
        (4096, 0.1, None),  # |b| = 6, below one panel; C[:, b] in one chunk
        (4096, 7.3, None),  # |b| = 467, not a multiple of 32; n/2 = 2048 not a multiple of 35
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
    step, half, b = lab.sgrid.step, n // 2, lab.plan.block
    odd = 2 * np.arange(half) + 1
    phase = np.outer(odd, odd[:b]) % (4 * n)
    matrix = 2.0 * step * np.cos(phase * (2.0 * np.pi / (4 * n)))
    xp = lab.sgrid.x[half:]
    xb = xp[:b]
    u_even = f(np.outer(xb, 1.0 / xp)) / np.sqrt(np.outer(xb, xp)) * step
    assert np.array_equal(lab.fourier.matrix, matrix)
    # the panels over their bands, zero elsewhere, are U_e[b, :] bit for bit
    banded = np.zeros_like(u_even)
    for rows, lo, u in ue_panels(f, lab.sgrid, 0, b):
        banded[rows, lo : lo + u.shape[1]] = u
    assert np.array_equal(banded, u_even)
    # a banded product sums in other BLAS blocks than the one dense GEMM, so it
    # agrees to rounding, not bit for bit
    dense = u_even @ matrix
    good = xb >= lab.BAD_ROW_EXTENT  # the other rows come from quadrature
    assert np.all(np.abs(lab.m_even[good] - dense[good]) <= 1e-14 * np.abs(dense).max())


def test_cosine_block_is_exactly_symmetric(signed_lab):
    # trace_route_c sums c * M_e where the trace is sum(c * M_e.T): it needs c == c.T
    b = signed_lab.plan.block
    c = signed_lab.fourier.matrix[:b, :b]
    assert np.array_equal(c, c.T)


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
    # every row of every panel against the per-element formula over the whole
    # positive half-grid: the same floats on the band, exact zeros off it
    n, lam = geometry
    f = TestFunction(center=center_frac * rho, width=width, support_radius=rho)
    sgrid = make_signed_grid(n)
    xp = sgrid.x[n // 2 :]
    b = block_size(n, lam)
    covered = 0
    for rows, lo, u in ue_panels(f, sgrid, 0, b):
        assert rows.start == covered and len(u) == rows.stop - rows.start <= PANEL_ROWS
        covered = rows.stop
        xr = xp[rows]
        dense = f(np.outer(xr, 1.0 / xp)) / np.sqrt(np.outer(xr, xp)) * sgrid.step
        hi = lo + u.shape[1]
        assert not dense[:, :lo].any() and not dense[:, hi:].any(), (rows, lo, hi)
        assert np.array_equal(dense[:, lo:hi], u)
    assert covered == b


def test_block_certification_passes_and_reports_its_defect():
    fl = full_line_fourier(make_signed_grid(4096), 512)  # the block x <= 8
    assert fl.matrix.shape == (2048, 512)
    assert fl.matrix.dtype == np.float64
    assert 0.0 < fl.unitarity_defect < 1e-10


@pytest.mark.parametrize("row, col", [(0, 0), (517, 3), (1023, 63), (300, 40)])
@pytest.mark.parametrize("delta", [1e-8, 1e-8j])
def test_perturbed_block_entry_fails_certification(row, col, delta):
    # (row, col) is an entry of the signed block (1024 x 64) at |x| <= 1; the
    # cosine entry it folds into is perturbed, by a real delta or by an
    # imaginary part the real cosine columns must not have
    fl = FullLineFourier(make_signed_grid(1024), 32)
    assert fl.matrix.shape == (512, 32)
    fl.matrix = fl.matrix.astype(np.result_type(fl.matrix, delta))
    fl.matrix[_fold(row, 1024), _fold(col, 64)] += delta
    with pytest.raises(FourierBuildError) as exc:
        fl.certify()
    assert exc.value.defect >= 1e-8 * (1.0 - 1e-6)


def test_fft_form_matches_dense_matrix():
    sg = make_signed_grid(256)
    fl = FullLineFourier(sg, 128)
    F = np.exp(-2j * np.pi * np.outer(sg.x, sg.x)) * sg.step
    rng = np.random.default_rng(3)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    assert np.abs(fl.apply(v) - F @ v).max() < 1e-12
    assert np.abs(fl.apply_adjoint(v) - np.conj(F.T) @ v).max() < 1e-12


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
    x = oracle.sgrid.x
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
    max_lambda = frac * make_signed_grid(n).extent / 2.0
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
def test_log_lattice_rows_match_converged_quadrature(half, frac, center, width, rho):
    # the lab's bad rows of M_e against up to 48 columns spread over the block,
    # the last (the fastest cosine) included
    n = 2 * half
    f = TestFunction(center=center, width=width, support_radius=rho)
    lab = SignedTraceLab(f, n, frac * make_signed_grid(n).extent / 2.0)
    xb = lab.sgrid.x[half:][: lab.plan.block]
    cols = np.unique(np.linspace(0, len(xb) - 1, 48).round().astype(int))
    vs = xb[: lab.plan.bad_rows]
    got = lab.m_even[: lab.plan.bad_rows, cols]
    want = composite_gauss_legendre_rows(f, vs, xb[cols], lab.sgrid.step)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n, lab.plan.lattice)


def test_route_c_logs_setup_and_traces(standard_bump, caplog, tmp_path):
    with caplog.at_level(logging.INFO, logger="loctrace"):
        lab = SignedTraceLab(standard_bump, 1024, 2.0)
        lab.trace_route_c(1.0)
        lab.trace_route_c(2.0)
    lines = [r.getMessage() for r in caplog.records]
    setup = [m for m in lines if m.startswith("route C set-up")]
    assert len(setup) == 1
    # the U_e entries evaluated: the panels of the rows outside the quadrature
    band = sum(u.size for _, _, u in ue_panels(standard_bump, lab.sgrid, lab.plan.bad_rows, 64))
    assert 0 < band < (64 - lab.plan.bad_rows) * 512
    for key in (
        "n_signed=1024",
        "|B|=128",
        f"band_entries={band}/{512 * 64} ",  # of the half x |b| entries of U_e[b, :]
        f"block_bytes={lab.fourier.matrix.nbytes + lab.m_even.nbytes} ",
        f"peak_bytes_estimate={lab.plan.peak_bytes} ",
        "unitarity_defect=",
        "bad_rows=32",
        f"quadrature_nodes={lab.plan.lattice[2]} ",
        "duration_s=",
    ):
        assert key in setup[0]
    assert lab.plan.lattice[2] > 0
    assert float(setup[0].split("duration_s=")[1]) >= 0.0
    traces = [m for m in lines if m.startswith("route C trace")]
    assert traces == ["route C trace: lam=1 block_rows=64", "route C trace: lam=2 block_rows=128"]
    # a sweep closes with one line: its field, lambda count and total duration
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
    assert lines[-1].startswith("sweep: field=R lambdas=3 duration_s=")
    assert sum(m.startswith("sweep:") for m in lines) == 1
    assert float(lines[-1].split("duration_s=")[1]) > 0.0
