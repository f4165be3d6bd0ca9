"""Route C in the even sector against the full-matrix oracle.

``DenseSignedTraceLab`` is the full-matrix route C: the complex n x n
transform and the n x n U_f on the signed grid, a fresh product for every
lambda and the n x n product in the cyclicity check.  ``SignedTraceLab`` must
give the same traces from the real even-sector arrays alone: the cosine
columns C[:, b], U_e[b, :] and their product, b the positive half of the
block.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loctrace.cutoff_trace import ROUTE_C_TEMPORARIES, SignedTraceLab, route_c_bytes
from loctrace.fourier import FourierBuildError, FullLineFourier, full_line_fourier, make_signed_grid
from loctrace.operators import TestFunction


class DenseSignedTraceLab:
    """Full-matrix route C: dense n x n cutoffs, transform and U_f."""

    BAD_ROW_EXTENT = 0.5
    GL_NODES = 192

    def __init__(self, f: TestFunction, n: int):
        self.f = f
        self.sgrid = make_signed_grid(n)
        x = self.sgrid.x
        self.fourier_matrix = np.exp(-2j * np.pi * np.outer(x, x)) * self.sgrid.step
        ratio = np.abs(np.outer(x, 1.0 / x))
        self.uf_matrix = f(ratio) / (2.0 * np.sqrt(np.abs(np.outer(x, x)))) * self.sgrid.step
        self._gl = np.polynomial.legendre.leggauss(self.GL_NODES)

    def _uf_fourier_rows(self, vs, us):
        rho = self.f.support_radius
        nodes, wts = self._gl
        out = np.empty((len(vs), len(us)))
        for i, v in enumerate(np.abs(vs)):
            a, b = v * math.exp(-rho), v * math.exp(rho)
            y = 0.5 * (b - a) * nodes + 0.5 * (b + a)
            w = 0.5 * (b - a) * wts
            base = self.f(v / y) / np.sqrt(v * y) * w
            out[i] = np.cos(2.0 * np.pi * np.outer(np.abs(us), y)) @ base
        return out * self.sgrid.step

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
            m2[bad, :] = self._uf_fourier_rows(x[bi][bad], x[bi])
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
    assert route_c_bytes(n, float(np.nextafter(half, 0.0))) > 0


@pytest.mark.parametrize("n", [0, 1, 63, 4095])
def test_route_c_bytes_refuses_odd_grids(n):
    with pytest.raises(ValueError, match="even n"):
        route_c_bytes(n, 0.5)


@pytest.mark.parametrize(
    "n, lam", [(64, 0.0), (64, 0.01), (64, 0.5), (1024, 1.0), (4096, 2.0), (4096, 8.0)]
)
def test_route_c_bytes_counts_the_lab_block(standard_bump, n, lam):
    # the geometric block size behind the estimate is the lab's block
    fl = FullLineFourier(make_signed_grid(n), lam)
    b = len(fl.block)
    assert route_c_bytes(n, lam) == 8 * (2 + ROUTE_C_TEMPORARIES) * (n // 2) * b + 8 * b * b
    if b:
        lab = SignedTraceLab(standard_bump, n, lam)
        held = lab.fourier.matrix.nbytes + lab.u_even.nbytes + lab.m_even.nbytes
        assert held < route_c_bytes(n, lam)


def test_block_certification_passes_and_reports_its_defect():
    fl = full_line_fourier(make_signed_grid(4096), 8.0)
    assert fl.matrix.shape == (2048, len(fl.block))
    assert fl.matrix.dtype == np.float64
    assert 0.0 < fl.unitarity_defect < 1e-10


def _fold(k: int, size: int) -> int:
    """Position of |x_k| on the positive half of a symmetric grid of ``size`` points."""
    return abs(2 * k - (size - 1)) // 2


@pytest.mark.parametrize("row, col", [(0, 0), (517, 3), (1023, 63), (300, 40)])
@pytest.mark.parametrize("delta", [1e-8, 1e-8j])
def test_perturbed_block_entry_fails_certification(row, col, delta):
    # (row, col) is an entry of the signed block (1024 x 64) at |x| <= 1; the
    # cosine entry it folds into is perturbed, by a real delta or by an
    # imaginary part the real cosine columns must not have
    fl = FullLineFourier(make_signed_grid(1024), 1.0)
    assert fl.matrix.shape == (512, 32)
    fl.matrix = fl.matrix.astype(np.result_type(fl.matrix, delta))
    fl.matrix[_fold(row, 1024), _fold(col, 64)] += delta
    with pytest.raises(FourierBuildError) as exc:
        fl.certify()
    assert exc.value.defect >= 1e-8 * (1.0 - 1e-6)


def test_fft_form_matches_dense_matrix():
    sg = make_signed_grid(256)
    fl = FullLineFourier(sg)
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


@settings(max_examples=40, deadline=None, derandomize=True)
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


def test_route_c_logs_setup_and_traces(standard_bump, caplog):
    with caplog.at_level(logging.INFO, logger="loctrace"):
        lab = SignedTraceLab(standard_bump, 1024, 2.0)
        lab.trace_route_c(1.0)
        lab.trace_route_c(2.0)
    lines = [r.getMessage() for r in caplog.records]
    setup = [m for m in lines if m.startswith("route C set-up")]
    assert len(setup) == 1
    for key in ("n_signed=1024", "|B|=128", "block_bytes=", "unitarity_defect=", "bad_rows=32"):
        assert key in setup[0]
    traces = [m for m in lines if m.startswith("route C trace")]
    assert traces == ["route C trace: lam=1 block_rows=64", "route C trace: lam=2 block_rows=128"]
