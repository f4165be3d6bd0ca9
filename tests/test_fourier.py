import logging
import math
import sys

import numpy as np
import pytest
import scipy.integrate as si

from loctrace import (
    FourierBuildError,
    FourierOperator,
    TestFunction,
    build_fourier,
    full_line_fourier,
    make_backend,
    make_grid,
)
from loctrace.fourier import (
    DEFECT_THRESHOLDS,
    SIGNED_DEFECT_THRESHOLD,
    FullLineFourier,
    certify,
    fourier_bytes,
    signed_point,
)
from loctrace.kernels import scaled_gaussian, selfdual_gaussian
from oracles import (
    FullSpectrumFourier,
    dense_symmetrized,
    fourier_matrix,
    full_line_grid,
    peak_rise,
    scaled_gaussian_transform,
)


def test_symmetrized_matrix_is_orthogonal_involution(grid_r2048):
    S = dense_symmetrized(grid_r2048)
    n = S.shape[0]
    assert np.abs(S - S.T).max() == 0.0
    assert np.abs(S @ S - np.eye(n)).max() < 1e-12


# ----------------------------- certification --------------------------------

# log_t_half_range of each field's default config
CERT_GRIDS = {"R": math.log(1e4), "C": math.log(1e4), "H": math.log(3e4)}


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("field_id", ["R", "C", "H"])
def test_spectral_defect_equals_dense_frobenius(field_id, n):
    # S^2 is circulant with eigenvalues lam_k lam_{-k}: Parseval makes the
    # spectral RMS the same statement as the dense Frobenius defect.  S is the
    # oracle's generator; the production transform applies the padded lattice
    g = make_grid(make_backend(field_id), CERT_GRIDS[field_id], n)
    S = dense_symmetrized(g)
    dense = np.linalg.norm(S @ S - np.eye(n)) / math.sqrt(n)
    assert abs(FullSpectrumFourier(g).spectral_defect() - dense) < 1e-14


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("field_id", ["R", "C", "H"])
def test_half_spectrum_matches_the_full_spectrum(field_id, n):
    # the Hermitian half spectrum against the complex FFTs over every
    # frequency.  apply and apply_product_lattice are compared in the
    # weighted picture sqrt(omega t) phi, where the transform is unitary: the
    # additive picture divides by sqrt(omega t) down to t = e^{-2L}, which
    # lifts the rounding of either construction to ~1e-12 of the maximum
    b = make_backend(field_id)
    g = make_grid(b, CERT_GRIDS[field_id], n)
    half, full = FourierOperator(g), FullSpectrumFourier(g)

    def close(got, want, scale=None):
        scale = np.abs(want).max() if scale is None else scale
        assert np.abs(got - want).max() <= 1e-14 * scale

    pl_root = np.sqrt(b.omega * half.product_lattice.t)
    root = np.sqrt(b.omega * g.t)
    profiles = [selfdual_gaussian(field_id, g.t), TestFunction(center=0.3)(g.t)[::-1] / root]
    for phi in profiles:
        close(root * half.apply(phi), root * full.apply(phi))
        close(pl_root * half.apply_product_lattice(phi), pl_root * full.apply_product_lattice(phi))


@pytest.mark.parametrize("index", [0, 20, 100])
def test_perturbed_generator_lifts_recorded_defect(grid_r2048, index):
    # the generator the transform applies is its grid kernel.  The probes are
    # smooth and carry only its low log-frequencies: one entry scaled by
    # 1 + 1e-3 lifts the defect to 2.5e-4, 1.4e-4 and 1.8e-5 at indices 0, 20
    # and 100, but to 2.1e-10 at 517 and 1.3e-12 at 2047, below what the
    # probes resolve, so certification sees only the low indices
    op = FourierOperator(grid_r2048)
    assert op.measure_defect() < 1e-9
    op._grid_kernel[index] *= 1.0 + 1e-3
    assert op.measure_defect() > 1e-9


def test_probe_vanishing_on_the_grid_is_an_infinite_defect(backend_r):
    # n = 2 at half-range 3: both points lie outside the compact probe's support
    g = make_grid(backend_r, 3.0, 2)
    op = FourierOperator(g)
    assert op.measure_defect() == math.inf
    assert op.defects["bump"] == math.inf
    with pytest.raises(FourierBuildError, match="unitarity defect inf"):
        build_fourier(g)


def test_every_grid_size_certified_by_the_same_statement():
    # H-asymptotic (n = 4096) took the random-probe branch before; it now
    # records the same parts as every other grid size
    b = make_backend("H")
    op = build_fourier(make_grid(b, math.log(1e7), 4096))
    assert op.unitarity_defect == max(op.defects.values())
    assert op.unitarity_defect < DEFECT_THRESHOLDS["H"]
    assert set(op.defects) == {"selfdual", "gauss_1.5", "gauss_2.5", "bump"}


def test_certification_logs_each_defect(grid_c1024, caplog):
    # the radial transform and the signed grid's, each on its own line
    for transform, threshold, build in (
        ("field=C n=1024", "1.0e-04", lambda: build_fourier(grid_c1024)),
        ("signed n=4096 cols=512", "1.0e-10", lambda: full_line_fourier(4096, 512)),
    ):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="loctrace"):
            op = build()
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("certification")]
        assert line.startswith(f"certification: {transform} ")
        for name, d in op.defects.items():
            assert f"{name}={d:.3e}" in line
        assert f"threshold={threshold}" in line
        assert "duration_s=" in line


@pytest.mark.parametrize(
    "transform, threshold",
    [("field=H n=64", DEFECT_THRESHOLDS["H"]), ("signed n=1024 cols=32", SIGNED_DEFECT_THRESHOLD)],
)
def test_failed_certification_names_the_transform_and_each_defect(monkeypatch, transform, threshold):
    # a grid too coarse for H, and a signed grid whose kernel table is read one index off
    certified = []
    for cls in (FourierOperator, FullLineFourier):
        measure = cls.measure_defect
        monkeypatch.setattr(cls, "measure_defect", lambda op, m=measure: certified.append(op) or m(op))
    dirichlet = FullLineFourier.dirichlet
    monkeypatch.setattr(
        FullLineFourier, "dirichlet", lambda fl, k, first, stop: dirichlet(fl, k, first + 1, stop + 1)
    )
    with pytest.raises(FourierBuildError) as err:
        if transform.startswith("field"):
            build_fourier(make_grid(make_backend("H"), math.log(3e4), 64))
        else:
            full_line_fourier(1024, 32)
    (op,) = certified
    message = str(err.value)
    assert err.value.defect == op.unitarity_defect == max(op.defects.values()) > threshold
    assert message.startswith(
        f"unitarity defect {op.unitarity_defect:.3e} exceeds threshold {threshold:.3e} ({transform}: "
    )
    assert len(op.defects) >= 2
    for name, d in op.defects.items():
        assert f"{name}={d:.3e}" in message


@pytest.mark.parametrize(
    "build, threshold, tables, nan_parts",
    [
        # NaN in every part, the first included
        (lambda: FourierOperator(make_grid(make_backend("R"), math.log(1e4), 2048)),
         DEFECT_THRESHOLDS["R"], ["_grid_kernel"], ["selfdual", "gauss_1.5", "gauss_2.5", "bump"]),
        # each of the phase tables around the FFT, one at a time
        (lambda: FullLineFourier(1024, 32), SIGNED_DEFECT_THRESHOLD,
         ["_twiddle_in", "_twiddle_out"], ["involution", "kernel"]),
        # only the kernel check reads the sine table: a NaN part after a finite one
        (lambda: FullLineFourier(1024, 32), SIGNED_DEFECT_THRESHOLD, ["_sine"],
         ["kernel"]),
    ],
    ids=["radial _grid_kernel", "signed _phase", "signed _sine"],
)
def test_nan_in_an_applied_table_fails_certification(build, threshold, tables, nan_parts):
    for table in tables:
        op = build()
        getattr(op, table)[7] = np.nan
        with pytest.raises(FourierBuildError) as err:
            certify(op, threshold, "nan")
        assert math.isnan(err.value.defect) and math.isnan(op.unitarity_defect)
        assert [name for name, d in op.defects.items() if math.isnan(d)] == nan_parts
        for name in nan_parts:
            assert f"{name}=nan" in str(err.value)


def test_weighted_unitarity(fourier_r2048, grid_r2048):
    # ||F* W F - W|| / ||W||: exact in the uniform log-cell weighting
    # (trapezoid endpoint halving is an integration convention, not part of
    # the operator's inner product)
    F = fourier_matrix(fourier_r2048)
    g = grid_r2048
    w = g.backend.omega * g.t * g.step
    lhs = F.T * w[None, :]  # F^T W
    defect = np.linalg.norm(lhs @ F - np.diag(w)) / np.linalg.norm(np.diag(w))
    assert defect < 1e-12


def test_kernel_product_dependence(fourier_r2048, grid_r2048):
    # matrix[i][j] / w_add[j] depends only on t_i * t_j (interior indices)
    F = fourier_matrix(fourier_r2048)
    w = grid_r2048.w_add
    rng = np.random.default_rng(4)
    n = grid_r2048.n
    for _ in range(50):
        i, j = rng.integers(1, n - 1, size=2)
        shift = int(rng.integers(-5, 6))
        k, l = i + shift, j - shift
        if not (1 <= k < n - 1 and 1 <= l < n - 1):
            continue
        a = F[i, j] / w[j]
        b = F[k, l] / w[l]
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "field_id,fixture,max_abs,rel_l2",
    [("R", "fourier_r2048", 1e-6, None), ("H", "fourier_h1024", None, 1e-3), ("C", "fourier_c1024", 1e-6, None)],
)
def test_gaussian_fixed_point(field_id, fixture, max_abs, rel_l2, request):
    op = request.getfixturevalue(fixture)
    t = op.grid.t
    phi = selfdual_gaussian(field_id, t)
    out = op.apply(phi)
    if max_abs is not None:
        assert np.abs(out - phi).max() < max_abs
    if rel_l2 is not None:
        w = op.grid.w_add
        err = math.sqrt(np.sum(w * (out - phi) ** 2) / np.sum(w * phi**2))
        assert err < rel_l2


def test_scaled_gaussian_transform_pairs(fourier_h1024):
    # analytic transform of the width-a family, quaternionic case
    t = fourier_h1024.grid.t
    for a in (2.0, 3.0):
        out = fourier_h1024.apply(scaled_gaussian("H", a, t))
        assert np.abs(out - scaled_gaussian_transform("H", a, t)).max() < 1e-5


def test_linearity_exact(fourier_r2048):
    t = fourier_r2048.grid.t
    # the padded pipeline includes a sample-extrapolation step; linearity of
    # the full apply holds because every stage is linear in the samples
    p1 = np.exp(-np.pi * t**2)
    p2 = np.exp(-2 * np.pi * t**2)
    lhs = fourier_r2048.apply(2.0 * p1 + 3.0 * p2)
    rhs = 2.0 * fourier_r2048.apply(p1) + 3.0 * fourier_r2048.apply(p2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_real_profiles_transform_real(fourier_c1024):
    # sphere-averaged kernel is real, so real radial profiles stay real
    out = fourier_c1024.apply(selfdual_gaussian("C", fourier_c1024.grid.t))
    assert np.isrealobj(out)


def test_transform_vs_quadrature_oracle(backend_r, grid_r2048, fourier_r2048, standard_bump):
    # oracle: adaptive cos-weighted quadrature of the defining integral
    f = standard_bump
    rho = f.support_radius

    def arep(t):
        return f(1.0 / t) / np.sqrt(2.0 * t)

    samples = arep(grid_r2048.t) * (np.abs(np.log(grid_r2048.t)) <= rho)
    G = fourier_r2048.apply_product_lattice(
        f(grid_r2048.t)[::-1] / np.sqrt(2.0 * grid_r2048.t)
    )
    pl = fourier_r2048.product_lattice
    for s in (0.5, 1.0, 3.0, 10.0, 100.0):
        val, _ = si.quad(
            arep, math.exp(-rho), math.exp(rho),
            weight="cos", wvar=2 * math.pi * s, limit=400, epsabs=1e-13, epsrel=1e-13,
        )
        idx = int(round((math.log(s) - pl.log_t[0]) / pl.step))
        assert G[idx] == pytest.approx(2 * val, abs=5e-4, rel=1e-5)


def test_transform_h_vs_quadrature_oracle(backend_h, fourier_h1024, standard_bump):
    from loctrace import kernel_values

    f = standard_bump
    rho = f.support_radius
    omega = backend_h.omega
    g = fourier_h1024.grid
    G = fourier_h1024.apply_product_lattice(f(g.t)[::-1] / np.sqrt(omega * g.t))
    pl = fourier_h1024.product_lattice
    for s in (1.0, 10.0, 100.0):
        integrand = lambda t: omega * kernel_values("H", s * t) * f(1.0 / t) / math.sqrt(omega * t)
        truth, _ = si.quad(integrand, math.exp(-rho), math.exp(rho), limit=800, epsabs=1e-12, epsrel=1e-12)
        idx = int(round((math.log(s) - pl.log_t[0]) / pl.step))
        assert G[idx] == pytest.approx(truth, abs=5e-4)


def test_build_rejects_too_coarse_grid(backend_h):
    # h ~ 0.33: the compact probe's log-frequency content is unresolved
    g = make_grid(backend_h, math.log(3e4), 64)
    with pytest.raises(FourierBuildError) as err:
        build_fourier(g)
    assert err.value.defect > 1e-3


_RISE_SCRIPT = """
import math, sys
from loctrace import TestFunction, TraceComputation, build_fourier, make_backend, make_grid
f, backend = TestFunction(), make_backend(sys.argv[1])
TraceComputation(f, build_fourier(make_grid(backend, math.log(1e4), 1024)))  # imports and FFT plans first
before = peak()
comp = TraceComputation(f, build_fourier(make_grid(backend, math.log(1e4), int(sys.argv[2]))))
print(peak() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's VmHWM")
def test_fourier_bytes_bounds_the_build_peak():
    # field R has the largest rise per grid point
    n = 2**17
    rise = peak_rise(_RISE_SCRIPT, "R", n)
    assert 0 < rise <= fourier_bytes(n), (rise, fourier_bytes(n))


def test_defect_recorded(fourier_r2048, fourier_h1024):
    assert fourier_r2048.unitarity_defect < 1e-6
    assert fourier_h1024.unitarity_defect < 1e-3


# ----------------------------- signed grid ---------------------------------


def test_signed_grid_shape():
    sg = full_line_grid(4096)
    assert sg.n == len(sg.x) == 4096
    assert np.allclose(sg.x + sg.x[::-1], 0.0)
    assert sg.step == pytest.approx(1.0 / 64.0)
    assert 0.0 not in sg.x
    # route C's points are the positive half, bit for bit, and its transform's step the grid's
    assert np.array_equal(signed_point(4096, np.arange(2048)), sg.positive)
    assert sg.extent == signed_point(4096, 2047)
    fl = FullLineFourier(4096, 1)
    assert (fl.n, fl.step) == (sg.n, sg.step)


@pytest.mark.parametrize("build", [full_line_fourier, FullLineFourier])
@pytest.mark.parametrize("n", [-2, 0, 1, 63, 4095])
def test_signed_transform_refuses_odd_or_small_n(build, n):
    with pytest.raises(ValueError, match=r"^signed grid needs an even n >= 2$"):
        build(n, 1)


@pytest.fixture(scope="module")
def signed_grid():
    return full_line_grid(1024)


@pytest.fixture(scope="module")
def signed_fourier():
    return full_line_fourier(1024, 512)  # the kernel of every column


@pytest.fixture(scope="module")
def signed_matrix(signed_grid):
    return signed_grid.fourier_matrix()


def test_full_line_unitarity(signed_fourier, signed_matrix):
    F = signed_matrix
    n = F.shape[0]
    assert np.abs(F @ np.conj(F.T) - np.eye(n)).max() < 1e-11
    assert signed_fourier.unitarity_defect < 1e-10


def test_full_line_gaussian(signed_grid, signed_matrix):
    x = signed_grid.x
    g = np.exp(-np.pi * x**2)
    assert np.abs(signed_matrix @ g - g).max() < 1e-12


def test_full_line_hermite_eigenvector(signed_grid, signed_matrix):
    # odd Gaussian-Hermite profile: eigenvalue -i
    x = signed_grid.x
    h = x * np.exp(-np.pi * x**2)
    out = signed_matrix @ h
    assert np.abs(out - (-1j) * h).max() < 1e-5


def test_full_line_fourth_power_identity(signed_matrix):
    F = signed_matrix
    n = F.shape[0]
    F2 = F @ F
    # F^2 is exactly the reflection permutation, so F^4 = Id
    refl = np.zeros((n, n))
    refl[np.arange(n), n - 1 - np.arange(n)] = 1.0
    assert np.abs(F2 - refl).max() < 1e-11
    assert np.abs(F2 @ F2 - np.eye(n)).max() < 1e-11


def test_even_sector_consistency(signed_grid, signed_fourier, signed_matrix, backend_r):
    # an even profile transforms on the signed grid exactly like its radial
    # profile under the radial transform; certify both against the analytic pair
    x = signed_grid.x
    out_signed = signed_matrix @ scaled_gaussian("R", 2.0, np.abs(x))
    assert np.abs(out_signed - scaled_gaussian_transform("R", 2.0, np.abs(x))).max() < 1e-10
    # the cosine columns carry the same transform on the positive half-grid
    half = len(x) // 2
    C = signed_fourier.cosines(slice(0, half), slice(0, half))
    out_cos = C @ scaled_gaussian("R", 2.0, x[half:])
    assert np.abs(out_cos - scaled_gaussian_transform("R", 2.0, x[half:])).max() < 1e-10
    g = make_grid(backend_r, 3.0, 512)
    op = FourierOperator(g)
    assert op.measure_defect() < 1e-3  # narrow window
    out_radial = op.apply(scaled_gaussian("R", 2.0, g.t))
    assert np.abs(out_radial - scaled_gaussian_transform("R", 2.0, g.t)).max() < 1e-4


def test_cosine_columns_are_the_even_fold_and_a_dct_iv(signed_grid, signed_fourier, signed_matrix):
    # C[j, k] = F[x_j, x_k] + F[x_j, -x_k] on the positive half-grid: the
    # orthonormal DCT-IV of size n/2, symmetric and its own inverse
    half = signed_grid.n // 2
    C = signed_fourier.cosines(slice(0, half), slice(0, half))
    assert C.shape == (half, half) and C.dtype == np.float64
    fold = signed_matrix[half:, half:] + signed_matrix[half:, :half][:, ::-1]
    assert np.abs(fold - C).max() < 1e-12
    assert np.array_equal(C, C.T)
    assert np.abs(C @ C - np.eye(half)).max() < 1e-12
    k = np.arange(half) + 0.5
    dct4 = math.sqrt(2.0 / half) * np.cos(np.pi / half * np.outer(k, k))
    assert np.abs(C - dct4).max() < 1e-12


def test_unitary_singular_values(fourier_r2048):
    # all singular values of the transform sit at 1, within the defect
    sv = np.linalg.svd(dense_symmetrized(fourier_r2048.grid), compute_uv=False)
    assert np.abs(sv - 1.0).max() < max(1e-12, 2 * fourier_r2048.unitarity_defect)
