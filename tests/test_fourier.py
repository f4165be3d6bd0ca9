import logging
import math

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
    make_signed_grid,
)
from loctrace.fourier import DEFECT_THRESHOLDS
from loctrace.kernels import scaled_gaussian, scaled_gaussian_transform, selfdual_gaussian


def dense_symmetrized(op):
    """Dense oracle S[i, j] = hankel[(i + j) % n]: the measure-symmetrized transform."""
    n = op.grid.n
    return op.hankel[np.add.outer(np.arange(n), np.arange(n)) % n]


def test_symmetrized_matrix_is_orthogonal_involution(fourier_r2048):
    S = dense_symmetrized(fourier_r2048)
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
    # spectral RMS the same statement as the dense Frobenius defect
    b = make_backend(field_id)
    op = FourierOperator(b, make_grid(b, CERT_GRIDS[field_id], n))
    S = dense_symmetrized(op)
    dense = np.linalg.norm(S @ S - np.eye(n)) / math.sqrt(n)
    assert abs(op.spectral_defect() - dense) < 1e-14


@pytest.mark.parametrize("index", [0, 517, 2047])
def test_perturbed_generator_lifts_recorded_defect(backend_r, grid_r2048, index):
    op = FourierOperator(backend_r, grid_r2048)
    assert op.measure_defect() < 1e-9
    op.hankel[index] += 1e-8
    assert op.measure_defect() > 1e-9
    assert op.defects["spectral"] > 1e-9


def test_probe_vanishing_on_the_grid_is_an_infinite_defect(backend_r):
    # n = 2 at half-range 3: both points lie outside the compact probe's support
    g = make_grid(backend_r, 3.0, 2)
    op = FourierOperator(backend_r, g)
    assert op.measure_defect() == math.inf
    assert op.defects["bump"] == math.inf
    with pytest.raises(FourierBuildError, match="unitarity defect inf"):
        build_fourier(backend_r, g)


def test_every_grid_size_certified_by_the_same_statement():
    # H-asymptotic (n = 4096) took the random-probe branch before; it now
    # records the same parts as every other grid size
    b = make_backend("H")
    op = build_fourier(b, make_grid(b, math.log(1e7), 4096))
    assert op.unitarity_defect == max(op.defects.values())
    assert op.unitarity_defect < DEFECT_THRESHOLDS["H"]
    assert op.defects["spectral"] < 1e-14
    assert set(op.defects) == {"spectral", "selfdual", "gauss_1.5", "gauss_2.5", "bump"}


def test_certification_logs_each_defect(backend_c, grid_c1024, caplog):
    with caplog.at_level(logging.INFO, logger="loctrace"):
        op = build_fourier(backend_c, grid_c1024)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("certification")]
    assert "field=C n=1024" in line
    for name, d in op.defects.items():
        assert f"{name}={d:.3e}" in line
    assert "threshold=1.0e-04" in line
    assert "duration_s=" in line


def test_weighted_unitarity(fourier_r2048, grid_r2048):
    # ||F* W F - W|| / ||W||: exact in the uniform log-cell weighting
    # (trapezoid endpoint halving is an integration convention, not part of
    # the operator's inner product)
    F = fourier_r2048.matrix
    g = grid_r2048
    w = g.backend.omega * g.t * g.step
    lhs = F.T * w[None, :]  # F^T W
    defect = np.linalg.norm(lhs @ F - np.diag(w)) / np.linalg.norm(np.diag(w))
    assert defect < 1e-12


def test_kernel_product_dependence(fourier_r2048, grid_r2048):
    # matrix[i][j] / w_add[j] depends only on t_i * t_j (interior indices)
    F = fourier_r2048.matrix
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
        build_fourier(backend_h, g)
    assert err.value.defect > 1e-3


def test_defect_recorded(fourier_r2048, fourier_h1024):
    assert fourier_r2048.unitarity_defect < 1e-6
    assert fourier_h1024.unitarity_defect < 1e-3


# ----------------------------- signed grid ---------------------------------


def test_signed_grid_shape():
    sg = make_signed_grid(4096)
    assert sg.n == 4096
    assert np.allclose(sg.x + sg.x[::-1], 0.0)
    assert sg.step == pytest.approx(1.0 / 64.0)
    assert 0.0 not in sg.x


def dense_signed_fourier(sgrid):
    """Dense oracle F[j, k] = step e^{-2 pi i x_j x_k}: the full signed-grid transform."""
    return np.exp(-2j * np.pi * np.outer(sgrid.x, sgrid.x)) * sgrid.step


@pytest.fixture(scope="module")
def signed_fourier():
    return full_line_fourier(make_signed_grid(1024))


@pytest.fixture(scope="module")
def signed_matrix(signed_fourier):
    return dense_signed_fourier(signed_fourier.grid)


def test_full_line_unitarity(signed_fourier, signed_matrix):
    F = signed_matrix
    n = F.shape[0]
    assert np.abs(F @ np.conj(F.T) - np.eye(n)).max() < 1e-11
    assert signed_fourier.unitarity_defect < 1e-10


def test_full_line_gaussian(signed_fourier, signed_matrix):
    x = signed_fourier.grid.x
    g = np.exp(-np.pi * x**2)
    assert np.abs(signed_matrix @ g - g).max() < 1e-12


def test_full_line_hermite_eigenvector(signed_fourier, signed_matrix):
    # odd Gaussian-Hermite profile: eigenvalue -i
    x = signed_fourier.grid.x
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


def test_even_sector_consistency(signed_fourier, signed_matrix, backend_r):
    # an even profile transforms on the signed grid exactly like its radial
    # profile under the radial transform; certify both against the analytic pair
    x = signed_fourier.grid.x
    out_signed = signed_matrix @ scaled_gaussian("R", 2.0, np.abs(x))
    assert np.abs(out_signed - scaled_gaussian_transform("R", 2.0, np.abs(x))).max() < 1e-10
    # the cosine columns carry the same transform on the positive half-grid
    half = len(x) // 2
    out_cos = signed_fourier.matrix @ scaled_gaussian("R", 2.0, x[half:])
    assert np.abs(out_cos - scaled_gaussian_transform("R", 2.0, x[half:])).max() < 1e-10
    g = make_grid(backend_r, 3.0, 512)
    op = build_fourier(backend_r, g, defect_threshold=1e-3)  # narrow window
    out_radial = op.apply(scaled_gaussian("R", 2.0, g.t))
    assert np.abs(out_radial - scaled_gaussian_transform("R", 2.0, g.t)).max() < 1e-4


def test_cosine_columns_are_the_even_fold_and_a_dct_iv(signed_fourier, signed_matrix):
    # C[j, k] = F[x_j, x_k] + F[x_j, -x_k] on the positive half-grid: the
    # orthonormal DCT-IV of size n/2, symmetric and its own inverse
    C = signed_fourier.matrix
    half = C.shape[0]
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
    sv = np.linalg.svd(dense_symmetrized(fourier_r2048), compute_uv=False)
    assert np.abs(sv - 1.0).max() < max(1e-12, 2 * fourier_r2048.unitarity_defect)
