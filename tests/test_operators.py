import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loctrace import TestFunction
from oracles import (
    KernelOperator,
    adjoint,
    compose,
    cutoff_projection,
    hs_inner,
    left_translation,
    singular_values,
    trace,
    u_f,
    u_f_from_translations,
)


def random_op(grid, rng, picture="additive"):
    mat = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    return KernelOperator(grid, mat, picture)


# ----------------------------- projections ---------------------------------


def test_projection_laws(small_grid_r):
    p = cutoff_projection(small_grid_r, 5.0)
    assert np.array_equal(p.matrix @ p.matrix, p.matrix)
    assert np.array_equal(adjoint(p).matrix, p.matrix)
    diag = np.diag(p.matrix)
    assert set(np.unique(diag)) <= {0.0, 1.0}
    assert np.sum(diag) == np.sum(small_grid_r.t <= 5.0)


def test_projection_extremes(small_grid_r):
    ident = cutoff_projection(small_grid_r, small_grid_r.t[-1] * 2)
    assert np.array_equal(ident.matrix, np.eye(small_grid_r.n))
    assert ident.boundary_clipped
    zero = cutoff_projection(small_grid_r, small_grid_r.t[0] / 2)
    assert not zero.matrix.any()
    assert zero.boundary_clipped


def test_projection_includes_boundary_point(small_grid_r):
    lam = float(small_grid_r.t[100])
    p = cutoff_projection(small_grid_r, lam)
    assert p.matrix[100, 100] == 1.0


# ----------------------------- translations --------------------------------


def test_translation_identity(small_grid_r):
    assert np.array_equal(left_translation(small_grid_r, 0.0).matrix, np.eye(small_grid_r.n))


def test_translation_rejects_offgrid_shift(small_grid_r):
    with pytest.raises(ValueError):
        left_translation(small_grid_r, 0.37 * small_grid_r.step)


def test_translation_unitary_on_interior(small_grid_r):
    g = small_grid_r
    s = 10 * g.step
    op = left_translation(g, s)
    phi = np.exp(-((g.log_t) ** 2) / 0.32)  # supported well inside
    out = op.matrix @ phi
    n_in = math.sqrt(np.sum(g.w_add * phi**2))
    n_out = math.sqrt(np.sum(g.w_add * out**2))
    assert n_out == pytest.approx(n_in, rel=1e-10)


def test_translation_group_law(small_grid_r):
    g = small_grid_r
    s = 7 * g.step
    lf = left_translation(g, s)
    lb = left_translation(g, -s)
    phi = np.exp(-(g.log_t**2) / 0.32)  # dead at the grid edges
    assert np.allclose((lb.matrix @ (lf.matrix @ phi)), phi, atol=1e-13)


def test_translation_singular_values_interior(small_grid_r):
    # interior block: every singular value is 0 (truncated band) or exactly 1
    g = small_grid_r
    m = 5
    op = left_translation(g, m * g.step)
    b = 10
    block = op.matrix[b : g.n - b, b : g.n - b]
    w = g.w_add[b : g.n - b]
    sym = block * np.sqrt(np.outer(w, 1.0 / w))
    sv = np.linalg.svd(sym, compute_uv=False)
    assert np.all((sv < 1e-12) | (np.abs(sv - 1.0) < 1e-12))
    assert np.sum(sv > 0.5) == len(w) - m


# ----------------------------- u_f -----------------------------------------


def test_uf_two_assemblies_agree(small_grid_r):
    f = TestFunction(width=0.2, support_radius=1.0)
    a = u_f(small_grid_r, f)
    b = u_f_from_translations(small_grid_r, f)
    assert np.abs(a.matrix - b.matrix).max() < 1e-12


def test_uf_approximate_identity(small_grid_r):
    # narrow bump with unit multiplicative mass acts as the identity
    g = small_grid_r
    f = TestFunction(width=0.02, support_radius=0.2)
    mass = f.l1_mult_norm(g.step)
    op = u_f(g, f)
    phi = np.exp(-(g.log_t**2) / 0.5)
    out = op.matrix @ phi / mass
    interior = slice(30, g.n - 30)
    assert np.abs(out[interior] - phi[interior]).max() < 0.05


def test_uf_norm_bound(small_grid_r):
    g = small_grid_r
    f = TestFunction(width=0.25, support_radius=1.2)
    op = u_f(g, f)
    sv = singular_values(op)
    assert sv[0] <= f.l1_mult_norm(g.step) * (1 + 1e-10)


def test_uf_commutes_with_translation_in_interior(small_grid_r):
    g = small_grid_r
    f = TestFunction(width=0.2, support_radius=1.0)
    uf = u_f(g, f).matrix
    lt = left_translation(g, 8 * g.step).matrix
    comm = uf @ lt - lt @ uf
    band = int(1.0 / g.step) + 9
    inner = comm[band:-band, band:-band]
    assert np.linalg.norm(inner) < 1e-10


def test_uf_support_overflow(small_grid_r):
    with pytest.raises(ValueError):
        u_f(small_grid_r, TestFunction(support_radius=10.0))


# ----------------------------- algebra -------------------------------------


def test_compose_identity(small_grid_r):
    rng = np.random.default_rng(0)
    a = random_op(small_grid_r, rng)
    ident = KernelOperator(small_grid_r, np.eye(small_grid_r.n), "additive")
    assert np.allclose(compose(a, ident).matrix, a.matrix)


def test_adjoint_involution(small_grid_r):
    rng = np.random.default_rng(1)
    a = random_op(small_grid_r, rng)
    assert np.allclose(adjoint(adjoint(a)).matrix, a.matrix, atol=1e-12)


def test_adjoint_reverses_products(small_grid_r):
    rng = np.random.default_rng(2)
    a = random_op(small_grid_r, rng)
    b = random_op(small_grid_r, rng)
    lhs = adjoint(compose(a, b)).matrix
    rhs = compose(adjoint(b), adjoint(a)).matrix
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_adjoint_is_weighted_adjoint(small_grid_r):
    # <A phi, psi>_W = <phi, A* psi>_W on random vectors
    rng = np.random.default_rng(3)
    a = random_op(small_grid_r, rng)
    w = small_grid_r.w_add
    phi = rng.standard_normal(small_grid_r.n) + 1j * rng.standard_normal(small_grid_r.n)
    psi = rng.standard_normal(small_grid_r.n) + 1j * rng.standard_normal(small_grid_r.n)
    lhs = np.sum(w * np.conj(a.matrix @ phi) * psi)
    rhs = np.sum(w * np.conj(phi) * (adjoint(a).matrix @ psi))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_hs_inner_positive_definite(small_grid_r):
    rng = np.random.default_rng(4)
    a = random_op(small_grid_r, rng)
    val = hs_inner(a, a)
    assert val.real > 0
    assert abs(val.imag) < 1e-9 * val.real
    zero = KernelOperator(small_grid_r, np.zeros((small_grid_r.n, small_grid_r.n)), "additive")
    assert hs_inner(zero, zero) == 0.0


def test_hs_inner_equals_trace_of_adjoint_product(backend_small20):
    grid = backend_small20
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_op(grid, rng)
        b = random_op(grid, rng)
        lhs = hs_inner(a, b)
        rhs = trace(compose(adjoint(a), b))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_trace_cyclicity(small_grid_r):
    rng = np.random.default_rng(6)
    a = random_op(small_grid_r, rng)
    b = random_op(small_grid_r, rng)
    t1 = trace(compose(a, b))
    t2 = trace(compose(b, a))
    assert abs(t1 - t2) < 1e-10 * abs(t1)


def test_trace_of_discrete_identity_is_n(small_grid_r):
    # documented discretization caveat: the identity matrix is not a smooth
    # kernel; its trace is the grid size, not a continuum quantity
    ident = KernelOperator(small_grid_r, np.eye(small_grid_r.n), "additive")
    assert trace(ident) == pytest.approx(small_grid_r.n)


def test_trace_rank_one(small_grid_r):
    g = small_grid_r
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(g.n)
    psi = rng.standard_normal(g.n)
    # kernel k(x, y) = phi(x) conj(psi(y)); operator matrix = kernel * w[col]
    mat = np.outer(phi, np.conj(psi)) * g.w_add[None, :]
    op = KernelOperator(g, mat, "additive")
    inner = np.sum(g.w_add * np.conj(psi) * phi)
    assert trace(op) == pytest.approx(inner, rel=1e-12)


def test_hs_inner_with_identity_kernel_is_not_trace(small_grid_r):
    # negative control: the identity is not Hilbert-Schmidt in the continuum
    rng = np.random.default_rng(8)
    a = random_op(small_grid_r, rng)
    ident = KernelOperator(small_grid_r, np.eye(small_grid_r.n), "additive")
    assert abs(hs_inner(a, ident) - trace(a)) > 1e-6 * abs(trace(a))


def test_grid_mismatch_raises(small_grid_r, backend_r):
    from loctrace import make_grid

    other = make_grid(backend_r, 2.0, 64)
    rng = np.random.default_rng(9)
    a = random_op(small_grid_r, rng)
    b = random_op(other, rng)
    with pytest.raises(ValueError):
        compose(a, b)


def test_projection_singular_values(small_grid_r):
    p = cutoff_projection(small_grid_r, 3.0)
    sv = singular_values(p)
    count = int(np.sum(small_grid_r.t <= 3.0))
    assert np.sum(sv > 0.5) == count
    assert np.allclose(sv[:count], 1.0, atol=1e-12)


# ----------------------------- test function --------------------------------


def test_testfunction_value_at_one():
    f = TestFunction(center=0.0, width=0.25, support_radius=1.5)
    assert f.value_at_1 == 1.0
    assert f(1.0) == pytest.approx(1.0)
    fa = TestFunction(center=0.3, width=0.25, support_radius=1.5)
    assert fa.value_at_1 == pytest.approx(math.exp(-0.3**2 / (2 * 0.25**2)))
    assert fa(1.0) == pytest.approx(fa.value_at_1)


def test_testfunction_support():
    f = TestFunction(support_radius=1.5)
    assert f(math.exp(1.5)) == 0.0
    assert f(math.exp(-1.6)) == 0.0
    assert f(math.exp(0.4)) > 0.0


def test_testfunction_smooth_plateau():
    # mollifier equals 1 on the inner half of the support
    f = TestFunction(center=0.0, width=0.25, support_radius=1.5)
    for x in (0.0, 0.3, 0.74):
        assert f(math.exp(x)) == pytest.approx(math.exp(-x**2 / (2 * 0.25**2)), rel=1e-12)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"width": 1e-320}, "width 1e-320: its square underflows to 0"),
        ({"width": 1e160}, "width 1e+160: its square overflows a float"),
        ({"width": 10**200}, f"width {'1' + '0' * 59}: its square overflows a float"),
        ({"center": 1e300}, "center 1e+300: its square overflows a float"),
        ({"support_radius": 5e-324}, "width and support_radius / 2 must be positive"),
    ],
    ids=["width 1e-320", "width 1e160", "width int 10**200", "center 1e300", "support_radius 5e-324"],
)
def test_testfunction_refuses_squares_beyond_the_floats(params, message):
    # the profile divides by width**2 and by support_radius / 2, and squares the centre
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TestFunction(**params)


@pytest.fixture(scope="module")
def backend_small20(backend_r):
    from loctrace import make_grid

    return make_grid(backend_r, 1.0, 20)


def _smoothstep_by_masks(u):
    """The mollifier's step in its two-exp form e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}): a
    full-array mask, gather and scatter each."""
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


def _step_divisor_by_masks(y):
    """1 + e^s, s = 1/(1 - y) - 1/y, the one-exponent step's divisor at y = 2|x|/R - 1, by
    masks: 1 on the plateau y <= 1/700, inf from y = 1 on and where e^s overflows."""
    out = np.full_like(y, np.inf)
    out[y <= 1.0 / 700.0] = 1.0
    mid = (y > 1.0 / 700.0) & (y < 1.0)
    ym = y[mid]
    with np.errstate(over="ignore"):
        out[mid] = 1.0 + np.exp(1.0 / (1.0 - ym) - 1.0 / ym)
    return out


def test_smoothstep_matches_its_masked_form_bit_for_bit():
    # of_log is the Gaussian over the step's divisor, 1 on the plateau and inf off the support
    f = TestFunction(center=0.2, width=0.4, support_radius=1.5)
    edges = [0.0, 0.75, 1.125, 1.5, 2.0, 1e100]
    edges += [np.nextafter(e, side) for e in edges[:4] for side in (-np.inf, np.inf)]
    rng = np.random.default_rng(7)
    x = np.concatenate([edges, np.negative(edges), rng.uniform(-2.0, 2.0, 10_000)])
    gauss = np.exp((x - 0.2) ** 2 / (-2.0 * 0.4**2))
    got = f.of_log(x)
    want = gauss / _step_divisor_by_masks(np.abs(x) / 0.75 - 1.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the step is exactly 1 up to R/2, 1/2 at 3R/4 and exactly 0 from R on
    assert got[0] == gauss[0] and got[1] == gauss[1] and got[2] == gauss[2] / 2.0
    assert got[3] == got[4] == got[5] == 0.0
    # f(t) is the literal one-exponent profile over its whole band and 0 off it
    t = np.exp(np.linspace(-1.6, 1.6, 20_001))
    x = np.log(t)
    with np.errstate(divide="ignore", over="ignore"):
        y = np.clip(np.abs(x) / 0.75 - 1.0, 1.0 / 700.0, 1.0)
        want = np.exp((x - 0.2) ** 2 / (-2.0 * 0.4**2)) / (1.0 + np.exp(1.0 / (1.0 - y) - 1.0 / y))
    assert np.array_equal(f(t), np.where((t > math.exp(-1.5)) & (t < math.exp(1.5)), want, 0.0))


# the largest gap of the one-exponent step's profile from the two-exp form's, relative to
# max |f|: 2.1e-15 measured over 3000 random profiles (rho 0.5-3, width 0.01-2, a third of
# the centres within 1e-8 to 0.1 of the support's edge) at this test's 8001 points each
STEP_DRIFT = 4e-15


@settings(max_examples=100)
@given(
    center_frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(0.01, 2.0),
    rho=st.floats(0.5, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(center_frac=0.0, width=0.25, rho=1.5, seed=0)
@example(center_frac=0.99, width=0.01, rho=3.0, seed=1)
def test_one_exponent_step_is_the_two_exp_step_property(center_frac, width, rho, seed):
    # the same bits up to R/2, the same zeros wherever either form is above 1e-300, and
    # within STEP_DRIFT of max |f| on the transition band
    f = TestFunction(center=center_frac * rho, width=width, support_radius=rho)
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-1.1 * rho, 1.1 * rho, 4000), np.linspace(-rho, rho, 4001)])
    got = f.of_log(x)
    want = np.exp(-((x - f.center) ** 2) / (2.0 * width**2)) * _smoothstep_by_masks(2.0 * (1.0 - np.abs(x) / rho))
    plateau = np.abs(x) <= rho / 2.0
    assert np.array_equal(got[plateau], want[plateau])
    assert not np.any(((got == 0.0) != (want == 0.0)) & (np.maximum(got, want) > 1e-300))
    assert np.max(np.abs(got - want)) <= STEP_DRIFT * np.max(np.abs(want))


def test_smoothstep_on_the_extreme_floats_warns_of_nothing():
    # 1/(1 - y) divides by zero from R on and e^s overflows near it, which the step turns
    # into an exact 0; x is left as it is, or overwritten when it is ``out``; NaN stays NaN
    f = TestFunction(center=0.1, width=0.3, support_radius=1.5)
    edges = [0.0, 0.75, 1.5, np.inf]
    edges += [np.nextafter(e, side) for e in edges[:3] for side in (-np.inf, np.inf)]
    x = np.array([*edges, *np.negative(edges), np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f.of_log(x)
        again = f.of_log(x.copy(), out=None)
        inplace = x.copy()
        f.of_log(inplace, out=inplace)
    gauss = np.exp(-((x - 0.1) ** 2) / (2.0 * 0.3**2))
    plateau, off = np.abs(x) <= 0.75, np.abs(x) >= 1.5
    assert np.array_equal(got[plateau], gauss[plateau]) and not got[off].any()
    assert got[8] == 0.0 and np.isnan(got[-1])  # 0 just short of R, where e^s overflows
    assert np.array_equal(got, again, equal_nan=True) and np.array_equal(got, inplace, equal_nan=True)
    assert np.array_equal(x[:-1], [*edges, *np.negative(edges)])  # x is left as it is


@settings(max_examples=100)
@given(
    center_frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(0.01, 2.0),
    rho=st.floats(0.5, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(center_frac=0.0, width=0.25, rho=1.5, seed=0)
@example(center_frac=0.99, width=0.01, rho=3.0, seed=1)
def test_profile_is_its_log_axis_formula_property(center_frac, width, rho, seed):
    # f(t) is of_log(log t) bit for bit on the support band and exactly 0 off it, so the
    # values routes A and B sample keep their bits; of_log is exactly 0 off the band too,
    # which the panels of route C rely on
    f = TestFunction(center=center_frac * rho, width=width, support_radius=rho)
    t_lo, t_hi = f.support_band()
    near = [t_lo, t_hi, math.exp(-rho / 2.0), math.exp(rho / 2.0), 1.0]
    near += [np.nextafter(t, side) for t in near for side in (0.0, np.inf)]
    rng = np.random.default_rng(seed)
    t = np.concatenate([near, np.exp(rng.uniform(-1.2 * rho, 1.2 * rho, 2000))])
    band = (t > t_lo) & (t < t_hi)
    got = f(t)
    want = f.of_log(np.log(t))
    assert np.array_equal(got[band].view(np.int64), want[band].view(np.int64))
    assert not got[~band].any() and not want[~band].any()
    assert all(f(float(s)) == got[i] for i, s in enumerate(t[:12]))  # the scalar path
