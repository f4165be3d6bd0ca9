import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loctrace import (
    FourierOperator,
    TestFunction,
    TraceComputation,
    asymptotic_fit,
    build_fourier,
    make_backend,
    make_grid,
)
from loctrace.cli import DEFAULT_CONFIGS, ROUTE_AGREEMENT_TOL
from loctrace.cutoff_trace import TraceReport, gate_reports
from oracles import (
    RadialFunction,
    conductor_by_weighted_sum,
    first_moment_by_weighted_sum,
    inversion,
    route_a_by_convolution,
    route_b_by_weighted_sum,
)


# ----------------------------- inversion -----------------------------------


def test_inversion_involution(grid_r2048):
    rng = np.random.default_rng(0)
    f = RadialFunction(grid_r2048, rng.standard_normal(grid_r2048.n))
    assert np.array_equal(inversion(inversion(f)).samples, f.samples)


def test_inversion_reflects_support(backend_r):
    g = make_grid(backend_r, 3.0, 256)
    samples = np.where((g.t >= 1.0) & (g.t <= math.e), 1.0, 0.0)
    inv = inversion(RadialFunction(g, samples))
    support = g.t[np.abs(inv.samples) > 0]
    assert support.max() <= 1.0 + 1e-12
    assert support.min() >= math.exp(-1.0) - 1e-12


def test_inversion_fixes_symmetric_samples(backend_r):
    g = make_grid(backend_r, 2.0, 128)
    f = RadialFunction(g, np.exp(-np.abs(g.log_t)))
    assert np.allclose(inversion(f).samples, f.samples)


# ----------------------------- transform of I(f) ----------------------------


def test_tilde_tail_decay(comp_r, grid_r2048):
    G = comp_r.transform_of_inverted()
    # last product-lattice point inside the grid range
    end = int(np.searchsorted(comp_r.mu, grid_r2048.log_t[-1])) - 1
    tail = abs(G[end]) * grid_r2048.t[-1] ** 2
    assert tail < 1e-6 * np.abs(G).max()


def test_tilde_linear(backend_r, grid_r2048, fourier_r2048, standard_bump):
    G1 = TraceComputation(standard_bump, fourier_r2048).transform_of_inverted()
    f2 = TestFunction(center=0.0, width=0.5, support_radius=1.5)
    G2 = TraceComputation(f2, fourier_r2048).transform_of_inverted()
    # linearity at the sample level: transform of the sum = sum of transforms
    fv = standard_bump(grid_r2048.t) + f2(grid_r2048.t)
    arep = fv[::-1] / np.sqrt(backend_r.omega * grid_r2048.t)
    combined = fourier_r2048.apply_product_lattice(arep)
    assert np.abs(combined - (G1 + G2)).max() < 1e-12


def test_tilde_real_for_real_profiles(fourier_r2048, asymmetric_bump):
    comp = TraceComputation(asymmetric_bump, fourier_r2048)
    assert np.isrealobj(comp.transform_of_inverted())


# ----------------------------- routes ---------------------------------------


def test_route_a_zero_profile(fourier_r2048):
    f0 = TestFunction(width=0.25, support_radius=1.5)
    comp = TraceComputation(f0, fourier_r2048)
    comp._G[True] = np.zeros_like(comp.t_p)  # f = 0 profile
    assert comp.route_a(4.0) == 0.0
    assert comp.route_b(4.0) == 0.0


def lam_with_log(x: float) -> float | None:
    """A lam whose math.log is exactly x, or None (near x = 0 no float lam has it)."""
    lam = math.exp(x)
    for _ in range(8):
        if math.log(lam) == x:
            return lam
        lam = math.nextafter(lam, math.inf if math.log(lam) < x else 0.0)
    return None


@settings(max_examples=40)
@given(
    field_id=st.sampled_from(["R", "C", "H"]),
    half_n=st.integers(32, 4096),
    half_range=st.floats(1.6, 14.0),
    position=st.floats(0.0, 0.999),
    edge=st.floats(0.0, 1.0, exclude_max=True),
)
@example(field_id="R", half_n=32, half_range=1.6, position=0.0, edge=0.0)
@example(field_id="C", half_n=4096, half_range=14.0, position=0.999, edge=0.999)
@example(field_id="H", half_n=1024, half_range=math.log(3e4), position=0.5, edge=0.25)
def test_route_a_matches_the_direct_convolution(field_id, half_n, half_range, position, edge):
    # the closed-form box pairing against the O(n^2) convolution of the cell
    # weights, at lam below the first cell's top (m = 0), with log lam exactly
    # on a cell's top edge, and anywhere up to the grid's range
    n = 2 * half_n
    grid = make_grid(make_backend(field_id), half_range, n)
    comp = TraceComputation(TestFunction(), FourierOperator(grid))
    h, x = grid.step, grid.log_t
    k = int(edge * (n - 1))  # cells 0..n-2 have their top edge below log lam's limit L
    on_edges = [lam_with_log(float(x[k] + h / 2.0)), lam_with_log(float(x[k + 1] - h / 2.0))]
    lams = [
        math.exp(x[0] - 0.7 * h),  # below every cell
        math.exp(x[0] + 0.3 * h),  # inside the first cell
        math.exp(x[0] + position * (half_range - x[0])),
    ] + [lam for lam in on_edges if lam is not None]
    for lam in lams:
        want = route_a_by_convolution(comp, lam)
        got = comp.route_a(lam)
        assert abs(got - want) <= 1e-12 * abs(want), (lam, got, want)


def test_stages_log_their_spans(fourier_r2048, standard_bump, caplog):
    # one INFO line for the product-lattice transform, and one per lam for each route
    comp = TraceComputation(standard_bump, fourier_r2048)
    with caplog.at_level(logging.INFO, logger="loctrace"):
        a, b = comp.route_a(4.0), comp.route_b(4.0)
        comp.route_b(4.0)
    lines = [r.getMessage() for r in caplog.records]
    (transform,) = [m for m in lines if m.startswith("transform of I(f):")]
    assert "n=2048 duration_s=" in transform
    (route_a,) = [m for m in lines if m.startswith("route A:")]
    assert route_a.startswith(f"route A: lam=4 t_route_a={a:.15g} duration_s=")
    route_b = [m for m in lines if m.startswith("route B:")]
    assert len(route_b) == 2
    assert route_b[0].startswith(f"route B: lam=4 t_route_b={b:.15g} duration_s=")


def test_route_scaling(comp_r, fourier_r2048):
    # doubling f doubles both routes (linearity)
    a1 = comp_r.route_a(4.0)
    b1 = comp_r.route_b(4.0)
    comp2 = TraceComputation(comp_r.f, fourier_r2048)
    comp2._G[True] = 2.0 * comp_r.transform_of_inverted()
    assert comp2.route_a(4.0) == pytest.approx(2 * a1, rel=1e-12)
    assert comp2.route_b(4.0) == pytest.approx(2 * b1, rel=1e-12)


def test_route_agreement_r(comp_r):
    for lam in (2.0, 4.0, 8.0, 16.0):
        a, b = comp_r.route_a(lam), comp_r.route_b(lam)
        assert abs(a - b) / abs(b) < 1e-3


def test_route_agreement_h(comp_h):
    for lam in (2.0, 4.0, 8.0, 16.0):
        a, b = comp_h.route_a(lam), comp_h.route_b(lam)
        assert abs(a - b) / abs(b) < 5e-3


@pytest.fixture(scope="module")
def default_comps(standard_bump):
    """One TraceComputation per default grid (R, C, H, H-asymptotic)."""
    comps = {}
    for key, cfg in DEFAULT_CONFIGS.items():
        grid = make_grid(make_backend(cfg["field"]), cfg["grid"]["log_t_half_range"], cfg["grid"]["n"])
        comps[key] = (TraceComputation(standard_bump, build_fourier(grid)), cfg["lambdas"])
    return comps


@pytest.mark.parametrize("key", list(DEFAULT_CONFIGS))
def test_prefix_table_matches_the_weighted_sums(default_comps, key):
    # route B, f(1) and H(f)(1) from the one prefix table against their
    # weighted sums over the product lattice, strips in closed form
    comp, sweep_lams = default_comps[key]
    mu, h = comp.mu, comp.h
    k = len(mu) // 3
    lams = [
        lam_with_log(float(mu[k]) / 2.0),  # 2 log lam on a lattice point
        math.exp((float(mu[k]) + h / 2.0) / 2.0),  # on a midpoint
        0.5,
        0.01,
        1e-5,
        math.exp((comp.log_floor + float(mu[0])) / 4.0),  # lam^2 between the floor and the first point
        *sweep_lams,
    ]
    assert lams[0] is not None and 2.0 * math.log(lams[0]) == mu[k]
    for lam in lams:
        want = route_b_by_weighted_sum(comp, lam)
        assert comp.route_b(lam) == pytest.approx(want, rel=1e-12, abs=0.0), lam
    assert comp.first_moment() == pytest.approx(first_moment_by_weighted_sum(comp), rel=1e-12, abs=0.0)
    for invert in (True, False):
        want = conductor_by_weighted_sum(comp, invert)
        assert comp.conductor_value(invert) == pytest.approx(want, rel=1e-12, abs=0.0), invert


@pytest.fixture(scope="module")
def route_b_wide_r(standard_bump):
    """Route B on a wide fine R grid, the reference of the small-lam traces."""
    grid = make_grid(make_backend("R"), math.log(1e6), 8192)
    return TraceComputation(standard_bump, build_fourier(grid))


@pytest.mark.parametrize("L, n", [(math.log(1e4), 2048), (math.log(1e4), 4096), (math.log(3e3), 1024)])
def test_small_lam_routes_match_a_wide_grid(route_b_wide_r, standard_bump, L, n):
    # the strips and the corner below the grid floor: at lam near the floor
    # both routes are within 2e-8 of route B on a grid reaching 100x lower
    comp = TraceComputation(standard_bump, build_fourier(make_grid(make_backend("R"), L, n)))
    for lam in (0.003, 0.01, 0.05):
        want = route_b_wide_r.route_b(lam)
        assert abs(comp.route_a(lam) - want) < 2e-8, lam
        assert abs(comp.route_b(lam) - want) < 2e-8, lam
    # below the first cell both routes are the corner c lam^2, a positive trace
    a, b = comp.route_a(1e-5), comp.route_b(1e-5)
    assert type(a) is float and type(b) is float
    assert b > 0.0 and a == pytest.approx(b, rel=1e-12, abs=0.0)


def test_first_moment_recovers_f_at_1(comp_r, comp_h, standard_bump):
    assert comp_r.first_moment() == pytest.approx(standard_bump.value_at_1, abs=1e-8)
    assert comp_h.first_moment() == pytest.approx(standard_bump.value_at_1, abs=1e-8)


# ----------------------------- conductor ------------------------------------


def test_conductor_linearity(fourier_r2048, standard_bump):
    comp = TraceComputation(standard_bump, fourier_r2048)
    h1 = comp.conductor_value()
    comp2 = TraceComputation(standard_bump, fourier_r2048)
    comp2._G[True] = 2.0 * comp.transform_of_inverted()
    assert comp2.conductor_value() == pytest.approx(2 * h1, rel=1e-12)


def test_conductor_symmetric_profile_exact(fourier_r2048, standard_bump):
    # center 0: f is inversion-symmetric, both evaluations share the samples
    comp = TraceComputation(standard_bump, fourier_r2048)
    assert comp.conductor_value(invert=True) == pytest.approx(
        comp.conductor_value(invert=False), abs=1e-12
    )


# ----------------------------- error bound ----------------------------------


def test_error_bound_monotone(comp_r):
    assert comp_r.error_bound(8.0) <= comp_r.error_bound(4.0) + 1e-15
    assert comp_r.error_bound(16.0) <= comp_r.error_bound(8.0) + 1e-15


def test_error_bound_small_past_decay(comp_r):
    assert comp_r.error_bound(8.0) < 1e-6


def test_sandwich(comp_r, standard_bump, grid_r2048):
    # below lam = 1, |log t| alone weighs the tail beyond lam^2 too lightly: at
    # 0.3 and 0.5 the residuals 1.387 and 0.640 exceeded its bounds 0.861 and 0.539
    l1 = standard_bump.l1_mult_norm(grid_r2048.step)
    for lam in (0.3, 0.5, 0.9, 4.0, 8.0, 16.0, 32.0):
        rep = comp_r.report(lam)
        slack = rep.error_bound + 10.0 * rep.unitarity_defect * l1
        assert abs(rep.t_route_b - rep.asymptote) <= slack + 1e-12


@pytest.mark.parametrize("lam", [1.0, 2.0, 8.0])
def test_error_bound_weight_is_log_t_from_lambda_one(comp_r, lam):
    mask = comp_r.mu >= 2.0 * math.log(lam)
    G = comp_r.transform_of_inverted()[mask]
    tail = np.abs(comp_r.mu[mask]) * np.abs(G) * comp_r.t_p[mask] * comp_r.h
    assert comp_r.error_bound(lam) == float(comp_r.sqrt_omega * comp_r.omega * np.sum(tail))


# ----------------------------- fit -------------------------------------------


def test_fit_exact_synthetic():
    a, b = 0.73, -1.21
    reports = []
    for lam in (2.0, 4.0, 8.0, 16.0):
        y = 2 * math.log(lam) * a + b
        reports.append(
            TraceReport(
                lam=lam,
                two_log_lambda=2 * math.log(lam),
                t_route_a=y,
                t_route_b=y,
                t_route_c=None,
                asymptote=y,
                error_bound=0.0,
                unitarity_defect=0.0,
            )
        )
    slope, intercept, resid = asymptotic_fit(reports)
    assert slope == pytest.approx(a, abs=1e-12)
    assert intercept == pytest.approx(b, abs=1e-12)
    assert resid < 1e-12


@settings(max_examples=200)
@given(
    lams=st.lists(st.floats(0.5, 200.0), min_size=3, max_size=8, unique=True),
    slope=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    intercept=st.floats(-10.0, 10.0),
    noise=st.lists(st.floats(-1e-3, 1e-3), min_size=8, max_size=8),
)
def test_fit_closed_form_matches_lstsq_property(lams, slope, intercept, noise):
    # the closed form against LAPACK's least squares, a test-only oracle.  The intercept
    # is y_mean - slope x_mean, so it is held relative to the larger of those two terms;
    # lams spanning a factor 2 keep the design as well conditioned as a sweep's doublings
    assume(max(lams) >= 2.0 * min(lams))
    x = [2 * math.log(lam) for lam in lams]
    y = [slope * xi + intercept + e for xi, e in zip(x, noise)]
    reports = [TraceReport(lam, xi, yi, yi, None, yi, 0.0, 0.0) for lam, xi, yi in zip(lams, x, y)]
    got = asymptotic_fit(reports)
    design = np.column_stack([x, np.ones(len(x))])
    (a, b), *_ = np.linalg.lstsq(design, np.array(y), rcond=None)
    resid = float(np.abs(np.array(y) - design @ (a, b)).max())
    assert abs(got[0] - a) <= 1e-12 * abs(a)
    assert abs(got[1] - b) <= 1e-12 * max(abs(b), abs(a * np.mean(x)))
    assert abs(got[2] - resid) <= 1e-12 * max(map(abs, y))


def test_fit_rejects_degenerate():
    rep = TraceReport(2.0, 2 * math.log(2.0), 1.0, 1.0, None, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="at least 3 reports"):
        asymptotic_fit([rep, rep])
    with pytest.raises(ValueError, match="fewer than 2 distinct lambdas"):
        asymptotic_fit([rep, rep, rep])
    zero = TraceReport(2.0, 2 * math.log(2.0), 0.0, 0.0, None, 0.0, 0.0, 0.0)
    zero4 = TraceReport(4.0, 2 * math.log(4.0), 0.0, 0.0, None, 0.0, 0.0, 0.0)
    zero8 = TraceReport(8.0, 2 * math.log(8.0), 0.0, 0.0, None, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        asymptotic_fit([zero, zero4, zero8])


def test_fit_recovers_constants_r(comp_r, standard_bump):
    reports = [comp_r.report(lam) for lam in (2.0, 4.0, 8.0, 16.0, 32.0)]
    kept = gate_reports(reports)
    assert len(kept) >= 3
    slope, intercept, _ = asymptotic_fit(kept)
    cond = comp_r.conductor_value()
    assert abs(slope - standard_bump.value_at_1) < 0.01 * standard_bump.value_at_1
    assert abs(intercept + cond) < 0.01 * abs(cond)


def test_gate_uses_error_bound(comp_h):
    # on the certification grid the quaternionic tail bound is honest: it is
    # large at small lambda and removes those reports from the fit window
    reports = [comp_h.report(lam) for lam in (2.0, 4.0, 8.0)]
    kept = gate_reports(reports)
    assert len(kept) < len(reports)


def test_grid_refinement_convergence(backend_r, standard_bump):
    # doubling n changes each route by less than the stated tolerance
    vals = {}
    for n in (1024, 2048):
        g = make_grid(backend_r, math.log(1e4), n)
        comp = TraceComputation(standard_bump, build_fourier(g))
        vals[n] = (comp.route_a(4.0), comp.route_b(4.0))
    assert abs(vals[1024][0] - vals[2048][0]) < 1e-3 * abs(vals[2048][0])
    assert abs(vals[1024][1] - vals[2048][1]) < 1e-3 * abs(vals[2048][1])


def test_inversion_covariance_of_pipeline(fourier_r2048, asymmetric_bump):
    # running the pipeline on I(f): the constant term of the asymptotics stays put
    comp_f = TraceComputation(asymmetric_bump, fourier_r2048)
    cond_f = comp_f.conductor_value(invert=True)
    cond_if = comp_f.conductor_value(invert=False)
    assert abs(cond_f - cond_if) < 1e-6 * max(1.0, abs(cond_f))


def test_route_c_vanishing_cutoff(signed_lab, comp_r):
    # the projection shrinks to nothing: the trace goes to 0 with the box
    t_small = signed_lab.trace_route_c(0.125)
    t_ref = signed_lab.trace_route_c(2.0)
    assert abs(t_small) < 0.05 * abs(t_ref) + 0.05


# ----------------------------- the chain over its parameter space -----------


@st.composite
def chain_inputs(draw):
    """A default grid (R, C or H) with its half-range scaled, and a profile.

    H keeps its profile at centre 0: off centre the narrow H grid leaves its
    asymptotic regime.
    """
    field_id = draw(st.sampled_from(["R", "C", "H"]))
    scale = draw(st.floats(0.9, 1.25))
    center = 0.0 if field_id == "H" else draw(st.floats(-0.3, 0.3))
    width = draw(st.floats(0.2, 0.3))
    return field_id, scale, center, width


@settings(max_examples=36)
@given(case=chain_inputs())
def test_chain_properties_over_default_grids(case):
    # build_fourier(grid) -> TraceComputation(f, fourier), judged by the
    # tolerances the sweep gates and the acceptance criteria already use
    field_id, scale, center, width = case
    cfg = DEFAULT_CONFIGS[field_id]
    L = scale * cfg["grid"]["log_t_half_range"]
    grid = make_grid(make_backend(field_id), L, cfg["grid"]["n"])
    f = TestFunction(center=center, width=width, support_radius=1.5)
    comp = TraceComputation(f, build_fourier(grid))
    l1 = f.l1_mult_norm(grid.step)
    for lam in cfg["lambdas"]:
        rep = comp.report(lam)
        gap = abs(rep.t_route_a - rep.t_route_b) / max(abs(rep.t_route_b), 1e-300)
        assert gap < ROUTE_AGREEMENT_TOL[field_id], (lam, gap)
        slack = rep.error_bound + 10.0 * rep.unitarity_defect * l1
        assert abs(rep.t_route_b - rep.asymptote) <= slack + 1e-12, lam
    assert abs(comp.first_moment() - f.value_at_1) < 1e-6
    # criterion 4's 1e-6 on every field (H stays at centre 0)
    h_f = comp.conductor_value(invert=True)
    assert abs(h_f - comp.conductor_value(invert=False)) < 1e-6 * max(1.0, abs(h_f))
