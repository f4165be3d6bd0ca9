import math

import numpy as np
import pytest

from loctrace import (
    RadialFunction,
    TestFunction,
    TraceComputation,
    asymptotic_fit,
    inversion,
    make_backend,
    make_grid,
)
from loctrace.cutoff_trace import TraceReport, gate_reports


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
    tail = abs(G[end]) * grid_r2048.t_max**2
    assert tail < 1e-6 * np.abs(G).max()


def test_tilde_linear(backend_r, grid_r2048, fourier_r2048, standard_bump):
    G1 = TraceComputation(backend_r, grid_r2048, standard_bump, fourier_r2048).transform_of_inverted()
    f2 = TestFunction(center=0.0, width=0.5, support_radius=1.5)
    G2 = TraceComputation(backend_r, grid_r2048, f2, fourier_r2048).transform_of_inverted()
    # linearity at the sample level: transform of the sum = sum of transforms
    fv = standard_bump(grid_r2048.t) + f2(grid_r2048.t)
    arep = fv[::-1] / np.sqrt(backend_r.omega * grid_r2048.t)
    combined = fourier_r2048.apply_product_lattice(arep)
    assert np.abs(combined - (G1 + G2)).max() < 1e-12


def test_tilde_real_for_real_profiles(backend_r, grid_r2048, fourier_r2048, asymmetric_bump):
    comp = TraceComputation(backend_r, grid_r2048, asymmetric_bump, fourier_r2048)
    assert np.isrealobj(comp.transform_of_inverted())


# ----------------------------- routes ---------------------------------------


def test_route_a_zero_profile(backend_r, grid_r2048, fourier_r2048):
    f0 = TestFunction(width=0.25, support_radius=1.5)
    comp = TraceComputation(backend_r, grid_r2048, f0, fourier_r2048)
    comp._G[True] = np.zeros_like(comp.t_p)  # f = 0 profile
    assert comp.route_a(4.0) == 0.0
    assert comp.route_b(4.0) == 0.0


def test_route_scaling(comp_r, backend_r, grid_r2048, fourier_r2048):
    # doubling f doubles both routes (linearity)
    a1 = comp_r.route_a(4.0)
    b1 = comp_r.route_b(4.0)
    comp2 = TraceComputation(backend_r, grid_r2048, comp_r.f, fourier_r2048)
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


def test_route_b_boundary_weight_vanishes(comp_r):
    # the annulus weight at |z| = lam^2 is 2 log lam - log lam^2 = 0
    lam = 4.0
    mu = comp_r.mu
    w = np.maximum(2.0 * math.log(lam) - mu, 0.0)
    boundary = np.argmin(np.abs(mu - 2.0 * math.log(lam)))
    assert w[boundary] < comp_r.h


def test_first_moment_recovers_f_at_1(comp_r, comp_h, standard_bump):
    assert comp_r.first_moment() == pytest.approx(standard_bump.value_at_1, abs=1e-6)
    assert comp_h.first_moment() == pytest.approx(standard_bump.value_at_1, abs=1e-5)


# ----------------------------- conductor ------------------------------------


def test_conductor_linearity(backend_r, grid_r2048, fourier_r2048, standard_bump):
    comp = TraceComputation(backend_r, grid_r2048, standard_bump, fourier_r2048)
    h1 = comp.conductor_value()
    comp2 = TraceComputation(backend_r, grid_r2048, standard_bump, fourier_r2048)
    comp2._G[True] = 2.0 * comp.transform_of_inverted()
    assert comp2.conductor_value() == pytest.approx(2 * h1, rel=1e-12)


def test_conductor_symmetric_profile_exact(backend_r, grid_r2048, fourier_r2048, standard_bump):
    # center 0: f is inversion-symmetric, both evaluations share the samples
    comp = TraceComputation(backend_r, grid_r2048, standard_bump, fourier_r2048)
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
    l1 = standard_bump.l1_mult_norm(grid_r2048.step)
    for lam in (4.0, 8.0, 16.0, 32.0):
        rep = comp_r.report(lam)
        slack = rep.error_bound + 10.0 * rep.unitarity_defect * l1
        assert abs(rep.t_route_b - rep.asymptote) <= slack + 1e-12


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


def test_fit_rejects_degenerate():
    rep = TraceReport(2.0, 2 * math.log(2.0), 1.0, 1.0, None, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        asymptotic_fit([rep, rep])
    with pytest.raises(ValueError):
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
        comp = TraceComputation(backend_r, g, standard_bump)
        vals[n] = (comp.route_a(4.0), comp.route_b(4.0))
    assert abs(vals[1024][0] - vals[2048][0]) < 1e-3 * abs(vals[2048][0])
    assert abs(vals[1024][1] - vals[2048][1]) < 1e-3 * abs(vals[2048][1])


def test_inversion_covariance_of_pipeline(backend_r, grid_r2048, fourier_r2048, asymmetric_bump):
    # running the pipeline on I(f): the constant term of the asymptotics stays put
    comp_f = TraceComputation(backend_r, grid_r2048, asymmetric_bump, fourier_r2048)
    cond_f = comp_f.conductor_value(invert=True)
    cond_if = comp_f.conductor_value(invert=False)
    assert abs(cond_f - cond_if) < 1e-6 * max(1.0, abs(cond_f))


def test_route_c_vanishing_cutoff(signed_lab, comp_r):
    # the projection shrinks to nothing: the trace goes to 0 with the box
    t_small = signed_lab.trace_route_c(0.125)
    t_ref = signed_lab.trace_route_c(2.0)
    assert abs(t_small) < 0.05 * abs(t_ref) + 0.05
