"""Routes A, B and C on R against the exact, FFT-free T(lam) of ``exact_trace_r``.

The sine-integral form reads no grid and no transform, so it checks what routes
A and B share: the certified transform G on the product lattice and the
moments taken from it.  Each bound below is the worst gap measured over the
property's whole domain (1500 random draws and a sweep of its corners), times
about 1.5.  The largest sit at n 1024 with L near 13, support_radius near 1
and widths 0.15-0.35, where the lattice's G is coarsest: there
``conductor_value`` is up to 0.12 off H(f)(1) (ROADMAP items 2 and 9).
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from loctrace import TestFunction, TraceComputation, build_fourier, make_backend, make_grid
from oracles import exact_conductor_r, exact_trace_r

# n: the worst measured relative gap of route A and of route B, and the worst absolute
# gap of first_moment to f(1) and of conductor_value to H(f)(1), each times about 1.5
GAPS = {
    1024: {"route_a": 2.5e-4, "route_b": 3e-4, "first_moment": 7.5e-3, "conductor": 0.18},
    2048: {"route_a": 5e-5, "route_b": 2.5e-5, "first_moment": 8e-6, "conductor": 1.7e-4},
    4096: {"route_a": 1.1e-5, "route_b": 6e-6, "first_moment": 1.7e-7, "conductor": 8e-7},
}


@settings(max_examples=25)
@given(
    center=st.floats(-0.4, 0.4),
    width=st.floats(0.15, 1.0),
    rho=st.floats(1.0, 2.5),
    n=st.sampled_from(sorted(GAPS)),
    half_range=st.floats(math.log(1e4), 13.0),
    lam=st.floats(0.5, 32.0),
)
@example(center=0.0, width=0.25, rho=1.5, n=2048, half_range=math.log(1e4), lam=2.0 + 1 / 256)
@example(center=0.0, width=0.25, rho=1.5, n=2048, half_range=math.log(1e4), lam=0.7)
# the measured worst cases: the conductor and f(1), then routes A and B
@example(center=0.4, width=0.2, rho=1.0, n=1024, half_range=13.0, lam=0.5)
@example(center=0.4, width=0.15, rho=1.0, n=1024, half_range=13.0, lam=32.0)
@example(center=0.4, width=1.0, rho=2.5, n=4096, half_range=13.0, lam=1.0)
def test_routes_and_moments_match_the_exact_trace_property(center, width, rho, n, half_range, lam):
    f = TestFunction(center=center, width=width, support_radius=rho)
    comp = TraceComputation(f, build_fourier(make_grid(make_backend("R"), half_range, n)))
    gaps = GAPS[n]
    exact = exact_trace_r(f, lam)
    for route in ("route_a", "route_b"):
        value = getattr(comp, route)(lam)
        assert abs(value - exact) <= gaps[route] * abs(exact), (route, value, exact)
    assert abs(comp.first_moment() - f(1.0)) <= gaps["first_moment"]
    assert abs(comp.conductor_value() - exact_conductor_r(f)) <= gaps["conductor"]


@pytest.mark.parametrize(
    "lam",
    [
        2.0,  # a cell edge of the default lab: lam sqrt(n_signed) = 128
        pytest.param(
            2.0 + 1 / 256,
            marks=pytest.mark.xfail(
                strict=True,
                reason="route C's sharp cutoff jumps by one point's term at each grid point "
                "(ROADMAP item 1): 1.5e-3 off between cell edges",
            ),
        ),
    ],
)
def test_route_c_matches_the_exact_trace(signed_lab, standard_bump, lam):
    # 1.9e-6 at the cell edge, route C's agreement with routes A and B at verify's lams
    exact = exact_trace_r(standard_bump, lam)
    assert abs(signed_lab.trace_route_c(lam) - exact) <= 1e-5 * abs(exact)
