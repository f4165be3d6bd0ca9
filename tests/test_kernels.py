import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import j0, j1, loggamma

from loctrace import kernel_values, make_backend, mellin_symbol
from loctrace.kernels import bessel_ratio
from oracles import sphere_average_mc


def test_kernel_at_zero_is_one():
    for field_id in ("R", "C", "H"):
        assert kernel_values(field_id, 1e-14) == pytest.approx(1.0, abs=1e-5)
        assert kernel_values(field_id, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_kernel_r_half():
    # two-point average of e^{+-2 pi i x y} at |x||y| = 1/2 is cos(pi) = -1
    assert kernel_values("R", 0.5) == pytest.approx(-1.0, rel=1e-14)


def test_kernel_real_valued():
    u = np.linspace(0.0, 50.0, 500)
    for field_id in ("R", "C", "H"):
        vals = kernel_values(field_id, u)
        assert np.isrealobj(vals)
        assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("u", [0.1, 1.0])
def test_kernel_h_montecarlo(u):
    # sphere-average oracle: sample the unit 3-sphere, average the character
    b = make_backend("H")
    est = sphere_average_mc(b, u, n_samples=4_000_000, seed=42)
    exact = kernel_values("H", u)
    assert est == pytest.approx(exact, abs=1.5e-3)


def test_kernel_c_montecarlo():
    b = make_backend("C")
    est = sphere_average_mc(b, 0.3, n_samples=4_000_000, seed=7)
    assert est == pytest.approx(kernel_values("C", 0.3), abs=1.5e-3)


def _bessel_points():
    edges = [np.nextafter(v, d) for v in (5.0, 20.0) for d in (0.0, np.inf, -np.inf)]
    return np.concatenate([np.linspace(0.0, 100.0, 200001), np.geomspace(100.0, 1.3e6, 200001), edges])


@pytest.mark.parametrize("n, oracle", [(0, j0), (1, j1)], ids=["J0", "J1"])
def test_bessel_matches_scipy(n, oracle):
    # every regime (series to 5, quadrature to 20, Hankel beyond) and both
    # sides of each seam; far out the gap is scipy's rounding of x - (2n+1) pi/4
    x = _bessel_points()
    gap = np.abs(bessel_ratio(n, x) * (0.5 * x) ** n - oracle(x))
    for top, bound in ((100.0, 2e-15), (1e4, 5e-15), (1.3e6, 1e-13)):
        assert gap[x <= top].max() <= bound, (top, gap[x <= top].max())


def test_bessel_ratio_keeps_the_input_order():
    x = np.array([30.0, 0.0, 7.0, 1e5, 2.5, 20.0, 5.0])
    assert np.array_equal(bessel_ratio(1, x), np.concatenate([bessel_ratio(1, [v]) for v in x]))
    assert bessel_ratio(0, [0.0])[0] == 1.0 and bessel_ratio(1, [0.0])[0] == 1.0


def _symbol_by_loggamma(field_id, nu):
    """The symbol's closed form with scipy's complex log-gamma."""
    s = 0.5 - 1j * np.asarray(nu, dtype=complex)
    log_2pi = math.log(2.0 * math.pi)
    if field_id == "R":
        iz = 1j * np.pi * s / 2.0
        m = np.maximum(iz.real, (-iz).real)
        logcos = m + np.log(np.exp(iz - m) + np.exp(-iz - m)) - math.log(2.0)
        return np.exp(math.log(2.0) - s * log_2pi + loggamma(s) + logcos)
    if field_id == "C":
        return np.exp(log_2pi * (1.0 - 2.0 * s) + loggamma(s) - loggamma(1.0 - s))
    return np.exp(2.0 * log_2pi - 4.0 * s * log_2pi + loggamma(2.0 * s) - loggamma(2.0 - 2.0 * s))


@pytest.mark.parametrize("field_id", ["R", "C", "H"])
def test_symbol_matches_the_loggamma_closed_form(field_id):
    # the phase grows like nu log nu, so both forms round it to ~1e-12 at nu = 900
    nu = np.linspace(-900.0, 900.0, 360001)
    assert np.abs(mellin_symbol(field_id, nu) - _symbol_by_loggamma(field_id, nu)).max() <= 2e-11


def test_symbol_unimodular():
    nu = np.linspace(-500.0, 500.0, 2001)
    for field_id in ("R", "C", "H"):
        vals = mellin_symbol(field_id, nu)
        assert np.abs(np.abs(vals) - 1.0).max() < 5e-13
        assert mellin_symbol(field_id, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_symbol_conjugate_symmetry():
    nu = np.linspace(0.1, 40.0, 50)
    for field_id in ("R", "C", "H"):
        assert np.allclose(
            mellin_symbol(field_id, -nu), np.conj(mellin_symbol(field_id, nu)), atol=1e-13
        )


def _direct_symbol_r(nu):
    """Oracle: omega * int_0^inf cos(2 pi v) v^{-1/2 - i nu} dv by accelerated
    alternating half-period sums."""
    mp.mp.dps = 20
    s = mp.mpf("0.5") - 1j * mp.mpf(str(nu))
    f = lambda v: mp.cos(2 * mp.pi * v) * v ** (s - 1)
    head = mp.quad(f, [0, mp.mpf(1) / 4])
    chunk = lambda k: mp.quad(f, [mp.mpf(1) / 4 + k / mp.mpf(2), mp.mpf(1) / 4 + (k + 1) / mp.mpf(2)])
    tail = mp.nsum(chunk, [0, mp.inf], method="a")
    return 2 * complex(head + tail)


def _direct_symbol_bessel(field_id, nu):
    mp.mp.dps = 20
    s = mp.mpf("0.5") - 1j * mp.mpf(str(nu))
    if field_id == "C":
        g = lambda r: 2 * mp.besselj(0, 4 * mp.pi * r) * r ** (2 * s - 1)
        zero = lambda k: mp.besseljzero(0, int(k)) / (4 * mp.pi)
        omega = 2 * mp.pi
    else:
        g = lambda r: 4 * mp.besselj(1, 4 * mp.pi * r) / (2 * mp.pi * r) * r ** (4 * s - 1)
        zero = lambda k: mp.besseljzero(1, int(k)) / (4 * mp.pi)
        omega = 2 * mp.pi**2
    head = mp.quad(g, [0, zero(1)])
    chunk = lambda k: mp.quad(g, [zero(int(k + 1)), zero(int(k + 2))])
    tail = mp.nsum(chunk, [0, mp.inf], method="a")
    return complex(omega * (head + tail))


def test_symbol_against_direct_mellin_integral():
    for nu in (0.3, 2.0):
        assert complex(mellin_symbol("R", nu)) == pytest.approx(_direct_symbol_r(nu), abs=1e-10)
    assert complex(mellin_symbol("C", 0.7)) == pytest.approx(
        _direct_symbol_bessel("C", 0.7), abs=1e-8
    )
    assert complex(mellin_symbol("H", 0.7)) == pytest.approx(
        _direct_symbol_bessel("H", 0.7), abs=1e-8
    )
