import math

import numpy as np
import pytest

from loctrace import make_backend, make_grid
from oracles import (
    RadialFunction,
    annulus_measure,
    grid_reversal,
    left_multiplication_matrix,
    module_of_matrix,
    mult_weights,
    to_additive,
    to_multiplicative,
)


def quad_annulus(backend, t1, t2, n=200_000):
    """Independent oracle: euclidean quadrature of the annulus integral.

    Integrates dx / (omega * m(x)) over {t1 <= m(x) <= t2} in polar
    coordinates, with dx = measure_factor * Lebesgue.
    """
    d = backend.euclidean_dim
    sphere_area = {1: 2.0, 2: 2.0 * math.pi, 4: 2.0 * math.pi**2}[d]
    r1, r2 = t1 ** (1.0 / d), t2 ** (1.0 / d)
    r = np.linspace(r1, r2, n)
    integrand = r ** (d - 1) / (backend.omega * r**d)
    return backend.measure_factor * sphere_area * np.trapezoid(integrand, r)


@pytest.mark.parametrize("field_id,omega", [("R", 2.0), ("C", 2 * math.pi), ("H", 2 * math.pi**2)])
def test_omega_values(field_id, omega):
    assert make_backend(field_id).omega == pytest.approx(omega, rel=1e-15)


def test_omega_forced_by_annulus_oracle():
    # omega is the unique constant giving every annulus measure log(t2/t1)
    rng = np.random.default_rng(11)
    for field_id in ("R", "C", "H"):
        b = make_backend(field_id)
        for _ in range(10):
            t1 = float(rng.uniform(0.1, 2.0))
            t2 = t1 * float(rng.uniform(1.5, 8.0))
            assert quad_annulus(b, t1, t2) == pytest.approx(math.log(t2 / t1), rel=1e-6)


def test_annulus_measure_values():
    lam, z = 7.0, 3.0
    # weight of the cutoff annulus {|z|/lam <= |y| <= lam}: 2 log(lam) - log|z|
    assert annulus_measure(z / lam, lam) == pytest.approx(2 * math.log(lam) - math.log(z))
    assert annulus_measure(5.0, 5.0) == 0.0
    assert annulus_measure(1.0, math.e**2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        annulus_measure(0.0, 1.0)
    with pytest.raises(ValueError):
        annulus_measure(2.0, 1.0)


def test_module_values():
    assert module_of_matrix("H", [1, 0, 0, 0]) == pytest.approx(1.0)
    # 2i: reduced norm 4, module = det of left multiplication = 16
    assert module_of_matrix("H", [0, 2, 0, 0]) == pytest.approx(16.0)
    assert module_of_matrix("R", [-3.0]) == pytest.approx(3.0)
    assert module_of_matrix("C", [3.0, 4.0]) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        module_of_matrix("H", [0, 0, 0, 0])


def test_module_equals_reduced_norm_squared():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.standard_normal(4)
        assert module_of_matrix("H", g) == pytest.approx(float(np.sum(g**2)) ** 2, rel=1e-12)


def quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ]
    )


def test_module_multiplicative_on_random_quaternions():
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = rng.standard_normal(4)
        h = rng.standard_normal(4)
        lhs = module_of_matrix("H", quat_mul(g, h))
        rhs = module_of_matrix("H", g) * module_of_matrix("H", h)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_left_multiplication_consistency():
    # the matrix of left multiplication must reproduce the product itself
    rng = np.random.default_rng(3)
    g = rng.standard_normal(4)
    h = rng.standard_normal(4)
    assert np.allclose(left_multiplication_matrix("H", g) @ h, quat_mul(g, h))


def test_grid_construction(backend_h):
    g = make_grid(backend_h, math.log(10.0), 4)
    assert np.allclose(g.log_t + g.log_t[::-1], 0.0)
    assert g.log_t[0] == pytest.approx(-math.log(10.0))
    # w_add = omega * t * (the trapezoid weights), bit for bit
    assert np.array_equal(g.w_add, backend_h.omega * g.t * mult_weights(g))


def test_grid_annulus_invariant(backend_r):
    g = make_grid(backend_r, math.log(1e3), 1024)
    mask = (g.t >= 1.0) & (g.t <= math.e)
    assert np.sum(mult_weights(g)[mask]) == pytest.approx(1.0, abs=2 * g.step)


def test_grid_reversal_is_involution(backend_r):
    g = make_grid(backend_r, 3.0, 64)
    rev = grid_reversal(g)
    assert np.array_equal(rev[rev], np.arange(g.n))
    assert np.allclose(g.log_t[rev], -g.log_t)


def test_grid_validation(backend_r):
    with pytest.raises(ValueError):
        make_grid(backend_r, -1.0, 64)
    with pytest.raises(ValueError):
        make_grid(backend_r, 1.0, 0)
    with pytest.raises(ValueError):
        make_grid(backend_r, 1.0, 65)  # odd


def test_additive_representative_at_one(backend_h):
    # constant profile 1 becomes 1/sqrt(omega * t) in the additive picture;
    # at t = 1 on the quaternions that value is 1/sqrt(2 pi^2)
    g = make_grid(backend_h, 2.0, 64)
    h = RadialFunction(g, np.ones(g.n))
    ha = to_additive(h)
    assert np.allclose(ha.samples, 1.0 / np.sqrt(backend_h.omega * g.t), rtol=1e-14)
    assert 1.0 / math.sqrt(backend_h.omega * 1.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi**2), rel=1e-15
    )


def test_picture_round_trip(backend_c):
    # divide-then-multiply costs one rounding each way; identity to the ulp
    g = make_grid(backend_c, 2.5, 128)
    rng = np.random.default_rng(23)
    h = RadialFunction(g, rng.standard_normal(g.n))
    back = to_multiplicative(to_additive(h))
    assert np.allclose(back.samples, h.samples, rtol=5e-16, atol=0.0)


def test_picture_change_preserves_norms(backend_h):
    g = make_grid(backend_h, 2.5, 128)
    rng = np.random.default_rng(29)
    h = RadialFunction(g, rng.standard_normal(g.n))
    ha = to_additive(h)
    assert h.norm_mult() == pytest.approx(ha.norm_add(), rel=1e-13)
