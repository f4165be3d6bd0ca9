"""Sphere-averaged additive characters and their multiplicative spectra.

K(u) is the average of the additive character over the sphere of module u;
the two-point kernel of the radial Fourier transform is K(m(x) m(y)).
Closed forms: cos(2 pi u) on R, J0(4 pi sqrt(u)) on C and
J1(4 pi u^(1/4)) / (2 pi u^(1/4)) on the quaternions.

mellin_symbol gives the critical-line multiplicative spectrum
omega * int_0^inf K(v) v^(-1/2 - i nu) dv, which is unimodular for every
field; this is what makes the radial transform unitary.

Both are computed with numpy alone; every series coefficient comes from its
recurrence, and the only constants are seven Bernoulli numbers.  J0 and J1
come from three regimes (Abramowitz & Stegun 9.1.10, 9.1.18, 9.2.5): the
power series up to x = 5, the midpoint rule of Bessel's integral up to
x = 20 (exponentially accurate for a periodic integrand: Trefethen &
Weideman, SIAM Review 56, 2014), and Hankel's asymptotic expansion beyond;
each regime is a mask of the points, its series summed whole by Horner's rule.
The symbol is built as its phase, from one Stirling series of log-gamma
(A&S 6.1.40).
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_MAX = 5.0
_QUADRATURE_MAX = 20.0
_QUADRATURE_NODES = 26
_SERIES_TERMS = 19
# Hankel terms per series, P and Q; enough at x = 20
_HANKEL_TERMS = 13
_LOG_2PI = math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)) for k = 1..7: the Stirling series of log-gamma
_STIRLING = tuple(
    b / (2 * k * (2 * k - 1))
    for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1)
)
# Stirling is applied at z + _SHIFT and carried down by Gamma(z + 1) = z Gamma(z)
_SHIFT = 10


def _horner(coefs: list, z: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] z^k by Horner's rule, top degree first; the coefficients are
    scalars or columns of one stacked evaluation."""
    acc = np.zeros(np.broadcast_shapes(np.shape(coefs[0]), z.shape))
    for c in coefs[::-1]:
        acc *= z
        acc += c
    return acc


def _series_coefs(n: int) -> list:
    """J_n(x) / (x/2)^n = sum_k (-1)^k y^k / (k! (k + n)!), y = x^2 / 4."""
    coefs = [1.0 / math.factorial(n)]
    for k in range(1, _SERIES_TERMS):
        coefs.append(-coefs[-1] / (k * (k + n)))
    return coefs


def _hankel_coefs(n: int) -> list:
    """P and x Q of Hankel's expansion as one stacked series in w = 1/x^2.

    a_k = prod_{j <= k} (4 n^2 - (2j - 1)^2) / (k! 8^k), P = sum_m (-1)^m a_2m w^m,
    x Q = sum_m (-1)^m a_(2m+1) w^m.
    """
    a = [1.0]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * (4 * n * n - (2 * k - 1) ** 2) / (8.0 * k))
    return [(-1) ** m * np.array([[a[2 * m]], [a[2 * m + 1]]]) for m in range(_HANKEL_TERMS)]


_COEFS = {n: (_series_coefs(n), _hankel_coefs(n)) for n in (0, 1)}
# sin of the nodes in [0, pi/2]: the integrand is symmetric about pi/2
_NODE_SIN = np.sin((np.arange(_QUADRATURE_NODES // 2) + 0.5) * math.pi / _QUADRATURE_NODES)


def bessel_ratio(n: int, x) -> np.ndarray:
    """J_n(x) / (x/2)^n for n = 0 or 1 and x >= 0.

    Each regime is a mask of the points, and each value is independent of the others:
      - x <= 5: the power series in (x/2)^2;
      - x <= 20: Bessel's integral (1/pi) int_0^pi cos(n theta - x sin theta) d theta
        by the midpoint rule with 26 nodes, folded onto [0, pi/2];
      - beyond: sqrt(2 / (pi x)) (P cos chi - Q sin chi), chi = x - (2n + 1) pi/4.
        cos and sin of chi come from sin x and cos x, so x is never rounded by a shift.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    series, hankel = _COEFS[n]
    near, far = x <= _SERIES_MAX, x > _QUADRATURE_MAX
    mid = ~(near | far)
    out = np.empty_like(x)
    out[near] = _horner(series, 0.25 * x[near] ** 2)
    xm = x[mid]
    # row sums, not a matrix product, so each value is independent of the other points
    if n == 0:
        out[mid] = np.cos(np.multiply.outer(xm, _NODE_SIN)).sum(axis=1) / (_QUADRATURE_NODES / 2)
    else:
        rows = np.sin(np.multiply.outer(xm, _NODE_SIN)) * _NODE_SIN
        out[mid] = rows.sum(axis=1) / (_QUADRATURE_NODES / 4 * xm)
    xf = x[far]
    p, xq = _horner(hankel, 1.0 / (xf * xf))
    s, c = np.sin(xf), np.cos(xf)
    # sqrt(2) (cos, sin) of x - pi/4; for n = 1, chi is a quarter turn less
    cos_chi, sin_chi = c + s, s - c
    if n == 1:
        cos_chi, sin_chi = sin_chi, -cos_chi
    j = (p * cos_chi - xq / xf * sin_chi) / np.sqrt(math.pi * xf)
    out[far] = j if n == 0 else j / (0.5 * xf)
    return out


def kernel_values(field_id: str, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(u < 0):
        raise ValueError("module products must be nonnegative")
    if field_id == "R":
        out = np.cos(2.0 * np.pi * u)
    elif field_id == "C":
        out = bessel_ratio(0, 4.0 * np.pi * np.sqrt(u))
    elif field_id == "H":
        out = bessel_ratio(1, 4.0 * np.pi * u**0.25)
    else:
        raise ValueError(f"unknown field id {field_id!r}")
    return float(out[0]) if scalar else out


def _gamma_phase(a: float, b) -> np.ndarray:
    """arg Gamma(a + i b) modulo 2 pi, for a > 0.

    Stirling's series at w = z + 10, |w| >= 10, with 7 Bernoulli terms
    (the next is below 1e-16), less the arguments of z, z + 1, ..., z + 9,
    taken as the argument of their product.  At most three complex arrays
    are alive at once.
    """
    b = np.asarray(b, dtype=float)
    z = a + 1j * b
    down = z.copy()
    for k in range(1, _SHIFT):
        down *= z + k
    phase = -np.angle(down)
    del down
    w = z
    w += _SHIFT
    # Im[(w - 1/2) log w - w]
    phase += (a + _SHIFT - 0.5) * np.angle(w) + b * np.log(np.abs(w)) - b
    u = np.reciprocal(w, out=w)
    u2 = u * u
    tail = np.full_like(u, _STIRLING[-1])
    for c in _STIRLING[-2::-1]:
        tail *= u2
        tail += c
    tail *= u
    phase += tail.imag
    return phase


def mellin_symbol(field_id: str, nu) -> np.ndarray:
    """Critical-line Mellin transform of the kernel, exp(i theta(nu)): |value| = 1 by construction.

    With s = 1/2 - i nu, 1 - s = conj(s) and 2 - 2s = conj(2s), so each
    Gamma ratio is exp(2 i arg Gamma):
      - R: 2 (2 pi)^-s Gamma(s) cos(pi s / 2), theta = nu log 2 pi + arg Gamma(s)
        + atan(tanh(pi nu / 2));
      - C: (2 pi)^(1 - 2s) Gamma(s) / Gamma(1 - s), theta = 2 (nu log 2 pi + arg Gamma(s));
      - H: 4 pi^2 (2 pi)^(-4s) Gamma(2s) / Gamma(2 - 2s),
        theta = 2 (2 nu log 2 pi + arg Gamma(2s)).
    """
    scalar = np.ndim(nu) == 0
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if field_id == "R":
        theta = _LOG_2PI * nu + _gamma_phase(0.5, -nu) + np.arctan(np.tanh(0.5 * math.pi * nu))
    elif field_id == "C":
        theta = 2.0 * (_LOG_2PI * nu + _gamma_phase(0.5, -nu))
    elif field_id == "H":
        theta = 2.0 * (2.0 * _LOG_2PI * nu + _gamma_phase(1.0, -2.0 * nu))
    else:
        raise ValueError(f"unknown field id {field_id!r}")
    symbol = 1j * theta
    np.exp(symbol, out=symbol)
    return symbol[0] if scalar else symbol


def scaled_gaussian(field_id: str, a: float, t) -> np.ndarray:
    """Width-a member of the self-dual family: exp(-a * quadratic form)."""
    t = np.asarray(t, dtype=float)
    if field_id == "R":
        return np.exp(-np.pi * a * t**2)
    if field_id == "C":
        return np.exp(-2.0 * np.pi * a * t)
    if field_id == "H":
        return np.exp(-2.0 * np.pi * a * np.sqrt(t))
    raise ValueError(f"unknown field id {field_id!r}")


def selfdual_gaussian(field_id: str, t) -> np.ndarray:
    """The transform-fixed radial profile, as a function of the module."""
    return scaled_gaussian(field_id, 1.0, t)
