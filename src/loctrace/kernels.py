"""Sphere-averaged additive characters and their multiplicative spectra.

K(u) is the average of the additive character over the sphere of module u;
the two-point kernel of the radial Fourier transform is K(m(x) m(y)).
Closed forms: cos(2 pi u) on R, J0(4 pi sqrt(u)) on C and
J1(4 pi u^(1/4)) / (2 pi u^(1/4)) on the quaternions.

mellin_symbol gives the critical-line multiplicative spectrum
omega * int_0^inf K(v) v^(-1/2 - i nu) dv, which is unimodular for every
field; this is what makes the radial transform unitary.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1, loggamma

from .fields import FieldBackend


def kernel_values(field_id: str, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(u < 0):
        raise ValueError("module products must be nonnegative")
    if field_id == "R":
        out = np.cos(2.0 * np.pi * u)
    elif field_id == "C":
        out = j0(4.0 * np.pi * np.sqrt(u))
    elif field_id == "H":
        r = u**0.25
        out = np.ones_like(r)
        nz = r > 1e-12
        out[nz] = j1(4.0 * np.pi * r[nz]) / (2.0 * np.pi * r[nz])
    else:
        raise ValueError(f"unknown field id {field_id!r}")
    return float(out[0]) if scalar else out


def mellin_symbol(field_id: str, nu) -> np.ndarray:
    """Critical-line Mellin transform of the kernel, |value| = 1 identically."""
    s = 0.5 - 1j * np.asarray(nu, dtype=complex)
    if field_id == "R":
        z = np.pi * s / 2.0
        iz = 1j * z
        m = np.maximum(iz.real, (-iz).real)
        logcos = m + np.log(np.exp(iz - m) + np.exp(-iz - m)) - math.log(2.0)
        return np.exp(math.log(2.0) - s * math.log(2.0 * math.pi) + loggamma(s) + logcos)
    if field_id == "C":
        return np.exp(
            math.log(2.0 * math.pi) * (1.0 - 2.0 * s) + loggamma(s) - loggamma(1.0 - s)
        )
    if field_id == "H":
        return np.exp(
            math.log(4.0 * math.pi**2)
            - 4.0 * s * math.log(2.0 * math.pi)
            + loggamma(2.0 * s)
            - loggamma(2.0 - 2.0 * s)
        )
    raise ValueError(f"unknown field id {field_id!r}")


def sphere_average_mc(backend: FieldBackend, u: float, n_samples: int, seed: int) -> float:
    """Monte-Carlo sphere average of the character at module u (test oracle).

    Samples points uniformly on the unit euclidean sphere and averages
    cos(2 pi * character_scale * reduced_trace(radius * sigma)).
    """
    rng = np.random.default_rng(seed)
    d = backend.euclidean_dim
    radius = u ** (1.0 / d)
    pts = rng.standard_normal((n_samples, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if d == 1:
        tr = pts[:, 0] * radius
    else:
        tr = 2.0 * pts[:, 0] * radius  # reduced trace = twice the real part
    return float(np.mean(np.cos(2.0 * np.pi * backend.character_scale * tr)))


def selfdual_gaussian(field_id: str, t) -> np.ndarray:
    """The transform-fixed radial profile, as a function of the module."""
    t = np.asarray(t, dtype=float)
    if field_id == "R":
        return np.exp(-np.pi * t**2)
    if field_id == "C":
        return np.exp(-2.0 * np.pi * t)
    if field_id == "H":
        return np.exp(-2.0 * np.pi * np.sqrt(t))
    raise ValueError(f"unknown field id {field_id!r}")


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


def scaled_gaussian_transform(field_id: str, a: float, t) -> np.ndarray:
    """Closed-form radial Fourier transform of scaled_gaussian."""
    t = np.asarray(t, dtype=float)
    if field_id == "R":
        return a**-0.5 * np.exp(-np.pi * t**2 / a)
    if field_id == "C":
        return (1.0 / a) * np.exp(-2.0 * np.pi * t / a)
    if field_id == "H":
        return a**-2.0 * np.exp(-2.0 * np.pi * np.sqrt(t) / a)
    raise ValueError(f"unknown field id {field_id!r}")
