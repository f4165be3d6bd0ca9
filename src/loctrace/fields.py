"""Normalization backends for the three archimedean division algebras.

Everything downstream hangs off three per-field conventions fixed here:
the module map m(g) = |det of left multiplication by g| on the underlying
euclidean space, the sphere constant omega for which the multiplicative
measure d*g = dg/(omega*m(g)) gives every annulus {t1 <= m <= t2} the
measure log(t2/t1), and the self-dual additive Haar measure
(measure_factor x Lebesgue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FIELD_IDS = ("R", "C", "H")

_EUCLIDEAN_DIM = {"R": 1, "C": 2, "H": 4}
_OMEGA = {"R": 2.0, "C": 2.0 * math.pi, "H": 2.0 * math.pi**2}
_MEASURE_FACTOR = {"R": 1.0, "C": 2.0, "H": 4.0}
# lambda(x) = exp(2*pi*i * character_scale * reduced_trace(x));
# reduced trace is x itself on R and twice the real part on C, H.
_CHARACTER_SCALE = {"R": -1.0, "C": 1.0, "H": 1.0}


@dataclass(frozen=True)
class FieldBackend:
    field_id: str
    euclidean_dim: int
    omega: float
    measure_factor: float
    character_scale: float


def make_backend(field_id: str) -> FieldBackend:
    """Backend for one of the fields "R", "C", "H"."""
    if field_id not in FIELD_IDS:
        raise ValueError(f"unknown field id {field_id!r}; expected one of {FIELD_IDS}")
    return FieldBackend(
        field_id=field_id,
        euclidean_dim=_EUCLIDEAN_DIM[field_id],
        omega=_OMEGA[field_id],
        measure_factor=_MEASURE_FACTOR[field_id],
        character_scale=_CHARACTER_SCALE[field_id],
    )


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid in log-module, symmetric about t = 1.

    Inversion t -> 1/t is the exact index reversal i -> n-1-i.  w_add = omega
    t w, w the trapezoid weights for d*t in log t, quadratures the additive
    measure on the module axis.
    """

    backend: FieldBackend
    n: int
    log_t_half_range: float
    log_t: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    step: float = 0.0
    w_add: np.ndarray = field(repr=False, default=None)


def make_grid(backend: FieldBackend, log_t_half_range: float, n: int) -> RadialGrid:
    if log_t_half_range <= 0:
        raise ValueError("log_t_half_range must be positive")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    L = float(log_t_half_range)
    h = 2.0 * L / (n - 1)
    log_t = -L + h * np.arange(n)
    t = np.exp(log_t)
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    w_add = backend.omega * t * w
    return RadialGrid(
        backend=backend,
        n=n,
        log_t_half_range=L,
        log_t=log_t,
        t=t,
        step=h,
        w_add=w_add,
    )
