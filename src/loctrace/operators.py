"""The smooth compactly supported test profile f of the trace study.

f lives on the multiplicative module axis; the pipeline samples it on the
log-module grid (transform of the inverted profile, routes A and B) and, on
the log axis (``TestFunction.of_log``), at differences of the signed grid's
logs and of the bad rows' lattice (U_f of route C).  The dense operator algebra
the tests check the pipeline against lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import RadialGrid


def _smoothstep(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0 for u <= 0, 1 for u >= 1 and e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}) between.

    One formula on every entry of u clipped into [0, 1], into ``out`` (a new array by
    default, so u is left as it is) and one more array of u's size: at 0 and 1 one of
    the exps is exp(-inf), exactly 0, so the plateaus come out exactly 0 and 1.
    """
    out = np.clip(u, 0.0, 1.0, out=out)
    # -1/u is -inf at u = 0 and below about 5.6e-309, -1/(1-u) at u = 1
    with np.errstate(divide="ignore", over="ignore"):
        a = np.divide(-1.0, out)
        np.exp(a, out=a)
        np.subtract(1.0, out, out=out)
        np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    out += a
    return np.divide(a, out, out=out)


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported profile on the log-module axis.

    f(t) = exp(-(log t - center)^2 / (2 width^2)) * plateau-mollifier, where
    the mollifier equals 1 for |log t| <= support_radius/2 and vanishes
    (smoothly) for |log t| >= support_radius.
    """

    __test__ = False  # not a pytest collection target

    center: float = 0.0
    width: float = 0.25
    support_radius: float = 1.5
    kind: str = "log_gauss_bump"

    def __post_init__(self) -> None:
        if self.kind != "log_gauss_bump":
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.width <= 0 or self.support_radius <= 0:
            raise ValueError("width and support_radius must be positive")
        for name, value in (("width", self.width), ("center", self.center)):
            try:  # the profile divides by width**2 and squares the centre
                square = float(value) ** 2
            except OverflowError:
                raise ValueError(f"{name} {value!r:.60}: its square overflows a float") from None
            if square == 0.0 and name == "width":
                raise ValueError(f"width {value!r}: its square underflows to 0")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        # near either edge of the band the mollifier underflows to 0 too, so
        # the band need not match |log t| < R to the last ulp
        t_lo, t_hi = self.support_band()
        band = (t > t_lo) & (t < t_hi)
        out[band] = self.of_log(np.log(t[band]))
        return float(out[0]) if scalar else out

    def of_log(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f(e^x) for an array x: the profile's one formula, also read on the log axis.

        Exactly 0 wherever |x| >= support_radius (the mollifier's step clips to 0), and
        wherever |x| falls short of it by less than about support_radius / 1500, where the
        step's exp underflows.  The ufuncs of
        exp(-(x - center)^2 / (2 width^2)) * smoothstep(2 (1 - |x| / R)) run in that order
        into ``out`` (a new array by default), and the step's into its two arrays of x's
        size.  |x| is taken before ``out`` is written, so ``out`` may be x itself.
        """
        step = np.abs(x)
        vals = np.subtract(x, self.center, out=out)
        np.square(vals, out=vals)
        np.negative(vals, out=vals)
        vals /= 2.0 * self.width**2
        np.exp(vals, out=vals)
        step /= self.support_radius
        np.subtract(1.0, step, out=step)
        step *= 2.0
        vals *= _smoothstep(step, out=step)
        return vals

    def support_band(self) -> tuple[float, float]:
        """(exp(-R), exp(R)): f(t) is exactly 0 unless exp(-R) < t < exp(R) on the floats;
        an exp(R) beyond the float range is inf, above every float."""
        low = math.exp(-self.support_radius)
        try:
            return low, math.exp(self.support_radius)
        except OverflowError:
            return low, math.inf

    @property
    def value_at_1(self) -> float:
        """Exact analytic evaluation f(1)."""
        return math.exp(-self.center**2 / (2.0 * self.width**2))

    def l1_mult_norm(self, step: float) -> float:
        """Multiplicative L1 norm, quadratured on the integer step lattice."""
        mmax = int(math.floor(self.support_radius / step)) + 1
        m = np.arange(-mmax, mmax + 1)
        return float(np.sum(np.abs(self(np.exp(m * step)))) * step)

    def check_support(self, grid: RadialGrid) -> None:
        if self.support_radius >= grid.log_t_half_range:
            raise ValueError(
                "test-function support exceeds the grid range "
                f"(radius {self.support_radius} vs half-range {grid.log_t_half_range})"
            )
