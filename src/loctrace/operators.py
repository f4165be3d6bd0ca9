"""The smooth compactly supported test profile f of the trace study.

f lives on the multiplicative module axis; the pipeline samples it on the
log-module grid (transform of the inverted profile, routes A and B) and, on
the log axis (``TestFunction.of_log``), at differences of the signed grid's
logs and of the bad rows' lattice (U_f of route C): a Gaussian over the mollifier's
logistic step, exactly 0 from about R/1420 short of the support's edge R.  The
dense operator algebra the tests check the pipeline against lives in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import RadialGrid


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported profile on the log-module axis.

    f(t) = exp(-(log t - center)^2 / (2 width^2)) * plateau-mollifier, where
    the mollifier equals 1 for |log t| <= support_radius/2 and vanishes
    (smoothly) for |log t| >= support_radius (``of_log``).
    """

    __test__ = False  # not a pytest collection target

    center: float = 0.0
    width: float = 0.25
    support_radius: float = 1.5
    kind: str = "log_gauss_bump"

    def __post_init__(self) -> None:
        if self.kind != "log_gauss_bump":
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.width <= 0 or not self.support_radius / 2 > 0:  # of_log divides by R/2
            raise ValueError("width and support_radius / 2 must be positive")
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
        # of_log is 0 near either edge of the band too: it need not match |log t| < R to the ulp
        t_lo, t_hi = self.support_band()
        band = (t > t_lo) & (t < t_hi)
        out[band] = self.of_log(np.log(t[band]))
        return float(out[0]) if scalar else out

    def of_log(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f(e^x) for an array x: the profile's one formula, also read on the log axis.

        exp(-(x - center)^2 / (2 width^2)) / (1 + e^s), s = 1/(1 - y) - 1/y, y = 2|x|/R - 1
        clipped into [1/700, 1]: the mollifier's step e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}),
        u = 1 - y, as the logistic of one exponent.  Up to |x| = R/2, s is about -699 and
        the step exactly 1; from R on s is +inf, and within about R/1420 short of R e^s
        overflows, so f is exactly 0 there.  The Gaussian runs into ``out`` (a new array by
        default), the step into its two arrays of x's size; |x| is taken before ``out`` is
        written, so ``out`` may be x itself.  NaN stays NaN.
        """
        y = np.abs(x)
        vals = np.subtract(x, self.center, out=out)
        np.square(vals, out=vals)
        vals /= -2.0 * self.width**2
        np.exp(vals, out=vals)
        y /= 0.5 * self.support_radius
        y -= 1.0
        np.clip(y, 1.0 / 700.0, 1.0, out=y)
        s = np.subtract(1.0, y)
        # 1/(1 - y) is inf at y = 1, and e^s overflows to inf near it: the step is 0 there
        with np.errstate(divide="ignore", over="ignore"):
            np.reciprocal(s, out=s)
            s -= np.reciprocal(y, out=y)
            np.exp(s, out=s)
        s += 1.0
        return np.divide(vals, s, out=vals)

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
