"""The radial Fourier transform as a dense operator on a log-module grid.

The n x n matrix is the exact multiplicative-spectrum realization of the
two-point kernel K(m(x) m(y)) against the additive measure: a Hankel matrix
(constant along antidiagonals) diagonalized by the discrete log-Fourier basis
with the unimodular critical-line symbol of the kernel.  It is symmetric,
exactly involutive and exactly unitary in the weighted inner product, so the
inverse transform coincides with the weighted conjugate transpose.
Certification reads the involution defect off the generator's spectrum:
S[i, j] = hankel[(i + j) mod n] is a circulant times the index reversal, so
S^2 is circulant with eigenvalues lam_k lam_{-k}, lam = fft(hankel).

Applying the transform to sampled profiles goes through a padded log-lattice
(4n points) with a two-term power-law continuation of the profile below the
grid floor; that is what keeps profiles with phi(0) != 0 accurate to the
grid's certified tolerance, and it also evaluates the transform on the
"product lattice" (log t = -2L + p h) where products of grid points live.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldBackend, RadialGrid
from .kernels import mellin_symbol, scaled_gaussian, selfdual_gaussian

log = logging.getLogger("loctrace")

# subleading power of a smooth radial profile at module 0: phi ~ a + b t^kappa
_KAPPA = {"R": 2.0, "C": 1.0, "H": 0.5}

DEFECT_THRESHOLDS = {"R": 1e-6, "C": 1e-4, "H": 1e-3}


class FourierBuildError(RuntimeError):
    """Raised when the grid cannot certify the transform to its threshold."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


@dataclass
class ProductLattice:
    """Lattice of log-products of grid points: log t = -2L + p*h, p = 0..2n-2."""

    log_t: np.ndarray
    t: np.ndarray
    step: float

    def index_of_log(self, x: float) -> int:
        k = (x - self.log_t[0]) / self.step
        ki = int(round(k))
        if abs(k - ki) > 1e-8 or not (0 <= ki < len(self.log_t)):
            raise ValueError(f"log value {x} not on the product lattice")
        return ki


class FourierOperator:
    """Radial Fourier transform bound to one grid."""

    def __init__(self, backend: FieldBackend, grid: RadialGrid):
        self.backend = backend
        self.grid = grid
        n, h, L = grid.n, grid.step, grid.log_t_half_range
        nu = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        D = mellin_symbol(backend.field_id, -nu) * np.exp(2j * nu * L)
        # Nyquist mode snapped to +-1: keeps the matrix real, |D| = 1 and D*D_refl = 1
        D[n // 2] = 1.0 if D[n // 2].real >= 0 else -1.0
        c = np.fft.fft(D) / n
        # Hankel generator: entry (i, j) of the symmetrized matrix is hankel[(i + j) % n]
        self.hankel = np.real(c)
        # padded evaluation lattice: left pad 2n (power-law continuation), right pad n
        self._Bl = 2 * n
        self._Np = 4 * n
        self._Xi0 = -L - self._Bl * h
        nup = 2.0 * np.pi * np.fft.fftfreq(self._Np, d=h)
        khp = mellin_symbol(backend.field_id, -nup)
        khp[self._Np // 2] = 0.0
        self._nup = nup
        self._khp = khp
        p = np.arange(2 * n - 1)
        self.product_lattice = ProductLattice(
            log_t=-2.0 * L + h * p, t=np.exp(-2.0 * L + h * p), step=h
        )
        self._matrix = None
        self.unitarity_defect = None
        self.defects: dict[str, float] = {}

    # -- the dense operator ------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """Additive-picture action matrix: (F phi)_i = sum_j matrix[i,j] phi_j.

        matrix[i][j] / w_add[j] depends on t_i * t_j only (exact Hankel
        product-dependence away from the half-weighted endpoints).
        """
        if self._matrix is None:
            n = self.grid.n
            idx = (np.add.outer(np.arange(n), np.arange(n))) % n
            sym = self.hankel[idx]
            r = np.sqrt(self.grid.backend.omega * self.grid.t)
            self._matrix = sym * (r[None, :] / r[:, None])
        return self._matrix

    # -- applying the transform to sampled profiles -------------------------

    def _padded_spectrum(self, phi: np.ndarray) -> np.ndarray:
        g = self.grid
        kap = _KAPPA[self.backend.field_id]
        t0, t1 = g.t[0], g.t[1]
        ph0, ph1 = float(phi[0]), float(phi[1])
        if ph0 == 0.0 and ph1 == 0.0:
            alpha = beta = 0.0
        else:
            beta = (ph1 - ph0) / (t1**kap - t0**kap)
            alpha = ph0 - beta * t0**kap
        up = np.zeros(self._Np)
        xl = self._Xi0 + g.step * np.arange(self._Bl)
        tl = np.exp(xl)
        up[: self._Bl] = np.sqrt(self.backend.omega * tl) * (alpha + beta * tl**kap)
        up[self._Bl : self._Bl + g.n] = np.sqrt(self.backend.omega * g.t) * phi
        return np.fft.fft(up)

    def _evaluate(self, spectrum: np.ndarray, xi_start: float, count: int) -> np.ndarray:
        b = spectrum * self._khp / self._Np
        shift = np.exp(-1j * self._nup * (xi_start + self._Xi0))
        return np.real(np.fft.fft(b * shift))[:count]

    def apply(self, phi) -> np.ndarray:
        """Transform additive-picture samples, returned on the same grid."""
        phi = np.asarray(phi, dtype=float)
        spec = self._padded_spectrum(phi)
        v = self._evaluate(spec, float(self.grid.log_t[0]), self.grid.n)
        return v / np.sqrt(self.backend.omega * self.grid.t)

    def apply_product_lattice(self, phi) -> np.ndarray:
        """Transform evaluated on the product lattice (2n-1 points)."""
        phi = np.asarray(phi, dtype=float)
        spec = self._padded_spectrum(phi)
        pl = self.product_lattice
        v = self._evaluate(spec, float(pl.log_t[0]), len(pl.log_t))
        return v / np.sqrt(self.backend.omega * pl.t)

    # -- certification -------------------------------------------------------

    def _probe_profiles(self) -> dict[str, np.ndarray]:
        t = self.grid.t
        fid = self.backend.field_id
        probes = {
            "selfdual": selfdual_gaussian(fid, t),
            "gauss_1.5": scaled_gaussian(fid, 1.5, t),
            "gauss_2.5": scaled_gaussian(fid, 2.5, t),
        }
        if self.grid.log_t_half_range >= 2.5:
            # compactly supported probe with realistic log-frequency content
            from .operators import TestFunction

            probes["bump"] = TestFunction(width=0.25, support_radius=1.5)(t)
        return probes

    def spectral_defect(self) -> float:
        """||S^2 - I||_F / sqrt(n) of the symmetrized matrix, from its spectrum.

        S^2 is circulant with eigenvalues lam_k lam_{-k} (lam = fft(hankel)),
        so by Parseval the Frobenius defect is the RMS of |lam_k lam_{-k} - 1|.
        S is real and symmetric by construction.
        """
        lam = np.fft.fft(self.hankel)
        lam_neg = np.roll(lam[::-1], 1)  # lam_{-k mod n}
        return float(np.sqrt(np.mean(np.abs(lam * lam_neg - 1.0) ** 2)))

    def measure_defect(self) -> float:
        """Recorded involution defect: the largest entry of ``self.defects``.

        ``self.defects`` holds the spectral defect of the matrix and, per
        analytic probe, the involution error ||F(F phi) - phi||_W / ||phi||_W
        of the padded pipeline (the transform squares to the identity on
        radial profiles).
        """
        self.defects = {"spectral": self.spectral_defect()}
        w = self.grid.w_add
        for name, p in self._probe_profiles().items():
            norm = np.sqrt(np.sum(w * p**2))
            err = np.sqrt(np.sum(w * (self.apply(self.apply(p)) - p) ** 2))
            # a probe that vanishes on the grid certifies nothing (not a NaN that max() skips)
            self.defects[name] = float(err / norm) if norm > 0 else np.inf
        return max(self.defects.values())


def build_fourier(
    backend: FieldBackend, grid: RadialGrid, defect_threshold: float | None = None
) -> FourierOperator:
    """Construct and certify the radial transform for (backend, grid)."""
    if grid.backend.field_id != backend.field_id:
        raise ValueError("grid was built for a different backend")
    op = FourierOperator(backend, grid)
    threshold = (
        defect_threshold
        if defect_threshold is not None
        else DEFECT_THRESHOLDS[backend.field_id]
    )
    start = time.perf_counter()
    defect = op.measure_defect()
    op.unitarity_defect = defect
    log.info(
        "certification: field=%s n=%d %s threshold=%.1e duration_s=%.4f",
        backend.field_id,
        grid.n,
        " ".join(f"{name}={d:.3e}" for name, d in op.defects.items()),
        threshold,
        time.perf_counter() - start,
    )
    if defect > threshold:
        raise FourierBuildError(
            f"unitarity defect {defect:.3e} exceeds threshold {threshold:.3e} "
            f"(grid too coarse or too narrow for field {backend.field_id})",
            defect,
        )
    return op


# ---------------------------------------------------------------------------
# full-line transform on a signed grid (R backend only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedGrid:
    """Uniform symmetric grid on the real line with half-integer offsets.

    step = 1/sqrt(n) makes the discrete Fourier matrix exactly unitary and
    its square exactly the reflection permutation; no grid point sits at 0.
    """

    n: int
    step: float
    x: np.ndarray = field(repr=False)

    @property
    def extent(self) -> float:
        return float(self.x[-1])


def make_signed_grid(n: int) -> SignedGrid:
    if n < 2 or n % 2 != 0:
        raise ValueError("signed grid needs an even n >= 2")
    step = 1.0 / np.sqrt(n)
    x = (np.arange(n) - (n - 1) / 2.0) * step
    return SignedGrid(n=n, step=step, x=x)


def cutoff_block(x: np.ndarray, lam: float) -> np.ndarray:
    """Indices of the closed cutoff |x| <= lam (relative slack 1e-12 for boundary points)."""
    return np.flatnonzero(np.abs(x) <= lam * (1.0 + 1e-12))


class FullLineFourier:
    """The e^{-2 pi i x y} transform on a SignedGrid (field R) and its even-sector columns.

    The full n x n matrix is a DFT conjugated by diagonal phases: with
    c = (n-1)/2 and ph_j = e^{2 pi i c j/n},
    F = step e^{-2 pi i c^2/n} diag(ph) DFT diag(ph), which ``apply`` evaluates
    by one FFT.  On even vectors F acts through its cosine part: on the
    positive half-grid x_j = (2j+1) / (2 sqrt(n)) it is the real matrix
    C[j, k] = 2 step cos(2 pi x_j x_k), the orthonormal DCT-IV of size n/2 and
    its own inverse.  ``block`` holds the positions j of the positive half-grid
    with x_j <= max_lambda (all n/2 of them when max_lambda is None), and
    ``matrix`` the columns C[:, block], (n/2) x |block|.  ``certify`` checks the
    FFT form for unitarity and the cosine columns against it.
    """

    def __init__(self, sgrid: SignedGrid, max_lambda: float | None = None):
        self.grid = sgrid
        n = sgrid.n
        half = n // 2
        if max_lambda is None:
            self.block = np.arange(half)
        else:
            self.block = cutoff_block(sgrid.x[half:], max_lambda)
        # x_j x_k = (2j+1)(2k+1) / 4n, reduced mod 1 exactly in integers
        odd = 2 * np.arange(half) + 1
        phase = np.outer(odd, odd[self.block]) % (4 * n)
        self.matrix = 2.0 * sgrid.step * np.cos(phase * (2.0 * np.pi / (4 * n)))
        # phases reduced exactly in integers: c j / n = (n-1) j / 2n, c^2 / n = (n-1)^2 / 4n
        j = np.arange(n)
        self._phase = np.exp(1j * np.pi * (((n - 1) * j) % (2 * n)) / n)
        self._scale = sgrid.step * np.exp(-2j * np.pi * (((n - 1) ** 2) % (4 * n)) / (4 * n))
        self.unitarity_defect = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """F v for the full n x n matrix, in O(n log n)."""
        return self._scale * self._phase * np.fft.fft(self._phase * v)

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """F^H v; F is symmetric, so F^H v = conj(F conj(v))."""
        return np.conj(self.apply(np.conj(v)))

    def measure_defect(self) -> float:
        """Larger of the FFT form's unitarity defect and the cosine columns' gap to it.

        Unitarity: max |F F^H v - v| / max |v| on three seeded Gaussian
        probes.  Columns: max |C[:, block] u - (F v)[n/2:]| on three seeded
        probes with unimodular entries u on the block, v holding u mirrored
        onto both signs, so a single cosine entry off by eps moves every probe
        by eps.
        """
        n = self.grid.n
        half = n // 2
        rng = np.random.default_rng(1234)
        defect = 0.0
        for _ in range(3):
            v = rng.standard_normal(n)
            uv = self.apply(self.apply_adjoint(v))
            defect = max(defect, float(np.abs(uv - v).max() / np.abs(v).max()))
        for _ in range(3):
            u = np.exp(2j * np.pi * rng.random(len(self.block)))
            v = np.zeros(n, dtype=complex)
            v[half + self.block] = u
            v[half - 1 - self.block] = u
            defect = max(defect, float(np.abs(self.matrix @ u - self.apply(v)[half:]).max()))
        return defect

    def certify(self, defect_threshold: float = 1e-10) -> "FullLineFourier":
        """Record the defect; FourierBuildError when it exceeds the threshold."""
        self.unitarity_defect = self.measure_defect()
        if self.unitarity_defect > defect_threshold:
            raise FourierBuildError(
                f"signed-grid unitarity defect {self.unitarity_defect:.3e} exceeds "
                f"{defect_threshold:.3e}",
                self.unitarity_defect,
            )
        return self


def full_line_fourier(
    sgrid: SignedGrid, max_lambda: float | None = None, defect_threshold: float = 1e-10
) -> FullLineFourier:
    """Certified cosine columns C[:, 0 < x <= max_lambda] of the signed-grid transform."""
    return FullLineFourier(sgrid, max_lambda).certify(defect_threshold)
