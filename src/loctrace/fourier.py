"""The radial Fourier transform on a log-module grid, for the grid's field.

FourierOperator applies the critical-line Mellin multiplier of the kernel
K(m(x) m(y)) to sampled profiles, on the grid and on the "product lattice"
(log t = -2L + p h) where products of grid points live, through a padded
log-lattice (4n points).  A two-term power-law continuation of the profile
below the grid floor keeps profiles with phi(0) != 0 accurate to the grid's
certified tolerance; it is the line through the first two samples in
t^kappa, phi0 + (phi1 - phi0) S with S a shape in (-1, 0] taken once per
transform by ``expm1``, so it stays in the floats on every grid below
LOG_T_LIMIT, the one bound ``validate_config`` holds every field to.  Only
the test oracles form the dense matrix.

The samples and the kernel are real, so every spectrum is Hermitian: the
symbol is evaluated for nu >= 0 only, every FFT is an ``rfft``/``irfft``, and
the kernels of the two evaluation lattices are built once per transform.

Both transforms, this one and route C's FullLineFourier (the even sector of
the n-point signed grid, a DCT-IV on the points ``signed_point(n, j)``), are
certified by one step, ``certify``: measure the defects of what the transform
applies, record the largest, log, refuse.
``log_stage`` is the one stage timer.
"""

from __future__ import annotations

import logging
import math
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.fft on first attribute access; importing it here keeps
# that load out of the first transform.  numpy.random is not loaded at all:
# with the hashlib that its seeding pulls in it costs 6 MB of peak RSS and
# 15 ms of import, and the few seeded draws here come from the stdlib's
# Mersenne Twister instead (``random_signs``, ``standard_normals``)
import numpy.fft  # noqa: F401

from .fields import RadialGrid
from .kernels import mellin_symbol, scaled_gaussian, selfdual_gaussian
from .operators import TestFunction

log = logging.getLogger("loctrace")

# glibc maps every block of at least its mmap threshold (128 KiB at start)
# afresh, and only raises the threshold to the size of a mapped block once it
# is freed.  Route C's chunk temporaries (CHUNK_ENTRIES floats, exactly 128 KiB)
# and the 4n-point arrays of a transform with n = 4096 sit at that size: without
# this line a warm default R sweep faulted in 630-1270 pages per sweep (330 with
# half-size chunks) and the H-asymptotic sweep 160-190, against 0 with it.  One
# untouched 4 MiB block, freed here, raises the threshold once; other
# allocators ignore it.
np.empty(1 << 19)

DEFECT_THRESHOLDS = {"R": 1e-6, "C": 1e-4, "H": 1e-3}
# the signed-grid transform is an FFT between two phase tables: its defect is rounding only
SIGNED_DEFECT_THRESHOLD = 1e-10


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


class FourierOperator:
    """Radial Fourier transform bound to one grid, for the grid's field.

    Every spectrum here is Hermitian: the samples are real and the symbol
    obeys symbol(-nu) = conj(symbol(nu)), the Mellin transform of a real
    kernel.  So the symbol is evaluated on the nu >= 0 half only
    (``rfftfreq``), and every transform is an ``rfft``/``irfft`` pair
    (Sorensen, Jones, Heideman & Burrus, IEEE Trans. ASSP 35, 1987).  The
    two evaluation lattices of the padded pipeline, the grid and the product
    lattice, each get one kernel built here, the symbol times the phase of
    the lattice's start, so an evaluation is one ``rfft`` and one ``irfft``.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        n, h, L = grid.n, grid.step, grid.log_t_half_range
        fid = grid.backend.field_id
        # padded evaluation lattice: left pad 2n (power-law continuation), right pad n
        self._Bl = 2 * n
        self._Np = 4 * n
        self._Xi0 = -L - self._Bl * h
        # subleading power of a smooth radial profile at module 0: it is a + b |x|^2
        # and t = |x|^d (d the euclidean dimension), so phi ~ a + b t^kappa, kappa = 2/d
        kappa = 2.0 / grid.backend.euclidean_dim
        # the left pad's sqrt(omega t), and the shape S of the power-law continuation
        # phi0 + (phi1 - phi0) S: S = ((t/t0)^kappa - 1) / ((t1/t0)^kappa - 1), in (-1, 0],
        # from expm1 of the pad's log-distances to the floor, so no power leaves the floats
        tl = np.exp(self._Xi0 + h * np.arange(self._Bl))
        self._pad_root = np.sqrt(grid.backend.omega * tl)
        self._pad_shape = np.arange(self._Bl, 0.0, -1.0)  # Bl - j, the pad's steps to the floor
        self._pad_shape *= -kappa * h
        np.expm1(self._pad_shape, out=self._pad_shape)
        self._pad_shape /= math.expm1(kappa * h)
        nup = 2.0 * np.pi * np.fft.rfftfreq(self._Np, d=h)
        khp = mellin_symbol(fid, -nup)
        khp[-1] = 0.0
        p = np.arange(2 * n - 1)
        self.product_lattice = ProductLattice(
            log_t=-2.0 * L + h * p, t=np.exp(-2.0 * L + h * p), step=h
        )
        # real(fft(b)) = irfft(conj(b)) * Np for a Hermitian b: the 1/Np cancels
        self._grid_kernel = np.conj(khp * np.exp(-1j * nup * (grid.log_t[0] + self._Xi0)))
        self._product_kernel = np.conj(
            khp * np.exp(-1j * nup * (self.product_lattice.log_t[0] + self._Xi0))
        )
        self.unitarity_defect = None
        self.defects: dict[str, float] = {}

    # -- applying the transform to sampled profiles -------------------------

    def _padded_spectrum(self, phi: np.ndarray) -> np.ndarray:
        """Conjugated half spectrum of the padded additive-picture samples."""
        g = self.grid
        ph0, ph1 = float(phi[0]), float(phi[1])
        up = np.zeros(self._Np)
        up[: self._Bl] = self._pad_root * (ph0 + (ph1 - ph0) * self._pad_shape)
        up[self._Bl : self._Bl + g.n] = np.sqrt(g.backend.omega * g.t) * phi
        return np.conj(np.fft.rfft(up))

    def _evaluate(self, spectrum: np.ndarray, kernel: np.ndarray, count: int) -> np.ndarray:
        return np.fft.irfft(spectrum * kernel, self._Np)[:count]

    def apply(self, phi) -> np.ndarray:
        """Transform additive-picture samples, returned on the same grid."""
        phi = np.asarray(phi, dtype=float)
        v = self._evaluate(self._padded_spectrum(phi), self._grid_kernel, self.grid.n)
        return v / np.sqrt(self.grid.backend.omega * self.grid.t)

    def apply_product_lattice(self, phi) -> np.ndarray:
        """Transform evaluated on the product lattice (2n-1 points)."""
        phi = np.asarray(phi, dtype=float)
        pl = self.product_lattice
        v = self._evaluate(self._padded_spectrum(phi), self._product_kernel, len(pl.log_t))
        return v / np.sqrt(self.grid.backend.omega * pl.t)

    # -- certification -------------------------------------------------------

    def _probe_profiles(self) -> dict[str, np.ndarray]:
        t = self.grid.t
        fid = self.grid.backend.field_id
        probes = {
            "selfdual": selfdual_gaussian(fid, t),
            "gauss_1.5": scaled_gaussian(fid, 1.5, t),
            "gauss_2.5": scaled_gaussian(fid, 2.5, t),
        }
        if self.grid.log_t_half_range >= 2.5:
            # compactly supported probe with realistic log-frequency content
            probes["bump"] = TestFunction(width=0.25, support_radius=1.5)(t)
        return probes

    def measure_defect(self) -> float:
        """Recorded involution defect: the largest entry of ``self.defects``, NaN if any is.

        ``self.defects`` holds, per analytic probe, the involution error
        ||F(F phi) - phi||_W / ||phi||_W of the padded pipeline that ``apply``
        runs (the transform squares to the identity on radial profiles).
        """
        self.defects = {}
        w = self.grid.w_add
        for name, p in self._probe_profiles().items():
            norm = np.sqrt(np.sum(w * p**2))
            err = np.sqrt(np.sum(w * (self.apply(self.apply(p)) - p) ** 2))
            # a probe that vanishes on the grid certifies nothing
            self.defects[name] = float(err / norm) if norm > 0 else np.inf
        return float(np.max(list(self.defects.values())))


def random_signs(rng: random.Random, count: int) -> np.ndarray:
    """``count`` entries +-1, one bit of ``rng.randbytes`` each."""
    bits = np.frombuffer(rng.randbytes((count + 7) // 8), dtype=np.uint8)
    return 1.0 - 2.0 * np.unpackbits(bits, count=count, bitorder="little")


def standard_normals(rng: random.Random, count: int) -> np.ndarray:
    """``count`` standard normal draws by the Box-Muller transform (Box & Muller,
    Ann. Math. Statist. 29, 1958) of uniforms (k + 1/2) 2^-53 in (0, 1), k the top
    53 bits of each 8 bytes of ``rng.randbytes``: one pair of uniforms, two normals."""
    pairs = (count + 1) // 2
    u = (np.frombuffer(rng.randbytes(16 * pairs), dtype="<u8") >> np.uint64(11)) + 0.5
    u *= 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:pairs]))
    angle = 2.0 * np.pi * u[pairs:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


def log_stage(start: float, message: str, *args) -> None:
    """One INFO line for a stage, ``message % args`` and its duration_s since ``start``,
    logged from the caller's frame so the record names the stage's module."""
    log.info(message + " duration_s=%.6f", *args, time.perf_counter() - start, stacklevel=2)


def certify(op, threshold: float, what: str):
    """Measure the defects of what ``op`` applies, record the largest as
    ``op.unitarity_defect``, log them under ``what`` (the transform's name) and return
    ``op``; FourierBuildError unless the defect is at most ``threshold`` (so NaN fails)."""
    start = time.perf_counter()
    op.unitarity_defect = defect = op.measure_defect()
    defects = " ".join(f"{name}={d:.3e}" for name, d in op.defects.items())
    log_stage(start, "certification: %s %s threshold=%.1e", what, defects, threshold)
    if not defect <= threshold:
        raise FourierBuildError(
            f"unitarity defect {defect:.3e} exceeds threshold {threshold:.3e} ({what}: {defects})",
            defect,
        )
    return op


def build_fourier(grid: RadialGrid) -> FourierOperator:
    """Construct the radial transform on ``grid`` and certify it to its field's threshold."""
    field_id = grid.backend.field_id
    return certify(FourierOperator(grid), DEFECT_THRESHOLDS[field_id], f"field={field_id} n={grid.n}")


# bytes per grid point at the peak of build_fourier and a TraceComputation on
# its transform: every array there has n to 4n entries.  The ru_maxrss rise on
# field R (C and H are lower) was 391 n at n = 2**16 and 388 n at n = 2**18,
# a slope of 387 bytes per point and an offset of 0.27 MB
FOURIER_BYTES_PER_POINT = 400


def fourier_bytes(n: int) -> int:
    """Peak bytes of build_fourier on an n-point grid plus a TraceComputation on it."""
    return FOURIER_BYTES_PER_POINT * n


# the most memory a grid transform (``fourier_bytes``) or a route C plan may need
BYTES_BUDGET = 2 * 2**30


def check_bytes(need: int, what: str, error: type = ValueError) -> None:
    """``error`` naming ``what`` when ``need`` bytes exceed BYTES_BUDGET, in integer GiB:
    the need of a 300-digit n is beyond the float range."""
    if need > BYTES_BUDGET:
        raise error(f"{what} needs at least {need // 2**30} GiB, above the {BYTES_BUDGET // 2**30} GiB budget")


# the log_t_half_range L from which a sweep's largest number leaves the floats: the
# product lattice reaches t = e^{2L}, where field C's kernel squares its Bessel argument
# 4 pi sqrt(t) (``kernels.kernel_values``), 16 pi^2 e^{2L}; every other array stays below it
LOG_T_LIMIT = (math.log(np.finfo(float).max) - math.log(16.0 * math.pi**2)) / 2.0


# ---------------------------------------------------------------------------
# full-line transform on a signed grid (R backend only)
# ---------------------------------------------------------------------------


def check_signed_n(n: int) -> None:
    """ValueError unless n is even and at least 2: the sizes of a signed grid."""
    if n < 2 or n % 2 != 0:
        raise ValueError("signed grid needs an even n >= 2")


def signed_point(n: int, j):
    """x_j = (j + 1/2) (1/sqrt(n)) on the positive half of the n-point signed grid (j an index
    or an array): route C's points, so its plan counts the lab's own floats."""
    return (j + 0.5) * (1.0 / math.sqrt(n))


# entries per row chunk while route C fills its panels of U_e and the bad rows'
# quadrature: every temporary of a fill holds at most this many entries, or one
# row if longer.  At 2**14 floats a temporary is glibc's starting mmap threshold,
# so it stays off mmap only because the threshold was raised at import (above)
CHUNK_ENTRIES = 2**14

# rows of U_e per panel in route C, each evaluated over its own band of columns.
# At n_signed=4096, max_lambda=8 (2 cores, medians of 15 interleaved labs, two
# runs) filling the panels took 14.8-15.1 ms at 16, 32 and 64 rows alike, three
# traces 2.3, 1.9 and 1.8-1.9 ms, cyclicity 3.2-3.3, 2.1 and 2.2 ms, over 567k,
# 584k and 615k entries.  The kernel trace sums by panel: another value moves
# t_route_C's bits
PANEL_ROWS = 32


def row_chunks(rows: int, cols: int) -> Iterator[slice]:
    """Row slices covering a rows x cols array, CHUNK_ENTRIES entries (at least one row) each.

    Yielded one at a time, so stepping through them holds no list that grows with ``rows``.
    """
    step = max(1, CHUNK_ENTRIES // max(cols, 1))
    for r in range(0, rows, step):
        yield slice(r, min(r + step, rows))


def kernel_fft_length(n: int, cols: int) -> int:
    """Length of the kernel check's cyclic FFT correlation: the least power of two
    that holds the n/2 + 2 cols - 1 kernel values.  The correlation with the 2 cols
    probe entries then wraps only onto its first 2 cols - 1 entries, which the
    check drops."""
    return 1 << (n // 2 + 2 * cols - 2).bit_length()


class FullLineFourier:
    """The e^{-2 pi i x y} transform on the n-point signed grid (field R), step 1/sqrt(n),
    in the even sector route C traces.

    On even vectors the full-line transform acts through its cosine part: on
    the positive half-grid x_j = (2j+1) / (2 sqrt(n)) it is the real matrix
    C[j, k] = 2 step cos(2 pi x_j x_k), the orthonormal DCT-IV of size n/2 and
    its own inverse.  Since 2 pi x_j x_k = 2 pi (2j+1)(2k+1) / 4n, every entry
    is one of the 4n values of a cosine table indexed by (2j+1)(2k+1) mod 4n
    (``cosines``), so C is exactly symmetric; no block of it is held.
    ``apply`` evaluates C x by one n-point FFT of x zero-padded, between two
    phase tables of n/2 entries: (2j+1)(2k+1) / 4n = jk/n + (2j+1)/4n + k/2n,
    so C x = 2 step Re(e^{i pi (2j+1)/2n} sum_k x_k e^{i pi k/n} e^{2 pi i jk/n}).

    Two cosine factors cut to the first k columns sum in closed form to the
    Dirichlet kernel (Zygmund, *Trigonometric Series*, 1959, ch. II):
    sum_{u<k} C[l, u] C[u, j] = K_k(l + j + 1) + K_k(l - j), with
    K_k(m) = 2 step^2 D_k(m), D_k(m) = sin(2 pi k m / n) / (2 sin(pi m / n))
    and D_k(0) = k (``dirichlet``).  ``measure_defect`` checks ``apply`` for
    C C = I and the kernel of the first ``cols`` columns against it.
    """

    def __init__(self, n: int, cols: int):
        check_signed_n(n)
        self.n = n
        self.step = 1.0 / math.sqrt(n)
        self.cols = cols
        # x_j x_k = (2j+1)(2k+1) / 4n, reduced mod 1 exactly in integers: C takes
        # only the 4n values of one cosine table
        self.table = 2.0 * self.step * np.cos(np.arange(4 * n) * (2.0 * np.pi / (4 * n)))
        # sin(pi q / n) for q = 0..2n-1, each from its argument in [0, pi/2] and
        # the table's symmetries, so a value near pi keeps its relative accuracy
        quarter = np.sin(np.arange(n // 2 + 1) * (np.pi / n))
        upper = np.concatenate([quarter, quarter[-2:0:-1]])
        self._sine = np.concatenate([upper, -upper])
        # the FFT's input and output twiddles, conjugated for numpy's e^{-2 pi i jk/n}
        # (x is real, so Re(z) = Re(conj(z))); every angle lies in [0, pi/2)
        j = np.arange(n // 2)
        self._twiddle_in = np.exp(-1j * np.pi / n * j)
        self._twiddle_out = 2.0 * self.step * np.exp(-1j * np.pi / (2 * n) * (2 * j + 1))
        self.unitarity_defect = None
        self.defects: dict[str, float] = {}

    def cosines(self, rows: slice, cols: slice) -> np.ndarray:
        """C[rows, cols] from the cosine table; C[cols, rows] is its exact transpose."""
        odd_rows = 2 * np.arange(rows.start, rows.stop) + 1
        odd_cols = 2 * np.arange(cols.start, cols.stop) + 1
        index = np.outer(odd_rows, odd_cols)
        index %= 4 * self.n
        return self.table[index]

    def dirichlet(self, k: int, first: int, stop: int) -> np.ndarray:
        """K_k(m) = 2 step^2 D_k(m) for m = first..stop-1, both sines from the sine table.

        sin(2 pi k m / n) and sin(pi m / n) are read at (2 k m) mod 2n and m mod 2n,
        reduced exactly in integers.
        """
        n = self.n
        m = np.arange(first, stop)
        den = self._sine[m % (2 * n)]
        out = self._sine[(2 * k * m) % (2 * n)]
        zero = -first if first <= 0 < stop else None  # m = 0, where D_k is k
        if zero is not None:
            den[zero] = 1.0
        out *= self.step**2
        out /= den
        if zero is not None:
            out[zero] = 2.0 * self.step**2 * k
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """C x on the n/2 points of the positive half-grid, in O(n log n), for real
        samples x on its first len(x) <= n/2 points (0 beyond them)."""
        z = np.fft.fft(self._twiddle_in[: len(x)] * x, self.n)[: self.n // 2]
        z *= self._twiddle_out
        return z.real.copy()

    def measure_defect(self) -> float:
        """Larger of the involution defect of ``apply`` and the kernel's gap to it, NaN if either is.

        ``self.defects["involution"]``: max |C (C x) - x| on three seeded
        probes x with entries +-1 on the n/2 points of the positive half-grid.
        ``self.defects["kernel"]``: with b = cols, max |C P_b C w - K w| on
        three seeded probes w with entries +-1 on its first b points, P_b the
        cutoff to them.
        C P_b C w is ``apply`` twice, cut to b in between, and
        (K w)[y] = sum_{v<b} (K_b(y+v+1) + K_b(y-v)) w[v] is one correlation of
        the kernel with w mirrored, by complex FFT, so an imaginary kernel part
        shows too.  A single kernel value off by eps moves some entry of every
        probe by eps.
        """
        n = self.n
        half, cols = n // 2, self.cols
        rng = random.Random(1234)
        involution = 0.0
        for _ in range(3):
            x = random_signs(rng, half)
            involution = np.maximum(involution, np.abs(self.apply(self.apply(x)) - x).max())
        kernel = 0.0
        if cols:
            # y - v' over y < n/2 and v' = -cols..cols-1 spans m = 1-cols..n/2+cols-1
            length = kernel_fft_length(n, cols)
            spectrum = np.fft.fft(self.dirichlet(cols, 1 - cols, half + cols), length)
            for _ in range(3):
                w = random_signs(rng, cols)
                literal = self.apply(self.apply(w)[:cols])  # before the correlation's arrays
                full = np.fft.fft(np.concatenate([w[::-1], w]), length)
                full *= spectrum
                full = np.fft.ifft(full)[2 * cols - 1 : 2 * cols - 1 + half]  # y at y + 2 cols - 1
                full -= literal
                kernel = np.maximum(kernel, np.abs(full).max())
        self.defects = {"involution": float(involution), "kernel": float(kernel)}
        return float(np.max([involution, kernel]))


def full_line_fourier(n: int, cols: int) -> FullLineFourier:
    """The n-point signed grid's transform with its kernel certified for the first ``cols``
    columns; ValueError unless n is even and at least 2."""
    return certify(FullLineFourier(n, cols), SIGNED_DEFECT_THRESHOLD, f"signed n={n} cols={cols}")
