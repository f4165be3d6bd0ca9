"""Numerical laboratory for cutoff trace asymptotics over R, C and the quaternions.

Three independent evaluations of the trace of the cutoff-compressed
multiplicative-convolution operator, its asymptote 2 log(lam) f(1) - H(f)(1)
with the computable tail bound, and a brute-force finite-group sandbox for
the commutant / multiplier / resolvent mechanisms behind it.

The pipeline is one chain: make_grid(make_backend(field), ...) ->
build_fourier(grid) -> TraceComputation(f, fourier) -> gates -> artifacts.
"""

from .fields import FieldBackend, RadialGrid, make_backend, make_grid
from .fourier import (
    FourierBuildError,
    FourierOperator,
    FullLineFourier,
    build_fourier,
    full_line_fourier,
)
from .kernels import kernel_values, mellin_symbol
from .operators import TestFunction
from .sandbox import (
    CommutantBasis,
    FiniteGroup,
    characters,
    commutant_of_characters,
    commutant_of_set,
    cyclic_group,
    multiplier_of,
    polar_decompose,
    resolvent_normality_check,
    run_sandbox,
)
from .cutoff_trace import SignedTraceLab, TraceComputation, TraceReport, asymptotic_fit

__version__ = "0.1.0"
