"""Numerical laboratory for cutoff trace asymptotics over R, C and the quaternions.

Three independent evaluations of the trace of the cutoff-compressed
multiplicative-convolution operator, its asymptote 2 log(lam) f(1) - H(f)(1)
with the computable tail bound, and a brute-force finite-group sandbox for
the commutant / multiplier / resolvent mechanisms behind it.
"""

from .fields import (
    FieldBackend,
    RadialFunction,
    RadialGrid,
    annulus_measure,
    make_backend,
    make_grid,
    module_of_matrix,
    to_additive,
    to_multiplicative,
)
from .fourier import (
    FourierBuildError,
    FourierOperator,
    FullLineFourier,
    SignedGrid,
    build_fourier,
    full_line_fourier,
    make_signed_grid,
)
from .kernels import kernel_values, mellin_symbol
from .operators import (
    KernelOperator,
    TestFunction,
    adjoint,
    compose,
    cutoff_projection,
    hs_inner,
    left_translation,
    singular_values,
    trace,
    u_f,
    u_f_from_translations,
)
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
from .cutoff_trace import (
    SignedTraceLab,
    TraceComputation,
    TraceReport,
    asymptotic_fit,
    inversion,
)

__version__ = "0.1.0"
