import math

import numpy as np
import pytest

from loctrace import (
    TestFunction,
    TraceComputation,
    build_fourier,
    make_backend,
    make_grid,
)
from loctrace.cutoff_trace import SignedTraceLab


@pytest.fixture(scope="session")
def backend_r():
    return make_backend("R")


@pytest.fixture(scope="session")
def backend_c():
    return make_backend("C")


@pytest.fixture(scope="session")
def backend_h():
    return make_backend("H")


@pytest.fixture(scope="session")
def grid_r2048(backend_r):
    return make_grid(backend_r, math.log(1e4), 2048)


@pytest.fixture(scope="session")
def fourier_r2048(backend_r, grid_r2048):
    return build_fourier(backend_r, grid_r2048)


@pytest.fixture(scope="session")
def grid_h1024(backend_h):
    return make_grid(backend_h, math.log(3e4), 1024)


@pytest.fixture(scope="session")
def fourier_h1024(backend_h, grid_h1024):
    return build_fourier(backend_h, grid_h1024)


@pytest.fixture(scope="session")
def grid_c1024(backend_c):
    return make_grid(backend_c, math.log(1e4), 1024)


@pytest.fixture(scope="session")
def fourier_c1024(backend_c, grid_c1024):
    return build_fourier(backend_c, grid_c1024)


@pytest.fixture(scope="session")
def standard_bump():
    return TestFunction(center=0.0, width=0.25, support_radius=1.5)


@pytest.fixture(scope="session")
def asymmetric_bump():
    return TestFunction(center=0.3, width=0.25, support_radius=1.5)


@pytest.fixture(scope="session")
def comp_r(backend_r, grid_r2048, standard_bump, fourier_r2048):
    return TraceComputation(backend_r, grid_r2048, standard_bump, fourier_r2048)


@pytest.fixture(scope="session")
def comp_h(backend_h, grid_h1024, standard_bump, fourier_h1024):
    return TraceComputation(backend_h, grid_h1024, standard_bump, fourier_h1024)


@pytest.fixture(scope="session")
def signed_lab(standard_bump):
    return SignedTraceLab(standard_bump, n=4096, max_lambda=8.0)


@pytest.fixture(scope="session")
def small_grid_r(backend_r):
    # compact grid for dense-algebra tests
    return make_grid(backend_r, math.log(100.0), 256)
