"""Dense oracle for the commutant nullspace.

The reference route solves the complex commutation system as a doubled real
one with scipy's full-SVD ``null_space`` and then extracts a complex basis by
a second SVD.  The production route reads the nullspace off one thin complex
SVD; both must give the same dimension and the same subspace.
"""

import numpy as np
import pytest
from scipy.linalg import null_space

from loctrace.sandbox import (
    RANK_TOL,
    _commutation_system,
    _complex_nullspace,
    abelian_presentations_up_to,
    biregular_action,
    characters,
    cyclic_group,
    dihedral_d4,
    quaternion_q8,
    symmetric_s3,
)


def doubled_real_nullspace(system: np.ndarray, n: int) -> list[np.ndarray]:
    cr, ci = system.real, system.imag
    real_sys = np.block([[cr, -ci], [ci, cr]])
    ns = null_space(real_sys, rcond=RANK_TOL)
    if ns.size == 0:
        return []
    mats = [col[: n * n].reshape(n, n) + 1j * col[n * n :].reshape(n, n) for col in ns.T]
    # the real solution space is the complex one doubled; extract a complex basis
    stacked = np.array([m.reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return [vh[k].reshape(n, n) for k in range(rank)]


def projector(basis: list[np.ndarray], n: int) -> np.ndarray:
    if not basis:
        return np.zeros((n * n, n * n), dtype=complex)
    q, _ = np.linalg.qr(np.array([b.reshape(-1) for b in basis]).T)
    return q @ q.conj().T


def character_action(factors, subset=None):
    chars = characters(cyclic_group(*factors))
    if subset is not None:
        chars = chars[subset]
    return [np.diag(c) for c in chars]


def generic_complex_operator(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return s @ np.diag(np.arange(1.0, n + 1)) @ np.linalg.inv(s)


CASES = [
    pytest.param(character_action(f), int(np.prod(f)) if f else 1, id=f"Z{f}")
    for f in abelian_presentations_up_to(12)
] + [
    pytest.param(character_action((4,), [0, 2]), 8, id="Z4-reduced"),
    pytest.param([np.eye(3)], 9, id="identity"),
    pytest.param([np.zeros((3, 3))], 9, id="zero"),
    # a generic complex operator: its commutant, the polynomials in it, is not real
    pytest.param([generic_complex_operator(3, seed=5)], 3, id="generic-complex"),
    pytest.param(biregular_action(symmetric_s3()), 3, id="S3-biregular"),
    pytest.param(biregular_action(quaternion_q8()), 5, id="Q8-biregular"),
    pytest.param(biregular_action(dihedral_d4()), 5, id="D4-biregular"),
]


@pytest.mark.parametrize("ops,dim", CASES)
def test_thin_svd_matches_doubled_real_oracle(ops, dim):
    n = ops[0].shape[0]
    system = _commutation_system([np.asarray(a, dtype=complex) for a in ops])
    fast = _complex_nullspace(system, n)
    oracle = doubled_real_nullspace(system, n)
    assert len(fast) == len(oracle) == dim
    assert np.abs(projector(fast, n) - projector(oracle, n)).max() < 1e-10
