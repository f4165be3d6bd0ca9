"""Dense oracles for the commutant.

The production route reads the commutant off the Reynolds projector
K = (1/k) sum A (x) conj(A), formed only on its nonzero component blocks,
one stacked eigh per pair of component sizes.  A third oracle,
``reynolds_by_kron``, forms the same K as a sum of Kronecker products and
diagonalises it whole.  Two independent oracles
solve the commutation system A X - X A = 0 instead: one thin complex SVD of the stacked system,
and scipy's full-SVD ``null_space`` of the doubled real system followed by a
second SVD that extracts a complex basis.  On every group image all three
must give the same dimension and the same subspace; on inputs the Reynolds
route refuses (the zero operator, a non-unitary one) the two oracles still
agree with each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, null_space

from oracles import left_translation_operator, reynolds_by_kron, right_translation_operator

from loctrace.sandbox import (
    RANK_TOL,
    _blocks,
    abelian_presentations_up_to,
    biregular_action,
    characters,
    commutant_of_set,
    cyclic_group,
    dihedral_d4,
    quaternion_q8,
    symmetric_s3,
)


def commutation_system(operators) -> np.ndarray:
    """The k n^2 x n^2 system A X - X A = 0 on row-major vec(X)."""
    n = operators[0].shape[0]
    eye = np.eye(n)
    blocks = [np.kron(a, eye) - np.kron(eye, a.T) for a in operators]
    return np.vstack(blocks)


def complex_nullspace(system: np.ndarray, n: int) -> list[np.ndarray]:
    """Nullspace of a complex homogeneous system, as n x n matrices.

    One thin SVD: the system has at least as many rows as columns (k n^2 x
    n^2), so the thin Vh spans the whole column space, and the conjugates of
    its rows with s <= RANK_TOL * s[0] (against 1 when s[0] == 0) are an
    orthonormal nullspace basis.
    """
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    scale = s[0] if s[0] > 0 else 1.0
    rank = int(np.sum(s > RANK_TOL * scale))
    return [row.conj().reshape(n, n) for row in vh[rank:]]


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


def projector(basis, n: int) -> np.ndarray:
    if len(basis) == 0:
        return np.zeros((n * n, n * n), dtype=complex)
    q, _ = np.linalg.qr(np.array([b.reshape(-1) for b in basis]).T)
    return q @ q.conj().T


def character_action(factors, subset=None):
    chars = characters(cyclic_group(*factors))
    if subset is not None:
        chars = chars[subset]
    return [np.diag(c) for c in chars]


def generating_character_action(factors):
    """One character per cyclic factor, the trivial one for the trivial group.

    Character rows are indexed by coordinates in the cyclic factors, row-major,
    so the unit character of factor i sits at row prod(factors[i+1:]).  These
    characters generate the dual group, so their commutant is that of all |G|.
    """
    rows = [int(np.prod(factors[i + 1 :])) for i in range(len(factors))] or [0]
    return character_action(factors, rows)


def generic_complex_operator(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return s @ np.diag(np.arange(1.0, n + 1)) @ np.linalg.inv(s)


def biregular_generators(group):
    """The 2|G| left and right translations, which generate the image of G x G."""
    return [left_translation_operator(group, g) for g in range(group.order)] + [
        right_translation_operator(group, g) for g in range(group.order)
    ]


def mixed_component_action():
    """Z6 on C^3 + C^2 + C: the regular representations of Z3 and of Z2 and a
    faithful character, block-diagonally.

    The union support has components of sizes 3, 2 and 1, so the Reynolds
    projector has blocks of nine size pairs.  The trivial character occurs in
    both regular representations, so the commutant holds a copy of the 2 x 2
    matrices: dimension 2^2 + 4 = 8, and not abelian.
    """
    z3, z2 = cyclic_group(3), cyclic_group(2)
    return [
        block_diag(
            left_translation_operator(z3, g % 3),
            left_translation_operator(z2, g % 2),
            [[np.exp(2j * np.pi * g / 6)]],
        )
        for g in range(6)
    ]


def repeated_component_action():
    """Z6 on C^3 + C^3 + C^2 + C^2 + C: the regular representation of Z3
    through g and through 2g, that of Z2 twice and a faithful character,
    block-diagonally.

    The union support has components of sizes 3, 3, 2, 2 and 1, so most
    Reynolds stacks hold several blocks of size > 1.  The trivial character
    occurs four times, the other three characters of Z3 and Z2 twice each
    and the faithful one once: dimension 16 + 3 * 4 + 1 = 29.
    """
    z3, z2 = cyclic_group(3), cyclic_group(2)
    return [
        block_diag(
            left_translation_operator(z3, g % 3),
            left_translation_operator(z3, 2 * g % 3),
            left_translation_operator(z2, g % 2),
            left_translation_operator(z2, g % 2),
            [[np.exp(2j * np.pi * g / 6)]],
        )
        for g in range(6)
    ]


# (oracle operators, dimension, the group image that commutant_of_set gets or
# None); a set and the group it generates have the same commutant, so the
# oracles solve the abelian and biregular systems for generators only
CASES = [
    pytest.param(
        generating_character_action(f),
        int(np.prod(f)) if f else 1,
        character_action(f),
        id=f"Z{f}",
    )
    for f in abelian_presentations_up_to(12)
] + [
    pytest.param(
        character_action((4,), [0, 2]), 8, character_action((4,), [0, 2]), id="Z4-reduced"
    ),
    pytest.param([np.eye(3)], 9, [np.eye(3)], id="identity"),
    pytest.param([np.zeros((3, 3))], 9, None, id="zero"),
    pytest.param(
        mixed_component_action()[1:2], 8, mixed_component_action(), id="Z6-mixed-components"
    ),
    pytest.param(
        repeated_component_action()[1:2],
        29,
        repeated_component_action(),
        id="Z6-repeated-components",
    ),
    # a generic complex operator: its commutant, the polynomials in it, is not real
    pytest.param([generic_complex_operator(3, seed=5)], 3, None, id="generic-complex"),
] + [
    pytest.param(biregular_generators(g), dim, biregular_action(g), id=f"{g.name}-biregular")
    for g, dim in ((symmetric_s3(), 3), (quaternion_q8(), 5), (dihedral_d4(), 5))
]


@pytest.mark.parametrize("ops,dim,image", CASES)
def test_thin_svd_matches_doubled_real_oracle(ops, dim, image):
    n = ops[0].shape[0]
    system = commutation_system([np.asarray(a, dtype=complex) for a in ops])
    fast = complex_nullspace(system, n)
    oracle = doubled_real_nullspace(system, n)
    assert len(fast) == len(oracle) == dim
    assert np.abs(projector(fast, n) - projector(oracle, n)).max() < 1e-10
    if image is not None:
        comm = commutant_of_set(image)
        assert comm.dimension == comm.character_count == dim
        assert np.abs(projector(comm.basis, n) - projector(oracle, n)).max() < 1e-10


@pytest.mark.parametrize(
    "ops,match",
    [
        ([np.zeros((3, 3))], "operator #0 is not unitary"),
        ([np.eye(3), generic_complex_operator(3, seed=5)], "operator #1 is not unitary"),
        # characters 0 and 1 of Z4 miss the inverse of character 1
        (character_action((4,), [0, 1]), "not Hermitian"),
        # the generators of S3 x S3: their average is (P_L + P_R)/2
        (biregular_generators(symmetric_s3()), "not idempotent"),
    ],
    ids=["zero", "generic-complex", "Z4-not-a-subgroup", "S3-generators"],
)
def test_commutant_of_set_refuses_non_group_images(ops, match):
    with pytest.raises(ValueError, match=match):
        commutant_of_set(ops)


def test_mixed_component_commutant_is_not_abelian():
    comm = commutant_of_set(mixed_component_action())
    assert comm.dimension == comm.character_count == 8
    assert not comm.is_abelian


def test_commutant_of_zero_is_everything():
    # an all-zero system: its largest singular value is 0, so the oracle
    # measures s against 1 instead of s[0] (the Reynolds route refuses the
    # zero operator, which is not unitary)
    basis = complex_nullspace(commutation_system([np.zeros((3, 3))]), 3)
    assert len(basis) == 9
    assert np.abs(projector(basis, 3) - np.eye(9)).max() < 1e-15


def subgroup_of_dual(factors, generators) -> list[int]:
    """Indices (rows of ``characters``) of the subgroup the generators span.

    Character rows are indexed like the group elements, by their coordinates
    in the cyclic factors, so the dual group's law is the cyclic table's.
    """
    table = cyclic_group(*factors).table
    members = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for g in generators:
            b = int(table[a, g])
            if b not in members:
                members.add(b)
                frontier.append(b)
    return sorted(members)


@st.composite
def dual_subgroups(draw):
    factors = draw(st.sampled_from(abelian_presentations_up_to(12)))
    order = int(np.prod(factors)) if factors else 1
    generators = draw(st.lists(st.integers(0, order - 1), max_size=3))
    return factors, subgroup_of_dual(factors, generators)


@settings(max_examples=60)
@given(case=dual_subgroups())
def test_reynolds_matches_character_count_and_thin_svd_on_dual_subgroups(case):
    factors, subgroup = case
    ops = character_action(factors, subgroup)
    n = ops[0].shape[0]
    comm = commutant_of_set(ops)
    oracle = complex_nullspace(commutation_system(ops), n)
    _, kron = reynolds_by_kron(ops)
    # X commutes with diag(chi) for chi in H iff X lives on the cosets of the
    # annihilator of H, |G| / |H| of them of size |H|: dimension |G|^2 / |H|
    dim = n * n // len(subgroup)
    assert comm.dimension == comm.character_count == len(oracle) == len(kron) == dim
    assert np.abs(projector(comm.basis, n) - projector(oracle, n)).max() < 1e-10
    assert np.abs(projector(comm.basis, n) - projector(kron, n)).max() < 1e-10
    # a diagonal action makes K diagonal: n^2 blocks of size 1
    assert comm.blocks == n * n


def seeded_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=24)
@given(
    group=st.sampled_from([symmetric_s3(), quaternion_q8(), dihedral_d4()]),
    conjugate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reynolds_matches_both_oracles_on_biregular_images(group, conjugate, seed):
    image = biregular_action(group)
    generators = biregular_generators(group)
    n = group.order
    if conjugate:
        # a seeded unitary spreads K over every entry: one dense block
        u = seeded_unitary(n, seed)
        image = u @ image @ u.conj().T
        generators = [u @ g @ u.conj().T for g in generators]
    comm = commutant_of_set(image)
    _, kron = reynolds_by_kron(image)
    oracle = complex_nullspace(commutation_system(generators), n)
    classes = group.conjugacy_class_count()
    assert comm.dimension == comm.character_count == len(kron) == len(oracle) == classes
    assert np.abs(projector(comm.basis, n) - projector(kron, n)).max() < 1e-10
    assert np.abs(projector(comm.basis, n) - projector(oracle, n)).max() < 1e-10
    # a transitive image, conjugated or not, has one component: K is one block
    assert comm.blocks == 1


def test_blocks_follow_chains_and_one_sided_entries():
    # the chain 6-4-2-0 needs more than one pass of label propagation; an
    # entry on one side of the diagonal alone still joins its pair
    m = np.zeros((8, 8))
    for i, j in [(6, 4), (4, 2), (2, 0), (7, 5), (1, 3)]:
        m[i, j] = 1e-300
    assert _blocks(m).tolist() == [0, 1, 0, 1, 0, 5, 0, 5]


@pytest.mark.parametrize(
    "image,sizes",
    [
        pytest.param(character_action((12,)), [1] * 12, id="Z12-characters"),
        pytest.param(biregular_action(symmetric_s3()), [6], id="S3-biregular"),
        pytest.param(biregular_action(quaternion_q8()), [8], id="Q8-biregular"),
        pytest.param(biregular_action(dihedral_d4()), [8], id="D4-biregular"),
        pytest.param(mixed_component_action(), [3, 2, 1], id="Z6-mixed-components"),
        pytest.param(repeated_component_action(), [3, 3, 2, 2, 1], id="Z6-repeated-components"),
    ],
)
def test_one_eigh_per_component_size_pair(image, sizes, monkeypatch):
    # the union support's components have the given sizes: K has one block
    # per pair of components, and each pair of sizes (s, t) is one stacked
    # eigh of all its (s t) x (s t) blocks
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    comm = commutant_of_set(image)
    monkeypatch.undo()
    counts = {s: sizes.count(s) for s in sizes}
    expected = [(counts[s] * counts[t], s * t, s * t) for s in counts for t in counts]
    assert sorted(shapes) == sorted(expected)
    assert comm.blocks == len(sizes) ** 2
    n = len(image[0])
    _, kron = reynolds_by_kron(image)
    assert comm.dimension == comm.character_count == len(kron)
    assert np.abs(projector(comm.basis, n) - projector(kron, n)).max() < 1e-10
