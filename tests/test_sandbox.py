import logging
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loctrace.sandbox as sandbox_mod
from loctrace import (
    characters,
    commutant_of_characters,
    commutant_of_set,
    cyclic_group,
    multiplier_of,
    polar_decompose,
    resolvent_normality_check,
)
from loctrace.sandbox import (
    FiniteGroup,
    _cyclic_table,
    abelian_presentations_up_to,
    biregular_action,
    class_function_convolution,
    dihedral_d4,
    quaternion_q8,
    run_sandbox,
    run_suite,
    symmetric_s3,
)
from loctrace.cli import _stable_json
from loctrace.fourier import random_signs, standard_normals
from oracles import (
    characters_by_loops,
    cyclic_table_by_loops,
    left_translation_operator,
    right_translation_operator,
)


# ----------------------------- groups ---------------------------------------


def test_cyclic_table_is_group():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.is_abelian
    assert g.identity == 0


@pytest.mark.parametrize(
    "table,match",
    [
        ([[0, 1], [1, 2]], "table entries out of range"),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], "table has no two-sided identity"),
        ([[0, 1], [1, 1]], "element 1 has no inverse"),
        # a Latin square with identity 0, so every element has an inverse,
        # but (1 * 1) * 2 = 2 and 1 * (1 * 2) = 4
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
            "table is not associative",
        ),
    ],
    ids=["out-of-range", "no-identity", "no-inverse", "not-associative"],
)
def test_bad_table_rejected(table, match):
    with pytest.raises(ValueError, match=match):
        FiniteGroup(order=len(table), table=np.array(table))


@pytest.mark.parametrize(
    "factors, table",
    [
        ((4,), _cyclic_table((2, 2))),  # Z4's factors on the Klein group's table
        ((2, 2), _cyclic_table((4,))),
        ((2, 3), _cyclic_table((3, 2))),  # Z6 both ways, its elements in another order
        ((6,), _cyclic_table((2, 3))),
    ],
    ids=["Z4-on-Z2xZ2", "Z2xZ2-on-Z4", "Z2xZ3-on-Z3xZ2", "Z6-on-Z2xZ3"],
)
def test_cyclic_factors_must_generate_the_table(factors, table):
    # characters() reads the factors: on another table its maps are not homomorphisms
    with pytest.raises(ValueError, match="table is not the table of cyclic factors"):
        FiniteGroup(order=len(table), cyclic_factors=factors, table=table)


def test_cyclic_factors_with_their_own_table_are_accepted():
    group = FiniteGroup(order=6, cyclic_factors=(2, 3), table=_cyclic_table((2, 3)).tolist())
    assert np.array_equal(group.table, cyclic_group(2, 3).table)
    chars = characters(group)
    table = group.table
    for a in range(6):
        for b in range(6):
            assert np.allclose(chars[:, table[a, b]], chars[:, a] * chars[:, b])


def test_identity_and_inverses_match_the_table():
    for group in (cyclic_group(2, 6), symmetric_s3(), quaternion_q8(), dihedral_d4()):
        e = group.identity
        assert (group.table[e] == np.arange(group.order)).all()
        for g in range(group.order):
            assert group.table[g, group.inverse(g)] == group.table[group.inverse(g), g] == e


def test_cyclic_tables_and_characters_match_loop_references():
    for factors in abelian_presentations_up_to(12):
        assert np.array_equal(_cyclic_table(factors), cyclic_table_by_loops(factors))
        chars = characters(cyclic_group(*factors))
        assert np.abs(chars - characters_by_loops(factors)).max() <= 1e-15


def test_nonabelian_tables():
    for group, classes in ((symmetric_s3(), 3), (quaternion_q8(), 5), (dihedral_d4(), 5)):
        assert not group.is_abelian
        assert group.conjugacy_class_count() == classes


@pytest.mark.parametrize(
    "group, sizes",
    [(symmetric_s3(), [1, 2, 3]), (quaternion_q8(), [1, 1, 2, 2, 2]), (dihedral_d4(), [1, 1, 2, 2, 2])],
    ids=["S3", "Q8", "D4"],
)
def test_conjugacy_classes_partition_the_group(group, sizes):
    classes = {frozenset(group.conjugacy_class(g)) for g in range(group.order)}
    assert sorted(len(c) for c in classes) == sizes
    assert set().union(*classes) == set(range(group.order))
    assert all(g in group.conjugacy_class(g) for g in range(group.order))
    assert group.conjugacy_class(group.identity) == {group.identity}


def test_presentation_enumeration_counts():
    pres = abelian_presentations_up_to(12)
    assert len(pres) == 28
    orders = sorted(int(np.prod(p)) if p else 1 for p in pres)
    assert orders[0] == 1 and orders[-1] == 12


# ----------------------------- characters ------------------------------------


def test_characters_z2():
    chars = characters(cyclic_group(2))
    rows = {tuple(np.round(np.real(c)).astype(int)) for c in chars}
    assert rows == {(1, 1), (1, -1)}


def test_character_count_and_orthogonality():
    g = cyclic_group(3, 4)
    chars = characters(g)
    assert chars.shape[0] == g.order
    gram = chars @ np.conj(chars.T)
    assert np.abs(gram - g.order * np.eye(g.order)).max() < 1e-12


def test_characters_require_abelian():
    with pytest.raises(ValueError):
        characters(symmetric_s3())


# ----------------------------- commutants ------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_commutant_of_characters_is_diagonal(n):
    g = cyclic_group(n)
    comm = commutant_of_characters(g)
    assert comm.dimension == n
    assert comm.max_offdiagonal_mass() < 1e-10
    assert comm.is_abelian


def test_commutant_of_characters_klein():
    comm = commutant_of_characters(cyclic_group(2, 2))
    assert comm.dimension == 4
    assert comm.max_offdiagonal_mass() < 1e-10


def test_dropped_character_enlarges_commutant():
    # negative control: a non-separating character subset (trivial + the
    # order-2 character of Z/4) leaves a strictly larger commutant
    g = cyclic_group(4)
    full = commutant_of_characters(g)
    reduced = commutant_of_set([np.diag(c) for c in characters(g)[[0, 2]]])
    assert full.dimension == 4
    assert reduced.dimension == 8


def test_commutant_of_identity_is_everything():
    comm = commutant_of_set([np.eye(3)])
    assert comm.dimension == 9
    assert not comm.is_abelian


@pytest.mark.parametrize(
    "ops,match",
    [
        ([], "at least one"),
        ([np.ones((2, 3))], "square"),
        ([np.ones(4)], "square"),
        ([np.zeros((0, 0))], "square"),
        ([np.eye(3), np.eye(4)], "operator #1"),
        # NaN compares False with every tolerance, so it is refused up front
        ([np.eye(2), [[np.nan, 0], [0, 1]]], "operator #1 has a non-finite entry"),
        ([np.eye(2), [[np.inf, 0], [0, 1]]], "operator #1 has a non-finite entry"),
        ([[[1, 0], [0, -np.inf]], np.eye(2)], "operator #0 has a non-finite entry"),
    ],
    ids=["empty", "non-square", "vector", "zero-size", "mismatched", "nan", "inf", "minus-inf"],
)
def test_commutant_of_set_rejects_bad_operators(ops, match):
    with pytest.raises(ValueError, match=match):
        commutant_of_set(ops)


def test_commutant_debug_log_shows_eigenvalue_gap(caplog):
    with caplog.at_level(logging.DEBUG, logger="loctrace"):
        commutant_of_set([np.diag(c) for c in characters(cyclic_group(4))[[0, 2]]])
    (record,) = [r for r in caplog.records if r.message.startswith("commutant:")]
    # a diagonal action on C^4: 16 Reynolds blocks, each a 1 x 1 eigenproblem
    assert record.message.startswith(
        "commutant: 2 operators, n 4, dimension 8, character count 8, "
        "16 Reynolds blocks, largest eigh 1, worst eigenvalue distance from {0, 1} "
    )
    assert float(record.message.rsplit(" ", 1)[1]) < 1e-15


def test_biregular_commutant_dimensions():
    expected = {"S3": 3, "Q8": 5, "D4": 5}
    for group in (symmetric_s3(), quaternion_q8(), dihedral_d4()):
        action = biregular_action(group)
        assert len(action) == group.order**2
        comm = commutant_of_set(action)
        assert comm.dimension == comm.character_count == expected[group.name]
        assert comm.is_abelian
        # a permutation image stays real, so its products are real GEMMs
        assert comm.basis[0].dtype == np.float64
    assert commutant_of_characters(cyclic_group(4)).basis[0].dtype == np.complex128


def test_left_regular_commutant_is_not_abelian():
    # the commutant of the left regular image is the span of the right
    # translations: |G| = n dimensions, so only the commutators decide
    for group in (symmetric_s3(), quaternion_q8(), dihedral_d4(), cyclic_group(6)):
        comm = commutant_of_set([left_translation_operator(group, g) for g in range(group.order)])
        assert comm.dimension == group.order
        assert comm.is_abelian == group.is_abelian


def test_translations_are_permutations():
    g = symmetric_s3()
    for k in range(g.order):
        for op in (left_translation_operator(g, k), right_translation_operator(g, k)):
            assert np.allclose(op @ op.T, np.eye(g.order))
            assert np.allclose(op.sum(axis=0), 1.0)


@pytest.mark.parametrize(
    "group",
    [symmetric_s3(), quaternion_q8(), dihedral_d4(), cyclic_group(6), cyclic_group(2, 4)],
    ids=lambda g: g.name,
)
def test_group_images_equal_the_translation_matrices(group):
    # the Cayley-table scatter and gather against the products and sums of the oracle's
    # permutation matrices, bit for bit
    n = group.order
    lefts = [left_translation_operator(group, g) for g in range(n)]
    rights = [right_translation_operator(group, h) for h in range(n)]
    want = np.stack([left @ right for left in lefts for right in rights])
    assert np.array_equal(biregular_action(group), want)
    m = class_function_convolution(group, seed=5)
    c = m[:, group.identity]  # entry (g, e) is c(g e^-1) = c(g)
    want = np.zeros((n, n))
    for g in range(n):
        want += c[g] * lefts[g]
    assert np.array_equal(m, want)


# ----------------------------- multiplier ------------------------------------


def test_multiplier_read_off():
    g = cyclic_group(3)
    m = np.diag([1.0, 2.0, 3.0])
    a = multiplier_of(m, np.ones(3), g)
    assert np.allclose(a, [1.0, 2.0, 3.0])


def test_multiplier_reconstruction_and_psi_independence():
    rng = np.random.default_rng(10)
    g = cyclic_group(7)
    diag = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    m = np.diag(diag)
    psi1 = np.ones(7)
    psi2 = rng.standard_normal(7) + 1j * rng.standard_normal(7) + 3.0
    a1 = multiplier_of(m, psi1, g)
    a2 = multiplier_of(m, psi2, g)
    assert np.abs(np.diag(a1) - m).max() < 1e-12
    assert np.abs(a1 - a2).max() < 1e-10


def test_multiplier_of_adjoint_is_conjugate():
    rng = np.random.default_rng(11)
    g = cyclic_group(6)
    m = np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    a = multiplier_of(m, np.ones(6), g)
    aadj = multiplier_of(m.conj().T, np.ones(6), g)
    assert np.abs(aadj - np.conj(a)).max() < 1e-12


def test_multiplier_rejects_zero_psi():
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        multiplier_of(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]), g)


def test_multiplier_rejects_noncommuting():
    g = cyclic_group(3)
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    # character #0 is trivial and commutes with everything; #1 is the first to fail
    with pytest.raises(ValueError, match=r"does not commute with character #1 \(defect"):
        multiplier_of(m, np.ones(3), g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_multiplier_refuses_non_finite_input(bad):
    g = cyclic_group(4)
    # NaN fails every `defect > tol` test, so a NaN M used to return a NaN multiplier
    with pytest.raises(ValueError, match="^M has a non-finite entry$"):
        multiplier_of(np.full((4, 4), bad), np.ones(4), g)
    psi = np.ones(4, dtype=complex)
    psi[2] = bad
    with pytest.raises(ValueError, match="^psi has a non-finite entry$"):
        multiplier_of(np.eye(4), psi, g)


# ----------------------------- polar ------------------------------------------


def test_polar_diagonal_case():
    m = np.diag([2.0 * np.exp(1j * 0.5), 0.0, 3.0 * np.exp(-1j * 1.1)])
    u, p = polar_decompose(m)
    assert np.allclose(p, np.diag([2.0, 0.0, 3.0]), atol=1e-12)
    assert abs(u[0, 0] - np.exp(1j * 0.5)) < 1e-12
    assert abs(u[1, 1]) < 1e-12  # zero where the modulus vanishes
    assert abs(u[2, 2] - np.exp(-1j * 1.1)) < 1e-12


def test_polar_reconstruction_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, p = polar_decompose(m)
        assert np.abs(m - u @ p).max() < 1e-10
        # partial isometry on the range of P
        assert np.abs(u @ np.conj(u.T) @ u - u).max() < 1e-10
        # P nonnegative self-adjoint
        assert np.abs(p - np.conj(p.T)).max() < 1e-10
        assert np.linalg.eigvalsh(p).min() > -1e-10


def test_polar_commutation_propagates():
    rng = np.random.default_rng(13)
    g = cyclic_group(5)
    chars = [np.diag(c) for c in characters(g)]
    m = np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    u, p = polar_decompose(m)
    for d in chars:
        assert np.abs(u @ d - d @ u).max() < 1e-8
        assert np.abs(p @ d - d @ p).max() < 1e-8


# ----------------------------- resolvent --------------------------------------


def test_resolvent_normal_diagonal_with_characters():
    g = cyclic_group(8)
    action = [np.diag(c) for c in characters(g)]
    m = np.diag(np.linspace(-2.0, 2.0, 8))
    rep = resolvent_normality_check(m, action)
    assert rep.normality_defect < 1e-10
    assert rep.sv_min_plus > 0.9 and rep.sv_min_minus > 0.9
    assert rep.passed


def test_resolvent_normal_circulant_with_translations():
    # the mirror-image case: a symmetric circulant commutes with the
    # translation action, whose commutant (the circulants) is abelian
    g = cyclic_group(8)
    action = [left_translation_operator(g, k) for k in range(8)]
    c = np.array([1.0, 0.5, -0.3, 0.2, 0.7, 0.2, -0.3, 0.5])  # c_k = c_{-k}
    m = sum(c[k] * left_translation_operator(g, k) for k in range(8))
    assert np.abs(m - m.T).max() < 1e-14
    rep = resolvent_normality_check(m, action)
    assert rep.passed


def test_resolvent_class_convolution_s3():
    g = symmetric_s3()
    m = class_function_convolution(g, seed=3)
    assert np.abs(m - m.T).max() < 1e-12
    rep = resolvent_normality_check(m, biregular_action(g))
    assert rep.passed


def test_resolvent_rejects_noncommuting():
    g = cyclic_group(4)
    action = [np.diag(c) for c in characters(g)]
    m = np.ones((4, 4))  # symmetric, commutes with the trivial character only
    with pytest.raises(ValueError, match="does not commute with action element #1$"):
        resolvent_normality_check(m, action)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_resolvent_refuses_non_finite_input(bad):
    action = [np.diag(c) for c in characters(cyclic_group(4))]
    m = np.diag([1.0, 2.0, 3.0, bad])
    with pytest.raises(ValueError, match="M has a non-finite entry"):
        resolvent_normality_check(m, action)
    action[2] = np.diag([1.0, 1.0, bad, 1.0])
    with pytest.raises(ValueError, match="action element #2 has a non-finite entry"):
        resolvent_normality_check(np.diag([1.0, 2.0, 3.0, 4.0]), action)


def test_resolvent_rejects_nonabelian_commutant():
    # everything commutes with the identity, and its commutant is all of M_3
    with pytest.raises(ValueError, match="not abelian"):
        resolvent_normality_check(np.diag([1.0, 2.0, 3.0]), [np.eye(3)])


def test_resolvent_rejects_nonsymmetric():
    g = cyclic_group(4)
    action = [np.diag(c) for c in characters(g)]
    with pytest.raises(ValueError, match="symmetric"):
        resolvent_normality_check(np.diag([1j, 0, 0, 0]), action)


def test_random_commuting_family():
    # the finite mechanism: diagonal symmetric operators commute with all
    # character multiplications, (M +- i) have full rank, resolvent is normal
    g = cyclic_group(8)
    action = [np.diag(c) for c in characters(g)]
    rng = np.random.default_rng(99)
    for _ in range(50):
        m = np.diag(rng.standard_normal(8))
        rep = resolvent_normality_check(m, action)
        assert rep.passed


# ----------------------------- suites ------------------------------------------


def test_suite_abelian_le_12():
    report = run_suite("annex2-abelian-le-12")
    assert report["passed"]
    assert report["cases"] == 28
    for case in report["detail"]:
        assert case["commutant_dim"] == case["character_count"] == case["order"]


def test_suite_biregular():
    report = run_suite("annex1-biregular")
    assert report["passed"]
    for name, dim in (("S3", 3), ("Q8", 5), ("D4", 5)):
        assert report["detail"][name]["commutant_dim"] == dim
        assert report["detail"][name]["character_count"] == dim


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("name", sandbox_mod.SUITE_NAMES)
@pytest.mark.parametrize("seed", [-1, -7])
def test_run_suite_refuses_a_negative_seed(name, seed):
    # random.Random seeds from |seed|: a negative seed would repeat its absolute value's draws
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        run_suite(name, seed)


def test_run_sandbox_all():
    report = run_sandbox(["annex2-multiplier", "annex2-polar", "annex1-resolvent-z8"])
    assert report["passed"]


@pytest.fixture
def commutant_calls(monkeypatch):
    """The operator count of each commutant_of_set call the sandbox makes."""
    calls = []
    real = sandbox_mod.commutant_of_set

    def counting(ops):
        calls.append(len(ops))
        return real(ops)

    monkeypatch.setattr(sandbox_mod, "commutant_of_set", counting)
    return calls


def test_suite_resolvent_z8_computes_action_commutant_once(commutant_calls):
    report = run_suite("annex1-resolvent-z8")
    assert report["passed"] and report["cases"] == 50
    assert commutant_calls == [8]


def test_suite_biregular_computes_each_action_commutant_once(commutant_calls):
    assert run_suite("annex1-biregular")["passed"]
    assert commutant_calls == [36, 64, 64]


@pytest.mark.parametrize(
    "selection,seed,error",
    [
        (["annex1-biregular", "bogus"], 0, KeyError),
        (["annex1-biregular"], -1, ValueError),
    ],
    ids=["unknown-suite", "negative-seed"],
)
def test_run_sandbox_refuses_before_any_suite(monkeypatch, selection, seed, error):
    ran = []
    monkeypatch.setattr(sandbox_mod, "run_suite", lambda name, seed=0: ran.append(name))
    with pytest.raises(error):
        run_sandbox(selection, seed=seed)
    assert ran == []


def test_run_sandbox_logs_one_line_per_suite(caplog):
    with caplog.at_level(logging.INFO, logger="loctrace"):
        run_sandbox(["annex2-polar", "annex1-biregular"])
    lines = [r.message for r in caplog.records if r.levelno == logging.INFO]
    assert len(lines) == 2
    assert lines[0].startswith("sandbox suite annex2-polar: passed, worst defect ")
    assert " duration_s=" in lines[0]
    head, duration = lines[1].split(" duration_s=")
    assert head == "sandbox suite annex1-biregular: passed, commutant dims S3:3, Q8:5, D4:5"
    assert float(duration) > 0.0


@settings(max_examples=30)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=0)  # verify's seed
@example(seed=7)
@example(seed=901)
@example(seed=2601)
@example(seed=2801)
@example(seed=3301)
@example(seed=3306)
@example(seed=2**64 - 1)
def test_sandbox_passes_and_repeats_at_every_seed_property(seed):
    report = run_sandbox(list(sandbox_mod.SUITE_NAMES), seed=seed)
    assert report["passed"], _stable_json(report)
    assert _stable_json(run_sandbox(list(sandbox_mod.SUITE_NAMES), seed=seed)) == _stable_json(report)
    # another seed draws other resolvent cases
    other = run_suite("annex1-resolvent-z8", seed=seed ^ 1)
    assert _stable_json(other) != _stable_json(report["suites"][-1])


@pytest.mark.parametrize("seed", [0, 1234])
def test_seeded_draws_have_the_moments_of_their_law(seed):
    # 10^5 draws: each sample moment within 5 standard errors of its law's
    count = 10**5
    x = standard_normals(random.Random(seed), count)
    assert x.shape == (count,) and np.isfinite(x).all()
    assert abs(x.mean()) < 5.0 / math.sqrt(count)
    assert abs(x.var() - 1.0) < 5.0 * math.sqrt(2.0 / count)
    signs = random_signs(random.Random(seed), count)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert abs(signs.mean()) < 5.0 / math.sqrt(count)
    # one seed, one sequence; an odd count returns that many draws
    assert np.array_equal(standard_normals(random.Random(seed), count), x)
    assert standard_normals(random.Random(seed), 7).shape == (7,)
