import logging

import numpy as np
import pytest

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
    abelian_presentations_up_to,
    biregular_action,
    class_function_convolution,
    dihedral_d4,
    left_translation_operator,
    quaternion_q8,
    right_translation_operator,
    run_sandbox,
    run_suite,
    symmetric_s3,
)


# ----------------------------- groups ---------------------------------------


def test_cyclic_table_is_group():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.is_abelian
    assert g.identity == 0


def test_bad_table_rejected():
    table = np.zeros((3, 3), dtype=int)  # constant table: no identity
    with pytest.raises(ValueError):
        FiniteGroup(order=3, table=table)


def test_nonabelian_tables():
    for group, classes in ((symmetric_s3(), 3), (quaternion_q8(), 5), (dihedral_d4(), 5)):
        assert not group.is_abelian
        assert group.conjugacy_class_count() == classes


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
    reduced = commutant_of_characters(g, char_subset=[0, 2])
    assert full.dimension == 4
    assert reduced.dimension == 8


def test_commutant_of_identity_is_everything():
    comm = commutant_of_set([np.eye(3)])
    assert comm.dimension == 9
    assert not comm.is_abelian


def test_commutant_of_zero_is_everything(caplog):
    # an all-zero system: its largest singular value is 0, so s is measured
    # against 1 instead of s[0]
    with caplog.at_level(logging.DEBUG, logger="loctrace"):
        comm = commutant_of_set([np.zeros((3, 3))])
    assert comm.dimension == 9
    assert "rank 0, largest dropped s/s0 0.000e+00, smallest kept s/s0 none" in caplog.text


@pytest.mark.parametrize(
    "ops,match",
    [
        ([], "at least one"),
        ([np.ones((2, 3))], "square"),
        ([np.ones(4)], "square"),
        ([np.zeros((0, 0))], "square"),
        ([np.eye(3), np.eye(4)], "operator #1"),
    ],
    ids=["empty", "non-square", "vector", "zero-size", "mismatched"],
)
def test_commutant_of_set_rejects_bad_operators(ops, match):
    with pytest.raises(ValueError, match=match):
        commutant_of_set(ops)


def test_commutant_debug_log_shows_rank_cut(caplog):
    with caplog.at_level(logging.DEBUG, logger="loctrace"):
        commutant_of_characters(cyclic_group(4), char_subset=[0, 2])
    (record,) = [r for r in caplog.records if r.message.startswith("commutant:")]
    assert "system 32x16, rank 8" in record.message
    assert "largest dropped s/s0" in record.message
    assert "smallest kept s/s0" in record.message


def test_biregular_commutant_dimensions():
    expected = {"S3": 3, "Q8": 5, "D4": 5}
    for group in (symmetric_s3(), quaternion_q8(), dihedral_d4()):
        comm = commutant_of_set(biregular_action(group))
        assert comm.dimension == expected[group.name]
        assert comm.is_abelian


def test_translations_are_permutations():
    g = symmetric_s3()
    for k in range(g.order):
        for op in (left_translation_operator(g, k), right_translation_operator(g, k)):
            assert np.allclose(op @ op.T, np.eye(g.order))
            assert np.allclose(op.sum(axis=0), 1.0)


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
    with pytest.raises(ValueError, match="character"):
        multiplier_of(m, np.ones(3), g)


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
    m = np.ones((4, 4))  # symmetric, does not commute with the characters
    with pytest.raises(ValueError, match="commute"):
        resolvent_normality_check(m, action)


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


def test_suite_biregular():
    report = run_suite("annex1-biregular")
    assert report["passed"]
    assert report["detail"]["S3"]["commutant_dim"] == 3
    assert report["detail"]["Q8"]["commutant_dim"] == 5
    assert report["detail"]["D4"]["commutant_dim"] == 5


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_run_sandbox_all():
    report = run_sandbox(["annex2-multiplier", "annex2-polar", "annex1-resolvent-z8"])
    assert report["passed"]


def test_suite_resolvent_z8_computes_action_commutant_once(monkeypatch):
    calls = []
    real = sandbox_mod.commutant_of_set

    def counting(ops):
        calls.append(len(ops))
        return real(ops)

    monkeypatch.setattr(sandbox_mod, "commutant_of_set", counting)
    report = run_suite("annex1-resolvent-z8")
    assert report["passed"] and report["cases"] == 50
    assert calls == [8]


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
    assert lines[0].startswith("sandbox suite annex2-polar: passed in ")
    assert "worst defect" in lines[0]
    assert lines[1].startswith("sandbox suite annex1-biregular: passed in ")
    assert lines[1].endswith("commutant dims S3:3, Q8:5, D4:5")
