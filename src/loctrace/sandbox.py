"""Finite-dimensional commutant laboratory.

Brute-force verifiable shadows of the operator-theoretic mechanisms used in
the trace study: on finite abelian groups, every operator commuting with all
character multiplications is diagonal and is recovered by a multiplier; polar
factors inherit commutation; and for a symmetric operator commuting with a
group action whose commutant is abelian, the resolvent is normal and the
shifted operators have full range.  Nonabelian groups enter through their
biregular (left and right translation) action, whose commutant is the abelian
algebra of class-function convolutions.

Everything here is exact dense linear algebra; commutants are nullspaces of
stacked complex commutation systems, read off one thin complex SVD, with a
singular-value cut at 1e-10 of the largest deciding rank.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

log = logging.getLogger("loctrace")

RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


@dataclass
class FiniteGroup:
    """Finite group as cyclic factors (abelian) or an explicit table.

    table[i, j] is the index of element_i * element_j.  Explicit tables are
    checked for the group axioms on construction.
    """

    order: int
    cyclic_factors: Optional[tuple[int, ...]] = None
    table: np.ndarray = field(default=None, repr=False)
    name: str = ""

    def __post_init__(self) -> None:
        if self.table is None:
            if self.cyclic_factors is None:
                raise ValueError("need cyclic factors or an explicit table")
            self.table = _cyclic_table(self.cyclic_factors)
        self.table = np.asarray(self.table, dtype=int)
        if self.table.shape != (self.order, self.order):
            raise ValueError("table shape must be (order, order)")
        _check_group_axioms(self.table)

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def inverse(self, g: int) -> int:
        return int(np.where(self.table[g] == self.identity)[0][0])

    @property
    def identity(self) -> int:
        for e in range(self.order):
            if np.array_equal(self.table[e], np.arange(self.order)):
                return e
        raise ValueError("no identity element")

    def conjugacy_class_count(self) -> int:
        seen = set()
        count = 0
        for g in range(self.order):
            if g in seen:
                continue
            count += 1
            for h in range(self.order):
                hinv = self.inverse(h)
                seen.add(int(self.table[self.table[h, g], hinv]))
        return count


def _cyclic_table(factors: Sequence[int]) -> np.ndarray:
    factors = tuple(int(n) for n in factors)
    if any(n < 1 for n in factors):
        raise ValueError("cyclic factors must be positive")
    order = int(np.prod(factors)) if factors else 1
    coords = list(itertools.product(*[range(n) for n in factors])) or [()]
    index = {c: i for i, c in enumerate(coords)}
    table = np.zeros((order, order), dtype=int)
    for i, a in enumerate(coords):
        for j, b in enumerate(coords):
            c = tuple((x + y) % n for x, y, n in zip(a, b, factors))
            table[i, j] = index[c]
    return table


def _check_group_axioms(table: np.ndarray) -> None:
    n = table.shape[0]
    if not ((table >= 0).all() and (table < n).all()):
        raise ValueError("table entries out of range")
    ident = None
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("table has no two-sided identity")
    for g in range(n):
        if ident not in table[g]:
            raise ValueError(f"element {g} has no inverse")
    # associativity, brute force
    for a in range(n):
        if not np.array_equal(table[table[a], :], table[a][table]):
            raise ValueError("table is not associative")


def cyclic_group(*factors: int, name: str = "") -> FiniteGroup:
    order = int(np.prod(factors)) if factors else 1
    return FiniteGroup(order=order, cyclic_factors=tuple(factors), name=name or f"Z{factors}")


def symmetric_s3() -> FiniteGroup:
    elems = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            comp = tuple(p[q[k]] for k in range(3))
            table[i, j] = index[comp]
    return FiniteGroup(order=6, table=table, name="S3")


def dihedral_d4() -> FiniteGroup:
    # elements (k, e): rotation^k * flip^e, flip conjugation inverts rotations
    elems = [(k, e) for e in (0, 1) for k in range(4)]
    index = {x: i for i, x in enumerate(elems)}
    table = np.zeros((8, 8), dtype=int)
    for i, (k, e) in enumerate(elems):
        for j, (kp, ep) in enumerate(elems):
            kk = (k + (kp if e == 0 else -kp)) % 4
            table[i, j] = index[(kk, (e + ep) % 2)]
    return FiniteGroup(order=8, table=table, name="D4")


def quaternion_q8() -> FiniteGroup:
    letters = ["1", "i", "j", "k"]
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, l) for s in (1, -1) for l in letters]
    index = {x: i for i, x in enumerate(elems)}
    table = np.zeros((8, 8), dtype=int)
    for i, (s, l) in enumerate(elems):
        for j, (sp, lp) in enumerate(elems):
            sq, lq = prod[(l, lp)]
            table[i, j] = index[(s * sp * sq, lq)]
    return FiniteGroup(order=8, table=table, name="Q8")


def abelian_presentations_up_to(max_order: int) -> list[tuple[int, ...]]:
    """Ordered cyclic-factor presentations with product <= max_order.

    Includes the trivial group as the empty tuple; 28 cases for max_order 12.
    """
    out: list[tuple[int, ...]] = [()]

    def extend(prefix: tuple[int, ...], prod: int) -> None:
        for f in range(2, max_order // prod + 1):
            out.append(prefix + (f,))
            extend(prefix + (f,), prod * f)

    extend((), 1)
    return out


# ---------------------------------------------------------------------------
# characters and commutants
# ---------------------------------------------------------------------------


def characters(group: FiniteGroup) -> np.ndarray:
    """All unitary characters of an abelian group, one row per character."""
    if group.cyclic_factors is None or not group.is_abelian:
        raise ValueError("characters require an abelian cyclic-factor presentation")
    factors = group.cyclic_factors
    coords = list(itertools.product(*[range(n) for n in factors])) or [()]
    chars = np.zeros((group.order, group.order), dtype=complex)
    for a_idx, a in enumerate(coords):
        for x_idx, x in enumerate(coords):
            phase = sum(ai * xi / ni for ai, xi, ni in zip(a, x, factors))
            chars[a_idx, x_idx] = np.exp(2j * np.pi * phase)
    return chars


@dataclass
class CommutantBasis:
    basis: list[np.ndarray]
    is_abelian: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def max_offdiagonal_mass(self) -> float:
        worst = 0.0
        for b in self.basis:
            off = b - np.diag(np.diag(b))
            worst = max(worst, float(np.abs(off).max()))
        return worst


def _commutation_system(operators: Sequence[np.ndarray]) -> np.ndarray:
    n = operators[0].shape[0]
    eye = np.eye(n)
    blocks = [np.kron(a, eye) - np.kron(eye, a.T) for a in operators]
    return np.vstack(blocks)


def _complex_nullspace(system: np.ndarray, n: int) -> list[np.ndarray]:
    """Nullspace of a complex homogeneous system, as n x n matrices.

    One thin SVD: the system has at least as many rows as columns (k n^2 x
    n^2), so the thin Vh spans the whole column space, and the conjugates of
    its rows with s <= RANK_TOL * s[0] are an orthonormal nullspace basis.
    The cut acts on the singular values themselves; an eigendecomposition of
    the Gram matrix would square them and move the cut to 1e-20.
    """
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    scale = s[0] if s[0] > 0 else 1.0
    rank = int(np.sum(s > RANK_TOL * scale))
    if log.isEnabledFor(logging.DEBUG):
        dropped = f"{s[rank] / scale:.3e}" if rank < s.size else "none"
        kept = f"{s[rank - 1] / scale:.3e}" if rank > 0 else "none"
        log.debug(
            "commutant: system %dx%d, rank %d, largest dropped s/s0 %s, smallest kept s/s0 %s",
            *system.shape, rank, dropped, kept,
        )
    return [row.conj().reshape(n, n) for row in vh[rank:]]


def commutant_of_set(operators: Sequence[np.ndarray]) -> CommutantBasis:
    """Basis of all matrices commuting with every operator, plus abelianness.

    The operators must be one or more square matrices of one common size.
    """
    ops = [np.asarray(a, dtype=complex) for a in operators]
    if not ops:
        raise ValueError("commutant_of_set needs at least one operator")
    for k, a in enumerate(ops):
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"operator #{k} has shape {a.shape}; need a non-empty square matrix")
        if a.shape != ops[0].shape:
            raise ValueError(f"operator #{k} has shape {a.shape}, operator #0 has {ops[0].shape}")
    basis = _complex_nullspace(_commutation_system(ops), ops[0].shape[0])
    abelian = True
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            if np.abs(comm).max() > 1e-10:
                abelian = False
                break
        if not abelian:
            break
    return CommutantBasis(basis=basis, is_abelian=abelian)


def commutant_of_characters(group: FiniteGroup, char_subset=None) -> CommutantBasis:
    """Commutant of the (optionally restricted) character multiplication action."""
    chars = characters(group)
    if char_subset is not None:
        chars = chars[list(char_subset)]
    return commutant_of_set([np.diag(chi) for chi in chars])


# ---------------------------------------------------------------------------
# multipliers, polar decomposition, resolvent normality
# ---------------------------------------------------------------------------


def multiplier_of(m: np.ndarray, psi: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """Recover the multiplier a(x) = (M psi)(x) / psi(x) of a character-commuting M."""
    m = np.asarray(m, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if np.any(psi == 0):
        raise ValueError("psi must be nowhere zero")
    for k, chi in enumerate(characters(group)):
        d = np.diag(chi)
        defect = np.abs(m @ d - d @ m).max()
        if defect > 1e-10:
            raise ValueError(
                f"operator does not commute with character #{k} (defect {defect:.2e})"
            )
    return (m @ psi) / psi


def polar_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M = U P with P = (M* M)^(1/2) >= 0 and U a partial isometry.

    U annihilates the kernel of M (diagonal phases with zeros where the
    modulus vanishes, in the diagonal case).
    """
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    p = vh.conj().T @ np.diag(s) @ vh
    rank = int(np.sum(s > RANK_TOL * (s[0] if s.size and s[0] > 0 else 1.0)))
    upart = u[:, :rank] @ vh[:rank]
    return upart, p


@dataclass(frozen=True)
class ResolventReport:
    normality_defect: float
    sv_min_plus: float
    sv_min_minus: float
    passed: bool


def resolvent_normality_check(
    m: np.ndarray, action: Sequence[np.ndarray], normality_tol: float = 1e-8
) -> ResolventReport:
    """Forms R = (M + i)^(-1) and verifies the self-adjointness mechanism.

    Preconditions (violations raised individually): M symmetric, M commutes
    with every action element, and the action's commutant is abelian.  The
    report carries ||R R* - R* R||, and the smallest singular values of
    (M +- i), which must be bounded away from zero (full range).
    """
    report = _resolvent_report(m, action, normality_tol)
    _require_abelian_commutant(action)
    return report


def _require_abelian_commutant(action: Sequence[np.ndarray]) -> None:
    if not commutant_of_set(action).is_abelian:
        raise ValueError("the commutant of the action is not abelian")


def _resolvent_report(
    m: np.ndarray, action: Sequence[np.ndarray], normality_tol: float = 1e-8
) -> ResolventReport:
    """The per-M half of resolvent_normality_check: its preconditions and report."""
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > 1e-10 * scale:
        raise ValueError("M is not symmetric")
    for k, a in enumerate(action):
        if np.abs(m @ a - a @ m).max() > 1e-10 * scale:
            raise ValueError(f"M does not commute with action element #{k}")
    n = m.shape[0]
    eye = np.eye(n)
    r = np.linalg.inv(m + 1j * eye)
    defect = float(np.linalg.norm(r @ r.conj().T - r.conj().T @ r))
    svp = float(np.linalg.svd(m + 1j * eye, compute_uv=False)[-1])
    svm = float(np.linalg.svd(m - 1j * eye, compute_uv=False)[-1])
    return ResolventReport(
        normality_defect=defect,
        sv_min_plus=svp,
        sv_min_minus=svm,
        passed=defect < normality_tol and svp > 1e-8 and svm > 1e-8,
    )


# ---------------------------------------------------------------------------
# biregular action
# ---------------------------------------------------------------------------


def left_translation_operator(group: FiniteGroup, g: int) -> np.ndarray:
    """(L_g phi)(x) = phi(g^{-1} x) as a permutation matrix."""
    n = group.order
    mat = np.zeros((n, n))
    for y in range(n):
        mat[group.table[g, y], y] = 1.0
    return mat


def right_translation_operator(group: FiniteGroup, g: int) -> np.ndarray:
    """(R_g phi)(x) = phi(x g) as a permutation matrix."""
    n = group.order
    mat = np.zeros((n, n))
    for x in range(n):
        mat[x, group.table[x, g]] = 1.0
    return mat


def biregular_action(group: FiniteGroup) -> list[np.ndarray]:
    ops = []
    for g in range(group.order):
        ops.append(left_translation_operator(group, g))
        ops.append(right_translation_operator(group, g))
    return ops


def class_function_convolution(group: FiniteGroup, seed: int = 0) -> np.ndarray:
    """Random symmetric convolution by a class function c with c(g) = c(g^-1)."""
    rng = np.random.default_rng(seed)
    n = group.order
    coeff = rng.standard_normal(n)
    # symmetrize over conjugacy and inversion so the operator is symmetric
    c = np.zeros(n)
    for g in range(n):
        orbit = set()
        for h in range(n):
            hinv = group.inverse(h)
            orbit.add(int(group.table[group.table[h, g], hinv]))
        orbit |= {group.inverse(x) for x in orbit}
        val = float(np.mean([coeff[x] for x in sorted(orbit)]))
        c[g] = val
    mat = np.zeros((n, n))
    for g in range(n):
        mat += c[g] * left_translation_operator(group, g)
    return mat


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITE_NAMES = (
    "annex2-abelian-le-12",
    "annex2-multiplier",
    "annex2-polar",
    "annex1-biregular",
    "annex1-resolvent-z8",
)


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one named verification suite; returns a JSON-ready report."""
    if name == "annex2-abelian-le-12":
        return _suite_abelian_le_12()
    if name == "annex2-multiplier":
        return _suite_multiplier(seed)
    if name == "annex2-polar":
        return _suite_polar(seed)
    if name == "annex1-biregular":
        return _suite_biregular(seed)
    if name == "annex1-resolvent-z8":
        return _suite_resolvent_z8(seed)
    raise KeyError(f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}")


def _suite_abelian_le_12() -> dict:
    cases = []
    ok = True
    for factors in abelian_presentations_up_to(12):
        group = cyclic_group(*factors)
        comm = commutant_of_characters(group)
        offdiag = comm.max_offdiagonal_mass()
        good = comm.dimension == group.order and offdiag < 1e-10 and comm.is_abelian
        ok &= good
        cases.append(
            {
                "factors": list(factors),
                "order": group.order,
                "commutant_dim": comm.dimension,
                "offdiagonal_mass": offdiag,
                "ok": good,
            }
        )
    return {"suite": "annex2-abelian-le-12", "cases": len(cases), "passed": ok, "detail": cases}


def _suite_multiplier(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    worst_recon = 0.0
    worst_psi = 0.0
    worst_adj = 0.0
    for factors in [(5,), (8,), (2, 2, 3)]:
        group = cyclic_group(*factors)
        n = group.order
        diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = np.diag(diag)
        psi1 = np.ones(n)
        psi2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi2 += 2.0 * np.sign(psi2.real) + 2j  # keep away from zero
        a1 = multiplier_of(m, psi1, group)
        a2 = multiplier_of(m, psi2, group)
        worst_recon = max(worst_recon, float(np.abs(np.diag(a1) - m).max()))
        worst_psi = max(worst_psi, float(np.abs(a1 - a2).max()))
        aadj = multiplier_of(m.conj().T, psi1, group)
        worst_adj = max(worst_adj, float(np.abs(aadj - np.conj(a1)).max()))
    ok = worst_recon < 1e-12 and worst_psi < 1e-10 and worst_adj < 1e-12
    return {
        "suite": "annex2-multiplier",
        "reconstruction": worst_recon,
        "psi_independence": worst_psi,
        "adjoint_conjugation": worst_adj,
        "passed": ok,
    }


def _suite_polar(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    group = cyclic_group(6)
    chars = [np.diag(c) for c in characters(group)]
    worst_recon = 0.0
    worst_comm = 0.0
    for _ in range(10):
        diag = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        m = np.diag(diag)
        u, p = polar_decompose(m)
        worst_recon = max(worst_recon, float(np.abs(m - u @ p).max()))
        for d in chars:
            worst_comm = max(
                worst_comm,
                float(np.abs(u @ d - d @ u).max()),
                float(np.abs(p @ d - d @ p).max()),
            )
    ok = worst_recon < 1e-10 and worst_comm < 1e-8
    return {
        "suite": "annex2-polar",
        "reconstruction": worst_recon,
        "commutation_propagation": worst_comm,
        "passed": ok,
    }


def _suite_biregular(seed: int) -> dict:
    expected = {"S3": 3, "Q8": 5, "D4": 5}
    detail = {}
    ok = True
    for group in (symmetric_s3(), quaternion_q8(), dihedral_d4()):
        comm = commutant_of_set(biregular_action(group))
        classes = group.conjugacy_class_count()
        res = resolvent_normality_check(
            class_function_convolution(group, seed), biregular_action(group)
        )
        good = (
            comm.dimension == expected[group.name]
            and classes == expected[group.name]
            and comm.is_abelian
            and res.passed
        )
        ok &= good
        detail[group.name] = {
            "commutant_dim": comm.dimension,
            "conjugacy_classes": classes,
            "abelian": comm.is_abelian,
            "resolvent_normality_defect": res.normality_defect,
            "ok": good,
        }
    return {"suite": "annex1-biregular", "passed": ok, "detail": detail}


def _suite_resolvent_z8(seed: int) -> dict:
    group = cyclic_group(8)
    action = [np.diag(c) for c in characters(group)]
    _require_abelian_commutant(action)
    rng = np.random.default_rng(seed)
    worst = 0.0
    min_sv = np.inf
    for _ in range(50):
        m = np.diag(rng.standard_normal(8))
        rep = _resolvent_report(m, action)
        worst = max(worst, rep.normality_defect)
        min_sv = min(min_sv, rep.sv_min_plus, rep.sv_min_minus)
    ok = worst < 1e-8 and min_sv > 1e-8
    return {
        "suite": "annex1-resolvent-z8",
        "cases": 50,
        "worst_normality_defect": worst,
        "min_singular_value": float(min_sv),
        "passed": ok,
    }


def _key_quantity(report: dict) -> str:
    """The one-line gist of a suite report, for the log."""
    name = report["suite"]
    if name == "annex2-abelian-le-12":
        return "commutant dims " + ",".join(str(c["commutant_dim"]) for c in report["detail"])
    if name == "annex1-biregular":
        return "commutant dims " + ", ".join(
            f"{g}:{d['commutant_dim']}" for g, d in report["detail"].items()
        )
    if name == "annex1-resolvent-z8":
        return (
            f"worst defect {report['worst_normality_defect']:.2e}, "
            f"min singular value {report['min_singular_value']:.3f}"
        )
    worst = max(v for v in report.values() if isinstance(v, float))
    return f"worst defect {worst:.2e}"


def run_sandbox(selection: Sequence[str], seed: int = 0) -> dict:
    """Run the named suites.

    The request is checked before any suite runs: an unknown suite name
    raises KeyError, a negative seed ValueError.
    """
    for name in selection:
        if name not in SUITE_NAMES:
            raise KeyError(f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    reports = []
    for name in selection:
        start = time.perf_counter()
        report = run_suite(name, seed=seed)
        log.info(
            "sandbox suite %s: %s in %.3f s, %s",
            name,
            "passed" if report["passed"] else "FAILED",
            time.perf_counter() - start,
            _key_quantity(report),
        )
        reports.append(report)
    return {"passed": all(r["passed"] for r in reports), "suites": reports}
