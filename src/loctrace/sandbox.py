"""Finite-dimensional commutant laboratory.

Brute-force verifiable shadows of the operator-theoretic mechanisms used in
the trace study: on finite abelian groups, every operator commuting with all
character multiplications is diagonal and is recovered by a multiplier; polar
factors inherit commutation; and for a symmetric operator commuting with a
group action whose commutant is abelian, the resolvent is normal and the
shifted operators have full range.  Nonabelian groups enter through their
biregular action, the image of G x G by all L_g R_h, whose commutant is the
abelian algebra of class-function convolutions.

Everything here is exact dense linear algebra on stacked arrays.  A
commutant is the range of the Reynolds operator K = (1/k) sum A (x) conj(A)
of the k operators of a group image: an orthogonal projector of rank
(1/k) sum |tr A|^2, the character count (Serre, Linear Representations of
Finite Groups, 1977, sections 2.3 and 2.6).  K is exactly 0 off the blocks
that pair two connected components of the operators' union support, so only
those blocks are formed, one small GEMM per pair of component sizes (a
character action has n^2 blocks of size 1), and a real group image stays
real.  One stacked Hermitian eigh per pair of component sizes gives an
orthonormal basis, the blocks' eigenvalue-1 eigenvectors.  Keeping every
GEMM below the size at which OpenBLAS splits it across threads, rather than
setting a thread count, spares a caller's BLAS settings and the cost of a
busy-waiting second thread (``commutant_of_set``).  Inputs that are not a
group image are refused: an operator with a non-finite entry or that is not
unitary, a K that is not Hermitian (the set is not closed under inverses) or
a K with an eigenvalue more than RANK_TOL from 0 and 1 (not closed under
products).  The eigenvalue-1 count must equal the character count.  A DEBUG
line per commutant gives the operator count, n, the dimension, the character
count, the number of Reynolds blocks, the size of the largest eigh and the
worst eigenvalue distance from {0, 1}.  The commutation-system SVD oracles
live in the test suite.
"""

from __future__ import annotations

import itertools
import logging
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fourier import log_stage, standard_normals

log = logging.getLogger("loctrace")

RANK_TOL = 1e-10
# largest ||R R* - R* R|| of a resolvent the sandbox accepts as normal
NORMALITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


@dataclass
class FiniteGroup:
    """Finite group as cyclic factors (abelian) or an explicit table.

    table[i, j] is the index of element_i * element_j.  Explicit tables are
    checked for the group axioms on construction, which also fixes the
    identity and every element's inverse.  Given both, the table must be the
    cyclic factors' own, since ``characters`` reads the factors.
    """

    order: int
    cyclic_factors: Optional[tuple[int, ...]] = None
    table: np.ndarray = field(default=None, repr=False)
    name: str = ""
    _identity: int = field(init=False, repr=False)
    _inverses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cyclic = None if self.cyclic_factors is None else _cyclic_table(self.cyclic_factors)
        if self.table is None:
            if cyclic is None:
                raise ValueError("need cyclic factors or an explicit table")
            self.table = cyclic
        elif cyclic is not None and not np.array_equal(self.table, cyclic):
            raise ValueError(f"table is not the table of cyclic factors {self.cyclic_factors}")
        self.table = np.asarray(self.table, dtype=int)
        if self.table.shape != (self.order, self.order):
            raise ValueError("table shape must be (order, order)")
        self._identity, self._inverses = _check_group_axioms(self.table)

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def inverse(self, g: int) -> int:
        return int(self._inverses[g])

    @property
    def identity(self) -> int:
        return self._identity

    def conjugacy_class(self, g: int) -> set[int]:
        """The conjugation orbit {h g h^-1 : h in G}."""
        return set(self.table[self.table[:, g], self._inverses].tolist())

    def conjugacy_class_count(self) -> int:
        return len({frozenset(self.conjugacy_class(g)) for g in range(self.order)})


def _cayley_table(elements: Sequence, multiply) -> np.ndarray:
    """table[i, j] is the index in ``elements`` of multiply(elements[i], elements[j])."""
    index = {x: i for i, x in enumerate(elements)}
    return np.array([[index[multiply(a, b)] for b in elements] for a in elements], dtype=int)


def _coordinates(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix coordinates of the elements 0..order-1 and the radix strides.

    Row x of the (order, len(factors)) coordinates is x written in the radices
    ``factors``, the last one fastest, as ``itertools.product`` enumerates
    them; ``coords @ strides`` is the element index again.
    """
    radices = np.array(factors, dtype=int)
    strides = np.ones(len(factors), dtype=int)
    strides[:-1] = np.cumprod(radices[:0:-1])[::-1]
    order = int(np.prod(radices))
    return (np.arange(order)[:, None] // strides) % radices, strides


def _cyclic_table(factors: Sequence[int]) -> np.ndarray:
    factors = tuple(int(n) for n in factors)
    if any(n < 1 for n in factors):
        raise ValueError("cyclic factors must be positive")
    coords, strides = _coordinates(factors)
    return ((coords[:, None, :] + coords[None, :, :]) % np.array(factors, dtype=int)) @ strides


def _check_group_axioms(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Refuse a table that is not a group; return its identity and the inverses."""
    n = table.shape[0]
    if not ((table >= 0).all() and (table < n).all()):
        raise ValueError("table entries out of range")
    elements = np.arange(n)
    two_sided = (table == elements).all(axis=1) & (table.T == elements).all(axis=1)
    if not two_sided.any():
        raise ValueError("table has no two-sided identity")
    ident = int(np.argmax(two_sided))
    hits = table == ident
    has_inverse = hits.any(axis=1)
    if not has_inverse.all():
        raise ValueError(f"element {int(np.argmin(has_inverse))} has no inverse")
    # (ab)c against a(bc) for every triple at once
    if not np.array_equal(table[table], table[:, table]):
        raise ValueError("table is not associative")
    return ident, np.argmax(hits, axis=1)


def cyclic_group(*factors: int, name: str = "") -> FiniteGroup:
    order = int(np.prod(factors)) if factors else 1
    return FiniteGroup(order=order, cyclic_factors=tuple(factors), name=name or f"Z{factors}")


def symmetric_s3() -> FiniteGroup:
    elems = list(itertools.permutations(range(3)))
    table = _cayley_table(elems, lambda p, q: tuple(p[q[k]] for k in range(3)))
    return FiniteGroup(order=6, table=table, name="S3")


def dihedral_d4() -> FiniteGroup:
    # elements (k, e): rotation^k * flip^e, flip conjugation inverts rotations
    elems = [(k, e) for e in (0, 1) for k in range(4)]

    def multiply(a, b):
        (k, e), (kp, ep) = a, b
        return (k + (kp if e == 0 else -kp)) % 4, (e + ep) % 2

    return FiniteGroup(order=8, table=_cayley_table(elems, multiply), name="D4")


def quaternion_q8() -> FiniteGroup:
    # the integer unit quaternions (a, b, c, d) = a + bi + cj + dk: 1, i, j, k, then their negatives
    elems = [tuple(s * int(m == l) for m in range(4)) for s in (1, -1) for l in range(4)]

    def hamilton(p, q):
        (a, b, c, d), (e, f, g, h) = p, q
        return (
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    return FiniteGroup(order=8, table=_cayley_table(elems, hamilton), name="Q8")


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
    coords, _ = _coordinates(group.cyclic_factors)
    phase = (coords[:, None, :] * coords[None, :, :] / np.array(group.cyclic_factors)).sum(axis=-1)
    return np.exp(2j * np.pi * phase)


@dataclass
class CommutantBasis:
    # (dimension, n, n): an orthonormal basis of the commutant
    basis: np.ndarray
    is_abelian: bool
    character_count: int
    # blocks of the Reynolds projector K, one per pair of components of the
    # union support, one eigenproblem each
    blocks: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def max_offdiagonal_mass(self) -> float:
        offdiagonal = ~np.eye(self.basis.shape[1], dtype=bool)
        return float(np.abs(self.basis[:, offdiagonal]).max(initial=0.0))


def _diagonals(rows: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack of diagonal matrices whose diagonals are the k rows."""
    k, n = rows.shape
    out = np.zeros((k, n, n), dtype=rows.dtype)
    out[:, np.arange(n), np.arange(n)] = rows
    return out


def _operator_stack(operators: Sequence[np.ndarray]) -> np.ndarray:
    """The operators as one (k, n, n) stack of finite, non-empty squares.

    The stack is complex if any operator is complex and float otherwise, so
    a real group image (a permutation action) keeps every product real.
    """
    if len(operators) == 0:
        raise ValueError("commutant_of_set needs at least one operator")
    try:
        stack = np.asarray(operators)
    except ValueError:  # ragged shapes; the loop below names the misfit
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
        ops = [np.asarray(a) for a in operators]
        for k, a in enumerate(ops):
            if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
                raise ValueError(
                    f"operator #{k} has shape {a.shape}; need a non-empty square matrix"
                )
            if a.shape != ops[0].shape:
                raise ValueError(
                    f"operator #{k} has shape {a.shape}, operator #0 has {ops[0].shape}"
                )
        raise ValueError(f"operators of shapes {[a.shape for a in ops]} do not stack")
    stack = stack.astype(complex if np.iscomplexobj(stack) else float, copy=False)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"operator #{np.argmin(finite)} has a non-finite entry")
    return stack


def _blocks(matrix: np.ndarray) -> np.ndarray:
    """Block label of each index of a square matrix: the least index of its
    connected component.

    Indices i and j are joined when matrix[i, j] or matrix[j, i] is exactly
    nonzero, so the matrix restricted to a component, with its indices in
    ascending order, is one diagonal block of a permutation similar matrix
    and every entry outside the blocks is 0.  Label propagation: each index
    takes the least label among itself and its neighbours, then the label of
    that label, until nothing changes.
    """
    size = len(matrix)
    pattern = (matrix != 0) | (matrix != 0).T
    labels = np.arange(size)
    while True:
        nxt = np.minimum(labels, np.where(pattern, labels, size).min(axis=1))
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return nxt
        labels = nxt


def _components(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each block of ``_blocks`` labels, one (blocks, s) array
    per block size s, ascending in s; each row ascending, rows in label order."""
    # labels and sizes are small nonnegative integers: bincount, not np.unique,
    # whose masked-array check would load numpy.ma mid-run
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [
        members[starts[sizes == s][:, None] + np.arange(s)]
        for s in np.flatnonzero(np.bincount(sizes))
    ]


def _reynolds_blocks(stack: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The nonzero blocks of the Reynolds projector K of a (k, n, n) stack.

    K[(i, a), (j, b)] = (1/k) sum A[i, j] conj(A[a, b]) is exactly 0 unless
    i, j lie in one component C_p of the stack's union support and a, b in
    one component C_q (``_blocks``), so K is block diagonal with one block
    (1/k) sum A[C_p, C_p] (x) conj(A[C_q, C_q]) per pair of components.  Per
    pair of component sizes (s, t): the (P Q, s t, s t) stack of those
    blocks, from one (P s^2) x k x (Q t^2) GEMM, and the (P Q, s t) row-major
    vec indices i n + a of their rows (i, a).
    """
    k, n, _ = stack.shape
    groups = _components(_blocks((stack != 0).any(axis=0)))
    # each operator's entries inside the components, component by component
    inside = [stack[:, idx[:, :, None], idx[:, None, :]].reshape(k, -1) for idx in groups]
    out = []
    for rows, x in zip(groups, inside):
        for cols, y in zip(groups, inside):
            (p, s), (q, t) = rows.shape, cols.shape
            block = (x.T @ y.conj() / k).reshape(p, s, s, q, t, t)
            block = block.transpose(0, 3, 1, 4, 2, 5).reshape(p * q, s * t, s * t)
            where = rows[:, None, :, None] * n + cols[None, :, None, :]
            out.append((block, where.reshape(p * q, s * t)))
    return out


def commutant_of_set(operators: Sequence[np.ndarray]) -> CommutantBasis:
    """Basis of all matrices commuting with every operator, plus abelianness.

    The operators must be one or more finite unitary square matrices of one
    common size, closed under products and inverses (the image of a finite
    group).  They are handled as one (k, n, n) stack, real when every
    operator is real.  The commutant is the eigenvalue-1 eigenspace of the
    Reynolds projector K = (1/k) sum A (x) conj(A) on row-major vec(X).  K is
    formed only on its nonzero blocks, one per pair of connected components
    of the union support (``_reynolds_blocks``), with one GEMM per pair of
    component sizes: n x k x n for a character action, where all of K would
    be n^2 x k x n^2.  The blocks are refused unless they are Hermitian with
    every eigenvalue within RANK_TOL of 0 or 1, and the rank must equal the
    character count (1/k) sum |tr A|^2.  One stacked eigh per pair of
    component sizes diagonalises the blocks, so ``blocks``, the number of
    eigenproblems, is the number of pairs of components: n^2 for a character
    action, 1 for a transitive permutation image or a dense image, one per
    pair of its summands' components for a direct sum.

    Every GEMM here stays below the size at which OpenBLAS splits a call
    across threads (measured on OpenBLAS 0.3.31 with 2 threads: M N K of
    about 2^16 for a complex GEMM, 2^20 for a real one) on every sandbox
    suite; a split call costs a busy-waiting second thread, and in its
    scheduling spells about 15 ms against tens of microseconds.  The largest
    eigh the sandbox suites run is the real 64 x 64 block of a biregular
    image of order 8, which runs on one thread.
    """
    stack = _operator_stack(operators)
    k, n, _ = stack.shape
    unitarity = np.abs(stack @ stack.conj().transpose(0, 2, 1) - np.eye(n)).max(axis=(1, 2))
    bad = np.flatnonzero(unitarity > RANK_TOL)
    if bad.size:
        raise ValueError(
            f"operator #{bad[0]} is not unitary (|AA* - I| = {unitarity[bad[0]]:.2e})"
        )
    reynolds = _reynolds_blocks(stack)
    asym = max(float(np.abs(b - b.conj().swapaxes(1, 2)).max()) for b, _ in reynolds)
    if asym > RANK_TOL:
        raise ValueError(
            f"the averaged action K is not Hermitian (|K - K*| = {asym:.2e}); "
            "the operators are not closed under inverses"
        )
    values, parts = [], []
    for block, where in reynolds:
        w, v = np.linalg.eigh(block)
        # the eigenvalue-1 eigenvectors, each scattered into vec(X)
        owner, col = np.nonzero(w > 0.5)
        fixed = np.zeros((len(owner), n * n), dtype=stack.dtype)
        fixed[np.arange(len(owner))[:, None], where[owner]] = v[owner, :, col]
        values.append(w.ravel())
        parts.append(fixed)
    w, fixed = np.concatenate(values), np.concatenate(parts)
    blocks = sum(len(block) for block, _ in reynolds)
    largest = max(block.shape[-1] for block, _ in reynolds)
    gap = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
    if gap > RANK_TOL:
        raise ValueError(
            f"the averaged action K is not idempotent (an eigenvalue lies {gap:.2e} "
            "from {0, 1}); the operators are not closed under products"
        )
    count = float((np.abs(np.einsum("kii->k", stack)) ** 2).sum()) / k
    chars = int(round(count))
    if abs(count - chars) > RANK_TOL:
        raise ValueError(f"the character count {count!r} is not an integer")
    dim = len(fixed)
    if dim != chars:
        raise ValueError(f"eigenvalue-1 count {dim} differs from the character count {chars}")
    log.debug(
        "commutant: %d operators, n %d, dimension %d, character count %d, "
        "%d Reynolds blocks, largest eigh %d, worst eigenvalue distance from {0, 1} %.3e",
        k, n, dim, chars, blocks, largest, gap,
    )
    basis = fixed.reshape(dim, n, n)
    # a commutative *-algebra of n x n matrices has dimension at most n, a
    # bound that also keeps the dim^2 products within n^4 entries
    abelian = dim <= n
    if abelian:
        products = basis[:, None] @ basis[None, :]
        abelian = bool(np.abs(products - products.transpose(1, 0, 2, 3)).max() <= 1e-10)
    return CommutantBasis(basis=basis, is_abelian=abelian, character_count=chars, blocks=blocks)


def commutant_of_characters(group: FiniteGroup) -> CommutantBasis:
    """Commutant of the character multiplication action."""
    return commutant_of_set(_diagonals(characters(group)))


# ---------------------------------------------------------------------------
# multipliers, polar decomposition, resolvent normality
# ---------------------------------------------------------------------------


def multiplier_of(m: np.ndarray, psi: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """Recover the multiplier a(x) = (M psi)(x) / psi(x) of a character-commuting M."""
    m = np.asarray(m, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    for name, a in (("M", m), ("psi", psi)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has a non-finite entry")
    if np.any(psi == 0):
        raise ValueError("psi must be nowhere zero")
    ds = _diagonals(characters(group))
    defect = np.abs(m @ ds - ds @ m).max(axis=(1, 2))
    bad = np.flatnonzero(defect > 1e-10)
    if bad.size:
        k = bad[0]
        raise ValueError(f"operator does not commute with character #{k} (defect {defect[k]:.2e})")
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


def resolvent_normality_check(m: np.ndarray, action: Sequence[np.ndarray]) -> ResolventReport:
    """Forms R = (M + i)^(-1) and verifies the self-adjointness mechanism.

    Preconditions (violations raised individually): M and the action
    finite, M symmetric, M commutes with every action element (checked on
    the whole action stack at once), and the action's commutant is abelian.
    The report carries ||R R* - R* R||, and the smallest singular values of
    (M +- i), which must be bounded away from zero (full range).
    """
    report = _resolvent_report(m, action)
    if not commutant_of_set(action).is_abelian:
        raise ValueError("the commutant of the action is not abelian")
    return report


def _resolvent_report(m: np.ndarray, action: Sequence[np.ndarray]) -> ResolventReport:
    """The M half of resolvent_normality_check, over a stack of M (leading axes) too: its
    preconditions at each M's own scale, the largest defect and least singular values."""
    m = np.asarray(m, dtype=complex)
    ops = np.asarray(action)
    if not np.isfinite(m).all():
        raise ValueError("M has a non-finite entry")
    finite = np.isfinite(ops).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"action element #{np.argmin(finite)} has a non-finite entry")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if (np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) > 1e-10 * scale).any():
        raise ValueError("M is not symmetric")
    stacked = m[..., None, :, :]
    apart = np.abs(stacked @ ops - ops @ stacked).max(axis=(-2, -1)) > 1e-10 * scale[..., None]
    bad = np.flatnonzero(apart.reshape(-1, len(ops)).any(axis=0))
    if bad.size:
        raise ValueError(f"M does not commute with action element #{bad[0]}")
    eye = np.eye(m.shape[-1])
    r = np.linalg.inv(m + 1j * eye)
    radj = r.conj().swapaxes(-2, -1)
    defect = float(np.linalg.norm(r @ radj - radj @ r, axis=(-2, -1)).max())
    svp = float(np.linalg.svd(m + 1j * eye, compute_uv=False)[..., -1].min())
    svm = float(np.linalg.svd(m - 1j * eye, compute_uv=False)[..., -1].min())
    return ResolventReport(
        normality_defect=defect,
        sv_min_plus=svp,
        sv_min_minus=svm,
        passed=defect < NORMALITY_TOL and svp > 1e-8 and svm > 1e-8,
    )


# ---------------------------------------------------------------------------
# biregular action
# ---------------------------------------------------------------------------


def biregular_action(group: FiniteGroup) -> np.ndarray:
    """The image of G x G: every L_g R_h, a (|G|^2, |G|, |G|) stack of permutations.

    With (L_g phi)(x) = phi(g^-1 x) and (R_h phi)(x) = phi(x h), L_g R_h has its 1 of
    column z in row g z h^-1: one scatter over the Cayley table.  The whole image, not
    the 2|G| generators, because commutant_of_set averages over its input: over the
    generators the average (P_L + P_R)/2 is not a projector.
    """
    n = group.order
    g, h, z = np.ix_(range(n), range(n), range(n))
    image = np.zeros((n, n, n, n))
    image[g, h, group.table[group.table[g, z], group._inverses[h]], z] = 1.0
    return image.reshape(n * n, n, n)


def class_function_convolution(group: FiniteGroup, seed: int = 0) -> np.ndarray:
    """Random symmetric convolution by a class function c with c(g) = c(g^-1).

    The operator sum_g c(g) L_g has entry c(y x^-1) at (y, x): a gather over the
    Cayley table.
    """
    n = group.order
    coeff = standard_normals(random.Random(seed), n)
    # symmetrize over conjugacy and inversion so the operator is symmetric
    c = np.zeros(n)
    for g in range(n):
        orbit = group.conjugacy_class(g)
        orbit |= {group.inverse(x) for x in orbit}
        c[g] = float(np.mean([coeff[x] for x in sorted(orbit)]))
    return c[group.table[:, group._inverses]]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_abelian_le_12(seed: int) -> dict:
    # every case is a fixed group, so the seed is not used
    cases = []
    ok = True
    for factors in abelian_presentations_up_to(12):
        group = cyclic_group(*factors)
        comm = commutant_of_characters(group)
        offdiag = comm.max_offdiagonal_mass()
        good = (
            comm.dimension == group.order == comm.character_count
            and offdiag < 1e-10
            and comm.is_abelian
        )
        ok &= good
        cases.append(
            {
                "factors": list(factors),
                "order": group.order,
                "commutant_dim": comm.dimension,
                "character_count": comm.character_count,
                "offdiagonal_mass": offdiag,
                "ok": good,
            }
        )
    return {"suite": "annex2-abelian-le-12", "cases": len(cases), "passed": ok, "detail": cases}


def _suite_multiplier(seed: int) -> dict:
    rng = random.Random(seed)
    worst_recon = 0.0
    worst_psi = 0.0
    worst_adj = 0.0
    for factors in [(5,), (8,), (2, 2, 3)]:
        group = cyclic_group(*factors)
        n = group.order
        diag = standard_normals(rng, n) + 1j * standard_normals(rng, n)
        m = np.diag(diag)
        psi1 = np.ones(n)
        psi2 = standard_normals(rng, n) + 1j * standard_normals(rng, n)
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
    rng = random.Random(seed)
    group = cyclic_group(6)
    chars = _diagonals(characters(group))
    worst_recon = 0.0
    worst_comm = 0.0
    for _ in range(10):
        diag = standard_normals(rng, 6) + 1j * standard_normals(rng, 6)
        m = np.diag(diag)
        u, p = polar_decompose(m)
        worst_recon = max(worst_recon, float(np.abs(m - u @ p).max()))
        worst_comm = max(
            worst_comm,
            float(np.abs(u @ chars - chars @ u).max()),
            float(np.abs(p @ chars - chars @ p).max()),
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
        action = biregular_action(group)
        comm = commutant_of_set(action)
        classes = group.conjugacy_class_count()
        res = _resolvent_report(class_function_convolution(group, seed), action)
        good = (
            comm.dimension == expected[group.name] == comm.character_count
            and classes == expected[group.name]
            and comm.is_abelian
            and res.passed
        )
        ok &= good
        detail[group.name] = {
            "commutant_dim": comm.dimension,
            "character_count": comm.character_count,
            "conjugacy_classes": classes,
            "abelian": comm.is_abelian,
            "resolvent_normality_defect": res.normality_defect,
            "ok": good,
        }
    return {"suite": "annex1-biregular", "passed": ok, "detail": detail}


def _suite_resolvent_z8(seed: int) -> dict:
    group = cyclic_group(8)
    action = _diagonals(characters(group))
    m = np.zeros((50, 8, 8))
    m[:, range(8), range(8)] = standard_normals(random.Random(seed), 400).reshape(50, 8)
    rep = resolvent_normality_check(m, action)
    return {
        "suite": "annex1-resolvent-z8",
        "cases": 50,
        "worst_normality_defect": rep.normality_defect,
        "min_singular_value": min(rep.sv_min_plus, rep.sv_min_minus),
        "passed": rep.passed,
    }


# each suite by name, in the order a full run takes them
SUITES = {
    "annex2-abelian-le-12": _suite_abelian_le_12,
    "annex2-multiplier": _suite_multiplier,
    "annex2-polar": _suite_polar,
    "annex1-biregular": _suite_biregular,
    "annex1-resolvent-z8": _suite_resolvent_z8,
}
SUITE_NAMES = tuple(SUITES)


def _check_seed(seed: int) -> None:
    """ValueError for a negative seed: ``random.Random`` seeds from ``|seed|``, so it
    would silently repeat the draws of its absolute value."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one named verification suite; returns a JSON-ready report.  An unknown
    name raises KeyError, a negative seed ValueError."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}")
    _check_seed(seed)
    return SUITES[name](seed)


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
    """Run the named suites, each logging one INFO line (``log_stage``) with its
    verdict, key quantity and duration.

    The request is checked before any suite runs, as ``run_suite`` checks
    it: an unknown suite name raises KeyError, a negative seed ValueError.
    """
    for name in selection:
        if name not in SUITE_NAMES:
            raise KeyError(f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}")
    _check_seed(seed)
    reports = []
    for name in selection:
        start = time.perf_counter()
        report = run_suite(name, seed=seed)
        verdict = "passed" if report["passed"] else "FAILED"
        log_stage(start, "sandbox suite %s: %s, %s", name, verdict, _key_quantity(report))
        reports.append(report)
    return {"passed": all(r["passed"] for r in reports), "suites": reports}
