"""Acceptance suite: every gate at its pinned tolerance, one line per gate.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math

import numpy as np
import pytest

from loctrace import (
    build_fourier,
    characters,
    commutant_of_characters,
    commutant_of_set,
    cyclic_group,
    make_grid,
    multiplier_of,
    resolvent_normality_check,
)
from loctrace.kernels import selfdual_gaussian
from loctrace.sandbox import (
    abelian_presentations_up_to,
    biregular_action,
    dihedral_d4,
    quaternion_q8,
    symmetric_s3,
)
from loctrace.cutoff_trace import TraceComputation, asymptotic_fit, gate_reports
from oracles import KernelOperator, adjoint, compose, hs_inner, trace


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_route_agreement(comp_r, comp_h):
    lams = (2.0, 4.0, 8.0, 16.0)
    worst_r = max(
        abs(comp_r.route_a(l) - comp_r.route_b(l)) / abs(comp_r.route_b(l)) for l in lams
    )
    worst_h = max(
        abs(comp_h.route_a(l) - comp_h.route_b(l)) / abs(comp_h.route_b(l)) for l in lams
    )
    _report(
        "criterion 1 route agreement",
        worst_r < 1e-3 and worst_h < 5e-3,
        f"R worst {worst_r:.2e} (tol 1e-3), H worst {worst_h:.2e} (tol 5e-3)",
    )


def test_criterion_2_full_matrix_oracle(comp_r, signed_lab):
    lams = (2.0, 4.0, 8.0)
    worst = max(
        abs(signed_lab.trace_route_c(l) - comp_r.route_b(l)) / abs(comp_r.route_b(l))
        for l in lams
    )
    cyc = signed_lab.cyclicity_defect(2.0)
    _report(
        "criterion 2 full-matrix oracle",
        worst < 1e-3 and cyc < 1e-8,
        f"|C-B|/|B| worst {worst:.2e} (tol 1e-3), cyclicity {cyc:.2e} (tol 1e-8)",
    )


def test_criterion_3_asymptotic_lemma(comp_r, standard_bump, grid_r2048,
                                      backend_h, standard_bump_wide_h):
    # R backend, pinned grid
    lams = (2.0, 4.0, 8.0, 16.0, 32.0)
    reports = [comp_r.report(l) for l in lams]
    l1 = standard_bump.l1_mult_norm(grid_r2048.step)
    sandwich_ok = all(
        abs(r.t_route_b - r.asymptote) <= r.error_bound + 10.0 * r.unitarity_defect * l1
        for r in reports
    )
    kept = gate_reports(reports)
    slope, intercept, _ = asymptotic_fit(kept)
    cond = comp_r.conductor_value()
    slope_err = abs(slope - standard_bump.value_at_1) / standard_bump.value_at_1
    inter_err = abs(intercept + cond) / abs(cond)
    # H backend: the asymptotic regime needs the wide grid
    comp_hw = standard_bump_wide_h
    reports_h = [comp_hw.report(l) for l in (8.0, 16.0, 32.0, 64.0, 128.0)]
    l1h = comp_hw.f.l1_mult_norm(comp_hw.grid.step)
    sandwich_h = all(
        abs(r.t_route_b - r.asymptote) <= r.error_bound + 10.0 * r.unitarity_defect * l1h
        for r in reports_h
    )
    kept_h = gate_reports(reports_h)
    slope_h, inter_h, _ = asymptotic_fit(kept_h)
    cond_h = comp_hw.conductor_value()
    s_err_h = abs(slope_h - comp_hw.f.value_at_1) / comp_hw.f.value_at_1
    i_err_h = abs(inter_h + cond_h) / abs(cond_h)
    ok = (
        sandwich_ok
        and sandwich_h
        and slope_err < 0.01
        and inter_err < 0.01
        and s_err_h < 0.01
        and i_err_h < 0.01
    )
    _report(
        "criterion 3 asymptotic lemma",
        ok,
        f"R slope err {slope_err:.2e}, intercept err {inter_err:.2e}; "
        f"H slope err {s_err_h:.2e}, intercept err {i_err_h:.2e}; sandwich "
        f"{'holds' if sandwich_ok and sandwich_h else 'violated'} (tols 1%)",
    )


def test_criterion_4_conductor_inversion(fourier_r2048, asymmetric_bump):
    comp = TraceComputation(asymmetric_bump, fourier_r2048)
    h_f = comp.conductor_value(invert=True)
    h_if = comp.conductor_value(invert=False)
    gap = abs(h_f - h_if)
    tol = 1e-6 * max(1.0, abs(h_f))
    _report(
        "criterion 4 conductor commutes with inversion",
        gap < tol,
        f"|H(f)(1) - H(I f)(1)| = {gap:.2e} (tol {tol:.2e}, asymmetric bump)",
    )


def test_criterion_5_fourier_certification(fourier_r2048, fourier_h1024, backend_r):
    d_r = fourier_r2048.unitarity_defect
    d_h = fourier_h1024.unitarity_defect
    # gaussian fixed points at the build_fourier tolerances
    t_r = fourier_r2048.grid.t
    g_r = selfdual_gaussian("R", t_r)
    err_r = np.abs(fourier_r2048.apply(g_r) - g_r).max()
    t_h = fourier_h1024.grid.t
    g_h = selfdual_gaussian("H", t_h)
    w = fourier_h1024.grid.w_add
    err_h = math.sqrt(
        np.sum(w * (fourier_h1024.apply(g_h) - g_h) ** 2) / np.sum(w * g_h**2)
    )
    # trace-norm stability of the cutoff-compressed transform kernel
    from loctrace import kernel_values

    tns = []
    for n in (1024, 2048):
        g = make_grid(backend_r, math.log(1e4), n)
        iL = int(np.searchsorted(g.t, 4.0 * (1 + 1e-12)) - 1)
        tt, ww = g.t[: iL + 1], g.w_add[: iL + 1]
        sym = np.sqrt(np.outer(ww, ww)) * kernel_values("R", np.outer(tt, tt))
        tns.append(float(np.linalg.svd(sym, compute_uv=False).sum()))
    tn_change = abs(tns[1] - tns[0]) / tns[0]
    ok = d_r < 1e-6 and d_h < 1e-3 and err_r < 1e-6 and err_h < 1e-3 and tn_change < 0.05
    _report(
        "criterion 5 transform certification",
        ok,
        f"defect R {d_r:.2e} (tol 1e-6), H {d_h:.2e} (tol 1e-3); gaussian R "
        f"{err_r:.2e} (tol 1e-6), H relL2 {err_h:.2e} (tol 1e-3); trace-norm "
        f"change {tn_change:.3f} (tol 0.05)",
    )


def test_criterion_6_hs_identity(backend_r):
    grid = make_grid(backend_r, 1.0, 20)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a = KernelOperator(
            grid,
            rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)),
            "additive",
        )
        b = KernelOperator(
            grid,
            rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)),
            "additive",
        )
        lhs = hs_inner(a, b)
        rhs = trace(compose(adjoint(a), b))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report(
        "criterion 6 Hilbert-Schmidt identity",
        worst < 1e-10,
        f"worst relative gap {worst:.2e} over 100 random 20x20 pairs (tol 1e-10)",
    )


def test_criterion_7_abelian_commutants():
    rng = np.random.default_rng(77)
    worst_off = 0.0
    dims_ok = True
    for factors in abelian_presentations_up_to(12):
        group = cyclic_group(*factors)
        comm = commutant_of_characters(group)
        dims_ok &= comm.dimension == group.order
        worst_off = max(worst_off, comm.max_offdiagonal_mass())
    # multiplier extraction
    g8 = cyclic_group(8)
    diag = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m = np.diag(diag)
    psi2 = rng.standard_normal(8) + 1j * rng.standard_normal(8) + 3.0
    a1 = multiplier_of(m, np.ones(8), g8)
    a2 = multiplier_of(m, psi2, g8)
    recon = float(np.abs(np.diag(a1) - m).max())
    psi_gap = float(np.abs(a1 - a2).max())
    adj_gap = float(np.abs(multiplier_of(m.conj().T, np.ones(8), g8) - np.conj(a1)).max())
    ok = dims_ok and worst_off < 1e-10 and recon < 1e-12 and psi_gap < 1e-10 and adj_gap < 1e-12
    _report(
        "criterion 7 abelian commutant shadow",
        ok,
        f"28 groups: dims {'ok' if dims_ok else 'BAD'}, off-diag {worst_off:.2e} "
        f"(tol 1e-10); multiplier recon {recon:.2e} (tol 1e-12), psi-independence "
        f"{psi_gap:.2e} (tol 1e-10), adjoint {adj_gap:.2e}",
    )


def test_criterion_8_selfadjointness_shadow():
    g8 = cyclic_group(8)
    action = [np.diag(c) for c in characters(g8)]
    rng = np.random.default_rng(88)
    worst = 0.0
    min_sv = np.inf
    for _ in range(50):
        rep = resolvent_normality_check(np.diag(rng.standard_normal(8)), action)
        worst = max(worst, rep.normality_defect)
        min_sv = min(min_sv, rep.sv_min_plus, rep.sv_min_minus)
    dims = {}
    abelian = True
    from loctrace.sandbox import class_function_convolution

    for group in (symmetric_s3(), quaternion_q8(), dihedral_d4()):
        comm = commutant_of_set(biregular_action(group))
        dims[group.name] = comm.dimension
        abelian &= comm.is_abelian
        rep = resolvent_normality_check(
            class_function_convolution(group, seed=1), biregular_action(group)
        )
        worst = max(worst, rep.normality_defect)
        min_sv = min(min_sv, rep.sv_min_plus, rep.sv_min_minus)
    ok = (
        worst < 1e-8
        and min_sv > 1e-8
        and dims == {"S3": 3, "Q8": 5, "D4": 5}
        and abelian
    )
    _report(
        "criterion 8 self-adjointness shadow",
        ok,
        f"worst ||RR*-R*R|| {worst:.2e} (tol 1e-8), min sv {min_sv:.2f}, "
        f"biregular dims {dims} (expect S3:3 Q8:5 D4:5), abelian {abelian}",
    )


def test_criterion_9_determinism(tmp_path):
    from loctrace.cli import run_verify

    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    r1 = run_verify(d1)
    r2 = run_verify(d2)
    assert r1["passed"] and r2["passed"], "verify gates failed"
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    identical = all((d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names)
    _report(
        "criterion 9 determinism",
        identical,
        f"two verify runs, {len(names)} artifacts byte-identical",
    )


@pytest.fixture(scope="module")
def standard_bump_wide_h(backend_h, standard_bump):
    grid = make_grid(backend_h, math.log(1e7), 4096)
    return TraceComputation(standard_bump, build_fourier(grid))
