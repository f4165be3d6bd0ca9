"""Tests of the benchmark itself: output checks, failure counting, tracing.

    python3 -m pytest bench/selftest.py -q

Not named ``test_*.py`` so that the package's own test run does not collect
it.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import import_loctrace  # noqa: E402

import_loctrace(ROOT)

import tracer  # noqa: E402
import workloads  # noqa: E402
from loctrace import cli  # noqa: E402


def _sweep(label: str, tmp_path: Path, **changes) -> workloads.OpResult:
    cfg = copy.deepcopy(workloads.SWEEP_CONFIGS[label])
    for path, value in changes.items():
        section, key = path.split("__")
        cfg[section][key] = value
    return workloads.run_op(workloads.sweep_op(label, cfg, tmp_path))


@pytest.mark.parametrize(
    "label, changes, error",
    [
        ("C", {"grid__n": 64}, "FourierBuildError"),
        ("R", {"route_c__n_signed": 64, "route_c__max_lambda": 8.0}, "ValueError"),
    ],
)
def test_known_bad_config_counts_as_one_failure(tmp_path, label, changes, error):
    results = [_sweep(label, tmp_path, **changes)]
    assert sum(not r.ok for r in results) == 1
    assert results[0].problems[0].startswith(error)


def test_good_sweep_passes_its_checks(tmp_path):
    res = _sweep("C", tmp_path)
    assert res.ok, res.problems
    assert 0.0 < res.gate_ratio < 1.0


def test_narrow_h_is_judged_by_the_verify_gate_set(tmp_path):
    res = _sweep("H", tmp_path)
    summary = json.loads((tmp_path / "summary_H.json").read_text())
    assert not summary["passed"]  # its fit gates are out of regime by design
    assert res.ok, res.problems


def test_sweep_check_rejects_nan_and_missing_rows(tmp_path):
    cfg = copy.deepcopy(workloads.SWEEP_CONFIGS["C"])
    summary = cli.run_trace_sweep(copy.deepcopy(cfg), tmp_path)
    assert workloads.check_sweep(cfg, summary)[0] == []
    bad = copy.deepcopy(summary)
    bad["rows"][1]["t_route_B"] = math.nan
    assert any("non-finite" in p for p in workloads.check_sweep(cfg, bad)[0])
    bad = copy.deepcopy(summary)
    del bad["rows"][-1]
    assert any("do not match" in p for p in workloads.check_sweep(cfg, bad)[0])


def test_sandbox_check_requires_the_known_dimensions():
    abelian = [
        {"factors": [n], "order": n, "commutant_dim": n, "ok": True} for n in range(1, 29)
    ]
    biregular = {g: {"commutant_dim": d} for g, d in workloads.BIREGULAR_DIMS.items()}
    suites = [{"suite": s, "passed": True} for s in workloads.SUITES]
    suites[0]["detail"] = abelian
    suites[3]["detail"] = biregular
    report = {"passed": True, "suites": suites}
    assert workloads.check_sandbox(report)[0] == []
    bad = copy.deepcopy(report)
    bad["suites"][3]["detail"]["Q8"]["commutant_dim"] = 4
    assert workloads.check_sandbox(bad)[0] == ["biregular Q8: commutant dim 4 != 5"]
    bad = copy.deepcopy(report)
    bad["suites"][0]["detail"][5]["commutant_dim"] = 5
    assert len(workloads.check_sandbox(bad)[0]) == 1


def test_same_seed_gives_the_same_inputs():
    def inputs(seed, index):
        return workloads.pass_inputs("sweep-ab", seed, index)

    assert inputs(3, 0) == inputs(3, 0)
    assert inputs(3, 0) != inputs(3, 1) != inputs(4, 1)


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(10_000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tr.layer_totals()
    assert totals["inner"]["calls"] == 3
    own = tr.self_times()
    assert own[0] == pytest.approx(
        (tr.spans[0].end - tr.spans[0].start) - sum(s.end - s.start for s in tr.spans[1:])
    )
    assert tr.root_time() == totals["outer"]["busy_s"]


def test_missing_hook_target_is_absent_and_install_restores():
    tr = tracer.Tracer()
    hooks = tracer.HOOKS + (tracer.Hook("gone.layer", ("loctrace.cli:NoSuchClass.method",)),)
    before = cli.run_trace_sweep
    restore, absent = tracer.install(tr, hooks)
    try:
        assert absent == ["gone.layer"]
        assert cli.run_trace_sweep is not before
    finally:
        restore()
    assert cli.run_trace_sweep is before


def test_traced_sweep_records_the_layers(tmp_path):
    tr = tracer.Tracer()
    restore, absent = tracer.install(tr)
    try:
        res = _sweep("C", tmp_path)
    finally:
        restore()
    assert res.ok and absent == []
    totals = tr.layer_totals()
    assert totals["cli.run_trace_sweep"]["calls"] == 1
    assert totals["fourier.build_fourier"]["calls"] == 1
    assert totals["fourier.measure_defect"]["calls"] == 1
    assert totals["cutoff_trace.route_a"]["calls"] == 5
    assert all(s.parent is not None for s in tr.spans[1:])


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-ab", "--seed", "1"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
