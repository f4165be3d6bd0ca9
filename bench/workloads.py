"""Seeded inputs, operations and output checks of the three workloads.

One pass of a workload is a list of operations; one operation is one call
into a public entry point of loctrace (``cli.run_trace_sweep`` or
``cli.run_sandbox``).  The configs are written out here, not read from
``loctrace.cli.DEFAULT_CONFIGS``, so that a later change to the defaults
does not silently change what the benchmark measures.

Input ranges were checked against every gate:
- sweep-routec: the profile centre lies in [-0.3, 0.3].
- sweep-ab: every grid's ``log_t_half_range`` is scaled by a factor in
  [0.9, 1.25].  Below about 0.865 the narrow H grid no longer certifies its
  transform (unitarity defect 1.08e-3 > 1e-3 at 0.86), which is the
  FourierBuildError the program is meant to raise there.
- H profiles stay at centre 0: above it H-asymptotic leaves its asymptotic
  regime (2 lambdas qualify at 0.05, none at 0.1), a property of the
  config.
"""

from __future__ import annotations

import copy
import math
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from loctrace import cli

WORKLOADS = ("sandbox", "sweep-routec", "sweep-ab")

SUITES = (
    "annex2-abelian-le-12",
    "annex2-multiplier",
    "annex2-polar",
    "annex1-biregular",
    "annex1-resolvent-z8",
)
ABELIAN_CASES = 28
BIREGULAR_DIMS = {"S3": 3, "Q8": 5, "D4": 5}

_PROFILE = {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5}
_LAMBDAS = [2.0, 4.0, 8.0, 16.0, 32.0]

SWEEP_CONFIGS = {
    "R": {
        "field": "R",
        "grid": {"log_t_half_range": math.log(1e4), "n": 2048},
        "test_function": _PROFILE,
        "lambdas": _LAMBDAS,
        "route_c": {"enabled": True, "n_signed": 4096, "max_lambda": 8.0},
    },
    "C": {
        "field": "C",
        "grid": {"log_t_half_range": math.log(1e4), "n": 1024},
        "test_function": _PROFILE,
        "lambdas": _LAMBDAS,
    },
    # certification grid: judged without its fit gates, as `verify` judges it
    "H": {
        "field": "H",
        "grid": {"log_t_half_range": math.log(3e4), "n": 1024},
        "test_function": _PROFILE,
        "lambdas": _LAMBDAS,
        "fit_gate_factor": 0.1,
    },
    "H-asymptotic": {
        "field": "H",
        "grid": {"log_t_half_range": math.log(1e7), "n": 4096},
        "test_function": _PROFILE,
        "lambdas": [8.0, 16.0, 32.0, 64.0, 128.0],
    },
}

# gates `verify` does not judge, per config label
IGNORED_GATES = {"H": ("fit_slope", "fit_intercept")}

CENTER_RANGE = (-0.3, 0.3)
SCALE_RANGE = (0.9, 1.25)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], float]]


@dataclass
class OpResult:
    label: str
    wall_s: float
    cpu_s: float
    ok: bool
    gate_ratio: float = 0.0
    problems: list = field(default_factory=list)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_op(op: Op) -> OpResult:
    """Time one call into loctrace and check its output; never raises."""
    c0, t0 = _cpu(), time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        traceback.print_exc(file=sys.stderr)
        return OpResult(op.label, wall, cpu, False, problems=[f"{type(exc).__name__}: {exc}"])
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    try:
        problems, ratio = op.check(result)
    except Exception as exc:  # malformed output
        traceback.print_exc(file=sys.stderr)
        problems, ratio = [f"output check raised {type(exc).__name__}: {exc}"], 0.0
    for p in problems:
        print(f"{op.label}: {p}", file=sys.stderr)
    return OpResult(op.label, wall, cpu, not problems, ratio, problems)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def pass_inputs(workload: str, seed: int, index: int) -> list[tuple[str, object]]:
    """(label, input) per operation of pass ``index``: a sweep config, or the
    sandbox seed.  The same (workload, seed, index) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sandbox":
        return [("sandbox", abs(seed))]  # numpy takes non-negative seeds only
    if workload == "sweep-routec":
        cfg = copy.deepcopy(SWEEP_CONFIGS["R"])
        cfg["test_function"]["center"] = rng.uniform(*CENTER_RANGE)
        return [("R", cfg)]
    if workload == "sweep-ab":
        inputs = []
        for label, base in SWEEP_CONFIGS.items():
            cfg = copy.deepcopy(base)
            cfg["grid"]["log_t_half_range"] *= rng.uniform(*SCALE_RANGE)
            if label == "R":
                cfg["route_c"] = {"enabled": False}
            inputs.append((label, cfg))
        return inputs
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def make_pass(workload: str, seed: int, index: int, out_dir: Path) -> list[Op]:
    return [
        sandbox_op(x) if label == "sandbox" else sweep_op(label, x, out_dir)
        for label, x in pass_inputs(workload, seed, index)
    ]


def sandbox_op(seed: int) -> Op:
    # the name as loctrace.cli bound it, looked up at call time so a traced
    # pass goes through the hook
    return Op("sandbox", lambda: cli.run_sandbox(list(SUITES), seed=seed), check_sandbox)


def sweep_op(label: str, cfg: dict, out_dir: Path) -> Op:
    cfg = copy.deepcopy(cfg)
    slug = label.replace("-", "_")
    cfg["outputs"] = {"csv": f"sweep_{slug}.csv", "json": f"summary_{slug}.json"}
    return Op(
        label,
        lambda: cli.run_trace_sweep(copy.deepcopy(cfg), out_dir),
        lambda summary: check_sweep(cfg, summary, IGNORED_GATES.get(label, ())),
    )


# ---------------------------------------------------------------------------
# output checks: (problems, max value/tolerance over judged gates)
# ---------------------------------------------------------------------------


def _nonfinite(obj, path: str = "") -> list[str]:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _nonfinite(v, f"{path}[{i}]")]
    try:
        return [] if math.isfinite(float(obj)) else [f"non-finite value at {path}"]
    except (TypeError, ValueError):
        return [f"non-numeric value at {path}"]


def check_sweep(cfg: dict, summary: dict, ignored=()) -> tuple[list[str], float]:
    problems = _nonfinite(summary)
    gates = {k: g for k, g in summary["gates"].items() if k not in ignored}
    problems += [f"gate {k} failed" for k, g in gates.items() if not g["passed"]]
    lams = [float(x) for x in cfg["lambdas"]]
    rows = summary["rows"]
    if [r["lambda"] for r in rows] != lams:
        problems.append(f"rows {[r['lambda'] for r in rows]} do not match lambdas {lams}")
    rc = cfg.get("route_c", {})
    c_max = rc.get("max_lambda", 8.0) if cfg["field"] == "R" and rc.get("enabled") else -1.0
    for r in rows:
        required = ["two_log_lambda", "t_route_A", "t_route_B", "asymptote", "error_bound"]
        if r["lambda"] <= c_max:
            required.append("t_route_C")
        elif r.get("t_route_C") is not None:
            problems.append(f"route C value at lambda {r['lambda']} beyond its range")
        problems += [f"missing {k} at lambda {r['lambda']}" for k in required if r.get(k) is None]
    ratios = [
        g["value"] / g["tolerance"] for g in gates.values() if "value" in g and "tolerance" in g
    ]
    return problems, max(ratios, default=0.0)


def check_sandbox(report: dict) -> tuple[list[str], float]:
    problems = _nonfinite(report)
    if not report["passed"]:
        problems.append("sandbox report not passed")
    suites = {s["suite"]: s for s in report["suites"]}
    if list(suites) != list(SUITES):
        problems.append(f"suites {list(suites)} != {list(SUITES)}")
    problems += [f"suite {k} failed" for k, s in suites.items() if not s["passed"]]
    abelian = suites.get("annex2-abelian-le-12", {}).get("detail", [])
    if len(abelian) != ABELIAN_CASES:
        problems.append(f"{len(abelian)} abelian cases, expected {ABELIAN_CASES}")
    problems += [
        f"abelian {c['factors']}: commutant dim {c['commutant_dim']} != order {c['order']}"
        for c in abelian
        if c["commutant_dim"] != c["order"]
    ]
    biregular = suites.get("annex1-biregular", {}).get("detail", {})
    for name, dim in BIREGULAR_DIMS.items():
        got = biregular.get(name, {}).get("commutant_dim")
        if got != dim:
            problems.append(f"biregular {name}: commutant dim {got} != {dim}")
    # no sandbox gate carries a tolerance
    return problems, 0.0
