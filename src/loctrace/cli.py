"""Experiment runner: cutoff-trace sweeps, sandbox suites, plot data.

Subcommands
-----------
trace-sweep   run a lambda sweep from a JSON config, emit CSV + JSON summary
sandbox       run named finite-group suites, emit a JSON report
verify        run the default sweeps and all suites, gate the results
emit-plots    turn a sweep CSV into gnuplot-ready two-column files

Exit codes: 0 all gates pass, 1 a numerical gate failed (named in the JSON
summary) or the transform failed certification (one stderr line), 2 usage or
configuration error.  Verbosity via the LOCTRACE_LOG
environment variable (DEBUG/INFO/WARNING/ERROR).  Runs are deterministic:
no RNG without an explicit seed, artifacts are byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .fields import make_backend, make_grid
from .fourier import FourierBuildError, build_fourier
from .operators import TestFunction
from .sandbox import SUITE_NAMES, run_sandbox
from .cutoff_trace import (
    SignedTraceLab,
    TraceComputation,
    asymptotic_fit,
    gate_reports,
    route_c_bytes,
)

log = logging.getLogger("loctrace")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["field", "grid", "test_function", "lambdas"],
    "additionalProperties": False,
    "properties": {
        "field": {"enum": ["R", "C", "H"]},
        "grid": {
            "type": "object",
            "required": ["log_t_half_range", "n"],
            "additionalProperties": False,
            "properties": {
                "log_t_half_range": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 2},
            },
        },
        "test_function": {
            "type": "object",
            "required": ["kind", "center", "width", "support_radius"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["log_gauss_bump"]},
                "center": {"type": "number"},
                "width": {"type": "number", "exclusiveMinimum": 0},
                "support_radius": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "lambdas": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "route_c": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "n_signed": {"type": "integer", "minimum": 2},
                "max_lambda": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "fit_gate_factor": {"type": "number", "exclusiveMinimum": 0},
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string"},
                "json": {"type": "string"},
            },
        },
        "seed": {"type": "integer"},
    },
}

DEFAULT_CONFIGS = {
    "R": {
        "field": "R",
        "grid": {"log_t_half_range": math.log(1e4), "n": 2048},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [2.0, 4.0, 8.0, 16.0, 32.0],
        "route_c": {"enabled": True, "n_signed": 4096, "max_lambda": 8.0},
    },
    "C": {
        "field": "C",
        "grid": {"log_t_half_range": math.log(1e4), "n": 1024},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [2.0, 4.0, 8.0, 16.0, 32.0],
    },
    "H": {
        "field": "H",
        "grid": {"log_t_half_range": math.log(3e4), "n": 1024},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [2.0, 4.0, 8.0, 16.0, 32.0],
    },
    # the quaternionic transform decays slowly in the module; the asymptotic
    # regime needs a wider grid and larger cutoffs
    "H-asymptotic": {
        "field": "H",
        "grid": {"log_t_half_range": math.log(1e7), "n": 4096},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [8.0, 16.0, 32.0, 64.0, 128.0],
    },
}

ROUTE_AGREEMENT_TOL = {"R": 1e-3, "C": 5e-3, "H": 5e-3}

# built once: jsonschema.validate would check CONFIG_SCHEMA against the metaschema on every call
CONFIG_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)

# refuse route C configs whose signed-grid block would need more memory than this
ROUTE_C_BYTES_BUDGET = 2 * 2**30


class ConfigError(ValueError):
    pass


def validate_config(config: dict) -> dict:
    error = best_match(CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}") from error
    lams = config["lambdas"]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambdas must be strictly ascending")
    L = config["grid"]["log_t_half_range"]
    if 2.0 * math.log(max(lams)) >= L:
        raise ConfigError("largest lambda^2 exceeds the grid range")
    n = config["grid"]["n"]
    if n % 2 != 0:
        raise ConfigError("grid n must be even")
    radius = config["test_function"]["support_radius"]
    if radius >= L:
        raise ConfigError(
            f"test-function support radius {radius} reaches the grid half-range {L}"
        )
    c_lams = _route_c_lambdas(config)
    if c_lams is not None:
        n_signed = config["route_c"].get("n_signed", 4096)
        # lambda 0 (an empty block) still checks that n_signed is even
        lam = max(c_lams, default=0.0)
        try:
            need = route_c_bytes(n_signed, lam)
        except ValueError as exc:
            raise ConfigError(f"route_c: {exc}") from exc
        if need > ROUTE_C_BYTES_BUDGET:
            raise ConfigError(
                f"route_c: n_signed {n_signed} up to lambda {lam} needs about "
                f"{need / 2**30:.1f} GiB, above the {ROUTE_C_BYTES_BUDGET / 2**30:.0f} GiB budget"
            )
    return config


def _route_c_lambdas(config: dict) -> list[float] | None:
    """The lambdas route C traces (those up to route_c.max_lambda); None when it is off."""
    rc = config.get("route_c", {})
    if config["field"] != "R" or not rc.get("enabled", False):
        return None
    c_max = float(rc.get("max_lambda", 8.0))
    return [float(lam) for lam in config["lambdas"] if lam <= c_max]


def run_trace_sweep(config: dict, out_dir: Path) -> dict:
    """Run one sweep; writes CSV (+ JSON summary) and returns the summary."""
    config = validate_config(config)
    field = config["field"]
    backend = make_backend(field)
    grid = make_grid(backend, config["grid"]["log_t_half_range"], config["grid"]["n"])
    tf_cfg = config["test_function"]
    f = TestFunction(
        center=tf_cfg["center"],
        width=tf_cfg["width"],
        support_radius=tf_cfg["support_radius"],
        kind=tf_cfg["kind"],
    )
    fourier = build_fourier(backend, grid)
    comp = TraceComputation(backend, grid, f, fourier)
    lams = [float(x) for x in config["lambdas"]]

    route_c_vals: dict[float, float] = {}
    cyclicity = None
    c_lams = _route_c_lambdas(config)
    if c_lams:
        lab = SignedTraceLab(f, int(config["route_c"].get("n_signed", 4096)), max(c_lams))
        route_c_vals = {lam: lab.trace_route_c(lam) for lam in c_lams}
        cyclicity = lab.cyclicity_defect(min(c_lams))

    reports = [comp.report(lam, route_c=route_c_vals.get(lam)) for lam in lams]

    csv_name = config.get("outputs", {}).get("csv", f"sweep_{field}.csv")
    json_name = config.get("outputs", {}).get("json", f"summary_{field}.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / csv_name
    _write_sweep_csv(csv_path, reports)

    gates = {}
    tol = ROUTE_AGREEMENT_TOL[field]
    agree = max(
        abs(r.t_route_a - r.t_route_b) / max(abs(r.t_route_b), 1e-300) for r in reports
    )
    gates["route_ab_agreement"] = {"value": agree, "tolerance": tol, "passed": agree < tol}
    if route_c_vals:
        cb = max(
            abs(r.t_route_c - r.t_route_b) / max(abs(r.t_route_b), 1e-300)
            for r in reports
            if r.t_route_c is not None
        )
        gates["route_c_agreement"] = {"value": cb, "tolerance": 1e-3, "passed": cb < 1e-3}
        gates["trace_cyclicity"] = {
            "value": cyclicity,
            "tolerance": 1e-8,
            "passed": cyclicity < 1e-8,
        }
    l1 = f.l1_mult_norm(grid.step)
    slack = [r.error_bound + 10.0 * r.unitarity_defect * l1 for r in reports]
    sandwich = all(
        abs(r.t_route_b - r.asymptote) <= s + 1e-12 for r, s in zip(reports, slack)
    )
    gates["asymptote_sandwich"] = {
        "worst_excess": max(
            abs(r.t_route_b - r.asymptote) - s for r, s in zip(reports, slack)
        ),
        "passed": sandwich,
    }

    summary = {
        "field": field,
        "config": config,
        "unitarity_defect": float(fourier.unitarity_defect),
        "f_value_at_1": f.value_at_1,
        "conductor_at_one": comp.conductor_value(),
        "gates": gates,
        "rows": [
            {
                "lambda": r.lam,
                "two_log_lambda": r.two_log_lambda,
                "t_route_A": r.t_route_a,
                "t_route_B": r.t_route_b,
                "t_route_C": r.t_route_c,
                "asymptote": r.asymptote,
                "error_bound": r.error_bound,
            }
            for r in reports
        ],
    }

    gate_factor = float(config.get("fit_gate_factor", 0.1))
    try:
        fit_reports = gate_reports(reports, factor=gate_factor)
        if len(fit_reports) < 3:
            raise ValueError(
                f"only {len(fit_reports)} lambdas are inside the asymptotic regime "
                f"(tail bound below {gate_factor} of the smallest trace)"
            )
        slope, intercept, resid = asymptotic_fit(fit_reports)
        cond = comp.conductor_value()
        fit = {
            "lambdas_used": [r.lam for r in fit_reports],
            "f1_estimate": slope,
            "minus_H_estimate": intercept,
            "max_residual": resid,
            "slope_rel_err": abs(slope - f.value_at_1) / abs(f.value_at_1),
            "intercept_rel_err": abs(intercept + cond) / abs(cond),
        }
        gates["fit_slope"] = {
            "value": fit["slope_rel_err"],
            "tolerance": 0.01,
            "passed": fit["slope_rel_err"] < 0.01,
        }
        gates["fit_intercept"] = {
            "value": fit["intercept_rel_err"],
            "tolerance": 0.01,
            "passed": fit["intercept_rel_err"] < 0.01,
        }
        summary["fit"] = fit
    except ValueError as exc:
        summary["fit"] = {"error": str(exc)}
        gates["fit_slope"] = {"passed": False, "error": str(exc)}
        gates["fit_intercept"] = {"passed": False, "error": str(exc)}

    summary["passed"] = all(g["passed"] for g in gates.values())
    (out_dir / json_name).write_text(_stable_json(summary))
    return summary


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_sweep_csv(path: Path, reports) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "lambda",
                "two_log_lambda",
                "t_route_A",
                "t_route_B",
                "t_route_C",
                "asymptote",
                "error_bound",
                "defect",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    _fmt(r.lam),
                    _fmt(r.two_log_lambda),
                    _fmt(r.t_route_a),
                    _fmt(r.t_route_b),
                    _fmt(r.t_route_c),
                    _fmt(r.asymptote),
                    _fmt(r.error_bound),
                    _fmt(r.unitarity_defect),
                ]
            )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _stable_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_plot_data(sweep_csv: Path, out_dir: Path) -> list[Path]:
    """Two-column plain-text curves from a sweep CSV (gnuplot-ready)."""
    with sweep_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"sweep CSV {sweep_csv} is empty")
    required = {"lambda", "two_log_lambda", "t_route_B", "asymptote", "error_bound"}
    if not required <= set(rows[0]):
        raise ConfigError(f"sweep CSV {sweep_csv} is missing columns {required - set(rows[0])}")
    out_dir.mkdir(parents=True, exist_ok=True)
    out = []

    def write(name: str, pairs) -> None:
        p = out_dir / name
        p.write_text("".join(f"{a} {b}\n" for a, b in pairs))
        out.append(p)

    write("T_vs_2loglambda.dat", [(r["two_log_lambda"], r["t_route_B"]) for r in rows])
    write(
        "residual_vs_lambda.dat",
        [(r["lambda"], repr(float(r["t_route_B"]) - float(r["asymptote"]))) for r in rows],
    )
    write("bound_vs_lambda.dat", [(r["lambda"], r["error_bound"]) for r in rows])
    return out


def run_verify(out_dir: Path) -> dict:
    """Default sweeps on all backends plus every sandbox suite, gated."""
    summaries = {}
    for key in ("R", "C", "H", "H-asymptotic"):
        cfg = json.loads(json.dumps(DEFAULT_CONFIGS[key]))
        cfg.setdefault("outputs", {})
        cfg["outputs"]["csv"] = f"sweep_{key}.csv"
        cfg["outputs"]["json"] = f"summary_{key}.json"
        if key == "H":
            # certification grid: agreement + defect gates; the asymptotic fit
            # runs on the wide grid instead
            cfg["fit_gate_factor"] = 0.1
        summary = run_trace_sweep(cfg, out_dir)
        if key == "H":
            # narrow-grid fit is legitimately out of regime; drop its fit gates
            summary["gates"].pop("fit_slope", None)
            summary["gates"].pop("fit_intercept", None)
            summary["passed"] = all(g["passed"] for g in summary["gates"].values())
            (out_dir / cfg["outputs"]["json"]).write_text(_stable_json(summary))
        summaries[key] = summary
    sandbox_report = run_sandbox(list(SUITE_NAMES), seed=0)
    (out_dir / "sandbox.json").write_text(_stable_json(sandbox_report))
    report = {
        "sweeps": {k: {"passed": s["passed"], "gates": s["gates"]} for k, s in summaries.items()},
        "sandbox_passed": sandbox_report["passed"],
        "passed": sandbox_report["passed"] and all(s["passed"] for s in summaries.values()),
    }
    (out_dir / "verify.json").write_text(_stable_json(report))
    return report


def _failed_gates(report: dict) -> list[str]:
    failed = []
    for name, s in report.get("sweeps", {}).items():
        for gate, g in s["gates"].items():
            if not g["passed"]:
                failed.append(f"{name}:{gate}")
    if not report.get("sandbox_passed", True):
        failed.append("sandbox")
    return failed


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators refuse negative seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loctrace",
        description="cutoff-trace sweeps over R/C/H and finite-group commutant suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("trace-sweep", help="run a lambda sweep from a config")
    p_sweep.add_argument("--config", type=Path, help="JSON config path (default per --field)")
    p_sweep.add_argument("--field", choices=["R", "C", "H"], default="R")
    p_sweep.add_argument("--out", type=Path, default=Path("out"))

    p_sand = sub.add_parser("sandbox", help="run finite-group suites")
    p_sand.add_argument("--suite", action="append", default=None, help="suite name (repeatable)")
    p_sand.add_argument("--out", type=Path, default=Path("out"))
    p_sand.add_argument("--seed", type=_seed, default=0)

    p_verify = sub.add_parser("verify", help="run default sweeps and all suites")
    p_verify.add_argument("--out", type=Path, default=Path("out"))

    p_plots = sub.add_parser("emit-plots", help="plot-ready columns from a sweep CSV")
    p_plots.add_argument("csv", type=Path)
    p_plots.add_argument("--out", type=Path, default=Path("out"))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LOCTRACE_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "trace-sweep":
            if args.config is not None:
                config = json.loads(args.config.read_text())
            else:
                config = json.loads(json.dumps(DEFAULT_CONFIGS[args.field]))
            summary = run_trace_sweep(config, args.out)
            if not summary["passed"]:
                failed = [k for k, g in summary["gates"].items() if not g["passed"]]
                print(f"FAIL gates: {', '.join(failed)}", file=sys.stderr)
                return 1
            print(f"ok: {len(summary['rows'])} lambdas, gates passed")
            return 0
        if args.command == "sandbox":
            names = args.suite if args.suite else list(SUITE_NAMES)
            try:
                report = run_sandbox(names, seed=args.seed)
            except KeyError as exc:
                print(f"usage error: {exc.args[0]}", file=sys.stderr)
                return 2
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / "sandbox.json").write_text(_stable_json(report))
            if not report["passed"]:
                print("FAIL: sandbox", file=sys.stderr)
                return 1
            print(f"ok: {len(report['suites'])} suites passed")
            return 0
        if args.command == "verify":
            report = run_verify(args.out)
            if not report["passed"]:
                print(f"FAIL gates: {', '.join(_failed_gates(report))}", file=sys.stderr)
                return 1
            print("ok: all gates passed")
            return 0
        if args.command == "emit-plots":
            files = emit_plot_data(args.csv, args.out)
            print("\n".join(str(f) for f in files))
            return 0
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FourierBuildError as exc:
        print(f"FAIL certification: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
