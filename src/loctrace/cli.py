"""Experiment runner: cutoff-trace sweeps, sandbox suites, plot data.

Subcommands
-----------
trace-sweep   run a lambda sweep from a JSON config, emit CSV + JSON summary
sandbox       run named finite-group suites, emit a JSON report
verify        run the default sweeps and all suites, gate the results
emit-plots    turn a sweep CSV into gnuplot-ready two-column files

Exit codes: 0 all gates pass, 1 a numerical gate failed (named in the JSON
summary) or the transform failed certification (one stderr line), 2 usage or
configuration error, refused before any work.  A sweep config is checked
against the key table CONFIG_KEYS in one walk, and a refusal names the path
and what was expected (``config.lambdas[1] is not a finite number above 0
(got -1.0)``); then across keys, the grid's half-range against the float
range (``fourier.LOG_T_LIMIT``, one bound for every field), the grid
transform against the byte budget (``fourier.check_bytes``), and route C by
``cutoff_trace.route_c_plan``, the one admission of its set-up and pass,
which SignedTraceLab and its sweep apply too: its seconds against the
run-time budget, then its peak bytes against the byte budget.  Verbosity via
the LOCTRACE_LOG environment variable (DEBUG/INFO/WARNING/ERROR/CRITICAL).
Runs are deterministic: no RNG without an explicit seed, artifacts are
byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from .fields import make_backend, make_grid
from .fourier import LOG_T_LIMIT, FourierBuildError, build_fourier, check_bytes, fourier_bytes, log_stage
from .operators import TestFunction
from .sandbox import SUITE_NAMES, run_sandbox
from .cutoff_trace import (
    SignedTraceLab,
    TraceComputation,
    TraceReport,
    asymptotic_fit,
    gate_reports,
    route_c_plan,
)

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

# the default configs whose fit gates are judged: the narrow H grid certifies the
# transform and the routes, but its lambdas are outside the asymptotic regime,
# whose fit H-asymptotic judges.  verify and a trace-sweep without --config read it
FIT_JUDGED_DEFAULTS = ("R", "C", "H-asymptotic")

ROUTE_AGREEMENT_TOL = {"R": 1e-3, "C": 5e-3, "H": 5e-3}

N_SIGNED_DEFAULT = 4096


class ConfigError(ValueError):
    pass


def _finite(v) -> bool:
    """An int or float other than a bool, finite as a float."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _one_of(*values: str) -> tuple:
    return "one of " + ", ".join(map(repr, values)), lambda v: isinstance(v, str) and v in values


# leaves: (what the value must be, its test)
_NUMBER = ("a finite number", _finite)
_POSITIVE = ("a finite number above 0", lambda v: _finite(v) and v > 0)
_COUNT = ("an integer >= 2", lambda v: _finite(v) and isinstance(v, int) and v >= 2)
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
# the longest file name, in bytes, that common file systems (Linux, macOS) accept
NAME_MAX = 255


def _plain_file_name(v) -> bool:
    """A name written inside --out: no directory part, no NUL (which open() refuses),
    encodable by the file system and at most NAME_MAX bytes long."""
    if not isinstance(v, str) or v in ("", ".", "..") or set(v) & set("/\\\0"):
        return False
    try:
        return len(os.fsencode(v)) <= NAME_MAX
    except UnicodeEncodeError:  # a lone surrogate
        return False


_FILE_NAME = (f"a plain file name of at most {NAME_MAX} bytes", _plain_file_name)

# each key of a sweep config and what its value must be: a dict is an object
# (keys ending in "?" are optional, others required, no other key allowed), a
# one-item list a non-empty list of that item, a tuple a leaf
CONFIG_KEYS = {
    "field": _one_of("R", "C", "H"),
    "grid": {"log_t_half_range": _POSITIVE, "n": _COUNT},
    "test_function": {
        "kind": _one_of("log_gauss_bump"),
        "center": _NUMBER,
        "width": _POSITIVE,
        "support_radius": _POSITIVE,
    },
    "lambdas": [_POSITIVE],
    "route_c?": {"enabled?": _BOOL, "n_signed?": _COUNT, "max_lambda?": _POSITIVE},
    "fit_gate_factor?": _POSITIVE,
    "outputs?": {"csv?": _FILE_NAME, "json?": _FILE_NAME},
}


def _check_keys(value, kind, path: str) -> None:
    """ConfigError naming the first place where ``value`` does not match ``kind``."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} is not an object (got {value!r:.60})")
        keys = {k.rstrip("?"): k for k in kind}
        for key in value:
            if key not in keys:
                raise ConfigError(f"{path} has an unknown key {key!r} (allowed: {', '.join(keys)})")
        for name, key in keys.items():
            if name in value:
                _check_keys(value[name], kind[key], f"{path}.{name}")
            elif not key.endswith("?"):
                raise ConfigError(f"{path}.{name} is missing")
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} is not a non-empty list (got {value!r:.60})")
        for i, item in enumerate(value):
            _check_keys(item, kind[0], f"{path}[{i}]")
    elif not kind[1](value):
        raise ConfigError(f"{path} is not {kind[0]} (got {value!r:.60})")


def _output_names(config: dict) -> tuple[str, str]:
    """The file names of the sweep CSV and the JSON summary, defaults filled in."""
    outputs, field = config.get("outputs", {}), config["field"]
    return outputs.get("csv", f"sweep_{field}.csv"), outputs.get("json", f"summary_{field}.json")


def validate_config(config: dict) -> dict:
    _check_keys(config, CONFIG_KEYS, "config")
    csv_name, json_name = _output_names(config)
    if csv_name == json_name:
        raise ConfigError(f"config.outputs: csv and json name the same file {csv_name!r}")
    lams = config["lambdas"]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambdas must be strictly ascending")
    L = config["grid"]["log_t_half_range"]
    if L >= LOG_T_LIMIT:
        raise ConfigError(f"config.grid.log_t_half_range {L} leaves the float range (below {LOG_T_LIMIT:.6g})")
    if 2.0 * math.log(max(lams)) >= L:
        raise ConfigError("largest lambda^2 exceeds the grid range")
    n = config["grid"]["n"]
    if n % 2 != 0:
        raise ConfigError("grid n must be even")
    check_bytes(fourier_bytes(n), f"config.grid.n {n}", ConfigError)
    try:
        f = TestFunction(**config["test_function"])
    except ValueError as exc:
        raise ConfigError(f"config.test_function: {exc}") from exc
    radius = config["test_function"]["support_radius"]
    if radius >= L:
        raise ConfigError(f"test-function support radius {radius} reaches the grid half-range {L}")
    field = config["field"]
    if field != "R" and config.get("route_c", {}).get("enabled", False):
        raise ConfigError(f"config.route_c.enabled: route C runs on field R only, not {field}")
    c_lams = _route_c_lambdas(config)
    if c_lams is not None:
        n_signed = config["route_c"].get("n_signed", N_SIGNED_DEFAULT)
        # lambda 0 (an empty block) still checks that n_signed is even
        lam = max(c_lams, default=0.0)
        try:
            route_c_plan(f, n_signed, lam, len(c_lams), min(c_lams, default=None))
        except ValueError as exc:
            raise ConfigError(f"route_c: {exc}") from exc
    return config


def _route_c_lambdas(config: dict) -> list[float] | None:
    """The lambdas route C traces (those up to route_c.max_lambda); None when it is off."""
    rc = config.get("route_c", {})
    if not rc.get("enabled", False):  # validate_config refuses it off field R
        return None
    c_max = float(rc.get("max_lambda", 8.0))
    return [float(lam) for lam in config["lambdas"] if lam <= c_max]


def run_trace_sweep(config: dict, out_dir: Path, fit_gates: bool = True) -> dict:
    """Run one sweep; writes CSV (+ JSON summary) and returns the summary.

    Every gate is judged here, and ``passed`` is the conjunction of them.
    The fit section is always computed and written; ``fit_gates=False``
    leaves ``fit_slope`` and ``fit_intercept`` out of the judged gates, for
    a grid whose lambdas are not meant to reach the asymptotic regime.
    """
    start = time.perf_counter()
    config = validate_config(config)
    _check_out_dir(out_dir)
    for name in _output_names(config):
        path = out_dir / name
        if path.exists() and not path.is_file():
            raise ConfigError(f"config.outputs: {path} exists and is not a regular file")
    field = config["field"]
    grid = make_grid(make_backend(field), config["grid"]["log_t_half_range"], config["grid"]["n"])
    f = TestFunction(**config["test_function"])
    fourier = build_fourier(grid)
    comp = TraceComputation(f, fourier)
    lams = [float(x) for x in config["lambdas"]]

    route_c_vals: dict[float, float] = {}
    cyclicity = None
    c_lams = _route_c_lambdas(config)
    if c_lams:
        lab = SignedTraceLab(f, config["route_c"].get("n_signed", N_SIGNED_DEFAULT), max(c_lams))
        values, cyclicity = lab.sweep(c_lams, cyclicity_at=min(c_lams))
        route_c_vals = dict(zip(c_lams, values))

    reports = [comp.report(lam, route_c=route_c_vals.get(lam)) for lam in lams]

    csv_name, json_name = _output_names(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / csv_name
    _write_sweep_csv(csv_path, reports)

    gates = {}
    gates["route_ab_agreement"] = _worst_gate(
        (r.lam, _gate(_relative_gap(r.t_route_a, r.t_route_b), ROUTE_AGREEMENT_TOL[field]))
        for r in reports
    )
    if route_c_vals:
        gates["route_c_agreement"] = _worst_gate(
            (r.lam, _gate(_relative_gap(r.t_route_c, r.t_route_b), 1e-3))
            for r in reports
            if r.t_route_c is not None
        )
        gates["trace_cyclicity"] = _gate(cyclicity, 1e-8)
    l1 = f.l1_mult_norm(grid.step)
    slack = {r.lam: r.error_bound + 10.0 * r.unitarity_defect * l1 for r in reports}
    gates["asymptote_sandwich"] = _worst_gate(
        (r.lam, _sandwich_gate(abs(r.t_route_b - r.asymptote), slack[r.lam])) for r in reports
    )

    summary = {
        "field": field,
        "config": config,
        "unitarity_defect": float(fourier.unitarity_defect),
        "f_value_at_1": f.value_at_1,
        "conductor_at_one": comp.conductor_value(),
        "gates": gates,
        "rows": [_row(r) for r in reports],
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
            "slope_rel_err": _relative_gap(slope, f.value_at_1),
            "intercept_rel_err": _relative_gap(intercept, -cond),
        }
        fit_judged = {
            "fit_slope": _gate(fit["slope_rel_err"], 0.01),
            "fit_intercept": _gate(fit["intercept_rel_err"], 0.01),
        }
        summary["fit"] = fit
    except ValueError as exc:
        summary["fit"] = {"error": str(exc)}
        fit_judged = {k: {"passed": False, "error": str(exc)} for k in ("fit_slope", "fit_intercept")}
    if fit_gates:
        gates.update(fit_judged)

    summary["passed"] = all(g["passed"] for g in gates.values())
    (out_dir / json_name).write_text(_stable_json(summary))
    log_stage(start, "sweep: field=%s lambdas=%d", field, len(lams))
    return summary


def _gate(value: float, tolerance: float) -> dict:
    return {"value": value, "tolerance": tolerance, "passed": bool(value < tolerance)}


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _worst_gate(judged) -> dict:
    """Of (lam, gate) pairs, the gate whose value is largest, with its lam as ``at_lambda``."""
    lam, gate = max(judged, key=lambda pair: pair[1]["value"])
    return {**gate, "at_lambda": lam}


def _sandwich_gate(residual: float, slack: float) -> dict:
    """|T_B - asymptote| within its slack + 1e-12, as one ratio against 1.

    For a finite residual r >= 0 and d > 0, r <= d holds exactly when the
    rounded r / d is <= 1, so the ratio decides as the inequality would.
    """
    value = residual / (slack + 1e-12)
    return {"value": value, "tolerance": 1.0, "passed": bool(value <= 1.0)}


def _row(r: TraceReport) -> dict:
    """One lambda's values under their JSON row keys, which are also CSV columns."""
    return {
        "lambda": r.lam,
        "two_log_lambda": r.two_log_lambda,
        "t_route_A": r.t_route_a,
        "t_route_B": r.t_route_b,
        "t_route_C": r.t_route_c,
        "asymptote": r.asymptote,
        "error_bound": r.error_bound,
    }


def _write_sweep_csv(path: Path, reports: list[TraceReport]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_row(reports[0]), "defect"])
        for r in reports:
            writer.writerow(["" if x is None else repr(float(x)) for x in (*_row(r).values(), r.unitarity_defect)])


def _stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _check_out_dir(out: Path) -> None:
    """Refuse an --out that, or whose nearest existing ancestor, is not a directory."""
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"--out {out}: {p} exists and is not a directory")
            return


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input file; a file that cannot be read is a ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_config(path: Path) -> dict:
    """A sweep config read from a JSON file (validated by run_trace_sweep).

    NaN and +-Infinity, which Python's json module reads as floats, are
    refused by the key check like any other non-finite number.
    """
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over int()'s digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _is_finite_number(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def emit_plot_data(sweep_csv: Path, out_dir: Path) -> list[Path]:
    """Two-column plain-text curves from a sweep CSV (gnuplot-ready).

    The whole CSV is read and checked before any file is written: each row
    needs a finite number in every plotted column.
    """
    try:
        rows = list(csv.DictReader(io.StringIO(_read_text(sweep_csv))))
    except csv.Error as exc:
        raise ConfigError(f"sweep CSV {sweep_csv}: {exc}") from exc
    if not rows:
        raise ConfigError(f"sweep CSV {sweep_csv} is empty")
    required = {"lambda", "two_log_lambda", "t_route_B", "asymptote", "error_bound"}
    if not required <= set(rows[0]):
        raise ConfigError(f"sweep CSV {sweep_csv} is missing columns {required - set(rows[0])}")
    for i, r in enumerate(rows, start=1):
        for key in sorted(required):
            if not _is_finite_number(r[key]):
                raise ConfigError(
                    f"sweep CSV {sweep_csv} row {i}: {key} {r[key]!r} is not a finite number"
                )
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
        cfg["outputs"] = {"csv": f"sweep_{key}.csv", "json": f"summary_{key}.json"}
        summaries[key] = run_trace_sweep(cfg, out_dir, fit_gates=key in FIT_JUDGED_DEFAULTS)
    sandbox_report = run_sandbox(list(SUITE_NAMES), seed=0)
    (out_dir / "sandbox.json").write_text(_stable_json(sandbox_report))
    report = {
        "sweeps": {k: {"passed": s["passed"], "gates": s["gates"]} for k, s in summaries.items()},
        "sandbox_passed": sandbox_report["passed"],
        "passed": sandbox_report["passed"] and all(s["passed"] for s in summaries.values()),
    }
    (out_dir / "verify.json").write_text(_stable_json(report))
    return report


def _failed_gates(summary: dict, prefix: str = "") -> list[str]:
    """A sweep summary's failed gates, each named after ``prefix`` with its value,
    tolerance and the lam where it is worst, or with its error when it has no
    value (a fit gate without a fit)."""
    return [
        f"{prefix}{name} ({g['error']})"
        if "error" in g
        else f"{prefix}{name} ({g['value']:.1e}, tolerance {g['tolerance']:.1e}"
        + (f", at lam={g['at_lambda']:g})" if "at_lambda" in g else ")")
        for name, g in summary["gates"].items()
        if not g["passed"]
    ]


def _seed(text: str) -> int:
    """argparse type of --seed, refusing a negative seed: ``random.Random`` seeds from
    ``|seed|``, so -s would silently repeat the sandbox draws of s."""
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("LOCTRACE_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"LOCTRACE_LOG {level!r} is not DEBUG, INFO, WARNING, ERROR or CRITICAL")
        logging.basicConfig(level=level)
        _check_out_dir(args.out)
        if args.command == "trace-sweep":
            if args.config is not None:
                summary = run_trace_sweep(_load_config(args.config), args.out)
            else:
                config = json.loads(json.dumps(DEFAULT_CONFIGS[args.field]))
                summary = run_trace_sweep(config, args.out, fit_gates=args.field in FIT_JUDGED_DEFAULTS)
            if not summary["passed"]:
                print(f"FAIL gates: {', '.join(_failed_gates(summary))}", file=sys.stderr)
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
                failed = [g for k, s in report["sweeps"].items() for g in _failed_gates(s, f"{k}:")]
                if not report["sandbox_passed"]:
                    failed.append("sandbox")
                print(f"FAIL gates: {', '.join(failed)}", file=sys.stderr)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
