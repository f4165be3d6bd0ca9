import contextlib
import copy
import csv
import functools
import io
import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest.mock
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jsonschema

from loctrace.cli import (
    CONFIG_KEYS,
    ConfigError,
    DEFAULT_CONFIGS,
    _check_keys,
    _sandwich_gate,
    emit_plot_data,
    main,
    run_trace_sweep,
    run_verify,
    validate_config,
)
import loctrace.cutoff_trace as cutoff_trace_mod
from loctrace.cutoff_trace import RUN_SECONDS_MAX, SignedTraceLab, chebyshev_degree, log_lattice, route_c_plan
from loctrace.fourier import BYTES_BUDGET, DEFECT_THRESHOLDS, LOG_T_LIMIT, signed_point
from loctrace.operators import TestFunction
from loctrace.sandbox import SUITE_NAMES, run_sandbox
from oracles import CONFIG_SCHEMA, exact_conductor_r


def small_config(**overrides):
    cfg = {
        "field": "R",
        "grid": {"log_t_half_range": math.log(1e3), "n": 512},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [2.0, 4.0, 8.0],
    }
    cfg.update(overrides)
    return cfg


def test_validate_rejects_bad_schema():
    with pytest.raises(ConfigError):
        validate_config(small_config(field="Q"))
    with pytest.raises(ConfigError):
        validate_config(small_config(lambdas=[4.0, 2.0]))
    with pytest.raises(ConfigError):
        validate_config(small_config(lambdas=[2.0, 400.0]))  # lam^2 beyond grid
    cfg = small_config()
    cfg["grid"]["n"] = 511
    with pytest.raises(ConfigError):
        validate_config(cfg)


def _at(config, place):
    return functools.reduce(operator.getitem, place, config)


def _places(value, place=()):
    """The path (keys and list indices) of every key and list item under ``value``."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield place + (key,)
        yield from _places(child, place + (key,))


_VALID = (
    small_config(),
    small_config(
        route_c={"enabled": True, "n_signed": 1024, "max_lambda": 4.0},
        fit_gate_factor=0.1,
        outputs={"csv": "a.csv", "json": "a.json"},
    ),
)

# values at the edges of every leaf kind: bool against int, integral floats,
# an int beyond the float range, non-finite floats, names with a directory part
_EDGE_VALUES = [
    None, True, False, 0, 1, 2, 1024, -1, 2**53 + 1, 10**400,
    0.0, -1.0, 0.5, 2.0, 1024.0, math.nan, math.inf, -math.inf,
    "R", "H", "log_gauss_bump", "x.csv", "", ".", "..", "a/b", "a\\b", "a\0b",
    [], [2.0], [2.0, -1.0], {}, {"n": 2},
]

_JSON_VALUES = st.sampled_from(_EDGE_VALUES) | st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5000) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "csv", "size", "enabled"]), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def one_edit(draw):
    """A valid config with one key or leaf added, dropped or retyped."""
    config = copy.deepcopy(draw(st.sampled_from(_VALID)))
    edit = draw(st.sampled_from(["add", "drop", "retype"]))
    if edit == "add":
        objects = [()] + [p for p in _places(config) if isinstance(_at(config, p), dict)]
        key = draw(st.sampled_from(["size", "seed", "n", "route_c", "outputs", "csv", "enabled"]))
        _at(config, draw(st.sampled_from(objects)))[key] = draw(_JSON_VALUES)
    else:
        place = draw(st.sampled_from(list(_places(config))))
        if edit == "drop":
            del _at(config, place[:-1])[place[-1]]
        else:
            _at(config, place[:-1])[place[-1]] = draw(_JSON_VALUES)
    return config


def _non_finite(value) -> bool:
    """Whether a NaN, an infinity or an int beyond the float range sits anywhere in ``value``."""
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) >= 2**1024 or math.isnan(value)


# the validator class jsonschema.validate picks for the schema, built once
_SCHEMA_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _refused_by_reference(config) -> bool:
    """The schema's verdict, widened by what it lets through: non-finite
    numbers, a grid size that is not an int, an output name that is not a
    plain file name."""
    if not _SCHEMA_VALIDATOR.is_valid(config):
        return True
    counts = [config["grid"]["n"]] + [v for k, v in config.get("route_c", {}).items() if k == "n_signed"]
    names = config.get("outputs", {}).values()
    return (
        _non_finite(config)
        or any(type(x) is not int for x in counts)
        or any(x in ("", ".", "..") or set(x) & set("/\\\0") or _unwritable(x) for x in names)
    )


def _unwritable(name: str) -> bool:
    """A name the file system refuses: a lone surrogate, or more than 255 bytes."""
    try:
        return len(name.encode(sys.getfilesystemencoding(), sys.getfilesystemencodeerrors())) > 255
    except UnicodeEncodeError:
        return True


def _assert_key_check_agrees(config) -> None:
    try:
        _check_keys(config, CONFIG_KEYS, "config")
        message = None
    except ConfigError as exc:
        message = str(exc)
    assert (message is not None) == _refused_by_reference(config), (config, message)
    if message is not None:
        assert message.startswith("config") and "\n" not in message


@settings(max_examples=200)
@given(config=one_edit())
def test_key_check_refuses_what_the_schema_refuses(config):
    _assert_key_check_agrees(config)


def test_key_check_agrees_on_every_drop_and_edge_value():
    for valid in _VALID:
        for place in _places(valid):
            config = copy.deepcopy(valid)
            del _at(config, place[:-1])[place[-1]]
            _assert_key_check_agrees(config)
            for value in _EDGE_VALUES:
                config = copy.deepcopy(valid)
                _at(config, place[:-1])[place[-1]] = value
                _assert_key_check_agrees(config)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"field": "Q"}, "config.field is not one of 'R', 'C', 'H' (got 'Q')"),
        ({"lambdas": []}, "config.lambdas is not a non-empty list (got [])"),
        ({"lambdas": [2.0, -1.0]}, "config.lambdas[1] is not a finite number above 0 (got -1.0)"),
        (
            {"route_c": {"n_signed": 1024, "size": 3}},
            "config.route_c has an unknown key 'size' (allowed: enabled, n_signed, max_lambda)",
        ),
    ],
    ids=["enum", "empty-list", "leaf", "unknown-key"],
)
def test_config_error_names_the_path(overrides, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(small_config(**overrides))
    assert str(exc.value) == message


def test_cli_import_leaves_jsonschema_out():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, loctrace.cli; print('jsonschema' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


_RUN_IMPORTS_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
import loctrace.cli as cli
from loctrace.sandbox import SUITE_NAMES, run_sandbox
loaded = set(sys.modules)
small_r = json.loads(sys.argv[1])
run_sandbox(list(SUITE_NAMES), seed=0)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    cli.run_trace_sweep(small_r, out)
    for field in ("C", "H"):
        cli.run_trace_sweep(cli.DEFAULT_CONFIGS[field], out)
never = ("numpy.random", "hashlib", "_hashlib")
print(json.dumps({
    "scipy": "scipy" in loaded,
    "added": sorted(set(sys.modules) - loaded),
    "loaded": [name for name in never if name in sys.modules],
}))
"""


def test_cli_runs_without_scipy_or_run_time_imports():
    # scipy is a test-side oracle only; numpy.fft, which numpy loads lazily, is
    # loaded at import so that no module loads inside a run; and neither
    # numpy.random nor the hashlib its seeding pulls in loads at all: the seeded
    # draws come from the stdlib's random.Random
    small_r = small_config(route_c={"enabled": True, "n_signed": 1024, "max_lambda": 4.0})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", _RUN_IMPORTS_SCRIPT, json.dumps(small_r)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == {"scipy": False, "added": [], "loaded": []}


def test_sweep_writes_csv_and_summary(tmp_path):
    summary = run_trace_sweep(small_config(), tmp_path)
    csv_path = tmp_path / "sweep_R.csv"
    assert csv_path.exists()
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) == {
        "lambda",
        "two_log_lambda",
        "t_route_A",
        "t_route_B",
        "t_route_C",
        "asymptote",
        "error_bound",
        "defect",
    }
    assert rows[0]["t_route_C"] == ""  # route C not enabled in this config
    assert summary["gates"]["route_ab_agreement"]["passed"]


def test_sweep_deterministic(tmp_path):
    cfg = small_config()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_trace_sweep(json.loads(json.dumps(cfg)), d1)
    run_trace_sweep(json.loads(json.dumps(cfg)), d2)
    assert (d1 / "sweep_R.csv").read_bytes() == (d2 / "sweep_R.csv").read_bytes()
    assert (d1 / "summary_R.json").read_bytes() == (d2 / "summary_R.json").read_bytes()


def test_emit_plots(tmp_path):
    run_trace_sweep(small_config(), tmp_path)
    files = emit_plot_data(tmp_path / "sweep_R.csv", tmp_path / "plots")
    assert len(files) == 3
    for f in files:
        lines = f.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(len(line.split()) == 2 for line in lines)
    # residual column is t_route_B - asymptote per row
    with (tmp_path / "sweep_R.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    resid = [float(x.split()[1]) for x in (tmp_path / "plots" / "residual_vs_lambda.dat").read_text().splitlines()]
    for r, row in zip(resid, rows):
        assert r == pytest.approx(float(row["t_route_B"]) - float(row["asymptote"]), abs=1e-15)
    # bound curve is monotone nonincreasing
    bounds = [float(x.split()[1]) for x in (tmp_path / "plots" / "bound_vs_lambda.dat").read_text().splitlines()]
    assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(bounds, bounds[1:]))


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # unknown suite: usage error (2)
    rc = main(["sandbox", "--suite", "unknown", "--out", str(tmp_path)])
    assert rc == 2
    # negative seed: argparse usage error (2), nothing written
    with pytest.raises(SystemExit) as exc:
        main(["sandbox", "--seed", "-1", "--out", str(tmp_path / "neg")])
    assert exc.value.code == 2
    assert "--seed: must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()
    # bad config: 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_config(field="Q")))
    rc = main(["trace-sweep", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    # missing config file: 2
    rc = main(["trace-sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    # unreadable or malformed inputs: 2, one stderr line, no traceback, no file written
    (tmp_path / "truncated.json").write_text('{"field": ')
    (tmp_path / "directory.json").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"field": "R\xe9"}')
    (tmp_path / "long_int.json").write_text('{"field": ' + "1" * 5000 + "}")
    # refused by the config checks, which name the key
    grid = {"log_t_half_range": math.log(1e3)}
    keyed = {
        "nan.json": small_config(lambdas=[2.0, math.nan]),
        "seed.json": small_config(seed=3),
        "csv_in_subdir.json": small_config(outputs={"csv": "sub/x.csv"}),
        "csv_empty.json": small_config(outputs={"csv": ""}),
        "csv_dotdot.json": small_config(outputs={"csv": ".."}),
        "same_names.json": small_config(outputs={"csv": "x", "json": "x"}),
        "json_is_default_csv.json": small_config(outputs={"json": "sweep_R.csv"}),
        "csv_too_long.json": small_config(outputs={"csv": "x" * 300}),
        "json_lone_surrogate.json": small_config(outputs={"json": "\ud800.json"}),
        "float_n.json": small_config(grid={**grid, "n": 1024.0}),
        "float_n_signed.json": small_config(route_c={"enabled": True, "n_signed": 4096.0}),
        "huge_n.json": small_config(grid={**grid, "n": 2**40}),
        "n_beyond_float.json": small_config(grid={**grid, "n": 10**400}),
    }
    for name, config in keyed.items():
        (tmp_path / name).write_text(json.dumps(config))
    # a need beyond the float range, refused by the route C budget
    huge = small_config(route_c={"enabled": True, "n_signed": 2**1000})
    (tmp_path / "n_signed_huge.json").write_text(json.dumps(huge))
    # a profile whose bad-row cosine table is beyond the run-time budget: 1.2e8 lattice
    # nodes at width 1e-7, and e^800 overflows at support_radius 800
    narrow = {"kind": "log_gauss_bump", "center": 0.0, "width": 1e-7, "support_radius": 1.5}
    wide = {**narrow, "width": 0.25, "support_radius": 800.0}
    for name, profile, grid_range in (("narrow.json", narrow, math.log(1e3)), ("wide.json", wide, 1e3)):
        lattice = small_config(
            grid={"log_t_half_range": grid_range, "n": 512},
            test_function=profile,
            route_c={"enabled": True, "n_signed": 4096, "max_lambda": 8.0},
        )
        (tmp_path / name).write_text(json.dumps(lattice))
    run_trace_sweep(small_config(), tmp_path / "sweep")
    with (tmp_path / "sweep" / "sweep_R.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    for column, name in (("t_route_B", "bad_b.csv"), ("two_log_lambda", "bad_log.csv")):
        bad_rows = [dict(r) for r in rows]
        bad_rows[1][column] = "n/a"
        with (tmp_path / name).open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(bad_rows)
    # from here to the coarse grid every case is refused before any work:
    # building the transform fails the test
    def no_work(grid):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("loctrace.cli.build_fourier", no_work)
    commands = [
        ["trace-sweep", "--config", str(tmp_path / name)]
        for name in (
            "truncated.json", "directory.json", "latin1.json", "long_int.json", "n_signed_huge.json",
            "narrow.json", "wide.json", *keyed
        )
    ] + [["emit-plots", str(tmp_path / name)] for name in ("bad_b.csv", "bad_log.csv", "directory.json")]
    for i, command in enumerate(commands):
        capsys.readouterr()
        out = tmp_path / f"refused{i}"
        rc = main(command + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        if command[0] == "trace-sweep" and Path(command[-1]).name in keyed:
            assert err.startswith(("config error: config.", "config error: config has")), err
        assert "Traceback" not in err
        assert not out.exists(), command
    # a file that cannot be read is reported as such, not as invalid JSON
    for name in ("latin1.json", "directory.json"):
        capsys.readouterr()
        main(["trace-sweep", "--config", str(tmp_path / name), "--out", str(tmp_path / "unread")])
        assert "not valid JSON" not in capsys.readouterr().err
    # an --out that is an existing file (or lies under one): 2 before any work,
    # one stderr line, no traceback, the file untouched; run_trace_sweep called
    # directly refuses it too
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    with pytest.raises(ConfigError, match="exists and is not a directory"):
        run_trace_sweep(small_config(), afile)
    for command in (
        ["trace-sweep", "--field", "C"],
        ["sandbox"],
        ["verify"],
        ["emit-plots", str(tmp_path / "sweep" / "sweep_R.csv")],
    ):
        for out in (afile, afile / "sub"):
            capsys.readouterr()
            rc = main(command + ["--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 2, command
            assert err == f"config error: --out {out}: {afile} exists and is not a directory\n"
            assert "Traceback" not in err
            assert afile.read_text() == "keep\n"
    # an output name that is an existing directory under --out: 2 before any
    # work, one stderr line, nothing written, the directory untouched
    plots = tmp_path / "withdir" / "plots"
    plots.mkdir(parents=True)
    (plots / "keep").write_text("keep\n")
    for key in ("csv", "json"):
        cfg = tmp_path / f"{key}_is_a_dir.json"
        cfg.write_text(json.dumps(small_config(outputs={key: "plots"})))
        capsys.readouterr()
        rc = main(["trace-sweep", "--config", str(cfg), "--out", str(plots.parent)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"config error: config.outputs: {plots} exists and is not a regular file\n"
        assert sorted(p.name for p in plots.parent.iterdir()) == ["plots"]
        assert [p.name for p in plots.iterdir()] == ["keep"]
    monkeypatch.undo()
    # grid too coarse to certify the transform: 1, one stderr line, no traceback
    capsys.readouterr()
    coarse = small_config()
    coarse["grid"]["n"] = 64
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(coarse))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "coarse")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL certification: unitarity defect")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": math.nan, "support_radius": 1.5}},
         "config.test_function.width"),
        ({"lambdas": [2.0, math.inf]}, "config.lambdas[1]"),
    ],
)
def test_validate_refuses_non_finite_numbers(tmp_path, overrides, where):
    # a config dict bypasses the JSON reader's NaN refusal; nothing may be written
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ConfigError, match=re.escape(f"{where} is not a finite number")):
        run_trace_sweep(small_config(**overrides), out)
    assert list(out.iterdir()) == []


def _refuse_work(*args, **kwargs):
    raise AssertionError("a refused config must not reach the computation")


@functools.lru_cache(maxsize=None)
def route_c_budget_edge(max_lambda: float, lambdas: int, seconds_max: float) -> tuple[int, int]:
    """(largest accepted, first refused) n_signed for route C up to max_lambda over
    ``lambdas`` lams from 2, with the check at 2 and the run-time budget at
    ``seconds_max``: bisection over even n on route_c_plan's peak bytes against the
    byte budget, a plan it refuses counting as refused."""

    def fits(n):
        try:
            with unittest.mock.patch.object(cutoff_trace_mod, "RUN_SECONDS_MAX", seconds_max):
                plan = route_c_plan(TestFunction(), n, max_lambda, lambdas=lambdas, check_lambda=2.0)
        except ValueError:
            return False
        return plan.peak_bytes <= BYTES_BUDGET

    accepted, refused = 2**14, 2**24  # halves of even n
    assert fits(2 * accepted) and not fits(2 * refused)
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        accepted, refused = (mid, refused) if fits(2 * mid) else (accepted, mid)
    return 2 * accepted, 2 * refused


@pytest.mark.parametrize(
    "n_signed, message",
    [
        (4095, "even n"),  # odd
        (64, "too close to the signed-grid extent"),  # extent/2 = 1.97 < lambda 8
        pytest.param(None, "budget", id="first_refused-budget"),  # about 483k, see below
    ],
)
def test_cli_refuses_route_c_geometry_and_memory(tmp_path, capsys, monkeypatch, n_signed, message):
    import loctrace.cli as cli_mod

    if n_signed is None:  # small_config's three lambdas all run route C, the check at 2
        n_signed = route_c_budget_edge(8.0, 3, RUN_SECONDS_MAX)[1]
    # nothing is built: the refusal comes from the geometry alone
    monkeypatch.setattr(cli_mod, "build_fourier", _refuse_work)
    monkeypatch.setattr(cli_mod, "SignedTraceLab", _refuse_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(small_config(route_c={"enabled": True, "n_signed": n_signed, "max_lambda": 8.0}))
    )
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_lambda, lambdas", [(8.0, 3), (16.0, 4)])
def test_validate_accepts_route_c_grids_up_to_the_budget_edge(monkeypatch, max_lambda, lambdas):
    # the largest n_signed the 2 GiB budget takes, and the first it refuses, from
    # route_c_plan: about 8.30M at max_lambda 8 and 5.75M at 16.  The run-time budget
    # binds long before, at about 483k and 286k; it lets 2 GiB through only to passes of
    # thousands of lams (their Dirichlet tables are read at 2.8e-8 s per 8 bytes, 7.5 s
    # per 2 GiB), so here the byte budget is probed with the run-time budget lifted
    accepted, refused = route_c_budget_edge(max_lambda, lambdas, math.inf)
    assert refused == accepted + 2

    def config(n_signed):
        cfg = small_config(
            lambdas=[2.0, 4.0, 8.0, 16.0],
            route_c={"enabled": True, "n_signed": n_signed, "max_lambda": max_lambda},
        )
        cfg["grid"]["log_t_half_range"] = math.log(1e4)
        return cfg

    with pytest.raises(ConfigError, match="route_c: route C would take at least "):
        validate_config(config(accepted))
    monkeypatch.setattr(cutoff_trace_mod, "RUN_SECONDS_MAX", math.inf)
    assert validate_config(config(accepted))["route_c"]["n_signed"] == accepted
    with pytest.raises(ConfigError, match=f"n_signed {refused} up to lambda {max_lambda} needs at least"):
        validate_config(config(refused))


@pytest.mark.parametrize("lambdas", [[2.0, 4.0, 8.0, 16.0, 32.0], [8.0, 16.0, 32.0]])
def test_cli_refuses_route_c_beyond_the_run_time_budget(tmp_path, capsys, monkeypatch, lambdas):
    # the default R sweep at the byte budget's edge: its cyclicity check alone would take
    # 8.2e11 multiply-adds at lam 2 and 5.2e13 at lam 8, minutes and hours.  Refused from
    # the plan's arithmetic, with nothing built
    import loctrace.cli as cli_mod

    monkeypatch.setattr(cli_mod, "build_fourier", _refuse_work)
    monkeypatch.setattr(cli_mod, "SignedTraceLab", _refuse_work)
    config = copy.deepcopy(DEFAULT_CONFIGS["R"])
    config["route_c"]["n_signed"] = 8296438
    config["lambdas"] = lambdas
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 0.1
    assert rc == 2
    multiply_adds = {2.0: "8.191e+11", 8.0: "5.218e+13"}[min(lambdas)]
    assert re.fullmatch(
        rf"config error: route_c: route C would take at least [0-9.e+]+ s, above the {RUN_SECONDS_MAX:g} s "
        rf"budget, [0-9.e+]+ s of it for {re.escape(multiply_adds)} multiply-adds of the cyclicity check "
        r"\(width 0\.25, support_radius 1\.5\)\n",
        capsys.readouterr().err,
    )
    assert not (tmp_path / "out").exists()


def test_cli_lab_and_sweep_refuse_a_route_c_plan_beyond_the_byte_budget(monkeypatch):
    # with the run-time budget lifted, the first n_signed whose plan up to lam 16 over four
    # lams (the check at lam 2) needs more than 2 GiB, and the first whose one-lam plan
    # does, as a lab's does.  validate_config and the sweep refuse the first,
    # validate_config and the lab's constructor the second, each pair in the same words;
    # nothing is built
    import loctrace.cutoff_trace as cutoff_trace_mod

    monkeypatch.setattr(cutoff_trace_mod, "RUN_SECONDS_MAX", math.inf)
    monkeypatch.setattr(cutoff_trace_mod, "full_line_fourier", lambda n, cols: SimpleNamespace(n=n))
    monkeypatch.setattr(SignedTraceLab, "_ue_cosine_rows", lambda self, vs, us: np.empty((0, 0)))
    monkeypatch.setattr(cutoff_trace_mod, "ue_panels", _refuse_work)
    lams = [2.0, 4.0, 8.0, 16.0]
    passes, labs = route_c_budget_edge(16.0, 4, math.inf)[1], route_c_budget_edge(16.0, 1, math.inf)[1]
    assert passes < labs

    def refusal(n_signed):
        return f"n_signed {n_signed} up to lambda 16.0 needs at least 2 GiB, above the 2 GiB budget"

    for n_signed, lambdas in ((passes, lams), (labs, [16.0])):
        config = small_config(lambdas=lambdas, route_c={"enabled": True, "n_signed": n_signed, "max_lambda": 16.0})
        with pytest.raises(ConfigError) as refused:
            validate_config(config)
        assert str(refused.value) == f"route_c: {refusal(n_signed)}"
    with pytest.raises(ValueError) as refused:
        SignedTraceLab(TestFunction(), labs, 16.0)
    assert str(refused.value) == refusal(labs)
    lab = SignedTraceLab(TestFunction(), passes, 16.0)  # its one-lam plan fits
    with pytest.raises(ValueError) as refused:
        lab.sweep(lams, cyclicity_at=2.0)
    assert str(refused.value) == refusal(passes)


def test_route_c_pass_logs_the_plan_validate_config_budgeted(tmp_path, caplog, monkeypatch):
    # the default R sweep: its pass logs the peak bytes and the predicted seconds of the
    # plan of its three lams and its check at lam 2, the plan validate_config judged
    import loctrace.cli as cli_mod

    plans = []

    def recording_plan(*args, **kwargs):
        plans.append(route_c_plan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(cli_mod, "route_c_plan", recording_plan)
    with caplog.at_level(logging.INFO, logger="loctrace"):
        run_trace_sweep(copy.deepcopy(DEFAULT_CONFIGS["R"]), tmp_path)
    (plan,) = plans
    assert plan == route_c_plan(TestFunction(), 4096, 8.0, 3, 2.0)
    (passed,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("route C pass")]
    assert f" peak_bytes_estimate={plan.peak_bytes} predicted_s={plan.seconds:.6g} " in passed
    assert 0 < plan.seconds < RUN_SECONDS_MAX


# accepted inputs that fail a gate because of the program (ROADMAP item 17): each must
# pass every gate, and each is a strict expected failure at the gate named until mended
KNOWN_DEFECTS = [
    pytest.param(
        {"route_c": {"enabled": True, "n_signed": 2048, "max_lambda": 8.0}},
        "route_c_agreement",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: 4.12e-3 at lam 2"),
        id="n_signed 2048",
    ),
    pytest.param(
        {"route_c": {"enabled": True, "n_signed": 6144, "max_lambda": 8.0}},
        "route_c_agreement",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: 1.13e-3 at lam 2"),
        id="n_signed 6144",
    ),
    pytest.param(
        {"route_c": {"enabled": False}, "test_function": {**DEFAULT_CONFIGS["R"]["test_function"], "width": 1.0}},
        "asymptote_sandwich",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 2 and 9: 1.143 at lam 32"),
        id="width 1.0",
    ),
]


@pytest.mark.parametrize("change, gate", KNOWN_DEFECTS)
def test_known_defects_pass_every_gate(tmp_path, capsys, change, gate):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**copy.deepcopy(DEFAULT_CONFIGS["R"]), **change}))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary_R.json").read_text())
    failed = sorted(name for name, g in summary["gates"].items() if not g["passed"])
    if set(failed) - {gate}:  # another defect: a failure, not the expected one
        pytest.fail(f"gates other than {gate} failed: {failed}")
    assert (rc, failed) == (0, []), capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 2, 5 and 9: conductor_at_one -0.94181 against H(f)(1) -0.8213, named by no key or gate",
)
def test_summary_names_the_conductor_gap_on_a_coarse_grid(tmp_path):
    # n 1024 over L 13: the product lattice's G is coarse, and conductor_value is 0.12 off
    # H(f)(1) while asymptote_sandwich passes at 0.074 and the fit gates fail for want of
    # lambdas in the asymptotic regime.  The summary must report the gap, as a key or as
    # a failed gate that names the conductor
    profile = {"kind": "log_gauss_bump", "center": 0.4, "width": 0.2, "support_radius": 1.0}
    config = {
        **copy.deepcopy(DEFAULT_CONFIGS["R"]),
        "grid": {"log_t_half_range": 13.0, "n": 1024},
        "test_function": profile,
        "route_c": {"enabled": False},
    }
    summary = run_trace_sweep(config, tmp_path)
    exact = exact_conductor_r(TestFunction(**profile))
    gap = abs(summary["conductor_at_one"] - exact)
    if gap < 0.1:  # not the stated defect: the conductor itself moved
        pytest.fail(f"conductor_at_one {summary['conductor_at_one']} is within 0.1 of H(f)(1) {exact}")
    named = [key for key in summary if "conductor" in key and key != "conductor_at_one"]
    named += [name for name, g in summary["gates"].items() if "conductor" in name and not g["passed"]]
    assert named, f"conductor_at_one is {gap:.4f} off H(f)(1) {exact:.4f}, and no key or failed gate names it"


def test_cli_refuses_support_beyond_the_grid(tmp_path, capsys, monkeypatch):
    import loctrace.cli as cli_mod

    monkeypatch.setattr(cli_mod, "build_fourier", _refuse_work)
    monkeypatch.setattr(cli_mod, "TraceComputation", _refuse_work)
    cfg = tmp_path / "cfg.json"
    profile = {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 10.0}
    cfg.write_text(json.dumps(small_config(test_function=profile)))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "support radius 10.0 reaches the grid half-range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, half_range",
    [("R", 352.37), ("C", 360.0), ("H", 354.9), ("C", 354.8), ("H", 354.8)],
)
def test_cli_refuses_a_grid_beyond_the_float_range(tmp_path, capsys, monkeypatch, field, half_range):
    # the product lattice's e^{2L} leaves the floats in C's Bessel argument squared,
    # 16 pi^2 e^{2L}, from L 352.36 on: one bound for every field, before any work.  C
    # and H at 354.8 keep e^{2L} itself in the floats, but their sweeps overflow
    import loctrace.cli as cli_mod

    monkeypatch.setattr(cli_mod, "make_backend", _refuse_work)
    monkeypatch.setattr(cli_mod, "make_grid", _refuse_work)
    monkeypatch.setattr(cli_mod, "build_fourier", _refuse_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config(field=field, grid={"log_t_half_range": half_range, "n": 64})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: config.grid.log_t_half_range {half_range} leaves the float range (below 352.36)\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, half_range", [("R", 291.0), ("R", 340.0), ("C", 352.35), ("H", 352.35)])
def test_the_float_range_admits_grids_that_certify(tmp_path, field, half_range):
    # R at n 4096 on both sides of L 291.25, from where a pad slope in powers of t
    # overflows, and C and H just below the bound: each certifies and runs to its summary
    # with no warning
    config = small_config(field=field, grid={"log_t_half_range": half_range, "n": 4096})
    assert validate_config(config) is config
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_trace_sweep(config, tmp_path)
    assert summary["unitarity_defect"] <= DEFECT_THRESHOLDS[field]


@st.composite
def float_range_configs(draw):
    """A sweep on any field and any even n in 64-16384, within 60 of the float range's edge."""
    L = draw(st.floats(LOG_T_LIMIT - 60.0, LOG_T_LIMIT, exclude_max=True))
    grid = {"log_t_half_range": L, "n": 2 * draw(st.integers(32, 8192))}
    return small_config(field=draw(st.sampled_from(["R", "C", "H"])), grid=grid)


@settings(max_examples=60)
@given(config=float_range_configs())
@example(config=small_config(grid={"log_t_half_range": 288.0, "n": 1024}))  # R's pad slope overflowed
@example(config=small_config(grid={"log_t_half_range": 292.0, "n": 4096}))  # from 287.7 and 291.25
def test_every_grid_inside_the_float_range_sweeps_without_a_warning_property(config):
    # every grid validate_config admits computes: it passes (0) or fails a named gate or
    # certification (1), with no numpy warning and no traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(["trace-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "rho, entries",
    [
        (7.0, "840061200 entries (60874 nodes x 13800 points)"),
        (8.2, "10677970800 entries (235405 nodes x 45360 points)"),
    ],
)
def test_cli_refuses_a_cosine_table_beyond_the_cap(tmp_path, capsys, monkeypatch, rho, entries):
    # the default R sweep with a wider support: the set-up's cosine table, nodes x
    # (degree + 1), alone is beyond the run-time budget (10 s and 113 s of set-up)
    import loctrace.cli as cli_mod

    monkeypatch.setattr(cli_mod, "build_fourier", _refuse_work)
    monkeypatch.setattr(cli_mod, "SignedTraceLab", _refuse_work)
    config = copy.deepcopy(DEFAULT_CONFIGS["R"])
    config["test_function"]["support_radius"] = rho
    # the table of the default lab's bad rows, 32 rows against 512 columns
    f = TestFunction(**config["test_function"])
    w_max = signed_point(4096, 31) * signed_point(4096, 511)
    nodes, points = log_lattice(f, w_max)[2], chebyshev_degree(f, w_max) + 1
    assert f"{nodes * points} entries ({nodes} nodes x {points} points)" == entries
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: route_c: route C would take at least "), err
    assert err.endswith(
        f"s of it for {nodes * points:.4g} entries of the bad rows' cosine table "
        f"(width 0.25, support_radius {rho})\n"
    ), err
    assert not (tmp_path / "out").exists()
    # support radii up to 6.6 in steps of 0.1 stay accepted: 1.2e8 entries and 1.44 s of
    # set-up at 6.1, the last the cosine-table cap took, and 3.6e8 and 7.4 s at 6.6
    for rho in (6.1, 6.6):
        config["test_function"]["support_radius"] = rho
        assert validate_config(config)["test_function"]["support_radius"] == rho


@pytest.mark.parametrize(
    "profile, message",
    [
        ({"width": 1e-200}, "width 1e-200: its square underflows to 0"),  # ZeroDivisionError in f(1)
        ({"width": 1e160}, "width 1e+160: its square overflows a float"),  # OverflowError in of_log
        ({"center": 1e300}, "center 1e+300: its square overflows a float"),  # OverflowError in f(1)
    ],
    ids=["width 1e-200", "width 1e160", "center 1e300"],
)
def test_cli_refuses_a_profile_the_floats_cannot_hold(tmp_path, capsys, profile, message):
    # route C is off: the profile is built and checked for every config
    cfg = tmp_path / "cfg.json"
    tf = {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5, **profile}
    cfg.write_text(json.dumps(small_config(test_function=tf)))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: config.test_function: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["C", "H"])
def test_cli_refuses_route_c_off_field_r(tmp_path, capsys, field):
    # route C runs on the signed real line only; off R it was skipped without a word
    config = copy.deepcopy(DEFAULT_CONFIGS[field])
    config["route_c"] = {"enabled": False}
    assert validate_config(config) is config
    config["route_c"] = {"enabled": True}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: config.route_c.enabled: route C runs on field R only, not {field}\n"
    )
    assert not (tmp_path / "out").exists()


def test_cli_refuses_an_unknown_log_level(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOCTRACE_LOG", "bogus")
    rc = main(["sandbox", "--suite", "annex2-multiplier", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "config error: LOCTRACE_LOG 'BOGUS' is not DEBUG, INFO, WARNING, ERROR or CRITICAL\n"
    assert not (tmp_path / "out").exists()


@st.composite
def sweep_configs(draw):
    L = draw(st.floats(1.0, 10.0))
    # lambdas up to 10 and support radii up to 12 reach beyond some grids
    lams = sorted(draw(st.sets(st.floats(0.5, 10.0), min_size=1, max_size=4)))
    return {
        "field": draw(st.sampled_from(["R", "C", "H"])),
        "grid": {"log_t_half_range": L, "n": 2 * draw(st.integers(1, 256))},
        "test_function": {
            "kind": "log_gauss_bump",
            "center": draw(st.floats(-1.0, 1.0)),
            "width": draw(st.floats(0.1, 1.0)),
            "support_radius": draw(st.floats(0.1, 12.0)),
        },
        "lambdas": lams,
    }


def _off_centre_r(center: float) -> dict:
    """The default R grid and lambdas, route C off, with a width 0.025 profile at ``center``."""
    profile = {"kind": "log_gauss_bump", "center": center, "width": 0.025, "support_radius": 1.5}
    return {k: v for k, v in DEFAULT_CONFIGS["R"].items() if k != "route_c"} | {"test_function": profile}


# a support whose e^R is beyond the floats, with route C's block empty (max_lambda below
# the first point of n_signed 64), which once ended in an OverflowError traceback from the
# plan's band; its grid is beyond the float range too, so it is now refused before the plan
_WIDE_SUPPORT = {
    "field": "R",
    "grid": {"log_t_half_range": 1000.0, "n": 64},
    "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 800.0},
    "lambdas": [0.01],
    "route_c": {"enabled": True, "n_signed": 64, "max_lambda": 0.01},
}


@settings(max_examples=60)
@given(config=sweep_configs())
@example(config=_off_centre_r(1.0))  # f(1) = 0: the slope's relative error divided by it
@example(config=_off_centre_r(0.9644))  # f(1) = 5e-324: the slope's relative error was inf
@example(config=_WIDE_SUPPORT)
@example(config=small_config(grid={"log_t_half_range": 300.0, "n": 64}))  # R's pad slope overflowed
@example(config=small_config(field="C", grid={"log_t_half_range": 360.0, "n": 64}))  # so did e^{2L}
def test_trace_sweep_exits_0_1_or_2(config):
    # computes and passes (0), fails a named gate with the summary written or
    # fails certification on one stderr line (1), or is refused (2)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["trace-sweep", "--config", str(cfg), "--out", str(out)])
        summary = out / f"summary_{config['field']}.json"
        if rc == 0:
            assert json.loads(summary.read_text())["passed"]
        elif rc == 1:
            if err.getvalue().startswith("FAIL certification: "):
                assert not out.exists()
            else:
                assert not json.loads(summary.read_text())["passed"]
        else:
            assert rc == 2
            assert err.getvalue().startswith("config error: ")
            assert not out.exists()


def test_route_c_lab_only_when_a_lambda_qualifies(tmp_path, monkeypatch):
    import loctrace.cli as cli_mod

    built = []
    real_lab = cli_mod.SignedTraceLab

    def spy(f, n, max_lambda):
        built.append((n, max_lambda))
        return real_lab(f, n, max_lambda)

    monkeypatch.setattr(cli_mod, "SignedTraceLab", spy)
    # no lambda up to max_lambda: no lab, no route C column or gates
    cfg = small_config(route_c={"enabled": True, "n_signed": 1024, "max_lambda": 1.5})
    summary = run_trace_sweep(cfg, tmp_path / "none")
    assert built == []
    assert all(r["t_route_C"] is None for r in summary["rows"])
    assert "route_c_agreement" not in summary["gates"]
    # sized to the largest qualifying lambda, not to max_lambda
    cfg = small_config(route_c={"enabled": True, "n_signed": 1024, "max_lambda": 7.0})
    summary = run_trace_sweep(cfg, tmp_path / "some")
    assert built == [(1024, 4.0)]
    assert [r["t_route_C"] is not None for r in summary["rows"]] == [True, True, False]
    assert summary["gates"]["trace_cyclicity"]["value"] < 1e-8


def test_cli_sandbox_runs(tmp_path):
    rc = main(["sandbox", "--suite", "annex2-multiplier", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "sandbox.json").read_text())
    assert report["passed"]


def test_cli_trace_sweep_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    rc = main(["trace-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0


def test_widened_r_grid_keeps_its_asymptote_sandwich(tmp_path):
    # the default R sweep with its half-range widened 1.24x (11.43, n 2048,
    # route C off): without the strip below the product lattice route B's
    # residual at lam = 32 was 5.54e-9 against a slack of 5.43e-9
    cfg = {
        "field": "R",
        "grid": {"log_t_half_range": 11.426762100361486, "n": 2048},
        "test_function": {"kind": "log_gauss_bump", "center": 0.0, "width": 0.25, "support_radius": 1.5},
        "lambdas": [2.0, 4.0, 8.0, 16.0, 32.0],
        "route_c": {"enabled": False},
    }
    summary = run_trace_sweep(cfg, tmp_path)
    assert summary["gates"]["asymptote_sandwich"]["passed"], summary["gates"]["asymptote_sandwich"]
    assert summary["passed"]


def test_zero_profile_fit_degenerate(tmp_path, monkeypatch):
    # a vanishing profile zeroes every trace column and the fit must explain why
    import numpy as np

    import loctrace.cli as cli_mod
    from loctrace.operators import TestFunction

    class ZeroFunction(TestFunction):
        def __call__(self, t):
            out = super().__call__(t)
            return out * 0.0

        @property
        def value_at_1(self):
            return 0.0

    real_tf = cli_mod.TestFunction
    monkeypatch.setattr(cli_mod, "TestFunction", lambda **kw: ZeroFunction())
    summary = run_trace_sweep(small_config(), tmp_path)
    assert all(abs(r["t_route_B"]) < 1e-14 for r in summary["rows"])
    assert "error" in summary["fit"]
    assert not summary["passed"]
    monkeypatch.setattr(cli_mod, "TestFunction", real_tf)


def test_default_configs_validate():
    for cfg in DEFAULT_CONFIGS.values():
        validate_config(json.loads(json.dumps(cfg)))


def test_summary_and_sandbox_report_are_plain_json(tmp_path):
    # the returned objects themselves, not only the files, hold no numpy scalars
    cfg = small_config(route_c={"enabled": True, "n_signed": 1024, "max_lambda": 4.0})
    summary = run_trace_sweep(cfg, tmp_path)
    assert json.loads(json.dumps(summary)) == json.loads((tmp_path / "summary_R.json").read_text())
    json.dumps(run_sandbox(list(SUITE_NAMES)))


# the gates each verify sweep judges; the narrow H grid is run with fit_gates=False
VERIFY_GATES = {
    "R": {
        "route_ab_agreement", "route_c_agreement", "trace_cyclicity",
        "asymptote_sandwich", "fit_slope", "fit_intercept",
    },
    "C": {"route_ab_agreement", "asymptote_sandwich", "fit_slope", "fit_intercept"},
    "H": {"route_ab_agreement", "asymptote_sandwich"},
    "H-asymptotic": {"route_ab_agreement", "asymptote_sandwich", "fit_slope", "fit_intercept"},
}


PER_LAMBDA_GATES = {"route_ab_agreement", "route_c_agreement", "asymptote_sandwich"}


def test_default_h_sweep_judges_the_gates_verify_judges(tmp_path, capsys):
    # without --config the narrow H grid leaves its fit gates out, as verify does
    assert main(["trace-sweep", "--field", "H", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "ok: 5 lambdas, gates passed\n"
    summary = json.loads((tmp_path / "summary_H.json").read_text())
    assert set(summary["gates"]) == VERIFY_GATES["H"]
    assert "error" in summary["fit"]  # computed and written, not judged


def test_sweeps_call_no_numpy_linalg(tmp_path, monkeypatch):
    # the asymptotic fit has a closed form and route C traces a DCT-IV with no solver:
    # the default R sweep with route C, and the C sweep, pass with LAPACK's entry points
    # refused (calling one faults in about 1.1 MB of LAPACK code pages)
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called numpy.linalg")

    for name in ("lstsq", "svd", "eigh", "solve", "inv", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for key in ("R", "C"):
        summary = run_trace_sweep(copy.deepcopy(DEFAULT_CONFIGS[key]), tmp_path / key, fit_gates=True)
        assert summary["passed"] and "error" not in summary["fit"], key
        assert ("trace_cyclicity" in summary["gates"]) == (key == "R")  # route C ran on R


def test_verify_gates_have_one_shape(tmp_path):
    report = run_verify(tmp_path)
    assert report == json.loads((tmp_path / "verify.json").read_text())
    for key, gate_names in VERIFY_GATES.items():
        summary = json.loads((tmp_path / f"summary_{key}.json").read_text())
        assert set(summary["gates"]) == gate_names
        assert report["sweeps"][key] == {"passed": summary["passed"], "gates": summary["gates"]}
        assert summary["passed"] == all(g["passed"] for g in summary["gates"].values())
        for name, g in summary["gates"].items():
            if name.startswith("fit_") and "error" in summary["fit"]:
                assert g == {"passed": False, "error": summary["fit"]["error"]}
                continue
            keys = {"value", "tolerance", "passed"}
            if name in PER_LAMBDA_GATES:  # judged at every lam, reported where it is worst
                keys.add("at_lambda")
                assert g["at_lambda"] in summary["config"]["lambdas"], name
            assert set(g) == keys, name
            if name == "asymptote_sandwich":  # the one gate that passes at its bound
                assert g["passed"] is (g["value"] <= g["tolerance"])
            else:
                assert g["passed"] is (g["value"] < g["tolerance"]), name
    # the fit of the narrow H grid is still computed and written, only not judged
    summary_h = json.loads((tmp_path / "summary_H.json").read_text())
    assert "f1_estimate" in summary_h["fit"] or "error" in summary_h["fit"]
    assert "fit_gate_factor" not in summary_h["config"]


@pytest.mark.parametrize("slack", [0.0, 5.44e-9, 1e-3, 0.3, 1.0, 123.456])
def test_sandwich_passes_at_its_bound_and_fails_one_float_above(slack):
    bound = slack + 1e-12
    gate = _sandwich_gate(bound, slack)
    assert gate == {"value": 1.0, "tolerance": 1.0, "passed": True}
    gate = _sandwich_gate(math.nextafter(bound, math.inf), slack)
    assert gate["value"] > 1.0 and gate["passed"] is False


@settings(max_examples=300)
@given(slack=st.floats(0.0, 1e6), steps=st.integers(-4, 4))
def test_sandwich_ratio_decides_as_the_inequality(slack, steps):
    bound = slack + 1e-12
    residual = bound
    for _ in range(abs(steps)):
        residual = math.nextafter(residual, math.inf if steps > 0 else 0.0)
    assert _sandwich_gate(residual, slack)["passed"] is (residual <= slack + 1e-12)


# the opening of each INFO stage line, and the module its record must name
STAGE_MODULES = {
    "certification: field=": "fourier",
    "certification: signed ": "fourier",
    "transform of ": "cutoff_trace",
    "route A: ": "cutoff_trace",
    "route B: ": "cutoff_trace",
    "route C set-up: ": "cutoff_trace",
    "route C trace: ": "cutoff_trace",
    "route C cyclicity: ": "cutoff_trace",
    "route C pass: ": "cutoff_trace",
    "sweep: ": "cli",
    "sandbox suite ": "sandbox",
}


def test_each_stage_record_names_its_module(tmp_path, caplog):
    # one timer logs every stage, from its caller's frame: both certifications, the
    # routes, route C, the sweep and a sandbox suite, each with its duration
    config = small_config(route_c={"enabled": True, "n_signed": 1024, "max_lambda": 2.0})
    with caplog.at_level(logging.INFO, logger="loctrace"):
        run_trace_sweep(config, tmp_path)
        run_sandbox(["annex2-polar"])
    seen = set()
    for record in caplog.records:
        if record.levelno != logging.INFO:
            continue
        message = record.getMessage()
        (stage,) = [s for s in STAGE_MODULES if message.startswith(s)]
        assert record.module == STAGE_MODULES[stage], message
        assert float(message.split(" duration_s=")[1]) >= 0.0, message
        seen.add(stage)
    assert seen == set(STAGE_MODULES)


def test_failed_gates_named_on_stderr(tmp_path, capsys, monkeypatch):
    import loctrace.cli as cli_mod

    failing = {"passed": False, "value": 4.1e-3, "tolerance": 1e-3, "at_lambda": 2.0}
    passing = {"passed": True, "value": 0.0, "tolerance": 1.0}
    no_fit = {"passed": False, "error": "only 2 lambdas are inside the asymptotic regime"}
    cyclic = {"passed": False, "value": 3e-8, "tolerance": 1e-8}
    gates = {"a": failing, "b": passing, "c": no_fit, "d": cyclic}
    summary = {"passed": False, "rows": [], "gates": gates}
    monkeypatch.setattr(cli_mod, "run_trace_sweep", lambda config, out, fit_gates=True: summary)
    assert main(["trace-sweep", "--out", str(tmp_path)]) == 1
    # a per-lam gate names the lam where it is worst; a gate without one does not
    a = "a (4.1e-03, tolerance 1.0e-03, at lam=2)"
    c = "c (only 2 lambdas are inside the asymptotic regime)"
    d = "d (3.0e-08, tolerance 1.0e-08)"
    assert capsys.readouterr().err == f"FAIL gates: {a}, {c}, {d}\n"
    report = {
        "passed": False,
        "sandbox_passed": False,
        "sweeps": {"R": summary, "H": {"passed": True, "gates": {"a": passing}}, "C": summary},
    }
    monkeypatch.setattr(cli_mod, "run_verify", lambda out: report)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    sweep = lambda k: f"{k}:{a}, {k}:{c}, {k}:{d}"
    assert capsys.readouterr().err == f"FAIL gates: {sweep('R')}, {sweep('C')}, sandbox\n"
