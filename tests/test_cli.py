import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsonschema

from loctrace.cli import (
    CONFIG_SCHEMA,
    CONFIG_VALIDATOR,
    ConfigError,
    DEFAULT_CONFIGS,
    emit_plot_data,
    main,
    run_trace_sweep,
    validate_config,
)


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


def test_config_schema_passes_its_metaschema():
    type(CONFIG_VALIDATOR).check_schema(CONFIG_SCHEMA)
    assert type(CONFIG_VALIDATOR) is jsonschema.validators.validator_for(CONFIG_SCHEMA)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"field": "Q"}, "'Q' is not one of ['R', 'C', 'H']"),
        ({"lambdas": []}, "[] should be non-empty"),
        ({"lambdas": [2.0, -1.0]}, "-1.0 is less than or equal to the minimum of 0"),
        ({"route_c": {"n_signed": 1024, "size": 3}}, "Additional properties are not allowed ('size' was unexpected)"),
    ],
)
def test_schema_violation_message_is_unchanged(overrides, message):
    cfg = small_config(**overrides)
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(cfg, CONFIG_SCHEMA)  # the per-call validator the prebuilt one replaces
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert str(exc.value) == f"config schema violation: {reference.value.message}"
    assert str(exc.value) == f"config schema violation: {message}"


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


def test_cli_exit_codes(tmp_path, capsys):
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


def _refuse_work(*args, **kwargs):
    raise AssertionError("a refused config must not reach the computation")


@pytest.mark.parametrize(
    "n_signed, message",
    [
        (4095, "even n"),  # odd
        (64, "too close to the signed-grid extent"),  # extent/2 = 1.97 < lambda 8
        (2**20, "budget"),  # about 1.4 TiB of blocks
    ],
)
def test_cli_refuses_route_c_geometry_and_memory(tmp_path, capsys, monkeypatch, n_signed, message):
    import loctrace.cli as cli_mod

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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(config=sweep_configs())
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
