"""loctrace benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sandbox|sweep-routec|sweep-ab \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; loctrace is imported from its
``src``.  A batch laboratory with one caller in a closed loop: the run starts
one fresh worker process per pass, one after another, until the next pass
would end after ``--seconds``.  A fresh process per pass is what a one-shot
``loctrace verify`` pays (cold transforms, first-touch memory), it keeps one
workload's peak RSS out of another's, and it gives one set-up sample per
pass.

With ``--trace 0`` every pass is untraced and the last stdout line carries
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` passes alternate
untraced / traced and it carries the per-layer metrics.  Details (every
pass, spans, environment) go to ``.bench_out/<workload>-seed<N>-trace<T>/``.
See bench/README.md for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sandbox", "sweep-routec", "sweep-ab")
# a run must end within 180 s; a worker still going at this point is killed
RUN_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 5


class WorkerError(RuntimeError):
    pass


def _lines(fd: int, deadline: float):
    """Lines of a worker's stdout, raising WorkerError past the deadline."""
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode()
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise WorkerError("worker timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buf += chunk


def run_worker(args, index: int, traced: bool, out: Path, deadline: float, setup_only=False):
    """Start a worker; returns its set-up time and its result (None if set-up only)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--index", str(index),
        "--trace", str(int(traced)),
        "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])  # fmt: skip
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    try:
        lines = _lines(proc.stdout.fileno(), deadline)
        if next(lines, None) != "ready":
            raise WorkerError(f"pass {index}: worker failed during set-up")
        setup_s = time.perf_counter() - t0
        last = None
        for last in lines:
            pass
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        if proc.returncode != 0 or (last is None and not setup_only):
            raise WorkerError(f"pass {index}: worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if setup_only:
        return setup_s, None
    result = json.loads(last)
    result["process_s"] = time.perf_counter() - t0
    return setup_s, result


def _wall(p: dict) -> float:
    return sum(o["wall_s"] for o in p["ops"])


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    return {
        "wall_s": statistics.median(_wall(p) for p in plain),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(sum(o["cpu_s"] for o in p["ops"]) for p in plain),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }


def per_layer(passes: list[dict], names: list[str]) -> dict[str, float]:
    """Per-layer metric ``<span>.<field>``: median over traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    derived = {
        "trace.overhead_s": statistics.median(map(_wall, traced))
        - statistics.median(map(_wall, plain)),
        "trace.uncovered_share": statistics.median(
            (_wall(p) - p["root_s"]) / _wall(p) for p in traced
        ),
        "trace.absent_layers": max(len(p["absent"]) for p in traced),
        "checks.error_rate": sum(not o["ok"] for o in ops) / len(ops),
        "checks.gate_ratio_max": max(o["gate_ratio"] for o in ops),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        span, _, key = name.rpartition(".")
        values[name] = statistics.median(p["layers"].get(span, {}).get(key, 0) for p in traced)
    return values


def git_commit() -> str | None:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "loctrace" / "__init__.py").is_file():
        print(f"error: no loctrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    start = time.perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            setup_s, result = run_worker(args, len(passes), traced, out, start + RUN_LIMIT_S)
            setups.append(setup_s)
            passes.append(result)
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["process_s"] for p in passes)
            if args.trace and len(passes) < 2:
                continue  # a traced run needs one untraced and one traced pass
            if elapsed + typical > args.seconds:
                break
        # workloads with long passes get extra set-up samples
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(args, 0, False, out, start + RUN_LIMIT_S, True)[0])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(passes, list(units))
    else:
        values = end_to_end(passes, setups)
    ops = [o for p in passes for o in p["ops"]]
    failed = sum(not o["ok"] for o in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "env": passes[0]["env"],
        "absent": sorted({a for p in passes if p["traced"] for a in p["absent"]}),
        "setup_samples_s": setups,
        "result": result,
        "passes": passes,
    }
    (out / "result.json").write_text(json.dumps(detail, indent=1))
    env = detail["env"]
    blas = "; ".join(
        f"{b.get('config', b['library'])} threads={b.get('threads')}" for b in env["openblas"]
    )
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, {failed}/{len(ops)} failed; "
        f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, {blas}; "
        f"commit {detail['git_commit'] or 'unknown'}",
        file=sys.stderr,
    )
    if detail["absent"]:
        print(f"absent layers: {', '.join(detail['absent'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
