"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --root DIR --workload NAME --seed N --index I \
        --trace 0|1 --out DIR

Prints ``ready`` once loctrace is imported and the inputs exist (the parent
times set-up up to that line), then, unless ``--setup-only``, runs the pass and prints one JSON line
with per-operation times, the process's peak RSS, the environment and,
when traced, the per-layer totals.  loctrace is imported from
``<root>/src`` only; a missing or foreign package is an error.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import sys
from dataclasses import asdict
from pathlib import Path


def import_loctrace(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import loctrace

    origin = Path(loctrace.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"loctrace imported from {origin}, not from {src}")
    return loctrace


def blas_info() -> list[dict]:
    """Every OpenBLAS mapped into this process: config string and thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("scipy_openblas_", "")):
            try:
                cfg = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            cfg.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            info.update(config=cfg().decode(), threads=threads())
            break
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "openblas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true", help="exit once the inputs exist")
    args = ap.parse_args()

    import_loctrace(args.root)

    import tracer
    import workloads

    work = args.out / f"pass{args.index}"
    ops = workloads.make_pass(args.workload, args.seed, args.index, work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    work.mkdir(parents=True, exist_ok=True)

    result: dict = {"index": args.index, "traced": bool(args.trace)}
    try:
        if args.trace:
            tr = tracer.Tracer()
            restore, absent = tracer.install(tr)
            try:
                results = [workloads.run_op(op) for op in ops]
            finally:
                restore()
            result.update(
                layers=tr.layer_totals(),
                root_s=tr.root_time(),
                absent=absent + sorted(tr.count_failures),
            )
            spans = [asdict(s) for s in tr.spans]
            (args.out / f"spans-pass{args.index}.json").write_text(json.dumps(spans))
        else:
            results = [workloads.run_op(op) for op in ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["ops"] = [asdict(r) for r in results]
    result["env"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
