"""Benchmark entry point for jaeger.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Workloads: train, train-long-docs, infer (see perfbench/WORKLOADS.md).
With --trace 0 the result holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. The last line of stdout
is the result object; the line before it records the environment, the
input shape and any hook that could not be installed. The program is
imported from ./src of the checkout this file sits in, and the run
exits non-zero without a result when those sources are absent.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "train-long-docs", "infer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_jaeger():
    """Import jaeger from this checkout's sources, never from elsewhere."""
    if not (SRC / "jaeger" / "__init__.py").is_file():
        sys.exit(f"error: jaeger sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import jaeger

    if Path(jaeger.__file__).resolve().parent != (SRC / "jaeger").resolve():
        sys.exit(f"error: imported jaeger from {jaeger.__file__}, not from {SRC}")
    return jaeger


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None when it is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked through the library numpy ships."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(jaeger) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "jaeger": getattr(jaeger, "__version__", None),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    jaeger = import_jaeger()
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = workloads.Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                              work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(jaeger), **{k: v for k, v in out.items() if k != "metrics"}}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": out["failed"] == 0 and not out["notes"],
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
