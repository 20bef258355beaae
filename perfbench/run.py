"""Benchmark launcher for dpgo.

    python3 perfbench/run.py --workload admm-4x60 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
IMPORT_REPEATS = 5
THREADS = 1
DPGO_MODULES = ("dpgo.synth", "dpgo.g2o_io", "dpgo.partition", "dpgo.refine", "dpgo.consensus", "dpgo.env",
                "dpgo.nn.encoder", "dpgo.nn.autodiff")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads() -> int:
    """Give every BLAS/OpenMP pool one thread; must run before numpy is imported.

    A pool that spans both cores of a small shared host waits for whichever
    core the host slows down, which the host-speed correction, sampled on the
    main thread, cannot see.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    return THREADS


def workload_names() -> list[str]:
    """The workloads declared in BENCHMARK.json, the one list of them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def time_dpgo_import() -> float:
    """Median host-speed corrected time to import the ``dpgo`` modules, over
    IMPORT_REPEATS fresh imports.

    Each repeat drops every ``dpgo`` module from ``sys.modules`` first; the
    modules of the last repeat stay loaded for the run.
    """
    import importlib

    import hostspeed

    samples = []
    for _ in range(IMPORT_REPEATS):
        for module in [m for m in sys.modules if m == "dpgo" or m.startswith("dpgo.")]:
            del sys.modules[module]
        with hostspeed.timed() as t:
            for module in DPGO_MODULES:
                importlib.import_module(module)
        samples.append(t.corrected_s)
    return statistics.median(samples)


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    """Run every workload in its own process and print each one's report."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workload_names(), "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="time budget for the timed jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dpgo", "__init__.py")):
        print(f"dpgo sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)

    threads = cap_threads()
    import numpy  # noqa: F401  (third-party imports are not part of set-up time)
    import scipy.sparse.linalg  # noqa: F401

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import_s = time_dpgo_import()
    import runner

    return runner.run(args, root=ROOT, import_s=import_s, threads=threads, nproc=NPROC, commit=git_commit(ROOT))


if __name__ == "__main__":
    sys.exit(main())
