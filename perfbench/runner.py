"""One benchmark run: repeated set-ups, timed jobs, output checks, metrics."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import tempfile

import numpy as np
import scipy

import hostspeed
import layers
import workloads
from tracing import Tracer

MIN_JOBS = 3
SETUP_REPEATS = 4
END_TO_END = [("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"), ("cost_ratio", "ratio")]
OUT_DIR = ".perfbench-out"


def _set_up(wl, tracer, k):
    """Set up SETUP_REPEATS times; return the last state, every corrected
    set-up time and every wall time.

    Garbage of earlier set-ups and jobs is collected before each timer starts,
    so that it is not charged to the set-up.
    """
    state, times, walls, phases = None, [], [], []
    for r in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.phase = f"setup{k}.{r}"
            phases.append(tracer.phase)
        state = None  # release the previous set-up before building the next
        gc.collect()
        with hostspeed.timed() as t:
            state = wl.setup()
        times.append(t.corrected_s)
        walls.append(t.wall_s)
    return state, times, walls, phases


def _run_jobs(wl, seconds, tracer):
    """Set up and run a job at least MIN_JOBS times, then again while the
    next job fits into ``seconds`` of job wall time and no job has failed.

    Each job gets fresh set-ups, so that the set-up times are sampled across
    the whole run. Traced runs alternate traced and untraced iterations,
    starting with a traced one, so that the tracing overhead is measured
    within the run.
    """
    records = []
    spent = 0.0
    state = None
    while len(records) < MIN_JOBS or (
        not any(r["failures"] for r in records) and spent + records[-1]["job_wall_s"] <= seconds
    ):
        k = len(records)
        traced = tracer is not None and k % 2 == 0
        if tracer is not None:
            tracer.remove()
            if traced:
                layers.instrument(tracer)
        state = None  # release the previous set-up before building the next
        state, setup_times, setup_walls, setup_phases = _set_up(wl, tracer, k)

        failures = []
        if tracer is not None:
            tracer.phase = "reference"
        try:
            wl.reference(state)
        except Exception as exc:  # the job still runs and is timed, but cannot be checked
            failures = [f"reference raised {type(exc).__name__}: {exc}"]

        if tracer is not None:
            tracer.phase = f"job{k}"
        out = None
        gc.collect()
        with hostspeed.timed() as t:
            try:
                out = wl.job(state)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"{type(exc).__name__}: {exc}")
        if out is not None and not failures:
            if tracer is not None:
                tracer.phase = "check"
            try:
                failures = wl.check(state, out)
            except Exception as exc:
                failures = [f"check raised {type(exc).__name__}: {exc}"]
        spent += t.wall_s
        digest = wl.digest(out) if out is not None and not failures else None
        out = None  # the next job must not run with this one's output still in memory
        records.append({"setup_s": setup_times, "setup_wall_s": setup_walls, "setup_phases": setup_phases,
                        "job_s": t.corrected_s, "job_wall_s": t.wall_s, "traced": traced, "digest": digest,
                        "failures": failures, "phase": f"job{k}"})
    if tracer is not None:
        tracer.remove()
    return records, state


def run(args, *, root, import_s, threads, nproc, commit) -> int:
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if args.trace else None

    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.scale, args.seed, workdir)
        records, state = _run_jobs(wl, args.seconds, tracer)
        # workload numbers and job_s come from untraced jobs that passed their checks
        good = [r for r in records if not r["traced"] and r["digest"] is not None]
        summary = wl.summary(state, [r["digest"] for r in good]) if good else {}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(bool(r["failures"]) for r in records)
    untraced = [r["job_s"] for r in records if not r["traced"]]
    traced = [r["job_s"] for r in records if r["traced"]]
    setups = [t for r in records if not r["traced"] for t in r["setup_s"]]
    e2e = {
        "setup_s": import_s + statistics.median(setups),
        "job_s": statistics.median([r["job_s"] for r in good] or untraced),
        "peak_rss_mb": peak_rss_mb,
        "cost_ratio": summary.get("cost_ratio", (float("nan"), ""))[0],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "graph_seed": workloads.GRAPH_SEED,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": nproc,
        "thread_cap": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "import_s": import_s,
        "host_speed": {"ref_kernel_s": hostspeed.REF_KERNEL_S, "interval_s": hostspeed.INTERVAL_S,
                       "trim": hostspeed.TRIM},
        "jobs": [{k: r[k] for k in ("setup_s", "setup_wall_s", "job_s", "job_wall_s", "traced", "failures")}
                 for r in records],
        "attempted": len(records),
        "failed": failed,
        "fail_share": failed / len(records),
        "end_to_end": e2e,
        "workload_metrics": dict(summary),
    }

    print(f"# perfbench {args.workload} seed={args.seed} graph_seed={workloads.GRAPH_SEED} scale={args.scale} "
          f"trace={args.trace} commit={commit}")
    print(f"# nproc={nproc} thread_cap={threads} python={record['python']} numpy={np.__version__} "
          f"scipy={scipy.__version__}")
    print(f"# jobs={len(records)} (untraced {len(untraced)}, traced {len(traced)}), {SETUP_REPEATS} set-ups each; "
          f"dpgo_import_s={import_s:.4g} (median of fresh imports)")
    print(f"# setup_s and job_s are host-speed corrected (perfbench/hostspeed.py); raw wall medians: "
          f"set-up {statistics.median(t for r in records if not r['traced'] for t in r['setup_wall_s']):.4g} s, "
          f"job {statistics.median(r['job_wall_s'] for r in records if not r['traced']):.4g} s")
    for name, unit in END_TO_END:
        print(f"{name:<34} {e2e[name]:>16.6g} {unit}")
    print(f"{'fail_share':<34} {failed / len(records):>16.6g} ratio ({failed} failed / {len(records)} attempted)")
    for name, (value, unit) in summary.items():
        if name != "cost_ratio":
            print(f"{name:<34} {value:>16.6g} {unit}")
    for r in records:
        for f in r["failures"]:
            print(f"FAILED {r['phase']}: {f}")

    if tracer is not None:
        job_phases = [r["phase"] for r in records if r["traced"]]
        setup_phases = [ph for r in records if r["traced"] for ph in r["setup_phases"]]
        metrics = layers.layer_metrics(tracer, setup_phases, job_phases, summary, traced, untraced)
        record["per_layer"] = metrics
        print(f"# traced run: tracing overhead {metrics['trace.overhead_s']['value']:.4g} s per job "
              f"(traced job_s minus untraced job_s)")
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"), record)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        with open(os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0 and bool(good), "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0
