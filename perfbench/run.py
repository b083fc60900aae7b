"""Benchmark for nihobent: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload {families,opoly,spectra} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a nihobent checkout.  It draws the workload's jobs
from the seed, then:

* with --trace 0, starts two fresh processes that each import nihobent
  and build the workload's towers, then one worker process that does the
  same set-up and runs whole rounds of the jobs for S seconds.  setup_s is
  the median of the three set-ups, verify_s the median round time and
  peak_rss_mb the worker's peak resident memory;
* with --trace 1, starts one worker that times untraced rounds for S/2
  seconds and traced rounds for S/2 seconds, at least two of each, and
  reports the per-layer metrics; the spans go to perfbench/out/spans-<workload>-<seed>.json.

Every round's outputs are checked against perfbench/oracle.py after the
worker has exited.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the environment.  Worker processes get OMP/OpenBLAS/MKL thread counts of 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from checks import Checker  # noqa: E402
from workloads import SCALES, WORKLOADS, make_jobs  # noqa: E402

SETUP_PROCESSES = 2  # plus the worker's own set-up
WORKER_TIMEOUT_S = 150
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(mode: str, spec_path: Path) -> dict:
    env = {**os.environ, **ONE_THREAD}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)],
        capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    sha = "unknown"
    if (HERE.parent / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "cores": os.cpu_count()}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        out_root: Path | None = None, corrupt=None) -> dict:
    """Run one workload and check it; `corrupt(run_dir)` may edit outputs first."""
    if not (HERE.parent / "src" / "nihobent" / "__init__.py").is_file():
        raise SystemExit("nihobent sources not found: run from the root of a checkout")
    jobs = make_jobs(workload, scale, seed)
    ms = SCALES[scale][workload]
    out_root = out_root or HERE / "out"
    run_dir = out_root / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "ms": list(ms), "jobs": jobs, "seconds": seconds,
            "trace": trace, "out": str(run_dir),
            "spans": str(out_root / f"spans-{workload}-{seed}.json")}
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    phases = {}
    try:
        t0 = time.perf_counter()
        setup_runs = [] if trace else [spawn("setup", spec_path)["setup_s"]
                                       for _ in range(SETUP_PROCESSES)]
        t1 = time.perf_counter()
        summary = spawn("work", spec_path)
        if not trace:
            setup_runs.append(summary["setup_s"])
        t2 = time.perf_counter()
        if corrupt is not None:
            corrupt(run_dir)
        checker = Checker(jobs, seed)
        outcomes = []
        for k in range(len(summary["job_s"])):
            outcomes += checker.check_round(run_dir / f"round{k}")
        phases = {"setup_processes": t1 - t0, "worker": t2 - t1,
                  "checks": time.perf_counter() - t2}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failures = [(jid, err) for jid, err, _ in outcomes if err is not None]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
            "verify_s": {"value": statistics.median(map(sum, summary["job_s"])), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": not any(wrong for _, _, wrong in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "rounds": [sum(r) for r in summary["job_s"]],
        "setup_runs": setup_runs,
        "phases": phases,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    env = environment()
    for key, value in env.items():
        print(f"{key}: {value}")
    print(f"rounds_s: {[round(t, 4) for t in result['rounds']]}")
    if result["setup_runs"]:
        print(f"setups_s: {[round(t, 4) for t in result['setup_runs']]}")
    print(f"phases_s: { {k: round(v, 2) for k, v in result['phases'].items()} }")
    for jid, err in result["failures"]:
        print(f"failed job {jid}: {err}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
