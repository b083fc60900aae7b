"""One benchmark process: set up nihobent, then run rounds of a job list.

    python3 perfbench/worker.py setup <spec.json>
    python3 perfbench/worker.py work <spec.json>

`setup` imports nihobent and builds the towers, their tables and their lazy
caches for the workload's values of m, then prints the seconds that took.
`work` does the same set-up and then runs whole rounds of the job list
until the spec's seconds have passed.  Each job is timed on its own, so a
round's time covers only calls into nihobent; the outputs are written to
`round<k>/results.json` for the checks, which run in the parent process.
With tracing on, half the time goes to untraced rounds and half to traced
ones, with at least two rounds in each half, so that per-layer times are
medians and the counts can be compared between rounds; the spans are
written to the spec's span file.  The last line of
stdout is a JSON summary.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

TRACED_HALF_ROUNDS = 2  # least rounds of each half of a traced run


def setup(ms):
    import numpy as np

    import nihobent
    from nihobent import boolfun, cli  # noqa: F401  (the CLI's import cost)

    for m in ms:
        tower = nihobent.make_tower(m)
        tower.tables
        boolfun.walsh(np.zeros(tower.size, dtype=np.uint8), tower)


def run_cli(argv):
    from nihobent import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crashing job is a failed job, not a crashed run
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    return seconds, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_opoly_map(job):
    """The paper's route from an o-polynomial to its bent function."""
    import numpy as np

    import nihobent as nb

    m, label, a = job["m"], job["map"], job["a"]
    t0 = time.perf_counter()
    try:
        tower = nb.make_tower(m)
        entry = next(e for e in nb.catalog(m) if e.name == job["entry"])
        G = entry.to_map(tower)
        if label != "G1":
            G = nb.inverse_map(G)
        if label == "G3":
            G = nb.inverse_map(nb.transform_zFinv(G))
        verdict = nb.is_opolynomial(G)
        terms = list(G.terms) if label == "G1" else nb.interpolate_terms(G)
        rebuilt = nb.OPolyMap.from_terms(tower, terms)
        poly = nb.opoly_to_univariate(tower, rebuilt, a)
        tt = nb.evaluate(tower, poly)
        bent = nb.is_bent(tt, tower).bent
        deg = nb.algebraic_degree(tt)
        biv = nb.bivariate_truth_table(tower, nb.BivariateSpec(rebuilt, 0, a))
    except Exception:  # noqa: BLE001
        return time.perf_counter() - t0, {"error": traceback.format_exc()}
    seconds = time.perf_counter() - t0

    def packed(bits):
        return np.packbits(bits, bitorder="little").tobytes().hex()

    return seconds, {
        "modulus": tower.modulus,
        "table": [int(v) for v in G.table],
        "is_opoly": bool(verdict.is_opoly),
        "terms": [[int(c), int(e)] for c, e in terms],
        "rebuilt": [int(v) for v in rebuilt.table],
        "poly": [[int(k), int(c), int(e)] for k, c, e in poly.terms],
        "tt": packed(tt),
        "bent": bool(bent),
        "degree": int(deg),
        "biv": packed(biv),
    }


def run_round(jobs, round_dir, recorder=None):
    """Run every job once; returns each job's seconds in nihobent and the results."""
    results, times = [], []
    for job in jobs:
        out_dir = round_dir / f"job{job['id']}"
        out_dir.mkdir(parents=True, exist_ok=True)
        if recorder is not None:
            recorder.begin_job()
        if job["kind"] == "opoly_map":
            seconds, res = run_opoly_map(job)
        else:
            argv = [resolve(arg, out_dir, round_dir) for arg in job["argv"]]
            seconds, res = run_cli(argv)
        if recorder is not None:
            recorder.end_job()
        times.append(seconds)
        res.update(id=job["id"], seconds=seconds)
        results.append(res)
    return times, results


def resolve(arg, out_dir, round_dir):
    if arg == "{out}":
        return str(out_dir)
    if arg.startswith("{out:"):
        key, rest = arg[len("{out:"):].split("}", 1)
        return str(round_dir / f"job{key}") + rest
    return arg


def rounds(jobs, out, first, seconds, recorder=None, least=1):
    """Whole rounds until `seconds` have passed and at least `least` have run.

    Returns each round's per-job seconds and, when tracing, the recorder
    snapshots before and after each round.
    """
    times, snaps = [], []
    start = time.perf_counter()
    k = first
    while True:
        round_dir = out / f"round{k}"
        before = recorder.snapshot() if recorder else None
        job_s, results = run_round(jobs, round_dir, recorder)
        if recorder:
            snaps.append((before, recorder.snapshot()))
        (round_dir / "results.json").write_text(json.dumps(results))
        times.append(job_s)
        k += 1
        if len(times) >= least and time.perf_counter() - start >= seconds:
            return times, snaps


def work(spec):
    out = Path(spec["out"])
    jobs = spec["jobs"]
    summary = {}
    if not spec["trace"]:
        setup(spec["ms"])
        summary["setup_s"] = time.perf_counter() - T0
        summary["job_s"], _ = rounds(jobs, out, 0, spec["seconds"])
    else:
        import nihobent  # noqa: F401  (imported before its functions are wrapped)
        import tracing

        rec = tracing.Recorder()
        rec.install()
        before = rec.snapshot()
        setup(spec["ms"])
        setup_diff = tracing.diff(rec.snapshot(), before)
        rec.uninstall()
        half = spec["seconds"] / 2
        untraced, _ = rounds(jobs, out, 0, half, least=TRACED_HALF_ROUNDS)
        rec.install()
        traced, snaps = rounds(jobs, out, len(untraced), half, rec, least=TRACED_HALF_ROUNDS)
        rec.uninstall()
        per_round = [tracing.diff(after, before) for before, after in snaps]
        counts = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in per_round]
        if any(c != counts[0] for c in counts):
            print("warning: per-round counts differ between rounds", file=sys.stderr)
        summary["job_s"] = untraced + traced
        summary["layers"] = tracing.layer_metrics(
            setup_diff, per_round, _median(map(sum, untraced)), _median(map(sum, traced)))
        rec.write_spans(spec["spans"])
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return summary


def _median(values):
    import statistics

    return statistics.median(list(values))


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    if mode == "setup":
        setup(spec["ms"])
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
    else:
        print(json.dumps(work(spec)))


if __name__ == "__main__":
    main()
