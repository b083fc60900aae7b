"""Smoke test of the benchmark harness at small m.

    python3 perfbench/smoke.py

Runs one round of every workload at the small scale with all checks on and
expects every job to pass; runs one workload traced twice and expects
every per-layer metric named in BENCHMARK.json, with counts that repeat;
then corrupts written outputs (one truth-table bit, one spectrum value in
each format) and expects each corruption to be reported as one failed,
incorrect job.  Exits nonzero on the first unmet expectation.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run  # noqa: E402

OUT = HERE / "out" / "smoke"
SEED = 7


def small(workload, **kw):
    return run(workload, SEED, 0, kw.pop("trace", False), "small", out_root=OUT, **kw)


def require(cond, msg):
    if not cond:
        raise SystemExit(f"FAIL: {msg}")
    print(f"ok: {msg}")


def flip_table_bit(run_dir: Path):
    path = next((run_dir / "round0").glob("job*/*.tt.hex"))
    text = path.read_text()
    path.write_text(f"{int(text[0], 16) ^ 1:x}" + text[1:])


def negate_spectrum_value(fmt):
    def corrupt(run_dir: Path):
        path = next((run_dir / "round0").glob(f"job*/*.spectrum.{fmt}"))
        if fmt == "json":
            values = json.loads(path.read_text())
            values[5] = -values[5]
            path.write_text(json.dumps(values))
        else:
            rows = path.read_text().split("\n")
            w, v = rows[5].split(",")
            rows[5] = f"{w},{-int(v)}"
            path.write_text("\n".join(rows))

    return corrupt


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        for workload in ("families", "opoly", "spectra"):
            res = small(workload)
            require(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                    f"{workload}: {res['attempted']} jobs, all checks pass {res['failures']}")

        names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
        traced = [small("opoly", trace=True)["metrics"] for _ in range(2)]
        require(set(traced[0]) == names, "traced run reports exactly the per-layer metrics")
        counts = [{k: v["value"] for k, v in t.items() if v["unit"] in ("count", "ratio")}
                  for t in traced]
        require(counts[0] == counts[1], f"per-layer counts repeat: {counts[0]}")
        require(counts[0]["opoly.interpolate_calls"] > 0, "interpolation is traced")

        cases = (("families", flip_table_bit, "one flipped truth-table bit"),
                 ("spectra", negate_spectrum_value("json"), "one changed JSON spectrum value"),
                 ("spectra", negate_spectrum_value("csv"), "one changed CSV spectrum value"))
        for workload, corrupt, what in cases:
            res = small(workload, corrupt=corrupt)
            require(res["failed"] == 1 and not res["correct"],
                    f"{what} is one failed job: {res['failures']}")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
