"""epigame benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; epigame is imported from ./src. The
run starts one fresh worker process per repetition (worker.py) with
BLAS/OpenMP pinned to one thread, starts another repetition while it is
expected to end within S seconds, and reports medians over the repetitions.
Every repetition of a run uses the inputs generated from N.

--trace 0 reports the end-to-end metrics; the gated time, wall_cal, is the
commands' wall time over a calibration kernel's time in the same worker (see
README.md). --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones,
with the tracing overhead as traced minus untraced wall time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every operation succeeded and passed its output check.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# no single run may take longer than this, whatever --seconds says
RUN_LIMIT_S = 170.0
PINNED_THREADS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def run_rep(workload: str, seed: int, trace: bool, rep: int, deadline: float) -> dict:
    """One repetition in a fresh worker; returns its result, or a failure record."""
    run_id = f"{workload}-{seed}-{os.getpid()}-{rep}"
    workdir = ROOT / ".perfbench_work" / run_id
    workdir.mkdir(parents=True)
    env = {**os.environ, **PINNED_THREADS, "PYTHONHASHSEED": "0"}
    env.pop("EPIGAME_OUTDIR", None)
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
            str(workdir), "1" if trace else "0", run_id]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        result_file = workdir / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            sys.stderr.write(proc.stderr[-4000:])
            return {"crashed": f"worker exited with code {proc.returncode}"}
        result = json.loads(result_file.read_text())
        if trace:
            result["layers"] = layer_metrics(json.loads((workdir / "spans.json").read_text()))
        return result
    except subprocess.TimeoutExpired:
        return {"crashed": "worker timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "epigame" / "__init__.py").is_file():
        print(f"error: no epigame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps: list[tuple[bool, dict]] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append((traced, run_rep(args.workload, args.seed, traced, len(reps), deadline)))
        elapsed = time.perf_counter() - start
        # start another repetition only if it is expected to end in time
        expected_end = elapsed * (len(reps) + 1) / len(reps)
        if len(reps) > args.trace and expected_end > min(args.seconds, RUN_LIMIT_S):
            break
    with contextlib.suppress(OSError):
        (ROOT / ".perfbench_work").rmdir()

    attempted = failed = 0
    for _, res in reps:
        if "crashed" in res:
            print(f"FAILED repetition: {res['crashed']}")
            attempted += 1
            failed += 1
            continue
        for step in res["steps"]:
            attempted += 1
            if step["code"] != 0 or step["errors"]:
                failed += 1
                print(f"FAILED {step['command']}: exit {step['code']}; {step['errors']}")
    untraced = [res for traced, res in reps if not traced and "crashed" not in res]
    traced_runs = [res for traced, res in reps if traced and "crashed" not in res]
    correct = failed == 0 and bool(untraced) and (bool(traced_runs) or not args.trace)

    metrics = {}
    if correct:
        versions = untraced[0]["versions"]
        print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
              f"{len(traced_runs)} traced repetitions; python {versions['python']}, "
              f"numpy {versions['numpy']}, scipy {versions['scipy']}, nproc {os.cpu_count()}")
        walls = [r["wall_s"] for r in untraced]
        print(f"  untraced wall_s per repetition: {' '.join(f'{w:.3f}' for w in walls)}")
        print("  calibration kernel s per repetition: "
              + " ".join(f"{r['cal_s']:.4f}" for r in untraced))
        if args.trace:
            spec_metrics = spec["per_layer"]
            values = {
                name: statistics.median(r["layers"][name] for r in traced_runs)
                for name in traced_runs[0]["layers"]
            }
            values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_runs)
            values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        else:
            spec_metrics = spec["end_to_end"]
            print(f"  {'wall_s':<32} {statistics.median(walls):.6g} s")
            values = {
                "setup_s": statistics.median(r["setup_s"] for r in untraced),
                "wall_cal": statistics.median(r["wall_s"] / r["cal_s"] for r in untraced),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                "ok_ratio": 1.0 - failed / attempted,
            }
            print(f"  {'failed_ratio':<32} {failed / attempted} ({failed}/{attempted})")
            for i, step in enumerate(untraced[0]["steps"]):
                lat = statistics.median(r["steps"][i]["latency_s"] for r in untraced)
                print(f"  {step['command'] + '_s':<32} {lat:.6g} s")
        for m in spec_metrics:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
