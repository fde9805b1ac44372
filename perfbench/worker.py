"""One workload run in a fresh process: set up, run the CLI steps, check.

Usage (normally started by run.py):
    python3 perfbench/worker.py ROOT WORKLOAD SEED WORKDIR TRACE RUN_ID

Set-up covers the epigame import, input generation and config writing. The
steps then run in-process through `epigame.cli.main(argv)`, each preceded by
a slice of a fixed calibration kernel (and one more after the last step).
Peak memory is read before the checks, which load the artifacts back. The
result, and the spans when TRACE is 1, go to WORKDIR/result.json and
WORKDIR/spans.json.
"""
import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def calibration_s() -> float:
    """Time of a fixed kernel mixing, in roughly equal parts, what epigame
    spends its time on: interpreter-bound arithmetic and container traffic,
    scalar random draws with list updates (the event loops), small numpy
    operations (rate vectors, the ODE right-hand sides) and float formatting
    (CSV writing). It calls no epigame code."""
    import numpy as np

    start = time.perf_counter()
    acc, table, window = 0.0, {}, []
    for i in range(400_000):
        acc += (i % 7) * 0.5
        table[i & 1023] = acc
        window.append(i)
        if len(window) > 100:
            window.pop()
    rng = np.random.default_rng(0)
    members = list(range(1000))
    for _ in range(75_000):
        acc += rng.exponential(1.0)
        k = int(rng.random() * 1000)
        members[k], members[-1] = members[-1], members[k]
    v = np.arange(1000.0)
    for _ in range(15_000):
        v = np.where(v > 500.0, v * 0.999, v + 1.0)
    chars = 0
    for i in range(90_000):
        chars += len(f"{i * 0.1:.12g},{i},{acc / (i + 1):.17g}\n")
    return time.perf_counter() - start


def main(root: Path, workload: str, seed: int, workdir: Path, trace: bool, run_id: str) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import epigame
    import epigame.cli

    if Path(epigame.__file__).resolve().parent != src / "epigame":
        raise RuntimeError(f"imported epigame from {epigame.__file__}, not from {src}")

    import tracing
    from workloads import prepare

    steps = prepare(workload, seed, workdir, trace)
    setup_s = time.perf_counter() - T0

    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    results = []
    # the machine's speed drifts by tens of percent over seconds to minutes;
    # a calibration slice before every step and after the last tracks it
    cal = []
    wall_s = 0.0
    for step in steps:
        cal.append(calibration_s())
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = epigame.cli.main(step.argv)
            else:
                with tracer.span(f"cli.{step.command}"):
                    code = epigame.cli.main(step.argv)
        latency_s = time.perf_counter() - start
        wall_s += latency_s
        results.append({"command": step.command, "code": code, "latency_s": latency_s})
    cal.append(calibration_s())
    cal_s = sum(cal) / len(cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(workdir / "spans.json")

    for step, res in zip(steps, results):
        res["errors"] = step.check(step.outdir) if res["code"] == 0 else []

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": results,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    root_arg, workload_arg, seed_arg, workdir_arg, trace_arg, run_id_arg = sys.argv[1:7]
    try:
        main(Path(root_arg), workload_arg, int(seed_arg), Path(workdir_arg),
             trace_arg == "1", run_id_arg)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
