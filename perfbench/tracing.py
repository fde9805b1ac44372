"""In-memory span recorder around epigame's public entry points.

Spans are recorded from the benchmark's side only: each traced entry point is
replaced, for the lifetime of one worker process, by a wrapper that opens a
span (name, start, end, parent id, attributes) around the original call. The
spans of one workload run share its run id. They are written out as JSON
when the run ends, and `layer_metrics` derives every per-layer figure,
self times included, from that file alone.

Only exact counters are attached: event tallies taken from the event log,
`nfev` from `Trajectory.meta`, crossing counts and bytes on disk. The
solver's `accepted_steps_estimate`, `rejected_steps_estimate` and
`final_step` are not step counts and are never read.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

EVENT_KINDS = ("infection", "recovery", "adopt", "drop", "contact")
COMMANDS = ("compare", "abm-sim", "sweep", "cycle", "mf-hetero")


class Tracer:
    """Span stack for one single-threaded workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """`fn` inside a span; `annotate(attrs, result, args)` runs after the
        span has closed, so its own cost stays out of the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(attrs, result, args)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def install(tracer: Tracer) -> None:
    """Patch the entry points the CLI reaches; lasts for this process."""
    import epigame.abm as abm
    import epigame.cli as cli
    from epigame.cycles import CycleReport
    from epigame.meanfield import HeteroTrajectory, Trajectory
    from epigame.network import InfluenceGraph

    def count_events(attrs, result, _args):
        _traj, log = result
        # tallying a long log is not free: give it its own span so that the
        # enclosing span's self time does not absorb it
        with tracer.span("bench.count_events"):
            attrs["events"] = dict(Counter(ev[1] for ev in log.events))

    def nfev(attrs, traj, _args):
        attrs["nfev"] = int(traj.meta["nfev"])

    def hetero_nfev(attrs, result, _args):
        attrs["nfev"] = int(result[0].meta["nfev"])

    def crossings(attrs, report, _args):
        attrs["crossings"] = len(report.crossings)

    def csv_bytes(attrs, _result, args):
        attrs["bytes"] = os.path.getsize(args[1])

    abm.simulate = tracer.wrap("abm.simulate", abm.simulate, count_events)
    abm.ensemble = tracer.wrap("abm.ensemble", abm.ensemble)
    cli.integrate_planar = tracer.wrap("meanfield.integrate_planar", cli.integrate_planar, nfev)
    cli.integrate_hetero = tracer.wrap(
        "meanfield.integrate_hetero", cli.integrate_hetero, hetero_nfev
    )
    cli.classify_regime = tracer.wrap("equilibria.classify_regime", cli.classify_regime)
    cli.detect_cycle = tracer.wrap("cycles.detect_cycle", cli.detect_cycle, crossings)
    InfluenceGraph.from_dict = classmethod(
        tracer.wrap("network.build", InfluenceGraph.from_dict.__func__)
    )
    for cls, method in (
        (Trajectory, "to_csv"),
        (HeteroTrajectory, "to_csv"),
        (abm.EventLog, "to_csv"),
        (abm.EnsembleResult, "to_csv"),
        (CycleReport, "crossings_to_csv"),
    ):
        setattr(cls, method, tracer.wrap("io.csv", getattr(cls, method), csv_bytes))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced run; layers that did no work read 0."""
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    attrs: Counter = Counter()
    events: Counter = Counter()
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        calls[s["name"]] += 1
        if s["parent"] is not None:
            child_time[s["parent"]] += dur
        for key in ("nfev", "crossings", "bytes"):
            if key in s["attrs"]:
                attrs[f"{s['name']}.{key}"] += s["attrs"][key]
        events.update(s["attrs"].get("events", {}))
    self_time: Counter = Counter()
    for s in spans:
        self_time[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    sim_s = total["abm.simulate"]
    n_events = sum(events.values())
    m = {
        "abm.simulate_s": sim_s,
        "abm.runs": calls["abm.simulate"],
        "abm.events": n_events,
        "abm.events_per_s": ratio(n_events, sim_s),
        **{f"abm.events.{k}": events[k] for k in EVENT_KINDS},
        "abm.contact_yield": ratio(events["infection"], events["contact"]),
        "abm.ensemble.self_s": self_time["abm.ensemble"],
        "meanfield.integrate_planar_s": total["meanfield.integrate_planar"],
        "meanfield.planar_calls": calls["meanfield.integrate_planar"],
        "meanfield.planar_nfev": attrs["meanfield.integrate_planar.nfev"],
        "meanfield.integrate_hetero_s": total["meanfield.integrate_hetero"],
        "meanfield.hetero_nfev": attrs["meanfield.integrate_hetero.nfev"],
        "equilibria.classify_regime_s": total["equilibria.classify_regime"],
        "equilibria.calls": calls["equilibria.classify_regime"],
        "equilibria.us_per_point": 1e6 * ratio(
            total["equilibria.classify_regime"], calls["equilibria.classify_regime"]
        ),
        "cycles.detect_cycle_s": total["cycles.detect_cycle"],
        "cycles.crossings": attrs["cycles.detect_cycle.crossings"],
        "network.build_s": total["network.build"],
        "io.csv_s": total["io.csv"],
        "io.csv_bytes": attrs["io.csv.bytes"],
        "io.csv_mb_per_s": ratio(attrs["io.csv.bytes"] / 1e6, total["io.csv"]),
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_s"] = self_time[f"cli.{cmd}"]
    return m
