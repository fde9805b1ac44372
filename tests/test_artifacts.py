"""CSV writer format: the column writer and its numpy ``%.17g`` formatter
against the per-value ``%`` that defines the format, and every artifact
writer against the per-row f-string loop that defines its format, on inputs
with edge values (signed zero, the smallest subnormal, inexact sums, 1e22,
integer-valued floats, absent counterparts and periods, and the 7.3 / 0.1
sample grid)."""

import json
import math
import multiprocessing
import os
import re
import signal
from fractions import Fraction

import numpy as np
import pytest

from epigame import (
    EnsembleResult,
    EventLog,
    HeteroTrajectory,
    ModelParams,
    Trajectory,
    classify_regime,
    find_equilibria,
    planar_rhs_xy,
    render_phase_portrait,
)
from epigame import artifacts
from epigame.artifacts import CHUNK_ROWS, _scaled, csv_file, csv_file_in_child, text, write_csv
from epigame.cli import main
from epigame.cycles import CycleReport, Crossing, Verdict
from .conftest import example_params, traced_peak

EDGE = [-0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1e22, 2.0, 0.0, 1.0, 7.3, 1e-300]
TIMES = np.arange(74) * 0.1  # 73 * 0.1 = 7.300000000000001


def edge_column(n, shift=0):
    return np.array([EDGE[(k + shift) % len(EDGE)] for k in range(n)])


def test_trajectory(tmp_path):
    traj = Trajectory(TIMES, edge_column(74), edge_column(74, 3), example_params(8.0))
    ref = "t,x,y\n"
    for t, x, y in zip(traj.times, traj.xs, traj.ys):
        ref += f"{t:.12g},{x:.17g},{y:.17g}\n"
    traj.to_csv(tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text() == ref


ROW = "%.12g,%s,%.17g,%d,%s\n"
TEXT = ["kind", "100%", "%s", "%%", "%(x)s", ""]


def edge_rows(count):
    return [(EDGE[k % len(EDGE)], TEXT[k % len(TEXT)], EDGE[(k + 3) % len(EDGE)] * k, k,
             "" if k % 4 else k * 7) for k in range(count)]


def edge_columns(rows):
    t, kind, v, k, cp = (list(c) for c in zip(*rows)) if rows else ([],) * 5
    return [text("%.12g", np.array(t, dtype=float)), text("%s", kind), np.array(v, dtype=float),
            text("%d", k), text("%s", cp)]


@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 259, CHUNK_ROWS - 1, CHUNK_ROWS,
                                   CHUNK_ROWS + 1])
def test_write_csv_matches_per_row_format(tmp_path, count):
    rows = edge_rows(count)
    write_csv(tmp_path / "rows.csv", "t,kind,v,k,cp", edge_columns(rows), comment="seed=1")
    ref = "# seed=1\nt,kind,v,k,cp\n" + "".join(ROW % r for r in rows)
    assert (tmp_path / "rows.csv").read_text() == ref


def test_percent_in_a_field_is_written_literally(tmp_path):
    rows = [(1.0, "100%"), (2.0, "%s"), (3.0, "%%"), (4.0, "%.17g")]
    write_csv(tmp_path / "pct.csv", "t,kind",
              [text("%.12g", [r[0] for r in rows]), text("%s", [r[1] for r in rows])])
    assert (tmp_path / "pct.csv").read_text() == "t,kind\n1,100%\n2,%s\n3,%%\n4,%.17g\n"


def test_absent_fields_are_left_empty(tmp_path):
    values = text("%.17g", [0.5, None, -0.0, None])
    write_csv(tmp_path / "m.csv", "v,w", [values, np.array([1.0, 2.0, 3.0, 4.0])])
    assert (tmp_path / "m.csv").read_text() == "v,w\n0.5,1\n,2\n-0,3\n,4\n"


def test_integer_column_is_an_error(tmp_path):
    # integers are written through `text`, so a raw one is a caller's slip
    with pytest.raises(TypeError, match="float or bytes arrays, not int64"):
        write_csv(tmp_path / "k.csv", "k", [np.arange(3, dtype=np.int64)])


def test_write_csv_holds_one_block_of_text(tmp_path):
    # a block's text is compacted a slice at a time, so beyond the block
    # buffer (CHUNK_ROWS rows of 30 32-byte float slots) less than 1 MB is held
    rng = np.random.default_rng(4)
    columns = [rng.uniform(-1e3, 1e3, 20_000) for _ in range(30)]
    _, peak = traced_peak(write_csv, tmp_path / "wide.csv",
                          ",".join(f"c{k}" for k in range(30)), columns)
    assert peak < CHUNK_ROWS * 30 * 32 + 2 ** 20


def test_csv_file_in_child_writes_what_csv_file_writes(tmp_path, bounded):
    # several calls, broadcast bytes columns, non-contiguous
    # float columns and an empty block
    rng = np.random.default_rng(8)
    values = rng.normal(size=(300, 6))
    nodes = text("%d", range(3))
    blocks = [[text("%d", range(k, k + 100))[:, None], nodes, values[k:k + 100, ::2],
               values[k:k + 100, 1::2]] for k in (0, 100, 200)]
    blocks.insert(1, [text("%d", [])[:, None], nodes, values[:0, ::2], values[:0, 1::2]])
    for writer, name in ((csv_file, "parent.csv"), (csv_file_in_child, "child.csv")):
        with writer(tmp_path / name, "k,node,a,b") as write_rows:
            for block in blocks:
                write_rows(block)
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "parent.csv").read_bytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_csv_file_in_child_failed_block_leaves_nothing(tmp_path, bounded, error):
    path = tmp_path / "rows.csv"
    with pytest.raises(error):
        with csv_file_in_child(path, "a") as write_rows:
            write_rows([np.arange(10 ** 5, dtype=float)])
            raise error
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def _writer_fails(_f, _columns):
    raise OSError("no space left")


def _writer_is_killed(_f, _columns):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("blocks", [1, 50], ids=["at-the-end", "while-sending"])
@pytest.mark.parametrize("failure,reason", [
    (_writer_fails, "OSError: no space left"), (_writer_is_killed, "it ended without a report"),
], ids=["raises", "killed"])
def test_csv_file_in_child_failed_writer_names_the_file(tmp_path, capfd, monkeypatch, bounded,
                                                       blocks, failure, reason):
    # the forked writer inherits the patched row writer. One small block fits
    # in the pipe, so the failure shows at the block's end; 50 blocks of
    # 0.8 MB do not, so it shows in a call, as the pipe breaks
    monkeypatch.setattr(artifacts, "_write_rows", failure)
    path = tmp_path / "rows.csv"
    size = 10 if blocks == 1 else 10 ** 5
    message = f"the writer process of {path} failed: {reason}"
    with pytest.raises(OSError, match=f"^{re.escape(message)}$"):
        with csv_file_in_child(path, "a") as write_rows:
            for _ in range(blocks):
                write_rows([np.arange(size, dtype=float)])
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
    assert capfd.readouterr() == ("", "")  # the child prints nothing


def g17_reference_values():
    """More than 10**6 doubles, each with both signs: the cases the numpy
    formatter must get right, beside random ones."""
    rng = np.random.default_rng(20)
    uniform = rng.random(250_000)
    # log-uniform over the whole double range, then over the formatter's range
    everywhere = np.ldexp(1.0 + rng.random(150_000), rng.integers(-1074, 1024, 150_000))
    inside = 10.0 ** rng.uniform(-6.0, 16.0, 150_000)
    # each power of ten and its neighbours, from below the range to above it
    powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # exact ties at the 18th digit: an odd multiple of 2**-j has j decimals, so
    # 18 significant digits when j = 17 - E
    ties = []
    for e in range(-6, 16):
        j = 17 - e
        lo, hi = math.ceil(10.0 ** e * 2.0 ** j), min(10.0 ** (e + 1) * 2.0 ** j, 2.0 ** 53)
        if lo < hi:
            odd = rng.integers(lo // 2, hi // 2, 2_000) * 2 + 1
            ties.append(np.ldexp(odd.astype(float), -j))
    special = [0.0, 5e-324, np.inf, np.nan, 0.1 + 0.2, 7.300000000000001, 0.99999999999999999,
               9.9999999999999991e-05, 1.0000076293945312, 2.0 ** 53, 1e16 - 2, 1e-6]
    values = np.concatenate([uniform, everywhere, inside, neighbours, *ties, special])
    return np.concatenate([values, -values])


def test_scaled_product_is_error_free():
    # hi + lo is v * 10**k exactly, at every scale the formatter uses
    rng = np.random.default_rng(21)
    v = 10.0 ** rng.uniform(-6.0, 16.0, 20_000)
    k = np.clip(16 - np.floor(np.log10(v)).astype(np.intp), 1, 22)
    hi, lo = _scaled(v, k)
    wrong = [(x, e) for x, e, h, l in zip(v.tolist(), k.tolist(), hi.tolist(), lo.tolist())
             if Fraction(h) + Fraction(l) != Fraction(x) * 10 ** e]
    assert wrong == []


def test_g17_equals_percent_format(tmp_path):
    values = g17_reference_values()
    assert values.size > 10 ** 6
    write_csv(tmp_path / "v.csv", "v", [values])
    ref = "v\n" + "".join("%.17g\n" % v for v in values.tolist())
    got = (tmp_path / "v.csv").read_text()
    if got != ref:  # report the first few values that differ, not the whole text
        lines = list(zip(got.splitlines()[1:], ref.splitlines()[1:], values.tolist()))
        assert [l for l in lines if l[0] != l[1]][:5] == []
        assert got == ref


def check_hetero(path, times, n):
    p_x = np.stack([edge_column(n, k) for k in range(times.size)])
    p_y = np.stack([edge_column(n, k + 5) for k in range(times.size)])
    hetero = HeteroTrajectory(times, p_x, p_y, example_params(8.0))
    ref = "t,node,p_x,p_y\n"
    for k, t in enumerate(hetero.times):
        for i in range(n):
            ref += f"{t:.12g},{i},{p_x[k, i]:.17g},{p_y[k, i]:.17g}\n"
    hetero.to_csv(path)
    # compared line by line: a failure report on the whole text is slow
    assert path.read_text().splitlines(True) == ref.splitlines(True)


def test_hetero_trajectory(tmp_path):
    check_hetero(tmp_path / "nodes.csv", TIMES, 7)


@pytest.mark.parametrize("n", [1, 133, 300])
def test_hetero_trajectory_node_counts(tmp_path, n):
    # 133 and 300 nodes at 74 times span several write chunks
    check_hetero(tmp_path / "nodes.csv", TIMES, n)


def test_hetero_trajectory_more_nodes_than_a_chunk(tmp_path):
    check_hetero(tmp_path / "nodes.csv", TIMES[:3], CHUNK_ROWS + 7)


def test_hetero_trajectory_time_formats(tmp_path):
    # %.12g gives -0, exponents in both directions and a rounded 7.3
    times = np.array([-0.0, 5e-324, 1e-13, 0.1 + 0.2, 7.300000000000001, 1.5e12, 1e22])
    check_hetero(tmp_path / "nodes.csv", times, 3)
    text = (tmp_path / "nodes.csv").read_text()
    for prefix in ("-0,0,", "4.94065645841e-324,", "1e-13,", "0.3,", "7.3,", "1.5e+12,",
                   "1e+22,"):
        assert f"\n{prefix}" in text


def test_ensemble(tmp_path):
    m = TIMES.size
    res = EnsembleResult(TIMES, edge_column(m), edge_column(m, 1), edge_column(m, 2),
                         edge_column(m, 3), np.zeros((2, 2)), [1, 2], example_params(8.0))
    ref = "t,x_mean,y_mean,x_std,y_std\n"
    for row in zip(res.times, res.x_mean, res.y_mean, res.x_std, res.y_std):
        ref += ",".join(f"{v:.17g}" for v in row) + "\n"
    res.to_csv(tmp_path / "ens.csv")
    assert (tmp_path / "ens.csv").read_text() == ref


def test_event_log(tmp_path):
    log = EventLog(seed=42)
    kinds = ["infection", "recovery", "adopt", "drop", "contact"]
    # more events than one write block, with and without counterparts
    for k in range(10_000):
        cp = None if k % 3 else (k * 7) % 1000
        log.append(EDGE[k % len(EDGE)] * (1 + k // len(EDGE)), kinds[k % 5], k % 1000, cp)
    ref = f"# rng={log.rng_name} seed={log.seed}\n" + "t,kind,actor,counterpart\n"
    for t, kind, actor, cp in log.events:
        ref += f"{t:.17g},{kind},{actor},{'' if cp is None else cp}\n"
    log.to_csv(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_text() == ref


def test_event_log_is_one_flat_list_read_as_tuples(tmp_path):
    log = EventLog(seed=3)
    log.to_csv(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == (
        f"# rng={log.rng_name} seed=3\nt,kind,actor,counterpart\n")
    log.append(0.5, "adopt", 3)
    log.append(0.75, "contact", 1, 2)
    # kind codes index EVENT_KINDS, and -1 is no counterpart
    assert log.flat == [0.5, 2, 3, -1, 0.75, 4, 1, 2]
    assert log.events == list(log) == [(0.5, "adopt", 3, None), (0.75, "contact", 1, 2)]
    assert len(log) == 2


def test_event_log_merges_contact_arrays_by_time(tmp_path):
    # a contact goes before a loop event at its time, such as the infection it causes
    log = EventLog(seed=4)
    log.append(0.25, "infection", 12, 11)
    log.append(0.5, "recovery", 12)
    log.contacts.append((np.array([0.25, 0.375]), np.array([11, 3]), np.array([12, 4])))
    log.contacts.append((np.array([0.5]), np.array([5]), np.array([6])))
    assert len(log) == 5
    assert log.events == [(0.25, "contact", 11, 12), (0.25, "infection", 12, 11),
                          (0.375, "contact", 3, 4), (0.5, "contact", 5, 6),
                          (0.5, "recovery", 12, None)]
    log.to_csv(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_text() == (
        "# rng=numpy-pcg64 seed=4\nt,kind,actor,counterpart\n0.25,contact,11,12\n"
        "0.25,infection,12,11\n0.375,contact,3,4\n0.5,contact,5,6\n0.5,recovery,12,\n")


def test_provenance_fields_are_constants():
    # any other value would write a false provenance line into the artifact
    assert EventLog().rng_name == EventLog.rng_name == "numpy-pcg64"
    assert CycleReport(verdict=Verdict.UNDECIDED).to_dict()["direction"] == "up"
    with pytest.raises(TypeError):
        EventLog(rng_name="mt19937")
    with pytest.raises(TypeError):
        CycleReport(verdict=Verdict.UNDECIDED, direction="down")


def test_crossings(tmp_path):
    crossings = [Crossing(k=0, t=0.1 + 0.2, y=-0.0, period=None)]
    crossings += [Crossing(k=k, t=EDGE[k] + k, y=EDGE[-k], period=None if k == 5 else EDGE[k])
                  for k in range(1, 10)]
    report = CycleReport(verdict=Verdict.UNDECIDED, crossings=crossings)
    ref = "k,t_k,y_k,period_k\n"
    for c in report.crossings:
        period = f"{c.period:.17g}" if c.period is not None else ""
        ref += f"{c.k},{c.t:.17g},{c.y:.17g},{period}\n"
    report.crossings_to_csv(tmp_path / "crossings.csv")
    assert (tmp_path / "crossings.csv").read_text() == ref


def test_phase_portrait_field_and_equilibria(tmp_path):
    p = example_params(8.0)
    written = render_phase_portrait(p, tmp_path, horizon=1.0)
    ref = "x,y,dx,dy\n"
    for x in np.linspace(0.0, 1.0, 20):
        for y in np.linspace(0.0, 1.0, 20):
            dx, dy = planar_rhs_xy(float(x), float(y), p)
            ref += f"{x:.17g},{y:.17g},{dx:.17g},{dy:.17g}\n"
    assert (tmp_path / "field.csv").read_text() == ref
    assert "-0," in ref  # the unit square's edges give signed zeros
    ref = "kind,x,y,stability\n"
    for rep in find_equilibria(p):
        if rep.exists:
            ref += f"{rep.kind.value},{rep.point[0]:.17g},{rep.point[1]:.17g},{rep.stability.value}\n"
    assert (tmp_path / "equilibria.csv").read_text() == ref
    # one trajectory from each of the eight points on the circle
    for k, path in enumerate(written[2:]):
        angle = 2.0 * math.pi * k / 8
        start = read_floats(path)[0]
        assert path.name == f"traj_{k:02d}.csv"
        assert start[1:3].tolist() == [0.5 + 0.35 * math.cos(angle), 0.5 + 0.35 * math.sin(angle)]
    assert len(written) == 2 + 8


def read_floats(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_compare_gap(tmp_path, capsys):
    args = ["compare", "--alpha", "3", "--lambda", "0.5", "--mu", "1", "--c", "3",
            "--zeta", "5", "--n", "60", "--seed", "3", "--n-runs", "2", "--horizon", "7.3",
            "--sample-dt", "0.1", "--x0", "0.3", "--y0", "0.2", "--outdir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    # both inputs are written at .17g, so they read back exactly
    abm = read_floats(tmp_path / "compare_abm.csv")
    ode = read_floats(tmp_path / "compare_ode.csv")
    ref = "t,gap_x,gap_y\n"
    for t, gx, gy in zip(abm[:, 0], abm[:, 1] - ode[:, 1], abm[:, 2] - ode[:, 2]):
        ref += f"{t:.12g},{gx:.17g},{gy:.17g}\n"
    assert (tmp_path / "compare_gap.csv").read_text() == ref


def test_sweep(tmp_path, capsys):
    grid = {"zeta": {"min": 4, "max": 11, "steps": 8}, "c": {"min": 1.5, "max": 4.5, "steps": 3}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"alpha": 3, "lambda": 0.5, "mu": 1},
                               "sweep": {"grid": grid}}))
    assert main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    header = None
    ref = ""
    for zeta in np.linspace(4, 11, 8):
        for c in np.linspace(1.5, 4.5, 3):
            report = classify_regime(ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=float(c),
                                                 zeta=float(zeta)))
            if header is None:
                cond_cols = []
                for cond in report.conditions:
                    cond_cols += [f"{cond.name}_lhs", f"{cond.name}_rhs", f"{cond.name}_sat"]
                header = ",".join(["zeta", "c", "label"] + cond_cols)
                ref += header + "\n"
            row = [f"{v:.17g}" for v in (zeta, c)] + [report.label.value]
            for cond in report.conditions:
                row += [f"{cond.lhs:.17g}", f"{cond.rhs:.17g}", str(int(cond.satisfied))]
            ref += ",".join(row) + "\n"
    assert (tmp_path / "sweep.csv").read_text() == ref
