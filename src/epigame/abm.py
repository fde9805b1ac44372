"""Exact event-driven stochastic simulation of the agent model.

Agents carry a behaviour bit (protection on/off) and an SIS health state.
Contacts follow an activity-driven process (each agent activates at its own
Poisson rate and meets a uniformly random partner); behaviour switches follow
imitation dynamics at rates built from neighbours' payoffs on the static
influence graph.

All clock rates are constant between events, so the direct stochastic
simulation method is statistically exact: waiting times are exponential in
the total rate and the event kind is chosen proportionally. Off the complete
graph the adopt and drop channels fire at constant upper bounds of their
totals instead, and each proposal is accepted with probability (true rate) /
(bound); a rejected proposal is a null event that advances the time and
changes nothing else. This thinning is exact too.

Thinning bounds. With ybar the prevalence and B_j the share of j's
out-neighbours that protect, non-adopter i adopts at q01_i = mean over its
out-neighbours j of x_j*(B_j + zeta*ybar), and adopter i drops at q10_i =
mean over j of (1 - x_j)*(1 - B_j + c). Since B_j lies in [0, 1] and c,
zeta >= 0, q01_i <= 1 + zeta*ybar and q10_i <= 1 + c. The adopt channel
therefore fires at n0*(1 + zeta*ybar), or 0 when nobody protects (every q01
is then 0), and the drop channel at n1*(1 + c), or 0 when everybody protects.

Random-draw contract (what seeded replay reproduces). A "uniform" below is
one draw of U[0,1), taken by path:

- the frozen path, the complete graph with uniform activities: the doubles
  of scalar ``rng.random()`` calls, taken through the bit generator's public
  ctypes interface (``rng.bit_generator.ctypes.next_double``, the C function
  that ``rng.random()`` calls), with the waiting time
  ``(1/R) * rng.standard_exponential()``, which is what
  ``rng.exponential(1/R)`` computes. Its seeded logs are pinned by the
  acceptance tests and never change;
- every other path (any other graph, or heterogeneous activities): the next
  double of the ``rng.random(4096)`` blocks, which are the doubles that
  successive scalar calls would give.

Per event, in order:

1. waiting time, R the total rate: ``(1/R) * rng.standard_exponential()``
   on the frozen path, -log(1 - u)/R for a uniform u on every other path
2. a uniform for the channel choice, cumulative over
   [recovery, infection|contact, adopt, drop]
3. member selection inside the channel: a uniform as an index into the
   group list -- infected (recovery), eligible = susceptible and unprotected
   (aggregated infection), non-adopters (adopt), adopters (drop). The lists
   start in ascending agent order; a member joins at the end, and a leaving
   member's slot takes the last member. With heterogeneous activities the
   bidirectional aggregated infection target is drawn by rejection (one
   extra uniform against the largest weight per attempt). The contact
   initiator is a uniform index with uniform activities. With heterogeneous
   ones a single uniform u picks it from Vose's alias table of the
   activities, built once per run: k = int(u*n), and the initiator is k if
   u*n - k < prob[k], else alias[k].
4. adopt and drop off the complete graph: the walk that accepts or rejects
   the proposal of member i. A uniform picks a uniform out-neighbour j of
   i. Adopt: if j protects, ``u * (1 + zeta*ybar) < zeta*ybar`` for a
   uniform u accepts, and otherwise a uniform picks a uniform out-neighbour m
   of j and the proposal is accepted iff m protects; if j does not protect,
   it is rejected. So P(accept) = (A_i + zeta*ybar*B_i) / (1 + zeta*ybar) =
   q01_i / (1 + zeta*ybar), with A_i the mean of x_j*B_j. Drop: the same
   with "does not protect" for "protects" and c for zeta*ybar, so P(accept)
   = q10_i / (1 + c).
5. contact events only: a uniform for the partner (uniform over the other
   n-1 agents) and, only when a transmissible pair realises, a uniform
   against the per-contact infection probability.

Initial conditions sampled from fractions consume ``rng.random(n)`` twice
(behaviours first, then healths) before any event draw.

Cost per event: O(1) on every graph and every draw path (group lists with
swap-with-last removal, walks of at most two out-neighbour steps, one alias
lookup), after an O(n) alias table per heterogeneous contact run. The one
exception is the rejection for the aggregated bidirectional target with
heterogeneous activities: with n_I infected, A_I their activity sum and
A_E the activity sum of the n_E eligible, it takes on average
(a_max*n_I + A_I) / (A_E*n_I/n_E + A_I) attempts, at most a_max/a_min. The
loop holds the agent state and the out-neighbour lists in Python lists for
the whole run, so no event touches a numpy scalar.

The loop has no checking mode of its own. Its verifier is the draw-by-draw
replay in the test suite, which recomputes every rate from per-agent
formulas before each draw and must reproduce the loop's history event for
event.

The loop counts its events per kind in ``Trajectory.meta["events"]``, also
when no log is kept, and the rejected adopt and drop proposals in
``Trajectory.meta["null_proposals"]`` (always 0 on the complete graph).
Without a log, contact mode skips the contacts made while nobody is
infected: they cannot change the state, so skipping them is exact thinning,
and they are not counted.
"""
from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import ClassVar

import numpy as np

from .artifacts import text, write_csv
from .core import (
    ConfigError,
    ModelParams,
    NumericalError,
    activities_from,
    checked_activities,
    config_value,
    config_vector,
)
from .meanfield import Trajectory, sample_grid
from .network import InfluenceGraph

NO_PROTECTION, PROTECTION = 0, 1
SUSCEPTIBLE, INFECTED = 0, 1

RNG_NAME = "numpy-pcg64"

# uniforms drawn per ``rng.random`` call on the buffered paths
UNIFORM_BLOCK = 4096

EVENT_CONTACT = "contact"
EVENT_INFECTION = "infection"
EVENT_RECOVERY = "recovery"
EVENT_ADOPT = "adopt"
EVENT_DROP = "drop"
EVENT_KINDS = (EVENT_RECOVERY, EVENT_INFECTION, EVENT_ADOPT, EVENT_DROP, EVENT_CONTACT)


@dataclass
class EventLog:
    """Chronological event record. Times are non-decreasing.

    The record is one flat list, `flat`, holding each event's time, kind,
    actor and counterpart (None when there is none) in turn: a long run then
    makes no per-event object for the garbage collector to track."""

    flat: list = field(default_factory=list)
    seed: int | None = None
    rng_name: ClassVar[str] = RNG_NAME  # the simulator's one generator, not settable

    def append(self, t: float, kind: str, actor: int, counterpart: int | None = None):
        self.flat.extend((t, kind, actor, counterpart))

    @property
    def events(self) -> list:
        """The events as (t, kind, actor, counterpart) tuples."""
        return list(zip(*(self.flat[k::4] for k in range(4))))

    def __len__(self):
        return len(self.flat) // 4

    def __iter__(self):
        return iter(self.events)

    def to_csv(self, path) -> None:
        flat = self.flat

        def ids(column):
            """A bytes column of the node ids in `column`, each id formatted
            once; an absent id (None, read as nan, then -1) is the last,
            empty entry."""
            index = np.nan_to_num(np.array(column, dtype=float), nan=-1).astype(np.intp)
            return text("%d", [*range(index.max(initial=-1) + 1), None])[index]

        write_csv(path, "t,kind,actor,counterpart",
                  [np.array(flat[0::4], dtype=float), np.array(flat[1::4], dtype=bytes),
                   ids(flat[2::4]), ids(flat[3::4])],
                  comment=f"rng={self.rng_name} seed={self.seed}")


@dataclass
class AbmConfig:
    """Full specification of one stochastic run."""

    params: ModelParams
    graph: InfluenceGraph
    activities: np.ndarray
    horizon: float
    sample_dt: float
    seed: int
    x0: float | None = None
    y0: float | None = None
    behaviours0: np.ndarray | None = None
    healths0: np.ndarray | None = None
    infection_mode: str = "aggregated"  # "aggregated" | "contact"
    directionality: str = "bidirectional"  # "bidirectional" | "activator-infects"
    record_events: bool | None = None  # default: only for n <= 1000

    def __post_init__(self):
        self.activities = checked_activities(self.activities, self.graph.n)
        for name in ("horizon", "sample_dt"):
            value = getattr(self, name)
            # false for None, nan and inf too
            if not (value is not None and 0 < value < math.inf):
                raise ConfigError(f"{name} must be > 0 and finite, not {value!r}")
        if self.infection_mode not in ("aggregated", "contact"):
            raise ConfigError(f"unknown infection_mode {self.infection_mode!r}")
        if self.directionality not in ("bidirectional", "activator-infects"):
            raise ConfigError(f"unknown directionality {self.directionality!r}")
        explicit = self.behaviours0 is not None or self.healths0 is not None
        sampled = self.x0 is not None or self.y0 is not None
        if explicit and sampled:
            raise ConfigError("give either explicit initial vectors or fractions, not both")
        if explicit:
            if self.behaviours0 is None or self.healths0 is None:
                raise ConfigError("explicit initial condition needs both behaviours0 and healths0")
            for name in ("behaviours0", "healths0"):
                v = np.asarray(getattr(self, name))
                if v.shape != (self.graph.n,):
                    raise ConfigError(f"{name} must have length n = {self.graph.n}")
                if not np.isin(v, (0, 1)).all():
                    raise ConfigError(f"{name} entries must be 0 or 1")
                setattr(self, name, v.astype(np.int8))
        elif sampled:
            if self.x0 is None or self.y0 is None:
                raise ConfigError("sampled initial condition needs both x0 and y0")
            if not (0.0 <= self.x0 <= 1.0 and 0.0 <= self.y0 <= 1.0):
                raise ConfigError("initial fractions must lie in [0,1]")
        else:
            raise ConfigError("no initial condition given")
        if self.record_events is None:
            self.record_events = self.graph.n <= 1000

    @property
    def bidirectional(self) -> bool:
        return self.directionality == "bidirectional"

    # every key of `to_dict`, and so of an abm-sim or compare sidecar's abm block
    SPEC_KEYS = ("params", "graph", "activities", "horizon", "sample_dt", "seed",
                 "infection_mode", "directionality", "record_events", "rng",
                 "behaviours0", "healths0", "x0", "y0")

    def to_dict(self) -> dict:
        d = {
            "params": self.params.to_dict(),
            "graph": self.graph.to_dict(),
            "activities": (
                "uniform"
                if np.ptp(self.activities) == 0.0 and self.activities[0] == self.params.alpha
                else self.activities.tolist()
            ),
            "horizon": self.horizon,
            "sample_dt": self.sample_dt,
            "seed": self.seed,
            "infection_mode": self.infection_mode,
            "directionality": self.directionality,
            "record_events": self.record_events,
            "rng": RNG_NAME,
        }
        if self.behaviours0 is not None:
            d["behaviours0"] = self.behaviours0.tolist()
            d["healths0"] = self.healths0.tolist()
        else:
            d["x0"] = self.x0
            d["y0"] = self.y0
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AbmConfig":
        """The run spec of `to_dict`; absent optional keys take the field
        defaults. A key outside SPEC_KEYS, an rng other than RNG_NAME, or
        initial vectors next to initial fractions is a ConfigError."""
        unknown = [k for k in d if k not in cls.SPEC_KEYS]
        if unknown:
            raise ConfigError(f"unknown key(s) in the run spec: {', '.join(map(repr, unknown))}")
        if d.get("rng", RNG_NAME) != RNG_NAME:
            raise ConfigError(f"rng must be {RNG_NAME!r}, not {d['rng']!r}")
        params = ModelParams.from_dict(d["params"])
        graph = InfluenceGraph.from_dict(d["graph"])
        # every initial key given goes to the constructor, which rejects a
        # spec holding both vectors and fractions, or only one of a pair
        initial = {k: None if d[k] is None else config_vector(k, d[k], int)
                   for k in ("behaviours0", "healths0") if k in d}
        initial.update({k: config_value(k, d[k], float) for k in ("x0", "y0") if k in d})
        record_events = d.get("record_events")
        if record_events is not None and not isinstance(record_events, bool):
            raise ConfigError("record_events must be true, false or null")
        return cls(
            params=params,
            graph=graph,
            activities=activities_from(d.get("activities", "uniform"), graph.n, params.alpha),
            horizon=config_value("horizon", d.get("horizon"), float),
            sample_dt=config_value("sample_dt", d.get("sample_dt"), float),
            seed=config_value("seed", d.get("seed"), int),
            infection_mode=d.get("infection_mode", "aggregated"),
            directionality=d.get("directionality", "bidirectional"),
            record_events=record_events,
            **initial,
        )


def _uniform_stream(rng: np.random.Generator):
    """A zero-argument draw of one uniform: the doubles of successive
    ``rng.random(UNIFORM_BLOCK)`` blocks, in order. They equal successive
    scalar ``rng.random()`` calls, at the cost of one list step each."""
    blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


def _frozen_draws(rng: np.random.Generator):
    """The frozen path's draws: a zero-argument uniform, the double that a
    scalar ``rng.random()`` call gives, through the bit generator's ctypes
    ``next_double`` without the Generator method's wrapper; and
    ``rng.standard_exponential``, which times 1/R is ``rng.exponential(1/R)``."""
    bits = rng.bit_generator.ctypes
    return partial(bits.next_double, bits.state), rng.standard_exponential


def _alias_table(weights) -> tuple[list, list]:
    """Vose's alias table for a pick proportional to ``weights``, in O(n).

    With k = int(u*n) for a uniform u, the pick is k if u*n - k < prob[k],
    else alias[k]; so agent i is picked with probability
    (prob[i] + sum of 1 - prob[k] over k with alias[k] = i) / n.
    """
    n = len(weights)
    total = math.fsum(weights)
    scaled = [w * n / total for w in weights]
    prob = [1.0] * n
    alias = list(range(n))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        prob[lo], alias[lo] = scaled[lo], hi
        # Vose's order of operations: hi keeps the excess over 1 that lo did not take
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    # what is left on either list has weight 1 up to rounding, and keeps prob 1
    return prob, alias


def simulate(cfg: AbmConfig) -> tuple[Trajectory, EventLog]:
    """One statistically exact realization; identical seeds give identical logs."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.behaviours0 is not None:
        behaviours, healths = cfg.behaviours0, cfg.healths0
    else:
        behaviours = (rng.random(cfg.graph.n) < cfg.x0).astype(np.int8)
        healths = (rng.random(cfg.graph.n) < cfg.y0).astype(np.int8)
    if not cfg.params.payoff_assumption_holds:
        import warnings

        warnings.warn(
            "parameters violate the payoff ordering (c > 1, zeta > c + 1); "
            "simulation is well-defined but the analytical regime results do not apply",
            stacklevel=2,
        )
    times, xs, ys, log, counts, nulls = _run(cfg, behaviours, healths, rng)
    log.seed = cfg.seed
    traj = Trajectory(
        times=times,
        xs=xs,
        ys=ys,
        params=cfg.params,
        meta={"seed": cfg.seed, "rng": RNG_NAME, "mode": cfg.infection_mode,
              "directionality": cfg.directionality, "n": cfg.graph.n,
              "events": counts, "null_proposals": nulls},
    )
    return traj, log


def _check_counts(x: list, y: list, n1: int, n_inf: int) -> None:
    """Raise unless the agent lists hold n1 adopters and n_inf infected."""
    if sum(x) != n1 or sum(y) != n_inf:
        raise NumericalError("incremental counters diverged from agent vectors")


def _run(cfg: AbmConfig, xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator):
    """The event loop, for every influence graph, from the behaviours `xs`
    and healths `ys`, which it leaves unchanged.

    The agent vectors are copied once into Python lists; group members,
    activity sums and rates are plain Python ints and floats, so the loop does
    no numpy scalar arithmetic. Adopters, non-adopters and the infected are
    lists that are only sampled by slot, so removing the sampled member moves
    the last one into its slot. The eligible (susceptible, unprotected) group
    also loses members it did not sample, so it keeps each member's slot
    (``elig_pos``); adding and removing are inline, because method calls
    cost a measurable share of each event. On the complete graph the adopt
    and drop channels fire at their exact totals; on any other graph they
    fire at the thinning bounds and each proposal walks the out-neighbour
    lists (module docstring). The behaviour terms (adopter count, xbar, the
    adopt weight and the drop rate) change only with adopt and drop events,
    so they are recomputed only after one; the other rates are recomputed
    only after an event that changed the state. `_check_counts` checks the
    counters against the lists at each grid time and after the last event.
    """
    p = cfg.params
    g = cfg.graph
    n = g.n
    acts = cfg.activities
    x, y, a = xs.tolist(), ys.tolist(), acts.tolist()
    uniform_act = float(np.ptp(acts)) == 0.0
    a_max = float(acts.max())
    a_total = float(acts.sum())
    bidi = cfg.bidirectional
    contact_mode = cfg.infection_mode == "contact"
    record = cfg.record_events
    horizon = cfg.horizon
    log = EventLog()
    log_event = log.flat.extend
    # off the complete graph: out-neighbour lists for the thinning walks
    nbrs = None if g.is_complete else g.neighbor_lists()
    # with heterogeneous activities: the contact initiator's alias table
    if contact_mode and not uniform_act:
        alias_prob, alias = _alias_table(a)

    free = (ys == SUSCEPTIBLE) & (xs == NO_PROTECTION)
    adopters = np.flatnonzero(xs == PROTECTION).tolist()
    nonadopters = np.flatnonzero(xs == NO_PROTECTION).tolist()
    infected = np.flatnonzero(ys == INFECTED).tolist()
    elig = np.flatnonzero(free).tolist()
    # slots of ids that are not members are stale and never read
    elig_pos = [-1] * n
    for k, i in enumerate(elig):
        elig_pos[i] = k
    a_inf = float(acts[ys == INFECTED].sum())
    a_elig = float(acts[free].sum())
    n_rec = n_infect = n_adopt = n_drop = n_contact = 0
    null_adopt = null_drop = 0

    grid = sample_grid(cfg.horizon, cfg.sample_dt)
    grid_t = grid.tolist() + [math.inf]  # sentinel: never reached
    t_next = grid_t[0]
    out_x = []
    out_y = []
    t = 0.0
    lam, mu, c, zeta = p.lam, p.mu, p.c, p.zeta
    per_pair = lam / (n - 1)
    # the draw contract by path (module docstring)
    frozen = nbrs is None and uniform_act
    if frozen:
        random, standard_exponential = _frozen_draws(rng)
    else:
        random = _uniform_stream(rng)
    ln = math.log
    moved = sick = True

    while True:
        # the behaviour terms change only with adopt and drop events, and the
        # rates only with those and with recoveries and infections, not with
        # a contact that transmits nothing or a null proposal. Every rate
        # keeps its operands and association order, so seeded runs give the
        # same doubles: r_adopt is (n0*xbar) * (xbar + zeta*ybar) on the
        # complete graph
        if moved:
            n1 = len(adopters)
            n0 = n - n1
            xbar = n1 / n
            if nbrs is None:
                w_adopt, adopt_base = n0 * xbar, xbar
                r_drop = n1 * (1.0 - xbar) * (1.0 - xbar + c)
            else:
                # thinning bounds: q01 <= 1 + zeta*ybar, and 0 without adopters;
                # q10 <= 1 + c, and 0 without non-adopters
                w_adopt, adopt_base = (n0 if n1 else 0.0), 1.0
                r_drop = n1 * (1.0 + c) if n0 else 0.0
        if moved or sick:
            n_inf = len(infected)
            n_elig = len(elig)
            ybar = n_inf / n
            r_adopt = w_adopt * (adopt_base + zeta * ybar)
            r_rec = mu * n_inf
            if contact_mode:
                # contacts cannot change state without infected present; skipping
                # them then is exact thinning, but only when no log is kept
                r_mid = a_total if (n_inf > 0 or record) else 0.0
            elif bidi:
                r_mid = per_pair * (n_inf * a_elig + n_elig * a_inf)
            else:
                r_mid = per_pair * n_elig * a_inf
            r_inf = r_rec + r_mid
            r_imit = r_inf + r_adopt
            total = r_imit + r_drop
            moved = sick = False
        if total <= 0.0:
            break
        if frozen:
            t_new = t + (1.0 / total) * standard_exponential()
        else:
            t_new = t - ln(1.0 - random()) / total
        # sample every grid time strictly before min(t_new, horizon)
        if t_next < t_new and t_next < horizon:
            _check_counts(x, y, n1, n_inf)
            while t_next < t_new and t_next < horizon:
                out_x.append(xbar)
                out_y.append(ybar)
                t_next = grid_t[len(out_x)]
        if t_new >= horizon:
            break
        t = t_new
        u = random() * total
        if u < r_rec:
            k = int(random() * n_inf)
            i = infected[k]
            infected[k] = infected[-1]
            infected.pop()
            y[i] = SUSCEPTIBLE
            a_inf -= a[i]
            if x[i] == NO_PROTECTION:
                elig_pos[i] = n_elig
                elig.append(i)
                a_elig += a[i]
            n_rec += 1
            sick = True
            if record:
                log_event((t, EVENT_RECOVERY, i, None))
        elif u < r_inf:
            source = None
            if contact_mode:
                if uniform_act:
                    i = int(random() * n)
                else:
                    u = random() * n
                    i = int(u)
                    if u - i >= alias_prob[i]:
                        i = alias[i]
                j = int(random() * (n - 1))
                if j >= i:
                    j += 1
                n_contact += 1
                if record:
                    log_event((t, EVENT_CONTACT, i, j))
                if y[i] == INFECTED and y[j] == SUSCEPTIBLE and x[j] == NO_PROTECTION:
                    target, source = j, i
                elif bidi and y[i] == SUSCEPTIBLE and x[i] == NO_PROTECTION and y[j] == INFECTED:
                    target, source = i, j
                if source is None or random() >= lam:
                    target = None
            elif bidi and not uniform_act:
                # per-agent weight a_i*nI + A_I; rejection against the max
                w_max = a_max * n_inf + a_inf
                while True:
                    target = elig[int(random() * n_elig)]
                    if random() * w_max <= a[target] * n_inf + a_inf:
                        break
            else:
                target = elig[int(random() * n_elig)]
            if target is not None:
                # the target is susceptible and unprotected, so eligible
                y[target] = INFECTED
                infected.append(target)
                last = elig[-1]
                elig[elig_pos[target]] = last
                elig_pos[last] = elig_pos[target]
                elig.pop()
                a_inf += a[target]
                a_elig -= a[target]
                n_infect += 1
                sick = True
                if record:
                    log_event((t, EVENT_INFECTION, target, source))
        elif u < r_imit:
            k = int(random() * n0)
            i = nonadopters[k]
            if nbrs is not None:
                # accept with probability q01_i / (1 + zeta*ybar)
                nb = nbrs[i]
                j = nb[int(random() * len(nb))]
                zy = zeta * ybar
                if x[j] == PROTECTION and random() * (1.0 + zy) >= zy:
                    nb = nbrs[j]
                    j = nb[int(random() * len(nb))]
                if x[j] == NO_PROTECTION:
                    null_adopt += 1
                    continue
            nonadopters[k] = nonadopters[-1]
            nonadopters.pop()
            adopters.append(i)
            x[i] = PROTECTION
            if y[i] == SUSCEPTIBLE:
                last = elig[-1]
                elig[elig_pos[i]] = last
                elig_pos[last] = elig_pos[i]
                elig.pop()
                a_elig -= a[i]
            n_adopt += 1
            moved = True
            if record:
                log_event((t, EVENT_ADOPT, i, None))
        else:
            k = int(random() * n1)
            i = adopters[k]
            if nbrs is not None:
                # accept with probability q10_i / (1 + c)
                nb = nbrs[i]
                j = nb[int(random() * len(nb))]
                if x[j] == NO_PROTECTION and random() * (1.0 + c) >= c:
                    nb = nbrs[j]
                    j = nb[int(random() * len(nb))]
                if x[j] == PROTECTION:
                    null_drop += 1
                    continue
            adopters[k] = adopters[-1]
            adopters.pop()
            nonadopters.append(i)
            x[i] = NO_PROTECTION
            if y[i] == SUSCEPTIBLE:
                elig_pos[i] = n_elig
                elig.append(i)
                a_elig += a[i]
            n_drop += 1
            moved = True
            if record:
                log_event((t, EVENT_DROP, i, None))

    n1, n_inf = len(adopters), len(infected)
    _check_counts(x, y, n1, n_inf)
    while len(out_x) < grid.size:  # the state holds through the horizon
        out_x.append(n1 / n)
        out_y.append(n_inf / n)
    counts = (n_rec, n_infect, n_adopt, n_drop, n_contact)
    nulls = {EVENT_ADOPT: null_adopt, EVENT_DROP: null_drop}
    return grid, np.array(out_x), np.array(out_y), log, dict(zip(EVENT_KINDS, counts)), nulls


@dataclass
class EnsembleResult:
    """Pointwise mean and deviation across seeded replicate runs."""

    times: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray
    x_std: np.ndarray
    y_std: np.ndarray
    finals: np.ndarray  # (n_runs, 2)
    seeds: list[int]
    params: ModelParams

    @property
    def n_runs(self) -> int:
        return len(self.seeds)

    def mean_trajectory(self) -> Trajectory:
        return Trajectory(
            times=self.times,
            xs=self.x_mean,
            ys=self.y_mean,
            params=self.params,
            meta={"n_runs": self.n_runs, "seeds": list(self.seeds)},
        )

    def to_csv(self, path) -> None:
        write_csv(path, "t,x_mean,y_mean,x_std,y_std",
                  [self.times, self.x_mean, self.y_mean, self.x_std, self.y_std])


def _one_run(cfg: AbmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    traj, _ = simulate(cfg)
    return traj.times, traj.xs, traj.ys


def check_ensemble_size(n_runs: int, n_jobs: int) -> None:
    """Raise ConfigError unless n_runs and n_jobs are both >= 1."""
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, not {n_runs!r}")
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, not {n_jobs!r}")


def ensemble(cfg: AbmConfig, n_runs: int, n_jobs: int = 1) -> EnsembleResult:
    """Replicate runs with seeds cfg.seed + 0 ... cfg.seed + n_runs - 1."""
    check_ensemble_size(n_runs, n_jobs)
    seeds = [cfg.seed + k for k in range(n_runs)]
    cfgs = [dataclasses.replace(cfg, seed=s) for s in seeds]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_one_run, cfgs))
    else:
        results = [_one_run(c) for c in cfgs]
    times = results[0][0]
    xs = np.stack([r[1] for r in results])
    ys = np.stack([r[2] for r in results])
    ddof = 1 if n_runs > 1 else 0
    return EnsembleResult(
        times=times,
        x_mean=xs.mean(axis=0),
        y_mean=ys.mean(axis=0),
        x_std=xs.std(axis=0, ddof=ddof),
        y_std=ys.std(axis=0, ddof=ddof),
        finals=np.column_stack([xs[:, -1], ys[:, -1]]),
        seeds=seeds,
        params=cfg.params,
    )
